"""Property tests of the exact wide-band propagator, the boson laws (and
their integer rows against independent expansions), the oracle's dark
state on both single-particle propagators, its real Chebyshev recurrence
and its Fock hop kernel.

Draws are derandomized with a fixed example count, so every run checks the
same cases.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, exp, gcd, hypot

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import Phase, assume, given, settings, strategies as st

from darkwells.bosons import (
    emission_distribution,
    equal_fill_even_distribution,
    one_well_distribution,
    retained_state_split,
    rotate_fock,
)
from darkwells import dynamics
from darkwells.dynamics import asymptotic_probs, master_trajectory
from darkwells.model import WellPair
from darkwells.oracle import (
    DiscretizedReservoir,
    FockSpace,
    _hops,
    chebyshev_propagate,
    single_particle_method,
    single_particle_trajectory,
)
from darkwells.rotation import dark_state
from oracles import (
    _occupation_vectors,
    boson_rotation_oracle,
    hop_reference,
    sort_and_rank_hops,
)

PROPERTY = settings(max_examples=80, derandomize=True, database=None, deadline=None)
TOL = 1e-12

widths = st.floats(0.05, 5.0)
signs = st.sampled_from([1, -1])
time_grids = st.lists(st.floats(0.0, 30.0), min_size=1, max_size=20).map(sorted)


@st.composite
def pairs(draw, aligned=False):
    eps = 0.0 if aligned else draw(st.floats(-3.0, 3.0))
    return WellPair.from_widths(
        draw(widths), draw(widths), eta=draw(signs), epsilon=eps
    )


@st.composite
def amplitudes(draw):
    parts = draw(
        st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
            lambda v: sum(x * x for x in v) > 1e-2
        )
    )
    vec = np.array([complex(parts[0], parts[1]), complex(parts[2], parts[3])])
    return vec / np.linalg.norm(vec)


def projector(a):
    return np.outer(a, a.conj())


def triple(sigma):
    return float(sigma[0, 0].real), float(sigma[1, 1].real), complex(sigma[0, 1])


def occupation(pair, a, times):
    amplitudes = dynamics._propagators([pair], np.asarray(times)[None])[0] @ a
    return np.sum(np.abs(amplitudes) ** 2, axis=1)


@PROPERTY
@given(pair=pairs(), a=amplitudes(), b=amplitudes(), w=st.floats(0.0, 1.0),
       times=time_grids)
def test_master_trace_positivity_and_monotone_emission(pair, a, b, w, times):
    # w = 1 is a pure start, anything else a genuine mixture of a and b
    sigma0 = w * projector(a) + (1.0 - w) * projector(b)
    traj = master_trajectory(pair, triple(sigma0), times)
    np.testing.assert_allclose(
        traj.sigma11 + traj.sigma22 + traj.sigma00, 1.0, rtol=0.0, atol=TOL
    )
    # linearity: the mixture keeps what its pure components keep
    kept = w * occupation(pair, a, times) + (1.0 - w) * occupation(pair, b, times)
    np.testing.assert_allclose(traj.occupation, kept, rtol=0.0, atol=TOL)
    assert np.all(np.abs(traj.sigma12) ** 2 <= traj.sigma11 * traj.sigma22 + TOL)
    assert np.all(np.diff(traj.sigma00) >= -TOL)


# no shrink phase: each oracle run takes about a second, so minimising a
# failing example would take minutes before the failure is reported
@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(
    log_gamma1=st.floats(-1.0, 1.0),
    log_y=st.floats(-1.5, 1.5),
    eta=signs,
    dense_levels=st.integers(20, 100).map(lambda k: 2 * k),
)
def test_oracle_keeps_the_dark_state_on_both_propagators(log_gamma1, log_y, eta, dense_levels):
    # the band's couplings keep the two columns exactly proportional, so the
    # dark vector, built here from the couplings alone, never leaves the wells
    gamma1 = exp(log_gamma1)
    pair = WellPair.from_widths(gamma1, gamma1 * exp(log_y), eta=eta)
    norm = hypot(pair.omega1, pair.omega2)
    dark = (pair.omega2 / norm, -pair.omega1 / norm)
    for n_levels, method in ((dense_levels, "dense"), (1600, "chebyshev")):
        assert single_particle_method(n_levels) == method
        res = DiscretizedReservoir.for_pair(pair, n_levels)
        times = np.linspace(0.0, 0.45 * res.recurrence_time, 41)
        occupation = single_particle_trajectory(pair, dark, times, n_levels).trajectory.occupation
        assert np.abs(occupation - 1.0).max() <= TOL


@PROPERTY
@given(pair=pairs(aligned=True), a=amplitudes(), times=time_grids)
def test_dark_population_is_invariant_for_aligned_levels(pair, a, times):
    d = dark_state(pair)
    dark = master_trajectory(pair, triple(projector(d.astype(complex))), times)
    np.testing.assert_allclose(dark.sigma11, d[0] ** 2, rtol=0.0, atol=TOL)
    np.testing.assert_allclose(dark.sigma22, d[1] ** 2, rtol=0.0, atol=TOL)
    np.testing.assert_allclose(dark.sigma12, d[0] * d[1], rtol=0.0, atol=TOL)
    traj = master_trajectory(pair, triple(projector(a)), times)
    population = (
        d[0] ** 2 * traj.sigma11
        + d[1] ** 2 * traj.sigma22
        + 2.0 * d[0] * d[1] * traj.sigma12.real
    )
    np.testing.assert_allclose(
        population, abs(d[0] * a[0] + d[1] * a[1]) ** 2, rtol=0.0, atol=TOL
    )


@PROPERTY
@given(pair=pairs(aligned=True), a=amplitudes())
def test_asymptotic_probs_match_long_time_propagation(pair, a):
    t_long = 80.0 / (pair.gamma1 + pair.gamma2)
    p_trapped, p_emitted = asymptotic_probs(pair, a)
    traj = master_trajectory(pair, triple(projector(a)), [t_long])
    assert traj.occupation[0] == pytest.approx(p_trapped, abs=TOL)
    assert traj.sigma00[0] == pytest.approx(p_emitted, abs=TOL)


quarter_ratios = st.integers(1, 24).map(lambda k: k / 4.0)


@st.composite
def boson_laws(draw):
    law = draw(st.sampled_from(["emission", "equal_fill", "one_well", "retained_split"]))
    if law == "emission":
        n1 = draw(st.integers(0, 10))
        n2 = draw(st.integers(1 if n1 == 0 else 0, 10))
        return emission_distribution(
            rotate_fock(n1, n2, draw(quarter_ratios), eta=draw(signs))
        )
    if law == "equal_fill":
        return equal_fill_even_distribution(draw(st.integers(1, 12)))
    if law == "one_well":
        return one_well_distribution(draw(st.integers(1, 20)), draw(quarter_ratios))
    return retained_state_split(draw(st.integers(0, 20)), draw(quarter_ratios))


@PROPERTY
@given(dist=boson_laws())
def test_boson_laws_are_exact_distributions(dist):
    probs = list(dist.probabilities.values())
    assert all(isinstance(p, Fraction) and 0 <= p <= 1 for p in probs)
    assert sum(probs, Fraction(0)) == Fraction(1)


@st.composite
def integer_law_cases(draw):
    """Counts n1 + n2 <= 12 with a coprime ratio p/q, p, q <= 13, and a sign."""
    n1 = draw(st.integers(0, 12))
    n2 = draw(st.integers(1 if n1 == 0 else 0, 12 - n1))
    p, q = draw(st.integers(1, 13)), draw(st.integers(1, 13))
    assume(gcd(p, q) == 1)
    return n1, n2, Fraction(p, q), draw(signs)


@PROPERTY
@given(case=integer_law_cases())
def test_integer_laws_match_independent_expansions(case):
    n1, n2, y, eta = case
    state = rotate_fock(n1, n2, y, eta=eta)
    for n_dark, (sign, square) in boson_rotation_oracle(n1, n2, y, eta=eta).items():
        amp = state.amplitude(n_dark, n1 + n2 - n_dark)
        assert (amp.sign, amp.square) == (sign, square)
    assert sum(emission_distribution(state).probabilities.values(), Fraction(0)) == 1
    # each boson lands in the bright mode with probability 1 / (1 + y)
    n = n1 + n2
    bright = 1 / (1 + y)
    assert one_well_distribution(n, y).probabilities == {
        m: comb(n, m) * bright**m * (1 - bright) ** (n - m) for m in range(n + 1)
    }
    assert retained_state_split(n, y).probabilities == {
        k: comb(n, k) * (1 - bright) ** k * bright ** (n - k) for k in range(n + 1)
    }


@st.composite
def real_sparse_starts(draw):
    dim = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = sp.random(dim, dim, density=draw(st.floats(0.05, 1.0)), format="csr",
                  random_state=rng, data_rvs=rng.standard_normal)
    # a single vector or a two-orbital stack
    psi0 = rng.standard_normal((dim, 2) if draw(st.booleans()) else dim)
    return (a + a.T).tocsr(), psi0 / np.linalg.norm(psi0, axis=0)


@PROPERTY
@given(h_psi0=real_sparse_starts(), times=st.lists(st.floats(0.0, 5.0), max_size=6).map(sorted))
def test_real_chebyshev_recurrence_gives_the_complex_bits(h_psi0, times):
    # a complex h forces the complex recurrence and complex sums; the real
    # recurrence with float64 sums gives their bytes, signed zeros included
    h, psi0 = h_psi0
    bounds = np.linalg.eigvalsh(h.toarray())[[0, -1]]
    real = chebyshev_propagate(h, psi0, times, bounds=bounds)
    complex_run = chebyshev_propagate(h.astype(complex), psi0, times, bounds=bounds)
    assert real.tobytes() == complex_run.tobytes()


@st.composite
def hop_problems(draw):
    """A Fock space of up to 7 modes and 4 particles, and a zero-diagonal
    one-body matrix with any sparsity pattern."""
    statistics = draw(st.sampled_from(["fermi", "bose"]))
    n_modes = draw(st.integers(1, 7))
    n_particles = draw(st.integers(1, min(4, n_modes) if statistics == "fermi" else 4))
    entries = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_subnormal=False))
    t = np.array(draw(st.lists(entries, min_size=n_modes**2, max_size=n_modes**2)))
    t = t.reshape(n_modes, n_modes)
    np.fill_diagonal(t, 0.0)
    return FockSpace(n_modes, n_particles, statistics), t


@PROPERTY
@given(problem=hop_problems())
def test_hop_kernel_matches_second_quantization(problem):
    space, t = problem
    source, target, p, q, value = _hops(space, t)
    basis = _occupation_vectors(space.n_modes, space.n_particles,
                                1 if space.statistics == "fermi" else space.n_particles)
    rows = np.array([np.repeat(np.arange(space.n_modes), occ) for occ in basis])
    index = space._rank(rows.T)
    assert sorted(index) == list(range(space.size))
    # basis position of each row of the space
    position = np.empty(space.size, dtype=np.int64)
    position[index] = np.arange(space.size)
    got = {
        (int(position[i]), int(position[j]), int(a), int(b)): float(v)
        for i, j, a, b, v in zip(source, target, p, q, value)
    }
    assert len(got) == source.size
    want = hop_reference(basis, t, space.statistics)
    assert got.keys() == want.keys()
    for key, amplitude in want.items():
        assert got[key] == pytest.approx(amplitude, rel=1e-14, abs=0.0)


@PROPERTY
@given(problem=hop_problems())
def test_hop_kernel_gives_the_sort_and_rank_bytes(problem):
    space, t = problem
    got = _hops(space, t)
    want = list(sort_and_rank_hops(space._modes, space.n_modes, space.statistics, t))
    # the kernel gives its basis indices (source, target) as int32
    assert all(np.array_equal(index, index.astype(np.int32)) for index in want[:2])
    want[:2] = [index.astype(np.int32) for index in want[:2]]
    for new, old in zip(got, want, strict=True):
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()


@st.composite
def fock_spaces(draw):
    statistics = draw(st.sampled_from(["fermi", "bose"]))
    n_particles = draw(st.integers(1, 3))
    n_modes = draw(st.integers(n_particles if statistics == "fermi" else 1, 24))
    return n_modes, n_particles, statistics


@PROPERTY
@given(args=fock_spaces())
def test_fock_basis_is_the_itertools_enumeration(args):
    n_modes, n_particles, statistics = args
    space = FockSpace(n_modes, n_particles, statistics)
    subsets = combinations if statistics == "fermi" else combinations_with_replacement
    want = np.array(list(subsets(range(n_modes), n_particles)), dtype=np.int64)
    got = space._modes
    assert got.dtype == np.int64 and got.flags.c_contiguous and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(space._rank(got.T), np.arange(space.size))
