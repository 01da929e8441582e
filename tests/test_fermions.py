import math

import numpy as np
import pytest

from darkwells.fermions import (
    FermionAsymptoticState,
    apply_creation,
    branches_to_json,
    creation_product,
    dark_vector,
    three_electron_asymptotic,
    two_electron_asymptotic,
    two_electron_parallel_asymptotic,
)
from darkwells.model import NoBoundStateError, ParallelWellPair, WellPair

from oracles import fermion_expansion_oracle, is_product_state


def make_parallel(y, yprime, U=0.0, E2=None, eta=1):
    E2 = 0.0 if E2 is None else E2
    base = WellPair.from_widths(1.0, y, eta=eta)
    if E2 != 0.0:
        base = WellPair(
            E1=0.0, E2=E2, omega1=base.omega1, omega2=base.omega2, rho=base.rho
        )
    return ParallelWellPair(base=base, yprime=yprime, U=U)


def test_creation_engine_matches_determinant_oracle():
    rng = np.random.default_rng(23)
    for n_particles in (1, 2, 3):
        for _ in range(6):
            vectors = [rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(n_particles)]
            got = creation_product(vectors, 6)
            want = fermion_expansion_oracle(vectors, 6)
            assert set(got) == set(want)
            for occ, amp in got.items():
                assert amp == pytest.approx(want[occ], abs=1e-12)


def test_creation_engine_signs_by_hand():
    # a2+ a0+ |0> = -a0+ a2+ |0>
    e0 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0])
    state = creation_product([e2, e0], 3)
    assert state[(1, 0, 1)] == pytest.approx(-1.0)
    state = creation_product([e0, e2], 3)
    assert state[(1, 0, 1)] == pytest.approx(1.0)


def test_creation_engine_pauli_and_normalization():
    e0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="wedge"):
        creation_product([e0, e0], 2)
    skew = np.array([1.0, 1.0]) / math.sqrt(2.0)
    state = creation_product([e0, skew], 2)
    # only the antisymmetric part survives, renormalized
    assert state[(1, 1)] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="length"):
        creation_product([np.ones(3)], 2)


def test_apply_creation_blocks_occupied_modes():
    # a2+ commutes past the occupied mode 1 once; mode 1 itself is Pauli blocked
    out = apply_creation({(1,): 1.0}, [0.0, 2.0, 0.5])
    assert out == {(1, 2): -0.5}
    out = apply_creation({(1,): 1.0}, [0.25, 0.0, 0.0])
    assert out == {(0, 1): 0.25}


def test_dark_vector_forms():
    np.testing.assert_allclose(
        dark_vector(4.0), np.array([2.0, -1.0]) / math.sqrt(5.0), atol=1e-14
    )
    np.testing.assert_allclose(
        dark_vector(4.0, eta=-1), np.array([-2.0, -1.0]) / math.sqrt(5.0), atol=1e-14
    )
    with pytest.raises(ValueError):
        dark_vector(-1.0)
    with pytest.raises(ValueError):
        dark_vector(1.0, eta=0)


@pytest.mark.parametrize("y", [1.0, 4.0])
@pytest.mark.parametrize("eta", [1, -1])
def test_two_electron_separated_wells(y, eta):
    branches = two_electron_asymptotic(y, eta=eta)
    assert len(branches) == 1
    br = branches[0]
    assert br.reservoir_count == 1 and {sum(occ) for occ in br.amplitudes} == {1}
    assert br.probability == pytest.approx(1.0)
    # the survivor is the dark mode (eta sqrt(y), -1) / sqrt(1 + y)
    root = math.sqrt(1.0 + y)
    assert br.amplitudes == {
        (1, 0): pytest.approx(eta * math.sqrt(y) / root),
        (0, 1): pytest.approx(-1.0 / root),
    }


@pytest.mark.parametrize("y", [1.0, 4.0])
def test_two_electron_parallel_on_resonance(y):
    model = make_parallel(y, 1.0, U=2.0, E2=2.0)
    branches = two_electron_parallel_asymptotic(model)
    by_count = {br.reservoir_count: br for br in branches}
    assert set(by_count) == {0, 1}
    assert by_count[0].probability == pytest.approx(y / (1 + y), rel=1e-12)
    assert by_count[1].probability == pytest.approx(1 / (1 + y), rel=1e-12)
    assert {sum(occ) for occ in by_count[0].amplitudes} == {2}
    assert {sum(occ) for occ in by_count[1].amplitudes} == {1}


def test_two_electron_parallel_retained_state_matches_oracle():
    y, yp = 4.0, 0.7
    model = make_parallel(y, yp, U=1.0, E2=1.0)
    retained = {
        br.reservoir_count: br for br in two_electron_parallel_asymptotic(model)
    }[0]
    s = 1.0 / math.hypot(yp, 1.0)
    d1 = np.array([yp, -1.0, 0.0, 0.0]) * s
    d1c = np.array([1.0, yp, 0.0, 0.0]) * s
    d2c = np.array([0.0, 0.0, 1.0, yp]) * s
    trapped = (math.sqrt(y) * d1c - d2c) / math.sqrt(1.0 + y)
    want = fermion_expansion_oracle([d1, trapped], 4)
    assert set(retained.amplitudes) == set(want)
    for occ, amp in retained.amplitudes.items():
        assert amp == pytest.approx(want[occ], abs=1e-12)


def test_two_electron_parallel_off_resonance():
    model = make_parallel(1.0, 1.0, U=2.0, E2=0.0)
    branches = two_electron_parallel_asymptotic(model)
    assert len(branches) == 1
    br = branches[0]
    assert br.reservoir_count == 1
    assert br.probability == pytest.approx(1.0)
    # survivor is the first well's local dark mode
    s = 1.0 / math.sqrt(2.0)
    assert br.amplitudes[(1, 0, 0, 0)] == pytest.approx(s)
    assert br.amplitudes[(0, 1, 0, 0)] == pytest.approx(-s)


def test_parallel_requires_both_wells_coupled():
    base = WellPair(E1=0.0, E2=0.0, omega1=1.0, omega2=0.0)
    model = ParallelWellPair(base=base, yprime=1.0)
    with pytest.raises(ValueError, match="both wells"):
        two_electron_parallel_asymptotic(model)
    with pytest.raises(ValueError, match="both wells"):
        three_electron_asymptotic(model)


def test_three_electron_retained_state_sign_pattern():
    state = three_electron_asymptotic(make_parallel(1.0, 1.0, U=0.7))
    assert state.reservoir_count == 1 and {sum(occ) for occ in state.amplitudes} == {3}
    amps = state.amplitudes
    assert amps[(1, 1, 1, 0)] == pytest.approx(0.5)
    assert amps[(1, 1, 0, 1)] == pytest.approx(-0.5)
    assert amps[(1, 0, 1, 1)] == pytest.approx(0.5)
    assert amps[(0, 1, 1, 1)] == pytest.approx(-0.5)
    with pytest.raises(NoBoundStateError):
        base = WellPair.from_widths(1.0, 1.0, epsilon=0.2)
        three_electron_asymptotic(ParallelWellPair(base=base, yprime=1.0))


def test_three_electron_matches_oracle_general_ratios():
    y, yp = 2.5, 0.4
    state = three_electron_asymptotic(make_parallel(y, yp, U=0.3))
    s = 1.0 / math.hypot(yp, 1.0)
    d1 = np.array([yp, -1.0, 0.0, 0.0]) * s
    d1c = np.array([1.0, yp, 0.0, 0.0]) * s
    d2 = np.array([0.0, 0.0, yp, -1.0]) * s
    d2c = np.array([0.0, 0.0, 1.0, yp]) * s
    mobile = (math.sqrt(y) * d1c - d2c) / math.sqrt(1.0 + y)
    want = fermion_expansion_oracle([d1, mobile, d2], 4)
    assert set(state.amplitudes) == set(want)
    for occ, amp in state.amplitudes.items():
        assert amp == pytest.approx(want[occ], abs=1e-12)


def test_retained_pair_is_one_determinant_for_all_ratios():
    # the trapped branch factors as d1 wedge (combination of coupled modes)
    # no matter the ratios; entanglement lives in the well occupations, not
    # in the determinant count, as the site Schmidt rank shows
    model = make_parallel(1.0, 1.0, U=2.0, E2=2.0)
    retained = {
        br.reservoir_count: br for br in two_electron_parallel_asymptotic(model)
    }[0]
    flag, spectrum = is_product_state(retained.amplitudes)
    assert flag
    assert spectrum[0] == pytest.approx(1.0, abs=1e-12)
    assert spectrum[1] < 1e-12
    # well-against-well bipartition of the same state is rank 2
    m = np.zeros((4, 4), dtype=complex)
    side = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    for occ, amp in retained.amplitudes.items():
        m[side[occ[:2]], side[occ[2:]]] = amp
    schmidt = np.linalg.svd(m, compute_uv=False)
    assert schmidt[1] > 1e-3
    assert schmidt[2] < 1e-12


def test_is_product_state_detects_two_determinants():
    amps = {
        (1, 1, 0, 0): complex(1.0 / math.sqrt(2.0)),
        (0, 0, 1, 1): complex(1.0 / math.sqrt(2.0)),
    }
    flag, spectrum = is_product_state(amps)
    assert not flag
    assert spectrum[0] == pytest.approx(spectrum[1], rel=1e-12)


def test_is_product_state_limit_ratios():
    big = make_parallel(1e6, 1.0, U=2.0, E2=2.0)
    retained = {
        br.reservoir_count: br for br in two_electron_parallel_asymptotic(big)
    }[0]
    assert is_product_state(retained.amplitudes)[0]
    thin = make_parallel(1.0, 1e-6, U=2.0, E2=2.0)
    retained = {
        br.reservoir_count: br for br in two_electron_parallel_asymptotic(thin)
    }[0]
    assert is_product_state(retained.amplitudes)[0]


def test_is_product_state_matrix_input_and_validation():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 1] = 1.0 / math.sqrt(2.0)
    mat[1, 0] = -mat[0, 1]
    flag, _ = is_product_state(mat)
    assert flag
    with pytest.raises(ValueError, match="antisymmetric"):
        is_product_state(np.eye(4))
    with pytest.raises(ValueError, match="two-particle"):
        is_product_state({(1, 1, 1, 0): 1.0})
    with pytest.raises(ValueError, match="zero"):
        is_product_state(np.zeros((4, 4)))


def test_pairing_spectrum_is_rotation_invariant():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = mat - mat.T
    mat /= np.linalg.norm(mat)
    _, spectrum = is_product_state(mat)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rotated = q @ mat @ q.T
    _, spectrum2 = is_product_state(rotated)
    np.testing.assert_allclose(spectrum2, spectrum, atol=1e-12)


def test_branch_state_validation():
    good = {(1, 0): complex(1.0)}
    with pytest.raises(ValueError, match="probability"):
        FermionAsymptoticState(reservoir_count=0, probability=1.5, amplitudes=good)
    with pytest.raises(ValueError, match="empty"):
        FermionAsymptoticState(reservoir_count=0, probability=0.5, amplitudes={})
    with pytest.raises(ValueError, match="fermionic"):
        FermionAsymptoticState(
            reservoir_count=0, probability=0.5, amplitudes={(2, 0): 1.0}
        )
    with pytest.raises(ValueError, match="mixed"):
        FermionAsymptoticState(
            reservoir_count=0,
            probability=0.5,
            amplitudes={(1, 0): math.sqrt(0.5), (1, 1): math.sqrt(0.5)},
        )
    with pytest.raises(ValueError, match="norm"):
        FermionAsymptoticState(
            reservoir_count=0, probability=0.5, amplitudes={(1, 0): 0.5}
        )


def test_branches_to_json_is_deterministic():
    model = make_parallel(4.0, 1.0, U=2.0, E2=2.0)
    branches = two_electron_parallel_asymptotic(model)
    doc = branches_to_json(branches)
    assert [d["reservoir_count"] for d in doc] == [0, 1]
    assert doc[0]["probability"] == pytest.approx(0.8)
    occs = [tuple(t["occupation"]) for t in doc[0]["terms"]]
    assert occs == sorted(occs)
    for term in doc[0]["terms"]:
        assert len(term["amplitude"]) == 2
    assert doc == branches_to_json(list(reversed(branches)))
