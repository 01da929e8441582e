import logging
import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import jv

from darkwells.dynamics import analytic_sigma_symmetric
from darkwells.model import ParallelWellPair, WellPair
import darkwells.oracle
from darkwells.oracle import (
    DENSE_MAX_DIM,
    DiscretizedReservoir,
    OracleRequestError,
    Projection,
    _BESSEL_SCALAR_COLUMNS,
    _bessel_table,
    _one_body_terms,
    FockSpace,
    build_fock_hamiltonian,
    build_single_particle_hamiltonian,
    chebyshev_propagate,
    convergence_report,
    default_cutoff,
    dot_mode_count,
    evolve_exact,
    evolve_fock,
    fock_basis_state,
    fock_spectral_bounds,
    reduced_quantities,
    reservoir_couplings,
    single_particle_bounds,
    single_particle_method,
    single_particle_trajectory,
    slater_dot_rdm,
    slater_reservoir_distribution,
)
from darkwells.rotation import check_constant_ratio, dark_state
from oracles import (
    expm_propagate,
    fock_hamiltonian_reference,
    fock_reduced_reference,
    full_hop_fock_hamiltonian,
)


def test_reservoir_grid_geometry():
    res = DiscretizedReservoir.uniform(10, 5.0)
    assert res.spacing == pytest.approx(1.0)
    assert res.recurrence_time == pytest.approx(2.0 * math.pi)
    np.testing.assert_allclose(res.energies, np.arange(-4.5, 5.0, 1.0))
    # midpoint offset: symmetric grid, no level at zero
    assert np.all(res.energies != 0.0)
    np.testing.assert_allclose(res.energies + res.energies[::-1], 0.0, atol=1e-15)


def test_reservoir_validation():
    with pytest.raises(ValueError, match=">= 10"):
        DiscretizedReservoir.uniform(8, 5.0)
    with pytest.raises(ValueError, match="even"):
        DiscretizedReservoir.uniform(11, 5.0)
    with pytest.raises(ValueError, match="positive"):
        DiscretizedReservoir.uniform(10, 0.0)
    # an infinite spacing makes NaN levels; one of 2e-321 an infinite
    # recurrence time, and one that underflows to 0 divided by zero
    for n_levels, cutoff, spacing in ((40, 1.7e308, "inf"), (10, 1e-320, "2e-321"),
                                      (100_000, 1e-320, "0.0")):
        with pytest.raises(ValueError, match=f"= {spacing} or its recurrence time"):
            DiscretizedReservoir.uniform(n_levels, cutoff)


def test_default_cutoff_scales():
    assert default_cutoff(WellPair.from_widths(1.0, 1.0)) == pytest.approx(40.0)
    assert default_cutoff(
        WellPair.from_widths(0.5, 0.5, epsilon=100.0)
    ) == pytest.approx(2000.0)
    # the band is the model's cutoff when it has one, else the default
    pair = WellPair.from_widths(1.0, 1.0, lambda_cutoff=7.0)
    res = DiscretizedReservoir.for_pair(pair, 10)
    assert res.cutoff == 7.0
    res2 = DiscretizedReservoir.for_pair(WellPair.from_widths(1.0, 1.0), 10)
    assert res2.cutoff == 40.0


def test_couplings_keep_widths_and_ratio():
    pair = WellPair.from_widths(1.0, 3.0, eta=-1)
    res = DiscretizedReservoir.uniform(64, 10.0)
    coup = reservoir_couplings(pair, res)
    # every level keeps the physical width of its slice
    widths = 2.0 * math.pi * coup**2 / res.spacing
    np.testing.assert_allclose(widths[:, 0], pair.gamma1, rtol=1e-12)
    np.testing.assert_allclose(widths[:, 1], pair.gamma2, rtol=1e-12)
    ok, worst = check_constant_ratio(coup)
    assert ok and worst == 0.0


def test_hamiltonian_dense_and_sparse_agree():
    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.4)
    res = DiscretizedReservoir.uniform(32, 8.0)
    dense = build_single_particle_hamiltonian(pair, res)
    sparse = build_single_particle_hamiltonian(pair, res, sparse=True)
    np.testing.assert_allclose(sparse.toarray(), dense, atol=1e-15)
    np.testing.assert_allclose(dense, dense.T, atol=1e-15)
    assert dense[0, 0] == pair.E1 and dense[1, 1] == pair.E2


def test_evolve_exact_guards(monkeypatch):
    import darkwells.oracle as oracle_module

    with pytest.raises(ValueError, match="square"):
        evolve_exact(np.zeros((2, 3)), np.array([1.0, 0.0]), [0.0], [0])
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        evolve_exact(h, np.array([1.0, 0.0]), [0.0], [0])
    monkeypatch.setattr(oracle_module, "DENSE_MAX_DIM", 3)
    with pytest.raises(ValueError, match="dense limit 3"):
        evolve_exact(np.eye(4), np.array([1.0, 0, 0, 0]), [0.0], [0])
    with pytest.raises(ValueError, match="norm"):
        evolve_exact(np.eye(2), np.array([1.0, 1.0]), [0.0], [0])


def test_evolve_exact_refuses_a_stack_of_starts(monkeypatch):
    # a (dim, k) stack failed inside numpy with a broadcast error; it is
    # refused before the Hermiticity check and the eigensolve
    import darkwells.oracle as oracle_module

    def fail(*args, **kwargs):
        raise AssertionError("nothing may be checked or solved")

    monkeypatch.setattr(oracle_module, "_check_hermitian", fail)
    monkeypatch.setattr(oracle_module.np.linalg, "eigh", fail)
    with pytest.raises(ValueError, match=r"shape \(3, 2\).*chebyshev_propagate"):
        evolve_exact(np.diag([0.0, 1.0, 2.0]), np.eye(3)[:, :2], [0.0, 1.0], [0])


def test_chebyshev_matches_dense_eigensolve():
    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.6)
    res = DiscretizedReservoir.uniform(48, 10.0)
    dense = build_single_particle_hamiltonian(pair, res)
    sparse = build_single_particle_hamiltonian(pair, res, sparse=True)
    psi0 = np.zeros(50, dtype=complex)
    psi0[0] = 1.0
    times = np.array([0.0, 0.4, 1.3, 2.0])
    ref = evolve_exact(dense, psi0, times, rows=np.arange(50)).amplitudes
    che = chebyshev_propagate(sparse, psi0, times)
    np.testing.assert_allclose(che, ref, atol=1e-11)
    # dense input and explicit bounds take the same path
    che2 = chebyshev_propagate(dense, psi0, times, bounds=(-12.0, 12.0))
    np.testing.assert_allclose(che2, ref, atol=1e-11)


# non-uniform, with t = 0, a repeated time (dt = 0) and more times than one
# batched block of evolve_exact
_REFERENCE_TIMES = np.concatenate(([0.0, 0.35, 0.35], np.linspace(0.5, 3.0, 70) ** 1.5))


def _random_hermitian(rng, dim, complex_entries):
    a = rng.standard_normal((dim, dim))
    if complex_entries:
        a = a + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


@pytest.mark.parametrize("complex_entries", [True, False], ids=["complex_h", "real_h"])
def test_propagators_match_expm_reference(complex_entries):
    # complex h takes evolve_exact's complex-eigenvector branch; real h
    # with a complex start takes the two real products
    rng = np.random.default_rng(11)
    dim = 20
    h = _random_hermitian(rng, dim, complex_entries)
    psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi0 /= np.linalg.norm(psi0)
    ref = expm_propagate(h, psi0, _REFERENCE_TIMES)
    exact = evolve_exact(h, psi0, _REFERENCE_TIMES, rows=np.arange(dim)).amplitudes
    assert exact.shape == (_REFERENCE_TIMES.size, dim) and exact.flags.c_contiguous
    np.testing.assert_allclose(exact, ref, rtol=0, atol=1e-12)
    for h_in in (h, sp.csr_matrix(h)):
        che = chebyshev_propagate(h_in, psi0, _REFERENCE_TIMES)
        np.testing.assert_allclose(che, ref, rtol=0, atol=1e-12)


def test_propagators_match_expm_reference_on_sparse_orbital_stack():
    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3)
    res = DiscretizedReservoir.uniform(40, 6.0)
    h = build_single_particle_hamiltonian(pair, res, sparse=True)
    dim = 42
    rng = np.random.default_rng(5)
    stack, _ = np.linalg.qr(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))
    ref = expm_propagate(h, stack, _REFERENCE_TIMES)
    che = chebyshev_propagate(h, stack, _REFERENCE_TIMES)
    np.testing.assert_allclose(che, ref, rtol=0, atol=1e-12)
    for col in range(2):
        exact = evolve_exact(h.toarray(), stack[:, col], _REFERENCE_TIMES, np.arange(dim))
        exact = exact.amplitudes
        np.testing.assert_allclose(exact, ref[:, :, col], rtol=0, atol=1e-12)


def test_propagators_empty_times_and_first_failing_time(monkeypatch):
    import darkwells.oracle as oracle_module

    h = _random_hermitian(np.random.default_rng(2), 6, True)
    psi0 = np.zeros(6, dtype=complex)
    psi0[2] = 1.0
    assert evolve_exact(h, psi0, [], np.arange(6)).amplitudes.shape == (0, 6)
    assert chebyshev_propagate(h, psi0, []).shape == (0, 6)
    # every time fails a negative tolerance; the first one checked is
    # reported: the dense run and a projection check only the last time
    times = [0.0, 0.5, 1.0]
    monkeypatch.setattr(oracle_module, "_NORM_TOL", -1.0)
    with pytest.raises(RuntimeError, match=r"at t = 1\.0$"):
        evolve_exact(h, psi0, times, np.arange(6))
    with pytest.raises(RuntimeError, match=r"at t = 1\.0$"):
        chebyshev_propagate(h, psi0, times, rows=[0, 1])
    with pytest.raises(RuntimeError, match=r"at t = 0\.0$"):
        chebyshev_propagate(h, psi0, times)


def _unit(dim, k):
    psi = np.zeros(dim, dtype=complex)
    psi[k] = 1.0
    return psi


# (start, times, refusal) that both propagators refuse at entry
_BAD_INPUTS = {
    "norm_2": (2.0 * _unit(6, 2), [0.0, 0.5, 1.0], "norm 2"),
    "stack_column": (np.column_stack((_unit(6, 0), 2.0 * _unit(6, 1))), [0.0, 0.5, 1.0],
                     "norm 2"),
    "decreasing_times": (_unit(6, 2), [0.0, 1.0, 0.5], "non-decreasing"),
    "negative_time": (_unit(6, 2), [-0.5, 0.0, 1.0], "non-negative"),
    "nan_time": (_unit(6, 2), [0.0, math.nan, 1.0], "non-negative"),
    "nan_start": (np.full(6, math.nan, dtype=complex), [0.0, 0.5, 1.0], "norm nan"),
    "long_start": (_unit(7, 2), [0.0, 0.5, 1.0], r"shape \(7,\); h has dimension 6"),
    "short_stack": (np.eye(5, 2, dtype=complex), [0.0, 0.5, 1.0],
                    r"shape \(5, 2\); h has dimension 6"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_propagators_refuse_the_same_bad_input(monkeypatch, case):
    import darkwells.oracle as oracle_module

    h = _random_hermitian(np.random.default_rng(2), 6, True)
    psi0, times, refusal = _BAD_INPUTS[case]
    # every propagated state now fails its drift check, so a ValueError
    # means the input was refused before anything was propagated
    monkeypatch.setattr(oracle_module, "_NORM_TOL", -1.0)
    with pytest.raises(ValueError, match=refusal):
        evolve_exact(h, psi0, times, np.arange(6))
    with pytest.raises(ValueError, match=refusal):
        chebyshev_propagate(h, psi0, times)
    with pytest.raises(ValueError, match=refusal):
        chebyshev_propagate(h, psi0, times, rows=[0, 1])


def test_propagators_refuse_nan_in_h():
    # every comparison with NaN is false, so a check written as x > tol let
    # these through: the expansion returned a NaN component and the dense
    # run an all-NaN state
    h = np.diag([0.0, 1.0, math.nan])
    psi0 = _unit(3, 0)
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve_exact(h, psi0, [0.0, 1.0], [0])
    with pytest.raises(RuntimeError, match="norm drifted by nan at t = 1.0"):
        chebyshev_propagate(h, psi0, [0.0, 1.0], bounds=(0.0, 2.0))
    with pytest.raises(RuntimeError, match="norm drifted by nan at t = 1.0"):
        chebyshev_propagate(h, psi0, [0.0, 1.0], bounds=(0.0, 2.0), rows=[0])


@pytest.mark.parametrize("complex_entries", [True, False], ids=["complex_h", "real_h"])
def test_evolve_exact_rows_match_its_full_states_and_expm(complex_entries, monkeypatch):
    import darkwells.oracle as oracle_module

    rng = np.random.default_rng(13)
    dim = 20
    h = _random_hermitian(rng, dim, complex_entries)
    psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi0 /= np.linalg.norm(psi0)
    rows = [0, 3, 7]
    full = evolve_exact(h, psi0, _REFERENCE_TIMES, rows=np.arange(dim)).amplitudes
    run = evolve_exact(h, psi0, _REFERENCE_TIMES, rows=rows)
    assert isinstance(run, Projection) and run.degree is None and run.truncation_bound is None
    assert run.amplitudes.shape == (_REFERENCE_TIMES.size, 3) and run.final_state.shape == (dim,)
    np.testing.assert_allclose(run.amplitudes, full[:, rows], rtol=0, atol=1e-13)
    np.testing.assert_allclose(run.final_state, full[-1], rtol=0, atol=1e-13)
    ref = expm_propagate(h, psi0, _REFERENCE_TIMES)
    np.testing.assert_allclose(run.amplitudes, ref[:, rows], rtol=0, atol=1e-12)
    np.testing.assert_allclose(run.final_state, ref[-1], rtol=0, atol=1e-12)
    empty = evolve_exact(h, psi0, [], rows=rows)
    assert empty.amplitudes.shape == (0, 3) and np.array_equal(empty.final_state, psi0)
    # only the last time's full state is checked, so that is where it fails
    monkeypatch.setattr(oracle_module, "_NORM_TOL", -1.0)
    with pytest.raises(RuntimeError, match=rf"at t = {_REFERENCE_TIMES[-1]}$"):
        evolve_exact(h, psi0, _REFERENCE_TIMES, rows=rows)


def test_dense_trajectory_matches_expm_and_reports_last_time_drift():
    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3, lambda_cutoff=6.0)
    res = DiscretizedReservoir.uniform(40, 6.0)
    h = build_single_particle_hamiltonian(pair, res)
    psi0 = np.zeros(42, dtype=complex)
    psi0[0], psi0[1] = 0.6, 0.8j
    ref = expm_propagate(h, psi0, _REFERENCE_TIMES)
    run = single_particle_trajectory(pair, (0.6, 0.8j), _REFERENCE_TIMES, n_levels=40)
    assert run.method == "dense"
    traj = run.trajectory
    np.testing.assert_allclose(traj.sigma11, np.abs(ref[:, 0]) ** 2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.sigma22, np.abs(ref[:, 1]) ** 2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.sigma12, ref[:, 0] * ref[:, 1].conj(), rtol=0, atol=1e-12)
    final = evolve_exact(h, psi0, _REFERENCE_TIMES, rows=[0, 1]).final_state
    np.testing.assert_allclose(final, ref[-1], rtol=0, atol=1e-12)
    assert run.max_norm_drift == abs(float(np.linalg.norm(final)) - 1.0) < 1e-12


def test_chebyshev_logs_one_event_per_expansion(caplog):
    logger = logging.getLogger("darkwells")
    assert not logger.handlers
    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3)
    res = DiscretizedReservoir.uniform(16, 6.0)
    space = FockSpace(dot_mode_count(pair) + 16, 2, "fermi")
    psi0 = fock_basis_state(space, [0, 1])
    times = [0.5, 1.5]
    with caplog.at_level(logging.DEBUG, logger="darkwells"):
        states = evolve_fock(pair, res, space, psi0, times)
    (record,) = [r for r in caplog.records if r.name == "darkwells"]
    h = build_fock_hamiltonian(pair, res, space)
    bounds = fock_spectral_bounds(pair, res, 2, "fermi")
    degree = chebyshev_propagate(h, psi0, times, bounds=bounds, rows=[0]).degree
    assert record.levelno == logging.DEBUG and degree > 0
    assert (record.dim, record.nnz, record.degree, record.n_times) == (space.size, h.nnz,
                                                                        degree, 2)
    assert record.drift == pytest.approx(abs(np.linalg.norm(states[-1]) - 1.0), rel=0, abs=1e-15)
    assert f"dim {space.size}, nnz {h.nnz}, degree {degree}" in record.getMessage()
    # an unnormalized start is refused before any expansion; empty times
    # run none
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="darkwells"):
        with pytest.raises(ValueError, match="norm 2"):
            chebyshev_propagate(h, 2.0 * psi0, times, bounds=bounds)
        chebyshev_propagate(h, psi0, [], bounds=bounds)
    assert not [r for r in caplog.records if r.name == "darkwells"]
    assert not logger.handlers


def test_every_single_particle_run_logs_its_propagator(caplog, monkeypatch):
    import darkwells.oracle as oracle_module

    logger = logging.getLogger("darkwells")
    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3, lambda_cutoff=6.0)
    times = np.linspace(0.0, 2.0, 7)
    runs = []
    with caplog.at_level(logging.DEBUG, logger="darkwells"):
        runs.append(single_particle_trajectory(pair, (0.6, 0.8j), times, n_levels=40))
        # every dimension passes the dense limit: the same run by expansion
        monkeypatch.setattr(oracle_module, "DENSE_MAX_DIM", 0)
        runs.append(single_particle_trajectory(pair, (0.6, 0.8j), times, n_levels=40))
    records = [r for r in caplog.records if r.name == "darkwells"]
    assert [run.method for run in runs] == ["dense", "chebyshev"]
    assert [r.getMessage().split(":")[0] for r in records] == [
        "dense propagation", "chebyshev expansion",
    ]
    for record, run in zip(records, runs):
        assert record.levelno == logging.DEBUG
        assert (record.dim, record.n_times) == (42, 7)
        assert record.drift == pytest.approx(run.max_norm_drift, rel=0, abs=1e-15)
    assert "dim 42, 7 output times, last-time drift" in records[0].getMessage()
    # empty times run no propagation
    caplog.clear()
    monkeypatch.undo()
    h = build_single_particle_hamiltonian(pair, DiscretizedReservoir.for_pair(pair, 40))
    psi0 = np.zeros(42)
    psi0[0] = 1.0
    with caplog.at_level(logging.DEBUG, logger="darkwells"):
        evolve_exact(h, psi0, [], [0, 1])
    assert not [r for r in caplog.records if r.name == "darkwells"]
    assert not logger.handlers


def test_bessel_table_matches_scipy():
    # a = 0 and a = 1e-8 take the short and the rescaled paths; orders run past a
    a = np.concatenate(([0.0, 1e-8], np.linspace(0.3, 300.0, 97)))
    table = _bessel_table(a)
    assert table.shape == (table.shape[0], a.size) and table.shape[0] > 350
    ref = jv(np.arange(table.shape[0])[:, None], a[None, :])
    np.testing.assert_allclose(table, ref, rtol=0, atol=1e-13)
    assert table[0, 0] == 1.0 and not np.any(table[1:, 0])


@pytest.mark.parametrize("n_columns", range(1, _BESSEL_SCALAR_COLUMNS + 1))
def test_few_column_bessel_table_has_the_vectorized_bits(monkeypatch, n_columns):
    # a = 0 skips the recurrence, 1e-151 and 1e-8 rescale at every order or
    # nearly, 2469 sets the deepest start; each draw holds one column of each
    # kind once there are enough columns
    values = [0.0, 1e-151, 1e-8, 0.3, 300.0, 2469.0]
    rng = np.random.default_rng(n_columns)
    draws = [values[:n_columns]] + [rng.choice(values, n_columns) for _ in range(3)]
    for a in draws:
        a = np.array(a)
        few = _bessel_table(a)
        with monkeypatch.context() as patch:
            patch.setattr(darkwells.oracle, "_BESSEL_SCALAR_COLUMNS", 0)
            vectorized = _bessel_table(a)
        assert few.shape == vectorized.shape and few.tobytes() == vectorized.tobytes()
        ref = jv(np.arange(few.shape[0])[:, None], a[None, :])
        np.testing.assert_allclose(few, ref, rtol=0, atol=1e-13)


def test_projected_chebyshev_matches_expm_reference(monkeypatch):
    import darkwells.oracle as oracle_module

    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3, lambda_cutoff=6.0)
    res = DiscretizedReservoir.uniform(40, 6.0)
    h = build_single_particle_hamiltonian(pair, res, sparse=True)
    evals = np.linalg.eigvalsh(h.toarray())
    lo, hi = single_particle_bounds(pair, res)
    assert lo <= evals[0] and evals[-1] <= hi
    psi0 = np.zeros(42, dtype=complex)
    psi0[0], psi0[1] = 0.6, 0.8j
    ref = expm_propagate(h, psi0, _REFERENCE_TIMES)
    run = chebyshev_propagate(h, psi0, _REFERENCE_TIMES, rows=[0, 1])
    assert run.amplitudes.shape == (_REFERENCE_TIMES.size, 2)
    np.testing.assert_allclose(run.amplitudes, ref[:, :2], rtol=0, atol=1e-12)
    np.testing.assert_allclose(run.final_state, ref[-1], rtol=0, atol=1e-12)
    assert run.degree > 0 and 0.0 <= run.truncation_bound < 1e-14
    dense = single_particle_trajectory(pair, (0.6, 0.8j), _REFERENCE_TIMES, n_levels=40)
    assert dense.method == "dense"
    assert dense.chebyshev_degree is None and dense.truncation_bound is None
    # every dimension passes the dense limit, so the trajectory takes the
    # expansion at this small, expm-checkable size
    monkeypatch.setattr(oracle_module, "DENSE_MAX_DIM", 0)
    oracle = single_particle_trajectory(pair, (0.6, 0.8j), _REFERENCE_TIMES, n_levels=40)
    assert oracle.method == "chebyshev"
    np.testing.assert_allclose(
        oracle.trajectory.sigma11, np.abs(ref[:, 0]) ** 2, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        oracle.trajectory.sigma12, ref[:, 0] * ref[:, 1].conj(), rtol=0, atol=1e-12
    )
    report = convergence_report(oracle)
    assert report["chebyshev_degree"] > 0 and report["truncation_bound"] < 1e-14
    assert report["max_norm_drift"] < 1e-12
    # only the last time's full state is checked, so that is where it fails
    monkeypatch.setattr(oracle_module, "_NORM_TOL", -1.0)
    with pytest.raises(RuntimeError, match=rf"at t = {_REFERENCE_TIMES[-1]}$"):
        chebyshev_propagate(h, psi0, _REFERENCE_TIMES, rows=[0, 1])
    empty = chebyshev_propagate(h, psi0, [], rows=[0, 1])
    assert empty.amplitudes.shape == (0, 2) and empty.degree == 0


def test_chebyshev_is_deterministic():
    pair = WellPair.from_widths(1.0, 1.0)
    res = DiscretizedReservoir.uniform(32, 8.0)
    h = build_single_particle_hamiltonian(pair, res, sparse=True)
    psi0 = np.zeros(34, dtype=complex)
    psi0[1] = 1.0
    a = chebyshev_propagate(h, psi0, [1.7])
    b = chebyshev_propagate(h, psi0, [1.7])
    assert np.array_equal(a, b)


def test_chebyshev_propagates_orbital_stacks():
    pair = WellPair.from_widths(1.0, 2.0, epsilon=0.3)
    res = DiscretizedReservoir.uniform(24, 6.0)
    h = build_single_particle_hamiltonian(pair, res, sparse=True)
    dim = 26
    stack = np.zeros((dim, 2), dtype=complex)
    stack[0, 0] = 1.0
    stack[1, 1] = 1.0
    times = [0.9, 1.8]
    both = chebyshev_propagate(h, stack, times)
    for col in range(2):
        single = chebyshev_propagate(h, stack[:, col], times)
        np.testing.assert_allclose(both[:, :, col], single, atol=1e-12)


def _real_hamiltonian(kind):
    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3)
    res = DiscretizedReservoir.uniform(16, 6.0)
    if kind in ("fermi", "bose"):
        space = FockSpace(dot_mode_count(pair) + 16, 2, kind)
        return build_fock_hamiltonian(pair, res, space), fock_basis_state(space, [0, 1])
    psi0 = np.zeros(18)
    psi0[0] = 1.0
    return build_single_particle_hamiltonian(pair, res, sparse=kind == "sparse"), psi0


@pytest.mark.parametrize("kind", ["fermi", "bose", "dense", "sparse"])
def test_real_recurrence_gives_the_complex_bits(kind):
    # a real h with a real start runs the recurrence in float64; casting h
    # to complex forces the complex recurrence, which must give the same
    # bits (np.array_equal takes -0.0 == 0.0).  Dense h is applied as CSR,
    # so it gives the CSR bytes, signed zeros included.
    h, psi0 = _real_hamiltonian(kind)
    assert h.dtype == np.float64
    csr = sp.csr_matrix(h)
    stack, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((psi0.size, 2)))
    # a complex start takes the complex recurrence for either h
    mixed = (stack[:, 0] + 1j * stack[:, 1]) / math.sqrt(2.0)
    times = [0.0, 0.7, 1.9]
    for start in (psi0, stack, mixed):
        run = chebyshev_propagate(h, start, times)
        ref = chebyshev_propagate(h.astype(complex), start, times)
        assert run.dtype == complex and np.array_equal(run, ref)
        assert run.tobytes() == chebyshev_propagate(csr, start, times).tobytes()
        full = run
        run = chebyshev_propagate(h, start, times, rows=[0, 1])
        ref = chebyshev_propagate(h.astype(complex), start, times, rows=[0, 1])
        assert run.amplitudes.dtype == run.final_state.dtype == complex
        assert np.array_equal(run.amplitudes, ref.amplitudes)
        assert np.array_equal(run.final_state, ref.final_state)
        assert (run.degree, run.truncation_bound) == (ref.degree, ref.truncation_bound)
        assert run.final_state.tobytes() == full[-1].tobytes()
        sparse_run = chebyshev_propagate(csr, start, times, rows=[0, 1])
        assert run.amplitudes.tobytes() == sparse_run.amplitudes.tobytes()
        assert run.final_state.tobytes() == sparse_run.final_state.tobytes()


def test_chebyshev_time_grid_validation():
    h = np.eye(2)
    with pytest.raises(ValueError, match="non-decreasing"):
        chebyshev_propagate(h, np.array([1.0, 0.0]), [1.0, 0.5])
    with pytest.raises(ValueError, match="non-decreasing"):
        chebyshev_propagate(h, np.array([1.0, 0.0]), [-1.0])


def test_dark_state_survives_finite_discretization():
    # constant coupling ratio protects the dark mode at any n
    pair = WellPair.from_widths(1.0, 4.0, eta=-1, lambda_cutoff=10.0)
    times = np.linspace(0.0, 10.0, 5)
    run = single_particle_trajectory(pair, dark_state(pair), times, n_levels=64)
    np.testing.assert_allclose(run.trajectory.occupation, 1.0, atol=1e-10)


def test_oracle_converges_to_wide_band_solution():
    pair = WellPair.from_widths(1.0, 1.0, lambda_cutoff=20.0)
    times = np.array([1.0, 2.0, 4.0])
    exact = analytic_sigma_symmetric(1.0, 0.0, times)[0]
    run = single_particle_trajectory(pair, (1.0, 0.0), times, n_levels=400)
    err = np.max(np.abs(run.trajectory.sigma11 - exact))
    assert err < 1e-2
    assert run.trajectory.sigma11[-1] == pytest.approx(0.25, abs=1e-2)


def test_oracle_spacing_error_is_second_order():
    # reference run isolates the n-dependence from the band-edge effect
    pair = WellPair.from_widths(1.0, 1.0, lambda_cutoff=20.0)
    times = np.array([1.0, 2.0, 4.0])
    ref = single_particle_trajectory(pair, (1.0, 0.0), times, n_levels=3200)
    errs = {}
    for n in (100, 400):
        run = single_particle_trajectory(pair, (1.0, 0.0), times, n_levels=n)
        errs[n] = np.max(np.abs(run.trajectory.sigma11 - ref.trajectory.sigma11))
    # two doublings of n should shrink the error far more than one order
    assert errs[100] / errs[400] > 3.0


def test_recurrence_warning_and_flag(caplog):
    pair = WellPair.from_widths(1.0, 1.0, lambda_cutoff=4.0)
    with caplog.at_level(logging.WARNING, logger="darkwells"):
        run = single_particle_trajectory(pair, (1.0, 0.0), [50.0], n_levels=16)
    (record,) = [r for r in caplog.records if r.name == "darkwells"]
    assert record.levelno == logging.WARNING and "recurrence" in record.getMessage()
    assert (record.t_max, record.recurrence_time) == (50.0, run.reservoir.recurrence_time)
    assert not logging.getLogger("darkwells").handlers
    assert run.recurrence_exceeded
    report = convergence_report(run)
    assert report["recurrence_exceeded"] is True
    assert report["n_levels"] == 16
    assert report["recurrence_time"] == pytest.approx(2.0 * math.pi / 0.5)
    quiet = single_particle_trajectory(pair, (1.0, 0.0), [1.0], n_levels=64)
    assert not quiet.recurrence_exceeded


def test_trajectory_method_selection():
    # the dimension alone picks the propagator
    limit = DENSE_MAX_DIM - 2
    assert [single_particle_method(n) for n in (32, limit, limit + 2)] == [
        "dense", "dense", "chebyshev",
    ]
    pair = WellPair.from_widths(1.0, 1.0, lambda_cutoff=4.0)
    small = single_particle_trajectory(pair, (1.0, 0.0), [0.5], n_levels=32)
    assert small.method == "dense"
    # both propagators on one H give the same well amplitudes
    res = DiscretizedReservoir.for_pair(pair, 32)
    psi0 = np.zeros(34)
    psi0[0] = 1.0
    dense = evolve_exact(build_single_particle_hamiltonian(pair, res), psi0, [0.5], [0, 1])
    che = chebyshev_propagate(
        build_single_particle_hamiltonian(pair, res, sparse=True), psi0, [0.5],
        bounds=single_particle_bounds(pair, res), rows=[0, 1],
    )
    np.testing.assert_allclose(che.amplitudes, dense.amplitudes, rtol=0, atol=1e-10)
    assert np.abs(dense.amplitudes[:, 0]) ** 2 == pytest.approx(small.trajectory.sigma11)
    with pytest.raises(ValueError, match="normalized"):
        single_particle_trajectory(pair, (1.0, 1.0), [0.5], n_levels=32)


@pytest.mark.parametrize(
    "cutoff, times, n_levels, source, message",
    [
        (None, [0.0, 1.0], 8, "n_levels", ">= 10"),
        (None, [0.0, 1.0], 11, "n_levels", "even"),
        (None, [0.0, 1.0], darkwells.oracle._MAX_LEVELS + 2, "n_levels", "exceed the cap"),
        (1.7e308, [0.0, 1.0], 40, "band", "the band spacing"),
        # the band edge 0.975 cutoff times t = 4 passes the float range
        (5e307, [0.0, 4.0], 40, "phases", "the phases t E of the band"),
        # 30 000 times 202 phase factors
        (None, np.linspace(0.0, 1.0, 30_000), 200, "n_points", "phase factors"),
        # half-bandwidth ~ 45 at gamma1 = gamma2 = 1: degree ~ 113 000
        (None, [0.0, 2500.0], 2000, "t_max", "needs a Chebyshev degree"),
        # 1000 times at degree ~ 45 000
        (None, np.linspace(0.0, 1000.0, 1000), 2000, "t_max", "Bessel coefficients"),
    ],
    ids=["coarse", "odd", "levels", "band", "phases", "dense_table", "degree", "bessel_table"],
)
def test_single_particle_requests_are_refused_before_building(
    monkeypatch, cutoff, times, n_levels, source, message
):
    # library callers meet the same refusals as the CLI, before H exists
    def refuse(*args, **kwargs):
        raise AssertionError("built before the request was checked")

    for name in ("build_single_particle_hamiltonian", "evolve_exact", "chebyshev_propagate"):
        monkeypatch.setattr(darkwells.oracle, name, refuse)
    pair = WellPair.from_widths(1.0, 1.0, lambda_cutoff=cutoff)
    with pytest.raises(OracleRequestError, match=message) as exc:
        single_particle_trajectory(pair, (1.0, 0.0), times, n_levels=n_levels)
    assert exc.value.source == source


def test_single_particle_grid_is_refused_before_the_caps(monkeypatch):
    # a NaN last time read as phases that overflow; a decreasing grid is
    # refused before the Hamiltonian is built
    def refuse(*args, **kwargs):
        raise AssertionError("built before the grid was checked")

    monkeypatch.setattr(darkwells.oracle, "build_single_particle_hamiltonian", refuse)
    pair = WellPair.from_widths(1.0, 1.0)
    for times, refusal in (([0.0, math.nan], "non-negative"), ([0.0, 1e4, 1.0], "non-decreasing")):
        with pytest.raises(ValueError, match=refusal) as exc:
            single_particle_trajectory(pair, (1.0, 0.0), times, n_levels=2000)
        assert not isinstance(exc.value, OracleRequestError)


def test_fock_space_enumeration():
    fermi = FockSpace(5, 2, "fermi")
    assert fermi.size == 10
    assert fermi._modes.shape == (10, 2) and fermi._modes.dtype == np.int64
    assert tuple(fermi._modes[0]) == (0, 1) and tuple(fermi._modes[-1]) == (3, 4)
    bose = FockSpace(3, 2, "bose")
    assert bose.size == 6
    assert tuple(bose._modes[0]) == (0, 0)
    np.testing.assert_array_equal(fermi.mode_counts(2)[:4], [2, 1, 1, 1])
    with pytest.raises(ValueError):
        FockSpace(2, 3, "fermi")
    with pytest.raises(ValueError):
        FockSpace(3, 0, "bose")
    with pytest.raises(ValueError):
        FockSpace(3, 1, "maxwell")
    with pytest.raises(ValueError, match="mode"):
        FockSpace(0, 1, "bose")
    # dimension ~4.2e18: refused from math.comb, before any enumeration
    with pytest.raises(ValueError, match="exceeds the cap"):
        FockSpace(10**5, 4, "fermi")


@pytest.mark.parametrize(
    "n_modes, n_particles, statistics",
    [(14, 3, "fermi"), (14, 3, "bose"), (6, 6, "fermi"), (1, 4, "bose"), (2, 256, "bose")],
)
def test_fock_rank_round_trips(n_modes, n_particles, statistics):
    space = FockSpace(n_modes, n_particles, statistics)
    subsets = combinations if statistics == "fermi" else combinations_with_replacement
    want = [list(state) for state in subsets(range(n_modes), n_particles)]
    assert space.size == len(want)
    np.testing.assert_array_equal(space._modes, np.array(want, dtype=np.int64))
    np.testing.assert_array_equal(space._rank(space._modes.T), np.arange(space.size))


def test_boson_occupations_do_not_wrap():
    space = FockSpace(2, 256, "bose")
    psi = fock_basis_state(space, [0] * 256)
    red = reduced_quantities(space, psi, 1)
    np.testing.assert_array_equal(red.mode_occupations, [256, 0])
    np.testing.assert_array_equal(red.dot_rdm, [[256]])


def test_fock_basis_state_lookup():
    space = FockSpace(4, 2, "fermi")
    psi = fock_basis_state(space, (2, 0))
    assert psi[space._rank(np.array([[0], [2]]))[0]] == 1.0
    assert tuple(space._modes[np.flatnonzero(psi)[0]]) == (0, 2)
    assert np.count_nonzero(psi) == 1
    bose = FockSpace(4, 3, "bose")
    assert tuple(bose._modes[np.flatnonzero(fock_basis_state(bose, (3, 1, 3)))[0]]) == (1, 3, 3)
    # a repeated fermion, mode == n_modes, a negative mode, wrong lengths, a
    # float mode and over-range boson keys; _rank would map most of these
    # to a wrong or negative row instead of failing
    for bad_space, key in (
        (space, (0, 0)),
        (space, (1, 4)),
        (space, (-1, 2)),
        (space, (1,)),
        (space, (0, 1, 2)),
        (space, (0, 1.0)),
        (bose, (0, 0, 4)),
        (bose, (7, 7, 7)),
        (bose, (-4, 0, 0)),
    ):
        with pytest.raises(ValueError, match="not a basis state"):
            fock_basis_state(bad_space, key)


def test_single_particle_sector_reproduces_first_quantization():
    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.4)
    res = DiscretizedReservoir.uniform(16, 5.0)
    dense = build_single_particle_hamiltonian(pair, res)
    for stat in ("fermi", "bose"):
        space = FockSpace(18, 1, stat)
        h = build_fock_hamiltonian(pair, res, space)
        np.testing.assert_allclose(h.toarray(), dense, atol=1e-14)


def test_fock_hamiltonian_is_hermitian():
    base = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3)
    model = ParallelWellPair(base=base, yprime=0.7, U=1.5)
    res = DiscretizedReservoir.uniform(10, 4.0)
    assert dot_mode_count(model) == 4
    for stat, n_part in (("fermi", 2), ("fermi", 3), ("bose", 2)):
        space = FockSpace(14, n_part, stat)
        h = build_fock_hamiltonian(model, res, space)
        gap = abs(h - h.T).max()
        assert gap < 1e-12
    with pytest.raises(ValueError, match="modes"):
        build_fock_hamiltonian(model, res, FockSpace(10, 2, "fermi"))


@pytest.mark.parametrize("statistics", ["fermi", "bose"])
@pytest.mark.parametrize("n_particles", [1, 2, 3])
@pytest.mark.parametrize("parallel", [False, True])
def test_fock_operators_match_second_quantization(parallel, n_particles, statistics):
    base = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3)
    model = ParallelWellPair(base=base, yprime=0.7, U=1.5) if parallel else base
    res = DiscretizedReservoir.uniform(10, 4.0)
    n_dots = dot_mode_count(model)
    space = FockSpace(n_dots + 10, n_particles, statistics)
    basis, want = fock_hamiltonian_reference(model, res, n_particles, statistics)
    order = space._rank(np.array([np.repeat(np.arange(len(occ)), occ) for occ in basis]).T)
    h = build_fock_hamiltonian(model, res, space).toarray()[np.ix_(order, order)]
    np.testing.assert_allclose(h, want, rtol=0, atol=1e-13)
    rng = np.random.default_rng(11)
    psi = rng.normal(size=space.size) + 1j * rng.normal(size=space.size)
    psi /= np.linalg.norm(psi)
    red = reduced_quantities(space, psi, n_dots)
    occ, probs, rdm = fock_reduced_reference(basis, psi[order], n_dots, statistics)
    np.testing.assert_allclose(red.mode_occupations, occ, rtol=0, atol=1e-13)
    np.testing.assert_allclose(red.reservoir_count_probs, probs, rtol=0, atol=1e-13)
    np.testing.assert_allclose(red.dot_rdm, rdm, rtol=0, atol=1e-13)
    # the second call reads the space's cached dot hops
    assert space._dot_hops(n_dots) is space._dot_hops(n_dots)
    again = reduced_quantities(space, psi, n_dots)
    for first, second in zip(vars(red).values(), vars(again).values()):
        np.testing.assert_array_equal(second, first)


@pytest.mark.parametrize(
    "parallel, statistics, n_particles",
    [(False, stat, n) for stat in ("fermi", "bose") for n in (1, 2, 3)]
    + [(True, "fermi", 2), (True, "fermi", 3)],
)
def test_mirrored_fock_build_gives_the_full_hop_bytes(parallel, statistics, n_particles):
    base = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3)
    model = ParallelWellPair(base=base, yprime=0.7, U=1.5) if parallel else base
    res = DiscretizedReservoir.uniform(12, 4.0)
    space = FockSpace(dot_mode_count(model) + 12, n_particles, statistics)
    h = build_fock_hamiltonian(model, res, space)
    one_body, sites = _one_body_terms(model, res)
    want = full_hop_fock_hamiltonian(
        one_body, sites, model.U if parallel else 0.0, space._modes, statistics
    )
    assert h.nnz == want.nnz and h.has_canonical_format
    for name in ("data", "indices", "indptr"):
        got, ref = getattr(h, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("parallel", [False, True])
def test_one_body_matrix_is_exactly_symmetric(parallel):
    # build_fock_hamiltonian enters each hop at both ends on this alone
    base = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3)
    model = ParallelWellPair(base=base, yprime=0.7, U=1.5) if parallel else base
    one_body, _ = _one_body_terms(model, DiscretizedReservoir.uniform(12, 4.0))
    assert one_body.dtype == np.float64
    assert one_body.tobytes() == one_body.T.copy().tobytes()


def test_fock_spectral_bounds_enclose_spectrum():
    base = WellPair.from_widths(1.0, 2.0, epsilon=0.3)
    model = ParallelWellPair(base=base, yprime=0.8, U=2.0)
    res = DiscretizedReservoir.uniform(10, 4.0)
    space = FockSpace(14, 2, "fermi")
    h = build_fock_hamiltonian(model, res, space).toarray()
    evals = np.linalg.eigvalsh(h)
    lo, hi = fock_spectral_bounds(model, res, 2)
    assert lo < evals.min() and evals.max() < hi


@pytest.mark.parametrize(
    "u_value, n_particles, statistics",
    [
        (None, 2, "fermi"),
        (None, 3, "fermi"),
        (None, 2, "bose"),
        (2.0, 2, "fermi"),
        (-2.0, 2, "fermi"),
        (2.0, 2, "bose"),
        (-1.5, 3, "bose"),
        (1.5, 3, "fermi"),
        (2.0, 4, "fermi"),
    ],
    ids=[
        "fermi2",
        "fermi3",
        "bose2",
        "parallel_u+2",
        "parallel_u-2",
        "parallel_bose_u+2",
        "parallel_bose3_u-1.5",
        "parallel_fermi3_u+1.5",
        "parallel_fermi4_u+2",
    ],
)
def test_tight_fock_bounds_enclose_reference_spectrum(u_value, n_particles, statistics):
    base = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3)
    model = base if u_value is None else ParallelWellPair(base=base, yprime=0.7, U=u_value)
    res = DiscretizedReservoir.uniform(10, 4.0)
    basis, h = fock_hamiltonian_reference(model, res, n_particles, statistics)
    evals = np.linalg.eigvalsh(h)
    lo, hi = fock_spectral_bounds(model, res, n_particles, statistics)
    assert lo <= evals[0] and evals[-1] <= hi
    if u_value is None:
        assert hi - lo <= 1.01 * (evals[-1] - evals[0])
    else:
        # U widens the free enclosure by the most same-well pairs any basis
        # state holds, less than the old cap of N^2 / 2 pairs
        free = ParallelWellPair(base=base, yprime=0.7, U=0.0)
        free_lo, free_hi = fock_spectral_bounds(free, res, n_particles, statistics)
        pairs = max(occ[0] * occ[1] + occ[2] * occ[3] for occ in basis)
        widening = (hi - lo) - (free_hi - free_lo)
        assert widening == pytest.approx(pairs * abs(u_value), rel=1e-6)
        assert pairs < 0.5 * n_particles**2
    # the default, bosonic enclosure holds for either statistics
    lo_any, hi_any = fock_spectral_bounds(model, res, n_particles)
    assert lo_any <= lo and hi <= hi_any


def test_two_fermion_evolution_matches_determinant_formalism():
    # non-interacting: the determinant of evolved orbitals is the exact state
    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.4)
    res = DiscretizedReservoir.uniform(20, 5.0)
    dim = 22
    dense = build_single_particle_hamiltonian(pair, res)
    times = np.array([0.7, 2.3])
    orbitals = []
    for col in (0, 1):
        e = np.zeros(dim, dtype=complex)
        e[col] = 1.0
        orbitals.append(expm_propagate(dense, e, times))
    space = FockSpace(dim, 2, "fermi")
    psi_t = evolve_fock(pair, res, space, fock_basis_state(space, (0, 1)), times)
    for k in range(times.size):
        phi = np.column_stack([orbitals[0][k], orbitals[1][k]])
        red = reduced_quantities(space, psi_t[k], 2)
        np.testing.assert_allclose(
            red.reservoir_count_probs,
            slater_reservoir_distribution(phi, 2),
            atol=1e-9,
        )
        np.testing.assert_allclose(red.dot_rdm, slater_dot_rdm(phi, 2), atol=1e-9)
        np.testing.assert_allclose(
            red.mode_occupations,
            np.abs(phi[:, 0]) ** 2 + np.abs(phi[:, 1]) ** 2,
            atol=1e-9,
        )


def test_two_boson_dark_state_is_trapped():
    pair = WellPair.from_widths(1.0, 4.0)
    d = dark_state(pair)
    res = DiscretizedReservoir.uniform(16, 5.0)
    space = FockSpace(18, 2, "bose")
    psi0 = (
        d[0] * d[0] * fock_basis_state(space, (0, 0))
        + math.sqrt(2.0) * d[0] * d[1] * fock_basis_state(space, (0, 1))
        + d[1] * d[1] * fock_basis_state(space, (1, 1))
    )
    psi_t = evolve_fock(pair, res, space, psi0, [8.0])
    red = reduced_quantities(space, psi_t[0], 2)
    np.testing.assert_allclose(red.reservoir_count_probs, [1.0, 0.0, 0.0], atol=1e-10)
    assert red.mode_occupations[0] == pytest.approx(2 * d[0] ** 2, abs=1e-10)


def test_interacting_parallel_model_conserves_local_dark_occupancy():
    # the doubly-occupied-site projector is rotation invariant for fermions,
    # so U never leaks particles out of the per-well decoupled combination
    base = WellPair.from_widths(1.0, 2.0, epsilon=0.0)
    model = ParallelWellPair(base=base, yprime=0.6, U=1.7)
    res = DiscretizedReservoir.uniform(16, 5.0)
    space = FockSpace(20, 2, "fermi")
    psi_t = evolve_fock(
        model, res, space, fock_basis_state(space, (0, 2)), [0.0, 1.5, 4.0]
    )
    yp = model.yprime
    d1 = np.array([yp, -1.0, 0.0, 0.0]) / math.hypot(yp, 1.0)
    d2 = np.array([0.0, 0.0, yp, -1.0]) / math.hypot(yp, 1.0)
    want1 = yp**2 / (1 + yp**2)
    for k in range(3):
        rdm = reduced_quantities(space, psi_t[k], 4).dot_rdm
        occ1 = float((d1 @ rdm @ d1).real)
        occ2 = float((d2 @ rdm @ d2).real)
        assert occ1 == pytest.approx(want1, abs=1e-8)
        assert occ2 == pytest.approx(want1, abs=1e-8)


def test_slater_helpers_on_hand_built_orbitals():
    # one orbital fully on the dots, one with known reservoir weight
    phi = np.zeros((5, 2), dtype=complex)
    phi[0, 0] = 1.0
    phi[1, 1] = math.sqrt(0.4)
    phi[3, 1] = math.sqrt(0.6)
    dist = slater_reservoir_distribution(phi, 2)
    np.testing.assert_allclose(dist, [0.4, 0.6, 0.0], atol=1e-12)
    rdm = slater_dot_rdm(phi, 2)
    np.testing.assert_allclose(np.diag(rdm).real, [1.0, 0.4], atol=1e-12)
    assert np.sum(dist) == pytest.approx(1.0, abs=1e-12)
