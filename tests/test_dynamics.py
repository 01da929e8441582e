import cmath
import itertools
import math

import numpy as np
import pytest

from darkwells import dynamics
from darkwells.dynamics import (
    InfiniteDwellTimeError,
    PropagatorOverflowError,
    asymptotic_probs,
    dwell_time,
    effective_hamiltonian,
    evolve_master,
    fit_decay_rate,
    master_trajectory,
)
from darkwells.model import NoBoundStateError, WellPair
from darkwells.rotation import dark_state

from oracles import (
    analytic_sigma_symmetric,
    asymptotic_sigma_left_start,
    master_generator_sigma,
    master_rhs_reference,
    rk4_literal,
    slow_decay_rate,
)

LEFT = (1.0, 0.0)


def evolve_amplitudes(pair, initial, t):
    """Well amplitudes ``U(t) b(0)`` from the propagator the CLI runs."""
    return dynamics._propagators([pair], [[t]])[0, 0] @ np.asarray(initial, dtype=complex)


def sigma_from_amplitudes(pair, initial, t):
    b1, b2 = evolve_amplitudes(pair, initial, t)
    return abs(b1) ** 2, abs(b2) ** 2, b1 * b2.conjugate()


def test_master_rhs_matches_reference_on_random_states():
    # H_eff generates the reduced master equation written from the rates
    rng = np.random.default_rng(11)
    for _ in range(50):
        g1, g2 = rng.uniform(0.1, 3.0, size=2)
        eps = rng.uniform(-2.0, 2.0)
        eta = int(rng.choice([1, -1]))
        h = effective_hamiltonian(WellPair.from_widths(g1, g2, eta=eta, epsilon=eps))
        s11, s22 = rng.uniform(0.0, 0.5, size=2)
        s12 = complex(*rng.uniform(-0.3, 0.3, size=2))
        sigma = np.array([[s11, s12], [s12.conjugate(), s22]])
        got = -1j * (h @ sigma - sigma @ h.conj().T)
        want = master_rhs_reference(g1, g2, eta, eps, s11, s22, s12)
        assert got[0, 0] == pytest.approx(want[0], abs=1e-13)
        assert got[1, 1] == pytest.approx(want[1], abs=1e-13)
        assert got[0, 1] == pytest.approx(want[2], abs=1e-13)


def _sigma_gap(state, ref):
    return max(
        abs(state[0] - ref[0]), abs(state[1] - ref[1]), abs(state[2] - ref[2])
    )


def test_evolve_master_reproduces_literal_rk4_loop():
    # exact against expm of the literal generator, pure and mixed starts;
    # the literal RK4 loop converges onto the same path at fourth order
    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.7)
    times = np.array([0.0, 0.4, 1.3, 5.0, 17.0])
    for sigma0 in ((1.0, 0.0, 0.0), (0.5, 0.3, 0.1 + 0.2j)):
        args = (1.0, 2.0, -1, 0.7, sigma0)
        traj = master_trajectory(pair, sigma0, times)
        for k, t in enumerate(times):
            ref = master_generator_sigma(*args, t)
            got = evolve_master(pair, sigma0, t)
            assert _sigma_gap((got.sigma11[0], got.sigma22[0], got.sigma12[0]), ref) < 1e-12
            point = (traj.sigma11[k], traj.sigma22[k], traj.sigma12[k])
            assert _sigma_gap(point, ref) < 1e-12
        exact = evolve_master(pair, sigma0, 5.0)
        exact = (exact.sigma11[0], exact.sigma22[0], exact.sigma12[0])
        coarse = _sigma_gap(exact, rk4_literal(*args, 5.0, 50))
        fine = _sigma_gap(exact, rk4_literal(*args, 5.0, 100))
        assert coarse > 12.0 * fine


@pytest.mark.parametrize("ratio", [0.0, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0])
def test_analytic_symmetric_matches_amplitude_propagator(ratio):
    gamma = 1.3
    eps = ratio * gamma
    pair = WellPair.from_widths(gamma, gamma, epsilon=eps)
    for t in (0.0, 0.3, 1.7, 6.0, 20.0):
        a11, a22, a12 = analytic_sigma_symmetric(gamma, eps, t)
        b11, b22, b12 = sigma_from_amplitudes(pair, LEFT, t)
        assert a11 == pytest.approx(b11, abs=1e-12)
        assert a22 == pytest.approx(b22, abs=1e-12)
        assert a12 == pytest.approx(b12, abs=1e-12)


def test_analytic_symmetric_matches_independent_integrator():
    gamma, eps, t = 1.0, 0.4, 4.0
    a11, a22, a12 = analytic_sigma_symmetric(gamma, eps, t)
    s11, s22, s12 = rk4_literal(gamma, gamma, 1, eps, (1.0, 0.0, 0.0), t, 4000)
    assert a11 == pytest.approx(s11, abs=1e-11)
    assert a22 == pytest.approx(s22, abs=1e-11)
    assert a12 == pytest.approx(s12, abs=1e-11)


def test_analytic_series_branch_at_critical_alignment():
    # eps = gamma makes the root vanish exactly; the series branch must take over
    gamma, t = 1.0, 3.0
    a11, a22, a12 = analytic_sigma_symmetric(gamma, gamma, t)
    s11, s22, s12 = rk4_literal(gamma, gamma, 1, gamma, (1.0, 0.0, 0.0), t, 6000)
    assert a11 == pytest.approx(s11, abs=1e-11)
    assert a22 == pytest.approx(s22, abs=1e-11)
    assert a12 == pytest.approx(s12, abs=1e-11)
    # continuity across the branch switch
    for eps in (gamma * (1 - 1e-7), gamma * (1 + 1e-7)):
        c11, c22, c12 = analytic_sigma_symmetric(gamma, eps, t)
        assert c11 == pytest.approx(a11, abs=1e-5)
        assert c22 == pytest.approx(a22, abs=1e-5)
        assert abs(c12 - a12) < 1e-5


def test_analytic_symmetric_vectorized_and_validated():
    ts = np.array([0.0, 1.0, 2.5])
    s11, s22, s12 = analytic_sigma_symmetric(1.0, 0.3, ts)
    assert s11.shape == ts.shape and s12.dtype == complex
    for k, t in enumerate(ts):
        a11, a22, a12 = analytic_sigma_symmetric(1.0, 0.3, float(t))
        assert s11[k] == a11 and s22[k] == a22 and s12[k] == a12
    with pytest.raises(ValueError):
        analytic_sigma_symmetric(0.0, 0.3, 1.0)


def test_master_agrees_with_amplitudes_for_pure_states():
    pair = WellPair.from_widths(0.8, 2.4, eta=-1, epsilon=1.1)
    init = (0.6, 0.8j)
    for t in (0.5, 2.0, 8.0):
        b11, b22, b12 = sigma_from_amplitudes(pair, init, t)
        state = evolve_master(pair, (0.36, 0.64, 0.6 * (-0.8j)), t)
        assert state.sigma11[0] == pytest.approx(b11, abs=1e-12)
        assert state.sigma22[0] == pytest.approx(b22, abs=1e-12)
        assert state.sigma12[0] == pytest.approx(b12, abs=1e-12)


def test_dark_state_is_stationary_for_aligned_levels():
    for y, eta in ((0.25, 1), (1.0, 1), (4.0, -1)):
        pair = WellPair.from_widths(1.0, y, eta=eta)
        d = dark_state(pair)
        b1, b2 = evolve_amplitudes(pair, d, 50.0)
        assert abs(b1 - d[0]) < 1e-10 and abs(b2 - d[1]) < 1e-10
        state = evolve_master(pair, (d[0] ** 2, d[1] ** 2, d[0] * d[1]), 50.0)
        assert state.occupation[0] == pytest.approx(1.0, abs=1e-9)


def test_bright_state_empties_at_total_width():
    pair = WellPair.from_widths(1.0, 3.0)
    b = np.array([math.sqrt(0.25), math.sqrt(0.75)])
    t = 1.7
    b1, b2 = evolve_amplitudes(pair, b, t)
    occ = abs(b1) ** 2 + abs(b2) ** 2
    assert occ == pytest.approx(math.exp(-4.0 * t), rel=1e-10)


def test_coupling_sign_flips_coherence_only():
    plus = WellPair.from_widths(1.0, 2.0, eta=1)
    minus = WellPair.from_widths(1.0, 2.0, eta=-1)
    sp = evolve_master(plus, (1.0, 0.0, 0.0), 3.0)
    sm = evolve_master(minus, (1.0, 0.0, 0.0), 3.0)
    assert sp.sigma11[0] == pytest.approx(sm.sigma11[0], abs=1e-12)
    assert sp.sigma22[0] == pytest.approx(sm.sigma22[0], abs=1e-12)
    assert sp.sigma12[0] == pytest.approx(-sm.sigma12[0], abs=1e-12)


def test_asymptotic_probs_left_start():
    for y in (0.25, 1.0, 4.0):
        pair = WellPair.from_widths(1.0, y)
        p_trap, p_out = asymptotic_probs(pair, LEFT)
        assert p_trap == pytest.approx(y / (1 + y), rel=1e-12)
        assert p_trap + p_out == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(NoBoundStateError):
        asymptotic_probs(WellPair.from_widths(1.0, 1.0, epsilon=0.1), LEFT)
    with pytest.raises(ValueError, match="normalize"):
        asymptotic_probs(WellPair.from_widths(1.0, 1.0), (1.0, 1.0))


def test_asymptotic_probs_dark_and_bright_edges():
    pair = WellPair.from_widths(1.0, 2.0, eta=-1)
    d = dark_state(pair)
    assert asymptotic_probs(pair, d)[0] == pytest.approx(1.0, abs=1e-13)
    b = np.array([-d[1], d[0]])
    assert asymptotic_probs(pair, b)[0] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("y", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("eta", [1, -1])
def test_long_time_master_state_matches_asymptotic_formula(y, eta):
    pair = WellPair.from_widths(1.0, y, eta=eta)
    t_long = 60.0 / (1.0 + y)
    got = evolve_master(pair, (1.0, 0.0, 0.0), t_long)
    s11, s22, s12, s00 = asymptotic_sigma_left_start(y, eta=eta)
    assert got.times.tolist() == [t_long]
    assert got.sigma11[0] == pytest.approx(s11, abs=1e-10)
    assert got.sigma22[0] == pytest.approx(s22, abs=1e-10)
    assert got.sigma12[0] == pytest.approx(s12, abs=1e-10)
    assert got.sigma00[0] == pytest.approx(s00, abs=1e-10)
    assert s11 + s22 + s00 == pytest.approx(1.0, abs=1e-15)


def test_asymptotic_sigma_validation():
    with pytest.raises(ValueError):
        asymptotic_sigma_left_start(-0.5)
    with pytest.raises(ValueError):
        asymptotic_sigma_left_start(1.0, eta=0)


def test_dwell_time_closed_form():
    for y, eps, gamma1 in ((1.0, 0.05, 1.0), (10.0, 0.1, 0.5), (0.3, 0.2, 2.0)):
        pair = WellPair.from_widths(gamma1, y * gamma1, epsilon=eps)
        want = (gamma1 / eps**2) * (1 + y) ** 3 / (4 * y)
        assert dwell_time(pair) == pytest.approx(want, rel=1e-12)


def test_dwell_time_divergences_raise():
    with pytest.raises(InfiniteDwellTimeError):
        dwell_time(WellPair.from_widths(1.0, 1.0, epsilon=0.0))
    with pytest.raises(InfiniteDwellTimeError):
        dwell_time(WellPair(E1=0.1, E2=-0.1, omega1=1.0, omega2=0.0))
    # a mixing g12 ~ 5e-201 squares to zero: refused, not a ZeroDivisionError
    with pytest.raises(ValueError, match="squares to zero"):
        dwell_time(WellPair.from_widths(1.0, 1.0, epsilon=1e-200))
    # 4 g12^2 is finite, but the quotient underflows: tau used to be 0.0
    with pytest.raises(ValueError, match=r"^the dwell time 0.0 leaves the positive float range"):
        dwell_time(WellPair.from_widths(1.0, 1.0, epsilon=1e308, rho=0.1))


def test_huge_detuning_decouples_the_wells():
    # mu^2 overflows past |eps| ~ 1e154; the scaled root keeps the closed
    # form finite, and a detuning this large leaves each well decaying alone
    times = np.linspace(0.0, 3.0, 7)
    for eps in (1e150, 1e200, 1e300):
        pair = WellPair.from_widths(2.0, 0.5, epsilon=eps)
        traj = master_trajectory(pair, (1.0, 0.0, 0.0), times)
        np.testing.assert_allclose(traj.sigma11, np.exp(-2.0 * times), rtol=1e-12)
        np.testing.assert_allclose(traj.sigma22, 0.0, atol=1e-290)


def test_a_propagator_outside_the_float_range_is_refused():
    # the phase |lambda| t reaches 5e307 * 10, past the float range; this
    # ended in "sigma11 = nan is not a probability"
    pair = WellPair.from_widths(1.0, 1.0, epsilon=1e308)
    with pytest.raises(PropagatorOverflowError, match="leaves the float range at t = 10.0") as exc:
        master_trajectory(pair, (1.0, 0.0, 0.0), [0.0, 10.0])
    assert exc.value.index == 0
    # in a stack, the first pair that overflows by its own last time
    fine = WellPair.from_widths(1.0, 1.0, epsilon=1.0)
    times = np.array([[0.0, 10.0], [0.0, 1e-300], [0.0, 10.0]])
    with pytest.raises(PropagatorOverflowError) as exc:
        dynamics._evolve_sigma([fine, pair, pair], (1.0, 0.0, 0.0), times)
    assert exc.value.index == 2


def test_dwell_time_governs_slow_decay():
    # weak misalignment: occupation decays at 1/tau once the fast mode is gone
    pair = WellPair.from_widths(1.0, 1.0, epsilon=0.05)
    tau = dwell_time(pair)
    t0 = 12.0 / 2.0
    times = np.linspace(t0, t0 + 2.0 * tau, 40)
    traj = master_trajectory(pair, (1.0, 0.0, 0.0), times)
    rate = fit_decay_rate(times, traj.occupation)
    assert rate == pytest.approx(1.0 / tau, rel=0.1)


def test_slow_decay_rate_limits():
    assert slow_decay_rate(1.0, 0.1) == pytest.approx(0.1**2 / 2.0, rel=2e-2)
    assert slow_decay_rate(1.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert slow_decay_rate(1.0, 0.0) == 0.0
    # exact pole position, any eps
    eps = 0.6
    assert slow_decay_rate(1.0, eps) == pytest.approx(
        1.0 - cmath.sqrt(1.0 - eps * eps).real, abs=1e-14
    )


def test_fit_decay_rate_recovers_exact_exponential():
    times = np.linspace(0.0, 5.0, 20)
    values = 0.7 * np.exp(-0.33 * times)
    assert fit_decay_rate(times, values) == pytest.approx(0.33, rel=1e-12)
    with pytest.raises(ValueError):
        fit_decay_rate([0.0], [1.0])
    with pytest.raises(ValueError):
        fit_decay_rate([0.0, 1.0], [1.0, 0.0])


@pytest.mark.parametrize(
    "times, values",
    [
        ([0.0, 1.0, 2.0], [1.0, math.nan, 0.5]),
        ([0.0, 1.0, 2.0], [1.0, math.inf, 0.5]),
        ([0.0, math.nan, 2.0], [1.0, 0.7, 0.5]),
        ([0.0, math.inf, 2.0], [1.0, 0.7, 0.5]),
        ([1.0, 1.0, 1.0], [1.0, 0.7, 0.5]),
        ([[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.5], [1.0, math.nan]]),
        ([0.0, 1.0, 2.0], [[1.0, 0.7, 0.5]]),
    ],
    ids=["nan_value", "inf_value", "nan_time", "inf_time", "equal_times", "nan_in_stack",
         "shape_mismatch"],
)
def test_fit_decay_rate_refuses_what_has_no_finite_rate(times, values):
    with pytest.raises(ValueError, match="decay fit requires"):
        fit_decay_rate(times, values)


def _cli_windows(count):
    """Fit windows and exact occupations as ``darkwells sweep`` samples them.

    Start ``12 / (gamma1 + gamma2)``, span two dwell times, 48 samples.
    """
    rng = np.random.default_rng(20)
    times, values = [], []
    for _ in range(count):
        gamma1 = rng.uniform(0.2, 5.0)
        pair = WellPair.from_widths(
            gamma1, gamma1 * rng.uniform(0.1, 8.0), eta=int(rng.choice([-1, 1])),
            epsilon=rng.uniform(0.05, 0.6) * gamma1 * rng.choice([-1.0, 1.0]),
        )
        t0 = 12.0 / (pair.gamma1 + pair.gamma2)
        window = np.linspace(t0, t0 + 2.0 * dwell_time(pair), 48)
        times.append(window)
        values.append(master_trajectory(pair, LEFT + (0.0,), window).occupation)
    return np.array(times), np.array(values)


def test_fit_decay_rate_stack_has_the_bits_of_each_row():
    times, values = _cli_windows(70)
    rates = fit_decay_rate(times, values)
    assert rates.shape == (70,)
    alone = [fit_decay_rate(t, v) for t, v in zip(times, values)]
    assert all(type(rate) is float for rate in alone)
    assert rates.tolist() == alone
    # a strided stack, as np.linspace(..., axis=-1) builds, fits the same
    assert fit_decay_rate(np.asfortranarray(times), np.asfortranarray(values)).tolist() == alone


def test_fit_decay_rate_matches_polyfit_on_cli_windows():
    times, values = _cli_windows(200)
    want = [-np.polyfit(t, np.log(v), 1)[0] for t, v in zip(times, values)]
    np.testing.assert_allclose(fit_decay_rate(times, values), want, rtol=1e-13, atol=0.0)


def test_evolve_master_guards():
    pair = WellPair.from_widths(1.0, 1.0)
    with pytest.raises(ValueError):
        evolve_master(pair, (1.0, 0.0, 0.0), -1.0)


def test_large_time_propagation_stays_finite():
    pair = WellPair.from_widths(1.0, 1.0, epsilon=0.5)
    for t in (500.0, 5000.0):
        b1, b2 = evolve_amplitudes(pair, LEFT, t)
        assert np.isfinite([b1.real, b1.imag, b2.real, b2.imag]).all()
        assert abs(b1) ** 2 + abs(b2) ** 2 <= 1.0 + 1e-12


def test_trajectory_bookkeeping():
    pair = WellPair.from_widths(1.0, 2.0, epsilon=0.3)
    times = np.linspace(0.0, 6.0, 7)
    traj = master_trajectory(pair, (1.0, 0.0, 0.0), times)
    assert traj.sigma11.shape == times.shape
    np.testing.assert_allclose(
        traj.sigma00, 1.0 - traj.sigma11 - traj.sigma22, atol=1e-12
    )
    np.testing.assert_allclose(traj.occupation, traj.sigma11 + traj.sigma22)


def test_state_validation():
    with pytest.raises(ValueError, match="not a probability"):
        dynamics._reduced_states(1.2, 0.0, 0.0, -0.2)
    with pytest.raises(ValueError, match="sum"):
        dynamics._reduced_states(0.5, 0.0, 0.0, 0.2)
    with pytest.raises(ValueError, match="coherence"):
        dynamics._reduced_states(0.5, 0.0, 0.4, 0.5)
    # sigma00 just below 0 is clamped to 0
    assert dynamics._reduced_states(0.36, 0.64, 0.48, -1e-12) == 0.0


def _scaled_propagators(monkeypatch, scale):
    """Patch ``_propagators`` to multiply U at the given (pair, time) indices."""
    original = dynamics._propagators

    def patched(pairs, times):
        u = original(pairs, times).copy()
        for index, factor in scale.items():
            u[index] *= factor
        return u

    monkeypatch.setattr(dynamics, "_propagators", patched)


def _scalar_error(pair, initial, t, factor):
    """The message the state check gives for ``factor * U`` at one time."""
    u = factor * dynamics._propagators([pair], [[t]])[0, 0]
    sigma = u @ np.array(initial, dtype=complex) @ u.conj().T
    s11, s22 = sigma[0, 0].real, sigma[1, 1].real
    with pytest.raises(ValueError) as info:
        dynamics._reduced_states(s11, s22, sigma[0, 1], 1.0 - s11 - s22)
    return str(info.value)


def test_master_trajectory_raises_at_first_bad_time(monkeypatch):
    pair = WellPair.from_widths(1.0, 2.0, eta=-1, epsilon=0.3)
    initial = [[0.36, 0.48], [0.48, 0.64]]
    triple = (0.36, 0.64, 0.48)
    times = np.linspace(0.0, 4.0, 9)
    master_trajectory(pair, triple, times)
    want3, want5, want6 = (
        _scalar_error(pair, initial, times[k], factor)
        for k, factor in ((3, 10.0), (5, 10.0), (6, 20.0))
    )
    assert len({want3, want5, want6}) == 3
    # two times overfill the wells; the earlier one is reported
    _scaled_propagators(monkeypatch, {(0, 6): 20.0, (0, 3): 10.0})
    with pytest.raises(ValueError) as info:
        master_trajectory(pair, triple, times)
    assert str(info.value) == want3
    # a stack is checked pair by pair, each pair's times in order
    other = WellPair.from_widths(0.5, 1.0, epsilon=-0.2)
    monkeypatch.undo()
    _scaled_propagators(monkeypatch, {(1, 0): 3.0, (0, 5): 10.0})
    with pytest.raises(ValueError) as info:
        dynamics._evolve_sigma([pair, other], triple, np.stack([times, times]))
    assert str(info.value) == want5


@pytest.mark.parametrize(
    "start",
    [(0.3, 0.3, 0.5), (1.2, 0.0, 0.0), (0.7, 0.5, 0.0), (0.5, -0.1, 0.0), (0.9, 0.9, 0.0)],
    ids=["coherence", "sigma11", "sigma00", "sigma22", "overfull"],
)
def test_invalid_start_raises_the_scalar_message(start):
    # the start is checked before it evolves, so each state check fires on
    # any grid, also one with no t = 0 to hand the start back
    pair = WellPair.from_widths(1.0, 2.0, epsilon=0.3)
    with pytest.raises(ValueError) as want:
        dynamics._reduced_states(start[0], start[1], start[2], 1.0 - start[0] - start[1])
    for times in ([0.0, 1.0], [5.0]):
        with pytest.raises(ValueError) as got:
            master_trajectory(pair, start, times)
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as got:
        evolve_master(pair, start, 3.0)
    assert str(got.value) == str(want.value)


def test_batched_evolution_equals_single_pair_calls():
    rng = np.random.default_rng(5)
    pairs = [
        WellPair.from_widths(*rng.uniform(0.2, 3.0, size=2), eta=eta, epsilon=eps)
        for eta, eps in ((1, 0.0), (-1, 0.7), (1, -2.5), (-1, 0.0))
    ]
    times = np.sort(rng.uniform(0.0, 20.0, size=(4, 33)), axis=1)
    times[:, 0] = [0.0, 1e-9, 3e-7, 0.0]  # series and exponential branches
    start = (0.5, 0.3, 0.1 + 0.2j)
    batched = dynamics._evolve_sigma(pairs, start, times)
    stack = dynamics._propagators(pairs, times)
    for k, pair in enumerate(pairs):
        traj = master_trajectory(pair, start, times[k])
        single = (traj.sigma11, traj.sigma22, traj.sigma12, traj.sigma00)
        for got, want in zip(batched, single):
            np.testing.assert_array_equal(got[k], want)
        np.testing.assert_array_equal(
            stack[k], dynamics._propagators([pair], times[k][None])[0]
        )
        for j in (0, 7, 32):
            ref = master_generator_sigma(
                pair.gamma1, pair.gamma2, 1 if k % 2 == 0 else -1, pair.epsilon,
                start, times[k, j],
            )
            assert _sigma_gap([got[k, j] for got in batched[:3]], ref) < 1e-12


def _sandwich_pairs(rng, n):
    """``n`` width-style pairs: widths over four decades, one in five with a
    decoupled well (``gamma2 = 0``, so ``U`` has exact zeros off the
    diagonal), aligned and misaligned levels, both signs ``eta``."""
    pairs = []
    for k in range(n):
        gamma1 = 10.0 ** rng.uniform(-2.0, 2.0)
        gamma2 = 0.0 if k % 5 == 4 else gamma1 * 10.0 ** rng.uniform(-2.0, 2.0)
        epsilon = 0.0 if k % 3 == 0 else gamma1 * rng.normal()
        pairs.append(WellPair.from_widths(gamma1, gamma2, eta=(-1) ** k, epsilon=epsilon))
    return pairs


def _pure(b1, b2):
    norm = math.sqrt(abs(b1) ** 2 + abs(b2) ** 2)
    b1, b2 = b1 / norm, b2 / norm
    return abs(b1) ** 2, abs(b2) ** 2, b1 * b2.conjugate()


@pytest.mark.parametrize("shape", [(1, 2000), (64, 1), (64, 48)])
def test_entrywise_sandwich_matches_the_explicit_product(shape):
    # _evolve_sigma writes U sigma0 U^dagger entry by entry; it must agree
    # with the product of the matrices, and keep every zero +0.0, as a sum
    # of products taken from 0 does
    rng = np.random.default_rng(sum(shape))
    pairs = _sandwich_pairs(rng, shape[0])
    times = np.sort(rng.uniform(0.0, 40.0, size=shape), axis=1)
    times[::2, 0] = 0.0
    times[1::4, -1] = 1e4  # every amplitude underflows to 0
    u = dynamics._propagators(pairs, times)
    s11, s22 = rng.uniform(0.0, 0.5, size=2)
    phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    starts = [
        _pure(complex(*rng.normal(size=2)), complex(*rng.normal(size=2))),
        _pure(0.6, 0.8j),
        (s11, s22, 0.7 * math.sqrt(s11 * s22) * phase),
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (1.0, -0.0, complex(-0.0, -0.0)),
        (0.5, 0.5, 0.0),
        (0.4, 0.0, 0.0),
        (0.0, 0.0, 0.0),
    ]
    zeros = 0
    for start in starts:
        x, z, w = start
        sigma0 = np.array([[x, w], [np.conj(w), z]], dtype=complex)
        product = u @ sigma0 @ u.conj().swapaxes(-1, -2)
        summed = np.zeros_like(product)
        for i, j, k, l in itertools.product(range(2), repeat=4):
            summed[..., i, j] += u[..., i, k] * sigma0[k, l] * u[..., j, l].conj()
        got11, got22, got12, got00 = dynamics._evolve_sigma(pairs, start, times)
        for got, want, exact in (
            (got11, product[..., 0, 0].real, summed[..., 0, 0].real),
            (got22, product[..., 1, 1].real, summed[..., 1, 1].real),
            (got12.real, product[..., 0, 1].real, summed[..., 0, 1].real),
            (got12.imag, product[..., 0, 1].imag, summed[..., 0, 1].imag),
        ):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
            assert not np.signbit(got[got == 0.0]).any()
            assert (got[exact == 0.0] == 0.0).all()
            zeros += np.count_nonzero(exact == 0.0)
        np.testing.assert_array_equal(got00, np.maximum(1.0 - got11 - got22, 0.0))
    assert zeros > shape[0] * shape[1]


@pytest.mark.parametrize("gamma1", [1e4, 1e8])
def test_slow_decay_keeps_the_dwell_rate_when_the_widths_differ_by_many_orders(gamma1):
    # the slow eigenvalue is det(H_eff) over the fast one: tr/2 - mu would
    # cancel at these width ratios, down to a zero rate at 1e8
    pair = WellPair.from_widths(gamma1, 1.0, epsilon=0.3)
    tau = dwell_time(pair)
    times = np.array([0.5, 1.5]) * tau
    occupation = master_trajectory(pair, (1.0, 0.0, 0.0), times).occupation
    slope = (math.log(occupation[0]) - math.log(occupation[1])) / (times[1] - times[0])
    assert abs(slope * tau - 1.0) < 1e-6
