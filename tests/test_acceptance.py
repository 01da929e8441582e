"""End-to-end acceptance checks, one test per numbered criterion.

Every test prints exactly one scoreboard line

    criterion NN: PASS/FAIL - detail

through the capture bypass before asserting, so a full run always shows
the twelve verdicts even when an assertion stops a test early.  The
detail part carries the measured numbers next to their bounds.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from darkwells.bosons import emission_distribution, one_well_distribution, rotate_fock
from darkwells.cli import main
from darkwells import dynamics
from darkwells.dynamics import (
    asymptotic_probs,
    dwell_time,
    evolve_master,
    fit_decay_rate,
    master_trajectory,
)
from darkwells.fermions import creation_product, dark_vector
from darkwells.model import WellPair, ParallelWellPair
from darkwells.oracle import (
    DiscretizedReservoir,
    FockSpace,
    build_single_particle_hamiltonian,
    chebyshev_propagate,
    evolve_fock,
    fock_basis_state,
    reduced_quantities,
    reservoir_couplings,
    single_particle_bounds,
    single_particle_trajectory,
    slater_dot_rdm,
    slater_reservoir_distribution,
)
from darkwells.rotation import dark_state

from oracles import (
    analytic_sigma_symmetric,
    boson_rotation_oracle,
    check_constant_ratio,
    effective_hamiltonian_sigma,
    slow_decay_rate,
)

# gamma = 1 when rho = 1
OMEGA_UNIT = 1.0 / math.sqrt(2.0 * math.pi)

LEFT = (1.0, 0.0, 0.0)


def pure_start(b1, b2):
    """The start ``(sigma11, sigma22, sigma12)`` of the well amplitudes ``(b1, b2)``."""
    return abs(b1) ** 2, abs(b2) ** 2, b1 * np.conj(b2)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_symmetric_aligned_long_time(capsys):
    start = time.perf_counter()
    pair = WellPair.from_widths(1.0, 1.0, epsilon=0.0)
    state = evolve_master(pair, LEFT, 30.0)
    got = np.array(
        [state.sigma11[0], state.sigma22[0], state.sigma12[0].real, state.sigma12[0].imag]
    )
    want = np.array([0.25, 0.25, -0.25, 0.0])
    err = float(np.abs(got - want).max())
    elapsed = time.perf_counter() - start
    ok = err < 1e-6 and elapsed < 1.0
    _report(capsys, 1, ok, f"max deviation {err:.2e} (bound 1e-6), {elapsed:.2f}s (cap 1s)")
    assert err < 1e-6
    assert elapsed < 1.0


def test_criterion_02_misaligned_emptying_and_slow_rate(capsys):
    pair = WellPair.from_widths(1.0, 1.0, epsilon=0.5)

    def occupancy(t):
        return evolve_master(pair, LEFT, t).occupation[0]

    def reference(t):
        s11, s22, _ = effective_hamiltonian_sigma(1.0, 1.0, 1, 0.5, (1.0, 0.0), t)
        return s11 + s22

    # No bound state: the exact solution empties at the slow pole, holding
    # 3.137e-3 at t = 40 and first reaching 1e-3 at t = 48.534.
    occ40, ref40 = occupancy(40.0), reference(40.0)
    pin_rel = abs(occ40 - ref40) / ref40
    ok_pin = pin_rel < 1e-9
    occ48, occ49 = occupancy(48.0), occupancy(49.0)
    ref48, ref49 = reference(48.0), reference(49.0)
    ok_cross = min(occ48, ref48) > 1e-3 and max(occ49, ref49) < 1e-3
    rate_want = slow_decay_rate(1.0, 0.5)
    assert rate_want == pytest.approx(1.0 - math.sqrt(0.75), rel=1e-15)
    times = np.linspace(20.0, 40.0, 30)
    traj = master_trajectory(pair, LEFT, times)
    rate_fit = fit_decay_rate(times, traj.occupation)
    rate_rel = abs(rate_fit - rate_want) / rate_want
    ok_rate = rate_rel < 0.05
    _report(
        capsys,
        2,
        ok_pin and ok_cross and ok_rate,
        f"occupancy(t=40)={occ40:.10e} vs expm reference {ref40:.10e} "
        f"(rel {pin_rel:.1e}, bound 1e-9); "
        f"1e-3 crossed in [48, 49]: {occ48:.4e} > 1e-3 > {occ49:.4e}; "
        f"slow-rate rel err {rate_rel:.2e} (bound 5e-2)",
    )
    assert ok_rate
    assert ok_pin, f"occupancy(40) = {occ40!r}, reference {ref40!r}"
    assert ok_cross, (
        f"1e-3 crossing not in [48, 49]: program {occ48:.4e}, {occ49:.4e}; "
        f"reference {ref48:.4e}, {ref49:.4e}"
    )


def test_criterion_03_closed_form_matches_integrator(capsys):
    start = time.perf_counter()
    times = np.linspace(0.0, 20.0, 200)
    worst = 0.0
    for eps in (0.0, 0.1, 0.5, 2.0):
        pair = WellPair.from_widths(1.0, 1.0, epsilon=eps)
        s11, s22, s12 = analytic_sigma_symmetric(1.0, eps, times)
        traj = master_trajectory(pair, LEFT, times)
        err = max(
            float(np.abs(traj.sigma11 - s11).max()),
            float(np.abs(traj.sigma22 - s22).max()),
            float(np.abs(traj.sigma12 - s12).max()),
        )
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _report(capsys, 3, ok, f"max deviation {worst:.2e} (bound 1e-8), {elapsed:.2f}s (cap 5s)")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_criterion_04_discretized_reservoir_convergence(capsys):
    start = time.perf_counter()
    times = np.linspace(0.0, 8.0, 161)
    exact11 = analytic_sigma_symmetric(1.0, 0.0, times)[0]

    def run11(cutoff, n_levels):
        pair = WellPair.from_widths(1.0, 1.0, epsilon=0.0, lambda_cutoff=cutoff)
        run = single_particle_trajectory(pair, (1.0, 0.0), times, n_levels=n_levels)
        return run.trajectory.sigma11

    s_4k = run11(20.0, 4000)
    s_8k = run11(20.0, 8000)
    s_16k = run11(20.0, 16000)
    err_full = float(np.abs(s_4k - exact11).max())
    # The early bins carry a band-edge transient of duration ~1/cutoff that
    # no n_levels refinement can remove; judge agreement past t = 10/cutoff
    # and show separately that the transient halves when the cutoff doubles
    # and that the n-attributable error shrinks under refinement.
    window = times >= 0.5
    err_window = float(np.abs((s_4k - exact11)[window]).max())
    err_n4 = float(np.abs(s_4k - s_16k).max())
    err_n8 = float(np.abs(s_8k - s_16k).max())
    s_wide = run11(40.0, 8000)  # doubled cutoff at the same level spacing
    err_wide = float(np.abs(s_wide - exact11).max())
    ratio = err_wide / err_full
    elapsed = time.perf_counter() - start
    ok = err_window < 1e-2 and err_n8 < err_n4 and 0.35 < ratio < 0.7 and elapsed < 60.0
    _report(
        capsys,
        4,
        ok,
        f"deviation {err_window:.2e} past the band transient (bound 1e-2; "
        f"full-grid {err_full:.2e} is the t<10/cutoff edge transient, "
        f"x{ratio:.2f} under cutoff doubling); refinement error "
        f"{err_n4:.1e}->{err_n8:.1e} on n doubling; {elapsed:.1f}s (cap 60s)",
    )
    assert err_window < 1e-2
    assert err_n8 < err_n4
    assert 0.35 < ratio < 0.7
    assert elapsed < 60.0


def test_criterion_05_dark_state_survives_discretization(capsys):
    pair = WellPair.from_widths(1.0, 4.0, epsilon=0.0)
    res = DiscretizedReservoir.for_pair(pair, n_levels=200)
    times = np.linspace(0.0, 0.5 * res.recurrence_time, 41)
    dark = dark_state(pair)
    run = single_particle_trajectory(pair, dark, times, n_levels=200)
    drift = float(np.abs(run.trajectory.occupation - 1.0).max())
    ok = drift < 1e-3
    _report(
        capsys,
        5,
        ok,
        f"max |occupation - 1| = {drift:.2e} up to half the recurrence time "
        f"t = {times[-1]:.2f} (bound 1e-3)",
    )
    assert drift < 1e-3


def test_criterion_06_sweep_reproduces_trapped_occupation(capsys, tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[sweep]\naxis = y\nvalues = 0.1, 1, 10\nreport = sigma11_asymptotic\n\n"
        "[model]\ngamma1 = 1.0\n"
    )
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    rows = [
        line.split(",")
        for line in out.read_text().splitlines()
        if line and not line.startswith("#") and not line[0].isalpha()
    ]
    worst = 0.0
    for row in rows:
        y = float(row[0])
        worst = max(worst, abs(float(row[1]) - y * y / (1.0 + y) ** 2))
    ok = code == 0 and len(rows) == 3 and worst < 1e-4
    _report(
        capsys,
        6,
        ok,
        f"long-time sigma11 vs y^2/(1+y)^2 over y in {{0.1, 1, 10}}: "
        f"max deviation {worst:.2e} (bound 1e-4)",
    )
    assert code == 0
    assert len(rows) == 3
    assert worst < 1e-4


def test_criterion_07_dwell_time_fits(capsys):
    start = time.perf_counter()
    worst = 0.0
    for y in (1.0, 10.0):
        for eps in (0.05, 0.1):
            pair = WellPair.from_widths(1.0, y, epsilon=eps)
            tau = dwell_time(pair)
            assert tau == pytest.approx((1.0 + y) ** 3 / (4.0 * y * eps * eps), rel=1e-12)
            t0 = 12.0 / (1.0 + y)
            times = np.linspace(t0, t0 + 2.0 * tau, 48)
            traj = master_trajectory(pair, LEFT, times)
            tau_fit = 1.0 / fit_decay_rate(times, traj.occupation)
            worst = max(worst, abs(tau_fit - tau) / tau)
    elapsed = time.perf_counter() - start
    ok = worst < 0.1 and elapsed < 30.0
    _report(
        capsys,
        7,
        ok,
        f"fitted dwell time vs (1+y)^3/(4 y eps^2): worst rel err {worst:.2e} "
        f"(bound 1e-1), {elapsed:.1f}s (cap 30s)",
    )
    assert worst < 0.1
    assert elapsed < 30.0


def test_criterion_08_two_fermions_emit_exactly_one(capsys):
    worst_p1 = 0.0
    worst_rdm = 0.0
    for y in (1.0, 4.0):
        pair = WellPair.from_widths(1.0, y, epsilon=0.0)
        res = DiscretizedReservoir.for_pair(pair, n_levels=2000)
        h = build_single_particle_hamiltonian(pair, res, sparse=True)
        orbitals = np.zeros((2000 + 2, 2), dtype=complex)
        orbitals[0, 0] = 1.0  # one particle per well
        orbitals[1, 1] = 1.0
        t = 50.0 / (1.0 + y)
        bounds = single_particle_bounds(pair, res)
        evolved = chebyshev_propagate(h, orbitals, np.array([t]), bounds=bounds)[-1]
        probs = slater_reservoir_distribution(evolved, n_dot_modes=2)
        rdm = slater_dot_rdm(evolved, n_dot_modes=2)
        got = np.array([rdm[0, 0].real, rdm[1, 1].real, rdm[0, 1].real, rdm[0, 1].imag])
        want = np.array([y, 1.0, -math.sqrt(y), 0.0]) / (1.0 + y)
        worst_p1 = max(worst_p1, abs(probs[1] - 1.0))
        worst_rdm = max(worst_rdm, float(np.abs(got - want).max()))
    ok = worst_p1 < 1e-3 and worst_rdm < 1e-3
    _report(
        capsys,
        8,
        ok,
        f"|P(one emitted) - 1| = {worst_p1:.1e} and retained-pair state vs "
        f"(y, 1, -sqrt(y))/(1+y): {worst_rdm:.1e} (bounds 1e-3)",
    )
    assert worst_p1 < 1e-3
    assert worst_rdm < 1e-3


def test_criterion_09_interaction_restores_pair_resonance(capsys):
    start = time.perf_counter()

    def trapped_weight(e2):
        base = WellPair(E1=0.0, E2=e2, omega1=OMEGA_UNIT, omega2=OMEGA_UNIT, rho=1.0)
        model = ParallelWellPair(base=base, yprime=1.0, U=2.0)
        res = DiscretizedReservoir.uniform(60, 25.0)
        space = FockSpace(4 + 60, 2, "fermi")
        psi0 = fock_basis_state(space, (0, 1))  # both levels of the first well
        psi = evolve_fock(model, res, space, psi0, np.array([3.0]))[-1]
        return reduced_quantities(space, psi, n_dot_modes=4).reservoir_count_probs[0]

    p0_res = trapped_weight(2.0)  # E2 = E1 + U
    p0_off = trapped_weight(12.0)  # detuned from the pair resonance by 5*(gamma1+gamma2)
    elapsed = time.perf_counter() - start
    ok = abs(p0_res - 0.5) < 2e-2 and p0_off < 2e-2 and elapsed < 300.0
    _report(
        capsys,
        9,
        ok,
        f"P(none emitted) = {p0_res:.4f} on resonance (want 0.5 +- 2e-2) and "
        f"{p0_off:.4f} off resonance (bound 2e-2), {elapsed:.1f}s (cap 300s)",
    )
    assert abs(p0_res - 0.5) < 2e-2
    assert p0_off < 2e-2
    assert elapsed < 300.0


def test_criterion_10_boson_pair_emission_law(capsys):
    worst = 0.0
    for y in (Fraction(1, 4), Fraction(1), Fraction(4)):
        law = emission_distribution(rotate_fock(1, 1, y))
        denom = (1 + y) ** 2
        assert law.probabilities == {
            0: 2 * y / denom,
            1: (1 - y) ** 2 / denom,
            2: 2 * y / denom,
        }
        pair = WellPair.from_widths(1.0, float(y), epsilon=0.0)
        res = DiscretizedReservoir.for_pair(pair, n_levels=120)
        space = FockSpace(2 + 120, 2, "bose")
        psi0 = fock_basis_state(space, (0, 1))  # one boson per well
        t = 8.0 / (1.0 + float(y))
        psi = evolve_fock(pair, res, space, psi0, np.array([t]))[-1]
        counts = reduced_quantities(space, psi, n_dot_modes=2).reservoir_count_probs
        exact = np.array([float(law.probabilities[m]) for m in range(3)])
        worst = max(worst, float(np.abs(counts - exact).max()))
    ok = worst < 2e-2
    _report(
        capsys,
        10,
        ok,
        f"emitted-count law (2y, (1-y)^2, 2y)/(1+y)^2 exact; many-body run "
        f"deviates by {worst:.1e} (bound 2e-2)",
    )
    assert worst < 2e-2


def test_criterion_11_boson_combinatorics_exact(capsys):
    checked = 0
    for y in (Fraction(1), Fraction(1, 4), Fraction(4), Fraction(9, 7)):
        for eta in (1, -1):
            for n1 in range(7):
                for n2 in range(7 - n1):
                    if n1 + n2 == 0:
                        continue
                    state = rotate_fock(n1, n2, y, eta=eta)
                    want = boson_rotation_oracle(n1, n2, y, eta=eta)
                    for n_dark, (sign, square) in want.items():
                        amp = state.amplitude(n_dark, n1 + n2 - n_dark)
                        assert amp.sign == sign, (n1, n2, y, eta, n_dark)
                        assert amp.square == square, (n1, n2, y, eta, n_dark)
                    total = sum(a.square for a in state.amplitudes.values())
                    assert total == 1
                    checked += 1
    ok = checked == 8 * 27
    _report(
        capsys,
        11,
        ok,
        f"{checked} mode-rotated Fock expansions up to 6 particles match the "
        "polynomial-expansion oracle exactly (zero tolerance)",
    )
    assert ok


def test_criterion_12_randomized_invariants(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20260818)
    n_draws = 1000
    worst = {"master": 0.0, "rotation": 0.0, "asymptotic": 0.0, "fermion": 0.0}

    def random_pair(eps_range=2.0):
        return WellPair.from_widths(
            float(rng.uniform(0.05, 2.5)),
            float(rng.uniform(0.05, 2.5)),
            eta=int(rng.choice((1, -1))),
            epsilon=float(rng.uniform(-eps_range, eps_range)),
        )

    def random_unit_pair():
        b = rng.normal(size=4)
        b = b / np.linalg.norm(b)
        return complex(b[0], b[1]), complex(b[2], b[3])

    for i in range(n_draws):
        family = i % 6
        if family == 0:
            # integrator vs exact propagator, contractivity, purity
            pair = random_pair()
            b1, b2 = random_unit_pair()
            t = float(rng.uniform(0.01, 6.0))
            bt = dynamics._propagators([pair], [[t]])[0, 0] @ np.array([b1, b2])
            w = float(np.abs(bt[0]) ** 2 + np.abs(bt[1]) ** 2)
            assert w <= 1.0 + 1e-9
            pure = pure_start(bt[0], bt[1])
            point = evolve_master(pair, pure_start(b1, b2), t)
            mixed = (point.sigma11[0], point.sigma22[0], point.sigma12[0])
            err = max(abs(got - want) for got, want in zip(mixed, pure))
            worst["master"] = max(worst["master"], err)
            assert err < 1e-6
            # the point passed on as the start of a second stretch
            later = evolve_master(pair, mixed, t)
            assert later.occupation[0] <= point.occupation[0] + 1e-9
            assert abs(mixed[2]) ** 2 <= mixed[0] * mixed[1] + 1e-9
        elif family == 1:
            # the dark vector is a unit vector orthogonal to the couplings
            pair = random_pair()
            dark = dark_state(pair)
            err = max(
                abs(dark[0] * pair.omega1 + dark[1] * pair.omega2)
                / math.hypot(pair.omega1, pair.omega2),
                abs(float(np.linalg.norm(dark)) - 1.0),
            )
            random_unit_pair()  # drawn so later draws stay as they were
            worst["rotation"] = max(worst["rotation"], err)
            assert err < 1e-12
        elif family == 2:
            # aligned wells: trapped fraction is the dark overlap and the
            # long-time state is the projected dark amplitude
            pair = WellPair.from_widths(
                float(rng.uniform(0.05, 2.5)),
                float(rng.uniform(0.05, 2.5)),
                eta=int(rng.choice((1, -1))),
            )
            b = random_unit_pair()
            p_trapped, p_emitted = asymptotic_probs(pair, b)
            dark = dark_state(pair)
            amp = dark[0] * b[0] + dark[1] * b[1]
            err = abs(p_trapped - abs(amp) ** 2)
            assert abs(p_trapped + p_emitted - 1.0) < 1e-12
            t_long = 80.0 / (pair.gamma1 + pair.gamma2)
            state = evolve_master(pair, pure_start(*b), t_long)
            err = max(
                err,
                abs(state.sigma11[0] - abs(amp * dark[0]) ** 2),
                abs(state.sigma22[0] - abs(amp * dark[1]) ** 2),
                abs(state.sigma12[0] - abs(amp) ** 2 * dark[0] * dark[1]),
            )
            worst["asymptotic"] = max(worst["asymptotic"], err)
            assert err < 1e-6
        elif family == 3:
            # many-fermion expansion: unit norm, antisymmetry, unit dark mode
            n_modes = 5
            n_particles = int(rng.integers(1, 4))
            vectors = [
                rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
                for _ in range(n_particles)
            ]
            vectors = [v / np.linalg.norm(v) for v in vectors]
            amps = creation_product(vectors, n_modes)
            norm = sum(abs(a) ** 2 for a in amps.values())
            err = abs(norm - 1.0)
            if n_particles >= 2:
                swapped = creation_product(
                    [vectors[1], vectors[0]] + vectors[2:], n_modes
                )
                err = max(
                    err,
                    max(abs(swapped[k] + amps[k]) for k in amps),
                )
            dvec = dark_vector(float(rng.uniform(0.1, 10.0)), eta=int(rng.choice((1, -1))))
            err = max(err, abs(float(np.linalg.norm(dvec)) - 1.0))
            worst["fermion"] = max(worst["fermion"], err)
            assert err < 1e-9
        elif family == 4:
            # exact boson rotations: unit norm and total emission weight
            n1 = int(rng.integers(0, 3))
            n2 = int(rng.integers(0 if n1 else 1, 3))
            y = Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 10)))
            eta = int(rng.choice((1, -1)))
            state = rotate_fock(n1, n2, y, eta=eta)
            assert sum(a.square for a in state.amplitudes.values()) == 1
            law = emission_distribution(state)
            assert sum(law.probabilities.values()) == 1
            if n2 == 0:
                assert law.probabilities == one_well_distribution(n1, y).probabilities
        else:
            # discretized band: symmetric grid, exact constant coupling ratio
            pair = random_pair()
            n_levels = int(rng.integers(5, 31)) * 2
            res = DiscretizedReservoir.uniform(n_levels, float(rng.uniform(5.0, 50.0)))
            mirror = float(np.abs(res.energies + res.energies[::-1]).max())
            assert mirror <= 1e-12 * res.cutoff
            assert res.recurrence_time == pytest.approx(2.0 * math.pi / res.spacing)
            table = reservoir_couplings(pair, res)
            ok_ratio, rel = check_constant_ratio(table)
            assert ok_ratio and rel == 0.0
            widths = 2.0 * math.pi * table**2 / res.spacing
            g1, g2 = pair.gamma1, pair.gamma2
            assert float(np.abs(widths[:, 0] - g1).max()) < 1e-12 * max(g1, 1.0)
            assert float(np.abs(widths[:, 1] - g2).max()) < 1e-12 * max(g2, 1.0)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(
        capsys,
        12,
        ok,
        f"{n_draws} randomized draws over six invariant families, worst "
        f"deviations master {worst['master']:.1e}, rotation {worst['rotation']:.1e}, "
        f"asymptotic {worst['asymptotic']:.1e}, fermion {worst['fermion']:.1e}; "
        f"{elapsed:.1f}s (cap 60s)",
    )
    assert elapsed < 60.0
