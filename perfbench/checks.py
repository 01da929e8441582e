"""Independent correctness checks for every scenario the benchmark runs.

Each ``check_*`` function returns a list of ``(label, deviation, tolerance)``
triples; a scenario passes when every deviation is within its tolerance.
Deviations are ``|got - reference| / max(1, |reference|)``: absolute for
probabilities and occupations, relative for times and rates.

The wide-band references are written here from the model definition and
never call ``darkwells.dynamics``: the reduced state obeys
``d sigma / dt = -i (H sigma - sigma H^dagger)`` with

    H = [[ eps/2 - i gamma1/2,      -i eta sqrt(gamma1 gamma2)/2 ],
         [ -i eta sqrt(gamma1 gamma2)/2,      -eps/2 - i gamma2/2 ]],

and ``scipy.linalg.expm`` of that literal 4x4 generator gives sigma(t).
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.linalg import expm

# Closed forms checked against the exact propagator.  The program's RK4
# path agrees to ~1e-12; an exact propagator moves outputs by <= 1e-11.
EXACT_TOL = 1e-8
# Sum rules and exact finite-reservoir references for the Fock pipeline.
FOCK_TOL = 1e-8
# Long-time boson emission law against a finite band at finite time
# (the bound of acceptance criterion 10).
BOSON_LAW_TOL = 2e-2
# The oracle's own norm check.
NORM_TOL = 1e-10
_STRING_COLUMNS = ("occupation",)


def deviation(got, ref):
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if got.shape != ref.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    scale = np.maximum(1.0, np.abs(ref))
    dev = np.abs(got - ref) / scale
    if not np.all(np.isfinite(dev)):
        return math.inf
    return float(dev.max())


def master_generator(gamma1, gamma2, eps, eta):
    """Generator of vec(sigma), row-major (sigma11, sigma12, sigma21, sigma22)."""
    g = eta * math.sqrt(gamma1 * gamma2)
    h = np.array(
        [[0.5 * eps - 0.5j * gamma1, -0.5j * g],
         [-0.5j * g, -0.5 * eps - 0.5j * gamma2]]
    )
    eye = np.eye(2)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.conj()))


def sigma_trajectory(gamma1, gamma2, eps, eta, b1, b2, times):
    """(sigma11, sigma22, sigma12) on ``times`` for the pure start (b1, b2)."""
    b = np.array([b1, b2], dtype=complex)
    vec0 = np.outer(b, b.conj()).reshape(4)
    times = np.asarray(times, dtype=float)
    gen = master_generator(gamma1, gamma2, eps, eta)
    vec = expm(times[:, None, None] * gen) @ vec0
    return vec[:, 0].real, vec[:, 3].real, vec[:, 1]


def _complex(pair):
    return complex(pair[0], pair[1])


def read_output(path, fmt):
    """(columns as {name: array}, manifest, header digest matches manifest)."""
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path + ".manifest.json", "rb") as fh:
        manifest_bytes = fh.read()
    digest = hashlib.sha256(manifest_bytes).hexdigest()
    if fmt == "csv":
        lines = data.decode().splitlines()
        stamped = lines[0].split()[-1]
        names = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
    else:
        payload = json.loads(data)
        stamped = payload["manifest_sha256"]
        names = payload["columns"]
        rows = payload["rows"]
    columns = {}
    for k, name in enumerate(names):
        cells = [row[k] for row in rows]
        if name in _STRING_COLUMNS:
            columns[name] = [str(c) for c in cells]
        else:
            columns[name] = np.array([float(c) for c in cells])
    return columns, json.loads(manifest_bytes), stamped == digest


def check_evolve(p, cols, manifest):
    times = np.linspace(0.0, p["t_max"], p["n_points"])
    s11, s22, s12 = sigma_trajectory(
        p["gamma1"], p["gamma1"] * p["y"], p["epsilon"], p["eta"],
        _complex(p["b1"]), _complex(p["b2"]), times,
    )
    return [
        ("t", deviation(cols["t"], times), EXACT_TOL),
        ("sigma11", deviation(cols["sigma11"], s11), EXACT_TOL),
        ("sigma22", deviation(cols["sigma22"], s22), EXACT_TOL),
        ("re_sigma12", deviation(cols["re_sigma12"], s12.real), EXACT_TOL),
        ("im_sigma12", deviation(cols["im_sigma12"], s12.imag), EXACT_TOL),
        ("sigma00", deviation(cols["sigma00"], 1.0 - s11 - s22), EXACT_TOL),
    ]


def check_asymptotic(p, cols, manifest):
    y, eta = p["y"], p["eta"]
    b1, b2 = _complex(p["b1"]), _complex(p["b2"])
    trapped = abs(eta * math.sqrt(y) * b1 - b2) ** 2 / (1.0 + y)
    return [
        ("p_trapped", deviation(cols["p_trapped"], [trapped]), EXACT_TOL),
        ("p_emitted", deviation(cols["p_emitted"], [1.0 - trapped]), EXACT_TOL),
        ("sigma11", deviation(cols["sigma11"], [trapped * y / (1.0 + y)]), EXACT_TOL),
        ("sigma22", deviation(cols["sigma22"], [trapped / (1.0 + y)]), EXACT_TOL),
        ("re_sigma12", deviation(cols["re_sigma12"],
                                 [-eta * trapped * math.sqrt(y) / (1.0 + y)]), EXACT_TOL),
        ("im_sigma12", deviation(cols["im_sigma12"], [0.0]), EXACT_TOL),
        ("sigma00", deviation(cols["sigma00"], [1.0 - trapped]), EXACT_TOL),
    ]


def dwell_formula(gamma1, y, eps):
    return gamma1 * (1.0 + y) ** 3 / (4.0 * y * eps * eps)


def check_dwell(p, cols, manifest):
    tau = dwell_formula(p["gamma1"], p["y"], p["epsilon"])
    return [
        ("tau", deviation(cols["tau"], [tau]), EXACT_TOL),
        ("rate", deviation(cols["rate"] * tau, [1.0]), EXACT_TOL),
    ]


def fitted_rate(gamma1, y, eps, eta):
    """Least-squares decay rate of the exact occupation on the CLI's window.

    The window starts after the bright transient (12 / (gamma1 + gamma2))
    and spans two predicted dwell times; 48 samples.
    """
    total = gamma1 * (1.0 + y)
    t0 = 12.0 / total
    times = np.linspace(t0, t0 + 2.0 * dwell_formula(gamma1, y, eps), 48)
    s11, s22, _ = sigma_trajectory(gamma1, gamma1 * y, eps, eta, 1.0, 0.0, times)
    design = np.column_stack((times, np.ones_like(times)))
    slope = np.linalg.lstsq(design, np.log(s11 + s22), rcond=None)[0][0]
    return -float(slope)


def _sweep_points(p):
    inner = p["values2"] if p["axis2"] else [None]
    for v1 in p["values"]:
        for v2 in inner:
            point = {"gamma1": p["gamma1"], "y": p.get("y"), "gamma2": None,
                     "epsilon": p.get("epsilon", 0.0)}
            for axis, value in ((p["axis"], v1), (p["axis2"], v2)):
                if axis is not None:
                    point[axis] = value
            gamma2 = point["gamma2"]
            y = point["y"] if gamma2 is None else gamma2 / point["gamma1"]
            yield v1, v2, point["gamma1"], y, point["epsilon"]


def check_sweep(p, cols, manifest):
    report = p["report"]
    want_axis1, want_axis2, want_value = [], [], []
    for v1, v2, gamma1, y, eps in _sweep_points(p):
        want_axis1.append(v1)
        want_axis2.append(v2)
        if report == "sigma11_asymptotic":
            want_value.append(y * y / (1.0 + y) ** 2)
        elif report == "p_trapped":
            want_value.append(y / (1.0 + y))
        else:
            rate = fitted_rate(gamma1, y, eps, p["eta"])
            want_value.append(1.0 / rate if report == "fitted_tau" else rate)
    out = [
        ("axis", deviation(cols[p["axis"]], want_axis1), EXACT_TOL),
        (report, deviation(cols[report], want_value), EXACT_TOL),
    ]
    if p["axis2"]:
        out.append(("axis2", deviation(cols[p["axis2"]], want_axis2), EXACT_TOL))
    return out


def _boson_law(p):
    law, n = p["law"], p.get("n") or p.get("n_retained")
    y = p.get("y")
    if law == "one_well":
        return [math.comb(n, m) * y ** (n - m) / (1.0 + y) ** n for m in range(n + 1)]
    if law == "retained_split":
        return [math.comb(n, k) * y ** k / (1.0 + y) ** n for k in range(n + 1)]
    if law == "equal_fill":
        probs = [0.0] * (2 * n + 1)
        for m in range(n + 1):
            probs[2 * m] = math.comb(2 * (n - m), n - m) * math.comb(2 * m, m) / 4.0 ** n
        return probs
    return None


def check_bosons(p, cols, manifest):
    probs = cols["probability"]
    out = [
        ("sum", abs(float(probs.sum()) - 1.0), EXACT_TOL),
        ("negative", float(max(0.0, -probs.min())), EXACT_TOL),
        ("m", deviation(cols["m"], np.arange(probs.size)), 0.0),
    ]
    law = _boson_law(p)
    if law is not None:
        out.append(("law", deviation(probs, law), EXACT_TOL))
    return out


def check_fermions(p, cols, manifest):
    counts = cols["reservoir_count"].astype(int)
    probs, occ = cols["probability"], cols["occupation"]
    amps = cols["re_amplitude"] + 1j * cols["im_amplitude"]
    branch_probs = {int(c): float(pr) for c, pr in zip(counts, probs)}
    out = [("sum", abs(sum(branch_probs.values()) - 1.0), EXACT_TOL)]
    for count in branch_probs:
        mask = counts == count
        out.append((f"norm[{count}]", abs(float(np.sum(np.abs(amps[mask]) ** 2)) - 1.0),
                    EXACT_TOL))
    y, eta = p["y"], p["eta"]
    if p["op"] == "two_electron":
        want = {"10": eta * math.sqrt(y / (1.0 + y)), "01": -1.0 / math.sqrt(1.0 + y)}
        got = dict(zip(occ, amps))
        out.append(("dark", deviation([got.get(k, math.nan) for k in want],
                                      list(want.values())), EXACT_TOL))
        want_probs = {1: 1.0}
    elif p["op"] == "two_electron_parallel" and p["epsilon"] == -p["u"]:
        want_probs = {0: y / (1.0 + y), 1: 1.0 / (1.0 + y)}
    else:
        want_probs = {1: 1.0}
    keys = sorted(set(want_probs) | set(branch_probs))
    out.append(("branches", deviation([branch_probs.get(k, math.nan) for k in keys],
                                      [want_probs.get(k, 0.0) for k in keys]), EXACT_TOL))
    if p["op"] == "three_electron":
        out.append(("retained", float(any(o.count("1") != 3 for o in occ)), 0.0))
    return out


def check_oracle_compare(p, cols, manifest):
    times = np.linspace(0.0, p["t_max"], p["n_points"])
    s11, _, _ = sigma_trajectory(
        p["gamma1"], p["gamma1"] * p["y"], p["epsilon"], p["eta"],
        _complex(p["b1"]), _complex(p["b2"]), times,
    )
    report = manifest["oracle"]
    ref, orc = cols["sigma11_reference"], cols["sigma11_oracle"]
    total = p["gamma1"] * (1.0 + p["y"])
    dim = p["n_levels"] + 2
    method = "dense" if dim <= 1500 else "chebyshev"
    return [
        ("t", deviation(cols["t"], times), EXACT_TOL),
        ("sigma11_reference", deviation(ref, s11), EXACT_TOL),
        ("abs_error", deviation(cols["abs_error"], np.abs(orc - ref)), EXACT_TOL),
        ("max_abs_error_sigma11", float(report["max_abs_error_sigma11"]),
         # band-edge transient scale of the discretized band
         total / float(report["lambda_cutoff"])),
        ("max_norm_drift", float(report["max_norm_drift"]), NORM_TOL),
        ("method", float(report["method"] != method), 0.0),
    ]


CLI_CHECKS = {
    "evolve": check_evolve,
    "asymptotic": check_asymptotic,
    "dwell": check_dwell,
    "sweep": check_sweep,
    "bosons": check_bosons,
    "fermions": check_fermions,
    "oracle-compare": check_oracle_compare,
}


def check_cli(scenario, out_path):
    cols, manifest, digest_ok = read_output(out_path, scenario["fmt"])
    out = [("manifest_sha256", float(not digest_ok), 0.0)]
    out += CLI_CHECKS[scenario["kind"]](scenario["params"], cols, manifest)
    return out


def _single_particle_orbitals(oracle, pair, res, modes, t):
    """Columns exp(-i H t) e_m for the given modes, by dense eigh."""
    h = oracle.build_single_particle_hamiltonian(pair, res)
    evals, evecs = np.linalg.eigh(h)
    u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    return u[:, list(modes)]


def _boson_pair_counts(phi, n_dots):
    """P(0, 1, 2 bosons in the reservoir) for two bosons in orbitals phi."""
    if phi.shape[1] == 1:
        w_dot = float(np.sum(np.abs(phi[:n_dots, 0]) ** 2))
        both_dot, both_res = w_dot ** 2, (1.0 - w_dot) ** 2
    else:
        def both_in(block):
            a, b = block[:, 0], block[:, 1]
            return float(np.vdot(a, a).real * np.vdot(b, b).real + abs(np.vdot(a, b)) ** 2)
        both_dot, both_res = both_in(phi[:n_dots]), both_in(phi[n_dots:])
    return np.array([both_dot, 1.0 - both_dot - both_res, both_res])


def check_fock(scenario, reduced, oracle, pair, res, n_dots):
    """``reduced`` is a list of (occupations, count_probs, dot_rdm), one per time."""
    case, n = scenario["case"], scenario["n_particles"]
    initial = scenario["initial"]
    out = []
    for k, (t, (occ, probs, rdm)) in enumerate(zip(scenario["times"], reduced)):
        out += [
            (f"sum_probs[{k}]", abs(float(np.sum(probs)) - 1.0), FOCK_TOL),
            (f"sum_occ[{k}]", abs(float(np.sum(occ)) - n), FOCK_TOL),
            (f"rdm_trace[{k}]", abs(float(np.trace(rdm).real) - float(np.sum(occ[:n_dots]))),
             FOCK_TOL),
            (f"rdm_hermitian[{k}]", float(np.abs(rdm - rdm.conj().T).max()), FOCK_TOL),
        ]
        if case == "parallel2":
            continue
        if case == "bose2" and initial[0] == initial[1]:
            orbital = _single_particle_orbitals(oracle, pair, res, initial[:1], t)
            counts = _boson_pair_counts(orbital, n_dots)
            phi = math.sqrt(2.0) * orbital  # two bosons in one orbital: rdm = 2 |phi><phi|
        else:
            phi = _single_particle_orbitals(oracle, pair, res, initial, t)
            if case == "bose2":
                counts = _boson_pair_counts(phi, n_dots)
            else:
                counts = oracle.slater_reservoir_distribution(phi, n_dots)
        block = phi[:n_dots]
        out += [
            (f"count_probs[{k}]", deviation(probs, counts), FOCK_TOL),
            (f"occupations[{k}]", deviation(occ, np.sum(np.abs(phi) ** 2, axis=1)), FOCK_TOL),
            (f"dot_rdm[{k}]", deviation(rdm, block @ block.conj().T), FOCK_TOL),
        ]
    if case == "bose2":
        from darkwells.bosons import emission_distribution, rotate_fock

        law = emission_distribution(rotate_fock(
            initial.count(0), initial.count(1), scenario["model"]["gamma2"],
            eta=scenario["model"]["eta"],
        ))
        want = [float(law.probabilities[m]) for m in range(n + 1)]
        out.append(("emission_law", deviation(reduced[-1][1], want), BOSON_LAW_TOL))
    return out
