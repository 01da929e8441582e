"""Seeded input generator for the three benchmark workloads.

``generate(workload, seed)`` returns the list of scenarios one run cycles
through.  CLI scenarios carry the INI text the program reads plus the same
parameters as a record (``params``) for the independent checks; Fock
scenarios are parameter records only.  Only ``random.Random(seed)`` is used,
so the same seed gives byte-identical inputs.

Every scenario is valid under the CLI contract of the package: trapped
fractions only at epsilon = 0, dwell times and decay fits only at
epsilon != 0, normalized initial amplitudes, oracle times below half the
recurrence time.  The seed draws the physics freely.  What sets the cost
of a scenario (kind, grid points, reservoir levels, Fock dimension) is
drawn by stratified sampling or sits on fixed grids, and the scenario
order interleaves cheap and expensive ones, so every seed and every prefix
of the cycle carries nearly the same work.
"""

from __future__ import annotations

import cmath
import json
import math
import random

WORKLOADS = ("wideband", "oracle")

# Scenarios per block in the wideband mix: every block holds this many of
# each kind, so any prefix of the cycle is balanced to within one block.
# Half the mix is evolve, so the median latency falls inside the evolve
# cost range rather than in the gap between cheap and expensive kinds.
_WIDEBAND_BLOCK = (
    ["evolve"] * 10 + ["sweep"] * 5
    + ["asymptotic", "dwell", "bosons", "bosons", "fermions"]
)
_WIDEBAND_BLOCKS = 8
_ORACLE_SCENARIOS = 24
_FOCK_CASES = ("fermi2", "bose2", "fermi3", "parallel2")
FOCK_DIM_RANGE = (1.0e4, 4.0e4)
PARALLEL_CUTOFF = 25.0

# Fixed warm-up scenarios: run cold once per interpreter, timed into setup_s.
WARMUP = {
    "wideband": [
        {"id": "warmup", "kind": "evolve", "fmt": "csv",
         "ini": "[model]\ngamma1 = 1.0\ny = 2.0\nepsilon = 0.25\n"
                "[grid]\nt_max = 10.0\nn_points = 200\n"},
    ],
    "oracle": [
        {"id": "warmup", "kind": "oracle-compare", "fmt": "csv",
         "ini": "[model]\ngamma1 = 1.0\ny = 2.0\n"
                "[grid]\nn_points = 100\n[oracle]\nn_levels = 400\n"},
        {"id": "warmup-fock", "case": "fermi2", "statistics": "fermi",
         "n_particles": 2, "n_levels": 40, "initial": [0, 1],
         "model": {"kind": "widths", "gamma1": 1.0, "gamma2": 1.0,
                   "epsilon": 0.0, "eta": 1},
         "times": [2.0, 4.0]},
    ],
}


def _strata(rng, k, lo, hi):
    """k values, one uniform draw in each of k equal slices of [lo, hi]."""
    width = (hi - lo) / k
    values = [lo + width * (i + rng.random()) for i in range(k)]
    rng.shuffle(values)
    return values


def _log_strata(rng, k, lo, hi):
    return [math.exp(v) for v in _strata(rng, k, math.log(lo), math.log(hi))]


def _even(x):
    return 2 * int(round(x / 2.0))


def _quarter(x):
    """Nearest positive multiple of 1/4, exact in binary and as a Fraction."""
    return max(0.25, round(4.0 * x) / 4.0)


def _amplitudes(rng):
    theta = rng.uniform(0.0, math.pi / 2.0)
    phi = rng.uniform(-math.pi, math.pi)
    return complex(math.cos(theta), 0.0), math.sin(theta) * cmath.exp(1j * phi)


def _fmt_complex(z):
    return f"({z.real!r}{z.imag:+.17g}j)"


def _ini(sections):
    """Render {section: {key: value}} as INI text with round-trip floats."""
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        for key, value in items.items():
            if isinstance(value, complex):
                value = _fmt_complex(value)
            elif isinstance(value, float):
                value = repr(value)
            elif isinstance(value, (list, tuple)):
                value = ", ".join(repr(float(v)) for v in value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _detuning(rng, scale):
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.6) * scale


class _Draws:
    """Stratified draws for one named quantity, consumed one at a time."""

    def __init__(self, rng, k):
        self._rng = rng
        self._k = k
        self._pools = {}

    def take(self, name, lo, hi, log=False, share=1):
        """Next draw; a quantity used by 1/share of the scenarios gets k/share strata."""
        pool = self._pools.get(name)
        if not pool:
            make = _log_strata if log else _strata
            pool = self._pools[name] = make(self._rng, self._k // share, lo, hi)
        return pool.pop()


def _wideband_evolve(rng, draws, i):
    gamma1 = draws.take("ev.gamma1", 0.5, 2.0, log=True)
    y = draws.take("ev.y", 0.25, 4.0, log=True)
    eps = 0.0 if i % 2 else _detuning(rng, gamma1 * (1.0 + y))
    eta = rng.choice((1, -1))
    b1, b2 = _amplitudes(rng)
    n_points = int(round(draws.take("ev.points", 100, 400)))
    t_max = draws.take("ev.tmax", 6.0, 20.0) / gamma1
    params = {"gamma1": gamma1, "y": y, "epsilon": eps, "eta": eta,
              "b1": [b1.real, b1.imag], "b2": [b2.real, b2.imag],
              "t_max": t_max, "n_points": n_points}
    ini = _ini({
        "model": {"gamma1": gamma1, "y": y, "epsilon": eps, "eta": eta},
        "initial": {"b1": b1, "b2": b2},
        "grid": {"t_max": t_max, "n_points": n_points},
    })
    return ini, params


_SWEEP_REPORTS = ("fitted_tau", "sigma11_asymptotic", "fitted_rate", "p_trapped")


def _wideband_sweep(rng, draws, i):
    report = _SWEEP_REPORTS[i % len(_SWEEP_REPORTS)]
    fitted = report.startswith("fitted")
    n_total = int(round(draws.take("sw.points." + report, 16, 64, share=4)))
    gamma1 = draws.take("sw.gamma1", 0.5, 2.0, log=True)
    eta = rng.choice((1, -1))
    model = {"gamma1": gamma1, "eta": eta}
    two_axes = rng.random() < 0.25
    if fitted:
        axis = rng.choice(("epsilon", "y"))
        other = "y" if axis == "epsilon" else "epsilon"
    else:
        axis = rng.choice(("y", "gamma2"))
        other = "gamma1"
    n1, n2 = (n_total, 1)
    if two_axes:
        n2 = rng.choice((2, 4))
        n1 = max(4, n_total // n2)
    grids = {}
    for name, count in ((axis, n1), (other, n2 if two_axes else 0)):
        if not count:
            continue
        if name == "epsilon":
            values = [v * rng.choice((-1.0, 1.0)) for v in
                      sorted(_strata(rng, count, 0.1, 0.6))]
        elif name in ("y", "gamma2"):
            values = sorted(_log_strata(rng, count, 0.25, 4.0))
        else:
            values = sorted(_log_strata(rng, count, 0.5, 2.0))
        grids[name] = values
    if fitted and "y" not in grids:
        model["y"] = draws.take("sw.y", 0.25, 4.0, log=True, share=4)
    if fitted and "epsilon" not in grids:
        model["epsilon"] = _detuning(rng, 1.0)
    if not fitted:
        model["epsilon"] = 0.0
    sweep = {"axis": axis, "values": grids[axis], "report": report}
    if two_axes:
        sweep["axis2"] = other
        sweep["values2"] = grids[other]
    params = dict(model)
    params.update({"report": report, "axis": axis, "values": grids[axis],
                   "axis2": sweep.get("axis2"), "values2": sweep.get("values2")})
    return _ini({"model": model, "sweep": sweep}), params


def _wideband_asymptotic(rng, draws, i):
    gamma1 = draws.take("as.gamma1", 0.5, 2.0, log=True)
    y = draws.take("as.y", 0.25, 4.0, log=True)
    eta = rng.choice((1, -1))
    b1, b2 = _amplitudes(rng)
    params = {"gamma1": gamma1, "y": y, "eta": eta,
              "b1": [b1.real, b1.imag], "b2": [b2.real, b2.imag]}
    ini = _ini({"model": {"gamma1": gamma1, "y": y, "epsilon": 0.0, "eta": eta},
                "initial": {"b1": b1, "b2": b2}})
    return ini, params


def _wideband_dwell(rng, draws, i):
    gamma1 = draws.take("dw.gamma1", 0.5, 2.0, log=True)
    y = draws.take("dw.y", 0.25, 4.0, log=True)
    eps = _detuning(rng, gamma1)
    eta = rng.choice((1, -1))
    params = {"gamma1": gamma1, "y": y, "epsilon": eps, "eta": eta}
    return _ini({"model": {"gamma1": gamma1, "y": y, "epsilon": eps, "eta": eta}}), params


_BOSON_LAWS = ("emission", "equal_fill", "emission", "one_well", "emission",
               "retained_split")


def _wideband_bosons(rng, draws, i):
    law = _BOSON_LAWS[i % len(_BOSON_LAWS)]
    y = _quarter(draws.take("bo.y", 0.25, 4.0, log=True))
    eta = rng.choice((1, -1))
    if law == "emission":
        n1 = int(round(draws.take("bo.n1", 1, 30, share=2)))
        n2 = int(round(draws.take("bo.n2", 0, 30, share=2)))
        section = {"law": law, "n1": n1, "n2": n2, "y": y, "eta": eta}
    elif law == "equal_fill":
        section = {"law": law, "n": int(round(draws.take("bo.n", 1, 30, share=2)))}
    elif law == "one_well":
        section = {"law": law, "n": int(round(draws.take("bo.n", 1, 30, share=2))), "y": y}
    else:
        section = {"law": law, "n_retained": int(round(draws.take("bo.n", 1, 30, share=2))),
                   "y": y}
    return _ini({"bosons": section}), dict(section)


_FERMION_OPS = ("two_electron", "two_electron_parallel", "three_electron")


def _wideband_fermions(rng, draws, i):
    op = _FERMION_OPS[i % len(_FERMION_OPS)]
    y = _quarter(draws.take("fe.y", 0.25, 4.0, log=True))
    eta = rng.choice((1, -1))
    if op == "two_electron":
        section = {"fermions": {"op": op, "y": y, "eta": eta}}
        params = {"op": op, "y": y, "eta": eta}
    else:
        eps = 0.0
        u = rng.uniform(0.5, 2.0)
        if op == "two_electron_parallel" and rng.random() < 0.5:
            eps = -u  # E2 = E1 + U: the pair resonance
        yprime = rng.uniform(0.5, 1.5)
        model = {"gamma1": 1.0, "y": y, "epsilon": eps, "eta": eta,
                 "yprime": yprime, "u": u}
        section = {"fermions": {"op": op}, "model": model}
        params = {"op": op, **model}
    return _ini(section), params


_WIDEBAND_MAKERS = {
    "evolve": _wideband_evolve,
    "sweep": _wideband_sweep,
    "asymptotic": _wideband_asymptotic,
    "dwell": _wideband_dwell,
    "bosons": _wideband_bosons,
    "fermions": _wideband_fermions,
}


def _wideband(rng):
    counts = {kind: _WIDEBAND_BLOCK.count(kind) * _WIDEBAND_BLOCKS
              for kind in _WIDEBAND_MAKERS}
    draws = {kind: _Draws(rng, count) for kind, count in counts.items()}
    seen = dict.fromkeys(counts, 0)
    scenarios = []
    for block in range(_WIDEBAND_BLOCKS):
        kinds = list(_WIDEBAND_BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            ini, params = _WIDEBAND_MAKERS[kind](rng, draws[kind], seen[kind])
            fmt = "json" if (seen[kind] + block) % 2 else "csv"
            seen[kind] += 1
            scenarios.append({"id": f"w{len(scenarios):03d}", "kind": kind,
                              "fmt": fmt, "ini": ini, "params": params})
    return scenarios


def _oracle(rng):
    # Work per scenario is set by n_levels, n_points and t_max * (gamma1 +
    # gamma2) (the Chebyshev degree); those sit on fixed grids, visited in
    # a stride order so every prefix of the cycle mixes small and large.
    # The seed draws the physics: widths, detuning, sign, initial state.
    half = _ORACLE_SCENARIOS // 2
    stride = 5  # coprime with half
    scenarios = []
    for i in range(_ORACLE_SCENARIOS):
        k = (i // 2) * stride % half
        if i % 2 == 0:
            n_levels = _even(400 + 800 * k / (half - 1))
        else:
            n_levels = _even(2000 + 4000 * k / (half - 1))
        n_points = int(round(100 + 200 * ((k * 7 + i % 2) % half) / (half - 1)))
        gamma1 = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        y = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        eps = 0.0 if i % 4 < 2 else _detuning(rng, gamma1 * (1.0 + y))
        eta = rng.choice((1, -1))
        b1, b2 = _amplitudes(rng)
        t_max = 6.0 / (gamma1 * (1.0 + y))
        params = {"gamma1": gamma1, "y": y, "epsilon": eps, "eta": eta,
                  "b1": [b1.real, b1.imag], "b2": [b2.real, b2.imag],
                  "t_max": t_max, "n_points": n_points, "n_levels": n_levels}
        ini = _ini({
            "model": {"gamma1": gamma1, "y": y, "epsilon": eps, "eta": eta},
            "initial": {"b1": b1, "b2": b2},
            "grid": {"t_max": t_max, "n_points": n_points},
            "oracle": {"n_levels": n_levels},
        })
        scenarios.append({"id": f"o{i:03d}", "kind": "oracle-compare",
                          "fmt": "json" if i % 3 == 0 else "csv",
                          "ini": ini, "params": params})
    return scenarios


def fock_dim(case, n_levels):
    """Fock-space dimension of a case on ``n_levels`` reservoir levels."""
    if case == "fermi2":
        return math.comb(2 + n_levels, 2)
    if case == "bose2":
        return math.comb(3 + n_levels, 2)
    if case == "fermi3":
        return math.comb(2 + n_levels, 3)
    return math.comb(4 + n_levels, 2)


def _levels_for_dim(case, dim):
    n = 10
    while fock_dim(case, n + 2) <= dim:
        n += 2
    return n


def _fock_case(rng, case, dim, index):
    n_levels = _levels_for_dim(case, dim)
    y = _quarter(rng.uniform(0.25, 4.0))
    eta = rng.choice((1, -1))
    if case == "parallel2":
        u = rng.uniform(1.0, 3.0)
        e2 = u if rng.random() < 0.5 else u + rng.uniform(4.0, 8.0)
        omega = 1.0 / math.sqrt(2.0 * math.pi)
        # A fixed band keeps the cost independent of the detuning drawn.
        model = {"kind": "parallel", "e1": 0.0, "e2": e2, "omega1": omega,
                 "omega2": eta * omega, "yprime": rng.uniform(0.5, 1.5), "u": u,
                 "lambda_cutoff": PARALLEL_CUTOFF}
        total = 2.0
        initial = [0, 1]
        n_particles, statistics = 2, "fermi"
    else:
        model = {"kind": "widths", "gamma1": 1.0, "gamma2": y, "epsilon": 0.0,
                 "eta": eta}
        total = 1.0 + y
        n_particles = 3 if case == "fermi3" else 2
        statistics = "bose" if case == "bose2" else "fermi"
        if case == "fermi3":
            initial = [0, 1, 2 + rng.randrange(n_levels)]
        elif case == "bose2" and rng.random() < 0.3:
            initial = [0, 0]
        else:
            initial = [0, 1]
    # Two long intervals, kept below half the recurrence time
    # pi n / (2 cutoff) of the band.  With the default cutoff
    # 20 (gamma1 + gamma2) the Chebyshev degree does not depend on y.
    cutoff = PARALLEL_CUTOFF if case == "parallel2" else 20.0 * total
    t_end = min(8.0 / total, 0.9 * math.pi * n_levels / (2.0 * cutoff))
    return {"id": f"f{index:03d}", "case": case, "statistics": statistics,
            "n_particles": n_particles, "n_levels": n_levels,
            "initial": initial, "model": model, "times": [0.5 * t_end, t_end]}


def _fock(rng):
    # Sizes sit on a fixed log grid, crossed with the cases as a Latin
    # square: every round of four holds each case once and each size once,
    # so every seed and every prefix of the cycle carries the same work.
    # The seed draws the physics (widths, signs, interaction, start state).
    lo, hi = FOCK_DIM_RANGE
    n = len(_FOCK_CASES)
    sizes = [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]
    scenarios = []
    for r in range(n):
        cases = list(range(n))
        rng.shuffle(cases)
        for c in cases:
            dim = sizes[(c + r) % n]
            scenarios.append(_fock_case(rng, _FOCK_CASES[c], dim, len(scenarios)))
    return scenarios


def _oracle_mix(rng):
    # Three single-particle runs to two Fock runs, spread evenly through
    # the cycle: the oracle-compare runs stay well under a second each, the
    # Fock runs take up to about two.
    single, fock = _oracle(rng), _fock(rng)
    scenarios = []
    while single or fock:
        for source in (single, fock, single, single, fock):
            if source:
                scenarios.append(source.pop(0))
    return scenarios


def generate(workload, seed):
    """The scenario cycle of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "wideband":
        return _wideband(rng)
    if workload == "oracle":
        return _oracle_mix(rng)
    raise ValueError(f"unknown workload {workload!r}")


def serialize(scenarios):
    """Canonical bytes of a scenario list (what the self-test compares)."""
    return json.dumps(scenarios, sort_keys=True, separators=(",", ":")).encode()
