"""Timing spans around the calls into each darkwells layer.

Traced runs only.  ``Tracer.install`` replaces the module attributes each
layer is called through with wrappers that record a span (name, start,
end, parent span, scenario id, counts); ``uninstall`` puts the originals
back, so untraced scenarios run the unmodified program.  Spans stay in
memory until the run ends.  ``derive`` turns them into per-layer metrics,
with self time taken as a span's duration minus its children's.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# Attribute of darkwells.cli -> span name.
CLI_SPANS = {
    "main": "cli.main",
    "load_config": "cli.parse",
    "build_scenario": "cli.parse",
    "run": "cli.run",
    "render": "cli.render",
    "master_trajectory": "dynamics.master_trajectory",
    "evolve_master": "dynamics.evolve_master",
    "asymptotic_probs": "dynamics.other",
    "dwell_time": "dynamics.other",
    "fit_decay_rate": "dynamics.other",
    "single_particle_trajectory": "oracle.sp",
    "rotate_fock": "bosons.rotate_fock",
    "two_electron_asymptotic": "fermions",
    "two_electron_parallel_asymptotic": "fermions",
    "three_electron_asymptotic": "fermions",
    "branches_to_json": "fermions",
}

# Attribute of darkwells.oracle -> span name.
ORACLE_SPANS = {
    "build_single_particle_hamiltonian": "oracle.sp.build",
    "evolve_exact": "oracle.evolve_exact",
    "chebyshev_propagate": "oracle.chebyshev",
    "FockSpace": "oracle.fock.enumerate",
    "fock_basis_state": "oracle.fock.basis_state",
    "evolve_fock": "oracle.fock.evolve",
    "build_fock_hamiltonian": "oracle.fock.build",
    "fock_spectral_bounds": "oracle.fock.bounds",
    "reduced_quantities": "oracle.fock.reduce",
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _info_main(args, kwargs, result):
    return {"rc": result}


def _info_run(args, kwargs, result):
    return {"bytes": sum(len(data) for data in result.files.values())}


def _info_master_trajectory(args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 2, "times"))}


def _info_rotate_fock(args, kwargs, result):
    return {"quanta": int(_arg(args, kwargs, 0, "N1")) + int(_arg(args, kwargs, 1, "N2"))}


def _info_sp(args, kwargs, result):
    times = _arg(args, kwargs, 2, "times")
    return {"level_points": int(_arg(args, kwargs, 3, "n_levels")) * len(times)}


def _info_chebyshev(args, kwargs, result):
    times = np.asarray(_arg(args, kwargs, 2, "times"), dtype=float)
    steps = np.diff(np.concatenate(([0.0], times)))
    return {"intervals": int(np.count_nonzero(steps > 0.0))}


def _info_fock_space(args, kwargs, result):
    return {"dim": result.size}


def _info_fock_build(args, kwargs, result):
    return {"nnz": int(result.nnz)}


_INFO = {
    "cli.main": _info_main,
    "cli.run": _info_run,
    "dynamics.master_trajectory": _info_master_trajectory,
    "bosons.rotate_fock": _info_rotate_fock,
    "oracle.sp": _info_sp,
    "oracle.chebyshev": _info_chebyshev,
    "oracle.fock.enumerate": _info_fock_space,
    "oracle.fock.build": _info_fock_build,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "scenario", "info")

    def __init__(self, name, parent, scenario):
        self.name = name
        self.parent = parent
        self.scenario = scenario
        self.start = self.end = 0.0
        self.info = {}

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.scenario, self.info]


class Tracer:
    """Span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.scenario = None
        self._stack = []
        self._saved = []

    def _wrap(self, module, attr, name):
        original = getattr(module, attr, None)
        if original is None:
            return
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.scenario)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.info["raised"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info.update(info(args, kwargs, result))
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def _wrap_matvec(self, module, attr, vectors_arg):
        """Count sparse matrix-vector products into the innermost open span.

        Bytes are computed from the sizes of the arrays passed to the
        kernel (index, values, input and output vectors), not measured.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        spans, stack = self.spans, self._stack

        def counted(*args):
            result = original(*args)
            if stack:
                info = spans[stack[-1]].info
                info["matvecs"] = info.get("matvecs", 0) + (
                    int(args[2]) if vectors_arg else 1
                )
                info["matvec_bytes"] = info.get("matvec_bytes", 0) + sum(
                    a.nbytes for a in args if isinstance(a, np.ndarray)
                )
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, counted)

    def install(self, cli, oracle):
        for attr, name in CLI_SPANS.items():
            self._wrap(cli, attr, name)
        if oracle is not None:
            for attr, name in ORACLE_SPANS.items():
                self._wrap(oracle, attr, name)
        try:
            from scipy.sparse import _sparsetools
        except ImportError:
            return
        self._wrap_matvec(_sparsetools, "csr_matvec", vectors_arg=False)
        self._wrap_matvec(_sparsetools, "csr_matvecs", vectors_arg=True)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def derive(spans, n_scenarios):
    """Per-layer metrics from the spans of ``n_scenarios`` traced scenarios.

    Times and counts are per traced scenario, except ``cli.calls`` and
    ``cli.errors``, which are totals over the traced pass.
    """
    child = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    total = defaultdict(float)
    for i, span in enumerate(spans):
        dur = span.end - span.start
        name = span.name
        parent = spans[span.parent].name if span.parent >= 0 else None
        if name == "oracle.chebyshev" or name == "oracle.evolve_exact":
            name = name + (".fock" if parent == "oracle.fock.evolve" else ".sp")
        total[name + ":calls"] += 1
        total[name + ":ms"] += 1e3 * dur
        total[name + ":self_ms"] += 1e3 * (dur - child[i])
        for key, value in span.info.items():
            if key in ("rc", "raised"):
                total[name + ":errors"] += value != 0
            else:
                total[name + ":" + key] += value
    n = max(1, n_scenarios)

    def per(key):
        return total[key] / n

    def ratio(num, den, scale):
        return scale * total[num] / total[den] if total[den] else 0.0

    return {
        "cli.calls": total["cli.main:calls"],
        "cli.parse_ms": per("cli.parse:ms"),
        "cli.render_self_ms": per("cli.render:self_ms"),
        "cli.write_ms": per("cli.run:self_ms"),
        "cli.bytes_written": per("cli.run:bytes"),
        "cli.errors": total["cli.main:errors"],
        "dynamics.master_trajectory.calls": per("dynamics.master_trajectory:calls"),
        "dynamics.master_trajectory.points": per("dynamics.master_trajectory:points"),
        "dynamics.master_trajectory.ms": per("dynamics.master_trajectory:ms"),
        "dynamics.us_per_point": ratio(
            "dynamics.master_trajectory:ms", "dynamics.master_trajectory:points", 1e3
        ),
        "dynamics.evolve_master.calls": per("dynamics.evolve_master:calls"),
        "dynamics.evolve_master.ms": per("dynamics.evolve_master:ms"),
        "dynamics.other_ms": per("dynamics.other:ms"),
        "bosons.rotate_fock.ms": per("bosons.rotate_fock:ms"),
        "bosons.quanta": per("bosons.rotate_fock:quanta"),
        "fermions.ms": per("fermions:ms"),
        "oracle.sp.calls.dense": per("oracle.evolve_exact.sp:calls"),
        "oracle.sp.calls.chebyshev": per("oracle.chebyshev.sp:calls"),
        "oracle.sp.build_ms": per("oracle.sp.build:ms"),
        "oracle.sp.dense_ms": per("oracle.evolve_exact.sp:ms"),
        "oracle.sp.chebyshev_ms": per("oracle.chebyshev.sp:ms"),
        "oracle.sp.intervals": per("oracle.chebyshev.sp:intervals"),
        "oracle.sp.matvecs": per("oracle.chebyshev.sp:matvecs"),
        "oracle.sp.us_per_level_point": ratio("oracle.sp:ms", "oracle.sp:level_points", 1e3),
        "oracle.fock.enumerate_ms": per("oracle.fock.enumerate:ms"),
        "oracle.fock.dim": per("oracle.fock.enumerate:dim"),
        "oracle.fock.nnz": per("oracle.fock.build:nnz"),
        "oracle.fock.build_ms": per("oracle.fock.build:ms"),
        "oracle.fock.build_ns_per_nnz": ratio("oracle.fock.build:ms", "oracle.fock.build:nnz", 1e6),
        "oracle.fock.evolve_ms": per("oracle.fock.evolve:ms") - per("oracle.fock.build:ms"),
        "oracle.fock.matvecs": per("oracle.chebyshev.fock:matvecs"),
        "oracle.fock.matvec_bytes_computed": per("oracle.chebyshev.fock:matvec_bytes"),
        "oracle.fock.reduce_ms": per("oracle.fock.reduce:ms"),
    }
