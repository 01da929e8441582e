"""Closed-loop client: one fresh interpreter runs one workload's scenarios.

Started by ``run.py``.  It imports ``darkwells.cli``, runs the workload's
fixed warm-up scenarios cold and prints ``READY``; the parent times that as
one set-up sample.  With ``--setup-only`` it stops there.  Otherwise it
cycles through the plan's scenarios, starting each only after the previous
one returned, until ``--seconds`` have passed, then checks every distinct
scenario's outputs and writes a JSON result file.

With ``--trace 1`` every scenario runs twice back to back, once with the
timing wrappers installed and once without (alternating which goes first),
so the per-layer spans and the tracing overhead come from the same run.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

# Only what darkwells.cli loads anyway comes before the READY line, so the
# set-up samples time the program and not the harness.
import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import darkwells.cli as cli  # noqa: E402

_T_IMPORTED = time.perf_counter()

import numpy as np  # noqa: E402


def _fock_model(spec):
    from darkwells.model import ParallelWellPair, WellPair

    if spec["kind"] == "parallel":
        base = WellPair(E1=spec["e1"], E2=spec["e2"], omega1=spec["omega1"],
                        omega2=spec["omega2"], lambda_cutoff=spec["lambda_cutoff"])
        return ParallelWellPair(base=base, yprime=spec["yprime"], U=spec["u"]), base
    pair = WellPair.from_widths(spec["gamma1"], spec["gamma2"], eta=spec["eta"],
                                epsilon=spec["epsilon"])
    return pair, pair


class Workload:
    """Runs scenarios and checks their outputs.

    A scenario with a ``kind`` goes through ``darkwells.cli.main``; one with
    a ``case`` is a many-body run through the public ``darkwells.oracle``
    API (FockSpace, fock_basis_state, evolve_fock, reduced_quantities).
    """

    def __init__(self, workdir):
        self.workdir = workdir
        self.fock_results = {}

    def _paths(self, scenario):
        base = os.path.join(self.workdir, scenario["id"])
        return base + ".ini", base + "." + scenario["fmt"]

    def run(self, scenario):
        """Run one scenario; True when the program reported success."""
        if "case" in scenario:
            return self._run_fock(scenario)
        ini, out = self._paths(scenario)
        argv = [scenario["kind"], "--config", ini, "--out", out, "--format", scenario["fmt"]]
        return cli.main(argv) == 0

    def _run_fock(self, scenario):
        from darkwells import oracle

        model, pair = _fock_model(scenario["model"])
        n_dots = oracle.dot_mode_count(model)
        res = oracle.DiscretizedReservoir.for_pair(pair, scenario["n_levels"])
        space = oracle.FockSpace(n_dots + scenario["n_levels"], scenario["n_particles"],
                                 scenario["statistics"])
        psi0 = oracle.fock_basis_state(space, scenario["initial"])
        states = oracle.evolve_fock(model, res, space, psi0, np.array(scenario["times"]))
        reduced = [oracle.reduced_quantities(space, psi, n_dots) for psi in states]
        self.fock_results[scenario["id"]] = [
            (r.mode_occupations, r.reservoir_count_probs, r.dot_rdm) for r in reduced
        ]
        return True

    def check(self, scenario):
        """(label, deviation, tolerance) triples for a scenario that ran."""
        import checks

        if "case" not in scenario:
            return checks.check_cli(scenario, self._paths(scenario)[1])
        from darkwells import oracle

        model, pair = _fock_model(scenario["model"])
        res = oracle.DiscretizedReservoir.for_pair(pair, scenario["n_levels"])
        return checks.check_fock(scenario, self.fock_results[scenario["id"]], oracle,
                                 pair, res, oracle.dot_mode_count(model))


def _blas_record():
    """BLAS libraries mapped into this process and their thread counts."""
    import ctypes

    record = {"env_threads": {k: os.environ.get(k) for k in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["numpy_blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config layout differs between numpy versions
        record["numpy_blas"] = None
    libs = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if ".so" in line}
    except OSError:
        paths = set()
    for path in sorted(p for p in paths
                       if os.path.basename(p).startswith("lib") and "blas" in p.lower()):
        threads = None
        try:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    threads = int(fn())
                    break
        except OSError:
            pass
        libs[os.path.basename(path)] = threads
    record["libraries"] = libs
    return record


def _loop(wl, scenarios, seconds, tracer):
    """Closed loop until ``seconds`` have passed; per-execution records."""
    records = []
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        scenario = scenarios[k % len(scenarios)]
        passes = [False]
        if tracer is not None:
            passes = [False, True] if k % 2 == 0 else [True, False]
        for traced in passes:
            if traced:
                tracer.scenario = len(records)
                tracer.install(cli, sys.modules.get("darkwells.oracle"))
            t0 = time.perf_counter()
            try:
                ok = wl.run(scenario)
            except (Exception, SystemExit):
                import traceback

                traceback.print_exc(file=sys.stderr)
                ok = False
            latency = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            records.append({"id": scenario["id"], "latency": latency, "ok": ok,
                            "traced": traced})
        k += 1
    return records, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)
    workdir = os.path.dirname(os.path.abspath(args.plan))
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"darkwells imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    wl = Workload(workdir)
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        if not all(wl.run(scenario) for scenario in plan["warmup"]):
            print("warm-up scenario failed", file=sys.stderr)
            return 4
    print("READY", flush=True)
    if args.setup_only:
        return 0
    import platform
    import resource
    import traceback

    import scipy

    import tracing

    scenarios = plan["scenarios"]
    tracer = tracing.Tracer() if args.trace else None
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        records, loop_wall = _loop(wl, scenarios, args.seconds, tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ran = {r["id"] for r in records}
    outcome = {}
    for scenario in scenarios:
        if scenario["id"] not in ran:
            continue
        try:
            triples = wl.check(scenario)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            triples = [("check raised " + type(exc).__name__, float("inf"), 0.0)]
        bad = [label for label, dev, tol in triples if not dev <= tol]
        finite = [dev for _, dev, _ in triples if np.isfinite(dev)]
        outcome[scenario["id"]] = {
            "max_dev": max(finite) if len(finite) == len(triples) else float("inf"),
            "failed_checks": bad,
        }
    result = {
        "records": records,
        "loop_wall_s": loop_wall,
        "rss_kb": rss_kb,
        "checks": outcome,
        "child_import_s": _T_IMPORTED - _T_START,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_record(),
            "darkwells": os.path.dirname(os.path.realpath(cli.__file__)),
        },
    }
    if tracer is not None:
        n_traced = sum(r["traced"] for r in records)
        result["layers"] = tracing.derive(tracer.spans, n_traced)
        plain = sum(r["latency"] for r in records if not r["traced"])
        traced = sum(r["latency"] for r in records if r["traced"])
        result["layers"]["trace.overhead_frac"] = traced / plain - 1.0 if plain else 0.0
        with open(plan["spans_path"], "w") as fh:
            json.dump([s.as_list() for s in tracer.spans], fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
