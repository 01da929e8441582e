"""Layered benchmark of darkwells: whole scenarios and each layer.

    python3 perfbench/run.py --workload wideband --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Workloads (why each exists is recorded in BENCHMARK.json):

* ``wideband`` - seeded analytic CLI scenarios through ``darkwells.cli.main``;
* ``oracle``   - seeded ``oracle-compare`` runs through ``darkwells.cli.main``,
  interleaved with many-body runs through the public ``darkwells.oracle`` API
  (FockSpace, fock_basis_state, evolve_fock, reduced_quantities).

Load model: a closed loop with one client in one fresh child interpreter;
the next scenario starts only after the previous one returned.  The child's
BLAS runs single-threaded (set explicitly, recorded in the result file).
Timed scenarios start after the workload's fixed warm-up scenarios run
cold; the time from interpreter start to the end of that warm-up is one
set-up sample.
``setup_s`` is the median of several such samples taken in fresh
interpreters.  Every output of every distinct scenario is checked against
an independent reference (checks.py).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from timing wrappers installed at run time (tracing.py).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit, as declared in
BENCHMARK.json).  Result records go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CLIENT = os.path.join(HERE, "client.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SETUP_SAMPLES = 5
IMPORT_PROBES = 3
BLAS_THREADS = 1
# Latency percentile reported as latency_tail_ms, chosen per workload so a
# run of the default length leaves at least ten samples beyond it; a run
# with fewer samples steps down the ladder and says so.
TAIL_PERCENTILE = {"wideband": 98, "oracle": 80}
PERCENTILE_LADDER = (99, 98, 95, 90, 80, 75, 67, 60, 50)
# The child may overrun --seconds by its last scenario and the checks.
CHILD_GRACE_S = 90.0
READY_TIMEOUT_S = 60.0

_PROBE = (
    "import sys, time\n"
    "before = set(sys.modules)\n"
    "t0 = time.perf_counter()\n"
    "import darkwells.cli\n"
    "t1 = time.perf_counter()\n"
    "loaded = set(sys.modules) - before\n"
    "scipy = any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
    "print((t1 - t0) * 1e3, len(loaded), int(scipy))\n"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def declared_metrics():
    """(end_to_end, per_layer) as {name: unit} from BENCHMARK.json."""
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"  # same dict and set layout in every client
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def calibrate_ms():
    """Median time of a fixed pure-Python loop: how fast the box is right now."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def import_probe(env):
    """import darkwells.cli in fresh interpreters: ms (median), modules, scipy."""
    rows = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=READY_TIMEOUT_S)
        if out.returncode != 0:
            raise BenchError(f"import probe failed:\n{out.stderr}")
        ms, modules, scipy = out.stdout.split()
        rows.append((float(ms), int(modules), int(scipy)))
    return {
        "import.cli_ms": statistics.median(r[0] for r in rows),
        "import.modules_loaded": rows[-1][1],
        "import.scipy_loaded": rows[-1][2],
    }


class _Child:
    """One client interpreter; ``setup_s`` is start to READY."""

    def __init__(self, plan_path, env, extra):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, CLIENT, "--plan", plan_path, *extra],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - t0
            if line.strip() != "READY":
                raise BenchError("client did not get ready (see its stderr)")
        except BaseException:
            self.stop()
            raise

    def wait(self, timeout):
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"client still running after {timeout:.0f} s") from None
        finally:
            self.stop()
        if code != 0:
            raise BenchError(f"client exited with code {code}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    pos = p / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n, preferred):
    """Highest ladder percentile at or below ``preferred`` with >= 10 samples beyond."""
    for p in PERCENTILE_LADDER:
        if p <= preferred and n * (1.0 - p / 100.0) >= 10.0:
            return p
    return PERCENTILE_LADDER[-1]


def _write_plan(workdir, workload, seed):
    scenarios = workloads.generate(workload, seed)
    warmup = workloads.WARMUP[workload]
    for scenario in [*warmup, *scenarios]:
        if "ini" in scenario:
            with open(os.path.join(workdir, scenario["id"] + ".ini"), "w") as fh:
                fh.write(scenario["ini"])
    plan = {
        "workload": workload,
        "src": SRC,
        "warmup": warmup,
        "scenarios": scenarios,
        "spans_path": os.path.join(OUT, f"spans-{workload}-seed{seed}.json"),
    }
    path = os.path.join(workdir, "plan.json")
    with open(path, "w") as fh:
        json.dump(plan, fh)
    return path


def run_workload(workload, seed, seconds, trace):
    """Run one workload and return its result record; raises BenchError."""
    if not os.path.isfile(os.path.join(SRC, "darkwells", "cli.py")):
        raise BenchError(f"no darkwells source under {SRC}")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        plan_path = _write_plan(workdir, workload, seed)
        env = _child_env()
        calib_ms = calibrate_ms()
        probe = import_probe(env) if trace else {}
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            child = _Child(plan_path, env, ["--setup-only"])
            setups.append(child.setup_s)
            child.wait(READY_TIMEOUT_S)
        result_path = os.path.join(workdir, "result.json")
        child = _Child(plan_path, env, ["--result", result_path, "--seconds", str(seconds),
                                        "--trace", str(int(trace))])
        setups.append(child.setup_s)
        child.wait(seconds + CHILD_GRACE_S)
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _summarize(workload, seed, seconds, trace, result, setups, calib_ms, probe)


def _summarize(workload, seed, seconds, trace, result, setups, calib_ms, probe):
    records = result["records"]
    checked = result["checks"]
    failed = sum(1 for r in records if not r["ok"] or checked[r["id"]]["failed_checks"])
    attempted = len(records)
    # A check that could not be evaluated reads as the largest float, which
    # stays valid JSON.
    max_err = min(sys.float_info.max,
                  max((c["max_dev"] for c in checked.values()), default=0.0))
    plain = sorted(r["latency"] for r in records if not r["traced"])
    if not plain:
        raise BenchError("no scenario completed")
    p_tail = tail_percentile(len(plain), TAIL_PERCENTILE[workload])
    tail_value = percentile(plain, p_tail)
    beyond = sum(1 for v in plain if v > tail_value)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "throughput_sps": len(plain) / result["loop_wall_s"],
        "latency_p50_ms": 1e3 * statistics.median(plain),
        "latency_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": result["rss_kb"] / 1024.0,
    }
    check_metrics = {
        "check.failed_frac": failed / attempted,
        "check.max_err": max_err,
    }
    layers = {}
    if trace:
        layers = dict(result["layers"])
        layers.update(probe)
        layers.update(check_metrics)
        layers["machine.calib_ms"] = calib_ms
    bad = {sid: c["failed_checks"] for sid, c in checked.items() if c["failed_checks"]}
    by_scenario = {}
    for r in records:
        if not r["traced"]:
            by_scenario.setdefault(r["id"], []).append(r["latency"])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": git_commit(),
        "nproc": _nproc(),
        "blas_threads": BLAS_THREADS,
        "env": result["env"],
        "machine.calib_ms": calib_ms,
        "setup_samples_s": setups,
        "child_import_s": result["child_import_s"],
        "latency_tail_percentile": p_tail,
        "latency_samples": len(plain),
        "latency_samples_beyond_tail": beyond,
        "scenarios_distinct": len(checked),
        "latency_median_by_scenario_s": {
            sid: statistics.median(v) for sid, v in sorted(by_scenario.items())
        },
        "attempted": attempted,
        "failed": failed,
        "failed_checks": bad,
        "end_to_end": end_to_end if not trace else {},
        "check": check_metrics,
        "per_layer": layers,
    }
    return record


def _emit(record, declared):
    """Human-readable lines for one workload, then the metrics object."""
    e2e_units, layer_units = declared
    wl = record["workload"]
    if record["trace"]:
        values, units = record["per_layer"], layer_units
    else:
        values, units = record["end_to_end"], e2e_units
    if set(values) != set(units):
        raise BenchError(
            f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json"
        )
    for name, unit in units.items():
        print(f"{wl:10s} {name:36s} {values[name]:.6g} {unit}")
    if not record["trace"]:
        print(f"{wl:10s} {'failed_frac':36s} {record['check']['check.failed_frac']:.6g} ratio")
        print(f"{wl:10s} {'max_err':36s} {record['check']['check.max_err']:.6g} abs")
        print(f"{wl:10s} latency_tail_ms is p{record['latency_tail_percentile']} of "
              f"{record['latency_samples']} samples "
              f"({record['latency_samples_beyond_tail']} beyond it)")
    for sid, labels in sorted(record["failed_checks"].items()):
        print(f"{wl:10s} FAILED {sid}: {', '.join(labels)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _save(record):
    name = f"result-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        declared = declared_metrics()
        seconds = args.seconds
        if seconds is None:
            with open(BENCHMARK_JSON) as fh:
                seconds = json.load(fh)["run_seconds"]
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(wl, args.seed, seconds, args.trace) for wl in names]
        lines = {}
        for record in records:
            _save(record)
            lines[record["workload"]] = _emit(record, declared)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if len(records) == 1:
        summary["metrics"] = lines[records[0]["workload"]]
    else:
        summary["workloads"] = lines
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
