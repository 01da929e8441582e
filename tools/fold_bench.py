"""Fold perfbench result records into one checked-in BENCH_<n>.json.

    python3 tools/fold_bench.py --out BENCH_1.json perfbench/out/result-*.json

Each ``perfbench/out/result-<workload>-seed<N>-trace<T>.json`` that
``perfbench/run.py`` writes is one run of one commit.  This script groups
the given files by commit (in the order the files first name each commit)
and workload, and writes:

* per commit: the machine (core count, BLAS threads and libraries, Python,
  numpy and scipy versions, the calibration loop's time) and, per
  workload, every run's end-to-end metrics (``--trace 0``) or per-layer
  metrics (``--trace 1``), the median and quartiles of each end-to-end
  metric, and the median of each per-layer metric;
* with exactly two commits, the runs of the second paired with the first
  by workload and seed, and per end-to-end metric how many pairs the
  second wins (the direction and the bound come from ``BENCHMARK.json``),
  the relative change of the paired medians, the bound, the first
  commit's relative interquartile range, and a no-regression verdict:
  ``regression`` when the second median is worse than the first by more
  than the bound; otherwise ``unresolved`` when the first commit's
  interquartile range is wider than the bound and not every run of the
  second beats every run of the first; otherwise ``within_bound``.

The output is written with sorted keys, so the same inputs give the same
bytes.  Two files holding the same commit, workload, seed and trace are
refused (exit 2, naming both).  The script reads nothing but its arguments and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _machine(records):
    first = records[0]
    blas = first["env"]["blas"]
    return {
        "nproc": first["nproc"],
        "blas_threads": first["blas_threads"],
        "blas": {"numpy": blas.get("numpy_blas"), "libraries": blas.get("libraries")},
        "python": first["env"]["python"],
        "numpy": first["env"]["numpy"],
        "scipy": first["env"]["scipy"],
        "calib_ms": _quartiles([r["machine.calib_ms"] for r in records]),
    }


def _run(record):
    run = {
        "seed": record["seed"],
        "trace": record["trace"],
        "seconds": record["seconds"],
        "attempted": record["attempted"],
        "failed": record["failed"],
    }
    if record["trace"]:
        run["per_layer"] = record["per_layer"]
    else:
        run["end_to_end"] = record["end_to_end"]
        run["latency_tail_percentile"] = record["latency_tail_percentile"]
        run["latency_samples"] = record["latency_samples"]
    return run


def _workload(records):
    plain = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    out = {"runs": [_run(r) for r in sorted(records, key=lambda r: (r["trace"], r["seed"]))]}
    if plain:
        out["end_to_end"] = {
            name: _quartiles([r["end_to_end"][name] for r in plain])
            for name in plain[0]["end_to_end"]
        }
    if traced:
        out["per_layer"] = {
            name: statistics.median(r["per_layer"][name] for r in traced)
            for name in traced[0]["per_layer"]
        }
    return out


def _verdict(parent, change, sign, bound):
    """The no-regression reading of one metric's paired runs (see the module doc)."""
    before, after = _quartiles(parent), _quartiles(change)
    change_rel = (after["median"] - before["median"]) / before["median"]
    iqr_rel = (before["q3"] - before["q1"]) / before["median"]
    if -sign * change_rel > bound:
        verdict = "regression"
    elif iqr_rel > bound and not all(sign * (b - a) > 0.0 for a in parent for b in change):
        verdict = "unresolved"
    else:
        verdict = "within_bound"
    return {"median_change": change_rel, "bound": bound, "parent_iqr": iqr_rel, "verdict": verdict}


def _pairs(first, second, metrics):
    """Second commit against the first, run by run, on shared (workload, seed)."""
    out = {}
    for workload in sorted(set(first) & set(second)):
        runs_a = {r["seed"]: r for r in first[workload] if not r["trace"]}
        runs_b = {r["seed"]: r for r in second[workload] if not r["trace"]}
        seeds = sorted(set(runs_a) & set(runs_b))
        if not seeds:
            continue
        paired = {}
        for name, declared in metrics.items():
            pairs = [[s, runs_a[s]["end_to_end"][name], runs_b[s]["end_to_end"][name]]
                     for s in seeds]
            sign = 1.0 if declared["better"] == "higher" else -1.0
            paired[name] = {
                "pairs": pairs,
                "second_better": sum(1 for _, a, b in pairs if sign * (b - a) > 0.0),
                **_verdict([a for _, a, _ in pairs], [b for _, _, b in pairs], sign,
                           declared["bound"]),
            }
        out[workload] = {"seeds": seeds, "metrics": paired}
    return out


def fold(paths):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    by_commit, seen = {}, {}
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        # a repeated run would count twice in the medians and once in the pairs
        key = tuple(record[name] for name in ("commit", "workload", "seed", "trace"))
        if key in seen:
            raise ValueError(
                f"{seen[key]} and {path} are both the run of commit {key[0]}, "
                f"workload {key[1]}, seed {key[2]}, trace {key[3]}"
            )
        seen[key] = path
        by_commit.setdefault(record["commit"], {}).setdefault(record["workload"], []).append(record)
    commits = list(by_commit)
    bench = {
        "commits": commits,
        "results": {
            commit: {
                "machine": _machine([r for rs in workloads.values() for r in rs]),
                "workloads": {wl: _workload(rs) for wl, rs in workloads.items()},
            }
            for commit, workloads in by_commit.items()
        },
    }
    if len(commits) == 2:
        bench["paired"] = _pairs(by_commit[commits[0]], by_commit[commits[1]], metrics)
    return bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("results", nargs="+", help="perfbench result-*.json files")
    args = parser.parse_args(argv)
    try:
        bench = fold(args.results)
    except ValueError as exc:
        parser.error(str(exc))
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}: {len(bench['commits'])} commit(s), {len(args.results)} run(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
