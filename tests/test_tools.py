import importlib.util
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_fold_bench():
    return load_tool("fold_bench")


def record(commit, seed, trace, throughput, calib=10.0):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    e2e = {name: 1.0 for name in names}
    e2e["throughput_sps"] = throughput
    return {
        "workload": "wideband",
        "seed": seed,
        "seconds": 55,
        "trace": trace,
        "commit": commit,
        "nproc": 2,
        "blas_threads": 1,
        "env": {"python": "3", "numpy": "2", "scipy": "1",
                "blas": {"numpy_blas": "openblas", "libraries": {"libblas.so": 1}}},
        "machine.calib_ms": calib,
        "attempted": 100,
        "failed": 0,
        "latency_tail_percentile": 98,
        "latency_samples": 100,
        "end_to_end": {} if trace else e2e,
        "per_layer": {"dynamics.us_per_point": throughput} if trace else {},
    }


def test_fold_bench_groups_commits_and_pairs_seeds(tmp_path):
    fold_bench = load_fold_bench()
    records = [
        record("aaa", 1, 0, 100.0), record("aaa", 2, 0, 120.0), record("aaa", 1, 1, 4.0),
        record("bbb", 2, 0, 110.0), record("bbb", 1, 0, 300.0), record("bbb", 1, 1, 1.0),
    ]
    paths = []
    for k, rec in enumerate(records):
        path = tmp_path / f"result-{k}.json"
        path.write_text(json.dumps(rec))
        paths.append(str(path))
    out = tmp_path / "BENCH_1.json"
    assert fold_bench.main(["--out", str(out)] + paths) == 0
    bench = json.loads(out.read_text())
    assert bench["commits"] == ["aaa", "bbb"]
    parent = bench["results"]["aaa"]
    assert parent["machine"]["blas_threads"] == 1
    wideband = parent["workloads"]["wideband"]
    assert [run["seed"] for run in wideband["runs"]] == [1, 2, 1]
    assert wideband["end_to_end"]["throughput_sps"]["median"] == pytest.approx(110.0)
    assert bench["results"]["bbb"]["workloads"]["wideband"]["per_layer"] == {
        "dynamics.us_per_point": 1.0
    }
    paired = bench["paired"]["wideband"]
    assert paired["seeds"] == [1, 2]
    throughput = paired["metrics"]["throughput_sps"]
    assert throughput["pairs"] == [[1, 100.0, 300.0], [2, 120.0, 110.0]]
    assert throughput["second_better"] == 1
    # the same inputs give the same bytes
    again = tmp_path / "again.json"
    fold_bench.main(["--out", str(again)] + paths)
    assert again.read_bytes() == out.read_bytes()


def test_fold_bench_refuses_duplicate_runs(tmp_path, capsys):
    fold_bench = load_fold_bench()
    paths = []
    for name, rec in (("a", record("aaa", 1, 0, 100.0)), ("b", record("aaa", 2, 0, 90.0)),
                      ("c", record("aaa", 1, 0, 130.0))):
        path = tmp_path / f"result-{name}.json"
        path.write_text(json.dumps(rec))
        paths.append(str(path))
    out = tmp_path / "BENCH_1.json"
    with pytest.raises(SystemExit) as exc:
        fold_bench.main(["--out", str(out)] + paths)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert paths[0] in err and paths[2] in err and paths[1] not in err
    assert not out.exists()
    # the same seed with --trace 1 is a different run
    paths[2] = str(tmp_path / "result-d.json")
    (tmp_path / "result-d.json").write_text(json.dumps(record("aaa", 1, 1, 4.0)))
    assert fold_bench.main(["--out", str(out)] + paths) == 0


def test_render_digests_are_stable(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ and perfbench/ first
    render_digests = load_tool("render_digests")
    lines = render_digests.digest_lines("wideband", [1])
    assert len(lines) == 160 and lines == sorted(lines)
    assert all(len(line.split()) == 3 and "error" not in line for line in lines)
    assert render_digests.digest_lines("wideband", [1]) == lines
    # a renderer that writes other data bytes changes every data digest,
    # and no manifest digest
    cli = render_digests.cli
    render_table = cli._render_table
    monkeypatch.setattr(cli, "_render_table", lambda *args: render_table(*args) + b"\n")
    changed = render_digests.digest_lines("wideband", [1])
    for old, new in zip(lines, changed):
        (key, data, manifest), (key2, data2, manifest2) = old.split(), new.split()
        assert key == key2 and data != data2 and manifest == manifest2


def test_render_digests_hash_fock_records(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    render_digests = load_tool("render_digests")
    workloads, oracle = render_digests.workloads, render_digests.oracle
    # the oracle warm-up: one CLI scenario and one small Fock record
    monkeypatch.setattr(workloads, "generate", lambda workload, seed: workloads.WARMUP[workload])
    lines = render_digests.digest_lines("oracle", [7])
    cli_line, fock_line = lines
    assert cli_line.split()[0] == "oracle:7:warmup" and len(cli_line.split()) == 3
    key, tag, *fock = fock_line.split()
    assert (key, tag, len(fock)) == ("oracle:7:warmup-fock", "fock", 5)
    assert render_digests.digest_lines("oracle", [7]) == lines
    # each digest covers one quantity at every time, so a change to the dot
    # RDM at the last time changes the third digest only, a one-ulp change
    # to the state after it is reduced changes the fourth only, and a
    # one-ulp change to the Hamiltonian the fifth hashes changes only that
    reduced_quantities = oracle.reduced_quantities
    spec = workloads.WARMUP["oracle"][1]
    for field in (2, 3):
        calls = []

        def shifted(space, psi, n_dots):
            calls.append(psi)
            reduced = reduced_quantities(space, psi, n_dots)
            if len(calls) == 2 and field == 2:
                reduced.dot_rdm[0, 0] += 1e-15
            elif len(calls) == 2:
                psi.imag[0] = np.nextafter(psi.imag[0], np.inf)
            return reduced

        monkeypatch.setattr(oracle, "reduced_quantities", shifted)
        changed = render_digests.fock_digests(spec)
        assert len(calls) == len(spec["times"])
        assert [old != new for old, new in zip(fock, changed)] == [k == field for k in range(5)]
    monkeypatch.setattr(oracle, "reduced_quantities", reduced_quantities)
    build = oracle.build_fock_hamiltonian
    builds = []

    def nudged(*args):
        h = build(*args)
        builds.append(h)
        if len(builds) == 2:
            h.data[-1] = np.nextafter(h.data[-1], np.inf)
        return h

    monkeypatch.setattr(oracle, "build_fock_hamiltonian", nudged)
    changed = render_digests.fock_digests(spec)
    assert len(builds) == 2
    assert [old != new for old, new in zip(fock, changed)] == [k == 4 for k in range(5)]


def test_render_digests_dump_and_compare(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    render_digests = load_tool("render_digests")
    workloads = render_digests.workloads
    monkeypatch.setattr(workloads, "generate", lambda workload, seed: workloads.WARMUP[workload])
    a, b = tmp_path / "a", tmp_path / "b"
    assert render_digests.main(["--workload", "oracle", "--seed", "7", "--dump", str(a)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == render_digests.digest_lines("oracle", [7])
    assert sorted(os.listdir(a)) == ["oracle_7_warmup-fock.npz", "oracle_7_warmup.npz"]
    # a Fock dump holds the arrays its line hashes
    with np.load(a / "oracle_7_warmup-fock.npz") as fock:
        assert render_digests.fock_digests(None, dict(fock)) == lines[1].split()[2:]
        assert fock["state"].shape == (2, 861) and fock["h_indptr"].shape == (862,)
    # a CLI dump holds the data columns and manifest values of its files
    with np.load(a / "oracle_7_warmup.npz") as cli_dump:
        assert cli_dump["data.sigma11_oracle"].shape == (100,)
        assert cli_dump["manifest.oracle.n_levels"].tolist() == [400.0]
        assert cli_dump["manifest.oracle.method"].tolist() == ["dense"]
    shutil.copytree(a, b)
    assert render_digests.compare_lines(str(a), str(b)) == [
        "oracle_7_warmup 0 -", "oracle_7_warmup-fock 0 -",
    ]
    # the largest change is reported with its array; a changed string, or
    # a scenario one side lacks, counts as inf
    arrays = dict(np.load(a / "oracle_7_warmup-fock.npz"))
    arrays["state"][1, 0] += 2.0 ** -40
    arrays["dot_rdm"][0, 0, 0] += 2.0 ** -45
    np.savez(b / "oracle_7_warmup-fock.npz", **arrays)
    arrays = dict(np.load(a / "oracle_7_warmup.npz"))
    arrays["manifest.oracle.method"] = np.array(["chebyshev"])
    np.savez(b / "oracle_7_warmup.npz", **arrays)
    assert render_digests.main(["--compare", str(a), str(b)]) == 0
    cli_line, fock_line = capsys.readouterr().out.splitlines()
    assert cli_line == "oracle_7_warmup inf manifest.oracle.method"
    key, diff, name = fock_line.split()
    assert (key, name) == ("oracle_7_warmup-fock", "state")
    assert float(diff) == pytest.approx(2.0 ** -40, rel=1e-2)
    os.remove(b / "oracle_7_warmup.npz")
    assert render_digests.compare_lines(str(a), str(b))[0] == "oracle_7_warmup inf only-in-A"
