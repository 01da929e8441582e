import importlib.util
import json
import logging
import os
import shutil
import subprocess
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


def test_fold_bench_states_the_no_regression_verdict(tmp_path):
    fold_bench = load_fold_bench()
    # throughput_sps is better higher, with a bound of 0.24
    cases = {
        "regression": ([100.0, 101.0, 102.0, 103.0], [50.0, 51.0, 52.0, 53.0]),
        "steady": ([100.0, 101.0, 102.0, 103.0], [99.0, 100.0, 101.0, 102.0]),
        "noisy": ([50.0, 100.0, 150.0, 200.0], [60.0, 100.0, 150.0, 190.0]),
        # as wide a spread, but every change run beats every parent run
        "clear_gain": ([50.0, 100.0, 150.0, 200.0], [210.0, 220.0, 230.0, 240.0]),
    }
    paths = []
    for workload, (parent, change) in cases.items():
        for commit, values in (("aaa", parent), ("bbb", change)):
            for seed, value in enumerate(values, 1):
                rec = record(commit, seed, 0, value)
                rec["workload"] = workload
                path = tmp_path / f"result-{workload}-{commit}-{seed}.json"
                path.write_text(json.dumps(rec))
                paths.append(str(path))
    paired = fold_bench.fold(paths)["paired"]
    verdicts = {wl: paired[wl]["metrics"]["throughput_sps"]["verdict"] for wl in cases}
    assert verdicts == {"regression": "regression", "steady": "within_bound",
                        "noisy": "unresolved", "clear_gain": "within_bound"}
    regression = paired["regression"]["metrics"]["throughput_sps"]
    assert regression["median_change"] == pytest.approx((51.5 - 101.5) / 101.5)
    assert regression["bound"] == 0.24
    assert regression["parent_iqr"] == pytest.approx(1.5 / 101.5)
    assert paired["noisy"]["metrics"]["throughput_sps"]["parent_iqr"] == pytest.approx(0.6)
    # a metric that does not move is within its bound
    assert paired["noisy"]["metrics"]["setup_s"]["verdict"] == "within_bound"
    assert paired["noisy"]["metrics"]["setup_s"]["median_change"] == 0.0


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
    key, diff, name, other = fock_line.split()
    assert (key, name) == ("oracle_7_warmup-fock", "state")
    assert float(diff) == pytest.approx(2.0 ** -40, rel=1e-2)
    other_name, other_diff = other.split("=")
    assert other_name == "dot_rdm" and float(other_diff) == pytest.approx(2.0 ** -45, rel=1e-2)
    os.remove(b / "oracle_7_warmup.npz")
    assert render_digests.compare_lines(str(a), str(b))[0] == "oracle_7_warmup inf only-in-A"


def test_render_digests_ledger_lists_each_propagation(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    render_digests = load_tool("render_digests")
    workloads, oracle = render_digests.workloads, render_digests.oracle
    monkeypatch.setattr(workloads, "generate", lambda workload, seed: workloads.WARMUP[workload])
    logger = logging.getLogger("darkwells")
    handlers, level = list(logger.handlers), logger.level
    assert render_digests.main(["--workload", "oracle", "--seed", "7", "--ledger"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the handler is gone and the level restored once the listing is made
    assert (logger.handlers, logger.level) == (handlers, level)
    cli_line, fock_line, *totals = lines
    assert cli_line == "oracle:7:warmup dense eigh=402"
    key, propagator, dim, nnz, degree, work = fock_line.split()
    assert (key, propagator, dim) == ("oracle:7:warmup-fock", "chebyshev", "dim=861")
    values = [int(field.split("=")[1]) for field in (nnz, degree, work)]
    spec = workloads.WARMUP["oracle"][1]
    model, pair = render_digests._fock_model(spec["model"])
    res = oracle.DiscretizedReservoir.for_pair(pair, spec["n_levels"])
    h = oracle.build_fock_hamiltonian(model, res, oracle.FockSpace(42, 2, "fermi"))
    assert values[0] == h.nnz and values[1] > 0 and values[2] == values[0] * values[1]
    assert totals == [
        "total cli dense=1 eigh=402-402 expansions=0 degree=0 work=0",
        f"total fock dense=0 eigh=- expansions=1 degree={values[1]} work={values[2]}",
        f"total all dense=1 eigh=402-402 expansions=1 degree={values[1]} work={values[2]}",
    ]
    # no timings: a second listing is the same
    assert render_digests.digest_lines("oracle", [7], ledger=True) == lines


def test_render_digests_hash_config_files(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    render_digests = load_tool("render_digests")
    monkeypatch.chdir(tmp_path)
    head = "[scenario]\nkind = bosons\n[bosons]\nlaw = one_well\n"
    Path("a.ini").write_text(head + "n = 3\ny = 7/3\n")
    Path("b.ini").write_text(head + "n = 3\ny = 7/3\n[output]\nformat = json\n")
    Path("c.ini").write_text(head + "n = 3\ny = 2.3333\n")
    Path("refused.ini").write_text(head + "n = 53\ny = 1e-30\n")
    paths = ["refused.ini", "c.ini", "b.ini", "a.ini"]
    assert render_digests.main(["--config", *paths, "--dump", "dump"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == render_digests.config_lines(paths)
    # the workload line format, sorted, keyed by the path as given
    assert [line.split()[0] for line in lines] == [f"config:{p}" for p in sorted(paths)]
    (a, b, c), refused = [line.split()[1:] for line in lines[:3]], lines[3]
    assert all(len(digest) == 64 for digest in a + b + c)
    # the format and the ratio each change the data bytes
    assert len({a[0], b[0], c[0]}) == 3
    assert refused.startswith("config:refused.ini error bosons.n, bosons.y: ")
    assert sorted(os.listdir("dump")) == ["config_a.ini.npz", "config_b.ini.npz",
                                          "config_c.ini.npz"]
    with np.load("dump/config_a.ini.npz") as dump:
        assert dump["data.m"].tolist() == [0.0, 1.0, 2.0, 3.0]
    # config lines sort before the workload lines they are given with
    monkeypatch.setattr(render_digests.workloads, "generate",
                        lambda workload, seed: render_digests.workloads.WARMUP[workload])
    assert render_digests.main(["--config", "a.ini", "--workload", "wideband", "--seed", "7"]) == 0
    both = capsys.readouterr().out.splitlines()
    assert both == [lines[0]] + render_digests.digest_lines("wideband", [7])
    # a file that names no kind, or that is missing, is a usage error
    Path("nokind.ini").write_text("[bosons]\nn1 = 2\n")
    for path in ("nokind.ini", "missing.ini"):
        with pytest.raises(SystemExit) as exc:
            render_digests.main(["--config", path])
        assert exc.value.code == 2 and path in capsys.readouterr().err


def test_render_digests_compare_lists_every_differing_array(monkeypatch, tmp_path):
    # an array one side lacks is the worst difference, and the finite
    # differences behind it still show, each with its array
    monkeypatch.setattr(sys, "path", list(sys.path))
    render_digests = load_tool("render_digests")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    same = np.arange(3.0)
    np.savez(a / "s.npz", **{"x": same, "y": same, "z": same, "gone": same, "w": [np.nan]})
    np.savez(b / "s.npz", **{"x": same + [0.0, 0.5, 0.0], "y": same, "z": same - 2.0 ** -50,
                             "w": [1.0]})
    line = render_digests.compare_lines(str(a), str(b))
    assert line == ["s inf gone w=inf x=0.5 z=8.88e-16"]
    np.savez(b / "s.npz", **{"x": same, "y": same, "z": same, "gone": same, "w": [np.nan]})
    assert render_digests.compare_lines(str(a), str(b)) == ["s 0 -"]


def test_render_digests_compare_stops_quietly_when_the_reader_does(tmp_path):
    # a scenario only A has needs no array read; 1000 lines of over 200
    # bytes overfill the pipe, so the script writes on after the reader
    # has closed it, as under `| head -1`
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for k in range(1000):
        (a / f"{'s' * 200}{k:04d}.npz").touch()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "render_digests.py"), "--compare", str(a), str(b)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert first == f"{'s' * 200}0000 inf only-in-A\n".encode()
    assert err == b""


def test_refusal_grid_runs_its_configs_with_the_work_stubbed(monkeypatch, capsys):
    refusal_grid = load_tool("refusal_grid")
    cases = {name: (kind, config) for name, kind, config in refusal_grid.grid()}
    # 3 960 oracle-compare, 316 bosons and 70 section configs, each id once
    assert len(cases) == 3960 + 316 + 70
    want = {
        # a dense run and 1000 bosons, each seconds of work without the stubs
        "oracle-compare n_levels=1498 n_points=200 t_max=- lambda_cutoff=- gamma1=1": "run",
        "bosons law=emission n1=1000 n2=0 y=1": "run",
        "bosons law=one_well n=1 y=1e1000000":
            "exit 2 bosons.y: '1e1000000' lies above the float range",
        "oracle-compare n_levels=9 n_points=2 t_max=- lambda_cutoff=- gamma1=1":
            "exit 2 oracle.n_levels: n_levels = 9 is too coarse to mean anything; need >= 10",
        "sweep [oracle]": "exit 2 oracle: kind sweep does not read this section",
        "sweep [sweep]": "exit 2 sweep.nonsense: unknown key",
        "evolve [nonsense]": "exit 2 nonsense: unknown section",
    }
    monkeypatch.setattr(refusal_grid, "grid", lambda: [(name, *cases[name]) for name in want])
    builder = refusal_grid.oracle.build_single_particle_hamiltonian
    assert refusal_grid.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{name} {outcome}" for name, outcome in want.items()]
    assert refusal_grid.oracle.build_single_particle_hamiltonian is builder
