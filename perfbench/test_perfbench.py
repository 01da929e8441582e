"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import client  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = workloads.serialize(workloads.generate(workload, 7))
    again = workloads.serialize(workloads.generate(workload, 7))
    other = workloads.serialize(workloads.generate(workload, 8))
    assert first == again
    assert first != other


def _worst(triples):
    bad = [label for label, dev, tol in triples if not dev <= tol]
    return bad, max(dev for _, dev, _ in triples)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_corrupted_output_row_fails_and_raises_max_err(tmp_path, fmt):
    scenario = next(s for s in workloads.generate("wideband", 3)
                    if s["kind"] == "evolve" and s["fmt"] == fmt)
    (tmp_path / f"{scenario['id']}.ini").write_text(scenario["ini"])
    wl = client.Workload(str(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()):
        assert wl.run(scenario)
    bad, clean_err = _worst(wl.check(scenario))
    assert bad == []
    path = tmp_path / f"{scenario['id']}.{fmt}"
    if fmt == "csv":
        lines = path.read_text().splitlines()
        cells = lines[7].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        lines[7] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    else:
        payload = json.loads(path.read_text())
        payload["rows"][5][1] += 1e-6
        path.write_text(json.dumps(payload))
    bad, corrupt_err = _worst(wl.check(scenario))
    assert "sigma11" in bad
    assert corrupt_err > clean_err
    assert corrupt_err >= 1e-6 * 0.99


def test_corrupted_fock_result_fails(tmp_path):
    scenario = next(s for s in workloads.WARMUP["oracle"] if "case" in s)
    wl = client.Workload(str(tmp_path))
    assert wl.run(scenario)
    bad, clean_err = _worst(wl.check(scenario))
    assert bad == []
    occ, probs, rdm = wl.fock_results[scenario["id"]][-1]
    probs = probs.copy()
    probs[0] += 1e-6
    probs[1] -= 1e-6  # keeps the sum rule, so only the reference catches it
    wl.fock_results[scenario["id"]][-1] = (occ, probs, rdm)
    bad, corrupt_err = _worst(wl.check(scenario))
    assert bad == ["count_probs[1]"]
    assert corrupt_err > clean_err


def test_master_reference_matches_dark_state_law():
    # Aligned wells, left start: sigma11 -> y^2 / (1 + y)^2.
    y = 3.0
    s11, s22, s12 = checks.sigma_trajectory(1.0, y, 0.0, 1, 1.0, 0.0, [80.0])
    assert abs(s11[0] - y * y / (1 + y) ** 2) < 1e-12
    assert abs(s22[0] - y / (1 + y) ** 2) < 1e-12
    assert abs(s12[0] + y ** 1.5 / (1 + y) ** 2) < 1e-12


def test_self_time_subtracts_children():
    def span(name, start, end, parent):
        s = tracing.Span(name, parent, 0)
        s.start, s.end = start, end
        return s

    spans = [span("cli.main", 0.0, 1.0, -1), span("cli.run", 0.1, 0.9, 0),
             span("cli.render", 0.2, 0.7, 1), span("dynamics.master_trajectory", 0.3, 0.6, 2)]
    spans[3].info["points"] = 300
    layers = tracing.derive(spans, 2)
    assert layers["cli.write_ms"] == pytest.approx(1e3 * 0.3 / 2)
    assert layers["cli.render_self_ms"] == pytest.approx(1e3 * 0.2 / 2)
    assert layers["dynamics.us_per_point"] == pytest.approx(1e6 * 0.3 / 300)


def test_layer_map_covers_every_per_layer_metric():
    _, per_layer, names = _declared()
    with open(os.path.join(HERE, "layers.json")) as fh:
        layer_map = json.load(fh)
    assert set(layer_map) - {"_about"} == per_layer
    for entry in layer_map.values():
        if isinstance(entry, dict):
            assert all(wl in names for _, wl in entry["moves"])
    assert tuple(names) == workloads.WORKLOADS


def _command(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_exactly_the_declared_ones(trace):
    end_to_end, per_layer, _ = _declared()
    out = _command("--workload", "wideband", "--seed", "1", "--seconds", "1",
                   "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (per_layer if trace == "1" else end_to_end)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert np.isfinite(metric["value"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _command("--workload", "wideband", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
