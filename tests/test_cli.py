import ast
import hashlib
import importlib
import importlib.util
import itertools
import json
import math
import os
import pkgutil
import re
import runpy
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import darkwells.cli
from darkwells.cli import ConfigError, Scenario, build_scenario, load_config, main, render
from darkwells.dynamics import (
    dwell_time,
    evolve_master,
    fit_decay_rate,
    master_trajectory,
)
from darkwells.model import WellPair

from oracles import bounded_fraction, render_rows_reference, sweep_point_widths_reference


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest-sha256 ")
    digest = lines[0].split()[-1]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return digest, header, rows


def test_evolve_csv_and_manifest(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[model]\ngamma1 = 1.0\ngamma2 = 1.0\n\n[grid]\nt_max = 5.0\nn_points = 11\n",
    )
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"wrote {out}", f"wrote {out}.manifest.json"]
    digest, header, rows = read_csv(out)
    assert header == ["t", "sigma11", "sigma22", "re_sigma12", "im_sigma12", "sigma00"]
    assert len(rows) == 11
    # stamped digest is the hash of the manifest file, byte for byte
    manifest_bytes = (tmp_path / "traj.csv.manifest.json").read_bytes()
    assert hashlib.sha256(manifest_bytes).hexdigest() == digest
    manifest = json.loads(manifest_bytes)
    assert manifest["kind"] == "evolve"
    assert manifest["output"] == str(out)
    assert manifest["parameters"]["model.gamma1"] == pytest.approx(1.0)
    assert manifest["parameters"]["grid.n_points"] == 11
    assert set(manifest["versions"]) == {"darkwells", "numpy", "scipy"}
    # first row is the initial condition, later rows match the integrator
    assert float(rows[0][1]) == 1.0
    pair = WellPair.from_widths(1.0, 1.0)
    state = evolve_master(pair, (1.0, 0.0, 0.0), 5.0)
    assert float(rows[-1][1]) == pytest.approx(state.sigma11[0], abs=1e-14)


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        "[model]\ngamma1 = 1.0\ny = 4.0\nepsilon = 0.3\n\n"
        "[grid]\nt_max = 3.0\nn_points = 7\n",
    )
    out = tmp_path / "a.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    first = out.read_bytes()
    first_manifest = (tmp_path / "a.csv.manifest.json").read_bytes()
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "a.csv.manifest.json").read_bytes() == first_manifest


def test_seedless_runs_clean(tmp_path):
    cfg = write_config(tmp_path, "[bosons]\nlaw = equal_fill\nn = 3\n")
    out = tmp_path / "law.csv"
    assert main(["bosons", "--config", cfg, "--out", str(out), "--seedless"]) == 0
    assert out.exists()


def test_json_format_payload(tmp_path):
    cfg = write_config(
        tmp_path,
        "[scenario]\nkind = asymptotic\n\n[model]\ngamma1 = 1.0\ny = 4.0\n\n"
        "[output]\nformat = json\n",
    )
    out = tmp_path / "asym.json"
    assert main(["asymptotic", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    manifest_bytes = (tmp_path / "asym.json.manifest.json").read_bytes()
    assert payload["manifest_sha256"] == hashlib.sha256(manifest_bytes).hexdigest()
    assert payload["manifest"] == json.loads(manifest_bytes)
    row = dict(zip(payload["columns"], payload["rows"][0]))
    assert row["p_trapped"] == pytest.approx(0.8)
    assert row["sigma11"] == pytest.approx(16.0 / 25.0)
    assert row["sigma22"] == pytest.approx(4.0 / 25.0)
    assert row["sigma00"] == pytest.approx(1.0 / 5.0)


def test_dwell_scenario(tmp_path):
    cfg = write_config(
        tmp_path, "[model]\ngamma1 = 1.0\ngamma2 = 1.0\nepsilon = 0.1\n"
    )
    out = tmp_path / "dwell.csv"
    assert main(["dwell", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["tau", "rate"]
    assert float(rows[0][0]) == pytest.approx(200.0, rel=1e-12)
    assert float(rows[0][1]) == pytest.approx(0.005, rel=1e-12)


@pytest.mark.parametrize(
    "kind, text, message",
    [
        # tau = 0.0 in dwell; 1 / tau was a ZeroDivisionError traceback
        ("dwell", "[model]\nepsilon = 1e308\nrho = 0.1\n",
         "model.epsilon: the dwell time 0.0 leaves the positive float range"),
        # g12 ~ 7e-201 squares to zero inside dwell_time
        ("dwell", "[model]\nepsilon = 1e-200\ngamma1 = 7\n",
         "model.epsilon, model.gamma1: dark-bright mixing"),
        # the same in a fitted sweep's window, with the axis key
        ("sweep", "[sweep]\naxis = epsilon\nvalues = 0.5, 1e-200\nreport = fitted_tau\n",
         "sweep.values: dark-bright mixing"),
        # a huge rho shrinks both default-width couplings to zero
        ("asymptotic", "[model]\nrho = 1e308\n", "model.rho: degenerate system"),
        ("asymptotic", "[model]\ngamma1 = 2\nrho = 1e308\n",
         "model.gamma1, model.rho: degenerate system"),
        # coupling style: the detuning is e1 - e2 and the widths come from
        # the omegas; model.epsilon, a key this style refuses, was named
        ("dwell", "[model]\nomega1 = 1\nomega2 = 1\ne1 = 1e308\n",
         "model.e1, model.omega1, model.omega2: the dwell time 0.0 leaves"),
        ("dwell", "[model]\nomega1 = 1e-170\nomega2 = 1\ne1 = 1\n",
         "model.e1, model.omega1, model.omega2: dark-bright mixing"),
        # a default cutoff is set by the widths and the detuning; only the
        # section was named
        ("oracle-compare", "[model]\ngamma1 = 1e307\n[oracle]\nn_levels = 40\n",
         "model.gamma1: the band spacing"),
        # 2 tau is below the resolution of t0 = 6: 48 equal fit times, exit 1
        ("sweep", "[sweep]\naxis = epsilon\nvalues = 0.5, 1e10\nreport = fitted_tau\n",
         "sweep.values: the fit window 2 tau = "),
        ("sweep", "[model]\nepsilon = 1e10\n[sweep]\naxis = gamma1\nvalues = 1, 2\n"
                  "report = fitted_rate\n", "model.epsilon, sweep.values: the fit window"),
        # phases lambda t past the float range; these ended in exit 1 with
        # "sigma11 = nan is not a probability"
        ("evolve", "[model]\nepsilon = 1e308\n", "model.epsilon: exp(-i H_eff t) leaves"),
        ("evolve", "[model]\nepsilon = 10\n[grid]\nt_max = 1.7e308\n",
         "model.epsilon, grid.t_max: exp(-i H_eff t) leaves"),
        ("sweep", "[sweep]\naxis = epsilon\nvalues = 1, 1e308\n",
         "sweep.values: exp(-i H_eff t) leaves the float range at t = 30.0"),
        ("sweep", "[model]\nepsilon = 10\n[sweep]\naxis = y\nvalues = 1\nt_max = 1.7e308\n",
         "model.epsilon, sweep.values, sweep.t_max: exp(-i H_eff t) leaves"),
        # gamma2 = y * gamma1 and 2 pi rho both overflow: the model's own
        # check sees inf / inf = nan
        ("asymptotic", "[model]\ngamma1 = 1e308\ny = 1.7e308\nrho = 1e308\n",
         "model.gamma1, model.y, model.rho: width gamma2 = inf is too large"),
        # a recurrence time 2 pi / spacing of inf went into the manifest
        ("oracle-compare", "[model]\nlambda_cutoff = 1e-320\n[oracle]\nn_levels = 10\n",
         "model.lambda_cutoff: the band spacing 2 * 1e-320 / 10 = 2e-321"),
        # the default grid 10 / gamma1: a ZeroDivisionError traceback at
        # gamma1 = 0, and NaN times at 1e-320
        ("evolve", "[model]\ngamma1 = 0\ngamma2 = 1\n",
         "model.gamma1: the default grid.t_max is not finite"),
        ("evolve", "[model]\ngamma1 = 1e-320\n",
         "model.gamma1: the default grid.t_max is not finite"),
        # both widths 2 pi omega^2 rho underflow: once refused as a hypot^2
        # that the rotation divided by, each a ZeroDivisionError traceback
        ("asymptotic", "[model]\nomega1 = 1e-200\nomega2 = 1e-200\n",
         "model.omega1, model.omega2: degenerate system: both widths 2 pi omega^2 rho underflow"),
        ("dwell", "[model]\nomega1 = 1e-200\nomega2 = 1e-200\ne1 = 1\n",
         "model.omega1, model.omega2: degenerate system: both widths 2 pi omega^2 rho underflow"),
        # both widths underflow with a normal hypot^2: the default grid
        # 8 / (gamma1 + gamma2) was a ZeroDivisionError traceback, then a
        # refusal of the default grid.t_max
        ("oracle-compare", "[model]\nomega1 = 1e-150\nomega2 = 1e-150\nrho = 1e-30\n",
         "model.omega1, model.rho, model.omega2: degenerate system: both widths"),
        # |mu| past the float range with finite entries: |E1 - E2| / 2 near
        # the largest float and a width beside it
        ("evolve", "[model]\ne1 = 1.79e308\ne2 = -1.79e308\nomega1 = 1.2e154\nomega2 = 0\n",
         "model.e1, model.e2, model.omega1, model.omega2: exp(-i H_eff t) leaves"),
        # g12 = epsilon sin cos underflows on two coupled wells; this ended
        # in exit 1 as "a well is decoupled"
        ("dwell", "[model]\ngamma1 = 1\ngamma2 = 1e-300\nepsilon = 1e-300\n",
         "model.epsilon, model.gamma1, model.gamma2: dark-bright mixing g12 = 0.0 squares"),
    ],
    ids=["dwell_underflow", "dwell_mixing", "sweep_mixing", "rho_only", "rho_and_width",
         "coupling_dwell", "coupling_mixing", "default_cutoff", "empty_window",
         "empty_window_model", "evolve_phase", "evolve_t_max", "sweep_phase", "sweep_t_max",
         "infinite_rho_and_width", "fine_band", "zero_width_grid", "tiny_width_grid",
         "tiny_couplings", "tiny_couplings_dwell", "oracle_zero_widths", "largest_root",
         "coupled_mixing_underflow"],
)
def test_float_range_refusals_name_their_keys(tmp_path, capsys, kind, text, message):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "x.csv"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, text, column",
    [
        # squares of H_eff's entries overflowed: both were refused as
        # "exp(-i H_eff t) leaves the float range"
        ("oracle-compare", "[model]\nlambda_cutoff = 1\ngamma1 = 1e300\n[grid]\nt_max = 1e10\n"
                           "[oracle]\nn_levels = 40\n", "sigma11_reference"),
        ("evolve", "[model]\ngamma1 = 1.7e308\n", "sigma11"),
        # the self-energy's product gamma1 * gamma2 underflowed, and nothing
        # decayed: sigma11 stayed 1
        ("evolve", "[model]\ngamma1 = 1e-170\n", "sigma11"),
        ("evolve", "[model]\ngamma1 = 1e-300\n", "sigma11"),
        # the fit's sum of squared times overflowed: tau = inf, and exit 0
        ("sweep", "[model]\nepsilon = 0.3\n[sweep]\naxis = gamma1\nvalues = 1e100\n"
                  "report = fitted_tau\n", "fitted_tau"),
    ],
    ids=["oracle_reference", "largest_width", "tiny_width", "tiniest_width", "fit_window"],
)
def test_float_range_edges_run(tmp_path, kind, text, column):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([kind, "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    value = float(rows[-1][header.index(column)])
    if column == "fitted_tau":
        assert 0.0 < value < math.inf
    else:
        # equal widths trap half of a left start, a quarter in each well
        assert value == pytest.approx(0.25, abs=1e-4)


def test_oracle_compare_refuses_an_overflowing_band_before_building(tmp_path, capsys, monkeypatch):
    # the spacing 2 cutoff / n_levels overflows; the run used to write
    # 200 nan cells and exit 0
    import darkwells.oracle

    def fail(*args, **kwargs):
        raise AssertionError("nothing may be built")

    monkeypatch.setattr(darkwells.cli, "master_trajectory", fail)
    for name in ("build_single_particle_hamiltonian", "evolve_exact", "chebyshev_propagate"):
        monkeypatch.setattr(darkwells.oracle, name, fail)
    for cutoff in ("1.7e308", "1e308"):
        cfg = write_config(
            tmp_path, f"[model]\nlambda_cutoff = {cutoff}\n[oracle]\nn_levels = 40\n"
        )
        assert main(["oracle-compare", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model.lambda_cutoff: the band spacing"), err


def test_oracle_compare_refuses_overflowing_phases_before_building(tmp_path, capsys, monkeypatch):
    # the spacing is finite but t * E is not; at n_levels = 40 the band edge
    # is 0.975 cutoff, so the default t_max = 4 puts the edge at 4.6e307
    # (accepted) and 5e307 (refused) on either side of the float range
    import darkwells.oracle

    def fail(*args, **kwargs):
        raise AssertionError("nothing may be built")

    out = tmp_path / "x.csv"
    cfg = write_config(tmp_path, "[model]\nlambda_cutoff = 4.6e307\n[oracle]\nn_levels = 40\n")
    assert main(["oracle-compare", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    monkeypatch.setattr(darkwells.cli, "master_trajectory", fail)
    for name in ("build_single_particle_hamiltonian", "evolve_exact", "chebyshev_propagate"):
        monkeypatch.setattr(darkwells.oracle, name, fail)
    for text, keys in (
        ("[model]\nlambda_cutoff = 5e307\n", "model.lambda_cutoff"),
        ("[model]\nlambda_cutoff = 1e300\n[grid]\nt_max = 1e10\n",
         "model.lambda_cutoff, grid.t_max"),
    ):
        cfg = write_config(tmp_path, text + "[oracle]\nn_levels = 40\n")
        assert main(["oracle-compare", "--config", cfg, "--out", str(tmp_path / "y.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {keys}: the phases t E of the band"), err


def test_overflowing_couplings_are_refused_without_a_warning(tmp_path, capfd):
    # the couplings square to inf in the spectral bounds; the refusal is
    # the one line on stderr, with no RuntimeWarning ahead of it (pytest
    # would collect the warning, so it is recorded here instead)
    cfg = write_config(
        tmp_path, "[model]\ngamma1 = 1e306\nepsilon = 1e300\n[oracle]\nn_levels = 40\n"
    )
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["oracle-compare", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert [str(w.message) for w in seen] == []
    err = capfd.readouterr().err
    assert err.splitlines() == [
        "config error: model.gamma1, model.epsilon: the phases t E of the band "
        "[-inf, inf] overflow by t = 4e-306"
    ], err


def test_coupling_style_refusals_name_rho_where_it_sets_a_width(tmp_path, capsys):
    # in coupling style the widths are 2 pi omega^2 rho, so rho sets them
    cfg = write_config(
        tmp_path, "[model]\nomega1 = 1\nomega2 = 1\ne1 = 1e-10\nrho = 1e307\n"
    )
    assert main(["dwell", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "config error: model.e1, model.omega1, model.rho, model.omega2: the dwell time inf"
    ), err
    # ... and so it sets the two vanishing widths of a degenerate system
    cfg = write_config(tmp_path, "[model]\nomega1 = 0\nomega2 = 0\nrho = 5\n")
    assert main(["asymptotic", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "config error: model.omega1, model.rho, model.omega2: degenerate system"
    ), err


def _tau_reference(omega, rho, e1):
    """``2 gamma / eps^2``, the dwell time of two equal couplings ``omega``
    and detuning ``e1``, from the exact product ``gamma = 2 pi omega^2 rho``
    of the floats, rounded once."""
    gamma = 2 * Fraction(math.pi) * Fraction(float(omega)) ** 2 * Fraction(float(rho))
    return float(2 * gamma / Fraction(float(e1)) ** 2), float(gamma)


@pytest.mark.parametrize(
    "omega, rho, e1",
    [("1.2e-150", "1e276", "1e-23"), ("1.2e-162", "1e300", "1e-23"), ("1e-162", "1e300", "1")],
    ids=["tiny_products", "subnormal_products", "tiny_couplings_rho"],
)
def test_dwell_of_tiny_couplings_is_the_closed_form(tmp_path, omega, rho, e1):
    # widths near 1e-23 whose couplings' products leave the normal range:
    # tau was 5.6% low at 1.2e-150, and the two others ended in exit 1 ("a
    # well is decoupled") and exit 2 (hypot(omega1, omega2)^2 underflows)
    cfg = write_config(
        tmp_path, f"[model]\nomega1 = {omega}\nomega2 = {omega}\nrho = {rho}\ne1 = {e1}\n"
    )
    out = tmp_path / "x.csv"
    assert main(["dwell", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    tau, _ = _tau_reference(omega, rho, e1)
    assert float(rows[0][0]) == pytest.approx(tau, rel=1e-14)


def test_evolve_records_the_width_of_tiny_couplings(tmp_path):
    # 2 pi omega omega rho left to right passes through a subnormal, which
    # recorded (and evolved with) gamma1 = 9.881e-24 for 9.048e-24
    cfg = write_config(
        tmp_path, "[model]\nomega1 = 1.2e-162\nomega2 = 1.2e-162\nrho = 1e300\ne1 = 1e-23\n"
    )
    out = tmp_path / "x.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    parameters = json.loads(Path(f"{out}.manifest.json").read_text())["parameters"]
    _, gamma = _tau_reference("1.2e-162", "1e300", "1")
    assert parameters["model.gamma1"] == pytest.approx(gamma, rel=1e-15, abs=0.0)
    assert parameters["model.gamma2"] == parameters["model.gamma1"]


@pytest.mark.parametrize("op", ["two_electron_parallel", "three_electron"])
def test_parallel_fermions_at_a_large_yprime(tmp_path, op):
    # 1 / sqrt(1 + yprime^2) was 0 past yprime = 1.4e154, and both ops ended
    # in exit 1 ("vectors are linearly dependent"); the leading amplitudes
    # are those of yprime = 1e100, where nothing left the float range
    def amplitudes(yprime):
        cfg = write_config(tmp_path, f"[fermions]\nop = {op}\n[model]\nyprime = {yprime}\n")
        out = tmp_path / f"{yprime}.csv"
        assert main(["fermions", "--config", cfg, "--out", str(out)]) == 0
        return {(row[0], row[2]): (float(row[1]), float(row[3])) for row in read_csv(out)[2]}

    reference = amplitudes("1e100")
    for yprime in ("1e160", "1e308"):
        table = amplitudes(yprime)
        for key, (probability, amplitude) in reference.items():
            if abs(amplitude) > 1e-50:
                assert table[key] == pytest.approx((probability, amplitude), abs=1e-15)
        for count in {count for count, _ in table}:
            norm = sum(a * a for (c, _), (_, a) in table.items() if c == count)
            assert norm == pytest.approx(1.0, abs=1e-15)


# Coupling-style models (omega1, omega2, e1, e2, rho) away from the float
# range's edges: misaligned, aligned, and resonant for the parallel ops;
# in the last, a small rho lets the couplings' squares reach subnormals.
_SCALE_BASES = [
    (0.9, -0.35, 0.4, -0.1, 0.3),
    (0.21, 0.77, 1e-3, 0.0, 0.05),
    (1.3, 1.1, 0.25, 0.25, 0.7),
    (0.05, -0.04, 0.2, 0.2, 0.002),
]


def _scaled_configs(base, k):
    """Each kind's config of ``base`` with the couplings times ``2^k`` and
    ``rho`` times ``4^-k``, or none where a scaled value is not normal."""
    o1, o2, e1, e2, rho = base
    scaled = [(o1, k), (o2, k), (rho, -2 * k)]
    if not all(-1018 < math.frexp(m)[1] + e < 1018 for m, e in scaled):
        return {}
    omega1, omega2, rho_k = (math.ldexp(m, e) for m, e in scaled)
    # a sweep gives its widths, and from_widths forms each coupling as
    # sqrt(gamma / (2 pi rho)), so there the squares must be normal too
    sweeps = all(1e-307 < omega * omega < 1e307 for omega in (omega1, omega2))
    model = {"omega1": repr(omega1), "omega2": repr(omega2), "e1": repr(e1), "e2": repr(e2),
             "rho": repr(rho_k)}
    gamma1 = WellPair(E1=e1, E2=e2, omega1=o1, omega2=o2, rho=rho).gamma1
    widths = {"gamma1": repr(gamma1), "y": repr((o2 / o1) ** 2),
              "eta": "1" if o1 * o2 > 0 else "-1", "rho": repr(rho_k)}
    configs = {
        "evolve": {"model": model, "grid": {"n_points": "7"},
                   "initial": {"b1": "0.6", "b2": "0.8j"}},
        "two_electron_parallel": {"model": {**model, "yprime": "0.7", "u": repr(e2 - e1)},
                                  "fermions": {"op": "two_electron_parallel"}},
    }
    if e1 == e2:
        configs["asymptotic"] = {"model": model, "initial": {"b1": "0.6", "b2": "0.8"}}
        configs["three_electron"] = {"model": {**model, "yprime": "0.7"},
                                     "fermions": {"op": "three_electron"}}
    else:
        configs["dwell"] = {"model": model}
    if sweeps and e1 == e2:
        given = {key: value for key, value in widths.items() if key != "y"}
        configs["sweep_p_trapped"] = {"model": given,
                                      "sweep": {"axis": "y", "values": "0.5, 1, 3",
                                                "report": "p_trapped"}}
        configs["sweep_sigma11"] = {"model": widths,
                                    "sweep": {"axis": "gamma1", "values": repr(gamma1) + ", 2"}}
    elif sweeps:
        configs["sweep_fitted_tau"] = {"model": widths,
                                       "sweep": {"axis": "epsilon", "values": "0.05, 0.1",
                                                 "report": "fitted_tau"}}
    return configs


def _data_rows(name, config):
    kind = "fermions" if "fermions" in config else name.partition("_")[0]
    result = render(build_scenario(kind, config, out="x.csv"))
    # the first line is the manifest's digest, which records the scaled inputs
    return result.files["x.csv"].split(b"\n", 1)[1]


@pytest.mark.parametrize("base", _SCALE_BASES)
def test_closed_forms_keep_their_bits_under_an_exact_coupling_scale(base):
    # Couplings times s = 2^k and rho times 1/s^2 keep the widths 2 pi
    # omega^2 rho and the couplings' ratio, so every closed form the CLI
    # runs must keep its bits; a square of a coupling or a product of both
    # leaves the float range at some k where none of the inputs does.
    reference = {name: _data_rows(name, config)
                 for name, config in _scaled_configs(base, 0).items()}
    checked = 0
    for k in itertools.chain(range(-540, 541, 30), range(-520, -400, 7), range(400, 540, 7)):
        for name, config in _scaled_configs(base, k).items():
            assert _data_rows(name, config) == reference[name], (name, k)
            checked += 1
    assert checked > 150


# Width-style models (gamma1, y, epsilon, eta): misaligned with eta = -1,
# aligned, misaligned the other way, and a detuning far below the widths.
_TIME_SCALE_BASES = [(1.0, 2.0, 0.4, -1), (1.5, 0.5, 0.0, 1), (0.7, 3.0, -1.3, 1),
                     (2.0, 2.0, 1e-3, -1)]
# the power of 2^k each scaled column carries; any other column keeps its text
_TIME_COLUMNS = {"t": -1, "tau": -1, "fitted_tau": -1, "rate": 1, "fitted_rate": 1,
                 "gamma1": 1, "epsilon": 1}


def _time_scaled_configs(base, k):
    """Each kind's config of ``base`` with widths, detuning and ``u`` times
    ``2^k`` and every ``t_max`` times ``2^-k``, for an even ``k`` in [-1000,
    1000]: a width-style coupling is the root ``sqrt(gamma / (2 pi rho))``,
    which keeps its bits under ``4^j``."""
    gamma1, y, epsilon, eta = base

    def s(value, sign=1):
        return repr(math.ldexp(value, sign * k))

    model = {"gamma1": s(gamma1), "y": repr(y), "epsilon": s(epsilon), "eta": str(eta)}
    configs = {
        "evolve": {"model": model, "grid": {"t_max": s(30.0, -1), "n_points": "7"},
                   "initial": {"b1": "0.6", "b2": "0.8j"}},
        "two_electron_parallel_resonant": {
            "model": {**model, "yprime": "0.7", "u": s(-epsilon)},
            "fermions": {"op": "two_electron_parallel"}},
        "two_electron_parallel_detuned": {
            "model": {**model, "yprime": "0.8", "u": s(0.7)},
            "fermions": {"op": "two_electron_parallel"}},
    }
    if epsilon == 0.0:
        configs["asymptotic"] = {"model": model, "initial": {"b1": "0.6", "b2": "0.8"}}
        configs["three_electron"] = {"model": {**model, "yprime": "0.7"},
                                     "fermions": {"op": "three_electron"}}
        gamma1s = {"axis": "gamma1", "values": f"{s(gamma1)}, {s(2.0)}"}
        configs["sweep_sigma11"] = {"model": model, "sweep": gamma1s}
        configs["sweep_sigma11_t_max"] = {"model": model,
                                          "sweep": {**gamma1s, "t_max": s(5.0, -1)}}
        configs["sweep_p_trapped"] = {
            "model": {key: value for key, value in model.items() if key != "y"},
            "sweep": {"axis": "y", "values": "0.5, 1, 3", "report": "p_trapped"}}
    else:
        # the dwell time (gamma1 + gamma2) / (4 g12^2) and the fits it
        # windows keep their bits while the mixing's square stays normal
        g12 = epsilon * math.sqrt(y) / (1.0 + y)
        if not -1000 <= 2 * k + math.frexp(4.0 * g12 * g12)[1] <= 1000:
            return configs
        configs["dwell"] = {"model": model}
        configs["sweep_fitted_tau"] = {"model": model,
                                       "sweep": {"axis": "epsilon",
                                                 "values": f"{s(epsilon)}, {s(0.25)}",
                                                 "report": "fitted_tau"}}
        configs["sweep_fitted_rate"] = {"model": model,
                                        "sweep": {"axis": "gamma1",
                                                  "values": f"{s(gamma1)}, {s(0.5)}",
                                                  "report": "fitted_rate"}}
    return configs


def _scaled_rows(rows, k):
    """CSV data ``rows`` (header first) with each column of ``_TIME_COLUMNS``
    times its power of ``2^k``, every float spelled as ``float.hex``."""
    header, *lines = rows.decode().splitlines()
    names = header.split(",")
    out = []
    for line in lines:
        cells = []
        for name, cell in zip(names, line.split(",")):
            power = _TIME_COLUMNS.get(name)
            cells.append(cell if power is None else math.ldexp(float(cell), power * k).hex())
        out.append(cells)
    return out


@pytest.mark.parametrize("base", _TIME_SCALE_BASES)
def test_outputs_keep_their_bits_under_an_exact_time_scale(base):
    # Energies and widths times 2^k with times 2^-k leave every dimensionless
    # output as it is, and scale every time by 2^-k and every rate by 2^k;
    # squares of widths or of H_eff's entries, and the fit's sum of squared
    # times, leave the float range at some k where none of the inputs does.
    reference = {name: _scaled_rows(_data_rows(name, config), 0)
                 for name, config in _time_scaled_configs(base, 0).items()}
    checked = 0
    for k in itertools.chain(range(-1000, 1001, 40), range(-1000, -900, 6),
                             range(900, 1001, 6), range(-560, -440, 6), range(440, 560, 6)):
        for name, config in _time_scaled_configs(base, k).items():
            assert _scaled_rows(_data_rows(name, config), -k) == reference[name], (name, k)
            checked += 1
    assert checked > 300


def test_fermions_two_electron_csv(tmp_path):
    cfg = write_config(tmp_path, "[fermions]\nop = two_electron\ny = 4.0\n")
    out = tmp_path / "fermi.csv"
    assert main(["fermions", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == [
        "reservoir_count",
        "probability",
        "occupation",
        "re_amplitude",
        "im_amplitude",
    ]
    table = {row[2]: float(row[3]) for row in rows}
    assert table["10"] == pytest.approx(2.0 / math.sqrt(5.0))
    assert table["01"] == pytest.approx(-1.0 / math.sqrt(5.0))
    assert all(row[0] == "1" and float(row[1]) == 1.0 for row in rows)


def test_width_style_rejects_level_energies(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[fermions]\nop = two_electron_parallel\n\n"
        "[model]\ngamma1 = 1.0\ny = 1.0\nyprime = 1.0\nu = 2.0\ne2 = 2.0\n",
    )
    out = tmp_path / "fermi.json"
    code = main(["fermions", "--config", cfg, "--out", str(out), "--format", "json"])
    assert code == 2
    assert "model.e2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "op, model, message",
    [
        ("two_electron_parallel", "omega1 = 0\nomega2 = 1\n",
         "config error: model.omega1, model.omega2: both wells must couple to the reservoir"),
        ("three_electron", "gamma1 = 1\ny = 0\n",
         "config error: model.gamma1, model.y: both wells must couple to the reservoir"),
        # misaligned wells keep no three-electron state, whatever the widths
        ("three_electron", "gamma1 = 1\ny = 0\nepsilon = 1\n",
         "error: scenario 'fermions': bright-sector levels are misaligned"),
    ],
)
def test_parallel_fermion_ops_refuse_a_vanishing_width(tmp_path, capsys, op, model, message):
    # the first two ended in exit 1, naming no key
    cfg = write_config(tmp_path, f"[fermions]\nop = {op}\n[model]\n{model}yprime = 0.5\n")
    out = tmp_path / "fermi.csv"
    code = main(["fermions", "--config", cfg, "--out", str(out)])
    assert code == (1 if message.startswith("error") else 2)
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_fermions_parallel_width_style_resonance(tmp_path):
    # resonance E2 = E1 + U expressed through the detuning: epsilon = -U
    cfg = write_config(
        tmp_path,
        "[fermions]\nop = two_electron_parallel\n\n"
        "[model]\ngamma1 = 1.0\ny = 4.0\nyprime = 1.0\nu = 2.0\nepsilon = -2.0\n",
    )
    out = tmp_path / "fermi.json"
    assert main(["fermions", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    probs = {b["reservoir_count"]: b["probability"] for b in payload["branches"]}
    assert probs[0] == pytest.approx(0.8)
    assert probs[1] == pytest.approx(0.2)


def test_fermions_parallel_coupling_style(tmp_path):
    omega = 1.0 / math.sqrt(2.0 * math.pi)
    cfg = write_config(
        tmp_path,
        "[fermions]\nop = two_electron_parallel\n\n"
        f"[model]\nomega1 = {omega}\nomega2 = {omega}\n"
        "e1 = 0.0\ne2 = 2.0\nyprime = 1.0\nu = 2.0\n",
    )
    out = tmp_path / "fermi.json"
    assert main(["fermions", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    branches = payload["branches"]
    assert [b["reservoir_count"] for b in branches] == [0, 1]
    assert branches[0]["probability"] == pytest.approx(0.5)
    assert branches[1]["probability"] == pytest.approx(0.5)
    assert payload["manifest"]["parameters"]["model.U"] == pytest.approx(2.0)


def test_bosons_emission_csv(tmp_path):
    cfg = write_config(tmp_path, "[bosons]\nlaw = emission\nn1 = 1\nn2 = 1\ny = 1.0\n")
    out = tmp_path / "bosons.csv"
    assert main(["bosons", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["m", "probability"]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert [float(r[1]) for r in rows] == pytest.approx([0.5, 0.0, 0.5])


@pytest.mark.parametrize(
    "text, keys, product",
    [
        ("law = emission\nn1 = 500\nn2 = 500\ny = 1/2\n",
         "bosons.n1, bosons.n2, bosons.y", 1000**4 * 3**3),
        # n2 is 1 by default: 82 bosons at 27 + 30 bits
        ("law = emission\nn1 = 81\ny = 0.123456789\n",
         "bosons.n1, bosons.n2, bosons.y", 82**4 * 57**3),
        ("law = one_well\nn = 53\ny = 1e-30\n", "bosons.n, bosons.y", 53**4 * 101**3),
        ("law = retained_split\nn_retained = 10\ny = 1e308\n",
         "bosons.n_retained, bosons.y", 10**4 * 1025**3),
    ],
    ids=["emission", "emission_default_n2", "one_well", "retained_split"],
)
def test_boson_work_bound_refuses_before_any_law(tmp_path, capsys, monkeypatch, text, keys,
                                                 product):
    # a law's time grows about as count^2 x bits^1.5, with the bits of y = p/q
    limit = darkwells.cli._MAX_BOSON_WORK
    assert product > limit
    cfg = write_config(tmp_path, "[bosons]\n" + text)

    def fail(*args, **kwargs):
        raise AssertionError("no law may run")

    for name in ("rotate_fock", "one_well_distribution", "retained_state_split"):
        monkeypatch.setattr(darkwells.cli, name, fail)
    out = tmp_path / "x.csv"
    assert main(["bosons", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {keys}: "), err
    assert f"count^4 x bits^3 = {product}, above the work limit of {limit}" in err, err
    assert not out.exists()


def test_boson_work_bound_accepts_its_limit(tmp_path):
    # 1000 bosons at 1 + 1 bits is the limit itself; 80 + 1 bosons at 57
    # bits, 52 at 101 bits and 9 at 1025 bits lie just below it
    assert darkwells.cli._MAX_BOSON_WORK == darkwells.cli._MAX_BOSONS**4 * 2**3
    for text in (
        "law = emission\nn1 = 500\nn2 = 500\ny = 1\n",
        "law = emission\nn1 = 80\ny = 0.123456789\n",
        "law = one_well\nn = 52\ny = 1e-30\n",
        "law = retained_split\nn_retained = 9\ny = 1e308\n",
        "law = retained_split\nn_retained = 2\ny = 1e308\n",
        "law = retained_split\nn_retained = 1\ny = 1e-320\n",
        "law = equal_fill\nn = 1000\n",
    ):
        cfg = write_config(tmp_path, "[bosons]\n" + text)
        assert main(["bosons", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0, text


@pytest.mark.parametrize(
    "law, counts, name",
    [
        ("emission", "n1 = 2\nn2 = 1\n", "rotate_fock"),
        ("one_well", "n = 3\n", "one_well_distribution"),
        ("retained_split", "n_retained = 2\n", "retained_state_split"),
    ],
)
def test_bosons_ratio_is_read_as_written(tmp_path, monkeypatch, law, counts, name):
    # 0.1 reaches the exact law as 1/10, not as the float's 2^55 denominator
    seen = []
    law_fn = getattr(darkwells.cli, name)

    def record(*args, **kwargs):
        seen.append(args[-1])
        return law_fn(*args, **kwargs)

    monkeypatch.setattr(darkwells.cli, name, record)
    outputs = []
    for y in ("0.1", "1/10", "0.100"):
        cfg = write_config(tmp_path, f"[bosons]\nlaw = {law}\n{counts}y = {y}\n")
        out = tmp_path / "b.csv"
        assert main(["bosons", "--config", cfg, "--out", str(out)]) == 0
        assert type(seen[-1]) is Fraction and seen[-1] == Fraction(1, 10)
        outputs.append(out.read_bytes())
        manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        # the manifest records the ratio's float, as it did before
        assert manifest["parameters"]["bosons.y"] == 0.1
    assert len(seen) == 3
    # every spelling of one ratio gives the same bytes
    assert outputs[1:] == outputs[:1] * 2


@pytest.mark.parametrize("y", ["1e1000000", "1e99999999", "-1e99999999", "0e99999999"])
def test_bosons_ratio_past_the_float_range_is_refused_without_expanding_it(
        tmp_path, capsys, monkeypatch, y):
    # Fraction expands a decimal exponent into an exact integer: 1e1000000
    # took 0.13 s and 1e99999999 would take minutes before its refusal
    monkeypatch.setattr(darkwells.cli, "Fraction", bounded_fraction)
    cfg = write_config(tmp_path, f"[bosons]\ny = {y}\n")
    assert main(["bosons", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: bosons.y: ")


@pytest.mark.parametrize(
    "y, message",
    [
        # these read "must be positive, got 0.0" and "cannot parse ... as a
        # finite ratio", though the values are positive and parse
        ("1e-1000000", "'1e-1000000' lies below the float range"),
        ("1e-400", "'1e-400' lies below the float range"),
        ("1e400", "'1e400' lies above the float range"),
        # positivity is read from the exact value
        ("-1e-400", "must be positive, got -0.0"),
        ("0", "must be positive, got 0.0"),
        ("-1", "must be positive, got -1.0"),
        ("nan", "cannot parse 'nan' as a finite ratio"),
        ("inf", "cannot parse 'inf' as a finite ratio"),
        ("text", "cannot parse 'text' as a finite ratio"),
    ],
)
def test_bosons_ratio_refusal_says_why(tmp_path, capsys, y, message):
    cfg = write_config(tmp_path, f"[bosons]\ny = {y}\n")
    assert main(["bosons", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"config error: bosons.y: {message}\n"


def test_sweep_single_axis(tmp_path):
    cfg = write_config(
        tmp_path,
        "[sweep]\naxis = y\nvalues = 0.1, 1, 10\nreport = sigma11_asymptotic\n\n"
        "[model]\ngamma1 = 1.0\n",
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["y", "sigma11_asymptotic"]
    for row in rows:
        y = float(row[0])
        assert float(row[1]) == pytest.approx(y * y / (1 + y) ** 2, abs=1e-6)


def test_sweep_two_axes_product_order(tmp_path):
    cfg = write_config(
        tmp_path,
        "[sweep]\naxis = y\nvalues = 1, 4\naxis2 = gamma1\nvalues2 = 1, 2\n"
        "report = p_trapped\n",
    )
    out = tmp_path / "sweep2.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["y", "gamma1", "p_trapped"]
    grid = [(float(r[0]), float(r[1])) for r in rows]
    assert grid == [(1.0, 1.0), (1.0, 2.0), (4.0, 1.0), (4.0, 2.0)]
    for row in rows:
        y = float(row[0])
        assert float(row[2]) == pytest.approx(y / (1 + y), rel=1e-12)


_SWEEP_T_MAX_MODEL = "[model]\ngamma1 = 1.0\nepsilon = {}\n[sweep]\naxis = y\nvalues = 0.5, 2\n"


def test_sweep_t_max_is_recorded_in_the_manifest(tmp_path):
    # the key changes the rows, so it must change the manifest digest too
    digests, rows = [], []
    for extra in ("", "t_max = 5.0\n"):
        cfg = write_config(tmp_path, _SWEEP_T_MAX_MODEL.format(0.0) + extra)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        digest, _, cells = read_csv(out)
        digests.append(digest)
        rows.append(cells)
        params = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["parameters"]
        assert params.get("sweep.t_max") == (5.0 if extra else None)
    assert rows[0] != rows[1] and digests[0] != digests[1]


@pytest.mark.parametrize("report", ["p_trapped", "fitted_tau", "fitted_rate"])
def test_sweep_t_max_is_refused_where_unread(tmp_path, capsys, report):
    # trapped fractions need aligned wells, decay fits detuned ones
    model = _SWEEP_T_MAX_MODEL.format(0.0 if report == "p_trapped" else 0.3)
    cfg = write_config(tmp_path, f"{model}report = {report}\nt_max = 5.0\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "sweep.t_max:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_output_path_problems_end_without_traceback(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "[model]\ngamma1 = 1.0\nepsilon = 0.3\n")
    calls = []
    dwell, sections = darkwells.cli._KINDS["dwell"]

    def record(scenario):
        calls.append(scenario)
        return dwell(scenario)

    monkeypatch.setitem(darkwells.cli._KINDS, "dwell", (record, sections))
    # a missing directory is refused before anything is computed
    missing = tmp_path / "nodir" / "x.csv"
    assert main(["dwell", "--config", cfg, "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output.path:") and "nodir" in err
    assert not calls and not missing.parent.exists()
    # any other failure to write is one line and exit 1
    (tmp_path / "adir").mkdir()
    assert main(["dwell", "--config", cfg, "--out", str(tmp_path / "adir")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {tmp_path / 'adir'}: Is a directory\n"
    assert len(calls) == 1


def test_config_error_paths(tmp_path, capsys, monkeypatch):
    def run_expecting(code, args):
        assert main(args) == code
        return capsys.readouterr().err

    cfg = write_config(tmp_path, "[model]\ngamma3 = 1.0\n", name="typo.ini")
    err = run_expecting(2, ["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert "model.gamma3" in err

    cfg = write_config(tmp_path, "[sweep]\nvalues = 1, 2\n", name="noaxis.ini")
    err = run_expecting(2, ["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert "sweep.axis" in err

    cfg = write_config(tmp_path, "[scenario]\nkind = evolve\n", name="kind.ini")
    err = run_expecting(2, ["dwell", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert "scenario.kind" in err

    cfg = write_config(tmp_path, "[extras]\nfoo = 1\n", name="sect.ini")
    err = run_expecting(2, ["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert "extras" in err

    cfg = write_config(
        tmp_path, "[model]\ngamma2 = 2.0\ny = 2.0\n", name="both.ini"
    )
    err = run_expecting(2, ["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert "model.y" in err

    cfg = write_config(
        tmp_path, "[initial]\nb1 = 1.0\nb2 = 1.0\n", name="norm.ini"
    )
    err = run_expecting(2, ["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert "initial.b1" in err

    cfg = write_config(
        tmp_path,
        "[sweep]\naxis = y\nvalues = 1, 2, 3\nmax_points = 2\n",
        name="cap.ini",
    )
    err = run_expecting(2, ["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert "exceed" in err

    # a cap below 1 is refused as itself, not as the grid it caps
    for points in ("0", "-5"):
        cfg = write_config(
            tmp_path, f"[sweep]\naxis = y\nvalues = 1\nmax_points = {points}\n", name="cap.ini"
        )
        err = run_expecting(2, ["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert f"config error: sweep.max_points: need at least 1 point, got {points}" in err

    cfg = write_config(tmp_path, "[sweep]\naxis = y\nvalues = ,\n", name="empty.ini")
    err = run_expecting(2, ["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert "sweep.values" in err

    for key in ("b1", "b2"):
        cfg = write_config(tmp_path, f"[initial]\n{key} = nan\n", name="nan.ini")
        err = run_expecting(2, ["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert f"initial.{key}" in err

    # sweep.t_max is checked once, before any point is evaluated
    for t_max in ("-3", "0"):
        cfg = write_config(
            tmp_path,
            f"[sweep]\naxis = y\nvalues = 1, 2\nt_max = {t_max}\n",
            name="sweep_t.ini",
        )
        err = run_expecting(2, ["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert "sweep.t_max" in err

    for n_levels in (401, 4):
        cfg = write_config(
            tmp_path, f"[oracle]\nn_levels = {n_levels}\n", name="levels.ini"
        )
        err = run_expecting(
            2, ["oracle-compare", "--config", cfg, "--out", str(tmp_path / "x.csv")]
        )
        assert "oracle.n_levels" in err

    # Out-of-domain values name their key; boson counts past the cap are
    # refused before any law is evaluated, and the cap itself is allowed.
    cap = darkwells.cli._MAX_BOSONS
    cfg = write_config(tmp_path, f"[bosons]\nlaw = one_well\nn = {cap}\n", name="at_cap.ini")
    run_expecting(0, ["bosons", "--config", cfg, "--out", str(tmp_path / "at_cap.csv")])
    # a zero width decouples one well and stays in the domain
    for kind, text in (
        ("evolve", "[model]\ny = 0\n"),
        ("asymptotic", "[model]\ngamma1 = 0\ngamma2 = 1\n"),
        ("sweep", "[sweep]\naxis = gamma1\nvalues = 0, 1\n"),
        ("fermions", "[fermions]\ny = 0\n"),
    ):
        cfg = write_config(tmp_path, text, name="zero.ini")
        run_expecting(0, [kind, "--config", cfg, "--out", str(tmp_path / "zero.csv")])

    def refuse(*args, **kwargs):
        raise AssertionError("scenario computed before its config was checked")

    for name in ("rotate_fock", "equal_fill_even_distribution", "one_well_distribution",
                 "retained_state_split", "dwell_time", "asymptotic_probs",
                 "two_electron_asymptotic", "two_electron_parallel_asymptotic",
                 "three_electron_asymptotic", "master_trajectory"):
        monkeypatch.setattr(darkwells.cli, name, refuse)
    # a section the kind never reads is refused, not ignored
    for kind, text, section in (
        ("bosons", "[bosons]\nn1 = 2\n[model]\ngamma1 = 5\nomega1 = 3\n", "model"),
        ("bosons", "[grid]\nt_max = 9\n", "grid"),
        ("fermions", "[fermions]\nop = two_electron\n[model]\ngamma1 = 1\n", "model"),
        ("fermions", "[model]\ny = 2\n", "model"),
        ("dwell", "[model]\nepsilon = 0.3\n[grid]\nt_max = 9\n", "grid"),
        ("dwell", "[initial]\nb1 = 1\n", "initial"),
        ("asymptotic", "[grid]\nt_max = 9\n", "grid"),
        ("sweep", "[sweep]\naxis = y\nvalues = 1\n[initial]\nb1 = 1\n", "initial"),
    ):
        cfg = write_config(tmp_path, text, name="unread.ini")
        err = run_expecting(2, [kind, "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert f"config error: {section}: " in err and "does not read" in err, (text, err)
    # a key the chosen op or law does not read is refused, not ignored
    for kind, text, key, reader in (
        ("fermions", "[fermions]\nop = three_electron\ny = 7\neta = -1\n[model]\nyprime = 1\n",
         "fermions.eta", "fermions.op = three_electron"),
        ("fermions", "[fermions]\nop = two_electron_parallel\ny = 2\n",
         "fermions.y", "fermions.op = two_electron_parallel"),
        ("bosons", "[bosons]\nlaw = equal_fill\nn = 4\nn1 = 9\nn_retained = 3\ny = 5\n",
         "bosons.n1", "bosons.law = equal_fill"),
        ("bosons", "[bosons]\nlaw = equal_fill\ny = 5\n", "bosons.y", "bosons.law = equal_fill"),
        ("bosons", "[bosons]\nn = 4\n", "bosons.n", "bosons.law = emission"),
        ("bosons", "[bosons]\nlaw = one_well\neta = -1\n", "bosons.eta", "bosons.law = one_well"),
        ("bosons", "[bosons]\nlaw = one_well\nn_retained = 2\n", "bosons.n_retained",
         "bosons.law = one_well"),
        ("bosons", "[bosons]\nlaw = retained_split\nn = 2\n", "bosons.n",
         "bosons.law = retained_split"),
    ):
        cfg = write_config(tmp_path, text, name="unread_key.ini")
        err = run_expecting(2, [kind, "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert f"config error: {key}: {reader} does not read this key" in err, (text, err)
    # a width too large for a finite coupling names the keys that set it
    for kind, text, keys in (
        ("evolve", "[model]\ngamma1 = 1e200\ny = 1e200\n", "model.gamma1, model.y"),
        ("evolve", "[model]\ngamma1 = 1\nrho = 1e-320\n", "model.gamma1, model.rho"),
        ("dwell", "[model]\ngamma2 = 1e300\nrho = 1e-10\nepsilon = 1\n",
         "model.gamma2, model.rho"),
        ("sweep", "[model]\ny = 1e200\n[sweep]\naxis = gamma1\nvalues = 1, 1e200\n",
         "sweep.values, model.y"),
        # keys left at their defaults are not named
        ("evolve", "[model]\nrho = 1e-320\n", "model.rho"),
        ("sweep", "[model]\nrho = 1e-320\n[sweep]\naxis = y\nvalues = 1, 2\n", "model.rho"),
        # a finite coupling whose width 2 pi omega^2 rho overflows, refused
        # before [grid] is read
        ("evolve", "[model]\nomega1 = 1e200\nomega2 = 1\n[grid]\nt_max = -1\n",
         "model.omega1"),
        ("asymptotic", "[model]\nomega1 = 1\nomega2 = 1e150\nrho = 1e10\n",
         "model.omega2, model.rho"),
    ):
        cfg = write_config(tmp_path, text, name="overflow.ini")
        err = run_expecting(2, [kind, "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert f"config error: {keys}: width gamma" in err, (text, err)
    # both couplings vanishing names the two keys that set them
    for kind, text, keys in (
        ("evolve", "[model]\ngamma1 = 0\ny = 1\n", ("model.gamma1", "model.y")),
        ("dwell", "[model]\ngamma2 = 0\ngamma1 = 0\nepsilon = 1\n",
         ("model.gamma1", "model.gamma2")),
        ("asymptotic", "[model]\nomega1 = 0\nomega2 = 0\n", ("model.omega1", "model.omega2")),
        ("sweep", "[model]\ny = 0\n[sweep]\naxis = gamma1\nvalues = 1, 0\n",
         ("sweep.values", "model.y")),
        ("sweep", "[model]\ngamma1 = 0\n[sweep]\naxis = epsilon\nvalues = 1\n"
                  "axis2 = gamma2\nvalues2 = 0\n", ("model.gamma1", "sweep.values2")),
    ):
        cfg = write_config(tmp_path, text, name="degenerate.ini")
        err = run_expecting(2, [kind, "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert f"config error: {keys[0]}, {keys[1]}: degenerate system" in err, (text, err)
    # a second width left at its default is the config's gamma1
    cfg = write_config(tmp_path, "[model]\ngamma1 = 0\n", name="degenerate.ini")
    err = run_expecting(2, ["evolve", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert "config error: model.gamma1: degenerate system" in err, err
    for kind, text, key in (
        # the model sets the band and the dimension the propagator
        ("oracle-compare", "[oracle]\ncutoff = 8.0\n", "oracle.cutoff"),
        ("oracle-compare", "[oracle]\nmethod = dense\n", "oracle.method"),
        ("bosons", "[bosons]\nn1 = -1\n", "bosons.n1"),
        ("bosons", "[bosons]\nn2 = -1\n", "bosons.n2"),
        ("bosons", "[bosons]\nn1 = 0\nn2 = 0\n", "bosons.n1, bosons.n2"),
        ("bosons", "[bosons]\ny = 0\n", "bosons.y"),
        ("bosons", "[bosons]\nlaw = one_well\ny = -1\n", "bosons.y"),
        ("bosons", "[bosons]\nlaw = retained_split\ny = 0\n", "bosons.y"),
        ("bosons", "[bosons]\ny = nan\n", "bosons.y"),
        ("bosons", "[bosons]\nlaw = one_well\ny = inf\n", "bosons.y"),
        ("bosons", "[bosons]\ny = 1e400\n", "bosons.y"),
        ("bosons", "[bosons]\ny = 1e-400\n", "bosons.y"),
        ("bosons", "[bosons]\ny = 1/0\n", "bosons.y"),
        ("bosons", "[bosons]\nlaw = retained_split\ny = two\n", "bosons.y"),
        ("bosons", "[bosons]\nlaw = equal_fill\nn = 0\n", "bosons.n"),
        ("bosons", "[bosons]\nlaw = one_well\nn = -3\n", "bosons.n"),
        ("bosons", "[bosons]\nlaw = retained_split\nn_retained = -1\n", "bosons.n_retained"),
        ("bosons", "[bosons]\nn1 = 100000\nn2 = 100000\n", "bosons.n1"),
        ("bosons", f"[bosons]\nn1 = {cap // 2}\nn2 = {cap // 2 + 1}\n",
         "bosons.n1, bosons.n2"),
        ("bosons", "[bosons]\nlaw = equal_fill\nn = 100000\n", "bosons.n"),
        ("bosons", f"[bosons]\nlaw = one_well\nn = {cap + 1}\n", "bosons.n"),
        ("bosons", "[bosons]\nlaw = retained_split\nn_retained = 100000\n",
         "bosons.n_retained"),
        ("fermions", "[fermions]\ny = -1\n", "fermions.y"),
        ("evolve", "[model]\nrho = 0\n", "model.rho"),
        ("evolve", "[model]\nrho = -1\n", "model.rho"),
        ("evolve", "[model]\nomega1 = 1\nomega2 = 1\nrho = 0\n", "model.rho"),
        ("evolve", "[model]\nlambda_cutoff = 0\n", "model.lambda_cutoff"),
        ("oracle-compare", "[model]\nlambda_cutoff = -5\n", "model.lambda_cutoff"),
        # only the discretized oracle has a band to cut off
        ("evolve", "[model]\ngamma1 = 1.0\ny = 2.0\nlambda_cutoff = 3.0\n",
         "model.lambda_cutoff"),
        ("asymptotic", "[model]\nlambda_cutoff = 3.0\n", "model.lambda_cutoff"),
        ("dwell", "[model]\nepsilon = 0.2\nlambda_cutoff = 3.0\n", "model.lambda_cutoff"),
        ("sweep", "[model]\nlambda_cutoff = 3.0\n[sweep]\naxis = y\nvalues = 1, 2\n",
         "model.lambda_cutoff"),
        ("fermions", "[fermions]\nop = two_electron_parallel\n[model]\nyprime = 0.7\n"
                     "u = 1.5\nlambda_cutoff = 3.0\n", "model.lambda_cutoff"),
        ("fermions", "[fermions]\nop = three_electron\n[model]\nyprime = 0.7\n"
                     "lambda_cutoff = 3.0\n", "model.lambda_cutoff"),
        ("evolve", "[model]\ngamma1 = -1\n", "model.gamma1"),
        ("dwell", "[model]\ngamma2 = -0.5\nepsilon = 0.1\n", "model.gamma2"),
        ("asymptotic", "[model]\ny = -1\n", "model.y"),
        ("fermions", "[fermions]\nop = three_electron\n[model]\nyprime = -1\n",
         "model.yprime"),
        ("fermions", "[fermions]\nop = two_electron_parallel\n[model]\nyprime = 0\n",
         "model.yprime"),
        ("sweep", "[sweep]\naxis = y\nvalues = 1, -2\n", "sweep.values"),
        ("sweep", "[sweep]\naxis = epsilon\nvalues = 0.1\naxis2 = gamma1\nvalues2 = -1\n",
         "sweep.values2"),
        ("sweep", "[sweep]\naxis = gamma2\nvalues = 1, nan\n", "sweep.values"),
    ):
        cfg = write_config(tmp_path, text, name="domain.ini")
        err = run_expecting(2, [kind, "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert key + ":" in err, (text, err)

    err = run_expecting(
        2, ["evolve", "--config", str(tmp_path / "missing.ini"), "--out", "x.csv"]
    )
    assert "config" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "kind, text, key",
    [
        ("evolve", "[model]\nomega1 = 1\nomega2 = 1\nepsilon = 5\n", "model.epsilon"),
        ("dwell", "[model]\nomega1 = 1\nomega2 = 1\ne1 = 0.1\neta = -1\n", "model.eta"),
        ("evolve", "[model]\nu = 2\n", "model.u"),
        ("asymptotic", "[model]\nomega1 = 1\nomega2 = 1\nu = 2\n", "model.u"),
        ("fermions", "[fermions]\nop = three_electron\n[model]\nu = 2\n", "model.yprime"),
        ("sweep", "[sweep]\naxis = y\nvalues = 1\n[model]\nomega1 = 1\nomega2 = 1\n",
         "model.omega1"),
        ("sweep", "[sweep]\naxis = y\nvalues = 1\n[model]\nomega2 = 1\n", "model.omega2"),
        ("sweep", "[sweep]\naxis = y\nvalues = 1\n[model]\ne1 = 1\n", "model.e1"),
        ("sweep", "[sweep]\naxis = y\nvalues = 1\n[model]\nyprime = 1\n", "model.yprime"),
        ("sweep", "[sweep]\naxis = y\nvalues = 1\n[model]\nu = 1\n", "model.u"),
        ("sweep", "[sweep]\naxis = u\nvalues = 1, 2\n", "sweep.axis"),
        ("sweep", "[sweep]\naxis = yprime\nvalues = 1, 2\n[model]\nyprime = 1\n",
         "sweep.axis"),
        ("sweep", "[sweep]\naxis = y\nvalues = 1\naxis2 = gamma2\nvalues2 = 2\n",
         "sweep.axis2"),
        ("evolve", "[model]\nlambda_cutoff = 0\n", "model.lambda_cutoff"),
        ("evolve", "[model]\ngamma1 = -1\n", "model.gamma1"),
        ("evolve", "[model]\ny = -1\n", "model.y"),
        ("fermions", "[fermions]\nop = three_electron\n[model]\nyprime = -1\n",
         "model.yprime"),
        ("sweep", "[sweep]\naxis = y\nvalues = 1, -2\n", "sweep.values"),
    ],
)
def test_refused_model_keys_are_named_before_any_model_is_built(
    tmp_path, capsys, monkeypatch, kind, text, key
):
    def refuse(*args, **kwargs):
        raise AssertionError("model built before its keys were checked")

    for name in ("WellPair", "ParallelWellPair"):
        monkeypatch.setattr(darkwells.cli, name, refuse)
    cfg = write_config(tmp_path, text)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert key + ":" in capsys.readouterr().err


# A run per kind that reads [model], per style: the extra config sections
# and the model keys every run of that kind needs.
_MODEL_KINDS = {
    ("evolve", "width"): ({}, "[grid]\nt_max = 2.0\nn_points = 5\n"),
    ("evolve", "coupling"): ({"omega1": "1.0", "omega2": "0.8"},
                             "[grid]\nt_max = 2.0\nn_points = 5\n"),
    ("asymptotic", "width"): ({}, ""),
    ("asymptotic", "coupling"): ({"omega1": "1.0", "omega2": "0.8"}, ""),
    ("dwell", "width"): ({"epsilon": "0.2"}, ""),
    ("dwell", "coupling"): ({"omega1": "1.0", "omega2": "0.8", "e1": "0.2"}, ""),
    ("oracle-compare", "width"): ({"lambda_cutoff": "8.0"},
                                  "[grid]\nt_max = 1.0\nn_points = 3\n[oracle]\nn_levels = 64\n"),
    ("oracle-compare", "coupling"): ({"omega1": "1.0", "omega2": "0.8", "lambda_cutoff": "8.0"},
                                     "[grid]\nt_max = 1.0\nn_points = 3\n[oracle]\nn_levels = 64\n"),
    ("fermions", "width"): ({"yprime": "1.0"}, "[fermions]\nop = two_electron_parallel\n"),
    ("fermions", "coupling"): ({"omega1": "1.0", "omega2": "0.8", "yprime": "1.0"},
                               "[fermions]\nop = two_electron_parallel\n"),
    # coupling keys in a sweep are covered by adding them to the width run
    ("sweep", "width"): ({}, "[sweep]\naxis = {axis}\nvalues = 0.1, 0.2\nt_max = 1.0\n"),
}
# A valid value other than each key's default and other than the runs' own.
_MODEL_VALUES = {"gamma1": "1.5", "gamma2": "2.0", "y": "3.0", "epsilon": "0.3", "eta": "-1",
                 "e1": "0.3", "e2": "-0.3", "omega1": "0.5", "omega2": "-0.7", "rho": "0.5",
                 "lambda_cutoff": "50.0", "yprime": "0.8", "u": "1.5"}


@pytest.mark.parametrize("key", sorted(darkwells.cli._ALLOWED_KEYS["model"]))
@pytest.mark.parametrize("kind, style", sorted(_MODEL_KINDS))
def test_no_model_key_is_silently_dropped(tmp_path, capsys, kind, style, key):
    # Setting a key either exits 2 naming it or shows in the manifest.
    model, extra = _MODEL_KINDS[kind, style]
    value = _MODEL_VALUES[key]
    if kind == "asymptotic" and key in ("epsilon", "e1", "e2"):
        value = "-0.0"  # the only aligned detuning besides the default
    # a sweep axis overrides its own model key, so the axis is another one
    extra = extra.format(axis="gamma1" if key == "epsilon" else "epsilon")

    def run(model):
        lines = "".join(f"{k} = {v}\n" for k, v in model.items())
        cfg = write_config(tmp_path, f"[model]\n{lines}{extra}")
        out = tmp_path / "run.csv"
        code = main([kind, "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        if code:
            return code, err
        # as text: -0.0 == 0.0, but the manifest spells them apart
        params = json.loads((tmp_path / "run.csv.manifest.json").read_text())["parameters"]
        return code, json.dumps(params, sort_keys=True)

    code, base = run(model)
    assert code == 0, base
    code, got = run({**model, key: value})
    if code == 0:
        assert got != base
        return
    named = {key}
    if style == "width" and key in ("omega1", "omega2"):
        # an omega turns the model to coupling style, which needs both
        # omegas and refuses the width keys the run already has
        named |= {"omega1", "omega2"} | set(model)
    assert code == 2 and any(f"model.{k}:" in got for k in named), got


_WIDTH_AXES = ("y", "epsilon", "gamma1", "gamma2")


@pytest.mark.parametrize(
    "model", [{}, {"y": 2.5}, {"gamma2": 0.7}], ids=["neither", "y", "gamma2"]
)
@pytest.mark.parametrize(
    "axes",
    [(axis,) for axis in _WIDTH_AXES]
    + [pair for pair in itertools.permutations(_WIDTH_AXES, 2) if set(pair) != {"y", "gamma2"}],
    ids="-".join,
)
def test_sweep_points_follow_the_width_rule(tmp_path, monkeypatch, model, axes):
    # every point's pair is the one the override rule in tests/oracles.py
    # gives; y and gamma2 together are refused, a case of the refusal test
    grids = {"y": [0.5, 3.0], "epsilon": [-0.1, 0.4], "gamma1": [0.8, 1.7],
             "gamma2": [0.3, 2.2]}
    model = {"gamma1": 1.3, "eta": -1, "epsilon": 0.2, **model}
    sweep = {"axis": axes[0], "values": grids[axes[0]], "t_max": 1.0}
    if len(axes) == 2:
        sweep.update(axis2=axes[1], values2=grids[axes[1]])
    text = "".join(
        f"[{name}]\n" + "".join(
            f"{k} = {', '.join(map(repr, v)) if isinstance(v, list) else v}\n"
            for k, v in section.items()
        )
        for name, section in (("model", model), ("sweep", sweep))
    )
    built = []

    def record(pairs, initial, times):
        built.extend(pairs)
        return evolve_sigma(pairs, initial, times)

    evolve_sigma = darkwells.cli._evolve_sigma
    monkeypatch.setattr(darkwells.cli, "_evolve_sigma", record)
    render(build_scenario("sweep", load_config(write_config(tmp_path, text))))
    points = [[(axes[0], v1)] for v1 in grids[axes[0]]]
    if len(axes) == 2:
        points = [p + [(axes[1], v2)] for p in points for v2 in grids[axes[1]]]
    want = []
    for point in points:
        gamma1, gamma2, eta, epsilon = sweep_point_widths_reference(model, point)
        want.append(WellPair.from_widths(gamma1, gamma2, eta=eta, epsilon=epsilon))
    assert built == want


def test_sweep_manifest_records_the_model(tmp_path):
    cfg = write_config(
        tmp_path,
        "[model]\ngamma1 = 1.5\ny = 2.0\neta = -1\nepsilon = 0.25\nrho = 0.3\n"
        "[sweep]\naxis = gamma2\nvalues = 1, 2\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    params = json.loads((tmp_path / "s.csv.manifest.json").read_text())["parameters"]
    # y is overridden by the gamma2 axis, so it is not recorded
    assert {k: v for k, v in params.items() if k.startswith("model.")} == {
        "model.gamma1": 1.5, "model.eta": -1, "model.epsilon": 0.25, "model.rho": 0.3,
    }


def test_module_errors_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "[model]\nepsilon = 0.3\n")
    out = tmp_path / "asym.csv"
    assert main(["asymptotic", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "asymptotic" in err and "misaligned" in err
    assert not out.exists()

    cfg2 = write_config(tmp_path, "[model]\ngamma1 = 1.0\n", name="aligned.ini")
    assert main(["dwell", "--config", cfg2, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "dwell" in err


def test_oracle_compare_manifest_reports_convergence(tmp_path):
    cfg = write_config(
        tmp_path,
        "[model]\ngamma1 = 1.0\ngamma2 = 1.0\nlambda_cutoff = 8.0\n\n"
        "[grid]\nt_max = 2.0\nn_points = 5\n\n"
        "[oracle]\nn_levels = 64\n",
    )
    out = tmp_path / "cmp.json"
    assert main(["oracle-compare", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    report = payload["manifest"]["oracle"]
    assert report["n_levels"] == 64 and report["lambda_cutoff"] == 8.0
    assert report["method"] == "dense"
    params = payload["manifest"]["parameters"]
    assert params["model.lambda_cutoff"] == 8.0
    assert [key for key in params if key.startswith("oracle.")] == ["oracle.n_levels"]
    assert report["recurrence_exceeded"] is False
    assert report["max_abs_error_sigma11"] < 0.1
    assert payload["columns"] == ["t", "sigma11_reference", "sigma11_oracle", "abs_error"]


def test_scenario_validation_direct():
    with pytest.raises(ConfigError, match="unknown kind"):
        Scenario(kind="warp", sections={}, out="x.csv", fmt="csv")
    with pytest.raises(ConfigError, match="unknown format"):
        Scenario(kind="evolve", sections={}, out="x.csv", fmt="yaml")
    with pytest.raises(ConfigError, match="scenario.kind"):
        build_scenario("dwell", {"scenario": {"kind": "evolve"}})
    scn = build_scenario("evolve", {})
    assert scn.out == "evolve.csv" and scn.fmt == "csv"


def test_render_is_pure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scn = build_scenario("bosons", {"bosons": {"law": "one_well", "n": "2", "y": "4"}})
    result = render(scn)
    assert not (tmp_path / "bosons.csv").exists()
    assert set(result.files) == {"bosons.csv", "bosons.csv.manifest.json"}
    assert result.manifest["parameters"]["bosons.n"] == 2
    body = result.files["bosons.csv"].decode()
    assert f"# manifest-sha256 {result.manifest_sha256}" in body


def test_load_config_lowercases_keys(tmp_path):
    cfg = write_config(tmp_path, "[model]\nGamma1 = 2.0\n")
    sections = load_config(cfg)
    assert sections == {"model": {"gamma1": "2.0"}}


def _console_script():
    """Command and environment that run the ``darkwells`` console script.

    The installed script is used when it is on PATH.  Otherwise the same
    entry point runs as ``python -m darkwells``, with the absolute source
    directory of the imported package put in front of PYTHONPATH.
    """
    script = shutil.which("darkwells")
    if script is not None:
        return [script], None
    src = str(Path(darkwells.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "darkwells"], env


def test_module_entry_point_is_the_console_script(monkeypatch):
    calls = []

    def fake_main(argv=None):
        calls.append(argv)
        return 7

    monkeypatch.setattr(darkwells.cli, "main", fake_main)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("darkwells", run_name="__main__")
    assert exc.value.code == 7
    assert calls == [None]


def test_pyproject_console_script_target():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["darkwells"] == "darkwells.cli:main"


def test_console_script_version(tmp_path):
    command, env = _console_script()
    proc = subprocess.run(
        command + ["--version"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0
    assert "darkwells" in proc.stdout
    assert proc.stdout.strip() == f"darkwells {darkwells.__version__}"


def test_console_script_writes_same_bytes_as_api(tmp_path):
    cfg = write_config(tmp_path, "[bosons]\nlaw = equal_fill\nn = 2\n")
    out_api = tmp_path / "api.csv"
    assert main(["bosons", "--config", cfg, "--out", str(out_api)]) == 0
    out_cli = tmp_path / "cli.csv"
    command, env = _console_script()
    proc = subprocess.run(
        command + ["bosons", "--config", cfg, "--out", str(out_cli)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0
    assert f"wrote {out_cli}" in proc.stdout
    api_lines = out_api.read_text().splitlines()
    cli_lines = out_cli.read_text().splitlines()
    # data identical; manifests differ only through the recorded output path
    assert api_lines[1:] == cli_lines[1:]


def test_exported_names_resolve():
    # stale entries left behind by deletions: __all__ names and the
    # package's re-exports must all point at something real
    for info in pkgutil.iter_modules(darkwells.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"darkwells.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"darkwells.{info.name}.__all__: {name}"
    tree = ast.parse(Path(darkwells.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"darkwells.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"darkwells.{node.module}: {alias.name}"
                assert hasattr(darkwells, alias.asname or alias.name)


# slater_dot_rdm has no caller in the program; it stays beside
# slater_reservoir_distribution, which perfbench/checks.py imports, so the
# two Slater shortcuts stay or move together
_EXPORTS_WITHOUT_CALLER = ["oracle.slater_dot_rdm"]


def test_every_exported_name_has_a_caller():
    # a public name that only tests call belongs in tests/oracles.py or
    # nowhere: every __all__ name needs a word match in src/, tools/ or
    # perfbench/ outside its own definition, its __all__ entry and the
    # package's re-exports.  Names that only mention each other have no
    # caller either, so a match counts only outside the definitions of the
    # names not yet found: every exported definition starts blanked, and
    # each name found brings its definition back, until nothing changes.
    root = Path(__file__).resolve().parents[1]
    package = Path(darkwells.__file__).resolve().parent
    sources = {
        path: path.read_text().splitlines()
        for folder in ("src", "tools", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        if path != package / "__init__.py"
    }
    definitions = {}  # (path, name) -> the lines of its definition
    for path, lines in sources.items():
        if path.parent != package:
            continue
        spans, exported = {}, []
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                spans[node.name] = (first, node.end_lineno)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        spans[target.id] = (node.lineno, node.end_lineno)
                        if target.id == "__all__":
                            exported = ast.literal_eval(node.value)
        if not exported:
            continue  # __main__ exports nothing
        first, last = spans["__all__"]
        lines[first - 1 : last] = [""] * (last - first + 1)
        for name in exported:
            first, last = spans.get(name, spans["__all__"])
            definitions[path, name] = (first, lines[first - 1 : last])
            lines[first - 1 : last] = [""] * (last - first + 1)
    unfound = dict(definitions)
    while True:
        text = "\n".join(line for lines in sources.values() for line in lines)
        found = [key for key in unfound if re.search(rf"\b{re.escape(key[1])}\b", text)]
        if not found:
            break
        for path, name in found:
            first, body = unfound.pop((path, name))
            sources[path][first - 1 : first - 1 + len(body)] = body
    uncalled = sorted(f"{path.stem}.{name}" for path, name in unfound)
    assert uncalled == _EXPORTS_WITHOUT_CALLER


def test_oracle_is_imported_lazily():
    # the analytic kinds must start without the oracle's scipy.sparse and
    # scipy.special; the package still serves the oracle names on demand
    src = str(Path(darkwells.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "import {module}\n"
        "heavy = ('darkwells.oracle', 'scipy.sparse', 'scipy.special')\n"
        "print(sorted(name for name in heavy if name in sys.modules))\n"
        "import darkwells\n"
        "served = {{name: getattr(darkwells, name) for name in darkwells._ORACLE_EXPORTS}}\n"
        "import darkwells.oracle as oracle\n"
        "print(len(served), all(served[name] is getattr(oracle, name) for name in served))\n"
    )
    for module in ("darkwells.cli", "darkwells"):
        out = subprocess.run(
            [sys.executable, "-c", probe.format(module=module)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.split("\n")[:2] == ["[]", "23 True"], (module, out.stdout)
    with pytest.raises(AttributeError, match="no_such_name"):
        darkwells.no_such_name


def test_package_serves_every_oracle_name():
    # the lazy table is a hand-kept copy of oracle.__all__, and a name
    # missing from it raises AttributeError as darkwells.<name>
    import darkwells.oracle as oracle

    assert darkwells._ORACLE_EXPORTS == frozenset(oracle.__all__)
    assert darkwells.OracleRequestError is oracle.OracleRequestError


def test_oracle_reads_n_levels_only(tmp_path, capsys, monkeypatch):
    import darkwells.oracle

    # the model sets the band and the dimension the propagator, so
    # [oracle] refuses method and cutoff before anything is built
    def refuse(*args, **kwargs):
        raise AssertionError("Hamiltonian built before the keys were checked")

    monkeypatch.setattr(darkwells.oracle, "build_single_particle_hamiltonian", refuse)
    for text, key in (
        ("n_levels = 20000\nmethod = dense\n", "oracle.method"),
        ("method = auto\n", "oracle.method"),
        ("n_levels = 64\ncutoff = 8.0\n", "oracle.cutoff"),
    ):
        cfg = write_config(tmp_path, "[oracle]\n" + text)
        assert main(["oracle-compare", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"config error: {key}: unknown key" in capsys.readouterr().err
    monkeypatch.undo()
    # the oracle alone asks which propagator applies, once per run
    picked = []

    def pick(n_levels):
        picked.append(n_levels)
        return "chebyshev"

    monkeypatch.setattr(darkwells.oracle, "single_particle_method", pick)
    cfg = write_config(
        tmp_path, "[model]\nlambda_cutoff = 8.0\n[grid]\nt_max = 1.0\nn_points = 3\n"
        "[oracle]\nn_levels = 64\n"
    )
    assert main(["oracle-compare", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
    report = json.loads((tmp_path / "x.csv.manifest.json").read_text())["oracle"]
    assert picked == [64]
    assert report["method"] == "chebyshev" and report["chebyshev_degree"] > 0


@pytest.mark.parametrize(
    "kind, text, key",
    [
        ("evolve", "[grid]\nn_points = {points}\n", "grid.n_points"),
        # a small grid under a cap past evolve's: the grid list is never built
        ("sweep", "[sweep]\naxis = y\nvalues = 1, 2\nmax_points = {points}\n",
         "sweep.max_points"),
        ("oracle-compare", "[oracle]\nn_levels = {levels}\n", "oracle.n_levels"),
        # dense output: 30 000 points of dimension 202
        ("oracle-compare", "[grid]\nn_points = 30000\n[oracle]\nn_levels = 200\n",
         "grid.n_points: .* phase factors"),
        # Chebyshev degree ~ 45 * t_max at gamma1 = gamma2 = 1: 450 000
        ("oracle-compare",
         "[grid]\nt_max = 1e4\nn_points = 2\n[oracle]\nn_levels = 2000\n",
         "grid.t_max: needs a Chebyshev degree"),
        # Bessel table: 1000 points at degree ~ 45 000
        ("oracle-compare",
         "[grid]\nt_max = 1000.0\nn_points = 1000\n[oracle]\nn_levels = 2000\n",
         "grid.t_max: .* Bessel coefficients"),
    ],
    ids=["grid_points", "sweep_max_points", "oracle_levels", "dense_output", "chebyshev_degree",
         "bessel_table"],
)
def test_oversized_requests_are_refused_before_building(tmp_path, monkeypatch, kind, text, key):
    import darkwells.oracle

    def refuse(*args, **kwargs):
        raise AssertionError("Hamiltonian built before the caps were checked")

    monkeypatch.setattr(darkwells.oracle, "build_single_particle_hamiltonian", refuse)
    config = text.format(
        points=darkwells.cli._MAX_GRID_POINTS + 1, levels=darkwells.oracle._MAX_LEVELS + 2
    )
    cfg = write_config(tmp_path, "[model]\ngamma1 = 1.0\ngamma2 = 1.0\n" + config)
    scenario = build_scenario(kind, load_config(cfg), out=str(tmp_path / "x.csv"))
    with pytest.raises(ConfigError, match=key):
        render(scenario)


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("oracle-compare", "[oracle]\nn_levels = " + "9" * 5000,
         f"oracle.n_levels: {'9' * 40!r}... (5000 characters) has more digits than "
         "Python's int limit"),
        ("bosons", "[bosons]\ny = 1/" + "7" * 4301,
         f"bosons.y: {'1/' + '7' * 38!r}... (4303 characters) has more digits than "
         "Python's int limit"),
        ("sweep", "[sweep]\naxis = y\nvalues = 1, " + "x" * 5000,
         f"sweep.values: cannot parse {'1, ' + 'x' * 37!r}... (5003 characters) as floats"),
        ("evolve", "[grid]\nt_max = " + "9" * 5000,
         f"grid.t_max: value must be finite, got {'9' * 40!r}... (5000 characters)"),
    ],
    ids=["int_limit", "ratio_int_limit", "sweep_values", "not_finite"],
)
def test_parse_refusals_quote_a_bounded_prefix(tmp_path, capsys, kind, text, message):
    # these echoed the whole value, thousands of characters, and said
    # "cannot parse" where Python's int-string limit was the cause
    cfg = write_config(tmp_path, text + "\n")
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}"), err
    assert len(err) < 200, err


def test_benchmark_trace_hooks_name_real_attributes():
    # perfbench/tracing.py wraps these attributes by name and silently skips
    # a missing one, so a rename would zero its per-layer metrics unnoticed
    import darkwells.oracle

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, spans in (
        (darkwells.cli, tracing.CLI_SPANS),
        (darkwells.oracle, tracing.ORACLE_SPANS),
    ):
        missing = sorted(name for name in spans if not hasattr(module, name))
        assert not missing, f"{module.__name__} lacks {missing}"


_RENDER_CASES = {
    "evolve": "[model]\ngamma1 = 1.0\ny = 2.0\nepsilon = 0.4\neta = -1\n"
    "[initial]\nb1 = 0.6\nb2 = 0.8j\n[grid]\nt_max = 30.0\nn_points = 57\n",
    "asymptotic": "[model]\ngamma1 = 1.0\ny = 3.0\n[initial]\nb1 = 0.6\nb2 = -0.8\n",
    "dwell": "[model]\ngamma1 = 1.5\ny = 0.5\nepsilon = 0.2\n",
    "oracle-compare": "[model]\ngamma1 = 1.0\ny = 2.0\n[grid]\nn_points = 9\n"
    "[oracle]\nn_levels = 200\n",
    "fermions": "[model]\ngamma1 = 1.0\ny = 2.0\nyprime = 0.7\nu = 1.0\n"
    "[fermions]\nop = three_electron\n",
    "bosons": "[bosons]\nlaw = emission\nn1 = 3\nn2 = 2\ny = 0.75\n",
    "sweep": "[model]\ngamma1 = 1.0\nepsilon = 0.3\n[sweep]\naxis = y\n"
    "values = 0.5, 1, 2\naxis2 = epsilon\nvalues2 = 0.2, -0.4\nreport = fitted_tau\n",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", sorted(_RENDER_CASES))
def test_rendered_bytes_match_row_list_reference(tmp_path, kind, fmt):
    cfg = write_config(tmp_path, _RENDER_CASES[kind])
    scenario = build_scenario(kind, load_config(cfg), out=f"out.{fmt}", fmt=fmt)
    result = render(scenario)
    columns, _, extra = darkwells.cli._KINDS[kind][0](scenario)
    rows = list(zip(*(column.tolist() for column in columns.values())))
    assert rows
    want = render_rows_reference(
        fmt, result.manifest_sha256, result.manifest, list(columns), rows, extra
    )
    assert result.files[f"out.{fmt}"] == want


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1.0,
                   -3.0, 2.0**53, 1e16, 0.1, 1.0 / 3.0, 1e-7, 123456789.0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_rows", [len(_SPECIAL_FLOATS), 1, 0])
def test_renderer_spells_cells_like_the_reference(fmt, n_rows):
    floats = _SPECIAL_FLOATS[:n_rows]
    ints = [0, -7, 2**62, 1, 42, -(2**63)] * 3
    strings = ["0101", "1100", 'a"b', "back\\slash", "tab\t", "\u00fc"] * 3
    columns = {
        "x": np.array(floats, dtype=float),
        "count": np.array(ints[:n_rows], dtype=np.int64),
        "occupation": np.array(strings[:n_rows], dtype=str),
        "y": -np.array(floats, dtype=float),
    }
    manifest = {"kind": "test", "parameters": {"a": [1.5, 2]}, "z": None}
    extra = {"branches": [{"terms": [{"occupation": [0, 1]}]}], "oracle": {"x": 1e-300}}
    rows = list(zip(floats, ints, strings, [-x for x in floats]))
    got = darkwells.cli._render_table(fmt, "ab" * 32, manifest, columns, extra)
    want = render_rows_reference(fmt, "ab" * 32, manifest, list(columns), rows, extra)
    assert got == want


def test_json_renderer_spells_non_finite_floats_as_json_does():
    values = [math.nan, math.inf, -math.inf, 2.5]
    columns = {"x": np.array(values)}
    got = darkwells.cli._render_table("json", "0" * 64, {}, columns, {})
    want = render_rows_reference("json", "0" * 64, {}, ["x"], [(v,) for v in values], {})
    assert got == want
    assert b"NaN" in got and b"-Infinity" in got


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rendered_floats_roundtrip(fmt):
    values = [1.0 / 3.0, 0.1, 2.0**-52, -1.2345678901234567e-300]
    data = darkwells.cli._render_table(fmt, "0" * 64, {}, {"x": np.array(values)}, {})
    if fmt == "csv":
        cells = [float(line) for line in data.decode().splitlines()[2:]]
    else:
        cells = [row[0] for row in json.loads(data)["rows"]]
    assert cells == values


@pytest.mark.parametrize("report", ["sigma11_asymptotic", "fitted_rate", "fitted_tau"])
def test_sweep_blocks_match_single_point_evaluation(tmp_path, report):
    # 150 points span three blocks of 64; each value equals its own
    # unbatched evolution and fit
    ys = [0.2 + 0.1 * k for k in range(150)]
    cfg = write_config(
        tmp_path,
        "[model]\ngamma1 = 1.3\nepsilon = -0.25\neta = -1\n[sweep]\naxis = y\n"
        f"values = {', '.join(map(repr, ys))}\nreport = {report}\nmax_points = 150\n"
        + ("t_max = 7.5\n" if report == "sigma11_asymptotic" else ""),
    )
    scenario = build_scenario("sweep", load_config(cfg), out="s.csv", fmt="csv")
    columns, _, _ = darkwells.cli._KINDS["sweep"][0](scenario)
    left = (1.0, 0.0, 0.0)
    for y, value in zip(ys, columns[report].tolist()):
        pair = WellPair.from_widths(1.3, y * 1.3, eta=-1, epsilon=-0.25)
        if report == "sigma11_asymptotic":
            assert value == evolve_master(pair, left, 7.5).sigma11[0]
            continue
        t0 = 12.0 / (pair.gamma1 + pair.gamma2)
        times = np.linspace(t0, t0 + 2.0 * dwell_time(pair), 48)
        rate = fit_decay_rate(times, master_trajectory(pair, left, times).occupation)
        assert value == (1.0 / rate if report == "fitted_tau" else rate)


def test_parser_is_built_once(capsys):
    parser = darkwells.cli._build_parser()
    assert darkwells.cli._build_parser() is parser
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["no-such-kind"])
        assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert darkwells.cli._build_parser() is parser
