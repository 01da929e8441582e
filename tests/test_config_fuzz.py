"""A config fuzzer over the CLI's own key tables, run through ``main``.

Each drawn config is written as INI and run in process.  Every run must end
in one of the documented ways: exit 2 with a message naming the
``section.key`` (or section) at fault, exit 1 only for a scenario that has
no answer, or exit 0 with finite floats in every file written and a
manifest that strict JSON reads.  Every refusal is one short line.
Draws are derandomized with a fixed example count, and the value pools keep
every accepted run cheap: counts of at most 30 bosons, at most 40 oracle
levels and 200 grid points.  Pinned examples reach the oracle's caps, which
the pools never do, and a value past Python's int-string limit.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from darkwells.cli import (
    _ALLOWED_KEYS,
    _BOSON_LAWS,
    _FERMION_OPS,
    _KINDS,
    _SWEEP_AXES,
    _SWEEP_REPORTS,
    _WIDTH_KEYS,
    FORMATS,
    KINDS,
    build_scenario,
    load_config,
    main,
    render,
)
from darkwells.dynamics import InfiniteDwellTimeError
from darkwells.model import NoBoundStateError
from darkwells.oracle import _MAX_LEVELS
from oracles import bounded_fraction

FUZZ = settings(max_examples=400, derandomize=True, database=None, deadline=None)

EDGE = ("0", "-1", "nan", "inf", "1e308", "1.7e308", "5e307", "1e-320", "text")
# plain values, listed twice so that about half the values drawn are plain
NUMBERS = EDGE + ("0.5", "1", "2", "-0.3") * 2
SIGNS = ("1", "-1") + EDGE
COUNTS = ("0", "1", "2", "30", "-1", "text")
AMPLITUDES = ("1", "0", "0.6", "0.8j", "1j", "nan", "text")
# the pool of each key; any other key draws from NUMBERS
POOLS = {
    "output.format": FORMATS + ("text",),
    "output.path": ("elsewhere.csv",),
    "initial.b1": AMPLITUDES,
    "initial.b2": AMPLITUDES,
    "grid.n_points": ("0", "2", "50", "200", "text"),
    "oracle.n_levels": ("9", "10", "20", "40", "text"),
    "model.eta": SIGNS,
    "fermions.op": tuple(_FERMION_OPS) + ("text",),
    "fermions.eta": SIGNS,
    "bosons.law": tuple(_BOSON_LAWS) + ("text",),
    "bosons.eta": SIGNS,
    # exact ratios of many bits meet the work bound at the larger counts, and
    # the last three lie past the float range
    "bosons.y": NUMBERS + ("3/4", "0.123456789", "1e-30", "1e-400", "1e400", "1e1000000"),
    "sweep.axis": _SWEEP_AXES + ("text",),
    "sweep.axis2": _SWEEP_AXES + ("text",),
    "sweep.report": _SWEEP_REPORTS + ("text",),
    "sweep.max_points": ("0", "4", "64", "text"),
}
for _key in ("n1", "n2", "n", "n_retained"):
    POOLS[f"bosons.{_key}"] = COUNTS
# the longest refusal line, "config error: " included
MAX_MESSAGE = 300
# the keys a refusal may name: section.key, or a section alone
NAME = re.compile(r"[a-z0-9_]+(\.[a-z0-9_]+)?")
# the errors of a scenario that is valid to ask for but has no answer
NO_ANSWER = (InfiniteDwellTimeError, NoBoundStateError)
COUPLING_KEYS = ("omega1", "omega2", "e1", "e2")
# [model] keys of either style; a few draws take any key of the section
STYLE_KEYS = {
    style: sorted(set(keys) | {"rho", "lambda_cutoff", "yprime", "u"})
    for style, keys in (("width", _WIDTH_KEYS), ("coupling", COUPLING_KEYS))
}


@st.composite
def configs(draw):
    """A kind and a config: some sections the kind reads, rarely one it does
    not, each with a few of its keys, the [model] keys mostly of one style
    and the [bosons] keys mostly of one law.
    ``oracle-compare`` always sets the level count and ``sweep`` its first
    axis, and ``scenario.kind`` is mostly the kind run."""
    kind = draw(st.sampled_from(KINDS))
    reads = sorted(_KINDS[kind][1] | {"scenario", "output"})
    sections = draw(st.sets(st.sampled_from(reads), max_size=len(reads)))
    if draw(st.integers(0, 9)) == 0:
        sections.add(draw(st.sampled_from(sorted(_ALLOWED_KEYS))))
    required = {"oracle-compare": {"oracle": {"n_levels"}}, "sweep": {"sweep": {"axis", "values"}}}
    sections |= set(required.get(kind, {}))
    pools = {**POOLS, "scenario.kind": (kind,) * 3 + KINDS}
    config = {}
    for section in sorted(sections):
        allowed = sorted(_ALLOWED_KEYS[section])
        chosen = {}
        if section == "model" and draw(st.integers(0, 7)):
            allowed = STYLE_KEYS[draw(st.sampled_from(sorted(STYLE_KEYS)))]
        if section == "bosons" and draw(st.integers(0, 3)):
            # mostly one law with keys it reads, so that draws reach the laws
            chosen["law"] = draw(st.sampled_from(sorted(_BOSON_LAWS)))
            allowed = sorted(_BOSON_LAWS[chosen["law"]])
        keys = draw(st.sets(st.sampled_from(allowed), max_size=4))
        keys |= required.get(kind, {}).get(section, set())
        config[section] = chosen
        for key in sorted(keys):
            name = f"{section}.{key}"
            if name in ("sweep.values", "sweep.values2"):
                items = draw(st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=3))
                config[section][key] = ", ".join(items)
            else:
                config[section][key] = draw(st.sampled_from(pools.get(name, NUMBERS)))
    return kind, config


def strict_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite float {text}")
    return value


def refuse_constant(name):
    raise ValueError(f"non-finite constant {name}")


def check_written(out, fmt):
    with open(out + ".manifest.json") as fh:
        json.loads(fh.read(), parse_constant=refuse_constant, parse_float=strict_float)
    with open(out) as fh:
        text = fh.read()
    if fmt == "json":
        json.loads(text, parse_constant=refuse_constant, parse_float=strict_float)
        return
    # CSV: a hash line, a header, then rows of numbers (a fermion occupation
    # is a string of digits, which reads as a finite number too)
    for line in text.splitlines()[2:]:
        for cell in line.split(","):
            strict_float(cell)


# a bosons.y whose exponent Fraction would expand fails the run
@mock.patch("darkwells.cli.Fraction", bounded_fraction)
@FUZZ
@given(drawn=configs())
# two requests past the boson work bound and one too few bosons, so their
# assertions always run, and one small request at a ratio of many bits that
# the bound must accept
@example(drawn=("bosons", {"bosons": {"law": "one_well", "n": "30", "y": "1e308"}}))
@example(drawn=("bosons", {"bosons": {"n1": "30", "n2": "30", "y": "1e-320"}}))
@example(drawn=("bosons", {"bosons": {"n1": "0", "n2": "0"}}))
@example(drawn=("bosons", {"bosons": {"law": "retained_split", "n_retained": "2",
                                      "y": "1e308"}}))
# requests past each cap of the oracle, and a level count past the digits
# Python reads as an int
@example(drawn=("oracle-compare", {"oracle": {"n_levels": str(_MAX_LEVELS + 2)}}))
@example(drawn=("oracle-compare", {"grid": {"n_points": "30000"}, "oracle": {"n_levels": "200"}}))
@example(drawn=("oracle-compare", {"grid": {"t_max": "1e4"}, "oracle": {"n_levels": "2000"}}))
@example(drawn=("oracle-compare", {"grid": {"t_max": "1000", "n_points": "1000"},
                                   "oracle": {"n_levels": "2000"}}))
@example(drawn=("oracle-compare", {"oracle": {"n_levels": "9" * 5000}}))
# couplings too small to give a width, widths near 1e-23 whose couplings'
# products leave the normal range, a mixing that underflows on coupled
# wells, a large yprime and a vanishing width in the parallel fermion ops
@example(drawn=("asymptotic", {"model": {"omega1": "1e-200", "omega2": "1e-200"}}))
@example(drawn=("dwell", {"model": {"omega1": "1e-200", "omega2": "1e-200", "e1": "1"}}))
@example(drawn=("dwell", {"model": {"omega1": "1e-162", "omega2": "1e-162", "rho": "1e300",
                                    "e1": "1"}}))
@example(drawn=("dwell", {"model": {"omega1": "1.2e-150", "omega2": "1.2e-150", "rho": "1e276",
                                    "e1": "1e-23"}}))
@example(drawn=("dwell", {"model": {"omega1": "1.2e-162", "omega2": "1.2e-162", "rho": "1e300",
                                    "e1": "1e-23"}}))
@example(drawn=("evolve", {"model": {"omega1": "1.2e-162", "omega2": "1.2e-162", "rho": "1e300",
                                     "e1": "1e-23"}}))
@example(drawn=("dwell", {"model": {"gamma1": "1", "gamma2": "1e-300", "epsilon": "1e-300"}}))
@example(drawn=("fermions", {"fermions": {"op": "two_electron_parallel"},
                             "model": {"yprime": "1e160"}}))
@example(drawn=("fermions", {"fermions": {"op": "two_electron_parallel"},
                             "model": {"yprime": "1e308"}}))
@example(drawn=("fermions", {"fermions": {"op": "three_electron"}, "model": {"yprime": "1e160"}}))
@example(drawn=("fermions", {"fermions": {"op": "three_electron"}, "model": {"yprime": "1e308"}}))
@example(drawn=("oracle-compare", {"model": {"omega1": "1e-150", "omega2": "1e-150",
                                             "rho": "1e-30"}}))
@example(drawn=("fermions", {"fermions": {"op": "two_electron_parallel"},
                             "model": {"omega1": "0", "omega2": "1", "yprime": "0.5"}}))
@example(drawn=("fermions", {"fermions": {"op": "three_electron"},
                             "model": {"gamma1": "1", "y": "0", "yprime": "0.5"}}))
# widths whose squares underflow, a fit window whose squared times overflow,
# a parallel pair detuned by u = 0.7 at the scale 2^-40, and a sweep cap
# past the grid cap and one below 1
@example(drawn=("evolve", {"model": {"gamma1": "1e-170"}}))
@example(drawn=("sweep", {"model": {"epsilon": "0.3"},
                          "sweep": {"axis": "gamma1", "values": "1e100",
                                    "report": "fitted_tau"}}))
@example(drawn=("fermions", {"fermions": {"op": "two_electron_parallel"},
                             "model": {"gamma1": "9.094947017729282e-13", "y": "2",
                                       "yprime": "0.8", "u": "6.366462912410497e-13"}}))
@example(drawn=("sweep", {"sweep": {"axis": "y", "values": "1, 2", "max_points": "100001"}}))
@example(drawn=("sweep", {"sweep": {"axis": "y", "values": "1", "max_points": "0"}}))
def test_every_config_ends_in_a_documented_way(drawn):
    kind, config = drawn
    text = "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in config.items()
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        out = os.path.join(tmp, "out.dat")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            # an exception escaping main is a traceback
            code = main([kind, "--config", path, "--out", out])
        lines = err.getvalue().splitlines()
        if code == 0:
            check_written(out, config.get("output", {}).get("format", "csv"))
            return
        assert not os.path.exists(out), text
        if code == 1:
            # only a scenario without an answer ends in exit 1
            with pytest.raises(RuntimeError) as exc:
                render(build_scenario(kind, load_config(path), out=out))
            assert isinstance(exc.value.__cause__, NO_ANSWER), (text, lines)
            return
    assert code == 2, (text, lines)
    message = [line for line in lines if line.startswith("config error: ")]
    assert len(message) == 1, (text, lines)
    assert len(message[0]) < MAX_MESSAGE, (text, message)
    names = message[0][len("config error: "):].split(": ")[0].split(", ")
    assert all(NAME.fullmatch(name) for name in names), (text, message)
    # a model key named but not given is one the config's style reads
    model = config.get("model", {})
    refused = _WIDTH_KEYS if {"omega1", "omega2"} & set(model) else COUPLING_KEYS
    for name in names:
        section, _, key = name.partition(".")
        assert section in _ALLOWED_KEYS or section in config, (text, message)
        if section == "model" and key not in model:
            assert key not in refused, (text, message)
    # a boson work-bound refusal names the ratio and a count it multiplies
    if "work limit" in message[0]:
        assert "bosons.y" in names, (text, message)
        assert {"bosons.n1", "bosons.n", "bosons.n_retained"} & set(names), (text, message)
    # both counts set the sum n1 + n2
    if "n1 + n2" in message[0]:
        assert {"bosons.n1", "bosons.n2"} <= set(names), (text, message)
