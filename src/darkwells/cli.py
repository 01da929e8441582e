"""Deterministic command-line front end.

Scenarios are described by a flat INI config (section headers, key=value
pairs, no nesting).  Every run writes the requested data file plus a JSON
manifest recording all resolved parameters and component versions; the
manifest's SHA-256 is stamped into a header comment of each output so a
data file can always be traced to the exact run that produced it.  Each
scenario runner returns named columns (float, int or string arrays) and one
renderer writes them as CSV, with floats at 17 significant digits, or as
JSON, with floats as Python's shortest round-trip ``repr``; both spellings
are exact, and lines end in LF.  The package uses no random numbers
anywhere, so identical configs produce byte-identical outputs;
``--seedless`` makes the run verify that claim by rendering everything
twice and comparing bytes.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import functools
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy

from . import __version__
from .bosons import (
    distribution_rows,
    emission_distribution,
    equal_fill_even_distribution,
    one_well_distribution,
    retained_state_split,
    rotate_fock,
)
from .dynamics import (
    InfiniteDwellTimeError,
    PropagatorOverflowError,
    _evolve_sigma,
    _sigma_matrix,
    asymptotic_probs,
    dwell_time,
    evolve_master,  # not called here; perfbench/tracing.py wraps it by name
    fit_decay_rate,
    master_trajectory,
)
from .fermions import (
    branches_to_json,
    three_electron_asymptotic,
    two_electron_asymptotic,
    two_electron_parallel_asymptotic,
)
from .model import DegenerateSystemError, ParallelWellPair, WellPair, WidthOverflowError
from .rotation import dark_state

__all__ = ["ConfigError", "Scenario", "RunResult", "load_config", "render", "run", "main"]

# Requests past these caps are refused before anything is allocated; each
# would spend memory or time out of proportion to any use of the answer.
_MAX_GRID_POINTS = 100_000
# Bosons in one exact emission law; the rational arithmetic grows
# faster than quadratically in the count.
_MAX_BOSONS = 1000
# count^4 x bits^3 of a law that reads y = p/q, with bits = p.bit_length() +
# q.bit_length(): the time of a law grows about as count^2 x bits^1.5.  The
# limit is the value at the count cap with y = 1; along its boundary no law
# was measured slower than the count cap's own laws at y = 1.
_MAX_BOSON_WORK = _MAX_BOSONS**4 * 2**3
# Sweep points per batched evaluation and fit: the transient arrays stay
# this size however large sweep.max_points is.
_SWEEP_BLOCK = 64

FORMATS = ("csv", "json")

# Each fermions.op and bosons.law, with the other keys of its section it
# reads; a key the choice does not read is refused rather than ignored.
_FERMION_OPS = {
    "two_electron": {"y", "eta"},
    "two_electron_parallel": set(),
    "three_electron": set(),
}
_BOSON_LAWS = {
    "emission": {"n1", "n2", "y", "eta"},
    "equal_fill": {"n"},
    "one_well": {"n", "y"},
    "retained_split": {"n_retained", "y"},
}

# Every key the config may contain, by section; anything else is a typo
# and gets reported with its full key path.
_ALLOWED_KEYS = {
    "scenario": {"kind"},
    "model": {
        "gamma1",
        "gamma2",
        "y",
        "epsilon",
        "eta",
        "e1",
        "e2",
        "omega1",
        "omega2",
        "rho",
        "lambda_cutoff",
        "yprime",
        "u",
    },
    "initial": {"b1", "b2"},
    "grid": {"t_max", "n_points"},
    "output": {"path", "format"},
    "oracle": {"n_levels"},
    "fermions": {"op"}.union(*_FERMION_OPS.values()),
    "bosons": {"law"}.union(*_BOSON_LAWS.values()),
    "sweep": {"axis", "values", "axis2", "values2", "report", "max_points", "t_max"},
}
_WIDTH_KEYS = ("gamma1", "gamma2", "y", "epsilon", "eta")
# y and gamma2 both set the second width, so a sweep takes at most one of them
_SWEEP_AXES = ("y", "epsilon", "gamma1", "gamma2")
_SWEEP_REPORTS = ("sigma11_asymptotic", "p_trapped", "fitted_tau", "fitted_rate")
# A decimal with an exponent, in the grammar Fraction reads: the mantissa,
# its whole and fraction digits, and the exponent.
_DECIMAL = re.compile(
    r"([-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?)[eE]([-+]?\d+(?:_\d+)*)"
)


class ConfigError(ValueError):
    """Configuration problem, message prefixed with the offending key path."""


@dataclass(frozen=True)
class Scenario:
    """A fully parsed run request: kind plus raw config sections."""

    kind: str
    sections: dict
    out: str
    fmt: str
    seedless: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"scenario.kind: unknown kind {self.kind!r}")
        if self.fmt not in FORMATS:
            raise ConfigError(f"output.format: unknown format {self.fmt!r}")
        reads = {"scenario", "output"} | _KINDS[self.kind][1]
        reader = f"kind {self.kind}"
        op = self.sections.get("fermions", {}).get("op", "two_electron")
        if self.kind == "fermions" and op == "two_electron":
            reads.discard("model")
            reader = "fermions.op = two_electron"
        for section, keys in self.sections.items():
            allowed = _ALLOWED_KEYS.get(section)
            if allowed is None:
                raise ConfigError(f"{section}: unknown section")
            if section not in reads:
                raise ConfigError(f"{section}: {reader} does not read this section")
            for key in keys:
                if key not in allowed:
                    raise ConfigError(f"{section}.{key}: unknown key")


@dataclass(frozen=True)
class RunResult:
    """Rendered outputs: manifest dict, its hash, and file contents."""

    manifest: dict
    manifest_sha256: str
    files: dict


def load_config(path: str) -> dict:
    """Parse a flat INI config into {section: {key: raw string}}."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config: {exc}") from exc
    return {
        section: dict(parser.items(section)) for section in parser.sections()
    }


def _quote(raw):
    """``raw`` as a refusal quotes it: past 40 characters, a prefix and the length."""
    return repr(raw) if len(raw) <= 40 else f"{raw[:40]!r}... ({len(raw)} characters)"


def _unparsed(name, raw, what, exc):
    """The refusal of the value ``raw`` of ``name`` that ``exc`` kept from parsing as ``what``."""
    # CPython's reason for a string of more digits than it converts to an int
    if "integer string conversion" not in str(exc):
        return ConfigError(f"{name}: cannot parse {_quote(raw)} as {what}")
    limit = sys.get_int_max_str_digits()
    return ConfigError(f"{name}: {_quote(raw)} has more digits than Python's int limit of {limit}")


def _parse_number(sections, section, key, default=None, kind=float, required=False):
    sec = sections.get(section, {})
    if key not in sec:
        if required:
            raise ConfigError(f"{section}.{key}: required key is missing")
        return default
    raw = sec[key].strip()
    try:
        if kind is int:
            return int(raw)
        value = kind(raw)
    except ValueError as exc:
        raise _unparsed(f"{section}.{key}", raw, kind.__name__, exc) from None
    if not cmath.isfinite(value):
        raise ConfigError(f"{section}.{key}: value must be finite, got {_quote(raw)}")
    return value


def _parse_choice(sections, section, key, choices, default):
    sec = sections.get(section, {})
    value = sec.get(key, default)
    if value not in choices:
        raise ConfigError(
            f"{section}.{key}: expected one of {', '.join(choices)}, got {value!r}"
        )
    return value


def _parse_mode(sections, section, key, modes, default):
    """A choice from ``modes`` (choice -> keys it reads), refusing unread keys."""
    value = _parse_choice(sections, section, key, modes, default)
    unread = sorted(set(sections.get(section, {})) - modes[value] - {key})
    if unread:
        raise ConfigError(
            f"{section}.{unread[0]}: {section}.{key} = {value} does not read this key"
        )
    return value


def _require_positive(key, value, or_zero=False):
    """``value`` unless it is <= 0, or < 0 ``or_zero``; ``key`` is its section.key path."""
    if value is not None and (value < 0.0 if or_zero else value <= 0.0):
        bound = "non-negative" if or_zero else "positive"
        raise ConfigError(f"{key}: must be {bound}, got {value}")
    return value


def _parse_eta(sections, section, key="eta"):
    eta = _parse_number(sections, section, key, default=1, kind=int)
    if eta not in (1, -1):
        raise ConfigError(f"{section}.{key}: eta must be 1 or -1, got {eta}")
    return eta


def _parse_ratio(sections, section, key):
    """A ratio as written (``0.1`` is ``Fraction(1, 10)``), 1 by default, and its float.

    The ratio must be positive, and its float, which the manifest records,
    neither infinite nor zero.
    """
    name = f"{section}.{key}"
    raw = text = sections.get(section, {}).get(key, "1").strip()
    decimal = _DECIMAL.fullmatch(raw)
    try:
        if decimal:
            # Fraction expands the exponent into an exact power of ten.  With
            # a nonzero mantissa, an exponent of 309 + its fraction digits or
            # more overflows a float, and one of -325 - its whole digits or
            # less rounds to zero; cut to those bounds, the exponent keeps
            # the verdict without the cost.
            mantissa, whole, fraction, exponent = decimal.groups()
            exponent = min(max(int(exponent), -325 - len(whole)), 309 + len(fraction or ""))
            text = f"{mantissa}e{exponent}"
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _unparsed(name, raw, "a finite ratio", exc) from None
    try:
        approx = float(value)
    except OverflowError:
        approx = math.inf if value > 0 else -math.inf
    if value <= 0:
        raise ConfigError(f"{name}: must be positive, got {approx}")
    if approx in (0.0, math.inf):
        side = "below" if approx == 0.0 else "above"
        raise ConfigError(f"{name}: {_quote(raw)} lies {side} the float range")
    return value, approx


def _read_model(sections, parallel=False, sweep=False, band=False):
    """Parse [model] once into keywords for :func:`_build_model`, and its keys.

    The style is picked once: coupling style (``omega1``, ``omega2``, ``e1``,
    ``e2``) when an omega is given, else width style (``gamma1``, ``gamma2``
    or ``y``, ``eta``, ``epsilon``); ``rho`` goes with both, and so does
    ``lambda_cutoff``, which only ``band`` scenarios (the discretized
    oracle) read and the others refuse.  ``yprime`` with ``u`` makes the
    parallel-level model, which ``parallel`` scenarios need and the others
    refuse; a ``sweep`` takes width style only.  Every key the style does
    not read, and every value out of its domain, is refused here with its
    key named.  The keys [model] gives come second, so a refusal can name
    only those.
    """
    sec = sections.get("model", {})
    coupling = sorted({"omega1", "omega2"} & set(sec))
    if sweep and coupling:
        raise ConfigError(f"model.{coupling[0]}: sweeps take width-style models")
    mixed = sorted(set(sec) & set(_WIDTH_KEYS if coupling else ("e1", "e2")))
    if mixed:
        raise ConfigError(
            f"model.{mixed[0]}: cannot mix width (gamma1, gamma2 or y, eta, epsilon) "
            "and coupling (omega1, omega2, e1, e2) parameterizations"
        )
    if "gamma2" in sec and "y" in sec:
        raise ConfigError("model.y: give either gamma2 or y, not both")
    if parallel and "yprime" not in sec:
        raise ConfigError("model.yprime: this scenario needs a parallel-level model")
    for key in ("yprime", "u"):
        if key in sec and not parallel:
            raise ConfigError(
                f"model.{key}: this scenario takes a single-particle model (no parallel levels)"
            )
    if "lambda_cutoff" in sec and not band:
        raise ConfigError(
            "model.lambda_cutoff: only oracle-compare reads the band cutoff; "
            "the wide-band closed forms have none"
        )
    number = functools.partial(_parse_number, sections, "model")

    def width(key, default=None):
        return _require_positive(f"model.{key}", number(key, default), or_zero=True)

    spec = {
        "rho": _require_positive("model.rho", number("rho")),
        "lambda_cutoff": _require_positive("model.lambda_cutoff", number("lambda_cutoff")),
    }
    if coupling:
        spec.update(
            E1=number("e1", 0.0),
            E2=number("e2", 0.0),
            omega1=number("omega1", required=True),
            omega2=number("omega2", required=True),
        )
    else:
        gamma1 = width("gamma1", 1.0)
        eta = _parse_eta(sections, "model")
        spec.update(gamma1=gamma1, eta=eta, epsilon=number("epsilon", 0.0))
        if "y" in sec:
            spec["y"] = width("y")
        else:
            spec["gamma2"] = width("gamma2", gamma1)
    if parallel:
        spec.update(yprime=_require_positive("model.yprime", number("yprime")), u=number("u", 0.0))
    return {key: value for key, value in spec.items() if value is not None}, frozenset(sec)


def _model_keys(spec, given, axes, *quantities):
    """The config keys that set ``quantities`` of a model, joined for a refusal.

    ``spec`` and ``given`` are :func:`_read_model`'s, and ``axes`` the
    sweep axes of the point, in axis order.  Each quantity is ``gamma1``,
    ``gamma2``, ``omega1``, ``omega2`` (the couplings), ``epsilon``,
    ``rho`` or ``lambda_cutoff``.  A swept one comes from ``sweep.values``
    or ``sweep.values2``, the rest from the [model] keys in ``given``, so
    one left at its default has none.  In width style a second width given
    as ``y`` is ``y * gamma1``, with the keys of both, and one left at its
    default is the config's ``gamma1``; a coupling ``sqrt(gammaJ / (2 pi
    rho))`` has the keys of its width and ``rho``.  In coupling style
    ``gammaJ = 2 pi omegaJ^2 rho`` comes from ``omegaJ`` and ``rho``, and
    ``epsilon`` from ``e1`` and ``e2``.  A default cutoff is set by the
    widths and the detuning.  With no key at all the section ``model``
    stands in.
    """
    source = dict(zip(axes, ("sweep.values", "sweep.values2")))
    coupling = {
        "gamma1": ("omega1", "rho"),
        "gamma2": ("omega2", "rho"),
        "epsilon": ("e1", "e2"),
    }

    def keys(name):
        names = (name,)
        if name in source:
            return [source[name]]
        if "omega1" in spec and name in coupling:
            names = coupling[name]
        elif name in ("omega1", "omega2") and "omega1" not in spec:
            return keys("gamma" + name[-1]) + keys("rho")
        elif name == "gamma2" and ("y" in source or "y" in given):
            return keys("gamma1") + keys("y")
        elif name == "gamma2" and "gamma2" not in given:
            names = ("gamma1",)
        elif name == "lambda_cutoff" and name not in given:
            return keys("gamma1") + keys("gamma2") + keys("epsilon")
        return [f"model.{key}" for key in names if key in given]

    return ", ".join(dict.fromkeys(key for name in quantities for key in keys(name))) or "model"


def _build_model(spec, given, **axes):
    """The model of :func:`_read_model` keywords and keys, and its manifest record.

    A sweep point passes its axis values as ``axes``, in axis order: each
    replaces the parsed value, and ``y`` replaces a parsed ``gamma2`` too.
    Two vanishing widths fail jointly, so that refusal names the keys that
    set both.  A width that overflows, as the one a coupling needs or as
    ``2 pi omega^2 rho`` of the coupling, names the keys that set it.  Both
    name ``model.rho`` too when the config gives it.
    """
    coupling = "omega1" in spec
    kwargs = {**spec, **axes}
    if "y" in axes:
        kwargs.pop("gamma2", None)
    if "y" in kwargs:
        kwargs.setdefault("gamma2", kwargs.pop("y") * kwargs["gamma1"])
    yprime, u = kwargs.pop("yprime", None), kwargs.pop("u", 0.0)
    try:
        pair = WellPair(**kwargs) if coupling else WellPair.from_widths(**kwargs)
        model = pair if yprime is None else ParallelWellPair(base=pair, yprime=yprime, U=u)
    except DegenerateSystemError as exc:
        # couplings too small for a width, or width-style couplings
        # sqrt(gamma / (2 pi rho)) that vanish under a large rho
        keys = _model_keys(spec, given, axes, "gamma1", "gamma2", "rho")
        raise ConfigError(f"{keys}: {exc}") from exc
    except WidthOverflowError as exc:
        keys = _model_keys(spec, given, axes, f"gamma{exc.well}", "rho")
        raise ConfigError(f"{keys}: {exc}") from exc
    resolved = {
        "model.E1": pair.E1,
        "model.E2": pair.E2,
        "model.omega1": pair.omega1,
        "model.omega2": pair.omega2,
        "model.rho": pair.rho,
        "model.gamma1": pair.gamma1,
        "model.gamma2": pair.gamma2,
        "model.epsilon": pair.epsilon,
    }
    if pair.lambda_cutoff is not None:
        resolved["model.lambda_cutoff"] = pair.lambda_cutoff
    if yprime is not None:
        resolved["model.yprime"] = model.yprime
        resolved["model.U"] = model.U
    return model, resolved


def _resolve_initial(sections):
    b1 = _parse_number(sections, "initial", "b1", default=complex(1.0), kind=complex)
    b2 = _parse_number(sections, "initial", "b2", default=complex(0.0), kind=complex)
    norm = abs(b1) ** 2 + abs(b2) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ConfigError(f"initial.b1: amplitudes must be normalized, |b|^2 = {norm}")
    resolved = {
        "initial.b1": [b1.real, b1.imag],
        "initial.b2": [b2.real, b2.imag],
    }
    return (b1, b2), resolved


def _pure_start(b1, b2):
    """The start ``(|b1|^2, |b2|^2, b1 conj(b2))`` of the well amplitudes ``(b1, b2)``."""
    b1, b2 = complex(b1), complex(b2)
    return abs(b1) ** 2, abs(b2) ** 2, b1 * b2.conjugate()


def _resolve_grid(sections, default_t_max, default_keys):
    """The time grid; ``default_keys`` name what sets ``default_t_max``."""
    t_max = _parse_number(sections, "grid", "t_max", default=default_t_max)
    n_points = _parse_number(sections, "grid", "n_points", default=200, kind=int)
    _require_positive("grid.t_max", t_max)
    if math.isinf(t_max):
        raise ConfigError(f"{default_keys}: the default grid.t_max is not finite; set grid.t_max")
    if n_points < 2:
        raise ConfigError(f"grid.n_points: need at least 2 points, got {n_points}")
    if n_points > _MAX_GRID_POINTS:
        raise ConfigError(
            f"grid.n_points: {n_points} points exceed the cap of {_MAX_GRID_POINTS}"
        )
    times = np.linspace(0.0, t_max, n_points)
    resolved = {"grid.t_max": t_max, "grid.n_points": n_points}
    return times, resolved


def _master_trajectory(pair, initial, times, spec, given, sections):
    """:func:`master_trajectory`, a propagator that leaves the float range refused
    with the keys that set it: the detuning's, both widths' and ``grid.t_max``
    when given."""
    try:
        return master_trajectory(pair, initial, times)
    except PropagatorOverflowError as exc:
        keys = _model_keys(spec, given, {}, "epsilon", "gamma1", "gamma2")
        keys += ", grid.t_max" if "t_max" in sections.get("grid", {}) else ""
        raise ConfigError(f"{keys}: {exc}") from exc


def _run_evolve(scenario):
    spec, given = _read_model(scenario.sections)
    pair, resolved = _build_model(spec, given)
    (b1, b2), res_init = _resolve_initial(scenario.sections)
    times, res_grid = _resolve_grid(
        scenario.sections,
        10.0 / pair.gamma1 if pair.gamma1 else math.inf,
        _model_keys(spec, given, {}, "gamma1"),
    )
    resolved.update(res_init)
    resolved.update(res_grid)
    traj = _master_trajectory(pair, _pure_start(b1, b2), times, spec, given, scenario.sections)
    columns = {
        "t": traj.times,
        "sigma11": traj.sigma11,
        "sigma22": traj.sigma22,
        "re_sigma12": traj.sigma12.real,
        "im_sigma12": traj.sigma12.imag,
        "sigma00": traj.sigma00,
    }
    return columns, resolved, {}


def _run_asymptotic(scenario):
    pair, resolved = _build_model(*_read_model(scenario.sections))
    (b1, b2), res_init = _resolve_initial(scenario.sections)
    resolved.update(res_init)
    p0, p1 = asymptotic_probs(pair, (b1, b2))
    dark = dark_state(pair)
    overlap = dark[0] * b1 + dark[1] * b2
    trapped = _pure_start(overlap * dark[0], overlap * dark[1])
    _sigma_matrix(trapped)  # the state check every start gets
    s11, s22, s12 = trapped
    columns = {
        "p_trapped": np.array([p0]),
        "p_emitted": np.array([p1]),
        "sigma11": np.array([s11]),
        "sigma22": np.array([s22]),
        "re_sigma12": np.array([s12.real]),
        "im_sigma12": np.array([s12.imag]),
        "sigma00": np.array([max(0.0, 1.0 - (s11 + s22))]),
    }
    return columns, resolved, {}


def _dwell_time(pair, spec, given, axes=()):
    """:func:`dwell_time` of ``pair``, its refusals named by the keys that set it.

    ``spec``, ``given`` and ``axes`` are as for :func:`_model_keys`; the
    keys are those of the detuning and of both widths.  Aligned levels
    still raise :class:`InfiniteDwellTimeError`.
    """
    try:
        return dwell_time(pair)
    except InfiniteDwellTimeError:
        raise
    except ValueError as exc:
        keys = _model_keys(spec, given, axes, "epsilon", "gamma1", "gamma2")
        raise ConfigError(f"{keys}: {exc}") from exc


def _run_dwell(scenario):
    spec, given = _read_model(scenario.sections)
    pair, resolved = _build_model(spec, given)
    tau = _dwell_time(pair, spec, given)
    columns = {"tau": np.array([tau]), "rate": np.array([1.0 / tau])}
    return columns, resolved, {}


def single_particle_trajectory(*args, **kwargs):
    """Forward to :func:`darkwells.oracle.single_particle_trajectory`.

    The oracle loads scipy.sparse, so it is imported on the first oracle
    run instead of with the CLI.
    """
    from .oracle import single_particle_trajectory as run

    return run(*args, **kwargs)


def _run_oracle_compare(scenario):
    """The oracle against the closed form, the oracle first: it refuses before anything runs."""
    from .oracle import OracleRequestError, convergence_report

    spec, given = _read_model(scenario.sections, band=True)
    pair, resolved = _build_model(spec, given)
    (b1, b2), res_init = _resolve_initial(scenario.sections)
    times, res_grid = _resolve_grid(
        scenario.sections,
        8.0 / (pair.gamma1 + pair.gamma2),
        _model_keys(spec, given, {}, "gamma1", "gamma2"),
    )
    resolved.update(res_init)
    resolved.update(res_grid)
    n_levels = _parse_number(scenario.sections, "oracle", "n_levels", default=2000, kind=int)
    resolved["oracle.n_levels"] = n_levels
    try:
        oracle_run = single_particle_trajectory(pair, (b1, b2), times, n_levels=n_levels)
    except OracleRequestError as exc:
        band = _model_keys(spec, given, {}, "lambda_cutoff")
        t_max = ", grid.t_max" if "t_max" in scenario.sections.get("grid", {}) else ""
        keys = {"n_levels": "oracle.n_levels", "band": band, "phases": band + t_max,
                "n_points": "grid.n_points", "t_max": "grid.t_max"}[exc.source]
        raise ConfigError(f"{keys}: {exc}") from exc
    reference = _master_trajectory(
        pair, _pure_start(b1, b2), times, spec, given, scenario.sections
    )
    err = np.abs(oracle_run.trajectory.sigma11 - reference.sigma11)
    columns = {
        "t": times,
        "sigma11_reference": reference.sigma11,
        "sigma11_oracle": oracle_run.trajectory.sigma11,
        "abs_error": err,
    }
    extra = {"oracle": convergence_report(oracle_run)}
    extra["oracle"]["max_abs_error_sigma11"] = float(err.max())
    return columns, resolved, extra


def _run_fermions(scenario):
    op = _parse_mode(scenario.sections, "fermions", "op", _FERMION_OPS, "two_electron")
    resolved = {"fermions.op": op}
    if op == "two_electron":
        y = _parse_number(scenario.sections, "fermions", "y", default=1.0)
        _require_positive("fermions.y", y, or_zero=True)
        eta = _parse_eta(scenario.sections, "fermions")
        resolved.update({"fermions.y": y, "fermions.eta": eta})
        branches = two_electron_asymptotic(y, eta=eta)
    else:
        spec, given = _read_model(scenario.sections, parallel=True)
        model, res_model = _build_model(spec, given)
        resolved.update(res_model)
        base = model.base
        # the coupled sector's dark mode needs both widths; three electrons
        # on misaligned wells keep no state whatever the widths, as
        # three_electron_asymptotic reports first
        if not 0.0 < base.y < math.inf and (op == "two_electron_parallel" or base.epsilon == 0.0):
            raise ConfigError(
                f"{_model_keys(spec, given, {}, 'omega1', 'omega2')}: both wells must couple "
                f"to the reservoir, got gamma1 = {base.gamma1!r}, gamma2 = {base.gamma2!r}"
            )
        if op == "two_electron_parallel":
            branches = two_electron_parallel_asymptotic(model)
        else:
            branches = [three_electron_asymptotic(model)]
    payload = branches_to_json(branches)
    rows = [
        (
            branch["reservoir_count"],
            branch["probability"],
            "".join(str(bit) for bit in term["occupation"]),
            term["amplitude"][0],
            term["amplitude"][1],
        )
        for branch in payload
        for term in branch["terms"]
    ]
    counts, probs, occupations, re_amps, im_amps = list(zip(*rows)) or [()] * 5
    columns = {
        "reservoir_count": np.array(counts, dtype=np.int64),
        "probability": np.array(probs, dtype=float),
        "occupation": np.array(occupations, dtype=str),
        "re_amplitude": np.array(re_amps, dtype=float),
        "im_amplitude": np.array(im_amps, dtype=float),
    }
    return columns, resolved, {"branches": payload}


def _boson_count(sections, key, minimum):
    """A boson count from [bosons], refused outside [minimum, _MAX_BOSONS]."""
    n = _parse_number(sections, "bosons", key, default=1, kind=int)
    if n < minimum:
        raise ConfigError(f"bosons.{key}: must be at least {minimum}, got {n}")
    if n > _MAX_BOSONS:
        raise ConfigError(f"bosons.{key}: {n} bosons exceed the cap of {_MAX_BOSONS}")
    return n


def _run_bosons(scenario):
    sections = scenario.sections
    law = _parse_mode(sections, "bosons", "law", _BOSON_LAWS, "emission")
    resolved = {"bosons.law": law}
    if law != "equal_fill":
        y, resolved["bosons.y"] = _parse_ratio(sections, "bosons", "y")
    if law == "emission":
        n1 = _boson_count(sections, "n1", 0)
        n2 = _boson_count(sections, "n2", 0)
        count_keys, count = "bosons.n1, bosons.n2", n1 + n2
        if not 1 <= count <= _MAX_BOSONS:
            raise ConfigError(
                f"{count_keys}: n1 + n2 must lie between 1 and {_MAX_BOSONS}, got {count}"
            )
        eta = _parse_eta(sections, "bosons")
        resolved.update({"bosons.n1": n1, "bosons.n2": n2, "bosons.eta": eta})
    else:
        key = "n_retained" if law == "retained_split" else "n"
        n = _boson_count(sections, key, 0 if law == "retained_split" else 1)
        resolved[f"bosons.{key}"] = n
        count_keys, count = f"bosons.{key}", n
    if law != "equal_fill":
        bits = y.numerator.bit_length() + y.denominator.bit_length()
        work = count**4 * bits**3
        if work > _MAX_BOSON_WORK:
            raise ConfigError(
                f"{count_keys}, bosons.y: {count} bosons at the {bits} bits of y "
                f"(numerator and denominator) give count^4 x bits^3 = {work}, above "
                f"the work limit of {_MAX_BOSON_WORK}"
            )
    if law == "emission":
        dist = emission_distribution(rotate_fock(n1, n2, y, eta=eta))
    elif law == "equal_fill":
        dist = equal_fill_even_distribution(n)
    elif law == "one_well":
        dist = one_well_distribution(n, y)
    else:
        dist = retained_state_split(n, y)
    counts, probs = zip(*distribution_rows(dist))
    columns = {
        "m": np.array(counts, dtype=np.int64),
        "probability": np.array(probs, dtype=float),
    }
    return columns, resolved, {}


def _sweep_axis(sections, axis_key, values_key):
    """A sweep axis and its values, each refused outside the axis's domain."""
    sec = sections.get("sweep", {})
    for key in (axis_key, values_key):
        if key not in sec:
            raise ConfigError(f"sweep.{key}: required key is missing")
    axis = _parse_choice(sections, "sweep", axis_key, _SWEEP_AXES, None)
    raw = [item.strip() for item in sec[values_key].split(",") if item.strip()]
    if not raw:
        raise ConfigError(f"sweep.{values_key}: empty sweep axis")
    try:
        values = [float(item) for item in raw]
    except ValueError as exc:
        raise _unparsed(f"sweep.{values_key}", sec[values_key], "floats", exc) from None
    for value in values:
        if not math.isfinite(value):
            raise ConfigError(f"sweep.{values_key}: value must be finite, got {value}")
        if axis != "epsilon":
            _require_positive(f"sweep.{values_key}", value, or_zero=True)
    return axis, values


def _sweep_block(pairs, report, times, initial):
    """Report values of a block of sweep points from one batched evolution and fit."""
    s11, s22, _, _ = _evolve_sigma(pairs, initial, times)
    if report == "sigma11_asymptotic":
        return s11[:, 0].tolist()
    rates = fit_decay_rate(times, s11 + s22)
    return (1.0 / rates if report == "fitted_tau" else rates).tolist()


def _run_sweep(scenario):
    sections = scenario.sections
    sec = sections.get("sweep", {})
    axis1, values1 = _sweep_axis(sections, "axis", "values")
    axis2 = values2 = None
    if "axis2" in sec or "values2" in sec:
        axis2, values2 = _sweep_axis(sections, "axis2", "values2")
        if axis2 == axis1 or {axis1, axis2} == {"y", "gamma2"}:
            raise ConfigError("sweep.axis2: both axes set the same parameter")
    report = _parse_choice(sections, "sweep", "report", _SWEEP_REPORTS, "sigma11_asymptotic")
    max_points = _parse_number(sections, "sweep", "max_points", default=64, kind=int)
    if max_points < 1:
        raise ConfigError(f"sweep.max_points: need at least 1 point, got {max_points}")
    if max_points > _MAX_GRID_POINTS:
        raise ConfigError(
            f"sweep.max_points: {max_points} exceeds the cap of {_MAX_GRID_POINTS}"
        )
    n_points = len(values1) * (len(values2) if values2 else 1)
    if n_points > max_points:
        raise ConfigError(
            f"sweep.values: {n_points} grid points exceed the cap of {max_points}"
        )
    spec, given = _read_model(sections, sweep=True)
    t_long = _require_positive("sweep.t_max", _parse_number(sections, "sweep", "t_max"))
    if t_long is not None and report != "sigma11_asymptotic":
        raise ConfigError(f"sweep.t_max: sweep.report = {report} does not read this key")
    resolved = {
        "sweep.axis": axis1,
        "sweep.values": values1,
        "sweep.report": report,
        "sweep.max_points": max_points,
    }
    if t_long is not None:
        resolved["sweep.t_max"] = t_long
    if axis2 is not None:
        resolved["sweep.axis2"] = axis2
        resolved["sweep.values2"] = values2
    # the parsed width values no axis overrides; y and gamma2 override each other
    axes = {axis1, axis2}
    if axes & {"y", "gamma2"}:
        axes |= {"y", "gamma2"}
    resolved.update({f"model.{key}": value for key, value in spec.items() if key not in axes})
    # Every point's model and scalar prerequisites come first, in grid
    # order, so the first bad point raises; the evolutions then run batched.
    grid = [(v1, v2) for v1 in values1 for v2 in (values2 if values2 else [None])]
    points = [{axis1: v1} if axis2 is None else {axis1: v1, axis2: v2} for v1, v2 in grid]
    pairs, taus, values = [], [], []
    for point in points:
        pair, _ = _build_model(spec, given, **point)
        pairs.append(pair)
        if report == "p_trapped":
            values.append(asymptotic_probs(pair, (1.0, 0.0))[0])
        elif report != "sigma11_asymptotic":
            taus.append(_dwell_time(pair, spec, given, point))
    if report != "p_trapped":
        totals = np.array([pair.gamma1 + pair.gamma2 for pair in pairs])
        if report == "sigma11_asymptotic":
            times = (60.0 / totals if t_long is None else np.full(len(pairs), t_long))[:, None]
        else:
            # Decay fit: sample the occupation after the fast bright
            # transient has died (12 / Gamma'2) over two predicted lifetimes
            # and fit a single exponential.  The prediction fixes only the
            # fit window, not the value.
            t0s = 12.0 / totals
            ends = t0s + 2.0 * np.array(taus)
            times = np.linspace(t0s, ends, 48, axis=-1)
            # a window below the resolution of its start holds one time only
            empty = np.flatnonzero(ends == t0s)
            if empty.size:
                k = empty[0]
                keys = _model_keys(spec, given, points[k], "epsilon", "gamma1", "gamma2")
                raise ConfigError(
                    f"{keys}: the fit window 2 tau = {2.0 * taus[k]!r} vanishes "
                    f"next to its start t = {float(t0s[k])!r}"
                )
        try:
            for start in range(0, len(pairs), _SWEEP_BLOCK):
                block = slice(start, start + _SWEEP_BLOCK)
                values += _sweep_block(pairs[block], report, times[block], (1.0, 0.0, 0.0))
        except PropagatorOverflowError as exc:
            point = points[start + exc.index]
            keys = _model_keys(spec, given, point, "epsilon", "gamma1", "gamma2")
            keys += "" if t_long is None else ", sweep.t_max"
            raise ConfigError(f"{keys}: {exc}") from exc
    columns = {axis1: np.array([v1 for v1, _ in grid])}
    if axis2 is not None:
        columns[axis2] = np.array([v2 for _, v2 in grid])
    columns[report] = np.array(values, dtype=float)
    return columns, resolved, {}


# Each kind's runner and the sections it reads besides [scenario] and
# [output]; a kind refuses any other section rather than ignore it.
# fermions with op = two_electron reads no [model].  The order is the one
# the command line lists the kinds in.
_KINDS = {
    "evolve": (_run_evolve, {"model", "initial", "grid"}),
    "asymptotic": (_run_asymptotic, {"model", "initial"}),
    "dwell": (_run_dwell, {"model"}),
    "oracle-compare": (_run_oracle_compare, {"model", "initial", "grid", "oracle"}),
    "fermions": (_run_fermions, {"fermions", "model"}),
    "bosons": (_run_bosons, {"bosons"}),
    "sweep": (_run_sweep, {"sweep", "model"}),
}
KINDS = tuple(_KINDS)


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    return str(value)


# CSV spelling per column dtype kind: float, int, string
_CSV_CELL = {"f": "%.17g", "i": "%d", "U": "%s"}


def _json_cells(column: np.ndarray) -> list:
    """Each cell spelled as ``json.dumps`` spells it inside a list."""
    if column.dtype.kind == "U":
        return [json.dumps(value) for value in column.tolist()]
    # floats and ints hold no ", ", so one encoder call spells them all
    return json.dumps(column.tolist())[1:-1].split(", ")


def _render_table(fmt: str, digest: str, manifest, columns, extra) -> bytes:
    """Write named columns as a CSV table or as a JSON payload.

    ``columns`` maps each name to a float, int or string array, all of one
    length.  CSV floats take 17 significant digits.  The JSON bytes are
    those of ``json.dumps(payload, indent=2, sort_keys=True)`` with the
    rows as nested lists, but no row list is built.
    """
    arrays = list(columns.values())
    n_rows = len(arrays[0])
    if fmt == "csv":
        row = ",".join(_CSV_CELL[a.dtype.kind] for a in arrays)
        lines = [f"# manifest-sha256 {digest}", ",".join(columns)]
        lines += [row % cells for cells in zip(*(a.tolist() for a in arrays))]
        return ("\n".join(lines) + "\n").encode()
    payload = {
        "manifest_sha256": digest,
        "manifest": manifest,
        "columns": list(columns),
        "rows": [],
    }
    for key, value in extra.items():
        payload[key] = _json_safe(value)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if n_rows:
        # json.dumps nests a row list two levels deep and its cells three
        row = "    [\n      " + ",\n      ".join(["%s"] * len(arrays)) + "\n    ]"
        rows = ",\n".join(row % cells for cells in zip(*map(_json_cells, arrays)))
        # a top-level key sits alone after a newline and two spaces
        text = text.replace('\n  "rows": []', '\n  "rows": [\n' + rows + "\n  ]", 1)
    return (text + "\n").encode()


def render(scenario: Scenario) -> RunResult:
    """Compute a scenario's outputs in memory without touching the disk."""
    try:
        columns, resolved, extra = _KINDS[scenario.kind][0](scenario)
    except ConfigError:
        raise
    except (ValueError, RuntimeError) as exc:
        raise RuntimeError(f"scenario {scenario.kind!r}: {exc}") from exc
    manifest = {
        "kind": scenario.kind,
        "format": scenario.fmt,
        "output": scenario.out,
        "parameters": _json_safe(resolved),
        "versions": {
            "darkwells": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    for key, value in extra.items():
        manifest[key] = _json_safe(value)
    manifest_bytes = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    digest = hashlib.sha256(manifest_bytes).hexdigest()
    data = _render_table(scenario.fmt, digest, manifest, columns, extra)
    files = {
        scenario.out: data,
        scenario.out + ".manifest.json": manifest_bytes,
    }
    return RunResult(manifest=manifest, manifest_sha256=digest, files=files)


def run(scenario: Scenario) -> RunResult:
    """Render a scenario and write its files.

    An output path in a directory that does not exist is refused before
    anything is computed.  With ``seedless`` set, everything is computed
    twice and the two byte streams must match exactly; any mismatch means
    hidden nondeterminism and aborts before anything is written.
    """
    directory = os.path.dirname(scenario.out) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"output.path: directory {directory!r} does not exist")
    result = render(scenario)
    if scenario.seedless:
        again = render(scenario)
        if again.files != result.files:
            raise RuntimeError(
                "seedless check failed: two renders of the same scenario "
                "produced different bytes"
            )
    for path, content in result.files.items():
        try:
            with open(path, "wb") as fh:
                fh.write(content)
        except OSError as exc:
            raise RuntimeError(f"cannot write {path}: {exc.strerror}") from exc
    return result


def build_scenario(kind, config, out=None, fmt=None, seedless=False) -> Scenario:
    """Merge a parsed config with command-line overrides."""
    config_kind = config.get("scenario", {}).get("kind")
    if config_kind is not None and config_kind != kind:
        raise ConfigError(
            f"scenario.kind: config says {config_kind!r} but the command line "
            f"asked for {kind!r}"
        )
    out_sec = config.get("output", {})
    out_path = out if out is not None else out_sec.get("path", f"{kind}.csv")
    fmt_value = fmt if fmt is not None else out_sec.get("format", "csv")
    return Scenario(
        kind=kind, sections=config, out=out_path, fmt=fmt_value, seedless=seedless
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="darkwells",
        description="Deterministic simulations of two wells coupled through "
        "a common reservoir: trapped dark states, emission statistics, and "
        "a brute-force discretized oracle.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} scenario")
        p.add_argument("--config", help="INI scenario file")
        p.add_argument("--out", help="output data file path")
        p.add_argument("--format", choices=FORMATS, help="output format")
        p.add_argument(
            "--seedless",
            action="store_true",
            help="assert full determinism by computing everything twice",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        scenario = build_scenario(
            args.kind, config, out=args.out, fmt=args.format, seedless=args.seedless
        )
        result = run(scenario)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in sorted(result.files):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
