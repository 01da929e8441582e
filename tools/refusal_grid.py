"""Print how the CLI ends on each config of a fixed grid: a run or a refusal.

    python3 tools/refusal_grid.py > grid.txt

One line per config, in grid order:

    <id> run
    <id> exit 2 <message>
    <id> exit 1 <message>
    <id> traceback <exception type>: <message>

where a refusal's message is the ``ConfigError`` text after ``config
error:``, which starts with the keys it names, and a traceback is an
exception that ``main`` lets escape.  Run the script in two
checkouts and ``diff`` the listings to see which configs changed how they
end.  The grid is:

- ``oracle-compare`` at ``n_levels`` x ``n_points`` x ``t_max`` x
  ``lambda_cutoff`` x ``gamma1`` (3 960 configs), around the oracle's
  request limits;
- ``bosons``, each law at the counts 0, 1, 1000 and 1001 in each count key
  and, except ``equal_fill``, which reads no ratio, at each ``y`` of
  ``RATIOS``;
- each kind with one section of each name, and one unknown section, that
  holds one unknown key: each case is refused as a section the kind does
  not read, as an unknown section or as an unknown key;
- the models of ``MODEL_ROWS``: couplings and widths at the edges of the
  float range, a large ``yprime``, a vanishing width in the parallel
  fermion ops, a fit window past 1e154, a small detuned parallel pair, and
  a ``sweep.max_points`` above its cap and below 1.

Each config is rendered in process through ``darkwells.cli.build_scenario``
and ``render``; nothing is written.  The work a run would do past its
refusals is stubbed out, so the whole grid takes seconds: the oracle's
``build_single_particle_hamiltonian`` and the two propagators it feeds
return at once, with the wells' amplitudes zero, and the four boson law
functions as ``cli`` sees them (``rotate_fock``,
``equal_fill_even_distribution``, ``one_well_distribution`` and
``retained_state_split``) return a one-boson law.  The package is imported
from the ``src/`` next to this script, so each checkout runs its own code.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import os
import sys
from fractions import Fraction
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from darkwells import bosons, cli, oracle  # noqa: E402

ORACLE_AXES = {
    "n_levels": ("4", "9", "10", "11", "40", "1498", "1500", "2000", "100000", "100002",
                 "200000"),
    "n_points": ("2", "200", "3000", "30000", "100000"),
    "t_max": (None, "1", "100", "1e4", "1e10", "1e300"),
    "lambda_cutoff": (None, "1e-320", "8", "4.6e307", "5e307", "1.7e308"),
    "gamma1": ("1", "1e306"),
}
COUNTS = ("0", "1", "1000", "1001")
RATIOS = ("1", "3/4", "0.123456789", "1e-30", "0", "-1", "nan", "inf", "text", "1e-400",
          "1e400", "1e1000000", "3" * 5000 + "/7")
# the count keys of each law
LAW_COUNTS = {
    "emission": ("n1", "n2"),
    "equal_fill": ("n",),
    "one_well": ("n",),
    "retained_split": ("n_retained",),
}
SECTIONS = ("scenario", "model", "initial", "grid", "output", "oracle", "fermions", "bosons",
            "sweep", "nonsense")
KINDS = ("evolve", "asymptotic", "dwell", "oracle-compare", "fermions", "bosons", "sweep")
# couplings whose widths underflow or whose products once did (widths
# about 1e-23 from couplings near 1e-150 and 1e-162), a mixing that
# underflows on two coupled wells, a large yprime in the parallel fermion
# ops, and one vanishing width where those ops need both (a misaligned
# three-electron case has no bound state first); then widths whose squares
# underflow, a fitted tau whose squared fit times overflow, the
# two_electron_parallel pair gamma1 = 1, u = 0.7 scaled by 2^-40, which
# stays off resonance, and sweep.max_points past the grid cap of 100 000 and
# below 1
MODEL_ROWS = (
    ("asymptotic", {"model": {"omega1": "1e-200", "omega2": "1e-200"}}),
    ("dwell", {"model": {"omega1": "1e-200", "omega2": "1e-200", "e1": "1"}}),
    ("dwell", {"model": {"omega1": "1e-162", "omega2": "1e-162", "rho": "1e300", "e1": "1"}}),
    ("dwell", {"model": {"omega1": "1.2e-150", "omega2": "1.2e-150", "rho": "1e276",
                         "e1": "1e-23"}}),
    ("dwell", {"model": {"omega1": "1.2e-162", "omega2": "1.2e-162", "rho": "1e300",
                         "e1": "1e-23"}}),
    ("evolve", {"model": {"omega1": "1.2e-162", "omega2": "1.2e-162", "rho": "1e300",
                          "e1": "1e-23"}}),
    ("dwell", {"model": {"gamma1": "1", "gamma2": "1e-300", "epsilon": "1e-300"}}),
    ("oracle-compare", {"model": {"omega1": "1e-150", "omega2": "1e-150", "rho": "1e-30"}}),
    *(("fermions", {"fermions": {"op": op}, "model": {"yprime": yprime}})
      for op in ("two_electron_parallel", "three_electron") for yprime in ("1e160", "1e308")),
    ("fermions", {"fermions": {"op": "two_electron_parallel"},
                  "model": {"omega1": "0", "omega2": "1", "yprime": "0.5"}}),
    ("fermions", {"fermions": {"op": "three_electron"},
                  "model": {"gamma1": "1", "y": "0", "yprime": "0.5"}}),
    ("fermions", {"fermions": {"op": "three_electron"},
                  "model": {"gamma1": "1", "y": "0", "epsilon": "1", "yprime": "0.5"}}),
    ("evolve", {"model": {"gamma1": "1e-170"}}),
    ("sweep", {"model": {"epsilon": "0.3"},
               "sweep": {"axis": "gamma1", "values": "1e100", "report": "fitted_tau"}}),
    ("fermions", {"fermions": {"op": "two_electron_parallel"},
                  "model": {"gamma1": "9.094947017729282e-13", "y": "2", "yprime": "0.8",
                            "u": "6.366462912410497e-13"}}),
    ("sweep", {"sweep": {"axis": "y", "values": "1, 2", "max_points": "100001"}}),
    *(("sweep", {"sweep": {"axis": "y", "values": "1", "max_points": points}})
      for points in ("0", "-5")),
)


def _label(value):
    """A grid value as its id spells it: short text as is, a long one by its length."""
    return value if len(value) <= 20 else f"<{len(value)} characters>"


def grid():
    """Every ``(id, kind, config)`` of the grid, in order."""
    for values in itertools.product(*ORACLE_AXES.values()):
        point = dict(zip(ORACLE_AXES, values))
        config = {
            "model": {"gamma1": point["gamma1"]},
            "grid": {"n_points": point["n_points"]},
            "oracle": {"n_levels": point["n_levels"]},
        }
        if point["t_max"] is not None:
            config["grid"]["t_max"] = point["t_max"]
        if point["lambda_cutoff"] is not None:
            config["model"]["lambda_cutoff"] = point["lambda_cutoff"]
        name = " ".join(f"{key}={'-' if value is None else value}"
                        for key, value in point.items())
        yield f"oracle-compare {name}", "oracle-compare", config
    for law, keys in LAW_COUNTS.items():
        ratios = (None,) if law == "equal_fill" else RATIOS
        for counts in itertools.product(COUNTS, repeat=len(keys)):
            for y in ratios:
                section = {"law": law, **dict(zip(keys, counts))}
                if y is not None:
                    section["y"] = y
                name = " ".join(f"{key}={_label(value)}" for key, value in section.items())
                yield f"bosons {name}", "bosons", {"bosons": section}
    for kind in KINDS:
        for section in SECTIONS:
            yield f"{kind} [{section}]", kind, {section: {"nonsense": "1"}}
    for kind, config in MODEL_ROWS:
        name = " ".join(f"{key}={value}" for keys in config.values()
                        for key, value in keys.items())
        yield f"{kind} {name}", kind, config


def outcome(kind, config):
    """``run``, ``exit <code> <message>`` as ``cli.main`` would end, or the
    exception that would escape it."""
    try:
        cli.render(cli.build_scenario(kind, config, out="out.csv"))
    except cli.ConfigError as exc:
        return f"exit 2 {exc}"
    except (ValueError, RuntimeError) as exc:
        return f"exit 1 {exc}"
    except Exception as exc:
        return f"traceback {type(exc).__name__}: {exc}"
    return "run"


def _projection(h, psi0, times, **kwargs):
    """A propagation that keeps the start: the wells' amplitudes zero at every time."""
    return oracle.Projection(np.zeros((len(times), 2), dtype=complex), psi0, None, None)


def _one_boson(*args, **kwargs):
    return bosons.FockDistribution(probabilities={0: Fraction(1)})


def _one_dark_boson(*args, **kwargs):
    amplitude = bosons.SurdAmplitude(1, Fraction(1))
    return bosons.BosonFockState(total=1, amplitudes={(1, 0): amplitude})


STUBS = (
    (oracle, "build_single_particle_hamiltonian", lambda *args, **kwargs: None),
    (oracle, "evolve_exact", _projection),
    (oracle, "chebyshev_propagate", _projection),
    (cli, "rotate_fock", _one_dark_boson),
    (cli, "equal_fill_even_distribution", _one_boson),
    (cli, "one_well_distribution", _one_boson),
    (cli, "retained_state_split", _one_boson),
)


def main():
    with contextlib.ExitStack() as stack:
        # the oracle's recurrence warnings would otherwise reach stderr
        logger, handler = logging.getLogger("darkwells"), logging.NullHandler()
        logger.addHandler(handler)
        stack.callback(logger.removeHandler, handler)
        for module, name, stub in STUBS:
            stack.enter_context(mock.patch.object(module, name, stub))
        for name, kind, config in grid():
            print(f"{name} {outcome(kind, config)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
