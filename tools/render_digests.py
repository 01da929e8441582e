"""Print the SHA-256 of every output the benchmark workloads compute.

    python3 tools/render_digests.py --workload oracle --seed 1 2
    python3 tools/render_digests.py --workload oracle --seed 1 --dump DIR
    python3 tools/render_digests.py --config runs/*.ini
    python3 tools/render_digests.py --compare DIR_A DIR_B
    python3 tools/render_digests.py --workload oracle --seed 1 --ledger

For each seed, the scenario cycle of ``perfbench/workloads.generate`` is
built.  Each CLI scenario is rendered in process through
``darkwells.cli.load_config``, ``build_scenario`` and ``render``, with the
fixed output name ``out.csv`` or ``out.json``.  Each Fock record (the
``oracle`` workload's many-body runs, which bypass the CLI) is run through
the public ``darkwells.oracle`` API, as the benchmark client runs it.
Each config file given with ``--config`` (with or without a workload) is
run the same way, as the kind its ``[scenario] kind`` names; a file the
CLI cannot read, or one that names no kind, ends the script with exit 2.
One line per scenario is printed, sorted:

    <workload>:<seed>:<id> <sha256 of the data file> <sha256 of the manifest>
    <workload>:<seed>:<id> fock <sha256> <sha256> <sha256> <sha256> <sha256>
    config:<path> <sha256 of the data file> <sha256 of the manifest>

where a Fock line's first four digests hash the bytes of
``mode_occupations``, ``reservoir_count_probs``, ``dot_rdm`` and the
evolved state itself at each output time in turn; the state digest shows a
propagator change on its own output, signed zeros included.  The fifth
hashes the CSR ``data``, ``indices`` and ``indptr`` of the record's
``build_fock_hamiltonian``, so a change to the Hamiltonian build shows on
its own.  A
scenario the program refuses prints ``error`` and the message instead of
the digests.  Run the script in two checkouts and ``diff`` the outputs to
see which scenarios changed bytes.  The package is imported from the
``src/`` next to this script, so each checkout computes with its own code.

``--dump DIR`` also writes the arrays each line hashes, one
``<workload>_<seed>_<id>.npz`` (``config_<path>.npz``, with the path's
separators as ``_``) per scenario: a Fock record's quantities under the
names above (``state``, ``h_data``, ...), and a CLI scenario's
data columns as ``data.<column>`` and every value of its manifest (and of
a JSON payload's other keys) as ``manifest.<path>`` (``data.<path>``),
read back from the rendered files.  ``--compare A B`` reads two such
directories and prints, per scenario, the largest absolute difference
over its arrays and the array that holds it, then each other array that
differs as ``name=difference``; a string that differs, a shape that
differs, a NaN against a number or an array only one side has counts as
``inf``, and hides no finite difference.

``--ledger`` prints the work of each scenario in place of its digests:
the propagation events the program logs on the ``darkwells`` logger while
it runs, one after another on the scenario's line (``none`` if it
propagates nothing):

    <key> chebyshev dim=<dim> nnz=<nnz of H> degree=<CSR products> work=<nnz x degree>
    <key> dense eigh=<dimension of the eigendecomposition>

followed by three totals, over the CLI scenarios, the Fock records and
both: ``total <group> dense=<runs> eigh=<smallest>-<largest>
expansions=<runs> degree=<sum> work=<sum>``.  The events carry no
timings, so the listing is deterministic, and a ``diff`` of two checkouts'
listings shows whether a change kept the work the same.

A reader that closes the pipe early (``| head``) ends the listing
quietly, with exit code 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from darkwells import cli, oracle  # noqa: E402
from darkwells.model import ParallelWellPair, WellPair  # noqa: E402


def _fock_model(spec):
    """The many-body model of a Fock record and its single well pair."""
    if spec["kind"] == "parallel":
        base = WellPair(E1=spec["e1"], E2=spec["e2"], omega1=spec["omega1"],
                        omega2=spec["omega2"], lambda_cutoff=spec["lambda_cutoff"])
        return ParallelWellPair(base=base, yprime=spec["yprime"], U=spec["u"]), base
    pair = WellPair.from_widths(spec["gamma1"], spec["gamma2"], eta=spec["eta"],
                                epsilon=spec["epsilon"])
    return pair, pair


# the arrays of fock_arrays each Fock digest hashes, in line order
FOCK_DIGESTS = (
    ("mode_occupations",),
    ("reservoir_count_probs",),
    ("dot_rdm",),
    ("state",),
    ("h_data", "h_indices", "h_indptr"),
)


def fock_arrays(spec):
    """One Fock record's reduced quantities and states, one row per time, then its H."""
    model, pair = _fock_model(spec["model"])
    n_dots = oracle.dot_mode_count(model)
    res = oracle.DiscretizedReservoir.for_pair(pair, spec["n_levels"])
    space = oracle.FockSpace(n_dots + spec["n_levels"], spec["n_particles"],
                             spec["statistics"])
    psi0 = oracle.fock_basis_state(space, spec["initial"])
    states = oracle.evolve_fock(model, res, space, psi0, np.array(spec["times"]))
    reduced = [oracle.reduced_quantities(space, psi, n_dots) for psi in states]
    h = oracle.build_fock_hamiltonian(model, res, space)
    return {
        "mode_occupations": np.array([r.mode_occupations for r in reduced]),
        "reservoir_count_probs": np.array([r.reservoir_count_probs for r in reduced]),
        "dot_rdm": np.array([r.dot_rdm for r in reduced]),
        "state": states,
        "h_data": h.data,
        "h_indices": h.indices,
        "h_indptr": h.indptr,
    }


def _sha256(arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def fock_digests(spec, arrays=None):
    """Digests of one Fock record's reduced quantities and state, then of its H."""
    arrays = fock_arrays(spec) if arrays is None else arrays
    return [_sha256(arrays[name] for name in names) for names in FOCK_DIGESTS]


def _cli_files(spec, ini):
    """The data file and manifest bytes of one CLI scenario."""
    with open(ini, "w") as fh:
        fh.write(spec["ini"])
    out = "out." + spec["fmt"]
    scenario = cli.build_scenario(spec["kind"], cli.load_config(ini), out=out, fmt=spec["fmt"])
    files = cli.render(scenario).files
    return files[out], files[out + ".manifest.json"]


def _leaves(value, path, arrays):
    """Every number or string under a JSON ``value``, keyed by its dotted path."""
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{path}.{key}", arrays)
    elif isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        for k, item in enumerate(value):
            _leaves(item, f"{path}.{k}", arrays)
    else:
        arrays[path] = _column(value if isinstance(value, list) else [value])


def _column(cells):
    """Numbers as float64 (JSON's null as NaN), anything else as strings."""
    try:
        return np.array([math.nan if cell is None else cell for cell in cells], dtype=float)
    except (TypeError, ValueError):
        return np.array([str(cell) for cell in cells])


def cli_arrays(data, manifest, fmt):
    """The columns and values of a rendered data file and its manifest, by name."""
    arrays = {}
    _leaves(json.loads(manifest), "manifest", arrays)
    if fmt == "csv":
        names, *rows = data.decode().splitlines()[1:]
        cells = list(zip(*(row.split(",") for row in rows))) or [()] * len(names.split(","))
    else:
        payload = json.loads(data)
        names, rows = ",".join(payload.pop("columns")), payload.pop("rows")
        cells = list(zip(*rows)) or [()] * len(names.split(","))
        del payload["manifest"], payload["manifest_sha256"]
        _leaves(payload, "data", arrays)
    for name, column in zip(names.split(","), cells):
        arrays[f"data.{name}"] = _column(column)
    return arrays


class _Events(logging.Handler):
    """Keeps the propagation events (the records that carry a ``dim``)."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.events = []

    def emit(self, record):
        if hasattr(record, "dim"):
            self.events.append(record)


def _ledger_fields(events):
    """One scenario's propagation events as ledger fields."""
    fields = []
    for event in events:
        if hasattr(event, "degree"):
            fields += ["chebyshev", f"dim={event.dim}", f"nnz={event.nnz}",
                       f"degree={event.degree}", f"work={event.nnz * event.degree}"]
        else:
            fields += ["dense", f"eigh={event.dim}"]
    return fields or ["none"]


def _ledger_totals(groups):
    """The ledger's total lines over the CLI scenarios, the Fock records and both."""
    groups["all"] = groups["cli"] + groups["fock"]
    lines = []
    for group in ("cli", "fock", "all"):
        dense = [event.dim for event in groups[group] if not hasattr(event, "degree")]
        expansions = [event for event in groups[group] if hasattr(event, "degree")]
        span = f"{min(dense)}-{max(dense)}" if dense else "-"
        lines.append(
            f"total {group} dense={len(dense)} eigh={span} expansions={len(expansions)} "
            f"degree={sum(event.degree for event in expansions)} "
            f"work={sum(event.nnz * event.degree for event in expansions)}"
        )
    return lines


def _lines(scenarios, dump=None, ledger=False):
    """The sorted digest lines of ``(key, spec)`` scenarios, dumped as for :func:`digest_lines`.

    With ``ledger`` each line lists the scenario's propagation events in
    place of its digests (and ends in ``error`` if the program refused
    it), and the totals follow the lines.
    """
    lines = []
    groups = {"cli": [], "fock": []}
    logger = logging.getLogger("darkwells")
    handler, level = _Events(), logger.level
    if ledger:
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            ini = os.path.join(tmp, "scenario.ini")
            for key, spec in scenarios:
                handler.events = []
                fields, arrays = _digests(spec, ini, dump)
                if ledger:
                    groups["cli" if "kind" in spec else "fock"] += handler.events
                    refused = fields[0] == "error"
                    fields = _ledger_fields(handler.events) + ["error"] * refused
                lines.append(" ".join([key] + fields))
                if dump and arrays is not None:
                    name = key.replace(":", "_").replace(os.sep, "_")
                    np.savez(os.path.join(dump, name + ".npz"), **arrays)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return sorted(lines) + (_ledger_totals(groups) if ledger else [])


def _digests(spec, ini, dump):
    """One scenario's digest fields, and its arrays when they are to be dumped.

    A scenario the program refuses gives ``["error", message]`` and no arrays.
    """
    try:
        if "kind" in spec:
            files = _cli_files(spec, ini)
            fields = [hashlib.sha256(raw).hexdigest() for raw in files]
            return fields, cli_arrays(*files, spec["fmt"]) if dump else None
        arrays = fock_arrays(spec)
        return ["fock"] + fock_digests(spec, arrays), arrays
    except (ValueError, RuntimeError) as exc:
        return ["error", str(exc)], None


def digest_lines(workload, seeds, dump=None, ledger=False):
    """The sorted digest lines of every scenario of ``workload``'s seeds.

    With ``dump`` set to a directory, each scenario's hashed arrays are
    also written there as ``<workload>_<seed>_<id>.npz``.  With ``ledger``
    the lines are the work ledger's.
    """
    return _lines(_workload_scenarios(workload, seeds), dump, ledger)


def _workload_scenarios(workload, seeds):
    return [(f"{workload}:{seed}:{spec['id']}", spec)
            for seed in seeds for spec in workloads.generate(workload, seed)]


def config_spec(path):
    """A config file as a CLI scenario: its text, its ``scenario.kind`` and format.

    Raises ``ValueError`` for a file the CLI cannot read or that names no kind.
    """
    with open(path) as fh:
        text = fh.read()
    config = cli.load_config(path)
    kind = config.get("scenario", {}).get("kind")
    if kind not in cli.KINDS:
        raise ValueError(f"{path}: scenario.kind must name one of {', '.join(cli.KINDS)}")
    return {"kind": kind, "ini": text, "fmt": config.get("output", {}).get("format", "csv")}


def config_lines(paths, dump=None):
    """The sorted digest lines of the CLI runs of the config files ``paths``.

    Each line's key is ``config:<path>``, as the path was given; with
    ``dump`` each run's arrays are written as ``config_<path>.npz``, with
    the path's separators turned into ``_``.
    """
    return _lines(_config_scenarios(paths), dump)


def _config_scenarios(paths):
    return [(f"config:{path}", config_spec(path)) for path in paths]


def _difference(a, b):
    """Largest absolute difference of two arrays; ``inf`` if they cannot be compared."""
    if a.shape != b.shape:
        return math.inf
    if a.dtype.kind not in "iufc" or b.dtype.kind not in "iufc":
        return 0.0 if np.array_equal(a, b) else math.inf
    # equal entries (infinities included) and NaN against NaN differ by 0,
    # NaN against a number by inf
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    diff = np.where(same, 0.0, np.abs(a - b))
    return float(np.where(np.isnan(diff), math.inf, diff).max(initial=0.0))


def compare_lines(dir_a, dir_b):
    """Per scenario of either dump: the largest difference, its array, then the others.

    Each other array that differs follows as ``name=difference``, in name order.
    """
    lines = []
    names = {name[:-4] for d in (dir_a, dir_b) for name in os.listdir(d) if name.endswith(".npz")}
    for name in sorted(names):
        paths = [os.path.join(d, name + ".npz") for d in (dir_a, dir_b)]
        if not all(os.path.exists(path) for path in paths):
            lines.append(f"{name} inf only-in-{'A' if os.path.exists(paths[0]) else 'B'}")
            continue
        with np.load(paths[0]) as a, np.load(paths[1]) as b:
            diffs = {
                array: (_difference(a[array], b[array])
                        if array in a.files and array in b.files else math.inf)
                for array in sorted(set(a.files) | set(b.files))
            }
        differing = {array: diff for array, diff in diffs.items() if diff > 0.0}
        where = max(differing, key=differing.get, default="-")
        others = [f"{array}={diff:.3g}" for array, diff in differing.items() if array != where]
        lines.append(" ".join([name, f"{differing.get(where, 0.0):.3g}", where] + others))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, nargs="+")
    parser.add_argument("--config", nargs="+", metavar="INI",
                        help="also hash the CLI run of each config file, whose "
                             "[scenario] kind names the kind to run")
    parser.add_argument("--dump", metavar="DIR",
                        help="also write each scenario's hashed arrays to DIR")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the differing arrays of two --dump directories")
    parser.add_argument("--ledger", action="store_true",
                        help="print each scenario's propagation work instead of its digests")
    args = parser.parse_args(argv)
    if args.compare:
        lines = compare_lines(*args.compare)
    elif (args.workload and args.seed) or (args.config and not (args.workload or args.seed)):
        if args.dump:
            os.makedirs(args.dump, exist_ok=True)
        try:
            scenarios = _config_scenarios(args.config or ())
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        if args.workload:
            scenarios += _workload_scenarios(args.workload, args.seed)
        lines = _lines(scenarios, args.dump, args.ledger)
    else:
        parser.error("give --workload and --seed, --config, or --compare")
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``); point stdout at devnull so
        # the flush at exit meets no closed pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
