"""Print the SHA-256 of every output the benchmark workloads compute.

    python3 tools/render_digests.py --workload oracle --seed 1 2
    python3 tools/render_digests.py --workload oracle --seed 1 --dump DIR
    python3 tools/render_digests.py --compare DIR_A DIR_B

For each seed, the scenario cycle of ``perfbench/workloads.generate`` is
built.  Each CLI scenario is rendered in process through
``darkwells.cli.load_config``, ``build_scenario`` and ``render``, with the
fixed output name ``out.csv`` or ``out.json``.  Each Fock record (the
``oracle`` workload's many-body runs, which bypass the CLI) is run through
the public ``darkwells.oracle`` API, as the benchmark client runs it.  One
line per scenario is printed, sorted:

    <workload>:<seed>:<id> <sha256 of the data file> <sha256 of the manifest>
    <workload>:<seed>:<id> fock <sha256> <sha256> <sha256> <sha256> <sha256>

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
``<workload>_<seed>_<id>.npz`` per scenario: a Fock record's quantities
under the names above (``state``, ``h_data``, ...), and a CLI scenario's
data columns as ``data.<column>`` and every value of its manifest (and of
a JSON payload's other keys) as ``manifest.<path>`` (``data.<path>``),
read back from the rendered files.  ``--compare A B`` reads two such
directories and prints, per scenario, the largest absolute difference
over its arrays and the array that holds it; a string that differs, a
shape that differs or an array only one side has counts as ``inf``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def digest_lines(workload, seeds, dump=None):
    """The sorted digest lines of every scenario of ``workload``'s seeds.

    With ``dump`` set to a directory, each scenario's hashed arrays are
    also written there as ``<workload>_<seed>_<id>.npz``.
    """
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "scenario.ini")
        for seed in seeds:
            for spec in workloads.generate(workload, seed):
                key = f"{workload}:{seed}:{spec['id']}"
                try:
                    if "kind" in spec:
                        files = _cli_files(spec, ini)
                        fields = [hashlib.sha256(raw).hexdigest() for raw in files]
                        if dump:
                            arrays = cli_arrays(*files, spec["fmt"])
                    else:
                        arrays = fock_arrays(spec)
                        fields = ["fock"] + fock_digests(spec, arrays)
                except (ValueError, RuntimeError) as exc:
                    lines.append(f"{key} error {exc}")
                    continue
                lines.append(" ".join([key] + fields))
                if dump:
                    np.savez(os.path.join(dump, key.replace(":", "_") + ".npz"), **arrays)
    return sorted(lines)


def _difference(a, b):
    """Largest absolute difference of two arrays; ``inf`` if they cannot be compared."""
    if a.shape != b.shape:
        return math.inf
    if a.dtype.kind not in "iufc" or b.dtype.kind not in "iufc":
        return 0.0 if np.array_equal(a, b) else math.inf
    # equal entries (infinities included) and NaN against NaN differ by 0
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    diff = np.where(same, 0.0, np.abs(a - b))
    return float(diff.max(initial=0.0))


def compare_lines(dir_a, dir_b):
    """Per scenario of either dump: the largest difference and the array that holds it."""
    lines = []
    names = {name[:-4] for d in (dir_a, dir_b) for name in os.listdir(d) if name.endswith(".npz")}
    for name in sorted(names):
        paths = [os.path.join(d, name + ".npz") for d in (dir_a, dir_b)]
        if not all(os.path.exists(path) for path in paths):
            lines.append(f"{name} inf only-in-{'A' if os.path.exists(paths[0]) else 'B'}")
            continue
        with np.load(paths[0]) as a, np.load(paths[1]) as b:
            worst, where = 0.0, "-"
            for array in sorted(set(a.files) | set(b.files)):
                diff = (_difference(a[array], b[array])
                        if array in a.files and array in b.files else math.inf)
                if diff > worst:
                    worst, where = diff, array
        lines.append(f"{name} {worst:.3g} {where}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, nargs="+")
    parser.add_argument("--dump", metavar="DIR",
                        help="also write each scenario's hashed arrays to DIR")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the largest difference between two --dump directories")
    args = parser.parse_args(argv)
    if args.compare:
        lines = compare_lines(*args.compare)
    elif args.workload and args.seed:
        if args.dump:
            os.makedirs(args.dump, exist_ok=True)
        lines = digest_lines(args.workload, args.seed, args.dump)
    else:
        parser.error("give --workload and --seed, or --compare")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
