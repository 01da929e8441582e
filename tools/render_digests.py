"""Print the SHA-256 of every output the benchmark workloads compute.

    python3 tools/render_digests.py --workload oracle --seed 1 2

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
"""

from __future__ import annotations

import argparse
import hashlib
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


def fock_digests(spec):
    """Digests of one Fock record's reduced quantities and state, then of its H."""
    model, pair = _fock_model(spec["model"])
    n_dots = oracle.dot_mode_count(model)
    res = oracle.DiscretizedReservoir.for_pair(pair, spec["n_levels"])
    space = oracle.FockSpace(n_dots + spec["n_levels"], spec["n_particles"],
                             spec["statistics"])
    psi0 = oracle.fock_basis_state(space, spec["initial"])
    states = oracle.evolve_fock(model, res, space, psi0, np.array(spec["times"]))
    digests = [hashlib.sha256() for _ in range(5)]
    for psi in states:
        reduced = oracle.reduced_quantities(space, psi, n_dots)
        arrays = (reduced.mode_occupations, reduced.reservoir_count_probs, reduced.dot_rdm, psi)
        for digest, array in zip(digests, arrays):
            digest.update(np.ascontiguousarray(array).tobytes())
    h = oracle.build_fock_hamiltonian(model, res, space)
    for array in (h.data, h.indices, h.indptr):
        digests[4].update(array.tobytes())
    return [digest.hexdigest() for digest in digests]


def _cli_digests(spec, ini):
    with open(ini, "w") as fh:
        fh.write(spec["ini"])
    out = "out." + spec["fmt"]
    scenario = cli.build_scenario(spec["kind"], cli.load_config(ini), out=out, fmt=spec["fmt"])
    files = cli.render(scenario).files
    return [hashlib.sha256(files[name]).hexdigest()
            for name in (out, out + ".manifest.json")]


def digest_lines(workload, seeds):
    """The sorted digest lines of every scenario of ``workload``'s seeds."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "scenario.ini")
        for seed in seeds:
            for spec in workloads.generate(workload, seed):
                key = f"{workload}:{seed}:{spec['id']}"
                try:
                    if "kind" in spec:
                        fields = _cli_digests(spec, ini)
                    else:
                        fields = ["fock"] + fock_digests(spec)
                except (ValueError, RuntimeError) as exc:
                    lines.append(f"{key} error {exc}")
                    continue
                lines.append(" ".join([key] + fields))
    return sorted(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    for line in digest_lines(args.workload, args.seed):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
