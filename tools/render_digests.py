"""Print the SHA-256 of every CLI output the benchmark workloads render.

    python3 tools/render_digests.py --workload wideband --seed 1 2 3

For each seed, the scenario cycle of ``perfbench/workloads.generate`` is
built (Fock records, which bypass the CLI, are skipped).  Each CLI scenario
is rendered in process through ``darkwells.cli.load_config``,
``build_scenario`` and ``render``, with the fixed output name ``out.csv`` or
``out.json``, and one line per scenario is printed, sorted:

    <workload>:<seed>:<id> <sha256 of the data file> <sha256 of the manifest>

A scenario the CLI refuses prints ``error`` and the message instead of the
two digests.  Run the script in two checkouts and ``diff`` the outputs to
see which scenarios changed bytes.  The package is imported from the
``src/`` next to this script, so each checkout renders with its own code.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from darkwells import cli  # noqa: E402


def digest_lines(workload, seeds):
    """The sorted digest lines of every CLI scenario of ``workload``'s seeds."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "scenario.ini")
        for seed in seeds:
            for spec in workloads.generate(workload, seed):
                if "kind" not in spec:
                    continue
                key = f"{workload}:{seed}:{spec['id']}"
                with open(ini, "w") as fh:
                    fh.write(spec["ini"])
                out = "out." + spec["fmt"]
                try:
                    scenario = cli.build_scenario(
                        spec["kind"], cli.load_config(ini), out=out, fmt=spec["fmt"]
                    )
                    files = cli.render(scenario).files
                except (ValueError, RuntimeError) as exc:
                    lines.append(f"{key} error {exc}")
                    continue
                data, manifest = files[out], files[out + ".manifest.json"]
                lines.append(
                    f"{key} {hashlib.sha256(data).hexdigest()} "
                    f"{hashlib.sha256(manifest).hexdigest()}"
                )
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
