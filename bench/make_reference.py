"""Record the reference digest of every query in the workload grids.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each query of `workloads.grid` once against `src/`, checks its exit
code and known answer, and writes `bench/reference/<workload>.json`, a map
from query key to the first 16 hex digits of the SHA-256 of its output.  The
digests pin the outputs of the commit that records them; rerun this only on
purpose, when a change of output is intended.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record(workload: str) -> dict[str, str]:
    mods = run.import_morirays()
    out = {}
    for q in workloads.grid(workload):
        code, output = workloads.run(q, mods["cli"], mods["verify"])
        why = f"exit code {code}" if code else workloads.known_answer(q, json.loads(output))
        if why:
            raise SystemExit(f"error: {workloads.key(q)}: {why}")
        out[workloads.key(q)] = workloads.digest(output)
    return out


def main(names: list[str]) -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        digests = record(workload)
        with open(workloads.REFERENCE_DIR / f"{workload}.json", "w") as fh:
            json.dump(digests, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
