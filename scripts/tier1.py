"""Run Tier-1 and the benchmark's own tests; pass only if exactly the intended red test fails.

    python scripts/tier1.py

Tier-1 is `python -m pytest -q --continue-on-collection-errors --durations=10`
with `src` on PYTHONPATH; its report ends with the ten slowest tests.
`tests/test_acceptance.py::test_c5_spectra` must fail: it states an
odd-family eigenvalue that the matrices provably do not have (README,
"Known red").  Any other failure or error, and a run where that test passes,
fails this script.  Then `bench/test_bench.py` must pass.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_FAILURES = {"tests/test_acceptance.py::test_c5_spectra"}


def failing(junit: Path) -> set[str]:
    """The ids of the failed and errored test cases in a JUnit XML report."""
    ids = set()
    for case in ET.parse(junit).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            module = case.get("classname", "")
            ids.add(f"{module.replace('.', '/')}.py::{case.get('name')}" if module else case.get("name"))
    return ids


def main() -> int:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp) / "tier1.xml"
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                               "--durations=10", f"--junitxml={junit}"], cwd=ROOT, env=env).returncode
        if code not in (0, 1) or not junit.exists():
            print(f"tier1: pytest exited {code} without a complete report")
            return 1
        got = failing(junit)
    if got != EXPECTED_FAILURES:
        print(f"tier1: expected exactly {sorted(EXPECTED_FAILURES)} to fail; "
              f"unexpected failures {sorted(got - EXPECTED_FAILURES)}, unexpected passes "
              f"{sorted(EXPECTED_FAILURES - got)}")
        return 1
    print(f"tier1: only the intended {sorted(got)} failed")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "bench/test_bench.py"], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
