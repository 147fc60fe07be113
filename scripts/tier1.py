"""Run Tier-1 and the benchmark's own tests; pass only if exactly the intended red test fails.

    python scripts/tier1.py

Tier-1 is `python -m pytest -q --continue-on-collection-errors --durations=10`
with `src` on PYTHONPATH; its report ends with the ten slowest tests.
`tests/test_acceptance.py::test_c5_spectra` must fail: it states an
odd-family eigenvalue that the matrices provably do not have (README,
"Known red").  So the suite without that test must pass, and that test alone
must fail (pytest exit 1; a missing test exits 4).  `--deselect` drops every
node id that starts with the given one, so no other test name may start with
`test_c5_spectra`.  Then `bench/test_bench.py` must pass.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_FAILURE = "tests/test_acceptance.py::test_c5_spectra"


def pytest(*args: str) -> int:
    """pytest's exit code on `args`, with `src` first on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", *args], cwd=ROOT, env=env).returncode


def main() -> int:
    code = pytest("--continue-on-collection-errors", "--durations=10", "--deselect", EXPECTED_FAILURE)
    if code != 0:
        print(f"tier1: the suite without {EXPECTED_FAILURE} exited {code}, not 0")
        return 1
    code = pytest(EXPECTED_FAILURE)
    if code != 1:
        print(f"tier1: {EXPECTED_FAILURE} alone exited {code}, not 1 (a failure)")
        return 1
    print(f"tier1: only the intended {EXPECTED_FAILURE} failed")
    return pytest("bench/test_bench.py")


if __name__ == "__main__":
    sys.exit(main())
