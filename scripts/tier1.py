"""Run Tier-1 and the benchmark's own tests; pass only if exactly the intended red test fails.

    python scripts/tier1.py

Tier-1 is `python -m pytest -q --continue-on-collection-errors --durations=10`
with `src` on PYTHONPATH; its report ends with the ten slowest tests.
`tests/test_acceptance.py::test_c5_spectra` must fail: it states an
odd-family eigenvalue that the matrices provably do not have (README,
"Known red").  So the suite without that test must pass, and that test alone
must fail (pytest exit 1; a missing test exits 4).  `--deselect` drops every
node id that starts with the given one, so first the collected node ids
(`--collect-only -q`) are compared with and without it: the deselect must
remove that one test and nothing else, or the gate fails before any test
runs.  Then `bench/test_bench.py` must pass.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_FAILURE = "tests/test_acceptance.py::test_c5_spectra"
SUITE = ("--continue-on-collection-errors",)
DESELECT = ("--deselect", EXPECTED_FAILURE)


def pytest(*args: str, capture: bool = False) -> subprocess.CompletedProcess:
    """pytest on `args`, with `src` first on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", *args], cwd=ROOT, env=env,
                          capture_output=capture, text=capture)


def collected(*args: str) -> set[str]:
    """The node ids that pytest collects on `args`."""
    out = pytest("--collect-only", *args, capture=True).stdout
    return {line for line in out.splitlines() if "::" in line}


def main() -> int:
    dropped = collected(*SUITE) - collected(*SUITE, *DESELECT)
    if dropped != {EXPECTED_FAILURE}:
        print(f"tier1: --deselect {EXPECTED_FAILURE} drops {sorted(dropped)}, not that test alone")
        return 1
    code = pytest(*SUITE, "--durations=10", *DESELECT).returncode
    if code != 0:
        print(f"tier1: the suite without {EXPECTED_FAILURE} exited {code}, not 0")
        return 1
    code = pytest(EXPECTED_FAILURE).returncode
    if code != 1:
        print(f"tier1: {EXPECTED_FAILURE} alone exited {code}, not 1 (a failure)")
        return 1
    print(f"tier1: only the intended {EXPECTED_FAILURE} failed")
    return pytest("bench/test_bench.py").returncode


if __name__ == "__main__":
    sys.exit(main())
