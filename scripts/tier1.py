"""Run Tier-1 and the benchmark's own tests; pass only if exactly the intended red test fails.

    python scripts/tier1.py

One in-process pytest session runs `tests` and `bench/test_bench.py` with
`--continue-on-collection-errors --durations=10`, so its report ends with the
ten slowest tests.  The `Failures` plugin records the node id and phase of
every failed report: a module that fails to collect, and a test that fails in
setup, call or teardown.  `tests/test_acceptance.py::test_c5_spectra` must
fail: it states an odd-family eigenvalue that the matrices provably do not
have (README, "Known red").  So the gate passes only if pytest exits 1 (tests
failed) and the one failure recorded is that test, in its call phase.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ARGS = ("-q", "--continue-on-collection-errors", "--durations=10", "tests", "bench/test_bench.py")
EXPECTED_FAILURE = "tests/test_acceptance.py::test_c5_spectra"


class Failures:
    """A pytest plugin that records (node id, phase) of each failed report."""

    def __init__(self) -> None:
        self.failed: set[tuple[str, str]] = set()

    def pytest_collectreport(self, report) -> None:
        if report.failed:
            self.failed.add((report.nodeid, "collect"))

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.failed.add((report.nodeid, report.when))


def verdict(code: int, failed: set[tuple[str, str]]) -> tuple[int, str]:
    """The gate's exit code and report line for a session's exit code and failures."""
    if code == pytest.ExitCode.TESTS_FAILED and failed == {(EXPECTED_FAILURE, "call")}:
        return 0, f"tier1: only the intended {EXPECTED_FAILURE} failed"
    return 1, (f"tier1: pytest exited {int(code)} with failures {sorted(failed)}, "
               f"not {EXPECTED_FAILURE} alone in its call phase")


def main() -> int:
    os.chdir(ROOT)
    plugin = Failures()
    code, line = verdict(pytest.main(list(ARGS), plugins=[plugin]), plugin.failed)
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
