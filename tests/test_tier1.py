"""The Tier-1 gate (`scripts/tier1.py`) on small synthetic suites.

Each case writes a suite laid out like this repository's, runs it in process
with the gate's own arguments and plugin, and checks the failures the plugin
recorded and the gate's verdict on them.  pytest imports a test module under
its file's base name, so the session that runs this file may already hold a
`test_acceptance` or `test_bench` module; each case hides those while it runs.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

tier1 = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "tier1.py"))

C5 = "tests/test_acceptance.py::test_c5_spectra"
PASS = "def test_{}():\n    pass\n"
FAIL = "def test_{}():\n    assert False\n"
RED = FAIL.format("c5_spectra")
SUITE = {
    "tests/test_acceptance": PASS.format("c1") + RED,
    "tests/test_other": PASS.format("other"),
    "bench/test_bench": PASS.format("bench"),
}
SETUP_ERROR = """\
import pytest


@pytest.fixture
def broken():
    raise RuntimeError("setup")


def test_c5_spectra(broken):
    assert False
"""


def gate(pytester, monkeypatch, **changes):
    suite = {**SUITE, **changes}
    for path in suite:
        monkeypatch.delitem(sys.modules, path.rpartition("/")[2], raising=False)
    pytester.makepyfile(**suite)
    plugin = tier1["Failures"]()
    result = pytester.runpytest_inprocess(*tier1["ARGS"], plugins=[plugin])
    return plugin.failed, tier1["verdict"](result.ret, plugin.failed)


def test_the_intended_red_alone_passes(pytester, monkeypatch):
    failed, (code, line) = gate(pytester, monkeypatch)
    assert failed == {(C5, "call")}
    assert code == 0 and C5 in line


@pytest.mark.parametrize("changes, failed", [
    pytest.param({"tests/test_other": FAIL.format("other")},
                 {(C5, "call"), ("tests/test_other.py::test_other", "call")}, id="another-test-fails"),
    pytest.param({"tests/test_acceptance": PASS.format("c5_spectra")}, set(), id="c5-passes"),
    pytest.param({"tests/test_acceptance": FAIL.format("c5_target")},
                 {("tests/test_acceptance.py::test_c5_target", "call")}, id="c5-renamed-away"),
    pytest.param({"tests/test_acceptance": RED + FAIL.format("c5_spectra_extra")},
                 {(C5, "call"), (C5 + "_extra", "call")}, id="c5-prefix-also-fails"),
    pytest.param({"tests/test_other": "import no_such_module_anywhere\n"},
                 {(C5, "call"), ("tests/test_other.py", "collect")}, id="module-fails-to-collect"),
    pytest.param({"tests/test_acceptance": SETUP_ERROR}, {(C5, "setup")}, id="c5-errors-in-setup"),
    pytest.param({"bench/test_bench": FAIL.format("bench")},
                 {(C5, "call"), ("bench/test_bench.py::test_bench", "call")}, id="bench-test-fails"),
])
def test_every_other_failing_set_fails_the_gate(pytester, monkeypatch, changes, failed):
    recorded, (code, line) = gate(pytester, monkeypatch, **changes)
    assert recorded == failed
    assert code == 1 and str(sorted(failed)) in line
