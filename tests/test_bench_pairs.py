"""The summary of `scripts/bench_pairs.py`, on synthetic runs: no run starts."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

bench_pairs = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"))
summarize, iqr = bench_pairs["summarize"], bench_pairs["iqr"]

BETTER = {"ops_per_s": "higher", "latency_p90_ms": "lower", "pass_frac": "higher"}


def _runs(ops, p90):
    return [{"ops_per_s": o, "latency_p90_ms": q, "pass_frac": 1.0} for o, q in zip(ops, p90)]


RUNS = {
    "fast": {"parent": _runs([100, 110, 90, 105], [2.0, 2.2, 1.8, 2.1]),
             "change": _runs([120, 100, 130, 125], [1.5, 2.4, 1.6, 1.7])},
    "flat": {"parent": _runs([10, 10, 10, 10], [1.0, 1.0, 1.0, 1.0]),
             "change": _runs([10, 10, 10, 10], [1.0, 1.0, 1.0, 1.0])},
}
FAILED = {"fast": {"parent": 0, "change": 1}, "flat": {"parent": 0, "change": 0}}


def test_medians_pairs_and_ratio():
    doc = summarize(RUNS, FAILED, BETTER, label="x")
    ops = doc["pairs"]["fast"]["ops_per_s"]
    assert ops["parent"] == 102.5 and ops["change"] == 122.5 and ops["pairs"] == 4
    assert ops["change_vs_parent"] == pytest.approx(122.5 / 102.5 - 1)
    # higher is better: the change wins the pairs 100<120, 90<130, 105<125
    assert ops["change_better_pairs"] == 3
    # lower is better: 1.5<2.0, 1.6<1.8, 1.7<2.1, but not 2.4 against 2.2
    assert doc["pairs"]["fast"]["latency_p90_ms"]["change_better_pairs"] == 3
    assert doc["parent"]["fast"]["ops_per_s"] == 102.5 and doc["change"]["fast"]["latency_p90_ms"] == 1.65


def test_ties_are_no_win_and_the_metadata_is_kept():
    doc = summarize(RUNS, FAILED, BETTER, label="x", seeds=[1, 2, 3, 4], run_seconds=40)
    flat = doc["pairs"]["flat"]
    assert all(row["change_better_pairs"] == 0 and row["change_vs_parent"] == 0 and row["parent_iqr"] == 0
               for row in flat.values())
    assert doc["label"] == "x" and doc["seeds"] == [1, 2, 3, 4] and doc["run_seconds"] == 40
    assert doc["failed_ops"] is FAILED and doc["runs"] is RUNS and doc["runs_per_side"] == 4
    assert set(doc) == {"label", "seeds", "run_seconds", "parent", "change", "pairs", "failed_ops", "runs",
                        "runs_per_side"}


def test_parent_iqr_is_the_inclusive_quartile_gap():
    # quartiles of 90, 100, 105, 110 (inclusive method): 97.5 and 106.25
    assert summarize(RUNS, FAILED, BETTER)["pairs"]["fast"]["ops_per_s"]["parent_iqr"] == 8.75
    assert iqr([3.0]) == 0.0 and iqr([]) == 0.0


def test_a_zero_parent_median_has_no_ratio():
    runs = {"w": {"parent": [{"pass_frac": 0.0}], "change": [{"pass_frac": 1.0}]}}
    row = summarize(runs, {}, {"pass_frac": "higher"})["pairs"]["w"]["pass_frac"]
    assert row["change_vs_parent"] is None and row["change_better_pairs"] == 1


@pytest.mark.parametrize("seeds, why", [
    ("5..3", "gives 0 seed(s)"),
    ("", "is not a range"),
    ("a..b", "is not a range"),
    ("1..", "is not a range"),
    ("1..2..3", "is not a range"),
    ("4", "is not a range"),
    ("1..3", "gives 3 seed(s)"),
    ("2..2", "gives 1 seed(s)"),
])
def test_a_bad_seed_range_exits_2_before_any_run(seeds, why, tmp_path, capsys):
    # the checkouts do not exist: reading either one would raise, not return 2
    out = tmp_path / "BENCH_x.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--label", "x", "--seeds", seeds,
            "--out", str(out)]
    assert bench_pairs["main"](argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seeds") and why in err and err.count("\n") == 1
    assert not out.exists()


def test_an_even_seed_range_is_read_in_order():
    assert bench_pairs["_seeds"]("1..10") == list(range(1, 11))
    assert bench_pairs["_seeds"]("-1..0") == [-1, 0]
