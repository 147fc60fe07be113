"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The count-determinism test runs two traced runs per workload in fresh
processes, as the benchmark is run, and takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import calibrate
import run
import workloads
from tracer import Tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload):
    def traced_counts():
        done = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                               "--seed", "7", "--seconds", "1", "--trace", "1"],
                              cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}

    first, second = traced_counts(), traced_counts()
    assert set(first) == {name for name, unit in run.PER_LAYER if unit != "s"}
    assert first == second


def test_wrappers_sit_at_every_binding_site_and_come_off():
    mods = run.import_morirays()
    originals = {name: (owner, vars(owner)[attr]) for name, owner, attr in (
        ("cli.iterate", mods["cli"], "iterate"),
        ("cli.eigen", mods["cli"], "eigen"),
        ("cremona.CharMatrix.apply", mods["cremona"].CharMatrix, "apply"),
        ("verify.quadratic_map", mods["verify"], "quadratic_map"),
    )}
    tracer = Tracer(mods)
    tracer.install()
    sites = set(tracer.site_names())
    for site in ("verify.cremona_reduce", "verify.quadratic_map", "cremona.quadratic_map",
                 "families.iterate", "verify.iterate", "cli.iterate", "dynamics.iterate",
                 "cli.eigen", "dynamics.eigen", "cremona.CharMatrix.apply",
                 "quadfield.split_square", "quadfield.QuadNum.sign", "dynamics.Ray.__init__"):
        assert site in sites, site
    tracer.uninstall()
    for name, (owner, original) in originals.items():
        assert vars(owner)[name.rpartition(".")[2]] is original, name


def test_seed_orders_the_grid_and_every_query_has_a_reference():
    for workload in workloads.WORKLOADS:
        reference = workloads.load_reference(workload)
        keys = sorted(workloads.key(q) for q in workloads.grid(workload))
        assert keys == sorted(reference)
        assert len(keys) >= 100  # at least ten latency samples beyond p90 in one pass
        qs = workloads.queries(workload, 3)
        assert qs == workloads.queries(workload, 3) != workloads.queries(workload, 4)
        assert sorted(workloads.key(q) for q in qs) == keys


def test_gate_rejects_wrong_bytes_exit_code_and_verdict():
    q = workloads.pair_query("Wplus_sq2", 5, "F")
    good = json.dumps({"sign": -1}).encode()
    reference = {workloads.key(q): workloads.digest(good)}
    assert workloads.check(q, 0, good, reference) is None
    assert "exit code" in workloads.check(q, 1, good, reference)
    assert "digest" in workloads.check(q, 0, good + b" ", reference)
    flipped = json.dumps({"sign": 1}).encode()
    assert "expected -1" in workloads.check(q, 0, flipped, {workloads.key(q): workloads.digest(flipped)})


def test_scale_divides_by_the_nearby_calibration_samples():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale([1.0, 2.0], [ref] * 3) == [1.0, 2.0]
    # twice as slow from the third query on; the stray last sample is outvoted
    cals = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 9 * ref]
    assert calibrate.scale([1.0, 2.0, 2.0, 2.0, 2.0], cals)[2:] == [1.0, 1.0, 1.0]


def test_benchmark_json_names_what_run_reports():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
