"""Benchmark of morirays: seeded workloads, end-to-end metrics, traced per-layer run.

    python3 bench/run.py --workload certify-grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; morirays is imported from `src/`.
With `--trace 0` the workload runs untraced in whole passes over its query
list, one query at a time, while the next pass is expected to end within
`--seconds` (at least one pass), and the end-to-end metrics are reported.
Times are scaled to the host's reference speed by `calibrate`; the report
keeps them as measured too.
With `--trace 1` one pass runs with spans installed and one without, and the
per-layer metrics are reported.
Every query passes the correctness gate in `workloads.check`.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.  A
report with the run's environment goes to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import calibrate  # noqa: E402  (lives next to this file)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 9
PROBE = (
    "import statistics, sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import morirays.cli\n"
    "morirays.cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calibrate\n"
    "print(t, statistics.median(calibrate.sample() for _ in range(5)), morirays.__file__)\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("pass_frac", "ratio"),
)

PER_LAYER = (
    ("quadfield.split_square.calls", "count"),
    ("quadfield.split_square.s", "s"),
    ("quadfield.sign.calls", "count"),
    ("quadfield.sign.s", "s"),
    ("quadfield.radicand_bits.max", "bits"),
    ("quadfield.self_s", "s"),
    ("lattice.expand.calls", "count"),
    ("lattice.expand.coords", "count"),
    ("lattice.pairing.calls", "count"),
    ("lattice.pairing.s", "s"),
    ("lattice.uncollide.calls", "count"),
    ("lattice.uncollide.s", "s"),
    ("lattice.self_s", "s"),
    ("cremona.reduce.calls", "count"),
    ("cremona.reduce.steps", "count"),
    ("cremona.reduce.s", "s"),
    ("cremona.quadratic_map.calls", "count"),
    ("cremona.quadratic_map.entries", "count"),
    ("cremona.quadratic_map.s", "s"),
    ("cremona.apply.calls", "count"),
    ("cremona.apply.s", "s"),
    ("cremona.self_s", "s"),
    ("dynamics.iterate.calls", "count"),
    ("dynamics.iterate.terms", "count"),
    ("dynamics.iterate.useful_ratio", "ratio"),
    ("dynamics.eigen.calls", "count"),
    ("dynamics.eigen.s", "s"),
    ("dynamics.certify_convergence.calls", "count"),
    ("dynamics.certify_convergence.s", "s"),
    ("dynamics.ray.calls", "count"),
    ("dynamics.ray.coords", "count"),
    ("dynamics.ray.s", "s"),
    ("dynamics.self_s", "s"),
    ("families.profile.calls", "count"),
    ("families.profile.s", "s"),
    ("families.self_s", "s"),
    ("verify.verify_good.calls", "count"),
    ("verify.certify_pencil.s", "s"),
    ("verify.wonderful_report.s", "s"),
    ("verify.defernex_sweep.s", "s"),
    ("verify.self_s", "s"),
    ("cli.render.s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)

# spans each workload must enter at least once in a traced pass
EXERCISED = {
    "certify-grid": ("cli.main", "cli.render", "verify.verify_good", "verify.certify_pencil",
                     "verify.defernex_sweep", "families.profile", "dynamics.iterate", "dynamics.term",
                     "cremona.reduce", "cremona.quadratic_map", "cremona.apply", "lattice.expand",
                     "lattice.pairing", "lattice.uncollide", "quadfield.split_square", "quadfield.sign"),
    "limit-rays": ("cli.main", "cli.render", "verify.wonderful_report", "families.profile",
                   "dynamics.eigen", "dynamics.certify_convergence", "dynamics.ray", "lattice.expand",
                   "lattice.pairing", "lattice.uncollide", "quadfield.split_square", "quadfield.sign"),
    "pair-scale": ("cli.main", "cli.render", "families.profile", "lattice.pairing",
                   "quadfield.split_square", "quadfield.sign"),
}

# the layer predicted to take most of each workload's traced wall time
DOMINANT = {
    "certify-grid": ("cremona.apply.s",),
    "limit-rays": ("dynamics.ray.s", "dynamics.eigen.s"),
    "pair-scale": ("quadfield.split_square.s",),
}


def percentile(xs: list[float], q: float) -> float:
    """Percentile with linear interpolation between order statistics."""
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def setup_time() -> tuple[float, float]:
    """Median over fresh processes of importing morirays and building the CLI
    parser, at the reference speed and as measured; one untimed probe first
    writes the bytecode caches."""
    scaled, wall = [], []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, "-I", "-c", PROBE, str(SRC), str(BENCH)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, cal, path = done.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: probe imported morirays from {path}, not from {SRC}")
        if i:
            wall.append(float(seconds))
            scaled.append(float(seconds) * calibrate.REFERENCE_S / float(cal))
    return statistics.median(scaled), statistics.median(wall)


def import_morirays():
    sys.path.insert(0, str(SRC))
    import morirays
    from morirays import cli, cremona, dynamics, families, lattice, quadfield, verify

    if not Path(morirays.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported morirays from {morirays.__file__}, not from {SRC}")
    return {"morirays": morirays, "quadfield": quadfield, "lattice": lattice, "cremona": cremona,
            "dynamics": dynamics, "families": families, "verify": verify, "cli": cli,
            "workloads": workloads}


class Gate:
    """Counts attempted and failed queries and lists each failure."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.attempted = 0
        self.failures: list[dict] = []

    def __call__(self, query: dict, code: int, output: bytes) -> None:
        self.attempted += 1
        why = workloads.check(query, code, output, self.reference)
        if why is not None:
            self.failures.append({"query": workloads.key(query), "reason": why})


def timed_pass(qs: list[dict], mods: dict, gate: Gate) -> tuple[list[float], list[float]]:
    """Run every query once, in order: latency of each in seconds, and a
    calibration sample before each query and after the last."""
    cli, verify = mods["cli"], mods["verify"]
    latencies, cals = [], [calibrate.sample()]
    for q in qs:
        t0 = time.perf_counter()
        code, output = workloads.run(q, cli, verify)
        latencies.append(time.perf_counter() - t0)
        cals.append(calibrate.sample())
        gate(q, code, output)
    return latencies, cals


def timing_metrics(setup_s: float, lat: list[float]) -> dict:
    return {"setup_s": setup_s, "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": percentile(lat, 0.5) * 1e3, "latency_p90_ms": percentile(lat, 0.9) * 1e3}


def untraced(qs: list[dict], seconds: float, gate: Gate) -> tuple[dict, dict]:
    setup_s, setup_wall_s = setup_time()
    mods = import_morirays()
    passes, scaled = [], []
    t_start = time.perf_counter()
    while True:  # whole passes, while the next one is expected to end in time
        t_pass = time.perf_counter()
        latencies, cals = timed_pass(qs, mods, gate)
        passes.append(latencies)
        scaled.append(calibrate.scale(latencies, cals))
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # each query's latency is its median over the passes, at the reference speed
    lat = [statistics.median(times) for times in zip(*scaled)]
    metrics = timing_metrics(setup_s, lat)
    metrics["peak_rss_mib"] = peak_kib / 1024
    metrics["pass_frac"] = 1 - len(gate.failures) / gate.attempted
    wall = timing_metrics(setup_wall_s, [statistics.median(times) for times in zip(*passes)])
    info = {"passes": len(passes), "pass_ops_per_s": [len(p) / sum(p) for p in scaled],
            "pass_wall_ops_per_s": [len(p) / sum(p) for p in passes],
            "latency_samples": len(lat), "samples_beyond_p90": sum(x > metrics["latency_p90_ms"] / 1e3 for x in lat),
            "wall_clock": wall}
    return metrics, info


def traced(workload: str, qs: list[dict], gate: Gate) -> tuple[dict, dict]:
    mods = import_morirays()
    tracer = Tracer(mods)
    tracer.install()
    timed, _ = timed_pass(qs, mods, gate)
    sites = tracer.site_names()
    tracer.uninstall()
    plain, _ = timed_pass(qs, mods, gate)
    summary = tracer.summary()
    spans_path = OUT / f"spans-{workload}.tsv.gz"
    tracer.write(spans_path)

    missing = [name for name in EXERCISED[workload] if not summary.get(f"{name}.calls")]
    if missing:
        raise SystemExit(f"error: traced pass never entered {missing}; the wrappers no longer "
                         "sit where the program looks these names up")
    terms = summary.get("dynamics.iterate.terms", 0)
    summary["dynamics.iterate.useful_ratio"] = summary.get("dynamics.term.calls", 0) / terms if terms else 0.0
    summary["trace.traced_wall_s"] = sum(timed)
    summary["trace.untraced_wall_s"] = sum(plain)
    summary["trace.overhead_s"] = sum(timed) - sum(plain)
    metrics = {name: summary.get(name, 0.0 if unit == "s" else 0) for name, unit in PER_LAYER}
    share = sum(summary.get(name, 0) for name in DOMINANT[workload]) / sum(timed)
    info = {"binding_sites": sites, "spans_file": str(spans_path.relative_to(ROOT)),
            "dominant": {"metrics": list(DOMINANT[workload]), "share_of_traced_wall": share}}
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "morirays" / "__init__.py").is_file():
        print(f"error: no morirays sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    qs = workloads.queries(args.workload, args.seed)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "queries": len(qs), "query_list_sha256_16": workloads.list_hash(qs),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)), "loadavg_start": loadavg(),
    }
    gate = Gate(workloads.load_reference(args.workload))
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, info = traced(args.workload, qs, gate)
        units = dict(PER_LAYER)
    else:
        metrics, info = untraced(qs, args.seconds, gate)
        units = dict(END_TO_END)
    report.update(info)
    report["loadavg_end"] = loadavg()
    report["failures"] = gate.failures
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    report["result"] = result
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=2)

    for k, v in report.items():
        if k not in ("result", "failures", "binding_sites"):
            print(f"# {k}: {json.dumps(v)}")
    for f in gate.failures:
        print(f"FAILED {f['query']}: {f['reason']}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
