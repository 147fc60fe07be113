"""Alternated parent/change runs of the benchmark, summarised as BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --label pr27 --seeds 1..10 [--seconds 40]

PARENT and CHANGE are two source checkouts.  For each seed and each workload
that the change's BENCHMARK.json lists,
`python3 bench/run.py --workload W --seed S --seconds T --trace 0` runs in
both checkouts, the parent first on odd seeds and the change first on even
ones, and each run's end-to-end metrics are read from the last line of its
stdout.  The file is rewritten after every seed, so a run that is cut short
keeps its complete pairs.  The number of seeds must be even, so that each side
goes first equally often: the order of a pair moves certify-grid by about 2%.
An empty, malformed or odd-length --seeds exits 2 before any run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
METHOD = ("untraced end-to-end medians of alternated parent/change runs (python3 bench/run.py --workload W "
          "--seed S --seconds {seconds:g} --trace 0, seeds {seeds}, parent first on odd seeds), each value taken "
          "from the final JSON line of a run; runs lists every run in seed order; parent_iqr is the distance "
          "between the quartiles of the parent's runs (statistics.quantiles, inclusive).")


def iqr(xs: list[float]) -> float:
    """The distance between the quartiles of xs; 0.0 for fewer than two values."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's medians, parent IQR and the pairs in which the change reads better."""
    p, c = statistics.median(parent), statistics.median(change)
    wins = sum(b > a if better == "higher" else b < a for a, b in zip(parent, change))
    return {"parent": p, "change": c, "parent_iqr": iqr(parent), "pairs": min(len(parent), len(change)),
            "change_better_pairs": wins, "change_vs_parent": c / p - 1 if p else None}


def summarize(runs: dict, failed: dict, better: dict[str, str], **meta) -> dict:
    """The BENCH_<label>.json document of some complete pairs of runs.

    runs[workload][side] lists each run's metrics by name, in seed order, for
    side "parent" and "change"; failed[workload][side] sums the queries that
    failed; better[name] is "higher" or "lower".  meta is copied in as is."""
    pairs = {w: {name: compare([r[name] for r in sides["parent"]], [r[name] for r in sides["change"]], how)
                 for name, how in better.items()}
             for w, sides in runs.items()}
    return {
        **meta,
        **{side: {w: {name: row[side] for name, row in rows.items()} for w, rows in pairs.items()}
           for side in SIDES},
        "pairs": pairs,
        "failed_ops": failed,
        "runs": runs,
        "runs_per_side": min((len(sides[s]) for sides in runs.values() for s in SIDES), default=0),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict[str, float], int]:
    """One untraced run in a checkout: its end-to-end metrics and its failed-query count."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result["failed"]


def _seeds(text: str) -> list[int]:
    """The seeds of a range A..B; ValueError unless it holds an even number of them."""
    lo, _, hi = text.partition("..")
    try:
        seeds = list(range(int(lo), int(hi) + 1))
    except ValueError:
        raise ValueError(f"--seeds {text!r} is not a range A..B of integers") from None
    if not seeds or len(seeds) % 2:
        raise ValueError(f"--seeds {text} gives {len(seeds)} seed(s); give a nonzero even number, "
                         "so that each side runs first equally often")
    return seeds


def _short_commit(checkout: Path) -> str | None:
    """The checkout's abbreviated HEAD, or None when it is not a git work tree."""
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="source checkout of the parent commit")
    p.add_argument("change", type=Path, help="source checkout of the change")
    p.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    p.add_argument("--seeds", required=True, help="range A..B of an even number of workload seeds, one pair per seed")
    p.add_argument("--seconds", type=float, default=40.0, help="--seconds of each run (default 40)")
    p.add_argument("--out", type=Path, help="output path (default BENCH_<label>.json)")
    args = p.parse_args(argv)
    try:
        seeds = _seeds(args.seeds)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    out = args.out or Path(f"BENCH_{args.label}.json")
    meta = {
        "label": args.label,
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}; "
                "times scaled to the reference speed by bench/calibrate.py",
        "note": METHOD.format(seconds=args.seconds, seeds=args.seeds),
        "parent_commit": _short_commit(args.parent),
        "run_seconds": args.seconds,
    }
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    failed = {w: dict.fromkeys(SIDES, 0) for w in workloads}
    for i, seed in enumerate(seeds):
        for w in workloads:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                metrics, n_failed = run_once(getattr(args, side), w, seed, args.seconds)
                runs[w][side].append(metrics)
                failed[w][side] += n_failed
                print(f"seed {seed} {w} {side}: {json.dumps(metrics, sort_keys=True)}", file=sys.stderr)
        doc = summarize(runs, failed, better, **meta, seeds=seeds[: i + 1])
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
