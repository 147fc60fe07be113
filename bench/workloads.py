"""Seeded query lists for the three workloads, how to run one query, and the
correctness gate every query passes through.

A query is either an argv for `morirays.cli.main` or a library call of
`verify.wonderful_report`; its key is the text the reference digests in
`reference/<workload>.json` are stored under.

Every workload runs a fixed grid of queries in an order drawn by the seed.
The sizes n of limit-rays and pair-scale are log-spaced over the stated
ranges, a fixed quadrature of a log-uniform draw.  They are not drawn at
random because the cost of one query is erratic in n: it follows the square
part of the radicands (n(n-1), 49n^2-28, the eigen discriminant), so
neighbouring n differ by up to 3x.  Random draws of 150-300 queries per pass
moved ops_per_s and the latency percentiles by 10-45% between seeds, more
than a regression bound can allow.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

WORKLOADS = ("certify-grid", "limit-rays", "pair-scale")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# C9 grids: (family, n range, k range), 100 cells in all
C9_GRIDS = (
    ("even", range(2, 7), range(1, 7)),
    ("odd", range(1, 6), range(1, 7)),
    ("sq4", range(1, 6), range(1, 5)),
    ("sq2", range(1, 6), range(1, 5)),
)

LINEAR_FAMILIES = ("odd", "even", "even_plus", "odd_plus")  # s = 2n + O(1)
SQUARE_FAMILIES = ("sq4", "sq2")  # s = (n + O(1))^2
RAY_NAMES = {
    "W_odd": "odd",
    "W_even": "even",
    "Wplus_even": "even_plus",
    "Wplus_odd": "odd_plus",
    "Wplus_sq4": "sq4",
    "Wplus_sq2": "sq2",
}
PAIR_WITH = ("K", "F", "self")

# Sizes are log-spaced from the low end to the high end of each range
# (steps + 1 points), rounded, without duplicates.
LIMIT_N_MAX = {"linear": 300, "square": 40}
LIMIT_STEPS = 8
PAIR_LOG10 = (2, 4)
PAIR_STEPS = 8


def _log_grid(lo_exp: float, hi_exp: float, steps: int) -> list[int]:
    return sorted({round(10 ** (lo_exp + (hi_exp - lo_exp) * i / steps)) for i in range(steps + 1)})


# -- queries ---------------------------------------------------------------------


def verify_query(family: str, n: int, k: int) -> dict:
    return {"argv": ["verify", "--family", family, "--n", str(n), "--k", str(k), "--format", "json"]}


def eigenray_query(tag: str, n: int) -> dict:
    return {"argv": ["eigenray", "--family", tag, "--n", str(n), "--format", "json"]}


def report_query(tag: str, n: int) -> dict:
    return {"report": [tag, n]}


def pair_query(name: str, n: int, with_: str) -> dict:
    return {"argv": ["pair", "--ray", f"{name}:{n}", "--with", with_, "--format", "json"]}


def key(query: dict) -> str:
    if "argv" in query:
        return " ".join(query["argv"])
    tag, n = query["report"]
    return f"wonderful_report {tag} {n}"


def grid(workload: str) -> list[dict]:
    """The queries of one pass, in a fixed order."""
    if workload == "certify-grid":
        return [verify_query(f, n, k) for f, ns, ks in C9_GRIDS for n in ns for k in ks]
    if workload == "limit-rays":
        out = []
        for tag in LINEAR_FAMILIES + SQUARE_FAMILIES:
            hi = LIMIT_N_MAX["square" if tag in SQUARE_FAMILIES else "linear"]
            out += [make(tag, n) for n in _log_grid(0, math.log10(hi), LIMIT_STEPS)
                    for make in (eigenray_query, report_query)]
        return out
    if workload == "pair-scale":
        return [pair_query(name, n, w) for name in RAY_NAMES for w in PAIR_WITH
                for n in _log_grid(*PAIR_LOG10, PAIR_STEPS)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def queries(workload: str, seed: int) -> list[dict]:
    """The queries of one pass in the order the seed draws."""
    out = grid(workload)
    random.Random(f"{workload}:{seed}").shuffle(out)
    return out


def list_hash(qs: list[dict]) -> str:
    return hashlib.sha256("\n".join(key(q) for q in qs).encode()).hexdigest()[:16]


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()[:16]


def load_reference(workload: str) -> dict[str, str]:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


# -- running and checking --------------------------------------------------------


def run(query: dict, cli, verify) -> tuple[int, bytes]:
    """One query, as a user runs it: exit code and the bytes handed back.
    `cli` and `verify` are the imported morirays modules; the names are looked
    up at call time so that the tracer's wrappers are seen."""
    if "argv" in query:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(query["argv"])
        return code, buf.getvalue().encode()
    tag, n = query["report"]
    return 0, render(verify.wonderful_report(tag, n).to_json())


def render(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def check(query: dict, code: int, output: bytes, reference: dict[str, str]) -> str | None:
    """None if the query passed the gate, else the reason it failed."""
    if code != 0:
        return f"exit code {code}, expected 0"
    want = reference.get(key(query))
    if want is None:
        return "no reference digest recorded"
    if digest(output) != want:
        return f"output digest {digest(output)} differs from reference {want}"
    return known_answer(query, json.loads(output))


def known_answer(query: dict, obj: dict) -> str | None:
    """Verdicts the acceptance tests establish (C6, C7, C8, C9)."""
    if "report" in query:
        tag, _ = query["report"]
        needed = {"self-intersection", "canonical"} | ({"canonical-sign"} if tag not in ("odd", "even") else set())
        ok = {c["name"]: c["ok"] for c in obj["checks"]}
        bad = sorted(name for name in needed if ok.get(name) is not True)
        return f"report checks failed: {bad}" if bad else None
    argv = query["argv"]
    if argv[0] == "verify":
        return None if obj["valid"] is True else "certificate not valid"
    if argv[0] == "pair":
        name, n = argv[2].split(":")
        tag, n, with_ = RAY_NAMES[name], int(n), argv[4]
        if with_ == "self" or (with_ == "K" and tag in ("odd", "even")):
            expect = 0
        elif with_ == "K":
            expect = 1
        elif tag == "sq2" and n >= 5:
            expect = -1
        else:
            return None
        if obj["sign"] != expect:
            return f"pairing sign {obj['sign']}, expected {expect}"
    return None
