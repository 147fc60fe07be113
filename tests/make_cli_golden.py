"""The golden CLI corpus: argvs for `morirays.cli.main` and the digest of each run.

`tests/cli_golden.json` maps each argv of `corpus()`, joined by spaces, to the
first 16 hex digits of the SHA-256 of its exit code, stdout and stderr, run
in-process.  `tests/test_cli_golden.py` recomputes the digests and compares.
When a change alters output on purpose, regenerate the file and commit it
with that change:

    python tests/make_cli_golden.py

Argparse's own help, usage and error bytes are left out: they differ across
Python versions.  Runs see an interpreter int string limit of 4300 whatever
the interpreter says, so every Python from 3.10 on gives the same digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("pretty", "json", "csv")
NAMES = ("odd", "even", "even_plus", "odd_plus", "sq4", "sq2",
         "W_odd", "W_even", "Wplus_even", "Wplus_odd", "Wplus_sq4", "Wplus_sq2")
SWEEPS = ("even", "odd", "sq4", "sq2", "even_plus", "odd_plus")


def corpus() -> list[list[str]]:
    argvs: list[list[str]] = []
    for fmt in FORMATS:
        for check in ((), ("--check-homaloidal",)):
            for kind in ("Q", "S", "G", "B"):
                argvs.append(["matrix", "--kind", kind, "--format", fmt, *check])
            for kind in ("J", "C", "JS", "CG"):
                for n in (1, 2, 5):
                    argvs.append(["matrix", "--kind", kind, "--n", str(n), "--format", fmt, *check])
        for name in ("odd", "even"):
            for n, k in ((1, 0), (1, 4), (2, 3), (3, 2)):
                argvs.append(["orbit", "--family", name, "--n", str(n), "--k", str(k), "--format", fmt])
            argvs.append(["orbit", "--family", name, "--n", "2", "--k", "3", "--seed", "2,1,1,0", "--format", fmt])
        for name in NAMES:  # orbit takes only odd and even and refuses the rest
            argvs.append(["orbit", "--family", name, "--n", "1", "--k", "1", "--format", fmt])
            for n in (1, 2, 4):
                argvs.append(["eigenray", "--family", name, "--n", str(n), "--format", fmt])
            argvs.append(["eigenray", "--family", name, "--n", "2", "--digits", "25", "--format", fmt])
            for with_ in ("K", "F", "self"):
                for n in (1, 2, 7, 40):
                    argvs.append(["pair", "--ray", f"{name}:{n}", "--with", with_, "--format", fmt])
                argvs.append(["pair", "--ray", f"{name}:3", "--with", with_, "--digits", "0", "--format", fmt])
        for name in SWEEPS:
            for n, k in (("1..3", "1..3"), ("2", None), ("1", "0..2"), ("4", "5")):
                argvs.append(["verify", "--family", name, "--n", n, *(("--k", k) if k else ()), "--format", fmt])
            argvs.append(["verify", "--family", name, "--n", "1..2", "--k", "1", "--digits", "30", "--format", fmt])
    # the program's own refusals: each exits 2 with one `error:` line
    for kind in ("Q", "S", "G", "B"):
        argvs.append(["matrix", "--kind", kind, "--n", "1"])
    for kind in ("J", "C", "JS", "CG"):
        argvs += [["matrix", "--kind", kind], ["matrix", "--kind", kind, "--n", "0"],
                  ["matrix", "--kind", kind, "--n", "-3", "--check-homaloidal"]]
    for name in ("odd", "even"):
        argvs += [["orbit", "--family", name, "--n", "0", "--k", "1"],
                  ["orbit", "--family", name, "--n", "1", "--k", "-1"],
                  ["orbit", "--family", name, "--n", "1", "--k", "1", "--seed", "1,x,0,0"],
                  ["orbit", "--family", name, "--n", "1", "--k", "1", "--seed", "1,1,0"],
                  ["orbit", "--family", name, "--n", "1", "--k", "1", "--seed", "1,1,0,0,0"]]
    argvs += [["orbit", "--family", "bogus", "--n", "1", "--k", "1"],
              ["eigenray", "--family", "bogus", "--n", "1"],
              ["eigenray", "--family", "sq2", "--n", "0"],
              ["verify", "--family", "W_odd", "--n", "1"],
              ["verify", "--family", "bogus", "--n", "1"]]
    for n, k in (("x", "1"), ("1..", "1"), ("3..1", "1"), ("0..2", "1"), ("1", "a..b"), ("1", "2..1"), ("1", "-1..1")):
        argvs.append(["verify", "--family", "odd", f"--n={n}", f"--k={k}"])
    for ray in ("odd", "odd:", "odd:x", "odd:0", "odd:-2", "bogus:1", ":1", "W_odd:1:2"):
        argvs.append(["pair", "--ray", ray, "--with", "K"])
    argvs.append(["pair", "--ray", "W_even:1000000000000", "--with", "F"])
    for digits in ("-1", "4301"):
        argvs += [["pair", "--ray", "odd:2", "--with", "F", "--digits", digits],
                  ["eigenray", "--family", "odd", "--n", "1", "--digits", digits],
                  ["matrix", "--kind", "Q", "--digits", digits]]
    argvs += [["orbit", "--family", "odd", "--n", "2", "--k", "200000"],
              ["orbit", "--family", "odd", "--n", "1", "--k", "20001", "--format", "json"],
              ["verify", "--family", "odd", "--n", "1", "--k", "20000"],
              ["verify", "--family", "sq2", "--n", "1..2", "--k", "1..200000", "--format", "csv"],
              ["verify", "--family", "even", "--n", "100000000", "--k", "1"],
              ["verify", "--family", "odd", "--n", "1..100001", "--k", "0", "--format", "csv"]]
    for argv in (["pair", "--ray", "odd:2", "--with", "K"], ["orbit", "--family", "odd", "--n", "1", "--k", "1"],
                 ["verify", "--family", "even", "--n", "1", "--k", "1"]):
        argvs += [[*argv, "--out", "missing/out.txt"], [*argv, "--out", "."]]
    argvs += [["eigenray", "--family", "sq2", "--n", "10000", "--format", "json"],
              ["orbit", "--family", "odd", "--n", "1", "--k", "1", "--seed="]]
    return argvs


def digest(argv: list[str]) -> str:
    """The first 16 hex digits of the SHA-256 of main(argv)'s exit code, stdout and stderr."""
    from morirays.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@contextlib.contextmanager
def pinned():
    """Run in an empty scratch directory with no MORIRAYS_OUTDIR and an int string limit of 4300."""
    from morirays import cli

    cwd, outdir, limit = os.getcwd(), os.environ.pop("MORIRAYS_OUTDIR", None), cli._int_str_limit
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        cli._int_str_limit = lambda: 4300
        try:
            yield
        finally:
            cli._int_str_limit = limit
            if outdir is not None:
                os.environ["MORIRAYS_OUTDIR"] = outdir
            os.chdir(cwd)


def digests() -> dict[str, str]:
    with pinned():
        return {" ".join(argv): digest(argv) for argv in corpus()}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    table = digests()
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
