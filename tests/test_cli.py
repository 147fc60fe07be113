"""Command-line behavior: exit codes, formats, determinism, round-trips."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import morirays
from morirays import (CharMatrix, DivisorClass, MultiplicityProfile, RadicalSum, Ray, ShapeMatrix, cli, dynamics,
                      families, verify)
from morirays.cli import _parse, build_parser, main
from morirays.dynamics import char_poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_matrix_pretty(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "Q")
    assert code == 0
    assert out.splitlines()[0].split() == ["2", "1", "1", "1"]


def test_matrix_check_homaloidal(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "CG", "--n", "1", "--check-homaloidal")
    assert code == 0
    assert "L_52(33, 14^7, 11^2)" in out
    assert "matches closed form: True" in out


def test_matrix_json_round_trip(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "JS", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    m = CharMatrix.from_json(data["matrix"])
    assert m.is_valid() and m.s == 11


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "Q", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "c0,c1,c2,c3"
    assert out.splitlines()[1] == "2,1,1,1"


def test_matrix_usage_errors(capsys):
    assert run(capsys, "matrix", "--kind", "J")[0] == 2
    assert run(capsys, "matrix", "--kind", "Q", "--n", "3")[0] == 2
    assert run(capsys, "matrix", "--kind", "J", "--n", "0")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--kind", "X"])
    assert exc.value.code == 2


def test_orbit_pretty_frozen(capsys):
    code, out, _ = run(capsys, "orbit", "--family", "odd", "--n", "2", "--k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["k=1", "13", "9", "4", "2"]
    assert lines[3].split() == ["k=3", "533", "337", "168", "98"]


def test_orbit_csv(capsys):
    code, out, _ = run(capsys, "orbit", "--family", "even", "--n", "1", "--k", "1", "--format", "csv")
    assert code == 0
    assert out == "k,d,a,b,c\n0,1,1,0,0\n1,40,25,11,8\n"


def test_orbit_custom_seed(capsys):
    code, out, _ = run(capsys, "orbit", "--family", "odd", "--n", "2", "--k", "1",
                       "--seed", "1,0,0,0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "0,1,0,0,0"


def test_orbit_usage_errors(capsys):
    assert run(capsys, "orbit", "--family", "sq4", "--n", "1", "--k", "2")[0] == 2
    assert run(capsys, "orbit", "--family", "odd", "--n", "2", "--k", "-1")[0] == 2
    assert run(capsys, "orbit", "--family", "odd", "--n", "2", "--k", "1", "--seed", "1,2")[0] == 2
    assert run(capsys, "orbit", "--family", "odd", "--n", "2", "--k", "1", "--seed", "a,b,c,d")[0] == 2


@pytest.mark.parametrize("seed", [["--seed", ""], ["--seed="]])
def test_an_empty_seed_is_refused(capsys, seed):
    code, out, err = run(capsys, "orbit", "--family", "odd", "--n", "1", "--k", "1", *seed)
    assert (code, out) == (2, "")
    assert err == "error: bad seed ''; expected comma-separated integers\n"


def test_eigenray_pretty(capsys):
    code, out, _ = run(capsys, "eigenray", "--family", "odd", "--n", "2")
    assert code == 0
    assert "L_28(12+4√2, (6+2√2)^4, (8-2√2)^6)" in out
    assert "3+2√2" in out and "(dominant)" in out
    assert "display only" in out


def test_eigenray_json_round_trip(capsys):
    code, out, _ = run(capsys, "eigenray", "--family", "Wplus_sq4", "--n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "sq4"
    display = MultiplicityProfile.from_json(data["display"])
    assert display.s == 13
    ray = Ray(DivisorClass.from_json(data["dominant_ray"]["class"]))
    assert not ray.is_rational
    assert data["certificate"]["converges"] is True
    # the integer coefficients, each written as a [numerator, denominator] pair
    assert data["char_poly"] == [[c, 1] for c in char_poly(ShapeMatrix.from_json(data["matrix"]))]


def test_eigenray_rejects_unknown_family(capsys):
    code, _, err = run(capsys, "eigenray", "--family", "galois", "--n", "2")
    assert code == 2 and "unknown ray family" in err


def test_verify_failure_exit(capsys):
    code, out, _ = run(capsys, "verify", "--family", "even", "--n", "2", "--k", "0")
    assert code == 1
    assert "REFUSED" in out
    assert "failures at [(2, 0)]" in out


def test_verify_success(capsys):
    code, out, _ = run(capsys, "verify", "--family", "sq4", "--n", "1..2", "--k", "1..2")
    assert code == 0
    assert "sq4 n=1 k=1: good (R2_PENCIL)" in out
    assert "sq4 n=2 k=1: good (R3_PENCIL)" in out
    assert "all certificates valid" in out


def test_verify_prints_the_sq2_bound_chain(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--family", "sq2", "--n", "1..2", "--k", "1")
    assert code == 0 and "\nbound chain: 10 checks, all hold\nRESULT: all certificates valid\n" in out
    honest = verify.sq2_bound_chain
    monkeypatch.setattr(verify, "sq2_bound_chain",
                        lambda n: (honest(n)[0]._replace(ok=False),) + honest(n)[1:])
    code, out, _ = run(capsys, "verify", "--family", "sq2", "--n", "1..2", "--k", "1")
    assert code == 1 and "\nbound chain: 10 checks, 2 FAILED\nRESULT: failures at []\n" in out


def test_verify_alias_and_json(capsys):
    code, out, _ = run(capsys, "verify", "--family", "even_plus", "--n", "2", "--k", "1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "even"
    assert data["valid"] is True and data["failing"] == []
    assert data["certificates"][0]["emptiness"]["rule"] == "R2_PENCIL"
    assert data["defernex"]["rows"][0]["sign"] == -1


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify", "--family", "odd", "--n", "3..2")[0] == 2
    assert run(capsys, "verify", "--family", "odd", "--n", "x..2")[0] == 2
    assert run(capsys, "verify", "--family", "nope", "--n", "2")[0] == 2


def test_pair_negative_sign(capsys):
    code, out, _ = run(capsys, "pair", "--ray", "Wplus_sq2:1", "--with", "F")
    assert code == 0
    assert "sign: -1" in out
    assert "(display only)" in out


def test_pair_json_round_trip(capsys):
    code, out, _ = run(capsys, "pair", "--ray", "Wplus_sq2:1", "--with", "F", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["sign"] == -1
    value = RadicalSum.from_json(data["value"])
    assert value.sign() == -1
    assert data["decimal_note"] == "display only"


def test_pair_self_and_canonical(capsys):
    code, out, _ = run(capsys, "pair", "--ray", "odd:2", "--with", "self", "--format", "json")
    assert code == 0 and json.loads(out)["sign"] == 0
    code, out, _ = run(capsys, "pair", "--ray", "W_even:2", "--with", "K", "--format", "json")
    assert code == 0 and json.loads(out)["sign"] == 0
    code, out, _ = run(capsys, "pair", "--ray", "even_plus:2", "--with", "K", "--format", "json")
    assert code == 0 and json.loads(out)["sign"] == 1


def test_pair_usage_errors(capsys):
    assert run(capsys, "pair", "--ray", "odd", "--with", "K")[0] == 2
    assert run(capsys, "pair", "--ray", "odd:x", "--with", "K")[0] == 2
    assert run(capsys, "pair", "--ray", "odd:0", "--with", "K")[0] == 2
    assert run(capsys, "pair", "--ray", "mystery:1", "--with", "K")[0] == 2


def test_pair_on_a_radicand_past_the_trial_divisor_limit_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "pair", "--ray", "W_even:1000000000000", "--with", "F")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("error: radicand 48999999999999999999999972 (86 bits)") and err.count("\n") == 1


def test_pair_on_a_huge_n_that_factors_keeps_its_output(capsys):
    code, out, err = run(capsys, "pair", "--ray", "W_odd:1000000000000", "--with", "F")
    assert code == 0 and err == ""
    assert out == (
        "odd:1000000000000 . F = -15000000000012000000000000+5000000000004000000000000√2000000000006\n"
        "  sign: +1\n"
        "  ~ 7071052811881738687975734744439.7957086559 (display only)\n"
    )


def test_out_file_and_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MORIRAYS_OUTDIR", str(tmp_path))
    code, out, _ = run(capsys, "orbit", "--family", "odd", "--n", "1", "--k", "1",
                       "--format", "csv", "--out", "orbit.csv")
    assert code == 0 and out == ""
    assert (tmp_path / "orbit.csv").read_text() == "k,d,a,b,c\n0,1,1,0,0\n1,9,5,4,2\n"
    # absolute --out ignores the env prefix
    target = tmp_path / "direct.csv"
    code, _, _ = run(capsys, "orbit", "--family", "odd", "--n", "1", "--k", "0",
                     "--format", "csv", "--out", str(target))
    assert code == 0 and target.exists()


def test_digits_flag(capsys):
    _, out4, _ = run(capsys, "pair", "--ray", "odd:2", "--with", "F", "--digits", "4")
    _, out12, _ = run(capsys, "pair", "--ray", "odd:2", "--with", "F", "--digits", "12")
    assert "~ " in out4
    tail4 = out4.split("~ ")[1].split(" ")[0]
    tail12 = out12.split("~ ")[1].split(" ")[0]
    assert len(tail12) > len(tail4)


@pytest.mark.parametrize("tag", ["odd", "sq2"])
def test_pair_reports_and_sign_rows_write_one_signed_value_block(capsys, tag):
    report = verify.wonderful_report(tag, 3).to_json()["defernex"]
    row = verify.defernex_sweep(tag, 3, 3).rows[0].to_json()
    code, out, _ = run(capsys, "pair", "--ray", f"{tag}:3", "--with", "F", "--digits", "12", "--format", "json")
    pair = json.loads(out)
    assert code == 0 and row.pop("n") == 3 and pair.pop("ray") == f"{tag}:3" and pair.pop("with") == "F"
    assert report == row == pair
    assert report["decimal_note"] == "display only" and len(report["decimal"].partition(".")[2]) == 12
    # pair renders its decimal to --digits, in every format
    wide = json.loads(run(capsys, "pair", "--ray", f"{tag}:3", "--with", "F", "--digits", "30", "--format", "json")[1])
    pretty = run(capsys, "pair", "--ray", f"{tag}:3", "--with", "F", "--digits", "30")[1]
    assert len(wide["decimal"].partition(".")[2]) == 30 and f"~ {wide['decimal']} (display only)" in pretty


@pytest.mark.parametrize("digits", ["-1", "-7"])
@pytest.mark.parametrize("argv", [
    ["pair", "--ray", "odd:2", "--with", "F"],
    ["eigenray", "--family", "odd", "--n", "2"],
    ["verify", "--family", "even", "--n", "2", "--k", "1"],
], ids=lambda argv: argv[0])
def test_negative_digits_is_a_usage_error(capsys, argv, digits):
    assert run(capsys, *argv, "--digits", digits) == (2, "", f"error: --digits must be >= 0, got {digits}\n")


@pytest.mark.parametrize("digits", ["4301", "100000"])
@pytest.mark.parametrize("argv", [
    ["pair", "--ray", "Wplus_sq2:10000", "--with", "F"],
    ["eigenray", "--family", "sq2", "--n", "40"],
    ["verify", "--family", "even", "--n", "2", "--k", "1"],
    ["orbit", "--family", "odd", "--n", "2", "--k", "1"],
], ids=lambda argv: argv[0])
def test_digits_above_the_int_string_limit_is_a_usage_error(capsys, argv, digits):
    # Python renders no int of more than 4300 digits, so whether such a value
    # fails used to depend on the value; now every command refuses it
    assert run(capsys, *argv, "--digits", digits) == (2, "", f"error: --digits must be <= 4300, got {digits}\n")


def test_digits_at_the_int_string_limit_renders(capsys):
    code, out, err = run(capsys, "pair", "--ray", "odd:2", "--with", "F", "--digits", "4300")
    assert (code, err) == (0, "")
    whole, frac = out.split("~ ")[1].split(" ")[0].split(".")
    assert len(frac) == 4300 and whole.lstrip("-").isdigit()


@pytest.mark.parametrize("family", families.FAMILIES, ids=lambda f: f.tag)
def test_alias_gives_the_same_bytes_as_tag(capsys, family):
    for argv in (["pair", "--ray", "{}:3", "--with", "F"], ["eigenray", "--family", "{}", "--n", "3"]):
        by_tag = run(capsys, *(a.format(family.tag) for a in argv), "--format", "json")
        by_alias = run(capsys, *(a.format(family.alias) for a in argv), "--format", "json")
        assert by_tag[0] == 0 and by_alias == by_tag


def test_verify_limit_tag_names_its_good_sweep(capsys):
    args = ["--n", "1", "--k", "1", "--format", "json"]
    by_tag = run(capsys, "verify", "--family", "odd_plus", *args)
    assert by_tag[0] == 0 and by_tag == run(capsys, "verify", "--family", "odd", *args)


@pytest.mark.parametrize("argv", [
    ["pair", "--ray", "mystery:1", "--with", "K"],
    ["eigenray", "--family", "mystery", "--n", "1"],
    ["verify", "--family", "mystery", "--n", "1"],
], ids=lambda argv: argv[0])
def test_unknown_family_name_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: unknown ")


def test_unsettled_reduction_is_an_error_not_a_traceback(capsys, monkeypatch):
    def unsettled(x, max_steps=100000):
        raise RuntimeError("reduction did not settle within 5 steps")

    monkeypatch.setattr(verify, "cremona_reduce", unsettled)
    code, out, err = run(capsys, "verify", "--family", "even", "--n", "2", "--k", "1")
    assert (code, out, err) == (2, "", "error: reduction did not settle within 5 steps\n")


def test_repeated_runs_byte_identical(capsys):
    args = ["eigenray", "--family", "sq2", "--n", "1", "--format", "json"]
    assert run(capsys, *args)[1] == run(capsys, *args)[1]


def test_parser_reused_after_a_usage_error(capsys):
    valid = ["pair", "--ray", "odd:2", "--with", "K"]
    alone = run(capsys, *valid)
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--ray", "odd:2", "--with", "X", "--format", "csv", "--digits", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *valid, "--digits", "-1")[0] == 2
    assert alone[0] == 0 and run(capsys, *valid) == alone
    assert build_parser() is build_parser()


def _module_env():
    """The environment with PYTHONPATH led by the directory that holds the
    imported morirays package, so `python -m morirays` in a subprocess runs
    the code under test however pytest found it."""
    root = str(Path(morirays.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": root + (os.pathsep + rest if rest else "")}


def test_console_script_and_module():
    env = _module_env()
    proc = subprocess.run(
        [sys.executable, "-m", "morirays", "pair", "--ray", "Wplus_sq2:1", "--with", "F",
         "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sign"] == -1
    bad = subprocess.run([sys.executable, "-m", "morirays", "verify", "--family", "even",
                          "--n", "2", "--k", "0"], capture_output=True, text=True, env=env)
    assert bad.returncode == 1


@pytest.mark.parametrize("fmt", ["pretty", "csv"])
def test_eigenray_on_a_hundred_million_points_never_expands(capsys, monkeypatch, fmt):
    def expand(self):
        raise AssertionError(f"expanded a profile on {self.s} points")

    monkeypatch.setattr(MultiplicityProfile, "expand", expand)
    code, out, err = run(capsys, "eigenray", "--family", "sq2", "--n", "10000", "--format", fmt)
    assert code == 0 and err == ""
    assert "100040004" in out


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
@pytest.mark.parametrize("family", [f.tag for f in families.FAMILIES])
def test_eigenray_decomposes_once(capsys, monkeypatch, family, fmt):
    calls = []

    def counting(m):
        calls.append(m)
        return char_poly(m)

    monkeypatch.setattr(dynamics, "char_poly", counting)
    code, _, _ = run(capsys, "eigenray", "--family", family, "--n", "3", "--format", fmt)
    assert code == 0 and len(calls) == 1


def test_certificate_and_pairing_runs_build_no_fraction(capsys, monkeypatch):
    """The certify-grid and pair-scale style runs stay on ints end to end."""
    from fractions import Fraction

    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and len(built) == 1  # the wrapper sees constructions
    built.clear()
    for name in families.GOOD_TAGS:
        code, out, _ = run(capsys, "verify", "--family", name, "--n", "1..5", "--k", "1..4", "--format", "json")
        assert code == 0 and json.loads(out)["valid"] is True
    for family in families.FAMILIES:
        for n in (2, 100, 10**4):
            for with_ in ("K", "F", "self"):
                for fmt in ("json", "csv", "pretty"):
                    code, out, _ = run(capsys, "pair", "--ray", f"{family.tag}:{n}", "--with", with_, "--format", fmt)
                    assert code == 0 and out
    assert built == []


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x.json")
    code, out, err = run(capsys, "pair", "--ray", "odd:2", "--with", "K", "--out", missing)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {missing!r}: No such file or directory\n"
    code, out, err = run(capsys, "orbit", "--family", "odd", "--n", "1", "--k", "1", "--out", str(tmp_path))
    assert (code, out) == (2, "") and err.startswith("error: cannot write --out ")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit before Python 3.10.7")
def test_digits_bound_follows_a_lower_interpreter_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        refused = run(capsys, "pair", "--ray", "odd:2", "--with", "F", "--digits", "1000")
        code, out, err = run(capsys, "pair", "--ray", "odd:2", "--with", "F", "--digits", "640")
    finally:
        sys.set_int_max_str_digits(limit)
    assert refused == (2, "", "error: --digits must be <= 640, got 1000\n")
    assert (code, err) == (0, "") and len(out.split("~ ")[1].split(" ")[0].split(".")[1]) == 640


def test_subcommand_argv_makes_no_top_level_pass(capsys, monkeypatch):
    progs = []  # the prog of every parser that makes a parse_known_args pass
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, args=None, namespace=None):
        progs.append(self.prog)
        return original(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert run(capsys, "pair", "--ray", "odd:2", "--with", "K")[0] == 0
    assert run(capsys, "verify", "--family", "even", "--n", "2", "--k", "1")[0] == 0
    assert progs == []
    # help, an unknown command and leftover arguments take the top-level pass
    for argv, code in ((["-h"], 0), (["bogus"], 2), (["pair", "--ray", "odd:2", "--with", "K", "extra"], 2)):
        progs.clear()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code and "morirays" in progs
    capsys.readouterr()


PARSE_CASES = [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "--ray", "odd:2"], ["pai", "--ray", "odd:2", "--with", "K"],
    ["PAIR"], ["-x", "pair"], ["-h", "pair"], ["--", "pair", "--ray", "odd:2", "--with", "K"],
    ["pair", "-h"], ["pair", "--help"], ["pair", "--ray", "odd:2", "--with", "K"],
    ["pair", "--ray", "odd:2", "--with", "K", "extra"], ["pair", "extra", "--ray", "odd:2", "--with", "K"],
    ["pair", "--ra", "odd:2", "--wi", "K"], ["pair", "--ray=odd:2", "--with=F", "--form=csv"],
    ["pair", "--", "--ray", "odd:2", "--with", "K"], ["pair", "--ray", "odd:2", "--with", "K", "--"],
    ["pair", "--ray", "odd:2", "--", "--with", "K"], ["pair", "--ray", "odd:2", "--with", "X"],
    ["pair", "--ray", "odd:2"], ["pair", "--ray", "odd:2", "--with"],
    ["pair", "--ray", "odd:2", "--with", "K", "--digits", "x"],
    ["pair", "--ray", "odd:2", "--with", "K", "--digits=-3", "--format", "json"],
    ["pair", "--ray", "odd:2", "--with", "K", "-h"], ["pair", "--ray", "odd:2", "--with", "K", "--bogus"],
    ["pair", "--ray", "odd:2", "--ray", "even:3", "--with", "self", "--out", "x.json"],
    ["verify", "--family", "even", "--n", "1..3"], ["verify", "-h"], ["verify"], ["verify", "--n", "2"],
    ["verify", "--family", "odd", "--n", "2", "--k", "1", "--format", "json", "--out", "x.json"],
    ["matrix", "--kind", "Q", "--check-homaloidal"], ["matrix", "--kind", "Z"],
    ["matrix", "--ki", "J", "--n", "2", "--check"], ["matrix", "--kind", "J", "--n", "x"],
    ["orbit", "--family", "odd", "--n", "2", "--k", "3", "--seed", "1,1,0,0"], ["orbit", "--n", "x"],
    ["eigenray", "--family", "sq2", "--n", "3", "--digits", "0"], ["eigenray", "extra", "--family", "odd", "--n", "1"],
    # at the edge of a plain argv
    ["orbit", "--family", "odd", "--n", "-3", "--k", "1"], ["orbit", "--family", "odd", "--n", "", "--k", "1"],
    ["pair", "--ray", "", "--with", "K", "--out", ""], ["pair", "--ray", "odd:2", "--with", "K", "--out", "-"],
    ["pair", "--with", "K", "--ray", "-x"], ["pair", "--ray", "odd:2", "--with", "K", "--out", "--digits"],
    ["matrix", "--kind", "Q", "--check-homaloidal", "--check-homaloidal"],
    ["matrix", "--kind", "Q", "--check-homaloidal", "json"],
    ["eigenray", "--family", "odd", "--n", "\u0663"], ["eigenray", "--family", "odd", "--n", "\uff12", "--digits", "\u0661"],
    ["pair", "--ray", "odd:2", "--with", "K", "--with", "F"],
    ["pair", "--ray", "odd:2", "--format", "json", "--digits", "3", "--out", "x.json"],
    ["matrix", "--kind", "J", "--n", "2", "--check-homaloidal", "--format", "json", "--digits", "3", "--out", "m.json"],
    ["verify", "--n", "1..2", "--family", "sq2", "--k", "1..6", "--format", "csv"],
]


def _parse_outcome(capsys, parse, argv):
    try:
        result = ("namespace", vars(parse(list(argv))))
    except SystemExit as e:
        result = ("exit", e.code)
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "<empty>")
def test_dispatch_parses_like_the_top_level_parser(capsys, argv):
    assert _parse_outcome(capsys, _parse, argv) == _parse_outcome(capsys, build_parser().parse_args, argv)


# each subcommand's flags with values to draw for them (the store_true flag
# takes none), and words to draw in any place
_OPTIONS = {
    "matrix": {"--kind": ["Q", "J", "CG"], "--n": ["2", "15"], "--check-homaloidal": []},
    "orbit": {"--family": ["odd", "even"], "--n": ["2", "0"], "--k": ["3", "10"], "--seed": ["1,1,0,0", "a b"]},
    "eigenray": {"--family": ["sq2", "W_odd"], "--n": ["1", "12"]},
    "verify": {"--family": ["even", "sq4"], "--n": ["1..3", "2"], "--k": ["1", "1..6"]},
    "pair": {"--ray": ["odd:2", "sq2:5"], "--with": ["K", "F", "self"]},
}
_COMMON = {"--format": ["json", "csv", "pretty"], "--out": ["x.json", "a b"], "--digits": ["3", "0", "1_0"]}
_ANY_VALUE = ["", "-", "-3", "\u0663", "x", "X", "xml", "1.5", "--", "K", "odd"]
_JUNK = ["--", "-h", "--help", "extra", "-x", "--bogus", "-", "pair", "--n", "--with"]


@st.composite
def _argvs(draw):
    """A subcommand (or not) and a run of its flags in any order with values;
    now and then a flag is left out or repeated, a value is junk, or a flag
    is abbreviated, written with `=`, left bare or replaced by a junk word
    such as `--` or `-h`."""
    now_and_then = st.integers(0, 9).map(lambda i: i == 0)
    command = draw(st.sampled_from([*_OPTIONS] * 4 + ["bogus", "-h", "--", "verif"]))
    options = {**_OPTIONS.get(command, {}), **_COMMON}
    flags = draw(st.permutations([flag for flag in sorted(options) if not draw(now_and_then)]))
    if draw(now_and_then):
        flags.append(draw(st.sampled_from(sorted(options))))
    argv = [command]
    for flag in flags:
        value = draw(st.sampled_from(_ANY_VALUE if draw(now_and_then) else options[flag] or [None]))
        form = draw(st.sampled_from(["abbreviated", "equals", "bare", "junk"])) if draw(now_and_then) else "plain"
        if form == "abbreviated":
            flag = flag[:draw(st.integers(3, max(3, len(flag) - 1)))]
        if form == "equals":
            argv.append(f"{flag}={value or ''}")
        elif form == "junk":
            argv.append(draw(st.sampled_from(_JUNK)))
        else:
            argv += [flag] if form == "bare" or value is None else [flag, value]
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_drawn_argvs_parse_like_the_top_level_parser(capsys, argv):
    assert _parse_outcome(capsys, _parse, argv) == _parse_outcome(capsys, build_parser().parse_args, argv)


# argvs that are not plain, so each takes an argparse pass.  For the first
# five (a repeated flag, a value of `-3` or `-`) argparse's namespace is what a
# table path that took them would build, so only the pass count tells.
ARGPARSE_ARGVS = [
    ["pair", "--ray", "odd:2", "--ray", "even:3", "--with", "self"], ["pair", "--ray", "odd:2", "--with", "K", "--with", "F"],
    ["matrix", "--kind", "Q", "--check-homaloidal", "--check-homaloidal"],
    ["orbit", "--family", "odd", "--n", "-3", "--k", "1"], ["pair", "--ray", "odd:2", "--with", "K", "--out", "-"],
    ["pair", "--ray=odd:2", "--with", "K"], ["pair", "--ra", "odd:2", "--with", "K"],
    ["pair", "--ray", "odd:2", "--with", "X"], ["orbit", "--family", "odd", "--n", "x", "--k", "1"],
    ["pair", "--ray", "odd:2", "--format", "json"], ["pair", "--ray", "odd:2", "--with", "K", "--", "x"],
]
TABLE_ARGVS = [
    ["pair", "--ray", "W_even:1000", "--with", "F", "--format", "json"],
    ["verify", "--family", "sq2", "--n", "3", "--k", "2", "--format", "json"],
    ["eigenray", "--family", "Wplus_sq4", "--n", "40", "--format", "json"],
    ["matrix", "--kind", "CG", "--n", "2", "--check-homaloidal", "--digits", "3", "--out", "m.json"],
    ["orbit", "--seed", "1,1,0,0", "--k", "3", "--n", "\u0663", "--family", "odd"],
    ["pair", "--ray", "", "--with", "K", "--out", ""],
]


def test_only_plain_argvs_skip_argparse(capsys, monkeypatch):
    passes = []
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, args=None, namespace=None):
        passes.append(self.prog)
        return original(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for argv in TABLE_ARGVS:
        _parse_outcome(capsys, _parse, argv)
        assert passes == [], argv
    for argv in ARGPARSE_ARGVS:
        _parse_outcome(capsys, _parse, argv)
        assert passes[:1] == ["morirays"], argv
        passes.clear()


# -- orbits past the interpreter's int string limit -----------------------------------


LIMIT_MESSAGE = "digits, the interpreter's limit for integer string conversion (sys.get_int_max_str_digits())\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit before Python 3.10.7")
@pytest.mark.parametrize("argv", [
    ["orbit", "--family", "odd", "--n", "2", "--k", "200000"],
    ["orbit", "--family", "even", "--n", "1", "--k", "20000", "--format", "json"],
    ["verify", "--family", "odd", "--n", "1", "--k", "20000"],
    ["verify", "--family", "sq2", "--n", "1..3", "--k", "1..200000", "--format", "csv"],
])
def test_huge_k_is_refused_quickly_with_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    k = argv[argv.index("--k") + 1]
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --k {k} is too large: the output at k=") and err.endswith(LIMIT_MESSAGE)
    assert f"integer of more than {limit} digits" in err


def _first_k_past(family, n, peak):
    """The least k whose pencil orbit row has peak(row) >= 10**640."""
    m = families.shape_matrix(family, n)
    row, k = families.PENCIL_SEED, 0
    while peak(row) < 10 ** 640:
        row, k = m.apply(row), k + 1
    return k


def _longest_int(text):
    return max(len(t) for t in text.replace("-", " ").replace(",", " ").split() if t.isdigit())


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit before Python 3.10.7")
def test_k_bound_follows_a_lower_interpreter_limit(capsys):
    k_orbit = _first_k_past("odd", 2, lambda row: max(map(abs, row)))
    # the odd sweep splits the B_n pencil to order 2: it states d, a, b, c, 2d, 2b, 2c and 3c
    k_verify = _first_k_past("even", 1, lambda row: max(2 * row[0], 2 * row[2], 3 * row[3], row[1]))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        orbit_ok = run(capsys, "orbit", "--family", "odd", "--n", "2", "--k", str(k_orbit - 1), "--format", "json")
        orbit_bad = run(capsys, "orbit", "--family", "odd", "--n", "2", "--k", str(k_orbit))
        verify_ok = run(capsys, "verify", "--family", "odd", "--n", "1", "--k", str(k_verify - 1), "--format", "json")
        verify_bad = run(capsys, "verify", "--family", "odd", "--n", "1", "--k", f"1..{k_verify}", "--format", "json")
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, err = orbit_ok
    assert (code, err) == (0, "") and _longest_int(out) == 640
    assert orbit_bad == (2, "", f"error: --k {k_orbit} is too large: the output at k={k_orbit} would hold an "
                                f"integer of more than 640 {LIMIT_MESSAGE}")
    code, out, err = verify_ok
    assert (code, err) == (0, "") and json.loads(out)["valid"] is True and _longest_int(out) == 640
    assert verify_bad == (2, "", f"error: --k 1..{k_verify} is too large: the output at k={k_verify} would hold "
                                 f"an integer of more than 640 {LIMIT_MESSAGE}")
    # the refusals are exact: under the default limit the refused outputs hold a longer integer
    for argv in (["orbit", "--family", "odd", "--n", "2", "--k", str(k_orbit)],
                 ["verify", "--family", "odd", "--n", "1", "--k", str(k_verify)]):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and _longest_int(out) > 640


# -- orbits that never reach the int string limit ----------------------------------


OWN_LIMIT_MESSAGE = ("the output at k=5617 would hold an integer of more than 4300 digits, the program's own limit "
                     "on output integers\n")


@pytest.mark.parametrize("argv,env,reason", [
    # A_1 is unipotent: its orbit grows only polynomially
    (["orbit", "--family", "odd", "--n", "1", "--k", "3000000"], {}, "orbit and verify stop at k = 20000\n"),
    (["verify", "--family", "even", "--n", "1", "--k", "2000000"], {}, "orbit and verify stop at k = 20000\n"),
    # with the interpreter's limit off or above 4300, orbit coordinates still stop at
    # 4300 digits, and the refusal names the program's own limit
    (["orbit", "--family", "odd", "--n", "2", "--k", "200000"], {"PYTHONINTMAXSTRDIGITS": "0"}, OWN_LIMIT_MESSAGE),
    (["orbit", "--family", "odd", "--n", "2", "--k", "200000"], {"PYTHONINTMAXSTRDIGITS": "10000"}, OWN_LIMIT_MESSAGE),
], ids=["unipotent-orbit", "unipotent-verify", "no-int-limit", "raised-int-limit"])
def test_huge_k_past_every_digit_bound_is_refused_in_time(argv, env, reason):
    proc = subprocess.run([sys.executable, "-m", "morirays", *argv], capture_output=True, text=True,
                          env={**_module_env(), **env}, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: --k {argv[-1]} is too large: {reason}"


@pytest.mark.parametrize("kind,n", [("J", 151), ("C", 151), ("JS", 151), ("CG", 151), ("J", 10 ** 9)])
def test_matrix_n_past_the_cap_is_refused_in_time(kind, n):
    # validation and composition cost O(s^3), so an uncapped --n could run for minutes
    proc = subprocess.run([sys.executable, "-m", "morirays", "matrix", "--kind", kind, "--n", str(n)],
                          capture_output=True, text=True, env=_module_env(), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: --n {n} is too large: matrix stops at n = 150\n"


@pytest.mark.parametrize("family,n,points", [("sq2", 10000, 100060011), ("odd", 549997, 1100001)])
def test_eigenray_json_past_the_point_cap_is_refused_in_time(family, n, points):
    # the JSON ray lists every point, about 170 bytes each
    proc = subprocess.run([sys.executable, "-m", "morirays", "eigenray", "--family", family, "--n", str(n),
                           "--format", "json"], capture_output=True, text=True, env=_module_env(), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: --n {n} is too large: the JSON ray would list {points} points; "
                           f"eigenray --format json stops at 1100000\n")


@pytest.mark.parametrize("family,n,k", [("even", "100000000", "1"), ("odd", "1..100001", "0..1")])
def test_verify_n_past_the_reduction_cap_is_refused_in_time(family, n, k):
    # the pencil class at n takes more than n reduction steps, and building it
    # at a huge n runs out of memory before the reducer could refuse it
    proc = subprocess.run([sys.executable, "-m", "morirays", "verify", "--family", family, "--n", n, "--k", k],
                          capture_output=True, text=True, env=_module_env(), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: --n {n} is too large: verify stops at n = 100000\n"


def test_verify_runs_up_to_the_n_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_REDUCTION_STEPS", 3)
    assert run(capsys, "verify", "--family", "even", "--n", "3", "--k", "1")[0] == 0
    assert run(capsys, "verify", "--family", "even", "--n", "2..4", "--k", "1")[:2] == (2, "")


def _grid_cost(parent, ns, ks):
    """The sum of (k+1) times the points of the parent pencil class at n, cell by cell."""
    return sum((k + 1) * families.surface_points(parent, n) for n in ns for k in ks)


@pytest.mark.parametrize("family,parent,n,k", [("odd", "even", "1..100000", "1"), ("even", "odd", "1", "1..20000")])
def test_verify_grid_past_the_cost_cap_is_refused_in_time(family, parent, n, k):
    # about k*s(n) reduction steps per cell: each grid would run for hours
    (n_lo, n_hi), (k_lo, k_hi) = cli._parse_range(n), cli._parse_range(k)
    cost = _grid_cost(parent, range(n_lo, n_hi + 1), range(k_lo, k_hi + 1))
    proc = subprocess.run([sys.executable, "-m", "morirays", "verify", "--family", family, "--n", n, "--k", k,
                           "--format", "csv"], capture_output=True, text=True, env=_module_env(), timeout=2)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: --n {n} --k {k} is too large: the grid would cost {cost}, the sum of (k+1) "
                           f"times the pencil's points over its cells; verify stops at 2000000\n")


def test_verify_runs_up_to_the_cost_cap(capsys, monkeypatch):
    # the reference grid of 1,600 cells is inside the cap
    assert _grid_cost("even", range(1, 41), range(1, 41)) == 1685600 <= cli.MAX_VERIFY_COST
    argv = ("verify", "--family", "even", "--n", "2..3", "--k", "1..2")
    cost = _grid_cost("odd", (2, 3), (1, 2))
    monkeypatch.setattr(cli, "MAX_VERIFY_COST", cost)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "MAX_VERIFY_COST", cost - 1)
    assert run(capsys, *argv)[:2] == (2, "")
    # a cap below the k_hi pass refuses the grid before any certificate is built
    monkeypatch.setattr(cli, "MAX_VERIFY_COST", _grid_cost("odd", (2, 3), (2,)) - 1)
    monkeypatch.setattr(verify, "verify_good", None)
    assert run(capsys, *argv)[:2] == (2, "")


def test_eigenray_json_runs_up_to_the_point_cap(capsys, monkeypatch):
    assert cli.MAX_JSON_POINTS >= families.wonderful_profile("sq2", 1000).s
    points = families.wonderful_profile("odd", 2).s
    monkeypatch.setattr(cli, "MAX_JSON_POINTS", points)
    code, out, err = run(capsys, "eigenray", "--family", "odd", "--n", "2", "--format", "json")
    assert (code, err) == (0, "") and len(json.loads(out)["dominant_ray"]["class"]["mults"]) == points
    monkeypatch.setattr(cli, "MAX_JSON_POINTS", points - 1)
    assert run(capsys, "eigenray", "--family", "odd", "--n", "2", "--format", "json")[:2] == (2, "")


def test_matrix_n_at_the_cap_runs(capsys):
    code, out, err = run(capsys, "matrix", "--kind", "J", "--n", "150", "--format", "csv")
    assert (code, err) == (0, "") and len(out.splitlines()) == 1 + 2 * 150 + 2


def test_k_at_the_term_cap_runs_on_a_unipotent_parent(capsys):
    code, out, err = run(capsys, "orbit", "--family", "odd", "--n", "1", "--k", "20000", "--format", "csv")
    assert (code, err) == (0, "") and out.splitlines()[-1] == "20000,2400040001,800040001,800040000,800000000"
    # the even sweep's parent is A_1 here; its pencil reduction takes 4k steps, within the reducer's cap
    code, out, err = run(capsys, "verify", "--family", "even", "--n", "1", "--k", "20000", "--format", "csv")
    assert (code, err) == (0, "") and out.splitlines()[-1] == "1,20000,true,"
