"""Command-line front end.

Subcommands: `matrix` prints generator and composite matrices, `orbit` runs
shape-matrix orbits, `eigenray` computes limit rays with their spectral data,
`verify` sweeps good-ray certificates and De Fernex signs, `pair` intersects
a named ray with K, F, or itself.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Identical
invocations produce byte-identical output; all decimals are renderings of
exact values and marked as display only.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from collections.abc import Callable  # named by the _Command annotation below

try:  # the C function json.encoder wraps, without importing json
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from . import families, verify
from .cremona import (
    MAX_REDUCTION_STEPS,
    CharMatrix,
    bertini_map,
    double_jonquieres_geiser,
    double_jonquieres_map,
    geiser_map,
    jonquieres_map,
    jonquieres_sturm,
    quadratic_map,
    sturm_map,
)
from .dynamics import OrbitSizeError, Ray, SpectrumError, certify_convergence, eigen, iterate
from .lattice import _quad
from .quadfield import MixedRadicandError


class UsageError(Exception):
    pass


# Python renders no int of more than 4300 digits as a string (the default of
# sys.set_int_max_str_digits), so decimal displays and orbit coordinates stop
# there, or at the interpreter's limit when that is lower.
MAX_DIGITS = 4300
# orbit and verify compute at most this many orbit terms.  A growing family
# pencil orbit passes MAX_DIGITS digits first, by k = 6,318 at the latest
# (even, n = 1); the pencil classes of the unipotent A_1 (odd, n = 1) never do,
# and reduce in 4k steps, within cremona.MAX_REDUCTION_STEPS.
MAX_K = 20000
# verify refuses a grid that costs more than this.  A cell (n, k) costs
# (k+1)*s(n): its orbit terms times the s(n) points of the parent pencil class
# it reduces, in about k*s(n)/2 to k*s(n) steps.  A unit took 4-10 µs on a
# 2-core container with Python 3.11.7: odd at n = 1..40, k = 1..40 costs
# 1,685,600 and runs in about 9 s.
MAX_VERIFY_COST = 2000000
# matrix builds kinds J, C, JS and CG at most at this n: validating and
# composing the (s+1)-square matrices costs O(s^3), and the slowest, CG,
# takes about 2 s at n = 150 on a 2-core container with Python 3.11.7
MAX_MATRIX_N = 150
# eigenray --format json lists every point of the ray, about 170 bytes each:
# sq2 at n = 1000 has 1,006,011 points and writes 170 MB
MAX_JSON_POINTS = 1100000
# 10 ** 4300 takes about 50 µs, and every orbit and verify call asks for it
_power_of_ten = functools.cache((10).__pow__)
# the interpreter's limit on integer string conversion: 0 means none, and
# Python before 3.10.7 has none to read
_int_str_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _digit_limit() -> int:
    """The most digits an output int may have: the interpreter's limit on
    integer string conversion or MAX_DIGITS, whichever is lower."""
    limit = _int_str_limit()
    return min(limit, MAX_DIGITS) if limit else MAX_DIGITS


def _too_large(k: int | str, e: OrbitSizeError) -> UsageError:
    limit = _digit_limit()
    whose = ("the interpreter's limit for integer string conversion (sys.get_int_max_str_digits())"
             if limit == _int_str_limit() else "the program's own limit on output integers")
    return UsageError(f"--k {k} is too large: the output at k={e.k} would hold an integer of more than "
                      f"{limit} digits, {whose}")


def _too_many(k: int | str) -> UsageError:
    return UsageError(f"--k {k} is too large: orbit and verify stop at k = {MAX_K}")


def _too_costly(args, cost: int) -> UsageError:
    return UsageError(f"--n {args.n} --k {args.k} is too large: the grid would cost {cost}, the sum of (k+1) "
                      f"times the pencil's points over its cells; verify stops at {MAX_VERIFY_COST}")


def _parse_range(text: str) -> tuple[int, int]:
    """'a..b' inclusive, or a single integer."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected N or A..B") from None
    if a > b:
        raise UsageError(f"empty range {text!r}")
    return a, b


def _deliver(text: str, out: str | None) -> None:
    """Write text to stdout, or to `out`; MORIRAYS_OUTDIR prefixes a relative `out`."""
    if out is None:
        sys.stdout.write(text)
        return
    out = os.path.join(os.environ.get("MORIRAYS_OUTDIR", ""), out)
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write --out {out!r}: {e.strerror or e}") from None


def _json_text(obj) -> str:
    """The text of `json.dumps(obj, sort_keys=True, indent=2)` plus a newline.

    A list entry that is the same object as the entry before it repeats that
    entry's text, so a class expanded from blocks renders each block once.
    Floats and non-str keys raise TypeError: no output holds them."""
    parts: list[str] = []
    _write_json(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


_NO_ENTRY = object()  # stands before the first entry of a list


def _write_json(obj, nl: str, parts: list[str]) -> None:
    """Append the text of obj to parts; nl is a newline and the indent of obj.

    The exact types int, str, dict, list and tuple are dispatched first; any
    other object takes the isinstance chain, so None, bool and a subclass of
    a JSON type are written as json.dumps writes them."""
    t = type(obj)
    if t is not int and t is not str and t is not dict and t is not list and t is not tuple:
        if obj is None or obj is True or obj is False:
            parts.append("null" if obj is None else "true" if obj else "false")
            return
        t = next((k for k in (str, int, dict, list, tuple) if isinstance(obj, k)), None)
        if t is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if t is int:
        parts.append(int.__repr__(obj))
    elif t is str:
        parts.append(encode_basestring_ascii(obj))
    elif t is dict:
        if not obj:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):  # a key that is not a str raises TypeError here or below
            parts.append(sep)
            parts.append(encode_basestring_ascii(key))
            parts.append(": ")
            _write_json(obj[key], inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif not obj:
        parts.append("[]")
    elif type(obj[0]) is int and set(map(type, obj)) == {int}:
        inner = nl + "  "
        parts.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
    else:
        inner = nl + "  "
        sep = "[" + inner
        prev, text, start = _NO_ENTRY, None, 0
        for item in obj:
            if item is prev:
                if text is None:
                    text = "".join(parts[start:])
                parts.append(sep)
                parts.append(text)
            else:
                parts.append(sep)
                start = len(parts)
                _write_json(item, inner, parts)
                prev, text = item, None
            sep = "," + inner
        parts.append(nl + "]")


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv  # only CSV output needs it, so JSON and pretty runs skip the import

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# -- matrix -------------------------------------------------------------------------


# Each --kind: whether it takes --n, its matrix at n, and the closed form of
# its homaloidal net at n, if there is one.  The map builders are looked up
# when called, so a wrapper bound to their names in this module is used.
_KINDS = {
    "Q": (False, lambda n: quadratic_map(range(1, 4)), None),
    "S": (False, lambda n: sturm_map(range(1, 7)), None),
    "G": (False, lambda n: geiser_map(range(1, 8)), None),
    "B": (False, lambda n: bertini_map(range(1, 9)), None),
    "J": (True, lambda n: jonquieres_map(n, range(1, 2 * n + 2)), None),
    "C": (True, lambda n: double_jonquieres_map(n, range(1, 2 * n + 3)), None),
    "JS": (True, lambda n: jonquieres_sturm(n), lambda n: families.js_homaloidal(n)),
    "CG": (True, lambda n: double_jonquieres_geiser(n), lambda n: families.cg_homaloidal(n)),
}


def _build_matrix(kind: str, n: int | None) -> CharMatrix:
    takes_n, build, _ = _KINDS[kind]
    if not takes_n:
        if n is not None:
            raise UsageError(f"--n does not apply to kind {kind}")
    elif n is None:
        raise UsageError(f"kind {kind} needs --n")
    elif n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    elif n > MAX_MATRIX_N:
        raise UsageError(f"--n {n} is too large: matrix stops at n = {MAX_MATRIX_N}")
    return build(n)


def cmd_matrix(args) -> tuple[str, int]:
    m = _build_matrix(args.kind, args.n)
    if not m.is_valid():
        raise UsageError(f"matrix {args.kind} failed validation")
    net = m.homaloidal_net()
    closed_form = _KINDS[args.kind][2]
    expected = None if closed_form is None else closed_form(args.n).expand()
    homaloidal_ok = expected is None or net == expected

    if args.format == "json":
        payload = {"kind": args.kind, "n": args.n, "matrix": m.to_json()}
        if args.check_homaloidal:
            payload["homaloidal"] = net.to_json()
            payload["homaloidal_ok"] = homaloidal_ok
        text = _json_text(payload)
    elif args.format == "csv":
        text = _csv_text([f"c{j}" for j in range(m.s + 1)], [list(r) for r in m.rows])
    else:
        lines = [m.pretty()]
        if args.check_homaloidal:
            lines.append(f"homaloidal net: {net.pretty()}")
            if expected is not None:
                lines.append(f"matches closed form: {homaloidal_ok}")
        text = "\n".join(lines) + "\n"
    return text, 0 if (homaloidal_ok or not args.check_homaloidal) else 1


# -- orbit --------------------------------------------------------------------------


def cmd_orbit(args) -> tuple[str, int]:
    if args.family not in ("odd", "even"):
        raise UsageError("orbit needs --family odd or even (the matrix families)")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.k < 0:
        raise UsageError(f"--k must be >= 0, got {args.k}")
    seed = families.PENCIL_SEED
    if args.seed is not None:
        try:
            seed = tuple(int(x) for x in args.seed.split(","))
        except ValueError:
            raise UsageError(f"bad seed {args.seed!r}; expected comma-separated integers") from None
        if len(seed) != 4:
            raise UsageError("seed needs exactly 4 entries: d,a,b,c")
    try:
        orbit = iterate(families.shape_matrix(args.family, args.n), seed, min(args.k, MAX_K),
                        _power_of_ten(_digit_limit()))
    except OrbitSizeError as e:
        raise _too_large(args.k, e) from None
    if args.k > MAX_K:
        raise _too_many(args.k)

    if args.format == "json":
        text = _json_text({"family": args.family, "n": args.n, "orbit": orbit.to_json()})
    elif args.format == "csv":
        text = _csv_text(["k", "d", "a", "b", "c"], [[k, *t] for k, t in enumerate(orbit.terms)])
    else:
        width = max(len(str(x)) for t in orbit.terms for x in t)
        lines = [f"k={k}  " + "  ".join(str(x).rjust(width) for x in t) for k, t in enumerate(orbit.terms)]
        text = "\n".join(lines) + "\n"
    return text, 0


# -- eigenray -----------------------------------------------------------------------


def _family_tag(name: str) -> str:
    """The limit family named by its tag or its alias."""
    for f in families.FAMILIES:
        if name in (f.tag, f.alias):
            return f.tag
    raise UsageError(f"unknown ray family {name!r}; expected one of {', '.join(families.WONDERFUL_TAGS)} "
                     f"or {', '.join(f.alias for f in families.FAMILIES)}")


def cmd_eigenray(args) -> tuple[str, int]:
    tag = _family_tag(args.family)
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    display = families.wonderful_profile(tag, args.n)
    if args.format == "json" and display.s > MAX_JSON_POINTS:
        raise UsageError(f"--n {args.n} is too large: the JSON ray would list {display.s} points; "
                         f"eigenray --format json stops at {MAX_JSON_POINTS}")
    ray = Ray(display)
    matrix = families.shape_matrix(families.family(tag).parent or tag, args.n)
    dec = eigen(matrix)
    try:
        cert = certify_convergence(dec, families.LINE_SEED).to_json()
    except SpectrumError as e:
        cert = {"error": str(e)}

    if args.format == "json":
        payload = {
            "family": tag,
            "n": args.n,
            "surface_points": display.s,
            "shape": list(matrix.counts),
            "matrix": matrix.to_json(),
            "char_poly": [[c, 1] for c in dec.char_poly],
            "eigenvalues": [e.to_json() for e in dec.eigenvalues],
            "display": display.to_json(),
            "dominant_ray": ray.to_json(),
            "certificate": cert,
        }
        text = _json_text(payload)
    elif args.format == "csv":
        rows = [["degree", str(display.degree), ""]]
        for i, (v, count) in enumerate(display.blocks):
            rows.append([f"block{i + 1}x{count}", str(v), _quad(v).decimal(args.digits)])
        text = _csv_text(["entry", "exact", "decimal (display only)"], rows)
    else:
        lines = [f"{tag} limit ray on {display.s} points", f"  display:   {display.pretty()}"]
        lines.append(f"  canonical: {ray}")
        lines.append(f"  rational:  {ray.is_rational}")
        for e in dec.eigenvalues:
            mark = " (dominant)" if dec.dominant_index is not None and dec.eigenvalues[dec.dominant_index] is e else ""
            lines.append(f"  eigenvalue {e.value} ~ {e.value.decimal(args.digits)} (display only), "
                         f"mult {e.algebraic}{mark}")
        text = "\n".join(lines) + "\n"
    return text, 0


# -- verify -------------------------------------------------------------------------


def cmd_verify(args) -> tuple[str, int]:
    # a good sweep is also named by the tag of its limit family
    name = next((f.good for f in families.FAMILIES if f.good and args.family in (f.good, f.tag)), None)
    if name is None:
        raise UsageError(f"unknown family {args.family!r}; expected one of "
                         f"{', '.join(families.GOOD_TAGS)} (or even_plus/odd_plus aliases)")
    n_lo, n_hi = _parse_range(args.n)
    k_lo, k_hi = _parse_range(args.k)
    if n_lo < 1:
        raise UsageError(f"--n must start at >= 1, got {n_lo}")
    if k_lo < 0:
        raise UsageError(f"--k must start at >= 0, got {k_lo}")
    # no certificate holds at k = 0, and from k = 1 on the pencil class at n
    # takes more than n reduction steps, so none past this n can hold
    if n_hi > MAX_REDUCTION_STEPS:
        raise UsageError(f"--n {args.n} is too large: verify stops at n = {MAX_REDUCTION_STEPS}")

    # the parent pencil class has s(n) = 2n+7 or 2n+8 points, so over the
    # range they sum to its width times the mean s(n_lo) + n_hi - n_lo
    s_lo = families.surface_points(families.good_family(name).parent, n_lo)
    points = (n_hi - n_lo + 1) * (s_lo + n_hi - n_lo)
    cost = points * (k_lo + k_hi + 2) * (k_hi - k_lo + 1) // 2
    # the cells at the largest k alone here, the whole grid once they have
    # run: a --k too large is still refused first
    if points * (min(k_hi, MAX_K) + 1) > MAX_VERIFY_COST:
        raise _too_costly(args, cost)

    bound = _power_of_ten(_digit_limit())
    try:
        # the largest k of each n first: orbit rows grow with k, so a --k too
        # large is refused before the sweep
        last = {n: verify.verify_good(name, n, min(k_hi, MAX_K), bound) for n in range(n_lo, n_hi + 1)}
        if k_hi > MAX_K:
            raise _too_many(args.k)
        if cost > MAX_VERIFY_COST:
            raise _too_costly(args, cost)
        certs = [last[n] if k == k_hi else verify.verify_good(name, n, k, bound)
                 for n in range(n_lo, n_hi + 1) for k in range(k_lo, k_hi + 1)]
    except OrbitSizeError as e:
        raise _too_large(args.k, e) from None
    table = verify.defernex_sweep(families.GOOD_LIMITS[name], n_lo, n_hi)
    failing = [(c.n, c.k) for c in certs if not c.valid]
    ok = not failing and table.valid

    if args.format == "json":
        text = _json_text(
            {
                "family": name,
                "certificates": [c.to_json() for c in certs],
                "defernex": table.to_json(),
                "failing": [list(x) for x in failing],
                "valid": ok,
            }
        )
    elif args.format == "csv":
        rows = [[c.n, c.k, str(c.valid).lower(), "; ".join(f.name for f in c.failures)] for c in certs]
        text = _csv_text(["n", "k", "valid", "failures"], rows)
    else:
        lines = []
        for c in certs:
            if c.valid:
                lines.append(f"{name} n={c.n} k={c.k}: good ({c.emptiness.rule})")
            else:
                why = "; ".join(f.statement for f in c.failures)
                lines.append(f"{name} n={c.n} k={c.k}: REFUSED ({why})")
        lines.append(f"de Fernex signs for {families.GOOD_LIMITS[name]}:")
        for row in table.rows:
            lines.append(f"  n={row.n} sign={row.sign:+d} value ~ {row.value.decimal(args.digits)} (display only)")
        if table.bounds:
            bad = [c for c in table.bounds if not c.ok]
            lines.append(f"bound chain: {len(table.bounds)} checks, {'all hold' if not bad else f'{len(bad)} FAILED'}")
        lines.append("RESULT: " + ("all certificates valid" if ok else f"failures at {failing}"))
        text = "\n".join(lines) + "\n"
    return text, 0 if ok else 1


# -- pair ---------------------------------------------------------------------------

# each --with and the MultiplicityProfile method that pairs a ray with it
_PAIRINGS = {"K": "canonical_pairing", "F": "defernex_value", "self": "self_intersection"}


def cmd_pair(args) -> tuple[str, int]:
    name, sep, idx = args.ray.partition(":")
    if not sep:
        raise UsageError(f"bad ray spec {args.ray!r}; expected NAME:n, e.g. Wplus_sq2:1")
    tag = _family_tag(name)
    try:
        n = int(idx)
    except ValueError:
        raise UsageError(f"bad ray index {idx!r}") from None
    if n < 1:
        raise UsageError(f"ray index must be >= 1, got {n}")
    value = getattr(families.wonderful_profile(tag, n), _PAIRINGS[args.with_])()
    try:
        sign = value.sign()
    except MixedRadicandError:
        raise UsageError("pairing value mixes incompatible radicals") from None

    if args.format == "json":
        text = _json_text({"ray": f"{tag}:{n}", "with": args.with_,
                           **verify.signed_value_json(value, sign, args.digits)})
    elif args.format == "csv":
        text = _csv_text(["ray", "with", "exact", "sign", "decimal (display only)"],
                         [[f"{tag}:{n}", args.with_, str(value), sign, value.decimal(args.digits)]])
    else:
        text = (f"{tag}:{n} . {args.with_} = {value}\n"
                f"  sign: {sign:+d}\n"
                f"  ~ {value.decimal(args.digits)} (display only)\n")
    return text, 0


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never mutates it."""
    return _parsers()[0]


# a subcommand's function, and the argparse action of each of its options by flag
_Command = "tuple[Callable[[argparse.Namespace], tuple[str, int]], dict[str, argparse.Action]]"


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    """The top-level parser and each subcommand's `_Command` by name."""
    p = argparse.ArgumentParser(
        prog="morirays",
        description="Exact divisor-class calculus on blowups of the plane.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    commands: dict[str, _Command] = {}
    adders = []

    def add(name, func, help):
        """Register a subcommand; returns the function that adds one of its options."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        actions: dict[str, argparse.Action] = {}
        commands[name] = func, actions

        def option(flag, **kwargs):
            actions[flag] = sp.add_argument(flag, **kwargs)

        adders.append(option)
        return option

    option = add("matrix", cmd_matrix, "print a generator or composite matrix")
    option("--kind", required=True, choices=tuple(_KINDS))
    option("--n", type=int, help="family index for J, C, JS, CG")
    option("--check-homaloidal", action="store_true",
           help="also print the homaloidal net and check it against the closed form")

    option = add("orbit", cmd_orbit, "iterate a shape matrix on a seed")
    option("--family", required=True, help="odd or even")
    option("--n", type=int, required=True)
    option("--k", type=int, required=True, help="largest k to print")
    option("--seed", help="comma-separated d,a,b,c (default 1,1,0,0)")

    option = add("eigenray", cmd_eigenray, "limit ray of a family, with spectral data")
    option("--family", required=True, help="odd, even, even_plus, odd_plus, sq4, sq2 (or W_odd, Wplus_sq2, ...)")
    option("--n", type=int, required=True)

    option = add("verify", cmd_verify, "good-ray certificates plus the De Fernex sign sweep")
    option("--family", required=True, help="even, odd, sq4, sq2 (even_plus/odd_plus alias the first two)")
    option("--n", required=True, help="range A..B or single N")
    option("--k", default="1..6", help="range A..B or single K (default 1..6)")

    option = add("pair", cmd_pair, "intersect a named ray with K, F, or itself")
    option("--ray", required=True, help="NAME:n, e.g. Wplus_sq2:1 or odd:2")
    option("--with", dest="with_", required=True, choices=tuple(_PAIRINGS))

    for option in adders:  # the common options, after each subcommand's own
        option("--format", choices=("pretty", "json", "csv"), default="pretty")
        option("--out", help="write output to this path (MORIRAYS_OUTDIR prefixes relative paths)")
        option("--digits", type=int, default=10, help="decimal display digits")
    return p, commands


def _plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse makes of a plain argv, or None for any other.

    A plain argv is a subcommand name, then that subcommand's exact flags,
    each at most once, each followed by one value that does not start with
    '-', converts with the flag's type and lies in its choices; the
    `store_true` flag takes no value.  Every required flag is present."""
    entry = _parsers()[1].get(argv[0]) if argv else None
    if entry is None:
        return None
    func, actions = entry
    args = argparse.Namespace()
    values = vars(args)  # filled directly: Namespace(**kwargs) sets each one through setattr
    for action in actions.values():
        values[action.dest] = action.default
    given = set()
    words = iter(argv[1:])
    for flag in words:
        action = actions.get(flag)
        if action is None or action.dest in given:
            return None
        given.add(action.dest)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        text = next(words, "-")  # a missing value is not plain either
        if text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in actions.values():
        if action.required and action.dest not in given:
            return None
    values["func"], values["command"] = func, argv[0]
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`: a plain argv is read from the
    options' actions without an argparse pass, and any other goes to
    argparse, so help, abbreviations, `--flag=value`, `--` and every usage
    error are argparse's own."""
    args = _plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if args.digits < 0:
            raise UsageError(f"--digits must be >= 0, got {args.digits}")
        if args.digits > _digit_limit():
            raise UsageError(f"--digits must be <= {_digit_limit()}, got {args.digits}")
        text, code = args.func(args)
        _deliver(text, args.out)
        return code
    except (UsageError, ValueError, SpectrumError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
