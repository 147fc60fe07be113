"""Machine checks: pencil certificates, emptiness rules, good rays, sign sweeps."""

import contextlib
import io
import json
import sys

import make_cli_golden
import pytest

from morirays import DivisorClass, MultiplicityProfile, SpectrumError, dynamics, families, line_pencil_class, verify
from morirays.cli import main
from morirays.cremona import CharMatrix, quadratic_map
from morirays.dynamics import char_poly
from morirays.families import pencil_profile, primed_pencil_profile
from morirays.verify import (
    certify_pencil,
    defernex_sweep,
    emptiness_certificate,
    sq2_bound_chain,
    verify_good,
    wonderful_report,
)

GOOD_CHECKS = [
    "construction",
    "self-intersection",
    "degree",
    "rational",
    "invariant-degree",
    "invariant-mult",
    "orbit-inequality",
    "split-multiplicity",
]

# (family, n, k) -> emptiness rule
RULES = [
    ("even", 2, 1, "R2_PENCIL"),
    ("even", 4, 3, "R2_PENCIL"),
    ("odd", 1, 1, "R2_PENCIL"),
    ("odd", 3, 2, "R2_PENCIL"),
    ("sq4", 1, 1, "R2_PENCIL"),
    ("sq4", 2, 1, "R3_PENCIL"),
    ("sq4", 3, 1, "R_GE_4_NAGATA"),
    ("sq4", 5, 2, "R_GE_4_NAGATA"),
    ("sq2", 1, 1, "R3_PENCIL"),
    ("sq2", 2, 1, "R_GE_4_NAGATA"),
    ("sq2", 4, 2, "R_GE_4_NAGATA"),
]

# the C9 grids: (family, n range, k range), 100 cells in all
C9_GRIDS = [
    ("even", range(2, 7), range(1, 7)),
    ("odd", range(1, 6), range(1, 7)),
    ("sq4", range(1, 6), range(1, 5)),
    ("sq2", range(1, 6), range(1, 5)),
]

# first year of each sweep with its sign; -1 rows are strict negativity claims
SWEEP_SIGNS = {
    "odd": [(1, -1), (2, 1), (3, 1), (10, 1)],
    "even": [(1, 0), (2, 1), (10, 1)],
    "even_plus": [(1, -1), (2, -1), (3, 1), (10, 1)],
    "odd_plus": [(1, -1), (2, 1), (10, 1)],
    "sq4": [(1, -1), (7, -1), (12, -1)],
    "sq2": [(1, -1), (7, -1), (12, -1)],
}


def test_pencil_certificate_valid():
    cert = certify_pencil(primed_pencil_profile(2, 1).expand())
    assert cert.valid
    assert cert.replay_ok and cert.endpoint_is_line_pencil and cert.nonnegative_throughout
    assert cert.failure is None
    assert cert.dimension_statement == "dim of the m-th multiple is m for every m >= 1"


def test_pencil_certificate_trivial():
    cert = certify_pencil(line_pencil_class(6))
    assert cert.valid
    assert len(cert.reduction.steps) == 0


def test_pencil_certificate_rejects_non_pencil():
    cert = certify_pencil(DivisorClass(3, [1] * 8))
    assert not cert.valid
    assert cert.failure == "reduced class L_3(1^8) is not a pencil of lines"
    assert not certify_pencil(DivisorClass(2, [1, 1, 1])).valid


def test_pencil_certificate_json():
    cert = certify_pencil(pencil_profile(2, 1).expand())
    data = cert.to_json()
    assert data["valid"] is True
    assert data["reduction"]["steps"] == [[1, 2, 3], [1, 4, 5], [6, 7, 8], [9, 10, 11], [1, 6, 7]]


def replay(reduction):
    """Re-apply the recorded quadratic maps as full characteristic matrices;
    True when they land on `reduction.reduced`.  The oracle of the integer
    replay in certify_pencil, which shares no code with it."""
    x = reduction.start
    for t in reduction.steps:
        x = quadratic_map(t, x.s).apply(x)
    return x == reduction.reduced


@pytest.mark.parametrize("family,n,k", [("even", 2, 1), ("odd", 3, 2), ("sq4", 5, 4), ("sq2", 2, 1), ("sq2", 5, 4)])
def test_integer_replay_agrees_with_full_matrix_replay(family, n, k):
    cert = verify_good(family, n, k).pencil
    assert cert.replay_ok is replay(cert.reduction) is True


def test_pencil_certificate_at_s48():
    cert = certify_pencil(primed_pencil_profile(20, 10).expand())
    assert cert.system.s == 48 and len(cert.reduction.steps) == 462
    assert cert.valid


def _forge(monkeypatch, change):
    """Make certify_pencil see `change(x, honest reduction)` as the reduction."""
    honest = verify.cremona_reduce
    monkeypatch.setattr(verify, "cremona_reduce", lambda x: change(x, honest(x)))


def test_replay_rejects_a_forged_endpoint(monkeypatch):
    # the honest endpoint is a line pencil; moving its one multiplicity keeps
    # it a line pencil, so only the replay can tell
    def move_the_point(x, red):
        mults = red.reduced.mults
        return red._replace(reduced=DivisorClass(red.reduced.degree, mults[-1:] + mults[:-1]))

    _forge(monkeypatch, move_the_point)
    cert = certify_pencil(primed_pencil_profile(2, 1).expand())
    assert cert.reduction.is_reduced and cert.endpoint_is_line_pencil
    assert not cert.replay_ok and not replay(cert.reduction)
    assert cert.failure == "replay of the recorded quadratic maps diverged"


def test_replay_follows_the_map_builder_not_the_reducer(monkeypatch):
    # the reducer stays honest; only the block the replay reads is wrong
    def transposed(points, s=None):
        return CharMatrix(zip(*quadratic_map(points, s).rows))

    monkeypatch.setattr(verify, "quadratic_map", transposed)
    cert = certify_pencil(primed_pencil_profile(2, 1).expand())
    assert cert.reduction.is_reduced and cert.endpoint_is_line_pencil and replay(cert.reduction)
    assert not cert.replay_ok
    assert cert.failure == "replay of the recorded quadratic maps diverged"


def test_replay_reads_the_block_once_per_builder(monkeypatch):
    builds, calls = [], []
    apply = CharMatrix.apply

    def fresh(points, s=None):
        builds.append((points, s))
        return quadratic_map(points, s)

    monkeypatch.setattr(verify, "quadratic_map", fresh)
    monkeypatch.setattr(CharMatrix, "apply", lambda self, x: calls.append(x) or apply(self, x))
    certs = [certify_pencil(primed_pencil_profile(20, k).expand()) for k in (10, 11, 12)]
    certs.append(verify_good("odd", 3, 4).pencil)
    assert len(certs[0].reduction.steps) == 462 and all(c.valid for c in certs)
    assert builds == [((1, 2, 3), 3)]
    assert calls == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_replay_reads_a_builder_bound_mid_session(monkeypatch):
    x = primed_pencil_profile(2, 1).expand()
    assert certify_pencil(x).replay_ok
    # a builder bound after the block was read is used on the next certificate
    monkeypatch.setattr(verify, "quadratic_map", lambda points, s=None: CharMatrix(zip(*quadratic_map(points, s).rows)))
    assert not certify_pencil(x).replay_ok
    # and so is the original once it is bound again
    monkeypatch.undo()
    assert certify_pencil(x).replay_ok


def test_a_verify_cell_builds_one_shape_matrix(monkeypatch):
    builds = []
    init = families.ShapeMatrix.__init__

    def counted(self, rows, counts):
        builds.append(tuple(counts))
        init(self, rows, counts)

    monkeypatch.setattr(families.ShapeMatrix, "__init__", counted)
    for family, n, k in (("even", 2, 3), ("odd", 3, 2), ("sq4", 2, 1), ("sq2", 1, 2)):
        builds.clear()
        assert verify_good(family, n, k).valid
        assert len(builds) == 1, (family, n, k, builds)
    # the cost cap of `verify` reads s(n) without building a matrix
    builds.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--family", "sq2", "--n", "1..100", "--k", "1..20000"]) == 2
    assert builds == []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--family", "even", "--n", "2", "--k", "1"]) == 0
    assert len(builds) == 1


def test_replay_checks_signs_between_the_ends(monkeypatch):
    # the line through p1 and p2 maps to E_3 (degree 0, multiplicity -1);
    # repeating the step lands back on the nonnegative start
    def repeat_the_last_step(x, red):
        return red._replace(reduced=x, steps=red.steps + red.steps[-1:])

    _forge(monkeypatch, repeat_the_last_step)
    cert = certify_pencil(DivisorClass(1, [1, 1, 0]))
    assert cert.reduction.steps == ((1, 2, 3), (1, 2, 3))
    assert cert.replay_ok
    assert not cert.nonnegative_throughout and not cert.valid


def test_good_certificate_fails_on_a_forged_pencil_reduction(monkeypatch):
    honest = verify_good("odd", 2, 1)
    _forge(monkeypatch, lambda x, red: red._replace(steps=red.steps[:-1]))
    cert = verify_good("odd", 2, 1)
    assert cert.checks == honest.checks and all(c.ok for c in cert.checks)
    assert not cert.pencil.replay_ok and not cert.valid and not cert.emptiness.valid
    assert cert.failures == cert.emptiness.inequalities[:1]
    assert cert.failures[0].statement.endswith(": replay of the recorded quadratic maps diverged")
    assert cert.to_json()["valid"] is False
    # the premise carries the pencil's verdict: with the honest premise in its
    # place the certificate is valid, though its pencil still is not
    premise = honest.emptiness.inequalities[0]
    restored = cert._replace(emptiness=cert.emptiness._replace(
        inequalities=(premise, *cert.emptiness.inequalities[1:])))
    assert restored.valid and restored.emptiness.valid and not restored.pencil.valid


FORGED_CELLS = [("odd", 2, 1, "R2_PENCIL", "collided-dimension"),
                ("sq2", 1, 1, "R3_PENCIL", "matching-conditions"),
                ("sq2", 2, 1, "R_GE_4_NAGATA", "exact-multiplicity")]


def _drop_last_step(monkeypatch):
    _forge(monkeypatch, lambda x, red: red._replace(steps=red.steps[:-1]))


@pytest.mark.parametrize("family,n,k,rule,premise", FORGED_CELLS)
def test_a_forged_pencil_fails_each_rule_once_at_its_premise(monkeypatch, capsys, family, n, k, rule, premise):
    reason = "replay of the recorded quadratic maps diverged"
    honest = verify_good(family, n, k)
    _drop_last_step(monkeypatch)
    cert = verify_good(family, n, k)
    assert cert.emptiness.rule == rule and cert.pencil.failure == reason
    assert cert.failures == (verify.Check(premise, f"{honest.emptiness.inequalities[0].statement}: {reason}", False),)
    assert cert.emptiness.inequalities[1:] == honest.emptiness.inequalities[1:]
    argv = ["verify", "--family", family, "--n", str(n), "--k", str(k)]
    assert main(argv) == 1
    line = f"{family} n={n} k={k}: REFUSED ({cert.failures[0].statement})\n"
    out = capsys.readouterr().out
    assert line in out and out.count(reason) == 1
    assert main([*argv, "--format", "csv"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [f"{n},{k},false,{premise}"]


def _flags(node) -> list[bool]:
    """The `ok` and `valid` values in a JSON document, asserting on the way
    that each `valid` is the AND of the flags beneath it (True over none).
    A pencil certificate lists no checks: its `failure` is null exactly when
    it is valid."""
    if isinstance(node, list):
        return [f for item in node for f in _flags(item)]
    if not isinstance(node, dict):
        return []
    beneath = [f for key, value in node.items() for f in _flags(value)]
    if "failure" in node:
        assert beneath == [] and (node["failure"] is None) is node["valid"], node
    elif "valid" in node:
        assert node["valid"] is all(beneath), node
    return beneath + [node[key] for key in ("ok", "valid") if key in node]


def _json_run(argv) -> tuple[int, list[bool]]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, _flags(json.loads(out.getvalue() or "null"))


def test_every_json_verdict_is_the_and_of_the_flags_beneath_it(monkeypatch):
    argvs = [argv for argv in make_cli_golden.corpus() if argv[-2:] == ["--format", "json"]]
    argvs += [["verify", "--family", family, "--n", str(n), "--k", str(k), "--format", "json"]
              for family, ns, ks in C9_GRIDS for n in ns for k in ks]
    with make_cli_golden.pinned():
        for argv in argvs:
            code, flags = _json_run(argv)
            # only verify states verdicts, and it exits 1 exactly when one fails
            assert bool(flags) is (argv[0] == "verify") and (code == 1) is (False in flags), argv
        _drop_last_step(monkeypatch)
        for family, n, k, _, _ in FORGED_CELLS:
            code, flags = _json_run(["verify", "--family", family, "--n", str(n), "--k", str(k), "--format", "json"])
            # five flags fail: the premise, the pencil, the emptiness, the certificate and the run
            assert code == 1 and flags.count(False) == 5


@pytest.mark.parametrize("step", [(1, 1, 2), (0, 1, 2), (1, 2, 13), (1, 2), (1, 2, 3, 4)])
def test_replay_rejects_malformed_steps(monkeypatch, step):
    _forge(monkeypatch, lambda x, red: red._replace(steps=red.steps + (step,)))
    with pytest.raises(ValueError, match="not three distinct points in 1..12"):
        certify_pencil(primed_pencil_profile(2, 1).expand())


@pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (3, 3)])
def test_verify_good_refuses_a_bound_its_scaled_entries_reach(n, k):
    # sq2 splits to order r = n + 2 >= 3, so r*d reaches a bound one past the
    # largest orbit coordinate while the orbit itself stays below it
    parent = families.family(families.good_family("sq2").parent)
    terms = dynamics.iterate(parent.matrix(n), families.PENCIL_SEED, k).terms
    bound = max(abs(x) for t in terms for x in t) + 1
    assert dynamics.iterate(parent.matrix(n), families.PENCIL_SEED, k, bound).terms == terms
    with pytest.raises(dynamics.OrbitSizeError) as info:
        verify_good("sq2", n, k, bound)
    assert info.value.k == k
    assert verify_good("sq2", n, k, 10 * bound * (n + 2)).valid


@pytest.mark.parametrize("family,n,k,rule", RULES)
def test_rule_selection(family, n, k, rule):
    cert = verify_good(family, n, k)
    assert cert.valid, [c.statement for c in cert.failures]
    assert cert.emptiness.rule == rule


def test_r_ge_4_inequalities():
    cert = verify_good("sq2", 3, 1)
    names = [c.name for c in cert.emptiness.inequalities]
    assert names == ["exact-multiplicity", "twist-bound"]
    assert all(c.ok for c in cert.emptiness.inequalities)
    assert cert.emptiness.order == 5


def test_r3_inequalities():
    cert = verify_good("sq4", 2, 2)
    names = [c.name for c in cert.emptiness.inequalities]
    assert names == ["matching-conditions", "matching-excess", "dimension-bound"]
    assert cert.valid


def test_good_certificate_checks():
    cert = verify_good("even", 2, 1)
    assert [c.name for c in cert.checks] == GOOD_CHECKS
    assert all(c.ok for c in cert.checks)
    assert cert.pencil.valid
    data = cert.to_json()
    assert data["family"] == "even" and data["valid"] is True


def test_good_refusal_k0():
    cert = verify_good("even", 2, 0)
    assert not cert.valid
    names = [c.name for c in cert.failures]
    assert "orbit-inequality" in names
    assert "split-multiplicity" in names
    assert any("dimension-drop" == c.name for c in cert.failures)


def test_good_rejects_bad_family():
    with pytest.raises(ValueError):
        verify_good("wonderful", 1, 1)


def test_emptiness_certificate_direct():
    system = primed_pencil_profile(1, 1)
    cert = emptiness_certificate(system, system, 5)
    assert cert.rule == "R_GE_4_NAGATA" and cert.order == 5 and cert.valid


@pytest.mark.parametrize("family,expect", sorted(SWEEP_SIGNS.items()))
def test_defernex_sweeps(family, expect):
    table = defernex_sweep(family, 1, 12)
    assert table.valid
    signs = {row.n: row.sign for row in table.rows}
    for n, sign in expect:
        assert signs[n] == sign
    if family == "sq2":
        assert len(table.bounds) == 5 * 12
        assert all(c.ok for c in table.bounds)
    else:
        assert table.bounds == ()


def test_defernex_sweep_rejects_empty_range():
    with pytest.raises(ValueError):
        defernex_sweep("odd", 5, 4)


def test_sq2_bound_chain_frozen():
    checks = sq2_bound_chain(5)
    assert [c.name for c in checks] == [
        "radical-upper",
        "radical-lower",
        "coefficients",
        "substitution",
        "final-sign",
    ]
    assert checks[0].statement == "(2n^2+6n+1)^2 - 4n^2(n^2+6n+10) = 61 = 12n+1 > 0"
    assert checks[1].statement == "49n^4-28n^2 - (7n^2-3)^2 = 341 = 14n^2-9 > 0"
    assert checks[2].statement == "P = 24570 > 0 and Q = 294 > 0"
    assert checks[3].statement == "A + P*(n+3+1/(2n)) - Q*(7n^2-3) = -231 = 7(-7n^2+24n+22)"
    assert all(c.ok for c in checks)


@pytest.mark.parametrize("n", range(1, 30))
def test_sq2_bound_chain_holds(n):
    assert all(c.ok for c in sq2_bound_chain(n))


def test_wonderful_report_even():
    rep = wonderful_report("even", 3)
    assert rep.valid
    assert [c.name for c in rep.checks] == [
        "dominant-ray",
        "self-intersection",
        "canonical",
        "irrational",
        "convergence",
        "convergence",
    ]
    assert rep.canonical_pairing == 0
    assert rep.defernex_sign == 1
    assert [s for s, _ in rep.convergence] == [(1, 0, 0, 0), (1, 1, 0, 0)]
    assert all(c is not None and c.converges for _, c in rep.convergence)


def test_wonderful_report_derived():
    rep = wonderful_report("sq4", 2)
    assert rep.valid
    assert rep.checks[0].name == "formal-uncollision"
    assert "canonical-sign" in [c.name for c in rep.checks]
    assert rep.defernex_sign == -1


def test_wonderful_report_candidates():
    rep = wonderful_report("odd_plus", 1)
    labels = [label for label, _, _ in rep.candidates]
    assert labels == ["order-2 split of the even limit ray", "order-2 split of the odd limit ray"]
    outcomes = {label: (outcome, ok) for label, outcome, ok in rep.candidates}
    assert outcomes["order-2 split of the even limit ray"] == ("matches", True)
    assert outcomes["order-2 split of the odd limit ray"] == ("lives on 12 points, not 13", False)
    rep2 = wonderful_report("odd_plus", 2)
    assert dict((l, o) for l, o, _ in rep2.candidates)["order-2 split of the odd limit ray"] == (
        "lives on 14 points, not 15"
    )


def test_wonderful_report_out_of_range():
    rep = wonderful_report("odd", 1)  # rational fixed vector, no dominance
    assert not rep.valid
    names = [c.name for c in rep.failures]
    assert "dominant-ray" in names and "irrational" in names and "convergence" in names
    rep2 = wonderful_report("even_plus", 1)
    assert not rep2.valid
    assert [c.name for c in rep2.failures] == ["irrational", "convergence", "convergence"]


def test_wonderful_report_json():
    rep = wonderful_report("odd", 2)
    data = rep.to_json()
    assert data["valid"] is True
    assert data["defernex"]["decimal_note"] == "display only"
    text = json.dumps(data, sort_keys=True)
    assert json.loads(text) == data


def test_sign_table_json():
    table = defernex_sweep("sq2", 1, 2)
    data = table.to_json()
    assert data["family"] == "sq2"
    assert all(row["decimal_note"] == "display only" for row in data["rows"])
    assert len(data["bounds"]) == 10


def test_wonderful_report_never_expands_the_ray(monkeypatch):
    def expand(self):
        raise AssertionError(f"expanded a profile on {self.s} points")

    monkeypatch.setattr(MultiplicityProfile, "expand", expand)
    rep = wonderful_report("sq2", 10**4)
    assert rep.valid and rep.surface_points == 10003**2 + 2


@pytest.mark.parametrize("tag", families.WONDERFUL_TAGS)
def test_wonderful_report_decomposes_once(monkeypatch, tag):
    calls = []

    def counting(m):
        calls.append(m)
        return char_poly(m)

    monkeypatch.setattr(dynamics, "char_poly", counting)
    assert wonderful_report(tag, 3).valid
    assert len(calls) == 1


def test_wonderful_report_when_the_spectrum_is_unsupported(monkeypatch):
    def unsupported(m):
        raise SpectrumError("complex eigenvalue pair")

    monkeypatch.setattr(dynamics, "eigen", unsupported)
    monkeypatch.setattr(verify, "eigen", unsupported)
    rep = wonderful_report("even", 3)
    assert [(c.name, c.statement) for c in rep.failures] == [
        ("dominant-ray", "dominant eigenray unavailable: complex eigenvalue pair"),
        ("convergence", "seed (1, 0, 0, 0): no simple dominant eigenvalue"),
        ("convergence", "seed (1, 1, 0, 0): no simple dominant eigenvalue"),
    ]
    assert [cert for _, cert in rep.convergence] == [None, None]


@pytest.mark.parametrize("family,n,k", [("even", 6, 6), ("odd", 5, 6), ("sq4", 5, 4), ("sq2", 5, 4)])
def test_good_certificates_build_no_fraction(monkeypatch, family, n, k):
    from fractions import Fraction

    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and len(built) == 1  # the wrapper sees constructions
    built.clear()
    cert = verify_good(family, n, k)
    data = cert.to_json()
    assert built == []
    assert data["valid"] is True and cert.pencil.reduction.to_json()["is_line_pencil"] is True


@pytest.mark.parametrize("family,n,k", [("even", 6, 6), ("odd", 5, 6), ("sq4", 5, 4), ("sq2", 5, 4)])
def test_emptiness_certificates_build_no_quadnum(monkeypatch, family, n, k):
    """The certificate path of an integral class runs on ints: no binding of
    the QuadNum builder and no public construction is reached."""
    from morirays import QuadNum, quadfield

    row = families.good_family(family)
    matrix = families.shape_matrix(row.parent, n)
    d, a, b, c = dynamics.iterate(matrix, families.PENCIL_SEED, k).term(k)
    _, n1, n2 = matrix.counts
    pencil = MultiplicityProfile(d, [(a, 1), (b, n1), (c, n2)])
    system = families.good_profile(family, n, k)

    built = []
    build, new = quadfield._build, QuadNum.__new__

    def counting_build(*args):
        built.append(args)
        return build(*args)

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    modules = [m for m in sys.modules.values() if getattr(m, "_build", None) is build]
    assert {m.__name__ for m in modules} >= {"morirays.quadfield", "morirays.lattice", "morirays.dynamics"}
    for m in modules:
        monkeypatch.setattr(m, "_build", counting_build)
    monkeypatch.setattr(QuadNum, "__new__", counting_new)
    assert QuadNum(1, 1, 2) and len(built) == 2  # the wrappers see constructions
    built.clear()
    cert = emptiness_certificate(system, pencil, row.order(n))
    data = cert.to_json()
    assert built == []
    assert cert.valid and data == verify_good(family, n, k).emptiness.to_json()
