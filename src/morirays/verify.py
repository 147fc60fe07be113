"""Certificates for pencil, emptiness, and good-ray claims, plus reports on
the irrational limit rays and De Fernex sign sweeps.

Emptiness is certificate-based: the module never computes dimensions of
general linear systems.  It accepts exactly three collision rules, each
conditioned on a pencil certificate:

  R2_PENCIL      order 2: dim L_d(2m, rest) < m forces the split system empty
  R3_PENCIL      order 3: dim L_d(3m, rest) < 3m forces the split system empty
  R_GE_4_NAGATA  order r > 3: the collided point would need multiplicity
                 t > r*m, but sums of pencil members reach exactly r*m

Multiples are covered symbolically: every rule's inequality is linear in the
multiple m, so it is checked once as a coefficient statement, never swept.
"""

from __future__ import annotations

from collections import namedtuple

from . import families
from .cremona import cremona_reduce, quadratic_map
from .dynamics import (
    ConvergenceCertificate,
    OrbitSizeError,
    Ray,
    SpectrumError,
    certify_convergence,
    dominant_ray,
    eigen,
    iterate,
)
from .lattice import DivisorClass, MultiplicityProfile, _is_rational
from .quadfield import QuadNum, RadicalSum, _ratio_str


class Check(namedtuple("Check", "name statement ok")):
    """Fields: name, statement: str; ok: bool."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"name": self.name, "statement": self.statement, "ok": self.ok}


def signed_value_json(value: QuadNum | RadicalSum, sign: int, digits: int) -> dict:
    """An exact value, its sign and its decimal to `digits` places (display only)."""
    return {"value": value.to_json(), "sign": sign, "decimal": value.decimal(digits),
            "decimal_note": "display only"}


# -- pencil certificates -----------------------------------------------------------


class PencilCertificate(namedtuple("PencilCertificate", "system reduction endpoint_is_line_pencil "
                                                         "replay_ok nonnegative_throughout")):
    """Witness that a class is a Cremona transform of the pencil of lines
    through one point, hence dim of its m-th multiple is exactly m.

    The certificate is valid when `failure` names no failed condition.  The
    sign guard `nonnegative_throughout` is implied by the others (every class
    on a chain of quadratic maps that ends at a line pencil is a Cremona
    image of it, hence nonnegative) and stays as a check on the recorded chain.

    Fields: system: DivisorClass; reduction: ReductionResult;
    endpoint_is_line_pencil, replay_ok, nonnegative_throughout: bool."""

    __slots__ = ()
    dimension_statement = "dim of the m-th multiple is m for every m >= 1"

    @property
    def valid(self) -> bool:
        return self.failure is None

    @property
    def failure(self) -> str | None:
        if not self.reduction.is_reduced:
            return "reduction did not terminate at a reduced class"
        if not self.endpoint_is_line_pencil:
            return f"reduced class {self.reduction.reduced.pretty()} is not a pencil of lines"
        if not self.replay_ok:
            return "replay of the recorded quadratic maps diverged"
        if not self.nonnegative_throughout:
            return "a multiplicity went negative along the reduction"
        return None

    def to_json(self) -> dict:
        return {
            "system": self.system.to_json(),
            "reduction": self.reduction.to_json(),
            "valid": self.valid,
            "failure": self.failure,
            "dimension_statement": self.dimension_statement,
        }


def certify_pencil(x: DivisorClass) -> PencilCertificate:
    red = cremona_reduce(x)
    # Replay on ints through the local block of one quadratic map rather than
    # the reducer's own update formula, so the two stay independent.  A map
    # based at (i, j, k) embeds that block at (0, i, j, k) and fixes every
    # other coordinate, so only the degree and three multiplicities change.
    q = quadratic_map((1, 2, 3), 3)
    # cremona_reduce refused any class that is not integral, so these are ints
    d, mults = x.degree, list(x.mults)
    nonneg = d > 0 and all(m >= 0 for m in mults)
    s = len(mults)
    for t in red.steps:
        i, j, k = t if len(t) == 3 else (0, 0, 0)  # any other length fails the check below
        if not (0 < i <= s and 0 < j <= s and 0 < k <= s and i != j != k != i):
            raise ValueError(f"recorded step {t} is not three distinct points in 1..{s}")
        i, j, k = i - 1, j - 1, k - 1
        d, mi, mj, mk = q.apply((d, -mults[i], -mults[j], -mults[k]))
        mults[i], mults[j], mults[k] = -mi, -mj, -mk
        nonneg = nonneg and d > 0 and mi <= 0 and mj <= 0 and mk <= 0
    end = red.reduced
    return PencilCertificate(
        system=x,
        reduction=red,
        endpoint_is_line_pencil=red.is_line_pencil,
        replay_ok=end.degree == d and end.mults == tuple(mults),
        nonnegative_throughout=nonneg,
    )


# -- emptiness certificates ---------------------------------------------------------


class EmptinessCertificate(namedtuple("EmptinessCertificate", "rule order system pencil inequalities")):
    """Witness that every multiple of `system` is empty, by colliding the first
    r^2 points back to one and comparing conditions against the known pencil
    dimension.  Inequalities are stated symbolically in m; valid when all hold.

    Fields: rule: str; order: int (r); system: MultiplicityProfile; pencil:
    PencilCertificate; inequalities: tuple[Check, ...]."""

    __slots__ = ()

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.inequalities)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "order": self.order,
            "system": self.system.to_json(),
            "pencil": self.pencil.to_json(),
            "inequalities": [c.to_json() for c in self.inequalities],
            "valid": self.valid,
        }


def emptiness_certificate(system: MultiplicityProfile, pencil: MultiplicityProfile, r: int) -> EmptinessCertificate:
    """Certify emptiness of all multiples of `system`, the order-r split of
    the scaled pencil at its first point.  Each rule's first inequality is its
    premise, the pencil certificate: it fails exactly when the pencil does, its
    statement then ending with the pencil's failure."""
    cert = certify_pencil(pencil.expand())
    a = pencil.blocks[0][0]  # an int: certify_pencil refuses a class that is not integral

    def premise(name: str, statement: str) -> Check:
        return Check(name, statement if cert.valid else f"{statement}: {cert.failure}", cert.valid)

    if r == 2:
        rule = "R2_PENCIL"
        ineqs = (
            premise("collided-dimension",
                    "colliding 4 points of multiplicity m*a gives 2m copies of the pencil, dim = 2m"),
            Check("dimension-drop", f"2m < m*a for every m >= 1 <=> a = {a} > 2", a > 2),
        )
    elif r == 3:
        rule = "R3_PENCIL"
        ineqs = (
            premise("matching-conditions",
                    "colliding 9 points of multiplicity m*a imposes alpha = 3m*a conditions"
                    " on 3m copies of the pencil"),
            Check("matching-excess", f"3m*a > 6m for every m >= 1 <=> a = {a} > 2", a > 2),
            Check("dimension-bound", "6m > dim of 3m copies of the pencil = 3m for every m >= 1 <=> 6 > 3", True),
        )
    elif r > 3:
        rule = "R_GE_4_NAGATA"
        ineqs = (
            premise("exact-multiplicity",
                    f"members of the pencil have multiplicity exactly a = {a} at the first point"),
            Check("twist-bound",
                  f"sums of r*m pencil members have multiplicity at most r*m*a < r*m*a + 1 <= t (order r = {r} > 3)",
                  r > 3),
        )
    else:
        raise ValueError(f"collision order must be >= 2, got {r}")
    return EmptinessCertificate(rule, r, system, cert, ineqs)


# -- good-ray certificates -----------------------------------------------------------


class GoodRayCertificate(namedtuple("GoodRayCertificate", "family n k system checks emptiness")):
    """Fields: family: str; n, k: int; system: MultiplicityProfile; checks:
    tuple[Check, ...]; emptiness: EmptinessCertificate."""

    __slots__ = ()

    @property
    def pencil(self) -> PencilCertificate:
        return self.emptiness.pencil

    @property
    def valid(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks + self.emptiness.inequalities if not c.ok)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "k": self.k,
            "system": self.system.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "emptiness": self.emptiness.to_json(),
            "valid": self.valid,
        }


def verify_good(family: str, n: int, k: int, bound: int | None = None) -> GoodRayCertificate:
    """Certificate for the order-r split of the r-scaled k-th pencil class
    L_d(a, b^{n1}, c^{n2}) of the parent family: the displayed system is
    L_{rd}(a^{r^2}, (rb)^{n1}, (rc)^{n2}).  The collision rule is picked by
    the order: 2 reuses the order-2 argument, 3 counts matching conditions,
    larger orders use the twist bound.

    With a `bound`, raises OrbitSizeError instead when an integer the
    certificate states would reach it in absolute value: a coordinate of an
    orbit row, r*d, r*b, r*c or 3c.  The invariants state small constants."""
    row = families.good_family(family)
    parent = families.family(row.parent)
    r = row.order(n)
    matrix = parent.matrix(n)
    orbit_row = iterate(matrix, families.PENCIL_SEED, k, bound).term(k)
    d, a, b, c = orbit_row
    if bound is not None and max(r * max(abs(d), abs(b), abs(c)), abs(a), 3 * abs(c)) >= bound:
        raise OrbitSizeError(k, bound)
    _, n1, n2 = matrix.counts
    system = families.good_profile(family, n, k, orbit_row)
    displayed = MultiplicityProfile(r * d, [(a, r * r), (r * b, n1), (r * c, n2)])
    checks = (
        Check("construction", f"system equals the order-{r} split of the {parent.scaling} pencil",
              system == displayed),
        Check("self-intersection", "exact self-intersection is 0", system.self_intersection() == 0),
        Check("degree", f"degree {r}d = {r * d} > 0", r * d > 0),
        Check("rational", "all entries are rational", all(map(_is_rational, system.values))),
        *(Check(*inv) for inv in parent.invariants(n, d, a, b, c)),
    )
    if r <= 3:
        checks += (Check("split-multiplicity", f"a = {a} > 2", a > 2),)
    pencil = MultiplicityProfile(d, [(a, 1), (b, n1), (c, n2)])
    return GoodRayCertificate(family, n, k, system, checks, emptiness_certificate(system, pencil, r))


# -- wonderful-ray reports -------------------------------------------------------------

class WonderfulReport(namedtuple("WonderfulReport", "family n surface_points display ray checks "
                                 "canonical_pairing defernex_value defernex_sign irrationality convergence candidates")):
    """Fields: family: str; n, surface_points: int; display: MultiplicityProfile;
    ray: Ray; checks: tuple[Check, ...]; canonical_pairing: QuadNum;
    defernex_value: RadicalSum; defernex_sign: int; irrationality: tuple[int, QuadNum] | None;
    convergence: tuple[tuple[tuple[int, ...], ConvergenceCertificate | None], ...];
    candidates: tuple[tuple[str, str, bool], ...]."""

    __slots__ = ()

    @property
    def valid(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "surface_points": self.surface_points,
            "display": self.display.to_json(),
            "ray": self.ray.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "canonical_pairing": self.canonical_pairing.to_json(),
            "defernex": signed_value_json(self.defernex_value, self.defernex_sign, 12),
            "irrationality": None
            if self.irrationality is None
            else {"coordinate": self.irrationality[0], "value": self.irrationality[1].to_json()},
            "convergence": [
                {"seed": list(seed), "certificate": None if cert is None else cert.to_json()}
                for seed, cert in self.convergence
            ],
            "candidates": [
                {"construction": label, "outcome": outcome, "match": ok}
                for label, outcome, ok in self.candidates
            ],
            "valid": self.valid,
        }


def wonderful_report(family: str, n: int) -> WonderfulReport:
    """Exact report on one limit ray: closed form against the independent
    construction, self-intersection, canonical pairing, irrationality, the
    De Fernex sign, and convergence certificates for the driving matrix."""
    row = families.family(family)
    display = families.wonderful_profile(family, n)
    ray = Ray(display)
    checks: list[Check] = []
    candidates: list[tuple[str, str, bool]] = []
    matrix = families.shape_matrix(row.parent or family, n)
    try:
        spectrum = eigen(matrix)
    except SpectrumError:
        spectrum = matrix  # the checks below meet the same error and record it

    if row.parent is None:
        try:
            ok = dominant_ray(spectrum) == ray
            checks.append(Check("dominant-ray", "closed form spans the dominant eigenray", ok))
        except SpectrumError as e:
            checks.append(Check("dominant-ray", f"dominant eigenray unavailable: {e}", False))
        expected_canonical = QuadNum(0)
        canonical_stmt = "canonical pairing is exactly 0"
    else:
        src_tag, r = row.parent, row.order(n)
        source = families.wonderful_profile(src_tag, n)
        split = Ray(source.uncollide(1, r))
        ok = split == ray
        checks.append(
            Check("formal-uncollision", f"closed form spans the order-{r} split of the {src_tag} limit ray", ok)
        )
        candidates.append((f"order-{r} split of the {src_tag} limit ray", "matches" if ok else "differs", ok))
        if family == "odd_plus":
            # the other reading: split the odd limit ray instead; it lives on
            # 2n+10 points, not 2n+11, recorded for the audit trail
            other = families.wonderful_profile("odd", n).uncollide(1, 2)
            candidates.append(
                ("order-2 split of the odd limit ray", f"lives on {other.s} points, not {display.s}", False)
            )
        top = display.blocks[0][0]
        expected_canonical = (r * r - r) * top
        canonical_stmt = f"canonical pairing equals (r^2 - r) * top multiplicity > 0 with r = {r}"

    pairing = display.canonical_pairing()
    checks.append(Check("self-intersection", "exact self-intersection is 0", display.self_intersection() == 0))
    checks.append(Check("canonical", canonical_stmt, pairing == expected_canonical))
    if row.parent is not None:
        checks.append(Check("canonical-sign", "canonical pairing is strictly positive", pairing.sign() > 0))
    witness = ray.irrationality_witness()
    checks.append(Check("irrational", "the ray has an irrational coordinate", witness is not None))

    value = display.defernex_value()
    sign = value.sign()
    convergence: list[tuple[tuple[int, ...], ConvergenceCertificate | None]] = []
    for seed in (families.LINE_SEED, families.PENCIL_SEED):
        try:
            cert = certify_convergence(spectrum, seed)
            stmt, ok = f"seed {seed}: dominant component gamma = {cert.gamma} is nonzero", cert.converges
        except SpectrumError:
            cert, stmt, ok = None, f"seed {seed}: no simple dominant eigenvalue", False
        convergence.append((seed, cert))
        checks.append(Check("convergence", stmt, ok))

    return WonderfulReport(
        family=family,
        n=n,
        surface_points=display.s,
        display=display,
        ray=ray,
        checks=tuple(checks),
        canonical_pairing=pairing,
        defernex_value=value,
        defernex_sign=sign,
        irrationality=witness,
        convergence=tuple(convergence),
        candidates=tuple(candidates),
    )


# -- De Fernex sign sweeps ---------------------------------------------------------------


class SignRow(namedtuple("SignRow", "n sign value")):
    """Fields: n, sign: int; value: RadicalSum."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"n": self.n, **signed_value_json(self.value, self.sign, 12)}


class SignTable(namedtuple("SignTable", "family rows bounds")):
    """Fields: family: str; rows: tuple[SignRow, ...]; bounds: tuple[Check, ...]."""

    __slots__ = ()

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.bounds)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rows": [r.to_json() for r in self.rows],
            "bounds": [c.to_json() for c in self.bounds],
            "valid": self.valid,
        }


def sq2_bound_chain(n: int) -> tuple[Check, ...]:
    """The upper-bound argument for the sq2 pairing, as integer inequalities.

    Writing the pairing as A + P*sqrt(u) - Q*sqrt(v) with u = n^2+6n+10 and
    v = 49n^4-28n^2, the two radicals are bounded by rational expressions and
    the substituted value collapses to 7(-7n^2+24n+22), negative from n = 5.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    A = -63 * n**4 - 567 * n**3 - 1386 * n**2 - 756 * n
    P = 14 * (8 * n**3 + 27 * n**2 + 16 * n)
    Q = 7 * (n**2 + 3 * n + 2)
    # sqrt(u) < n + 3 + 1/(2n): square both sides and clear 4n^2
    lhs = (2 * n * n + 6 * n + 1) ** 2
    rhs = 4 * n * n * (n * n + 6 * n + 10)
    upper_u = Check(
        "radical-upper",
        f"(2n^2+6n+1)^2 - 4n^2(n^2+6n+10) = {lhs - rhs} = 12n+1 > 0",
        lhs - rhs == 12 * n + 1 > 0,
    )
    # sqrt(v) > 7n^2 - 3: square both sides
    diff = (49 * n**4 - 28 * n**2) - (7 * n * n - 3) ** 2
    lower_v = Check(
        "radical-lower",
        f"49n^4-28n^2 - (7n^2-3)^2 = {diff} = 14n^2-9 > 0",
        diff == 14 * n * n - 9 > 0,
    )
    positive = Check("coefficients", f"P = {P} > 0 and Q = {Q} > 0", P > 0 and Q > 0)
    # A + P*(2n^2+6n+1)/(2n) - Q*(7n^2-3), as a numerator over 2n
    substituted = (A - Q * (7 * n * n - 3)) * 2 * n + P * (2 * n * n + 6 * n + 1)
    target = 7 * (-7 * n * n + 24 * n + 22)
    collapse = Check(
        "substitution",
        f"A + P*(n+3+1/(2n)) - Q*(7n^2-3) = {_ratio_str(substituted, 2 * n)} = 7(-7n^2+24n+22)",
        substituted == target * 2 * n,
    )
    final = Check("final-sign", f"7(-7n^2+24n+22) = {target} < 0 for n >= 5", n < 5 or target < 0)
    return (upper_u, lower_v, positive, collapse, final)


def defernex_sweep(family: str, n_lo: int, n_hi: int) -> SignTable:
    """Exact sign of (limit ray . de Fernex class) for each n in the range;
    for sq2 the rational upper-bound chain is verified alongside."""
    if n_lo > n_hi:
        raise ValueError(f"empty range {n_lo}..{n_hi}")
    rows = []
    bounds: list[Check] = []
    for n in range(n_lo, n_hi + 1):
        display = families.wonderful_profile(family, n)
        value = display.defernex_value()
        rows.append(SignRow(n, value.sign(), value))
        if family == "sq2":
            bounds.extend(sq2_bound_chain(n))
    return SignTable(family, tuple(rows), tuple(bounds))
