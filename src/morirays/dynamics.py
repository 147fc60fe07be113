"""Orbits and spectra of shape matrices, and rays in the divisor space.

Everything is exact and integer until the last step.  The characteristic
polynomial comes from Newton's identities on the power sums tr(M^k), which
the powers of M up to ceil(n/2) give on the integer rows.  Its rational
roots are integer divisors of its constant term; what is left is at most one
irreducible quadratic factor, with roots (a +- b*sqrt(N))/d for integers a,
b, d.  The eigenvector of a simple eigenvalue, and the left eigenvector of
the dominant one, is a column of the product of M minus the other
eigenvalues (Cayley-Hamilton projection), made on Z[sqrt(N)] pairs.  A
repeated eigenvalue is rational, since the quadratic factor's roots are
simple, and takes fraction-free Gauss-Jordan elimination on the integer
rows.  Only the finished entries become QuadNum.  Dominance is
certified by sign computations on (alpha, beta, delta) triples rather than
numerics.  A Ray is normalized on (a, b, den) triples of ints and a dot
product is summed in one pass over a running common denominator; each
builds its QuadNums once, at the end.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import chain
from math import gcd, lcm
from operator import mul

from .cremona import ShapeMatrix
from .lattice import DivisorClass, MultiplicityProfile, _ints, _is_rational, _stored
from .quadfield import MixedRadicandError, QuadNum, _build, _Frozen, _sign, split_square


class SpectrumError(ValueError):
    """Spectrum falls outside the supported exact cases."""


# -- characteristic polynomial ---------------------------------------------------


def char_poly(m: ShapeMatrix) -> tuple[int, ...]:
    """Coefficients of det(xI - M), highest power first (monic, integer).

    Newton's identities give k*c_k = -(p_k + c_1*p_(k-1) + ... + c_(k-1)*p_1)
    from the power sums p_k = tr(M^k), and the division by k is exact.
    tr(M^(i+j)) is the sum of the entries of M^i times those of the
    transpose of M^j, so the powers of M up to ceil(n/2) give every p_k for
    k <= n: one product for a 4x4 matrix.
    """
    rows = m.rows
    n = len(rows)
    cols = tuple(zip(*rows))
    powers = [rows]  # M^1 .. M^ceil(n/2)
    for _ in range((n - 1) // 2):
        powers.append([[sum(map(mul, row, col)) for col in cols] for row in powers[-1]])
    by_rows = [tuple(chain.from_iterable(p)) for p in powers]
    by_cols = [tuple(chain.from_iterable(zip(*p))) for p in powers]
    sums = [m.trace()]
    for k in range(2, n + 1):
        sums.append(sum(map(mul, by_rows[k // 2 - 1], by_cols[(k + 1) // 2 - 1])))
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs.append(-(sums[k - 1] + sum(map(mul, coeffs[1:], reversed(sums[: k - 1])))) // k)
    return tuple(coeffs)


def _poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _deflate(coeffs: list[int], root: int) -> list[int]:
    # synthetic division by (x - root); remainder must vanish
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + out[-1] * root)
    assert out[-1] == 0
    return out[:-1]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            large.append(n // d)
        d += 1
    return small + large[::-1]


def _rational_roots(coeffs: list[int]) -> tuple[list[int], list[int]]:
    """All rational roots of a monic integer polynomial, with multiplicity,
    and the cofactor left after deflating by each of them.

    By the rational root theorem they are integers dividing the constant
    term; deflating by one leaves a constant term that divides the old one,
    so the divisors of the first nonzero constant term cover them all.
    """
    roots: list[int] = []
    while len(coeffs) > 1 and coeffs[-1] == 0:
        roots.append(0)
        coeffs = coeffs[:-1]
    for d in _divisors(coeffs[-1]):
        for root in (d, -d):
            while len(coeffs) > 1 and _poly_eval(coeffs, root) == 0:
                roots.append(root)
                coeffs = _deflate(coeffs, root)
    return roots, coeffs


class Eigenvalue(namedtuple("Eigenvalue", "value algebraic geometric vectors")):
    """Fields: value: QuadNum; algebraic, geometric: int (multiplicities);
    vectors: tuple[tuple[QuadNum, ...], ...], a basis of the eigenspace."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "algebraic": self.algebraic,
            "geometric": self.geometric,
            "vectors": [[q.to_json() for q in v] for v in self.vectors],
        }


# An element x + y*sqrt(rad) of Z[sqrt(rad)] is the pair (x, y); an eigenvalue
# (alpha + beta*sqrt(rad)) / delta is the triple (alpha, beta, delta).


_Q0, _Q1 = _build(0, 0, 1, 1), _build(1, 0, 1, 1)


def _kernel(rows: list[list[int]]) -> list[tuple[QuadNum, ...]]:
    """Basis of the kernel of an integer matrix.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968):
    with pivot row R_r and pivot piv, every other row becomes
    piv*R_i - f*R_r, divided by the gcd of its entries.  Each row stays a
    nonzero multiple of its row in the reduced row echelon form over Q,
    which is unique, so the basis is the one field elimination gives:
    entry -x/y with y the pivot.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    R = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        piv = R[r][c]
        for i in range(n):
            f = R[i][c]
            if i == r or not f:
                continue
            row = [piv * x - f * u for x, u in zip(R[i], R[r])]
            g = gcd(*row)
            R[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [_Q0] * m
        v[fc] = _Q1
        for pr, pc in enumerate(pivots):
            v[pc] = _build(-R[pr][fc], 0, R[pr][pc], 1)
        basis.append(tuple(v))
    return basis


def _projected(
    rows: Sequence[Sequence[int]], lam: tuple[int, int, int], spectrum: list[tuple[tuple[int, int, int], int]],
    rad: int,
) -> tuple[QuadNum, ...]:
    """Eigenvector of the simple eigenvalue lam of an integer matrix, scaled
    to 1 at its last nonzero entry; `spectrum` lists every eigenvalue triple
    with its algebraic multiplicity.

    p(M), the product of (delta*M - (alpha + beta*sqrt(rad))*I)^alg over the
    other eigenvalues, times M - lam*I is a multiple of the characteristic
    polynomial at M, which vanishes (Cayley-Hamilton).  So every column of
    p(M) lies in the kernel of M - lam*I, a line, and some column is nonzero:
    the minimal polynomial has the factor x - lam, which p lacks.  The
    columns p(M) e_0, p(M) e_1, ... are made on Z[sqrt(rad)] pairs until one
    is nonzero.  The kernel vector with 1 at its last nonzero entry is the
    basis vector that `_kernel` reads off the reduced row echelon form.
    """
    factors = [mu for mu, alg in spectrum if mu != lam for _ in range(alg)]
    size = len(rows)
    for j in range(size):
        xs, ys = [0] * size, [0] * size  # the entries x + y*sqrt(rad)
        xs[j] = 1
        for alpha, beta, delta in factors:
            mx = [sum(map(mul, row, xs)) for row in rows]
            if not (beta or any(ys)):  # a rational factor keeps ys zero
                xs = [delta * t - alpha * x for t, x in zip(mx, xs)]
                continue
            my = [sum(map(mul, row, ys)) for row in rows] if any(ys) else ys
            br = beta * rad
            xs, ys = (
                [delta * t - alpha * x - br * y for t, x, y in zip(mx, xs, ys)],
                [delta * t - alpha * y - beta * x for t, x, y in zip(my, xs, ys)],
            )
        last = next((i for i in reversed(range(size)) if xs[i] or ys[i]), None)
        if last is not None:
            # divide by u + w*sqrt(rad): times its conjugate, over its norm
            u, w = xs[last], ys[last]
            nrm, wr = u * u - w * w * rad, w * rad
            return tuple([
                _build(x * u - y * wr, y * u - x * w, nrm, rad) if x or y else _Q0 for x, y in zip(xs, ys)
            ])
    raise AssertionError("p(M) vanished: lam is not a simple eigenvalue")


def _shifted(m: ShapeMatrix, lam: int) -> list[list[int]]:
    """M - lam*I for an integer eigenvalue lam."""
    return [[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m.rows)]


class EigenDecomposition(namedtuple("EigenDecomposition",
                                    "matrix char_poly eigenvalues dominant_index left_vector")):
    """Exact spectrum of a shape matrix.  `left_vector` spans the left
    eigenvectors of the strictly dominant eigenvalue, None without one.

    Fields: matrix: ShapeMatrix; char_poly: tuple[int, ...]; eigenvalues: tuple[Eigenvalue, ...];
    dominant_index: int | None; left_vector: tuple[QuadNum, ...] | None."""

    __slots__ = ()

    @property
    def dominant(self) -> Eigenvalue:
        if self.dominant_index is None:
            raise SpectrumError("no strictly dominant eigenvalue")
        return self.eigenvalues[self.dominant_index]

    def residuals_vanish(self) -> bool:
        """(M - lambda I) v == 0 exactly for every stored eigenvector."""
        for ev in self.eigenvalues:
            for v in ev.vectors:
                img = self.matrix.apply(v)
                if any(w != ev.value * x for w, x in zip(img, v)):
                    return False
        return True


def eigen(m: ShapeMatrix) -> EigenDecomposition:
    """Exact spectrum; supports any number of rational eigenvalues plus at most
    one irreducible quadratic factor (a conjugate pair a +- b*sqrt(N))."""
    coeffs = char_poly(m)
    rational, rest = _rational_roots(list(coeffs))
    # (alpha, beta, delta) triples with their algebraic multiplicities
    spectrum = [((x, 0, 1), rational.count(x)) for x in sorted(set(rational), reverse=True)]
    rad = 1
    if len(rest) - 1 > 2:
        raise SpectrumError(
            f"irrational part of the spectrum has degree {len(rest) - 1} > 2"
        )
    # no linear factor is left: its root would be an integer, deflated above
    if len(rest) - 1 == 2:
        _, b, c = rest
        disc = b * b - 4 * c
        if disc < 0:
            raise SpectrumError("complex eigenvalue pair")
        f, rad = split_square(disc)
        assert rad > 1  # rational roots were already deflated
        g = gcd(b, f, 2)
        for sign in (1, -1):
            spectrum.append(((-b // g, sign * f // g, 2 // g), 1))

    eigenvalues = []
    for lam, alg in spectrum:
        if lam[1] < 0:
            # the conjugate of the eigenvalue before it: conjugation carries
            # that eigenvalue's p(M) to this one's and keeps the index of the
            # last nonzero entry, so the projected vector is the conjugate
            vecs = tuple(tuple(q.conjugate() for q in v) for v in eigenvalues[-1].vectors)
        elif alg == 1:
            vecs = (_projected(m.rows, lam, spectrum, rad),)
        else:  # repeated, so rational: the quadratic factor's roots are simple
            vecs = tuple(_kernel(_shifted(m, lam[0])))
        eigenvalues.append(Eigenvalue(_build(*lam, rad), alg, len(vecs), vecs))

    # |lambda| for each (alpha, beta, delta), as the triple times the sign of
    # its numerator; all share one radicand, so a difference of two is a triple
    mags = [(a * sign, b * sign, d) for (a, b, d), _ in spectrum for sign in (_sign(a, b, rad),)]

    def exceeds(i: int, j: int) -> bool:
        (a, b, d), (x, y, e) = mags[i], mags[j]
        return _sign(a * e - x * d, b * e - y * d, rad) > 0

    dominant = 0
    for i in range(1, len(mags)):
        if exceeds(i, dominant):
            dominant = i
    # dominance here means simple and strictly largest in absolute value
    strict = spectrum[dominant][1] == 1 and all(exceeds(dominant, i) for i in range(len(mags)) if i != dominant)
    if not strict:
        return EigenDecomposition(m, coeffs, tuple(eigenvalues), None, None)
    left = _projected(tuple(zip(*m.rows)), spectrum[dominant][0], spectrum, rad)
    return EigenDecomposition(m, coeffs, tuple(eigenvalues), dominant, left)


# -- rays -------------------------------------------------------------------------


class Ray(_Frozen):
    """Half-line of divisor classes, stored canonically on multiplicity blocks.

    Canonical form: divide by the absolute value of the first nonzero
    coordinate, clear rational denominators over the degree and the block
    values, then merge adjacent equal blocks.  The integer content is then
    already 1: for each prime p of the common denominator, some coordinate
    (a + b*sqrt(rad))/den has the full power of p in den, and gcd(a, b, den)
    = 1 leaves p out of a or b.  Two rays
    are equal iff their canonical forms coincide, regardless of the (possibly
    irrational) positive scalar between representatives or of how the points
    were grouped into blocks.  Only `to_json` lists every point.

    It is made on ints.  Equal adjacent blocks merge first: a nonzero
    scalar keeps equal values equal and distinct ones distinct.  Each
    coordinate (a, b, den) times the conjugate of |lead| over its norm is
    reduced, and all are multiplied by the lcm of those denominators.  An
    irrational lead refuses a coordinate over another radicand, as QuadNum
    `*` does; a rational lead keeps several.
    """

    __slots__ = ("rep",)

    def __init__(self, x: MultiplicityProfile | DivisorClass):
        p = x.to_profile() if isinstance(x, DivisorClass) else x.canonical()
        coords = (p.degree,) + p.values
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise ValueError("zero class spans no ray")
        la, lb, ld = _ints(abs(lead))
        rad = lead.rad if lb else 1
        u, w, nrm = ld * la, -ld * lb, la * la - lb * lb * rad  # 1/|lead| = (u + w*sqrt(rad))/nrm
        parts = []  # (a, b, den, rad) of each coordinate over |lead|
        for c in coords:
            a, b, den = _ints(c)
            r = c.rad if b else rad
            if w and r != rad:
                raise MixedRadicandError(f"radicands {r} and {rad} are incompatible")
            parts.append((a * u + b * w * r, a * w + b * u, den * nrm, r))
        denom = lcm(*(abs(d) // gcd(a, b, d) for a, b, d, _ in parts))
        degree, *values = (_build(a * denom // d, b * denom // d, 1, r) if b else a * denom // d
                           for a, b, d, r in parts)
        object.__setattr__(self, "rep", _stored(MultiplicityProfile, degree, tuple(zip(values, p.counts))))

    @classmethod
    def from_profile(cls, p: MultiplicityProfile) -> "Ray":
        return cls(p)

    @property
    def s(self) -> int:
        return self.rep.s

    @property
    def is_rational(self) -> bool:
        return self.irrationality_witness() is None

    def irrationality_witness(self) -> tuple[int, QuadNum] | None:
        """(coordinate index, value) of the first irrational coordinate; the
        index is 0 for the degree, i >= 1 for E_i.  None for rational rays."""
        point = 0
        for v, c in ((self.rep.degree, 1),) + self.rep.blocks:
            if not _is_rational(v):
                return point, v
            point += c
        return None

    def uncollide(self, point: int, r: int) -> "Ray":
        return Ray(self.rep.uncollide(point, r))

    def __str__(self) -> str:
        return self.rep.pretty()

    def __repr__(self) -> str:
        return f"Ray({self.rep!r})"

    def to_json(self) -> dict:
        return {"class": self.rep.expand().to_json(), "rational": self.is_rational}


def dominant_ray(m: ShapeMatrix | EigenDecomposition) -> Ray:
    """Ray of the strictly dominant eigenvector, on the blocks of the matrix's
    shape.  Takes the matrix or its decomposition."""
    dec = m if isinstance(m, EigenDecomposition) else eigen(m)
    dom = dec.dominant
    if dom.geometric != 1 or dom.algebraic != 1:
        raise SpectrumError(f"dominant eigenvalue {dom.value} is not simple")
    vec = dom.vectors[0]
    return Ray(MultiplicityProfile(vec[0], list(zip(vec[1:], dec.matrix.counts))))


# -- orbits -----------------------------------------------------------------------


class OrbitSequence(namedtuple("OrbitSequence", "matrix seed terms")):
    """Fields: matrix: ShapeMatrix; seed: tuple[int, ...];
    terms: tuple[tuple[int, ...], ...], M^k(seed) for k = 0..k_max."""

    __slots__ = ()

    def term(self, k: int) -> tuple[int, ...]:
        return self.terms[k]

    @property
    def k_max(self) -> int:
        return len(self.terms) - 1

    def to_json(self) -> dict:
        return {"seed": list(self.seed), "terms": [list(t) for t in self.terms]}


class OrbitSizeError(ValueError):
    """An orbit term has a coordinate at or past the bound it was given."""

    def __init__(self, k: int, bound: int):
        super().__init__(f"orbit term k={k} has a coordinate of absolute value >= the bound "
                         f"({bound.bit_length()} bits)")
        self.k = k


def iterate(m: ShapeMatrix, seed: Sequence[int], k_max: int, bound: int | None = None) -> OrbitSequence:
    """The terms M^k(seed) for k = 0..k_max.  With a `bound`, raises
    OrbitSizeError at the first term with a coordinate of absolute value
    `bound` or more, before computing the next: one comparison per term, so
    a bound <= 0 raises at k = 0 on any nonempty seed."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    seed = tuple(int(x) for x in seed)
    terms = [seed]
    for k in range(k_max + 1):
        term = terms[-1]
        if bound is not None and term and max(map(abs, term)) >= bound:
            raise OrbitSizeError(k, bound)
        if k < k_max:
            terms.append(m.apply(term))
    return OrbitSequence(m, seed, tuple(terms))


# -- convergence certificates -------------------------------------------------------


class ConvergenceCertificate(namedtuple("ConvergenceCertificate", "matrix seed dominant_value left_vector "
                                                                   "right_vector gamma jordan")):
    """Exact witness that M^k(seed) converges projectively to the dominant ray.

    gamma is the coefficient of the seed on the dominant eigenvector in the
    spectral decomposition: gamma = (u . seed) / (u . v) with u, v the left and
    right eigenvectors of the simple dominant eigenvalue.  Together with strict
    dominance, gamma != 0 is exactly projective convergence; no limit is taken.

    Fields: matrix: ShapeMatrix; seed: tuple[int, ...]; dominant_value, gamma: QuadNum;
    left_vector, right_vector: tuple[QuadNum, ...];
    jordan: tuple[tuple[QuadNum, int, int], ...], (eigenvalue, algebraic, geometric).
    """

    __slots__ = ()

    @property
    def converges(self) -> bool:
        return bool(self.gamma)

    def to_json(self) -> dict:
        return {
            "dominant": self.dominant_value.to_json(),
            "gamma": self.gamma.to_json(),
            "converges": self.converges,
            "jordan": [
                {"value": v.to_json(), "algebraic": a, "geometric": g} for v, a, g in self.jordan
            ],
        }


def _dot(u: Sequence, v: Sequence) -> QuadNum:
    """Sum of the products u_i * v_i of int and QuadNum entries, in one pass
    on ints over a running common denominator, built once.  Entries over two
    irrational radicands raise MixedRadicandError."""
    rad, num_a, num_b, den = 1, 0, 0, 1
    for x, y in zip(u, v):
        a, b, d = _ints(x)
        c, e, f = _ints(y)
        if b or e:
            if rad == 1:
                rad = x.rad if b else y.rad
            if b and x.rad != rad or e and y.rad != rad:
                rads = {z.rad for p in zip(u, v) for z in p if type(z) is QuadNum} - {1}
                raise MixedRadicandError(f"radicands {' and '.join(map(str, sorted(rads)))} are incompatible")
        pa, pb, pd = a * c + b * e * rad, a * e + b * c, d * f
        if pd != den:
            common = lcm(den, pd)
            num_a, num_b, den = num_a * (common // den), num_b * (common // den), common
            pa, pb = pa * (common // pd), pb * (common // pd)
        num_a, num_b = num_a + pa, num_b + pb
    return _build(num_a, num_b, den, rad)


def certify_convergence(m: ShapeMatrix | EigenDecomposition, seed: Sequence[int]) -> ConvergenceCertificate:
    """Certificate for the orbit of `seed`; takes the matrix or its decomposition."""
    dec = m if isinstance(m, EigenDecomposition) else eigen(m)
    m = dec.matrix
    dom = dec.dominant
    right = dom.vectors[0]
    u = dec.left_vector
    denom = _dot(u, right)
    assert denom  # u.v != 0 for a simple eigenvalue
    seed = tuple(int(x) for x in seed)
    gamma = _dot(u, seed) / denom
    jordan = tuple((e.value, e.algebraic, e.geometric) for e in dec.eigenvalues)
    return ConvergenceCertificate(m, seed, dom.value, u, tuple(right), gamma, jordan)
