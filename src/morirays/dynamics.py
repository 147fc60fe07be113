"""Orbits and spectra of shape matrices, and rays in the divisor space.

Everything is exact: characteristic polynomials over Fraction, eigenvalues as
QuadNum (at most one irreducible quadratic factor is supported), eigenvectors
by Gaussian elimination over the quadratic field, and dominance certified by
sign computations rather than numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .cremona import ShapeMatrix
from .lattice import DivisorClass, MultiplicityProfile
from .quadfield import QuadNum


class SpectrumError(ValueError):
    """Spectrum falls outside the supported exact cases."""


# -- characteristic polynomial ---------------------------------------------------


def char_poly(m: ShapeMatrix) -> tuple[Fraction, ...]:
    """Coefficients of det(xI - M), highest power first (monic)."""
    k = m.size
    rows = [[Fraction(x) for x in r] for r in m.rows]

    def mul(A, B):
        cols = list(zip(*B))
        return [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in A]

    def tr(A):
        return sum(A[i][i] for i in range(k))

    coeffs = [Fraction(1)]
    Mi = [r[:] for r in rows]
    c = -tr(Mi)
    coeffs.append(c)
    for i in range(2, k + 1):
        for t in range(k):
            Mi[t][t] += c
        Mi = mul(rows, Mi)
        c = -tr(Mi) / i
        coeffs.append(c)
    return tuple(coeffs)


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
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


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots with multiplicity, via the rational root theorem."""
    roots: list[Fraction] = []
    while len(coeffs) > 1:
        while coeffs[-1] == 0:
            roots.append(Fraction(0))
            coeffs = coeffs[:-1]
            if len(coeffs) == 1:
                return roots
        scale = 1
        for c in coeffs:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        ints = [int(c * scale) for c in coeffs]
        cands = sorted(
            {Fraction(sp * p, q) for p in _divisors(ints[-1]) for q in _divisors(ints[0]) for sp in (1, -1)},
            key=lambda f: (f < 0, abs(f)),
        )
        hit = next((r for r in cands if _poly_eval(coeffs, r) == 0), None)
        if hit is None:
            return roots
        while _poly_eval(coeffs, hit) == 0 and len(coeffs) > 1:
            roots.append(hit)
            coeffs = _deflate(coeffs, hit)
    return roots


@dataclass(frozen=True)
class Eigenvalue:
    value: QuadNum
    algebraic: int
    geometric: int
    vectors: tuple[tuple[QuadNum, ...], ...]

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "algebraic": self.algebraic,
            "geometric": self.geometric,
            "vectors": [[q.to_json() for q in v] for v in self.vectors],
        }


def _kernel(rows: list[list[QuadNum]]) -> list[tuple[QuadNum, ...]]:
    """Basis of the kernel, exact Gaussian elimination over the field."""
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
        inv = R[r][c].inverse()
        R[r] = [e * inv for e in R[r]]
        for i in range(n):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [e - f * g for e, g in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [QuadNum(0)] * m
        v[fc] = QuadNum(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -R[pr][fc]
        basis.append(tuple(v))
    return basis


def _shifted(m: ShapeMatrix, lam: QuadNum, transpose: bool = False) -> list[list[QuadNum]]:
    k = m.size
    rows = [[QuadNum(m.rows[j][i] if transpose else m.rows[i][j]) for j in range(k)] for i in range(k)]
    for i in range(k):
        rows[i][i] = rows[i][i] - lam
    return rows


@dataclass(frozen=True)
class EigenDecomposition:
    matrix: ShapeMatrix
    char_poly: tuple[Fraction, ...]
    eigenvalues: tuple[Eigenvalue, ...]
    dominant_index: int | None

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

    def to_json(self) -> dict:
        return {
            "char_poly": [[c.numerator, c.denominator] for c in self.char_poly],
            "eigenvalues": [e.to_json() for e in self.eigenvalues],
            "dominant_index": self.dominant_index,
        }


def eigen(m: ShapeMatrix) -> EigenDecomposition:
    """Exact spectrum; supports any number of rational eigenvalues plus at most
    one irreducible quadratic factor (a conjugate pair a +- b*sqrt(N))."""
    coeffs = list(char_poly(m))
    rational = _rational_roots(coeffs[:])
    rest = coeffs[:]
    for r in rational:
        rest = _deflate(rest, r)
    values: list[QuadNum] = [QuadNum(r) for r in sorted(set(rational), reverse=True)]
    mult = {QuadNum(r): rational.count(r) for r in set(rational)}
    if len(rest) - 1 > 2:
        raise SpectrumError(
            f"irrational part of the spectrum has degree {len(rest) - 1} > 2"
        )
    if len(rest) - 1 == 2:
        a, b, c = rest
        disc = b * b - 4 * a * c
        if disc < 0:
            raise SpectrumError("complex eigenvalue pair")
        root = QuadNum.sqrt(disc)
        assert not root.is_rational  # rational roots were already deflated
        for sign in (1, -1):
            lam = (QuadNum(-b) + sign * root) / (2 * a)
            values.append(lam)
            mult[lam] = 1
    elif len(rest) - 1 == 1:
        lam = QuadNum(-rest[1] / rest[0])
        values.append(lam)
        mult[lam] = mult.get(lam, 0) + 1

    eigenvalues = []
    for lam in values:
        vecs = tuple(_kernel(_shifted(m, lam)))
        eigenvalues.append(Eigenvalue(lam, mult[lam], len(vecs), vecs))
    if sum(e.algebraic for e in eigenvalues) != m.size:
        raise SpectrumError("spectrum not fully split over supported fields")

    dominant = None
    for i, e in enumerate(eigenvalues):
        if dominant is None or (abs(e.value) - abs(eigenvalues[dominant].value)).sign() > 0:
            dominant = i
    # dominance here means simple and strictly largest in absolute value
    strict = eigenvalues[dominant].algebraic == 1 and all(
        (abs(eigenvalues[dominant].value) - abs(e.value)).sign() > 0
        for i, e in enumerate(eigenvalues)
        if i != dominant
    )
    return EigenDecomposition(m, tuple(coeffs), tuple(eigenvalues), dominant if strict else None)


# -- rays -------------------------------------------------------------------------


class Ray:
    """Half-line of divisor classes, stored canonically on multiplicity blocks.

    Canonical form: divide by the absolute value of the first nonzero
    coordinate, clear rational denominators and integer content over the
    degree and the block values, then merge adjacent equal blocks.  Two rays
    are equal iff their canonical forms coincide, regardless of the (possibly
    irrational) positive scalar between representatives or of how the points
    were grouped into blocks.  Only `to_json` lists every point.
    """

    __slots__ = ("rep",)

    def __init__(self, x: MultiplicityProfile | DivisorClass):
        p = x.to_profile() if isinstance(x, DivisorClass) else x
        lead = next((c for c in (p.degree,) + p.values if c), None)
        if lead is None:
            raise ValueError("zero class spans no ray")
        p = p.scale(abs(lead).inverse())
        parts = [f for c in (p.degree,) + p.values for f in (c.a, c.b)]
        denom = lcm(*(f.denominator for f in parts))
        content = gcd(*((f * denom).numerator for f in parts))
        object.__setattr__(self, "rep", p.scale(Fraction(denom, content)).canonical())

    def __setattr__(self, name, value):
        raise AttributeError("Ray is immutable")

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
        if not self.rep.degree.is_rational:
            return 0, self.rep.degree
        point = 1
        for v, c in self.rep.blocks:
            if not v.is_rational:
                return point, v
            point += c
        return None

    def uncollide(self, point: int, r: int) -> "Ray":
        return Ray(self.rep.uncollide(point, r))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ray):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self) -> int:
        return hash(self.rep)

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


@dataclass(frozen=True)
class OrbitSequence:
    matrix: ShapeMatrix
    seed: tuple[int, ...]
    terms: tuple[tuple[int, ...], ...]

    def term(self, k: int) -> tuple[int, ...]:
        return self.terms[k]

    @property
    def k_max(self) -> int:
        return len(self.terms) - 1

    def to_json(self) -> dict:
        return {"seed": list(self.seed), "terms": [list(t) for t in self.terms]}


def iterate(m: ShapeMatrix, seed: Sequence[int], k_max: int) -> OrbitSequence:
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    seed = tuple(int(x) for x in seed)
    terms = [seed]
    for _ in range(k_max):
        terms.append(tuple(m.apply(terms[-1])))
    return OrbitSequence(m, seed, tuple(terms))


# -- convergence certificates -------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Exact witness that M^k(seed) converges projectively to the dominant ray.

    gamma is the coefficient of the seed on the dominant eigenvector in the
    spectral decomposition: gamma = (u . seed) / (u . v) with u, v the left and
    right eigenvectors of the simple dominant eigenvalue.  Together with strict
    dominance, gamma != 0 is exactly projective convergence; no limit is taken.
    """

    matrix: ShapeMatrix
    seed: tuple[int, ...]
    dominant_value: QuadNum
    left_vector: tuple[QuadNum, ...]
    right_vector: tuple[QuadNum, ...]
    gamma: QuadNum
    jordan: tuple[tuple[QuadNum, int, int], ...]  # (eigenvalue, algebraic, geometric)

    @property
    def converges(self) -> bool:
        return bool(self.gamma)

    def projection_identity_holds(self, k_max: int = 6) -> bool:
        """u . M^k(seed) == lambda^k (u . seed) exactly, for k = 0..k_max."""
        useed = _dot(self.left_vector, self.seed)
        orbit = iterate(self.matrix, self.seed, k_max)
        power = QuadNum(1)
        for k in range(k_max + 1):
            if _dot(self.left_vector, orbit.term(k)) != power * useed:
                return False
            power = power * self.dominant_value
        return True

    def to_json(self) -> dict:
        return {
            "dominant": self.dominant_value.to_json(),
            "gamma": self.gamma.to_json(),
            "converges": self.converges,
            "jordan": [
                {"value": v.to_json(), "algebraic": a, "geometric": g} for v, a, g in self.jordan
            ],
        }


def _dot(u: Sequence[QuadNum], v: Sequence) -> QuadNum:
    acc = QuadNum(0)
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def certify_convergence(m: ShapeMatrix | EigenDecomposition, seed: Sequence[int]) -> ConvergenceCertificate:
    """Certificate for the orbit of `seed`; takes the matrix or its decomposition."""
    dec = m if isinstance(m, EigenDecomposition) else eigen(m)
    m = dec.matrix
    dom = dec.dominant
    if dom.algebraic != 1:
        raise SpectrumError(f"dominant eigenvalue {dom.value} is not simple")
    right = dom.vectors[0]
    left = _kernel(_shifted(m, dom.value, transpose=True))
    assert len(left) == 1
    u = left[0]
    denom = _dot(u, right)
    assert denom  # u.v != 0 for a simple eigenvalue
    seed = tuple(int(x) for x in seed)
    gamma = _dot(u, seed) / denom
    jordan = tuple((e.value, e.algebraic, e.geometric) for e in dec.eigenvalues)
    return ConvergenceCertificate(m, seed, dom.value, u, tuple(right), gamma, jordan)
