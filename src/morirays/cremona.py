"""Characteristic matrices of plane Cremona maps and their action.

A map on the blowup at s points is an integer (s+1)x(s+1) matrix in the basis
(H, E_1, ..., E_s): column 0 is the coordinate vector (d, -m_1, ..., -m_s) of
the homaloidal net L_d(m_1, ..., m_s), and the matrix acts on coordinate
vectors by left multiplication.  compose(m1, m2) = m1 @ m2 applies m2's map
first.  Base points are 1-based.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from heapq import heapify, heappop, heappush
from operator import mul

from .lattice import DivisorClass, ShapeError, is_line_pencil_up_to_permutation
from .quadfield import _Frozen


def _mat_vec(rows: tuple[tuple[int, ...], ...], vec: Sequence) -> tuple:
    """rows @ vec for a square integer matrix: each row is one
    sum(map(mul, row, vec)), so it costs one product per entry, zeros
    included."""
    if len(vec) != len(rows):
        raise ValueError(f"vector length {len(vec)} != {len(rows)}")
    return tuple([sum(map(mul, row, vec)) for row in rows])


class _IntMatrix(_Frozen):
    """Immutable square integer matrix, stored as a tuple of row tuples.

    Subclasses say what the basis means: `_shape()` is what two matrices must
    share to be multiplied or compared (named `_shapes_name` in the error),
    and `_with_rows` builds a matrix of the same kind on new rows.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square and nonempty")
        if any(not isinstance(x, int) for r in rows for x in r):
            raise TypeError("entries must be integers")
        object.__setattr__(self, "rows", rows)

    def _with_rows(self, rows):
        return type(self)(rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def trace(self) -> int:
        return sum(r[i] for i, r in enumerate(self.rows))

    def __matmul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._shape() != other._shape():
            raise ValueError(f"{self._shapes_name} differ: {self._shape()} vs {other._shape()}")
        cols = tuple(zip(*other.rows))
        return self._with_rows([[sum(map(mul, row, col)) for col in cols] for row in self.rows])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.rows == other.rows and self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash((self.rows, self._shape()))

    def apply(self, vec: Sequence) -> tuple:
        return _mat_vec(self.rows, vec)

    def pretty(self) -> str:
        width = max(len(str(x)) for r in self.rows for x in r)
        return "\n".join(" ".join(f"{x:>{width}}" for x in r) for r in self.rows)

    def __str__(self) -> str:
        return self.pretty()


class CharMatrix(_IntMatrix):
    __slots__ = ()
    _shapes_name = "sizes"

    @property
    def s(self) -> int:
        return len(self.rows) - 1

    def _shape(self) -> int:
        return self.s

    @classmethod
    def identity(cls, s: int) -> "CharMatrix":
        return cls([[1 if i == j else 0 for j in range(s + 1)] for i in range(s + 1)])

    def apply(self, x: DivisorClass | Sequence) -> DivisorClass | tuple:
        """Image of a divisor class, or of a coordinate vector (d, -m_1, ..., -m_s)
        as a tuple; exact for int, Fraction and QuadNum coordinates."""
        if not isinstance(x, DivisorClass):
            return _mat_vec(self.rows, x)
        if x.s != self.s:
            raise ValueError(f"class has s={x.s}, matrix acts on s={self.s}")
        out = _mat_vec(self.rows, (x.degree,) + tuple(-m for m in x.mults))
        return DivisorClass(out[0], [-w for w in out[1:]])

    def homaloidal_net(self) -> DivisorClass:
        """The net L_d(m_1, ..., m_s) from the first column."""
        return DivisorClass(self.rows[0][0], [-self.rows[i][0] for i in range(1, self.s + 1)])

    def is_involution(self) -> bool:
        return self @ self == CharMatrix.identity(self.s)

    def validate(self) -> None:
        """Check: preserves the intersection form, fixes K, first column of degree >= 1."""
        n = self.s + 1
        cols = tuple(zip(*self.rows))
        for i, col in enumerate(cols):
            # (M^T J M)[i][j] with J = diag(1, -1, ..., -1): the column J M e_i against M e_j
            signed = (col[0],) + tuple([-x for x in col[1:]])
            for j in range(i, n):
                val = sum(map(mul, signed, cols[j]))
                want = (1 if i == 0 else -1) if i == j else 0
                if val != want:
                    raise ValueError(f"form not preserved at ({i},{j}): {val} != {want}")
        k = (-3,) + (1,) * self.s
        for i, row in enumerate(self.rows):
            if sum(map(mul, row, k)) != k[i]:
                raise ValueError(f"canonical vector moved at row {i}")
        # the checks above already give the first column D = M e_0 the numbers
        # of a homaloidal net: D^2 = (M^T J M)_00 = 1 and, as M^-1 K = K,
        # K.D = K^T J M e_0 = (M^-1 K)^T J e_0 = -3; so does d = -4 with
        # m = -1 at 15 points, which only the degree test refuses
        d = self.rows[0][0]
        if d < 1:
            raise ValueError(f"homaloidal degree {d} < 1")

    def is_valid(self) -> bool:
        try:
            self.validate()
        except ValueError:
            return False
        return True

    def __repr__(self) -> str:
        return f"CharMatrix({[list(r) for r in self.rows]!r})"

    def to_json(self) -> dict:
        return {"size": self.s, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "CharMatrix":
        m = cls(data["rows"])
        if m.s != data["size"]:
            raise ValueError(f"size field {data['size']} does not match rows ({m.s})")
        return m


def compose(m1: CharMatrix, m2: CharMatrix) -> CharMatrix:
    """Matrix product m1 @ m2: the composite applies m2's map first."""
    return m1 @ m2


def _embed(local: Sequence[Sequence[int]], points: Sequence[int], s: int | None) -> CharMatrix:
    """`local` at (H, E_p for p in points), the identity elsewhere; s defaults to the largest point."""
    points = tuple(points)
    if s is None:
        s = max(points)
    if len(set(points)) != len(points):
        raise ValueError(f"repeated base points: {points}")
    if points and not (1 <= min(points) and max(points) <= s):
        raise ValueError(f"base points {points} out of range 1..{s}")
    if len(local) != len(points) + 1:
        raise ValueError(f"local matrix size {len(local)} != {len(points) + 1}")
    g = (0,) + points
    rows = [[1 if i == j else 0 for j in range(s + 1)] for i in range(s + 1)]
    for r in range(len(local)):
        for c in range(len(local)):
            rows[g[r]][g[c]] = local[r][c]
    return CharMatrix(rows)


def _homogeneous(name: str, p: int, points: Sequence[int], s: int | None,
                 d: int, mu: int, diag: int, off: int) -> CharMatrix:
    """The `name` map at p points: net L_d(mu^p), E-block diag on the diagonal, off elsewhere."""
    points = tuple(points)
    if len(points) != p:
        raise ValueError(f"{name} map needs {p} points, got {len(points)}")
    local = [[d] + [mu] * p]
    for i in range(1, p + 1):
        local.append([-mu] + [diag if i == j else off for j in range(1, p + 1)])
    return _embed(local, points, s)


def quadratic_map(points: Sequence[int], s: int | None = None) -> CharMatrix:
    """Degree-2 involution based at three points; net L_2(1, 1, 1)."""
    return _homogeneous("quadratic", 3, points, s, 2, 1, 0, -1)


def sturm_map(points: Sequence[int], s: int | None = None) -> CharMatrix:
    """Degree-5 involution based at six points; net L_5(2^6)."""
    return _homogeneous("sturm", 6, points, s, 5, 2, 0, -1)


def geiser_map(points: Sequence[int], s: int | None = None) -> CharMatrix:
    """Degree-8 involution based at seven points; net L_8(3^7)."""
    return _homogeneous("geiser", 7, points, s, 8, 3, -2, -1)


def bertini_map(points: Sequence[int], s: int | None = None) -> CharMatrix:
    """Degree-17 involution based at eight points; net L_17(6^8)."""
    return _homogeneous("bertini", 8, points, s, 17, 6, -3, -2)


def jonquieres_map(n: int, points: Sequence[int], s: int | None = None) -> CharMatrix:
    """De Jonquieres involution of degree n+1: one n-fold point plus 2n simple ones.

    Net L_(n+1)(n, 1^(2n)); each simple point pairs with itself.
    """
    points = tuple(points)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if len(points) != 2 * n + 1:
        raise ValueError(f"jonquieres of order {n} needs {2 * n + 1} points, got {len(points)}")
    p = 2 * n + 1
    local = [[1 + n, n] + [1] * (2 * n), [-n, 1 - n] + [-1] * (2 * n)]
    for i in range(2, p + 1):
        local.append([-1, -1] + [-1 if i == j else 0 for j in range(2, p + 1)])
    return _embed(local, points, s)


def double_jonquieres_map(n: int, points: Sequence[int], s: int | None = None) -> CharMatrix:
    """Involution of degree n^2+1 on 2n+2 points, a product of two de Jonquieres
    maps; net L_(n^2+1)(n^2-n, n^(2n+1))."""
    points = tuple(points)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if len(points) != 2 * n + 2:
        raise ValueError(f"double jonquieres of order {n} needs {2 * n + 2} points, got {len(points)}")
    p = 2 * n + 2
    local = [
        [1 + n * n, n * n - n] + [n] * (2 * n + 1),
        [n - n * n, 2 * n - n * n] + [1 - n] * (2 * n + 1),
    ]
    for i in range(2, p + 1):
        local.append([-n, 1 - n] + [0 if i == j else -1 for j in range(2, p + 1)])
    return _embed(local, points, s)


def permutation_map(order: Sequence[int], s: int) -> CharMatrix:
    """Relabel points: image of E_order[j-1] is E_j."""
    if sorted(order) != list(range(1, s + 1)):
        raise ValueError(f"not a permutation of 1..{s}: {order}")
    rows = [[0] * (s + 1) for _ in range(s + 1)]
    rows[0][0] = 1
    for j, src in enumerate(order, start=1):
        rows[j][src] = 1
    return CharMatrix(rows)


def jonquieres_sturm(n: int) -> CharMatrix:
    """Composite on s = 2n+7 points: Sturm at the last six, then de Jonquieres
    at the first 2n+1.  Net L_(5n+5)(5n, 5^(2n), 2^6)."""
    s = 2 * n + 7
    j = jonquieres_map(n, range(1, 2 * n + 2), s)
    st = sturm_map(range(2 * n + 2, 2 * n + 8), s)
    return compose(j, st)


def double_jonquieres_geiser(n: int) -> CharMatrix:
    """Composite on s = 2n+8 points: Geiser at points 2..8, then the order-(n+3)
    double de Jonquieres at all points.  Net L_(8n^2+27n+17)(8n^2+19n+6, (8n+6)^7, (8n+3)^(2n))."""
    s = 2 * n + 8
    dj = double_jonquieres_map(n + 3, range(1, s + 1), s)
    g = geiser_map(range(2, 9), s)
    return compose(dj, g)


# -- shape compression ---------------------------------------------------------


class ShapeMatrix(_IntMatrix):
    """Action of a characteristic matrix on block-constant classes.

    Acts on (d, v_1, ..., v_p) where v_i is the common multiplicity on the i-th
    block of `counts` consecutive points.
    """

    __slots__ = ("counts",)
    _shapes_name = "shapes"

    def __init__(self, rows: Iterable[Iterable[int]], counts: Sequence[int]):
        super().__init__(rows)
        counts = tuple(int(c) for c in counts)
        if len(self.rows) != len(counts) + 1:
            raise ValueError("rows must be square of size len(counts)+1")
        if any(c < 1 for c in counts):
            raise ValueError(f"counts must be positive: {counts}")
        object.__setattr__(self, "counts", counts)

    def _shape(self) -> tuple[int, ...]:
        return self.counts

    def _with_rows(self, rows) -> "ShapeMatrix":
        return ShapeMatrix(rows, self.counts)

    def __repr__(self) -> str:
        return f"ShapeMatrix({[list(r) for r in self.rows]!r}, {self.counts!r})"

    def to_json(self) -> dict:
        return {"counts": list(self.counts), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "ShapeMatrix":
        return cls(data["rows"], data["counts"])


def shape_action(m: CharMatrix, counts: Sequence[int]) -> ShapeMatrix:
    """Compress m to its action on (degree, block values); ShapeError if the
    matrix does not preserve block-constant classes of this shape."""
    counts = tuple(int(c) for c in counts)
    if sum(counts) != m.s:
        raise ShapeError(f"counts {counts} sum to {sum(counts)}, matrix acts on s={m.s}")
    # H, then multiplicity 1 on each block, as coordinates (d, -m_1, ..., -m_s)
    basis = [(1,) + (0,) * m.s]
    pos = 1
    for c in counts:
        basis.append((0,) * pos + (-1,) * c + (0,) * (m.s + 1 - pos - c))
        pos += c
    cols = []
    for b, x in enumerate(basis):
        img = m.apply(x)
        col = [img[0]]
        pos = 1
        for c in counts:
            if img[pos : pos + c].count(img[pos]) != c:
                raise ShapeError(f"image of block basis vector {b} breaks shape {counts}")
            col.append(-img[pos])
            pos += c
        cols.append(col)
    return ShapeMatrix(zip(*cols), counts)


# -- degree reduction ------------------------------------------------------------


class ReductionResult(namedtuple("ReductionResult", "start reduced steps is_reduced")):
    """Fields: start, reduced: DivisorClass; steps: tuple[tuple[int, int, int], ...],
    the 1-based points of each quadratic map; is_reduced: bool."""

    __slots__ = ()

    @property
    def is_line_pencil(self) -> bool:
        return is_line_pencil_up_to_permutation(self.reduced)

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "reduced": self.reduced.to_json(),
            "steps": [list(t) for t in self.steps],
            "is_reduced": self.is_reduced,
            "is_line_pencil": self.is_line_pencil,
        }


# the degree drops at every step, so every run ends; this stops one whose class
# has so large a degree that it would take longer
MAX_REDUCTION_STEPS = 100000


def cremona_reduce(x: DivisorClass) -> ReductionResult:
    """Apply quadratic maps at the three largest multiplicities until the degree
    is at least their sum (ties broken toward lower indices).

    The degree drops at every step, so this terminates; a run that would push
    the degree to zero or below stops unreduced (non-effective input).
    """
    if not x.is_integral:
        raise ValueError("reduction needs integer degree and multiplicities")
    d, mults = x.degree, list(x.mults)
    steps: list[tuple[int, int, int]] = []
    if x.s < 3:
        # no quadratic map applies; as on three points, a class below the sum
        # of its multiplicities with degree <= 0 is not effective
        return ReductionResult(x, x, (), d > 0 or d >= sum(mults))
    # One key -m*s + i per point (the pair (-m, i) as one int) pops largest
    # first, ties toward the lower index.  A step changes only the three
    # points it pops, so pushing their new keys keeps one current key each.
    s = x.s
    heap = [i - m * s for i, m in enumerate(mults)]
    heapify(heap)
    for _ in range(MAX_REDUCTION_STEPS):
        i, j, k = sorted((heappop(heap) % s, heappop(heap) % s, heappop(heap) % s))
        if d >= mults[i] + mults[j] + mults[k]:
            reduced = DivisorClass(d, mults)
            return ReductionResult(x, reduced, tuple(steps), True)
        if d <= 0:
            return ReductionResult(x, DivisorClass(d, mults), tuple(steps), False)
        a, b, c = mults[i], mults[j], mults[k]
        d, mults[i], mults[j], mults[k] = 2 * d - a - b - c, d - b - c, d - a - c, d - a - b
        for p in (i, j, k):
            heappush(heap, p - mults[p] * s)
        steps.append((i + 1, j + 1, k + 1))
    raise RuntimeError(f"reduction did not settle within {MAX_REDUCTION_STEPS} steps")
