"""The six limit-ray families, as one table.

Every irrational ray here is built the same way: take the limit of the pencil
orbit under a shape matrix (A_n or B_n), then split its first point to order
r(n).  `FAMILIES` holds one row per limit family:

  tag        alias       parent  r(n)  surface
  odd        W_odd       -       1     X_{2n+7},      A_n from the Jonquieres/Sturm composite
  even       W_even      -       1     X_{2n+8},      B_n from the double-Jonquieres/Geiser composite
  even_plus  Wplus_even  odd     2     X_{2n+10}
  odd_plus   Wplus_odd   even    2     X_{2n+11}
  sq4        Wplus_sq4   even    n+1   X_{(n+2)^2+4}
  sq2        Wplus_sq2   even    n+2   X_{(n+3)^2+2}

A row with a parent also names its good-ray sweep (`even`, `odd`, `sq4`,
`sq2`): the same order-r split applied to the r-scaled pencil orbit terms of
the parent, integer classes whose rays converge to the row's limit ray.  The
two matrix rows carry the shape matrix, the three orbit invariants that a
good-ray certificate checks on the parent orbit, and the word for its scaled
pencil.  `WONDERFUL_TAGS`, `GOOD_TAGS`, `GOOD_LIMITS`, `family`,
`good_family`, `shape_matrix` and `surface_points` are views of the table.

Pencil orbits and the good-ray families carry integer classes; the closed
forms `wonderful_*` return the irrational limit rays in their conventional
display scaling (the Ray class normalizes away the scaling).
"""

from __future__ import annotations

from collections import namedtuple

from .cremona import ShapeMatrix
from .dynamics import Ray, iterate
from .lattice import MultiplicityProfile
from .quadfield import QuadNum

LINE_SEED = (1, 0, 0, 0)
PENCIL_SEED = (1, 1, 0, 0)

# (name, statement, holds) for one orbit row (d, a, b, c) of a matrix family
Invariant = tuple[str, str, bool]


class Family(namedtuple("Family", "tag alias closed_form parent order good matrix invariants scaling",
                        defaults=(None, lambda n: 1, None, None, None, "scaled"))):
    """One limit family.  `parent` is the matrix family whose limit ray (and,
    for the good sweep `good`, whose pencil orbit) is split to order
    `order(n)` at its first point; the matrix families themselves have no
    parent and order 1, and carry `matrix`, `invariants` and `scaling`.

    Fields: tag, alias: str; closed_form: Callable[[int], MultiplicityProfile];
    parent, good: str | None = None; order: Callable[[int], int] = lambda n: 1;
    matrix: Callable[[int], ShapeMatrix] | None = None;
    invariants: Callable[[int, int, int, int, int], tuple[Invariant, ...]] | None = None;
    scaling: str = "scaled"."""

    __slots__ = ()


def _check_n(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"family index must be a positive integer, got {n!r}")
    return n


def alpha(n: int) -> QuadNum:
    """sqrt(n(n-1)); rational only for n = 1."""
    return QuadNum.sqrt(_check_n(n) * (n - 1))


def beta(n: int) -> QuadNum:
    """sqrt(49n^2 - 28); never rational (a square would force 7 | 4)."""
    return QuadNum.sqrt(49 * _check_n(n) * n - 28)


# -- shape matrices -----------------------------------------------------------------


def odd_shape_matrix(n: int) -> ShapeMatrix:
    """A_n, the composite Jonquieres/Sturm action on shape (1, 2n, 6)."""
    _check_n(n)
    return ShapeMatrix(
        [
            [5 * n + 5, -n, -2 * n, -12 * n - 12],
            [5 * n, 1 - n, -2 * n, -12 * n],
            [5, -1, -1, -12],
            [2, 0, 0, -5],
        ],
        (1, 2 * n, 6),
    )


def even_shape_matrix(n: int) -> ShapeMatrix:
    """B_n, the composite double-Jonquieres/Geiser action on shape (1, 7, 2n)."""
    _check_n(n)
    return ShapeMatrix(
        [
            [8 * n * n + 27 * n + 17, -n * n - 5 * n - 6, -21 * n * n - 70 * n - 42, -2 * n * n - 6 * n],
            [8 * n * n + 19 * n + 6, -n * n - 4 * n - 3, -21 * n * n - 49 * n - 14, -2 * n * n - 4 * n],
            [8 * n + 6, -n - 2, -21 * n - 15, -2 * n],
            [8 * n + 3, -n - 2, -21 * n - 7, -2 * n + 1],
        ],
        (1, 7, 2 * n),
    )


def js_homaloidal(n: int) -> MultiplicityProfile:
    """Homaloidal net of the Jonquieres/Sturm composite on 2n+7 points."""
    _check_n(n)
    return MultiplicityProfile(5 * n + 5, [(5 * n, 1), (5, 2 * n), (2, 6)])


def cg_homaloidal(n: int) -> MultiplicityProfile:
    """Homaloidal net of the double-Jonquieres/Geiser composite on 2n+8 points."""
    _check_n(n)
    return MultiplicityProfile(
        8 * n * n + 27 * n + 17,
        [(8 * n * n + 19 * n + 6, 1), (8 * n + 6, 7), (8 * n + 3, 2 * n)],
    )


def odd_invariants(n: int, d: int, a: int, b: int, c: int) -> tuple[Invariant, ...]:
    """What every pencil orbit row of A_n satisfies."""
    return (
        ("invariant-degree", f"d - a - 2c = {d - a - 2 * c} = 0", d - a - 2 * c == 0),
        ("invariant-mult", f"n*b - a = {n * b - a} = -1", n * b - a == -1),
        ("orbit-inequality", f"b = {b} > c = {c} >= 0", b > c >= 0),
    )


def even_invariants(n: int, d: int, a: int, b: int, c: int) -> tuple[Invariant, ...]:
    """What every pencil orbit row of B_n satisfies."""
    return (
        (
            "invariant-degree",
            f"3d - 7b - (3n+2)c = {3 * d - 7 * b - (3 * n + 2) * c} = 3",
            3 * d - 7 * b - (3 * n + 2) * c == 3,
        ),
        ("invariant-mult", f"a - (n+2)c = {a - (n + 2) * c} = 1", a - (n + 2) * c == 1),
        ("orbit-inequality", f"3c = {3 * c} > b = {b} >= 0", 3 * c > b >= 0),
    )


# -- closed forms of the limit rays ------------------------------------------------------


def wonderful_odd(n: int) -> MultiplicityProfile:
    """Dominant ray of the odd family on X_{2n+7}; irrational for n >= 2."""
    a = alpha(n)
    return MultiplicityProfile(
        5 * n * n + 4 * n,
        [(n * (3 * n + 2 * a), 1), (3 * n + 2 * a, 2 * n), (n * (2 + n - a), 6)],
    )


def wonderful_even(n: int) -> MultiplicityProfile:
    """Dominant ray of the even family on X_{2n+8}."""
    b = beta(n)
    return MultiplicityProfile(
        14 * n * (8 * n * n + 27 * n + 16),
        [
            (7 * n * (n + 2) * (9 * n + 6 + b), 1),
            (n * (21 * n * n + 126 * n + 84) - n * (3 * n + 2) * b, 7),
            (7 * n * (9 * n + 6 + b), 2 * n),
        ],
    )


def wonderful_even_plus(n: int) -> MultiplicityProfile:
    """Order-2 uncollision of the odd limit ray, on X_{2n+10}."""
    a = alpha(n)
    return MultiplicityProfile(
        10 * n * n + 8 * n,
        [(n * (3 * n + 2 * a), 4), (6 * n + 4 * a, 2 * n), (2 * n * (2 + n - a), 6)],
    )


def wonderful_odd_plus(n: int) -> MultiplicityProfile:
    """Order-2 uncollision of the even limit ray, on X_{2n+11}."""
    b = beta(n)
    return MultiplicityProfile(
        28 * n * (8 * n * n + 27 * n + 16),
        [
            (7 * n * (n + 2) * (9 * n + 6 + b), 4),
            (2 * (n * (21 * n * n + 126 * n + 84) - n * (3 * n + 2) * b), 7),
            (14 * n * (9 * n + 6 + b), 2 * n),
        ],
    )


def wonderful_sq4(n: int) -> MultiplicityProfile:
    """Order n+1 uncollision of the even limit ray, on X_{(n+2)^2+4}."""
    b = beta(n)
    v1 = 7 * n * (n + 2) * (9 * n + 6 + b)
    return MultiplicityProfile(
        14 * n * (8 * n * n + 27 * n + 16),
        [
            (v1 / (n + 1), (n + 1) * (n + 1)),
            (n * (21 * n * n + 126 * n + 84) - n * (3 * n + 2) * b, 7),
            (7 * n * (9 * n + 6 + b), 2 * n),
        ],
    )


def wonderful_sq2(n: int) -> MultiplicityProfile:
    """Order n+2 uncollision of the even limit ray, on X_{(n+3)^2+2}.

    The split multiplicity v1/(n+2) collapses to the last block's value, so
    the profile is a rearrangement of the even limit ray's entries.
    """
    b = beta(n)
    v3 = 7 * n * (9 * n + 6 + b)
    return MultiplicityProfile(
        14 * n * (8 * n * n + 27 * n + 16),
        [
            (v3, (n + 2) * (n + 2)),
            (n * (21 * n * n + 126 * n + 84) - n * (3 * n + 2) * b, 7),
            (v3, 2 * n),
        ],
    )


# -- the table -------------------------------------------------------------------------

FAMILIES = (
    Family("odd", "W_odd", wonderful_odd, matrix=odd_shape_matrix, invariants=odd_invariants,
           scaling="doubled"),
    Family("even", "W_even", wonderful_even, matrix=even_shape_matrix, invariants=even_invariants),
    Family("even_plus", "Wplus_even", wonderful_even_plus, "odd", lambda n: 2, "even"),
    Family("odd_plus", "Wplus_odd", wonderful_odd_plus, "even", lambda n: 2, "odd"),
    Family("sq4", "Wplus_sq4", wonderful_sq4, "even", lambda n: n + 1, "sq4"),
    Family("sq2", "Wplus_sq2", wonderful_sq2, "even", lambda n: n + 2, "sq2"),
)

WONDERFUL_TAGS = tuple(f.tag for f in FAMILIES)
GOOD_TAGS = tuple(f.good for f in FAMILIES if f.good)
# good family -> limit ray family reached as k grows
GOOD_LIMITS = {f.good: f.tag for f in FAMILIES if f.good}


def family(tag: str) -> Family:
    for f in FAMILIES:
        if f.tag == tag:
            return f
    raise ValueError(f"unknown limit-ray family {tag!r}; expected one of {WONDERFUL_TAGS}")


def good_family(tag: str) -> Family:
    """The row whose limit the good-ray sweep `tag` converges to."""
    for f in FAMILIES:
        if f.good == tag:
            return f
    raise ValueError(f"unknown good-ray family {tag!r}; expected one of {GOOD_TAGS}")


def shape_matrix(tag: str, n: int) -> ShapeMatrix:
    build = next((f.matrix for f in FAMILIES if f.tag == tag), None)
    if build is None:
        raise ValueError(f"no shape matrix for tag {tag!r}")
    return build(n)


def surface_points(tag: str, n: int) -> int:
    f = family(tag)
    r = f.order(n)
    return sum(shape_matrix(f.parent or tag, n).counts) + r * r - 1


# -- pencil orbits --------------------------------------------------------------------


def _orbit_profile(m: ShapeMatrix, k: int, row: tuple[int, ...] | None = None) -> MultiplicityProfile:
    if k < 0:
        raise ValueError(f"orbit index must be >= 0, got {k}")
    if row is None:
        row = iterate(m, PENCIL_SEED, k).term(k)
    return MultiplicityProfile(row[0], list(zip(row[1:], m.counts)))


def pencil_profile(n: int, k: int) -> MultiplicityProfile:
    """k-th pencil class of the odd family, L_d(a, b^{2n}, c^6) on 2n+7 points."""
    return _orbit_profile(odd_shape_matrix(n), k)


def primed_pencil_profile(n: int, k: int) -> MultiplicityProfile:
    """k-th pencil class of the even family, L_d(a, b^7, c^{2n}) on 2n+8 points."""
    return _orbit_profile(even_shape_matrix(n), k)


# -- good-ray families -----------------------------------------------------------------


def good_profile(tag: str, n: int, k: int, row: tuple[int, ...] | None = None) -> MultiplicityProfile:
    """Order-r split, at its first point, of the r-scaled k-th pencil class
    of the parent family.  A caller that already holds that class's orbit
    row (d, a, b, c) passes it as `row`, and the orbit is not iterated again."""
    f = good_family(tag)
    r = f.order(n)
    return (r * _orbit_profile(shape_matrix(f.parent, n), k, row)).uncollide(1, r)


def good_even(n: int, k: int) -> MultiplicityProfile:
    """L_{2d}(a^4, (2b)^{2n}, (2c)^6) on 2n+10 points."""
    return good_profile("even", n, k)


def good_odd(n: int, k: int) -> MultiplicityProfile:
    """L_{2d'}(a'^4, (2b')^7, (2c')^{2n}) on 2n+11 points."""
    return good_profile("odd", n, k)


def good_sq4(n: int, k: int) -> MultiplicityProfile:
    """Order n+1 uncollision of the scaled even pencil, on (n+2)^2+4 points."""
    return good_profile("sq4", n, k)


def good_sq2(n: int, k: int) -> MultiplicityProfile:
    """Order n+2 uncollision of the scaled even pencil, on (n+3)^2+2 points."""
    return good_profile("sq2", n, k)


# -- limit rays ------------------------------------------------------------------------


def wonderful_profile(tag: str, n: int) -> MultiplicityProfile:
    return family(tag).closed_form(n)


def wonderful_ray(tag: str, n: int) -> Ray:
    return Ray(wonderful_profile(tag, n))
