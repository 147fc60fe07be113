"""Characteristic matrices: generators, composites, validation, reduction."""

import random

import pytest
from hypothesis import given, strategies as st

from morirays import (
    CharMatrix,
    DivisorClass,
    QuadNum,
    RadicalSum,
    Ray,
    ShapeError,
    ShapeMatrix,
    bertini_map,
    canonical_class,
    compose,
    cremona_reduce,
    double_jonquieres_geiser,
    double_jonquieres_map,
    geiser_map,
    jonquieres_map,
    jonquieres_sturm,
    line_pencil_class,
    permutation_map,
    quadratic_map,
    shape_action,
    sturm_map,
)
from morirays.families import cg_homaloidal, js_homaloidal
from morirays.lattice import MultiplicityProfile
from test_verify import replay

Q_ROWS = ((2, 1, 1, 1), (-1, 0, -1, -1), (-1, -1, 0, -1), (-1, -1, -1, 0))

# homaloidal nets of the base generators on their minimal surfaces
NETS = [
    (lambda: quadratic_map((1, 2, 3), 3), "L_2(1^3)"),
    (lambda: sturm_map(tuple(range(1, 7)), 6), "L_5(2^6)"),
    (lambda: geiser_map(tuple(range(1, 8)), 7), "L_8(3^7)"),
    (lambda: bertini_map(tuple(range(1, 9)), 8), "L_17(6^8)"),
    (lambda: jonquieres_map(2, (1, 2, 3, 4, 5), 5), "L_3(2, 1^4)"),
    (lambda: double_jonquieres_map(1, (1, 2, 3, 4), 4), "L_2(0, 1^3)"),
    (lambda: double_jonquieres_map(2, (1, 2, 3, 4, 5, 6), 6), "L_5(2^6)"),
]


def test_quadratic_rows():
    assert quadratic_map((1, 2, 3), 3).rows == Q_ROWS


@pytest.mark.parametrize("build,net", NETS)
def test_homaloidal_nets(build, net):
    m = build()
    assert m.is_valid()
    assert str(m.homaloidal_net()) == net


def test_jonquieres_one_is_quadratic_with_paired_points():
    # J_1 exchanges the two simple points through the big one
    j1 = jonquieres_map(1, (1, 2, 3), 3)
    assert j1 == compose(quadratic_map((1, 2, 3), 3), permutation_map([1, 3, 2], 3))
    assert j1.is_involution()


GENERATORS = [
    lambda: quadratic_map((1, 2, 3), 3),
    lambda: sturm_map(tuple(range(1, 7)), 6),
    lambda: geiser_map(tuple(range(1, 8)), 7),
    lambda: bertini_map(tuple(range(1, 9)), 8),
] + [
    (lambda k=n: jonquieres_map(k, tuple(range(1, 2 * k + 2)), 2 * k + 1)) for n in range(1, 21)
] + [
    (lambda k=n: double_jonquieres_map(k, tuple(range(1, 2 * k + 3)), 2 * k + 2)) for n in range(1, 21)
]


@pytest.mark.parametrize("build", GENERATORS)
def test_generators_orthogonal_fix_canonical_involutive(build):
    m = build()
    m.validate()  # M^T J M = J for the form diag(1, -1, ..., -1)
    net = m.homaloidal_net()  # validate's two checks imply these, so it does not test them
    assert (net.self_intersection(), net.canonical_pairing()) == (1, -3)
    k = canonical_class(m.s)
    assert m.apply(k) == k
    assert m.is_involution()


def test_validate_rejects_non_orthogonal():
    bad = CharMatrix([(2, 1, 1, 1), (-1, 0, -1, -1), (-1, -1, 0, -1), (-1, -1, 0, -1)])
    with pytest.raises(ValueError):
        bad.validate()
    assert not bad.is_valid()


def test_embedding_leaves_other_points_alone():
    m = quadratic_map((2, 4, 5), 5)
    assert m.is_valid()
    # untouched points carry identity rows and columns
    assert m.rows[1] == (0, 1, 0, 0, 0, 0)
    assert m.rows[3] == (0, 0, 0, 1, 0, 0)
    assert all(m.rows[i][1] == 0 for i in range(6) if i != 1)
    assert m.apply(DivisorClass(3, [1, 2, 1, 2, 2])).mults[0] == 1


def test_apply_examples():
    q = quadratic_map((1, 2, 3), 3)
    assert q.apply(DivisorClass(1, [1, 0, 0])) == DivisorClass(1, [1, 0, 0])
    assert q.apply(DivisorClass(2, [1, 1, 1])) == DivisorClass(1, [0, 0, 0])
    # the exceptional curve over p1 maps to the line through p2, p3
    assert q.apply(DivisorClass(0, [-1, 0, 0])) == DivisorClass(1, [0, 1, 1])


def test_apply_on_coordinates_matches_the_divisor_class_path():
    rng = random.Random(20261018)
    builds = ((quadratic_map, 3), (sturm_map, 6), (geiser_map, 7))
    for _ in range(200):
        s = rng.randrange(7, 12)
        m = CharMatrix.identity(s)
        for _ in range(rng.randrange(1, 6)):
            build, size = rng.choice(builds)
            m = compose(build(tuple(rng.sample(range(1, s + 1), size)), s), m)
        d, mults = rng.randrange(-9, 10), [rng.randrange(-6, 7) for _ in range(s)]
        out = m.apply((d, *(-v for v in mults)))
        assert type(out) is tuple and all(type(v) is int for v in out)
        assert DivisorClass(out[0], [-v for v in out[1:]]) == m.apply(DivisorClass(d, mults))


def test_apply_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="vector length 3 != 4"):
        quadratic_map((1, 2, 3), 3).apply((1, 0, 0))
    with pytest.raises(ValueError, match="vector length 3 != 2"):
        ShapeMatrix([[2, -1], [-3, 2]], counts=(1,)).apply((1, 1, 1))


def test_compose_applies_second_argument_first():
    q = quadratic_map((1, 2, 3), 4)
    p = permutation_map([4, 2, 3, 1], 4)
    x = DivisorClass(3, [2, 1, 0, 0])
    assert compose(q, p).apply(x) == q.apply(p.apply(x))
    assert compose(q, p) != compose(p, q)


@pytest.mark.parametrize("n", range(1, 6))
def test_composite_js(n):
    m = jonquieres_sturm(n)
    assert m.s == 2 * n + 7
    assert m.is_valid()
    assert not m.is_involution()
    assert m.homaloidal_net() == js_homaloidal(n).expand()


@pytest.mark.parametrize("n", range(1, 11))
def test_composite_cg(n):
    m = double_jonquieres_geiser(n)
    assert m.s == 2 * n + 8
    assert m.is_valid()
    assert not m.is_involution()
    assert m.homaloidal_net() == cg_homaloidal(n).expand()


def test_cg_one_displayed_net():
    net = double_jonquieres_geiser(1).homaloidal_net()
    assert net == MultiplicityProfile(52, [(33, 1), (14, 7), (11, 2)]).expand()


def test_reduce_homaloidal():
    r = cremona_reduce(DivisorClass(5, [2] * 6))
    assert r.reduced == DivisorClass(1, [0] * 6)
    assert len(r.steps) == 3
    assert replay(r)
    assert not r.is_line_pencil  # no base point survives


def test_reduce_pencil_example():
    # degree-13 pencil member collapses to a pencil of lines in 5 steps
    x = DivisorClass(13, [9, 4, 4, 4, 4, 2, 2, 2, 2, 2, 2])
    r = cremona_reduce(x)
    assert r.steps == ((1, 2, 3), (1, 4, 5), (6, 7, 8), (9, 10, 11), (1, 6, 7))
    assert r.is_line_pencil
    assert r.reduced.degree == 1
    assert sorted(int(m) for m in r.reduced.mults) == [0] * 10 + [1]
    assert replay(r)


def test_reduce_stops_on_reduced_class():
    x = DivisorClass(3, [1] * 8)
    r = cremona_reduce(x)
    assert r.reduced == x and r.steps == ()
    assert not r.is_line_pencil
    p = line_pencil_class(6)
    assert cremona_reduce(p).is_line_pencil


def test_reduce_rejects_non_integral():
    from fractions import Fraction

    with pytest.raises(ValueError):
        cremona_reduce(DivisorClass(Fraction(1, 2), [0, 0, 0]))


def test_reduction_json():
    r = cremona_reduce(DivisorClass(13, [9, 4, 4, 4, 4, 2, 2, 2, 2, 2, 2]))
    data = r.to_json()
    assert data["steps"] == [[1, 2, 3], [1, 4, 5], [6, 7, 8], [9, 10, 11], [1, 6, 7]]
    assert DivisorClass.from_json(data["reduced"]) == r.reduced


def test_shape_matrix_basics():
    m = ShapeMatrix([[2, -1], [-3, 2]], counts=(1,))
    assert m.size == 2
    assert m.apply((1, 1)) == (1, -1)
    assert m.trace() == 4
    assert (m @ m).apply((1, 1)) == m.apply(m.apply((1, 1)))
    with pytest.raises(ValueError):
        ShapeMatrix([[1, 0], [0, 1], [0, 0]], counts=(1,))


def test_shape_action_requires_block_constancy():
    m = jonquieres_sturm(1)
    a = shape_action(m, (1, 2, 6))
    assert a.counts == (1, 2, 6)
    # sanity: compressed action reproduces the full action on block-constant classes
    x = DivisorClass(13, [9, 4, 4, 2, 2, 2, 2, 2, 2])
    d, v1, v2, v3 = a.apply((13, 9, 4, 2))
    assert m.apply(x) == DivisorClass(d, [v1] + [v2] * 2 + [v3] * 6)
    # blocks mixing moved and untouched points cannot stay constant
    with pytest.raises(ShapeError):
        shape_action(quadratic_map((1, 2, 3), 4), (1, 3))


def test_char_matrix_json_round_trip():
    m = jonquieres_sturm(2)
    assert CharMatrix.from_json(m.to_json()) == m
    a = shape_action(m, (1, 4, 6))
    assert ShapeMatrix.from_json(a.to_json()) == a


SHAPE_ACTION_CASES = (
    [("Q", lambda: quadratic_map((1, 2, 3), 3)), ("S", lambda: sturm_map(range(1, 7), 6)),
     ("G", lambda: geiser_map(range(1, 8), 7)), ("B", lambda: bertini_map(range(1, 9), 8))]
    + [(f"J{n}", lambda n=n: jonquieres_map(n, range(1, 2 * n + 2), 2 * n + 1)) for n in range(1, 4)]
    + [(f"C{n}", lambda n=n: double_jonquieres_map(n, range(1, 2 * n + 3), 2 * n + 2)) for n in range(1, 4)]
    + [(f"JS{n}", lambda n=n: jonquieres_sturm(n)) for n in range(1, 6)]
    + [(f"CG{n}", lambda n=n: double_jonquieres_geiser(n)) for n in range(1, 6)]
)


@pytest.mark.parametrize("name,build", SHAPE_ACTION_CASES, ids=[c[0] for c in SHAPE_ACTION_CASES])
def test_shape_action_on_single_points_is_the_multiplicity_basis_matrix(name, build):
    # with one point per block the shape action is D*M*D, D = diag(1, -1, ..., -1):
    # it acts on (d, m_1, ..., m_s) instead of (d, -m_1, ..., -m_s)
    m = build()
    sign = [1] + [-1] * m.s
    dmd = [[sign[i] * sign[j] * x for j, x in enumerate(row)] for i, row in enumerate(m.rows)]
    assert shape_action(m, (1,) * m.s) == ShapeMatrix(dmd, (1,) * m.s)


def test_char_and_shape_matrices_never_mix():
    c = CharMatrix(Q_ROWS)
    a = ShapeMatrix(Q_ROWS, (1, 1, 1))
    assert c != a and a != c
    assert c.rows == a.rows and c.trace() == a.trace() and str(c) == str(a)
    with pytest.raises(TypeError):
        c @ a
    with pytest.raises(TypeError):
        a @ c


@pytest.mark.parametrize("x", [DivisorClass(2, []), DivisorClass(2, [3]), DivisorClass(1, [5, 7])])
def test_reduce_returns_a_class_on_fewer_than_three_points_unchanged(x):
    r = cremona_reduce(x)
    assert (r.start, r.reduced, r.steps, r.is_reduced) == (x, x, (), True)


@pytest.mark.parametrize("x,is_reduced", [
    (DivisorClass(-1, [1, 1]), False),
    (DivisorClass(0, [0, 0]), True),
    (DivisorClass(0, []), True),
    (DivisorClass(-1, [-1, -1]), True),
])
def test_reduce_on_fewer_than_three_points_refuses_a_non_positive_degree_below_the_multiplicities(x, is_reduced):
    r = cremona_reduce(x)
    assert (r.start, r.reduced, r.steps, r.is_reduced) == (x, x, (), is_reduced)
    # three points, the third of multiplicity 0, stop the same way
    assert cremona_reduce(DivisorClass(x.degree, [*x.mults, 0, 0, 0][:3])).is_reduced is is_reduced


def test_matrix_products_need_matching_sizes_or_shapes():
    with pytest.raises(ValueError, match="sizes differ: 3 vs 4"):
        quadratic_map((1, 2, 3), 3) @ quadratic_map((1, 2, 3), 4)
    rows = [r[:3] for r in Q_ROWS[:3]]
    with pytest.raises(ValueError, match=r"shapes differ: \(1, 2\) vs \(2, 1\)"):
        ShapeMatrix(rows, (1, 2)) @ ShapeMatrix(rows, (2, 1))
    assert ShapeMatrix(rows, (1, 2)) != ShapeMatrix(rows, (2, 1))


def test_matrices_are_immutable():
    """The matrices and every other value class: a stored slot or a new
    attribute cannot be assigned, and no instance carries a __dict__."""
    values = (
        (CharMatrix(Q_ROWS), "CharMatrix", "rows"),
        (ShapeMatrix(Q_ROWS, (1, 1, 1)), "ShapeMatrix", "rows"),
        (QuadNum(1, 1, 2), "QuadNum", "rad"),
        (RadicalSum([(1, 2), (1, 3)]), "RadicalSum", "_den"),
        (DivisorClass(3, [1, 1]), "DivisorClass", "degree"),
        (MultiplicityProfile(3, [(1, 2)]), "MultiplicityProfile", "blocks"),
        (Ray(DivisorClass(3, [1, 1])), "Ray", "rep"),
    )
    for m, name, slot in values:
        before = getattr(m, slot)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(m, slot, ((1,),))
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            m.extra = 1
        assert getattr(m, slot) is before and not hasattr(m, "__dict__")


@pytest.mark.parametrize("build,name,p", [
    (quadratic_map, "quadratic", 3), (sturm_map, "sturm", 6), (geiser_map, "geiser", 7), (bertini_map, "bertini", 8),
])
def test_homogeneous_builders_refuse_a_wrong_point_count(build, name, p):
    for count in (0, p - 1, p + 1):
        with pytest.raises(ValueError, match=f"^{name} map needs {p} points, got {count}$"):
            build(range(1, count + 1), 10)
        with pytest.raises(ValueError, match=f"^{name} map needs {p} points, got {count}$"):
            build(range(1, count + 1))


@pytest.mark.parametrize("build,points", [
    (quadratic_map, (5, 2, 4)),
    (sturm_map, (7, 1, 2, 3, 5, 6)),
    (geiser_map, range(3, 10)),
    (bertini_map, (9, 1, 2, 3, 4, 5, 6, 8)),
    (lambda points, s=None: jonquieres_map(2, points, s), (6, 1, 2, 3, 4)),
    (lambda points, s=None: double_jonquieres_map(1, points, s), (2, 5, 3, 1)),
])
def test_builders_default_s_to_the_largest_base_point(build, points):
    m = build(points)
    assert m == build(points, max(points)) and m.s == max(points)
    assert m.is_valid()


perms = st.permutations(list(range(1, 7)))


@given(perms)
def test_permutation_matrices_valid(order):
    m = permutation_map(order, 6)
    assert m.is_valid()
    x = DivisorClass(7, [6, 5, 4, 3, 2, 1])
    assert m.apply(x) == DivisorClass(7, [x.mults[i - 1] for i in order])


def _reduce_by_sorting(x: DivisorClass) -> tuple:
    """The reduction steps with the three largest picked by a full sort."""
    d, mults, steps = int(x.degree), [int(m) for m in x.mults], []
    while True:
        i, j, k = sorted(sorted(range(x.s), key=lambda i: (-mults[i], i))[:3])
        if d >= mults[i] + mults[j] + mults[k] or d <= 0:
            return d, tuple(mults), tuple(steps)
        a, b, c = mults[i], mults[j], mults[k]
        d, mults[i], mults[j], mults[k] = 2 * d - a - b - c, d - b - c, d - a - c, d - a - b
        steps.append((i + 1, j + 1, k + 1))


def _top_three(mults: list[int]) -> list[int]:
    """Indices of the three largest entries, ties toward lower indices, in
    increasing order: one pass, no sort of the whole list.  The reference
    for the heap selection of `cremona_reduce`."""
    a, b, c = 0, 1, 2
    ma, mb, mc = mults[0], mults[1], mults[2]
    if mb > ma:
        a, b, ma, mb = b, a, mb, ma
    if mc > mb:
        b, c, mb, mc = c, b, mc, mb
        if mb > ma:
            a, b, ma, mb = b, a, mb, ma
    for i in range(3, len(mults)):
        m = mults[i]
        if m > mc:  # strict: an earlier index keeps a tie
            if m <= mb:
                c, mc = i, m
            elif m <= ma:
                b, c, mb, mc = i, b, m, mb
            else:
                a, b, c, ma, mb, mc = i, a, b, m, ma, mb
    return sorted((a, b, c))


def test_top_three_scan_picks_what_a_full_sort_picks():
    rng = random.Random(2024)
    for _ in range(3000):
        s = rng.choice((3, 4, 5, 8, 13, 50))
        m = [rng.randint(-2, 3) for _ in range(s)]  # few values: many ties
        assert _top_three(m) == sorted(sorted(range(s), key=lambda i: (-m[i], i))[:3])


def test_reduction_steps_match_the_sorting_reducer_on_tied_classes():
    rng = random.Random(7)
    for _ in range(300):
        s = rng.randint(3, 12)
        x = DivisorClass(rng.randint(1, 30), [rng.choice((0, 1, 2, 2, 3, 3, 5)) for _ in range(s)])
        r = cremona_reduce(x)
        d, mults, steps = _reduce_by_sorting(x)
        assert r.steps == steps and r.reduced == DivisorClass(d, mults)


def _reduce_by_scan(x: DivisorClass) -> tuple:
    """The reduction steps with the three largest picked by `_top_three`."""
    d, mults, steps = int(x.degree), [int(m) for m in x.mults], []
    while True:
        i, j, k = _top_three(mults)
        if d >= mults[i] + mults[j] + mults[k] or d <= 0:
            return d, tuple(mults), tuple(steps)
        a, b, c = mults[i], mults[j], mults[k]
        d, mults[i], mults[j], mults[k] = 2 * d - a - b - c, d - b - c, d - a - c, d - a - b
        steps.append((i + 1, j + 1, k + 1))


def test_reduction_steps_match_the_scan_on_thousands_of_points():
    from morirays.families import pencil_profile, primed_pencil_profile

    for x in (pencil_profile(2000, 1).expand(), primed_pencil_profile(300, 3).expand()):
        r = cremona_reduce(x)
        d, mults, steps = _reduce_by_scan(x)
        assert x.s > 600 and len(steps) > 500
        assert r.steps == steps and r.reduced == DivisorClass(d, mults) and r.is_line_pencil
