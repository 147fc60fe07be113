"""Spectra, orbits, rays, and convergence certificates for shape matrices."""

import random
from fractions import Fraction
import math
from math import lcm

import pytest
from hypothesis import given, strategies as st

from morirays import (
    DivisorClass,
    MixedRadicandError,
    MultiplicityProfile,
    QuadNum,
    Ray,
    ShapeMatrix,
    SpectrumError,
    certify_convergence,
    char_poly,
    dominant_ray,
    eigen,
    iterate,
)
from morirays import dynamics, families, verify
from morirays.dynamics import OrbitSizeError
from morirays.families import (
    LINE_SEED,
    PENCIL_SEED,
    alpha,
    even_shape_matrix,
    odd_shape_matrix,
    wonderful_ray,
)

F = Fraction

# char(A_n) = (x-1)^2 (x^2 - (4n-2)x + 1); char(B_n) = (x-1)^2 (x^2 - (7n^2-2)x + 1)
CHAR_POLYS = [
    (odd_shape_matrix(1), (1, -4, 6, -4, 1)),
    (odd_shape_matrix(2), (1, -8, 14, -8, 1)),
    (odd_shape_matrix(3), (1, -12, 22, -12, 1)),
    (even_shape_matrix(1), (1, -7, 12, -7, 1)),
    (even_shape_matrix(2), (1, -28, 54, -28, 1)),
]

# frozen orbit rows for the pencil seed (1, 1, 0, 0)
ORBITS = [
    ("odd", 1, [(1, 1, 0, 0), (9, 5, 4, 2)]),
    ("odd", 2, [(1, 1, 0, 0), (13, 9, 4, 2), (89, 57, 28, 16), (533, 337, 168, 98)]),
    ("odd", 3, [(1, 1, 0, 0), (17, 13, 4, 2)]),
    ("even", 1, [(1, 1, 0, 0), (40, 25, 11, 8), (253, 148, 73, 49), (1279, 739, 372, 246)]),
    ("even", 2, [(1, 1, 0, 0), (83, 61, 18, 15)]),
    ("even", 3, [(1, 1, 0, 0), (140, 111, 25, 22)]),
]

MATRICES = {"odd": odd_shape_matrix, "even": even_shape_matrix}


@pytest.mark.parametrize("m,coeffs", CHAR_POLYS)
def test_char_poly_frozen(m, coeffs):
    assert char_poly(m) == tuple(F(c) for c in coeffs)


@pytest.mark.parametrize("n", range(1, 11))
def test_char_poly_structure(n):
    for m in (odd_shape_matrix(n), even_shape_matrix(n)):
        c = char_poly(m)
        assert c[0] == 1
        assert -c[1] == m.trace()
        assert c[-1] == 1  # det 1: eigenvalues pair into reciprocals
        assert sum(c) == 0  # 1 is always a root


@pytest.mark.parametrize("n", range(2, 11))
def test_spectrum_odd(n):
    d = eigen(odd_shape_matrix(n))
    top = QuadNum(2 * n - 1) + 2 * alpha(n)
    assert d.dominant.value == top
    assert d.dominant.algebraic == 1
    assert d.dominant.value * QuadNum(2 * n - 1, 0, 1).conjugate() != 1  # not forced
    assert (top * (QuadNum(2 * n - 1) - 2 * alpha(n))).to_fraction() == 1
    one = next(e for e in d.eigenvalues if e.value == 1)
    assert (one.algebraic, one.geometric) == (2, 2)
    assert d.residuals_vanish()


@pytest.mark.parametrize("n", range(2, 11))
def test_odd_dominant_value_scale(n):
    # (2n-1) + alpha is NOT an eigenvalue: its reciprocal-pair product misses det 1
    wrong = QuadNum(2 * n - 1) + alpha(n)
    product = wrong * wrong.conjugate()
    assert product.to_fraction() == 3 * n * n - 3 * n + 1 != 1
    good = QuadNum(2 * n - 1) + 2 * alpha(n)
    assert (good * good.conjugate()).to_fraction() == 1
    coeffs = char_poly(odd_shape_matrix(n))
    x = wrong
    acc = QuadNum(0)
    for c in coeffs:
        acc = acc * x + QuadNum(c)
    assert acc != 0  # wrong scale is not a root of the characteristic polynomial


@pytest.mark.parametrize("n", range(1, 11))
def test_spectrum_even(n):
    d = eigen(even_shape_matrix(n))
    beta = QuadNum.sqrt(49 * n * n - 28)
    assert d.dominant.value == (QuadNum(7 * n * n - 2) + n * beta) * F(1, 2)
    assert d.dominant.geometric == 1
    assert d.residuals_vanish()


def test_degenerate_spectra():
    d = eigen(odd_shape_matrix(1))
    assert [(e.value, e.algebraic, e.geometric) for e in d.eigenvalues] == [(QuadNum(1), 4, 2)]
    assert d.dominant_index is None
    with pytest.raises(SpectrumError):
        d.dominant
    ident = ShapeMatrix([[1, 0], [0, 1]], counts=(1,))
    assert eigen(ident).dominant_index is None


def test_spectrum_out_of_reach():
    with pytest.raises(SpectrumError):
        eigen(ShapeMatrix([[0, -1], [1, 0]], counts=(1,)))  # complex pair
    with pytest.raises(SpectrumError):
        eigen(ShapeMatrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]], counts=(1, 1)))  # cube root


def test_eigen_rational_matrix():
    d = eigen(ShapeMatrix([[3, 0], [0, 1]], counts=(1,)))
    assert d.dominant.value == 3
    assert dominant_ray(ShapeMatrix([[3, 0], [0, 1]], counts=(1,))) == Ray(DivisorClass(1, [0]))


@pytest.mark.parametrize("family,n,rows", ORBITS)
def test_orbit_rows(family, n, rows):
    orbit = iterate(MATRICES[family](n), PENCIL_SEED, len(rows) - 1)
    assert list(orbit.terms) == rows
    assert orbit.term(1) == rows[1]
    assert orbit.k_max == len(rows) - 1


def test_orbit_json():
    orbit = iterate(odd_shape_matrix(2), PENCIL_SEED, 2)
    data = orbit.to_json()
    assert data["terms"][1] == [13, 9, 4, 2]
    assert data["seed"] == [1, 1, 0, 0]


@pytest.mark.parametrize("n", range(2, 8))
def test_dominant_ray_matches_closed_form(n):
    assert dominant_ray(odd_shape_matrix(n)) == wonderful_ray("odd", n)


@pytest.mark.parametrize("n", range(1, 8))
def test_dominant_ray_matches_closed_form_even(n):
    assert dominant_ray(even_shape_matrix(n)) == wonderful_ray("even", n)


def test_dominant_ray_requires_dominance():
    with pytest.raises(SpectrumError):
        dominant_ray(odd_shape_matrix(1))


def test_ray_normalization():
    a = Ray(DivisorClass(28, [QuadNum(12, 4, 2)] + [QuadNum(6, 2, 2)] * 4 + [QuadNum(8, -2, 2)] * 6))
    b = Ray(DivisorClass(14, [QuadNum(6, 2, 2)] + [QuadNum(3, 1, 2)] * 4 + [QuadNum(4, -1, 2)] * 6))
    assert a == b and hash(a) == hash(b)
    assert a.rep.degree == 14  # scale divided out, integer content 1
    neg = Ray(DivisorClass(-14, [QuadNum(-6, -2, 2)] + [QuadNum(-3, -1, 2)] * 4 + [QuadNum(-4, 1, 2)] * 6))
    assert neg != a  # a ray is a half-line: the opposite direction is a different ray
    assert Ray(DivisorClass(F(2, 3), [F(1, 3)])) == Ray(DivisorClass(2, [1]))
    with pytest.raises(ValueError):
        Ray(DivisorClass(0, [0, 0]))


def test_ray_rationality_and_witness():
    w = wonderful_ray("odd", 2)
    assert not w.is_rational
    idx, val = w.irrationality_witness()
    assert idx == 1 and val == QuadNum(6, 2, 2)
    r = Ray(DivisorClass(3, [1, 1, 0]))
    assert r.is_rational and r.irrationality_witness() is None
    irr_deg = Ray(DivisorClass(QuadNum(0, 1, 5), [1]))
    assert irr_deg.irrationality_witness()[0] in (0, 1)


def test_ray_uncollide():
    r = Ray(DivisorClass(6, [4, 2]))
    assert r.uncollide(1, 2) == Ray(DivisorClass(6, [2, 2, 2, 2, 2]))
    assert r.uncollide(1, 2).s == 5


def test_ray_json():
    w = wonderful_ray("even", 1)
    data = w.to_json()
    assert data["rational"] is False
    assert Ray(DivisorClass.from_json(data["class"])) == w


def test_convergence_certificate():
    m = odd_shape_matrix(2)
    cert = certify_convergence(m, PENCIL_SEED)
    assert cert.converges
    assert cert.gamma == F(1, 2)
    assert cert.dominant_value == QuadNum(3, 2, 2)
    assert cert.projection_identity_holds()
    assert [(v, a, g) for v, a, g in cert.jordan] == [
        (QuadNum(1), 2, 2),
        (QuadNum(3, 2, 2), 1, 1),
        (QuadNum(3, -2, 2), 1, 1),
    ]
    data = cert.to_json()
    assert data["converges"] is True


def test_convergence_needs_component():
    # seed inside the eigenvalue-1 plane never escapes toward the dominant ray
    cert = certify_convergence(odd_shape_matrix(2), (0, -2, 1, 0))
    assert cert.gamma == 0
    assert not cert.converges
    assert cert.projection_identity_holds()


def test_convergence_requires_dominant():
    with pytest.raises(SpectrumError):
        certify_convergence(odd_shape_matrix(1), LINE_SEED)


@given(st.integers(min_value=1, max_value=10), st.sampled_from(["odd", "even"]),
       st.tuples(*[st.integers(min_value=-5, max_value=5)] * 4))
def test_orbit_linearity(n, family, seed):
    m = MATRICES[family](n)
    base = iterate(m, seed, 3)
    doubled = iterate(m, tuple(2 * x for x in seed), 3)
    assert all(tuple(2 * x for x in a) == b for a, b in zip(base.terms, doubled.terms))
    # matrix power against repeated application
    assert (m @ m).apply(seed) == m.apply(m.apply(seed))


@given(st.integers(min_value=2, max_value=9))
def test_char_poly_annihilates(n):
    # Cayley-Hamilton on the pencil seed
    m = odd_shape_matrix(n)
    coeffs = char_poly(m)
    vecs = [PENCIL_SEED]
    for _ in range(4):
        vecs.append(m.apply(vecs[-1]))
    acc = [F(0)] * 4
    for c, v in zip(coeffs, reversed(vecs)):
        acc = [a + c * x for a, x in zip(acc, v)]
    assert all(a == 0 for a in acc)


# -- rays on multiplicity blocks ------------------------------------------------------


def test_ray_ignores_how_points_are_grouped_into_blocks():
    v = QuadNum(3, 1, 2)
    split = Ray(MultiplicityProfile(14, [(QuadNum(6, 2, 2), 1), (v, 2), (v, 3)]))
    whole = Ray(MultiplicityProfile(28, [(QuadNum(12, 4, 2), 1), (2 * v, 5)]))
    assert split == whole and hash(split) == hash(whole)
    assert split.rep.blocks == ((QuadNum(6, 2, 2), 1), (v, 5))
    assert split.s == 6 and split.irrationality_witness() == (1, QuadNum(6, 2, 2))
    late = MultiplicityProfile(4, [(1, 3), (QuadNum(0, 1, 2), 2)])
    assert Ray(late).irrationality_witness() == Ray(late.expand()).irrationality_witness() == (4, QuadNum(0, 1, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("tag", families.WONDERFUL_TAGS)
def test_ray_of_a_profile_equals_ray_of_its_expansion(tag, n):
    p = families.wonderful_profile(tag, n)
    ray, expanded = Ray(p), Ray(p.expand())
    assert ray == expanded and hash(ray) == hash(expanded)
    assert ray.to_json() == expanded.to_json() and str(ray) == str(expanded)
    assert ray.irrationality_witness() == expanded.irrationality_witness()


def test_ray_json_lists_every_point():
    top = {"a": [6, 1], "b": [2, 1], "rad": 2}
    mid = {"a": [3, 1], "b": [1, 1], "rad": 2}
    low = {"a": [4, 1], "b": [-1, 1], "rad": 2}
    assert wonderful_ray("odd", 2).to_json() == {
        "class": {"degree": 14, "mults": [top] + [mid] * 4 + [low] * 6},
        "rational": False,
    }


def test_dominant_ray_and_certificate_take_a_decomposition():
    m = odd_shape_matrix(2)
    dec = eigen(m)
    assert dominant_ray(dec) == dominant_ray(m)
    assert certify_convergence(dec, PENCIL_SEED) == certify_convergence(m, PENCIL_SEED)


# -- integer elimination against elimination over the field ---------------------------


def _field_kernel(rows):
    """Gauss-Jordan elimination over Q(sqrt N) with QuadNum entries, the
    method the integer kernel replaced; kept as its oracle."""
    n, m = len(rows), len(rows[0])
    R = [row[:] for row in rows]
    pivots, r = [], 0
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
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [QuadNum(0)] * m
        v[fc] = QuadNum(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -R[pr][fc]
        basis.append(tuple(v))
    return basis


def _field_shifted(m, lam, transpose):
    k = m.size
    rows = [[QuadNum(m.rows[j][i] if transpose else m.rows[i][j]) for j in range(k)] for i in range(k)]
    for i in range(k):
        rows[i][i] = rows[i][i] - lam
    return rows


def _triple(lam):
    """(alpha, beta, delta) with lam = (alpha + beta*sqrt(rad)) / delta."""
    delta = lcm(lam.a.denominator, lam.b.denominator)
    return int(lam.a * delta), int(lam.b * delta), delta


def _assert_kernels_agree(m):
    """The stored vectors of every eigenvalue and the left vector against
    field elimination, and the integer kernel of every rational eigenvalue,
    right and left, against it too."""
    deltas = set()
    dec = eigen(m)
    for i, e in enumerate(dec.eigenvalues):
        lam = e.value
        deltas.add(_triple(lam)[2])
        for transpose in (False, True):
            field = _field_kernel(_field_shifted(m, lam, transpose))
            if lam.is_rational:
                shifted = dynamics._shifted(m, lam.to_int())
                rows = [list(row) for row in zip(*shifted)] if transpose else shifted
                assert dynamics._kernel(rows) == field, (m.rows, lam)
            if not transpose:  # the stored vectors, a conjugate pair's included
                assert e.vectors == tuple(field), (m.rows, lam)
            elif i == dec.dominant_index:
                assert [dec.left_vector] == field, (m.rows, lam)
    return deltas


def test_integer_kernel_matches_field_elimination_on_named_cases():
    square = ShapeMatrix([[2, 0, 0], [0, 2, 0], [1, 0, 3]], counts=(1, 1))
    assert [(e.value, e.geometric) for e in eigen(square).eigenvalues] == [(3, 1), (2, 2)]
    _assert_kernels_agree(square)  # rational eigenvalue of geometric multiplicity 2
    pair = ShapeMatrix([[1, 1], [1, -1]], counts=(1,))
    assert {e.value for e in eigen(pair).eigenvalues} == {QuadNum(0, 1, 2), QuadNum(0, -1, 2)}
    _assert_kernels_agree(pair)  # conjugate pair +-sqrt(2), delta 1
    half = ShapeMatrix([[2, 1], [1, 3]], counts=(1,))
    assert eigen(half).dominant.value == QuadNum(F(5, 2), F(1, 2), 5)
    assert _assert_kernels_agree(half) == {2}  # (5 +- sqrt(5)) / 2, delta 2
    for n in (1, 2, 3, 10):
        _assert_kernels_agree(odd_shape_matrix(n))
        _assert_kernels_agree(even_shape_matrix(n))


def test_integer_kernel_matches_field_elimination_on_random_matrices():
    rng = random.Random(7031)
    checked = 0
    deltas = set()
    for _ in range(300):
        k = rng.randint(2, 4)
        rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.3:  # repeated rational eigenvalues with a small shear
            rows = [[rng.choice([1, 2]) if i == j else 0 for j in range(k)] for i in range(k)]
            rows[rng.randrange(k)][rng.randrange(k)] += rng.randint(-2, 2)
        m = ShapeMatrix(rows, counts=[1] * (k - 1))
        try:
            deltas |= _assert_kernels_agree(m)
        except SpectrumError:
            continue
        checked += 1
    assert checked > 100 and deltas == {1, 2}


# -- the left eigenvector -------------------------------------------------------------


def _shape_matrix(tag, n):
    return families.shape_matrix(families.family(tag).parent or tag, n)


def test_left_vector_is_computed_once_per_decomposition(monkeypatch):
    calls = []
    kernel = dynamics._kernel

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(dynamics, "_kernel", counting)
    for tag in families.WONDERFUL_TAGS:
        calls.clear()
        eigen(_shape_matrix(tag, 3))
        alone = len(calls)
        calls.clear()
        assert verify.wonderful_report(tag, 3).valid
        assert len(calls) == alone, tag

    dec = eigen(odd_shape_matrix(2))
    calls.clear()
    for seed in (LINE_SEED, PENCIL_SEED):
        assert certify_convergence(dec, seed).converges
    assert calls == []


@pytest.mark.parametrize("tag", families.WONDERFUL_TAGS)
def test_left_vector_annihilates_the_shifted_matrix(tag):
    for n in range(1, 41):
        m = _shape_matrix(tag, n)
        dec = eigen(m)
        u = dec.left_vector
        if dec.dominant_index is None:
            assert u is None
            continue
        lam = dec.dominant.value
        assert any(u)
        for j in range(m.size):
            column = QuadNum(0)
            for i in range(m.size):
                column = column + u[i] * m.rows[i][j]
            assert column == lam * u[j], (tag, n, j)


# -- sympy as an outside reference ----------------------------------------------------


def test_spectra_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    matrices = {_shape_matrix(tag, n) for tag in families.WONDERFUL_TAGS for n in range(1, 31)}
    assert len(matrices) == 60
    for m in matrices:
        M = sympy.Matrix(m.rows)
        assert list(char_poly(m)) == M.charpoly(x).all_coeffs()
        ours = {
            sympy.Rational(e.value.a.numerator, e.value.a.denominator)
            + sympy.Rational(e.value.b.numerator, e.value.b.denominator) * sympy.sqrt(e.value.rad): e.algebraic
            for e in eigen(m).eigenvalues
        }
        theirs = {sympy.expand(v): mult for v, mult in M.eigenvals().items()}
        assert ours == theirs, m.rows


coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@given(st.lists(st.tuples(coefficients, coefficients, st.integers(1, 3)), min_size=1, max_size=5),
       st.sampled_from([2, 3, 6]), st.fractions(min_value=F(1, 7), max_value=9, max_denominator=7))
def test_ray_representative_is_primitive_and_scale_free(blocks, rad, scale):
    p = MultiplicityProfile(QuadNum(blocks[0][1], blocks[0][0], rad),
                            [(QuadNum(a, b, rad), c) for a, b, c in blocks])
    if not any((p.degree,) + p.values):
        return
    ray = Ray(p)
    parts = [(QuadNum(c) if isinstance(c, int) else c).ints for c in (ray.rep.degree,) + ray.rep.values]
    assert all(den == 1 for _, _, den in parts)
    assert math.gcd(*(x for a, b, _ in parts for x in (a, b))) == 1
    assert Ray(p.scale(scale)) == ray == Ray(p.scale(QuadNum(scale, 1, rad) * QuadNum(scale, 1, rad)))


# -- eigenvectors of simple eigenvalues by projection -------------------------------


def _random_matrices():
    """The matrices of test_integer_kernel_matches_field_elimination_on_random_matrices."""
    rng = random.Random(7031)
    for _ in range(300):
        k = rng.randint(2, 4)
        rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.3:
            rows = [[rng.choice([1, 2]) if i == j else 0 for j in range(k)] for i in range(k)]
            rows[rng.randrange(k)][rng.randrange(k)] += rng.randint(-2, 2)
        yield ShapeMatrix(rows, counts=[1] * (k - 1))


def _decompositions():
    """(matrix, decomposition) for the random matrices and the six families at n = 1..40."""
    matrices = list(_random_matrices())
    matrices += [_shape_matrix(tag, n) for tag in families.WONDERFUL_TAGS for n in range(1, 41)]
    for m in matrices:
        try:
            yield m, eigen(m)
        except SpectrumError:
            continue


def test_elimination_runs_only_for_repeated_eigenvalues(monkeypatch):
    calls = []
    kernel = dynamics._kernel

    def counting(rows):
        calls.append(rows)
        return kernel(rows)

    monkeypatch.setattr(dynamics, "_kernel", counting)
    repeated = simple = left = 0
    for m, dec in _decompositions():
        expected = [dynamics._shifted(m, e.value.to_int()) for e in dec.eigenvalues if e.algebraic >= 2]
        assert calls == expected, m.rows
        calls.clear()
        repeated += len(expected)
        simple += sum(e.algebraic == 1 for e in dec.eigenvalues)
        left += dec.left_vector is not None
    assert repeated > 300 and simple > 300 and left > 300


def test_left_vector_is_the_kernel_basis_vector():
    deltas = set()
    for m, dec in _decompositions():
        if dec.dominant_index is None:
            assert dec.left_vector is None
            continue
        lam = dec.dominant.value
        deltas.add(_triple(lam)[2])
        assert [dec.left_vector] == _field_kernel(_field_shifted(m, lam, True)), m.rows
    assert deltas == {1, 2}


def test_projection_of_a_one_by_one_matrix():
    dec = eigen(ShapeMatrix([[5]], counts=()))
    assert dec.eigenvalues[0].vectors == ((QuadNum(1),),) and dec.left_vector == (QuadNum(1),)


def _quad_dot(u, v):
    acc = QuadNum(0)
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


small = st.integers(-60, 60)
fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def dot_entries(rad):
    """Ints, rationals and elements of Q(sqrt(rad)), eigenvalue-like halves included."""
    return st.one_of(
        small,
        fractions.map(QuadNum),
        st.builds(QuadNum, fractions, fractions, st.just(rad)),
        st.builds(lambda a, b: QuadNum(F(a, 2), F(b, 2), rad), small, small),
    )


@given(st.sampled_from([2, 3, 5, 6, 21]).flatmap(
    lambda rad: st.tuples(st.lists(dot_entries(rad), max_size=6), st.lists(dot_entries(rad), max_size=6))))
def test_int_dot_matches_the_quadnum_sum(uv):
    u, v = uv
    got = dynamics._dot(u, v)
    assert type(got) is QuadNum and got == _quad_dot(u, v)


@given(st.lists(st.one_of(dot_entries(2), dot_entries(3)), max_size=5),
       st.lists(st.one_of(dot_entries(2), dot_entries(3)), max_size=5))
def test_int_dot_refuses_two_radicands(u, v):
    n = min(len(u), len(v))
    rads = {x.rad for x in u[:n] + v[:n] if type(x) is QuadNum} - {1}
    if len(rads) > 1:
        with pytest.raises(MixedRadicandError):
            dynamics._dot(u, v)
    else:
        assert dynamics._dot(u, v) == _quad_dot(u, v)


def test_int_dot_edge_cases():
    r2, r3 = QuadNum(0, 1, 2), QuadNum(0, 1, 3)
    with pytest.raises(MixedRadicandError):
        dynamics._dot([r2, r3], [1, 1])
    assert dynamics._dot([], []) == 0 and dynamics._dot([QuadNum(F(1, 2))], [3, 4]) == F(3, 2)


# -- orbits with a size bound ----------------------------------------------------------


def test_iterate_stops_at_the_first_term_that_reaches_the_bound():
    m = odd_shape_matrix(2)
    terms = iterate(m, PENCIL_SEED, 6).terms
    for k in range(7):
        peak = max(map(abs, terms[k]))
        for bound in (peak, peak + 1, 1 << (peak.bit_length() - 1), 1 << peak.bit_length()):
            first = next((j for j, t in enumerate(terms) if max(map(abs, t)) >= bound), None)
            if first is None:
                assert iterate(m, PENCIL_SEED, 6, bound).terms == terms
                continue
            with pytest.raises(OrbitSizeError) as e:
                iterate(m, PENCIL_SEED, 6, bound)
            assert e.value.k == first and isinstance(e.value, ValueError)
    assert iterate(m, (-3, 0, 0, 0), 0, 4).terms == ((-3, 0, 0, 0),)
    with pytest.raises(OrbitSizeError):
        iterate(m, (-4, 0, 0, 0), 0, 4)


@pytest.mark.parametrize("bound", [0, -1, -(1 << 70)])
def test_iterate_with_a_bound_of_zero_or_less_stops_at_the_seed(bound):
    # an absolute value is >= 0, so even the zero seed reaches any bound <= 0
    with pytest.raises(OrbitSizeError) as e:
        iterate(odd_shape_matrix(2), (0, 0, 0, 0), 3, bound)
    assert e.value.k == 0
