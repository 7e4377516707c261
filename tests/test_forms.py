import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieforge import (
    KForm,
    LieAlgebra,
    builtin,
    ce_differential,
    check_contact,
    kirillov_form,
    radical,
)
from lieforge.algebra import Subspace
from lieforge.forms import _dalpha, _top_contact, evaluation_sign, sort_index_tuple
from lieforge.linalg import vector

from conftest import (
    conjugate_algebra,
    conjugate_one_form,
    heisenberg_plus_abelian,
    mat_inverse,
    random_invertible,
    random_jacobi_algebra,
    random_kform,
    random_one_form,
    shuffle_wedge_eval,
)
from strategies import BIG_RATIONALS, antisymmetric_algebras, rational_vectors
from structures_oracle import wedge, wedge_power

H3 = builtin("h3").algebra
D4 = builtin("d4half").algebra
G0 = builtin("g0").algebra
E3_H3 = KForm.basis_one_form(3, 2)
E3_D4 = KForm.basis_one_form(4, 2)


def top_contact_test(g, alpha):
    """The top-form test that check_contact runs, on an odd-dimensional g."""
    coords = tuple(alpha.coeff((i,)) for i in range(g.dim))
    return _top_contact(coords, *_dalpha(g, coords))[0]


def test_differential_of_e3_on_h3():
    d = ce_differential(H3, E3_H3)
    assert d.coeff((0, 1)) == -1
    assert d.coeffs == (((0, 1), Fraction(-1)),)


def test_differential_of_e3_on_d4half():
    d = ce_differential(D4, E3_D4)
    assert d.coeff((0, 1)) == -1
    assert d.coeff((2, 3)) == 1
    assert len(d.coeffs) == 2


def test_wedge_determinant_convention():
    e1 = KForm.basis_one_form(2, 0)
    e2 = KForm.basis_one_form(2, 1)
    w = wedge(e1, e2)
    assert w.evaluate((vector([1, 0]), vector([0, 1]))) == 1
    assert wedge(e1, e1).is_zero()


def test_paper_convention_sign():
    # interior-product convention flips degree-2 evaluations
    assert evaluation_sign(2, "paper") == -1
    assert evaluation_sign(1, "paper") == 1
    assert evaluation_sign(3, "paper") == -1
    assert evaluation_sign(4, "paper") == 1
    assert evaluation_sign(5, "paper") == 1
    with pytest.raises(ValueError):
        evaluation_sign(2, "other")


def test_radical_examples():
    b = kirillov_form(H3, E3_H3)
    assert radical(H3, b) == Subspace.from_vectors(3, (H3.basis_vector(2),))
    assert radical(H3, KForm.zero(3, 2)) == Subspace.full(3)
    omega = ce_differential(D4, E3_D4).neg()
    assert radical(D4, omega).dim == 0


def test_radical_rank_nullity():
    rng = random.Random(23)
    from conftest import random_two_form
    from lieforge.linalg import rref

    for _ in range(30):
        g = random_jacobi_algebra(rng, rng.randint(2, 6))
        b = random_two_form(rng, g.dim)
        rad = radical(g, b)
        _, pivots = rref(b.as_matrix())
        assert len(pivots) + rad.dim == g.dim
        for v in rad.rows:
            for j in range(g.dim):
                assert b.evaluate((v, g.basis_vector(j))) == 0


def test_top_contact_h3():
    res = top_contact_test(H3, E3_H3)
    assert res.holds and res.coefficient == -1


def test_top_contact_abelian_fails():
    res = top_contact_test(LieAlgebra.abelian(3), KForm.basis_one_form(3, 2))
    assert not res.holds and res.coefficient == 0


def test_top_contact_even_dimension():
    # check_contact stops at the dimension and never reaches the top-form test
    report, structure = check_contact(D4, E3_D4)
    assert [(item.name, item.passed, item.witness) for item in report.items] == [("odd_dimension", False, "dim = 4")]
    assert structure is None


def test_top_contact_g0_via_shuffle_oracle():
    alpha = KForm.one_form(5, [0, 0, 1, 0, 1])
    res = top_contact_test(G0, alpha)
    assert res.holds
    da = ce_differential(G0, alpha)
    two = wedge(da, da)
    vectors = [G0.basis_vector(i) for i in range(5)]
    oracle = shuffle_wedge_eval(alpha, two, vectors)
    assert oracle == res.coefficient
    # and the inner wedge agrees with its own shuffle expansion
    probe = [G0.basis_vector(i) for i in (0, 1, 2, 3)]
    assert shuffle_wedge_eval(da, da, probe) == two.evaluate(probe)


# --- the Pfaffian contact test against the wedge-power oracle ----------------


def wedge_top_coefficient(g, alpha):
    """Top coefficient of alpha ^ (d alpha)^n by expanding the wedge power."""
    n = (g.dim - 1) // 2
    top = wedge(alpha, wedge_power(ce_differential(g, alpha), n))
    return top.coeff(tuple(range(g.dim)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 3, 5, 7, 9]), st.booleans())
def test_top_contact_matches_wedge_oracle(seed, dim, zero):
    rng = random.Random(seed)
    g = random_jacobi_algebra(rng, dim)
    alpha = KForm.zero(dim, 1) if zero else random_one_form(rng, dim)
    res = top_contact_test(g, alpha)
    assert res.coefficient == wedge_top_coefficient(g, alpha)
    assert res.holds == (res.coefficient != 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.data())
def test_top_contact_matches_wedge_oracle_on_conjugated_heisenberg(seed, m, data):
    # k < m gives h_{2k+1} + R^{2(m-k)}, where (d alpha)^m = 0: coefficient 0
    k = data.draw(st.integers(0, m))
    rng = random.Random(seed)
    base = heisenberg_plus_abelian(k, 2 * (m - k))
    p = random_invertible(rng, base.dim)
    g = conjugate_algebra(base, p, mat_inverse(p))
    z_star = conjugate_one_form(KForm.basis_one_form(base.dim, 2 * k), p)
    alpha = z_star if data.draw(st.booleans()) else random_one_form(rng, g.dim)
    res = top_contact_test(g, alpha)
    assert res.coefficient == wedge_top_coefficient(g, alpha)
    if k < m:
        assert res.coefficient == 0 and not res.holds
    elif alpha is z_star:
        assert res.holds


small_dims = st.integers(min_value=1, max_value=5)


@st.composite
def algebra_and_form(draw, max_degree=None):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    dim = draw(small_dims)
    g = random_jacobi_algebra(rng, dim)
    degree = draw(st.integers(min_value=0, max_value=max_degree if max_degree is not None else dim))
    return g, random_kform(rng, g.dim, degree)


@settings(max_examples=60, deadline=None)
@given(algebra_and_form())
def test_differential_squares_to_zero(data):
    g, form = data
    assert ce_differential(g, ce_differential(g, form)).is_zero()


@settings(max_examples=60, deadline=None)
@given(algebra_and_form(max_degree=1))
def test_kirillov_is_minus_differential(data):
    g, form = data
    if form.degree != 1:
        form = random_one_form(random.Random(0), g.dim)
    assert kirillov_form(g, form) == ce_differential(g, form).neg()


@st.composite
def form_pair(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    dim = draw(st.integers(min_value=1, max_value=6))
    p = draw(st.integers(min_value=0, max_value=dim))
    q = draw(st.integers(min_value=0, max_value=dim))
    return random_kform(rng, dim, p), random_kform(rng, dim, q), rng


@settings(max_examples=60, deadline=None)
@given(form_pair())
def test_wedge_graded_commutative_and_shuffle(data):
    a, b, rng = data
    ab = wedge(a, b)
    ba = wedge(b, a)
    sign = -1 if (a.degree * b.degree) % 2 else 1
    assert ab == ba.scale(sign)
    if ab.degree <= a.dim:
        vectors = [
            vector([rng.randint(-2, 2) for _ in range(a.dim)]) for _ in range(ab.degree)
        ]
        assert ab.evaluate(vectors) == shuffle_wedge_eval(a, b, vectors)


@settings(max_examples=40, deadline=None)
@given(form_pair(), st.integers(min_value=0, max_value=10_000))
def test_wedge_associative(data, seed):
    a, b, _ = data
    c = random_kform(random.Random(seed), a.dim, min(a.dim, 2))
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_power_of_symplectic():
    omega = KForm.two_form(4, {(0, 1): 1, (2, 3): -1})
    top = wedge_power(omega, 2)
    assert top.coeff((0, 1, 2, 3)) == -2


def test_sort_index_tuple_signs_permutations_and_zeroes_repeats():
    assert sort_index_tuple(()) == (1, ())
    assert sort_index_tuple((0, 1, 2)) == (1, (0, 1, 2))
    assert sort_index_tuple((1, 0, 2)) == (-1, (0, 1, 2))
    assert sort_index_tuple((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_index_tuple((3, 1)) == (-1, (1, 3))
    for repeated in [(1, 1), (0, 2, 0), (2, 1, 2, 3)]:
        assert sort_index_tuple(repeated) == (0, ())
    omega = KForm.two_form(3, {(0, 1): 2, (1, 2): -1})
    assert omega.value_on_basis((0, 1)) == 2 and omega.value_on_basis((1, 0)) == -2
    assert omega.value_on_basis((2, 1)) == 1
    assert omega.value_on_basis((1, 1)) == 0 and omega.value_on_basis((0, 0)) == 0
    rng = random.Random(17)
    for _ in range(30):
        form = random_kform(rng, 5, 3)
        idxs = tuple(rng.randrange(5) for _ in range(3))
        vectors = [vector([int(i == k) for i in range(5)]) for k in idxs]
        assert form.value_on_basis(idxs) == form.evaluate(vectors)


def test_kform_evaluation_is_alternating():
    rng = random.Random(51)
    for _ in range(30):
        dim = rng.randint(2, 6)
        degree = rng.randint(2, dim)
        form = random_kform(rng, dim, degree)
        vectors = [
            vector([rng.randint(-2, 2) for _ in range(dim)]) for _ in range(degree)
        ]
        base = form.evaluate(vectors)
        swapped = list(vectors)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert form.evaluate(swapped) == -base
        assert form.evaluate([vectors[0], vectors[0]] + vectors[2:]) == 0


def test_kform_constructor_validation():
    with pytest.raises(ValueError):
        KForm(3, 2, (((0, 0), Fraction(1)),))  # repeated index
    with pytest.raises(ValueError):
        KForm(3, 2, (((1, 0), Fraction(1)),))  # not increasing
    with pytest.raises(ValueError):
        KForm(3, 2, (((0, 1), Fraction(0)),))  # zero coefficient kept
    with pytest.raises(ValueError):
        KForm(3, 1, (((4,), Fraction(1)),))  # index out of range
    # from_coeffs normalizes instead of raising
    assert KForm.from_coeffs(3, 2, {(0, 1): 0}).is_zero()


@pytest.mark.parametrize("value", [0.1, 1.0, True, "1/2", None, 1j])
def test_kform_refuses_inexact_coefficients(value):
    # a float would otherwise reach the solvers as its binary expansion
    with pytest.raises(TypeError, match="bool is not a scalar" if value is True else "not an exact scalar"):
        KForm(3, 1, (((2,), value),))
    assert KForm(3, 1, (((2,), 2),)).coeff((2,)) == 2 == KForm(3, 1, (((2,), Fraction(2)),)).coeff((2,))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dalpha_matches_ce_differential(data):
    # any antisymmetric table, Lie or not, and 1-forms over mixed denominators
    g = data.draw(antisymmetric_algebras(values=BIG_RATIONALS))
    coords = data.draw(rational_vectors(g.dim, BIG_RATIONALS))
    da, den = _dalpha(g, coords)
    expected = ce_differential(g, KForm.one_form(g.dim, coords)).as_matrix()
    assert tuple(tuple(Fraction(x, den) for x in row) for row in da) == expected


def test_differential_matches_pointwise_definition():
    # (dw)(x0..xk) = sum_{i<j} (-1)^(i+j) w([xi,xj], x0..^i..^j..xk)
    # evaluated on arbitrary vectors, independent of the coefficient path
    from itertools import combinations

    from lieforge import bracket

    rng = random.Random(99)
    for _ in range(25):
        g = random_jacobi_algebra(rng, rng.randint(2, 5))
        k = rng.randint(1, g.dim - 1)
        form = random_kform(rng, g.dim, k)
        d = ce_differential(g, form)
        vectors = [
            vector([rng.randint(-2, 2) for _ in range(g.dim)]) for _ in range(k + 1)
        ]
        expected = Fraction(0)
        for i, j in combinations(range(k + 1), 2):
            sign = -1 if (i + j) % 2 else 1
            rest = [vectors[t] for t in range(k + 1) if t not in (i, j)]
            expected += sign * form.evaluate([bracket(g, vectors[i], vectors[j])] + rest)
        assert d.evaluate(vectors) == expected
