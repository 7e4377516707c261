import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lieforge import (
    LieAlgebra,
    Subspace,
    builtin,
    center,
    check_jacobi,
)
from lieforge.algebra import _bracket_ints
from lieforge.extensions import is_cocycle
from lieforge.forms import KForm
from lieforge.linalg import clear_denominators, det, identity, matrix, slot_width, vector, vector_over
from lieforge.report import CheckReport, DimensionMismatch, LieforgeError, ok
from lieforge.structures import check_kahler

import algebra_oracle as oracle
from algebra_oracle import adjoint
import linalg_oracle
from forms_oracle import evaluate
import structures_oracle
from conftest import (
    conjugate_algebra,
    conjugate_map,
    conjugate_one_form,
    conjugate_two_form,
    heisenberg_plus_abelian,
    mat_inverse,
    random_invertible,
    random_jacobi_algebra,
)
from strategies import (
    BIG_RATIONALS,
    RATIONALS,
    SEEDS,
    antisymmetric_algebras,
    bracket_tables,
    conjugated_heisenberg_sasakian,
    dense_antisymmetric_algebras,
    lie_or_not,
    rational_vectors,
)

H3 = builtin("h3").algebra
D4 = builtin("d4half").algebra


def bracket(g, x, y):
    """[x, y] from the integer kernel: ``_bracket_ints`` of x and y cleared of their denominators,
    over D times theirs, D that of the structure constants."""
    xs, dx = clear_denominators(x)
    ys, dy = clear_denominators(y)
    return vector_over(_bracket_ints(g, xs, ys), g._integer_terms[0] * dx * dy)


def test_bracket_h3():
    e1, e2 = H3.basis_vector(0), H3.basis_vector(1)
    assert bracket(H3, e1, e2) == H3.basis_vector(2)


def test_bracket_antisymmetry_on_itself():
    rng = random.Random(3)
    for _ in range(20):
        g = random_jacobi_algebra(rng, rng.randint(2, 5))
        x = vector([rng.randint(-2, 2) for _ in range(g.dim)])
        assert bracket(g, x, x) == (Fraction(0),) * g.dim


def test_bracket_d4half_weights():
    # [e4, e1] = e1/2 and [e4, e3] = e3
    e4 = D4.basis_vector(3)
    assert bracket(D4, e4, D4.basis_vector(0)) == vector(["1/2", 0, 0, 0])
    assert bracket(D4, e4, D4.basis_vector(2)) == vector([0, 0, 1, 0])


def test_check_jacobi_passes():
    assert check_jacobi(LieAlgebra.abelian(3)).overall
    assert check_jacobi(H3).overall


def test_check_jacobi_failure_with_witness():
    bad = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    report = check_jacobi(bad)
    assert not report.overall
    assert report.items[0].name == "jacobi(e1,e2,e3)"
    # the witness triple reproduces a nonzero cyclic sum through bracket
    assert oracle.packed_jacobi_residual(bad, 0, 1, 2) == vector([0, 0, -1])


def test_adjoint_examples():
    assert adjoint(LieAlgebra.abelian(2), vector([1, 1])) == matrix([[0, 0], [0, 0]])
    ad1 = adjoint(H3, H3.basis_vector(0))
    assert ad1 == matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    ad4 = adjoint(D4, D4.basis_vector(3))
    assert ad4 == matrix(
        [["1/2", 0, 0, 0], [0, "1/2", 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]
    )


def test_center_examples():
    assert center(H3) == Subspace(3, (H3.basis_vector(2),))
    assert center(D4).dim == 0
    assert center(LieAlgebra.abelian(4)) == Subspace(4, identity(4))


def test_a_subspace_refuses_rows_of_another_width():
    # the constructor checks the width of every row first, then their entries and their form
    with pytest.raises(DimensionMismatch):
        Subspace(3, identity(2))
    with pytest.raises(DimensionMismatch):
        Subspace(2, (vector([1, 0]), vector([0, 1, 0])))
    assert Subspace(3, ()).dim == 0 and Subspace(2, identity(2)).dim == 2


def test_a_subspace_refuses_a_basis_out_of_reduced_form():
    # a dependent basis would count 2 for a line, and another basis of the plane would compare unequal
    with pytest.raises(ValueError, match="row 2 "):
        Subspace(2, ((1, 0), (2, 0)))
    with pytest.raises(ValueError, match="row 2 "):
        Subspace(2, ((1, 1), (1, 0)))
    with pytest.raises(ValueError, match="row 2 "):
        Subspace(2, ((1, 1), (0, 1)))  # row 1 is not 0 at the pivot of row 2
    with pytest.raises(ValueError, match="row 1 "):
        Subspace(2, ((2, 0),))  # a first nonzero entry that is not 1
    with pytest.raises(ValueError, match="row 1 "):
        Subspace(2, ((0, 0),))
    with pytest.raises(ValueError, match="row 2 "):
        Subspace(3, ((0, 1, 0), (1, 0, 0)))  # pivots out of order
    with pytest.raises(TypeError, match="not an exact scalar"):
        Subspace(2, ((1.0, 0),))
    with pytest.raises(TypeError, match="not an exact scalar"):
        Subspace(2, ((True, False),))
    assert Subspace(3, ((1, 2, 0), (0, 0, 1))).dim == 2


@st.composite
def algebras_with_centers(draw):
    """h_{2k+1} + R^r moved to a random rational basis (center of dimension r+1, up to
    dimension 10, so that the center system is tall), or any antisymmetric tensor."""
    if draw(st.booleans()):
        return draw(antisymmetric_algebras(max_dim=9))
    k, r = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    g = heisenberg_plus_abelian(k, r)
    p = random_invertible(random.Random(draw(st.integers(0, 10**6))), g.dim)
    return conjugate_algebra(g, p, mat_inverse(p))


@settings(max_examples=30, deadline=None)
@given(algebras_with_centers())
def test_center_matches_oracle(g):
    assert center(g) == oracle.center(g)


def test_structure_constants_antisymmetric_completion():
    g = LieAlgebra(2, {(0, 1): {0: "1/2"}})
    assert oracle.dense_c(g)[1][0][0] == Fraction(-1, 2)
    with pytest.raises(ValueError):
        LieAlgebra(2, {(1, 0): {0: 1}})


def test_constructor_rejects_invalid_tables():
    cases = [
        (3, {(1, 0): {2: 1}}, None, ValueError),  # i > j
        (3, {(1, 1): {2: 1}}, None, ValueError),  # i = j
        (3, {(0, 3): {2: 1}}, None, ValueError),  # j out of range
        (3, {(-1, 1): {2: 1}}, None, ValueError),  # i out of range
        (3, {(0, 1): {3: 1}}, None, ValueError),  # target out of range
        (3, {(0, 1): {-1: 1}}, None, ValueError),
        (3, {}, ("a", "b"), DimensionMismatch),  # wrong label count
        (2, {}, ("a", "b", "c"), DimensionMismatch),
        (3, {(0, 1): {2: 1}}, ("a", "a", "b"), LieforgeError),  # a witness jacobi(a,a,b) would be ambiguous
        (0, {}, (), ValueError),
        (-1, {}, None, ValueError),
        (3, {(0, 1): {2: True}}, None, TypeError),
        (3, {(0, 1): {2: 0.5}}, None, TypeError),
        (3, {(0, 1): {2: 0.0}}, None, TypeError),  # an inexact zero is rejected, not dropped
    ]
    for dim, brackets, labels, error in cases:
        with pytest.raises(error):
            LieAlgebra(dim, brackets, labels)


@pytest.mark.parametrize(
    "brackets, message",
    [
        ([((0, 1), {2: 1}), ((0, 1), {2: 5})], "bracket (0,1) given twice"),
        ([((0, 1), [(2, 1), (2, 3)])], "target index 2 given twice in bracket (0,1)"),
    ],
    ids=["pair", "target"],
)
def test_constructor_refuses_repeated_input(brackets, message):
    # as parse_algebra does, a repeat is refused rather than the last value kept
    with pytest.raises(LieforgeError) as err:
        LieAlgebra(3, brackets)
    assert str(err.value) == message

@settings(max_examples=60, deadline=None)
@given(bracket_tables(values=BIG_RATIONALS), SEEDS)
def test_table_is_canonical_and_matches_dense_oracle(table, seed):
    dim, brackets = table
    g = LieAlgebra(dim, brackets)
    # the same brackets in another order, with every missing coefficient given as an explicit 0
    rng = random.Random(seed)
    zeros = [(k, 0) for k in range(dim)]
    items = [(pair, [*coeffs.items(), *(z for z in zeros if z[0] not in coeffs)]) for pair, coeffs in brackets.items()]
    rng.shuffle(items)
    for _, entries in items:
        rng.shuffle(entries)
    shuffled = LieAlgebra(dim, {pair: dict(entries) for pair, entries in items})
    assert shuffled == g and hash(shuffled) == hash(g) and shuffled.brackets == g.brackets
    assert LieAlgebra.from_brackets(dim, g.brackets, g.labels) == g
    assert all(x for _, entries in g.brackets for _, x in entries)
    c = oracle.dense_tensor(dim, brackets)
    assert oracle.dense_c(g) == c and g._integer_terms == oracle.integer_terms(c)


def assert_derived_views_match_oracle(g):
    assert g._integer_terms == oracle.integer_terms(oracle.dense_c(g))


@settings(max_examples=40, deadline=None)
@given(st.one_of(antisymmetric_algebras(), dense_antisymmetric_algebras(), lie_or_not()))
def test_derived_views_match_dense_oracle(g):
    assert_derived_views_match_oracle(g)


def test_dense_h13_views_match_oracle_without_fraction_negation(monkeypatch):
    g = conjugated_heisenberg_sasakian(6, 1)[0]
    assert_derived_views_match_oracle(g)
    brackets = {pair: dict(entries) for pair, entries in dict(g.brackets).items()}
    negations = []
    negate = Fraction.__neg__

    def counted(x):
        negations.append(x)
        return negate(x)

    monkeypatch.setattr(Fraction, "__neg__", counted)
    h = LieAlgebra(13, brackets)
    h._integer_terms
    assert h == g and len(negations) == 0


def test_adjoint_is_derivation_on_random_algebras():
    from lieforge import is_derivation

    rng = random.Random(5)
    for _ in range(20):
        g = random_jacobi_algebra(rng, rng.randint(2, 5))
        x = vector([rng.choice([-1, 0, 1, 2]) for _ in range(g.dim)])
        assert is_derivation(g, adjoint(g, x)).overall


def test_jacobi_witnesses_reproduce_cyclic_sums():
    # random antisymmetric tables: every reported triple has a nonzero
    # cyclic sum when re-expanded through bracket
    rng = random.Random(8)
    seen_failures = 0
    for _ in range(40):
        dim = rng.randint(3, 4)
        table = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                entry = {k: rng.randint(-2, 2) for k in range(dim)}
                entry = {k: v for k, v in entry.items() if v}
                if entry:
                    table[(i, j)] = entry
        g = LieAlgebra(dim, table)
        report = check_jacobi(g)
        if report.overall:
            continue
        seen_failures += 1
        for item in report.items:
            inside = item.name[len("jacobi(") : -1].split(",")
            idxs = tuple(int(label[1:]) - 1 for label in inside)
            residual = oracle.packed_jacobi_residual(g, *idxs)
            assert any(x != 0 for x in residual)
    assert seen_failures >= 10


# --- the integer kernels against the Fraction expansion oracle ---------------
#
# Tuple equality of Fractions and of CheckReports: the fast path must give the
# oracle's exact values and the same item names and witness strings.


def vectors(dim):
    return st.one_of(st.just((Fraction(0),) * dim), st.tuples(*[RATIONALS] * dim))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bracket_matches_oracle(data):
    g = data.draw(lie_or_not())
    x, y = data.draw(vectors(g.dim)), data.draw(vectors(g.dim))
    assert bracket(g, x, y) == oracle.bracket(g, x, y)


def assert_jacobi_matches_oracle(g):
    """check_jacobi item by item (names and witness strings), and every residual, repeats included,
    against both the Fraction expansion and the unpacked integer loop."""
    assert check_jacobi(g) == oracle.check_jacobi(g)
    packed = oracle.packed_jacobi_residuals(g)
    for i, j, k in product(range(g.dim), repeat=3):
        acc, den = oracle.jacobi_residual_ints(g, i, j, k)
        assert packed[(i, j, k)] == oracle.jacobi_residual(g, i, j, k) == vector_over(acc, den)


@settings(max_examples=150, deadline=None)
@given(lie_or_not())
def test_jacobi_matches_oracle(g):
    assert_jacobi_matches_oracle(g)


@settings(max_examples=100, deadline=None)
@given(antisymmetric_algebras(values=BIG_RATIONALS))
def test_jacobi_large_constants_match_oracle(g):
    # up to 10^40 over mixed denominators: wide slots and a large common denominator D
    assert_jacobi_matches_oracle(g)


@settings(max_examples=40, deadline=None)
@given(dense_antisymmetric_algebras())
def test_jacobi_many_failing_triples_match_oracle(g):
    assert_jacobi_matches_oracle(g)


@settings(max_examples=40, deadline=None)
@given(antisymmetric_algebras(max_dim=2, values=BIG_RATIONALS))
def test_jacobi_without_triples(g):
    assert check_jacobi(g) == CheckReport((ok("jacobi_all_triples"),))
    assert_jacobi_matches_oracle(g)


# [e_i, e_j] = M * TIGHT_JACOBI[(i, j)]: the cyclic sum of (e2,e3,e4) has a coordinate 9*M^2 of
# the 3*n*M^2 = 12*M^2 the slots are sized for, beyond the 8*M^2 a slot one bit narrower holds
TIGHT_JACOBI = {
    (0, 1): {0: -1, 2: -1},
    (0, 2): {0: -1, 3: 1},
    (0, 3): {0: -1, 2: -1, 3: -1},
    (1, 2): {0: -1, 1: 1, 2: -1, 3: 1},
    (1, 3): {0: 1, 1: 1, 3: -1},
    (2, 3): {0: -1, 1: 1, 2: 1, 3: -1},
}


# a negative scale flips the sign of each packed C_ij, i < j, and of its negation stored at (j, i)
@pytest.mark.parametrize("scale", [Fraction(1), Fraction(-1), Fraction(-(2**130), 7), Fraction(3**90, 11)])
def test_jacobi_slot_width_boundary(scale):
    g = LieAlgebra(4, {p: {k: x * scale for k, x in v.items()} for p, v in TIGHT_JACOBI.items()})
    big = scale.numerator**2
    acc, _ = oracle.jacobi_residual_ints(g, 1, 2, 3)
    assert max(map(abs, acc)) == 9 * big >= 2 ** (slot_width(12 * big) - 2)
    assert_jacobi_matches_oracle(g)


# [e_a, e_b] = M * (e_1 + ... + e_n) for a < b and theta(e_a, e_b) = T for a < b. Then block k of
# the pair contraction S_ab is D^2 [[e_a, e_b], e_k] = M^2 (2k - n + 1) in every coordinate, and its
# slot k for theta is M T (2k - n + 1): blocks 0 and n-1 sit at -/+(n-1)M^2 and -/+(n-1)MT, the
# largest a single cyclic term reaches, in every coordinate. For n = 3 every cyclic sum cancels.
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize(
    "m, t",
    [
        (Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(-1)),
        (Fraction(-(2**130), 7), Fraction(3**80, 11)),
        (Fraction(2**130, 7), Fraction(-(3**80), 11)),
    ],
)
def test_cyclic_blocks_at_bound(n, m, t):
    g = LieAlgebra(n, {(a, b): dict.fromkeys(range(n), m) for a in range(n) for b in range(a + 1, n)})
    theta = KForm.two_form(n, {(a, b): t for a in range(n) for b in range(a + 1, n)})
    c01 = oracle.dense_c(g)[0][1]
    assert oracle.bracket(g, c01, g.basis_vector(n - 1)) == ((n - 1) * m * m,) * n
    assert oracle.bracket(g, c01, g.basis_vector(0)) == (-(n - 1) * m * m,) * n
    assert evaluate(theta, (c01, g.basis_vector(n - 1))) == (n - 1) * m * t
    assert check_jacobi(g).overall == (n == 3)
    assert_jacobi_matches_oracle(g)
    assert is_cocycle(g, theta) == structures_oracle.is_cocycle(g, theta)
    closed = check_kahler(g, identity(n), theta)[0].item("symplectic_closed")
    assert closed == structures_oracle.check_kahler(g, identity(n), theta)[0].item("symplectic_closed")


# --- the basis change, the conjugation helpers of tests/conftest.py ----------------


@st.composite
def invertible_matrices(draw, dim):
    """An invertible dim x dim P, with integer entries or with RATIONALS."""
    values = draw(st.sampled_from([st.integers(-3, 3), RATIONALS]))
    rows = st.lists(rational_vectors(dim, values), min_size=dim, max_size=dim).map(tuple)
    return draw(rows.filter(lambda p: det(p) != 0))


@st.composite
def basis_change_cases(draw):
    """(g, M, alpha, omega, P, Q): an algebra (Lie or not, large constants or not), a map, a 1-form
    and a 2-form of its dimension, and two invertible P and Q."""
    g = draw(st.one_of(lie_or_not(), antisymmetric_algebras(values=BIG_RATIONALS)))
    n = g.dim
    m = tuple(draw(rational_vectors(n)) for _ in range(n))
    alpha = KForm.one_form(n, draw(rational_vectors(n)))
    omega = KForm.two_form(n, {(a, b): draw(RATIONALS) for a in range(n) for b in range(a + 1, n)})
    return g, m, alpha, omega, draw(invertible_matrices(n)), draw(invertible_matrices(n))


@settings(max_examples=60, deadline=None)
@given(basis_change_cases())
def test_conjugation_helpers_match_fraction_oracle(case):
    g, m, alpha, omega, p, _ = case
    pinv = oracle.mat_inverse(p)
    assert mat_inverse(p) == pinv
    assert conjugate_algebra(g, p, pinv) == oracle.conjugate_algebra(g, p, pinv)
    assert conjugate_map(m, p, pinv) == oracle.conjugate_map(m, p, pinv)
    assert conjugate_one_form(alpha, p) == oracle.conjugate_one_form(alpha, p)
    assert conjugate_two_form(omega, p) == oracle.conjugate_two_form(omega, p)


@settings(max_examples=40, deadline=None)
@given(basis_change_cases())
def test_conjugation_helpers_compose_and_fix_the_identity(case):
    g, m, alpha, omega, p, q = case
    pq, one = linalg_oracle.mat_mul(p, q), identity(len(p))
    pinv, qinv, pqinv = mat_inverse(p), mat_inverse(q), mat_inverse(pq)
    for x, conjugate in ((g, conjugate_algebra), (m, conjugate_map)):
        assert conjugate(conjugate(x, p, pinv), q, qinv) == conjugate(x, pq, pqinv)
        assert conjugate(x, one, one) == x
    for x, conjugate in ((alpha, conjugate_one_form), (omega, conjugate_two_form)):
        assert conjugate(conjugate(x, p), q) == conjugate(x, pq)
        assert conjugate(x, one) == x


def test_conjugate_algebra_keeps_labels():
    g = LieAlgebra(3, {(0, 1): {2: 1}}, ("x", "y", "z"))
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))  # e'_1 = y, e'_2 = x: [e'_1, e'_2] = -z
    assert conjugate_algebra(g, swap, swap) == LieAlgebra(3, {(0, 1): {2: -1}}, ("x", "y", "z"))
