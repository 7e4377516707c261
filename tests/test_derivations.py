import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import derivations_oracle
from algebra_oracle import adjoint
from derivations_oracle import map_in_family
from lieforge import (
    FormEigen,
    KForm,
    Leibniz,
    LieAlgebra,
    Sends,
    builtin,
    derivation_space,
    is_derivation,
)
from lieforge.algebra import Subspace
from lieforge.derivations import Commute
from lieforge.linalg import diagonal, identity, matrix, slot_width, vector
from lieforge.report import DimensionMismatch

from strategies import (
    RATIONALS,
    antisymmetric_algebras,
    conjugated_heisenberg_sasakian,
    derivation_inputs,
    rational_vectors,
    solved_derivations,
)

H3 = builtin("h3").algebra


def test_is_derivation_scaling():
    assert is_derivation(H3, diagonal(["1/2", "1/2", 1])).overall


def test_is_derivation_identity_fails_with_witness():
    report = is_derivation(H3, identity(3))
    assert not report.overall
    item = report.items[0]
    assert item.name == "leibniz(e1,e2)"
    assert "e3" in item.witness and "2*e3" in item.witness


def test_any_map_on_abelian_is_derivation():
    rng = random.Random(1)
    g = LieAlgebra.abelian(3)
    m = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3))
    assert is_derivation(g, m).overall


def test_derivation_space_h3_has_dimension_six():
    particular, basis = derivation_space(H3, [Leibniz()])
    assert particular == tuple((Fraction(0),) * 3 for _ in range(3))
    assert len(basis) == 6
    for m in basis:
        assert is_derivation(H3, m).overall


def test_derivation_space_abelian_r2_is_everything():
    _, basis = derivation_space(LieAlgebra.abelian(2), [Leibniz()])
    assert len(basis) == 4


def test_affine_family_contains_weighted_scaling():
    alpha = KForm.basis_one_form(3, 2)
    particular, basis = derivation_space(H3, [Leibniz(), FormEigen(alpha, Fraction(1))])
    assert particular is not None
    target = diagonal(["1/2", "1/2", 1])
    assert map_in_family(H3, target, particular, basis)
    # every member satisfies both constraints
    assert is_derivation(H3, particular).overall
    from lieforge.forms import apply_one_form
    from lieforge.linalg import column

    for j in range(3):
        assert apply_one_form(alpha, column(particular, j)) == alpha.coeff((j,))


def test_inconsistent_constraints_return_none():
    # D(e3) = e3 and D(e3) = 2 e3 cannot both hold
    e3 = H3.basis_vector(2)
    particular, _ = derivation_space(
        H3, [Sends(e3, e3), Sends(e3, vector([0, 0, 2]))]
    )
    assert particular is None


def test_commute_constraint():
    j = matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    particular, basis = derivation_space(H3, [Leibniz(), Commute(j)])
    for m in basis:
        from lieforge.linalg import mat_mul

        assert mat_mul(m, j) == mat_mul(j, m)


I3 = identity(3)


@pytest.mark.parametrize(
    "constraint",
    [
        Commute((I3[0], I3[1][:2], I3[2])),  # ragged: 3 rows, the second of 2 entries
        Commute(tuple(row + (Fraction(0),) for row in I3)),  # 3 x 4
        Commute(I3, Subspace(2, identity(2))),  # a subspace of a 2-dimensional space
        Commute(I3, Subspace(5, identity(5))),  # and of a 5-dimensional one
        FormEigen(KForm.basis_one_form(4, 2), Fraction(1)),
        FormEigen(KForm.zero(3, 2), Fraction(1)),
        Sends(H3.basis_vector(0), vector([0, 1])),
    ],
    ids=["commute-ragged", "commute-3x4", "commute-on-2", "commute-on-5", "form-dim-4", "form-degree-2", "sends-short"],
)
def test_misshapen_constraints_are_refused(constraint):
    # before each constraint checked its own shape, the four Commute cases solved without an error
    # (bases of 4, 1 and 6 derivations) or failed with IndexError (the last)
    with pytest.raises(DimensionMismatch):
        derivation_space(H3, [Leibniz(), constraint])


E3 = KForm.basis_one_form(3, 2)


def test_form_eigen_reads_its_factor_exactly():
    # the factor goes through linalg.scalar: "1/2" is read as the rational (it raised AttributeError
    # from rows before), and a float is refused instead of solving with its binary expansion
    half = derivation_space(H3, [Leibniz(), FormEigen(E3, Fraction(1, 2))])
    assert derivation_space(H3, [Leibniz(), FormEigen(E3, "1/2")]) == half
    with pytest.raises(TypeError):
        derivation_space(H3, [Leibniz(), FormEigen(E3, 0.1)])


def test_sends_refuses_float_entries():
    exact = derivation_space(H3, [Leibniz(), Sends(H3.basis_vector(2), vector(["1/2", 0, 0]))])
    assert derivation_space(H3, [Leibniz(), Sends(H3.basis_vector(2), ("1/2", 0, 0))]) == exact
    for v, w in [((0, 0, 1.0), (0, 0, 1)), ((0, 0, 1), (0.5, 0, 0))]:
        with pytest.raises(TypeError):
            derivation_space(H3, [Leibniz(), Sends(v, w)])


def test_commute_refuses_float_entries():
    with pytest.raises(TypeError):
        derivation_space(H3, [Leibniz(), Commute(((1.0, 0, 0), (0, 1, 0), (0, 0, 1)))])
    on = Subspace(3, ((0.5, 1, 0),))
    with pytest.raises(TypeError):
        derivation_space(H3, [Leibniz(), Commute(identity(3), on)])


def test_inner_derivations_lie_in_the_solved_family():
    from conftest import random_jacobi_algebra

    rng = random.Random(13)
    for _ in range(10):
        g = random_jacobi_algebra(rng, rng.randint(2, 4))
        particular, basis = derivation_space(g, [Leibniz()])
        x = vector([rng.randint(-2, 2) for _ in range(g.dim)])
        assert map_in_family(g, adjoint(g, x), particular, basis)


# --- the packed Leibniz defect against the Fraction oracle -------------------


@settings(max_examples=150, deadline=None)
@given(derivation_inputs())
def test_is_derivation_matches_oracle(case):
    # whole reports: every failing pair in order, with both sides of its witness
    g, d = case
    assert is_derivation(g, d) == derivations_oracle.is_derivation(g, d)


@settings(max_examples=60, deadline=None)
@given(solved_derivations())
def test_solved_derivations_pass(case):
    g, d = case
    report = is_derivation(g, d)
    assert report.overall
    assert report == derivations_oracle.is_derivation(g, d)


# [e1,e2] = e1 and [e1,e_r] = e1 = -[e2,e_r] for r = 3..5, times s; D is t times the 0/1 map below.
# The right side of leibniz(e1,e2) has e1-coordinate 8*a*c (a, c the largest integer entries of D
# and of D*c), beyond what a slot one bit narrower than the 3*n*a*c = 15*a*c bound holds.
TIGHT_BRACKETS = {(0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1, (1, 2): -1, (1, 3): -1, (1, 4): -1}
TIGHT_DERIVATION = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0), (1, 1, 0, 0, 0), (1, 1, 0, 0, 0))


@pytest.mark.parametrize("s, t", [(Fraction(1), Fraction(1)), (Fraction(2**130, 7), Fraction(2**60, 5))])
def test_leibniz_defect_slot_width_boundary(s, t):
    g = LieAlgebra.from_brackets(5, {p: {0: x * s} for p, x in TIGHT_BRACKETS.items()})
    d = tuple(tuple(x * t for x in row) for row in TIGHT_DERIVATION)
    big = t.numerator * s.numerator
    want = derivations_oracle.is_derivation(g, d)
    rhs = want.items[0].witness.split("[De_i,e_j]+[e_i,De_j] = ")[1]
    assert rhs == f"{8 * s * t}*e1" and 8 * big >= 2 ** (slot_width(15 * big) - 2)
    assert is_derivation(g, d) == want


# --- the integer Leibniz rows against the Fraction oracle -------------------
#
# Tuple equality of Fractions: the fast path must return the oracle's exact
# particular solution and canonical basis, not just an equivalent family.


@st.composite
def constraint_sets(draw, g, phi=None, a=None):
    """[Leibniz()], or Leibniz plus FormEigen, Commute (on everything or on a subspace), Sends, or
    FormEigen and Commute together (the search of the Sasakian to Frobenius-Kahler extension).

    phi and a, when given, are the algebra's own 1-form and map (z* and Phi of a
    Heisenberg algebra); otherwise random ones are drawn.
    """
    n = g.dim
    kind = draw(st.sampled_from(["leibniz", "eigen", "commute", "sends", "both"]))
    if kind == "sends":
        return [Leibniz(), Sends(draw(rational_vectors(n)), draw(rational_vectors(n)))]
    constraints = [Leibniz()]
    if kind in ("eigen", "both"):
        if phi is None or draw(st.booleans()):
            phi = KForm.one_form(n, draw(rational_vectors(n)))
        constraints.append(FormEigen(phi, draw(RATIONALS)))
    if kind in ("commute", "both"):
        if a is None or draw(st.booleans()):
            a = tuple(draw(rational_vectors(n)) for _ in range(n))
        on = None
        if draw(st.booleans()):
            on = Subspace.from_vectors(n, draw(st.lists(rational_vectors(n), min_size=1, max_size=2)))
        constraints.append(Commute(a, on))
    return constraints


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_derivation_space_matches_oracle_on_rational_algebras(data):
    # fractional structure constants, so the integer rows are D > 1 times the Fraction rows
    g = data.draw(antisymmetric_algebras())
    constraints = data.draw(constraint_sets(g))
    assert derivation_space(g, constraints) == derivations_oracle.derivation_space(g, constraints)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_derivation_space_matches_oracle_on_dense_h5(seed, data):
    g, _, alpha, phi = conjugated_heisenberg_sasakian(2, seed)
    constraints = data.draw(constraint_sets(g, alpha, phi))
    assert derivation_space(g, constraints) == derivations_oracle.derivation_space(g, constraints)


@settings(max_examples=2, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_derivation_space_matches_oracle_on_dense_h7(seed, data):
    g, _, alpha, phi = conjugated_heisenberg_sasakian(3, seed)
    constraints = data.draw(constraint_sets(g, alpha, phi))
    assert derivation_space(g, constraints) == derivations_oracle.derivation_space(g, constraints)
