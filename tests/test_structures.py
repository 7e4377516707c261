import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieforge import (
    KForm,
    LieAlgebra,
    builtin,
    check_contact,
    check_frobenius,
    check_kahler,
    check_sasakian,
    kirillov_form,
    nijenhuis,
    principal_element,
)
from lieforge.linalg import identity, matrix, vec_scale
from lieforge.report import PreconditionError

import algebra_oracle as oracle
from strategies import RATIONALS, lie_or_not

H3 = builtin("h3")
D4 = builtin("d4half")
G0 = builtin("g0")
AFF = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}}, ("x", "y"))
E3 = KForm.basis_one_form(3, 2)


def test_kirillov_examples():
    b = kirillov_form(H3.algebra, E3)
    assert b.coeffs == (((0, 1), Fraction(1)),)
    assert kirillov_form(LieAlgebra.abelian(3), KForm.one_form(3, [1, 1, 1])).is_zero()
    b4 = kirillov_form(D4.algebra, KForm.basis_one_form(4, 2))
    assert b4.coeff((0, 1)) == 1 and b4.coeff((2, 3)) == -1


def test_frobenius_d4half():
    report, structure = check_frobenius(D4.algebra, KForm.basis_one_form(4, 2))
    assert report.overall
    assert structure.principal == D4.algebra.basis_vector(3)


def test_frobenius_odd_dimension_fails():
    report, structure = check_frobenius(H3.algebra, E3)
    assert not report.overall and structure is None
    assert not report.item("even_dimension").passed


def test_frobenius_aff1():
    ystar = KForm.basis_one_form(2, 1)
    report, structure = check_frobenius(AFF, ystar)
    assert report.overall
    assert structure.principal == AFF.basis_vector(0)


def test_principal_element_scaling_invariance():
    ystar = KForm.basis_one_form(2, 1)
    for lam in (Fraction(2), Fraction(-1, 3), Fraction(5)):
        assert principal_element(AFF, ystar.scale(lam)) == principal_element(AFF, ystar)


def test_principal_element_degenerate_rejected():
    with pytest.raises(PreconditionError):
        principal_element(LieAlgebra.abelian(2), KForm.basis_one_form(2, 0))


def test_contact_h3():
    report, structure = check_contact(H3.algebra, E3)
    assert report.overall
    assert structure.reeb == H3.algebra.basis_vector(2)
    assert dict(report.notes)["top_coefficient"] == "-1"


def test_contact_abelian_fails():
    report, structure = check_contact(LieAlgebra.abelian(3), E3)
    assert not report.overall and structure is None


def test_contact_g0():
    alpha = KForm.one_form(5, [0, 0, 1, 0, 1])
    report, structure = check_contact(G0.algebra, alpha)
    assert report.overall
    assert structure.reeb == G0.algebra.basis_vector(4)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(-1), Fraction(3), Fraction(-2, 3)]))
def test_contact_scaling_invariance(lam):
    report, structure = check_contact(H3.algebra, E3.scale(lam))
    assert report.overall
    assert structure.reeb == vec_scale(1 / lam, H3.algebra.basis_vector(2))


def test_nijenhuis_abelian_vanishes():
    g = LieAlgebra.abelian(4)
    rng = random.Random(0)
    m = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)) for _ in range(4))
    assert nijenhuis(g, m).is_zero()


def test_nijenhuis_d4half_j_integrable():
    assert nijenhuis(D4.algebra, D4.kahler_data[0]).is_zero()


def test_nijenhuis_h3_rotation():
    phi = H3.sasakian_data[2]
    table = nijenhuis(H3.algebra, phi)
    # N(e1,e2) = e3: the pair [Phi e1, Phi e2] = [e2, -e1] survives
    assert table.value(0, 1) == H3.algebra.basis_vector(2)
    assert table.value(0, 2) == (Fraction(0),) * 3


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_nijenhuis_matches_oracle(data):
    # rational maps with mixed denominators, on Lie and non-Lie tensors
    g = data.draw(lie_or_not())
    a = tuple(tuple(data.draw(RATIONALS) for _ in range(g.dim)) for _ in range(g.dim))
    assert nijenhuis(g, a) == oracle.nijenhuis(g, a)


def test_kahler_d4half_identity_metric():
    report, structure = check_kahler(D4.algebra, *D4.kahler_data)
    assert report.overall
    assert structure.metric == identity(4)


def test_kahler_flat_plane():
    g = LieAlgebra.abelian(2)
    j = matrix([[0, -1], [1, 0]])
    omega = KForm.two_form(2, {(0, 1): 1})
    report, structure = check_kahler(g, j, omega)
    assert report.overall
    assert structure.metric == identity(2)


def test_kahler_heisenberg_sum_fails_at_closedness():
    # h3 (+) R with the block J carries no closed invariant pairing:
    # d(omega)(e1,e2,e4) = -omega(e3,e4) forces omega(e3,e4) = 0, which
    # degenerates the metric; with the d4half omega the failure is at
    # closedness while this J is genuinely integrable.
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})
    j = D4.kahler_data[0]
    omega = D4.kahler_data[1]
    report, structure = check_kahler(g, j, omega)
    assert not report.overall and structure is None
    assert report.item("complex_integrable").passed
    assert not report.item("symplectic_closed").passed


def test_sasakian_h3():
    report, structure = check_sasakian(H3.algebra, *H3.sasakian_data)
    assert report.overall
    assert structure.metric == identity(3)


def test_sasakian_g0():
    report, structure = check_sasakian(G0.algebra, *G0.sasakian_data)
    assert report.overall
    assert structure is not None


def test_sasakian_broken_phi_fails_at_square():
    phi = matrix([[0, -1, 1], [1, 0, 0], [0, 0, 0]])
    report, structure = check_sasakian(H3.algebra, H3.algebra.basis_vector(2), E3, phi)
    assert not report.overall and structure is None
    assert not report.item("phi_square_identity").passed


def test_sasakian_consequence_items_present():
    report, _ = check_sasakian(H3.algebra, *H3.sasakian_data)
    assert report.item("phi_kills_reeb").passed
    assert report.item("alpha_phi_vanishes").passed


def test_checked_structures_are_bound_to_their_algebra():
    _, sas = check_sasakian(H3.algebra, *H3.sasakian_data)
    _, kah = check_kahler(D4.algebra, *D4.kahler_data)
    _, frob = check_frobenius(D4.algebra, D4.frobenius_form)
    assert sas.algebra is H3.algebra
    assert kah.algebra is D4.algebra
    assert frob.algebra is D4.algebra
    # only check_* binds: a hand-built copy (equal in value) and an edited one are unbound
    copy = type(sas)(sas.reeb, sas.alpha, sas.phi, sas.metric)
    assert copy == sas and copy.algebra is None
    assert dataclasses.replace(sas, phi=identity(3)).algebra is None
