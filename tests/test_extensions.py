import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lieforge import (
    KForm,
    LieAlgebra,
    builtin,
    center,
    central_extension,
    check_jacobi,
    derivation_extension,
    double_extension,
    is_cocycle,
    reversed_double_extension,
)
from lieforge.algebra import _cyclic_failures
from lieforge.linalg import diagonal, identity, int_matrix, matrix, pack, slot_width, vector, zero_matrix
from lieforge.report import DimensionMismatch, PreconditionError
from lieforge.structures import check_kahler

import structures_oracle
from algebra_oracle import bracket, dense_c
from conftest import random_jacobi_algebra, random_matrix, random_two_form
from forms_oracle import as_matrix
from linalg_oracle import in_span
from strategies import BIG_RATIONALS, RATIONALS, antisymmetric_algebras, lie_or_not, rational_vectors
from structures_oracle import ce_differential, value_on_basis

H3 = builtin("h3").algebra
D4 = builtin("d4half").algebra
G5 = builtin("g5").algebra
E3 = KForm.basis_one_form(3, 2)


def test_is_cocycle_examples():
    omega = ce_differential(D4, KForm.basis_one_form(4, 2)).neg()
    assert is_cocycle(D4, omega).overall
    assert is_cocycle(H3, KForm.two_form(3, {(0, 1): 1})).overall
    report = is_cocycle(D4, KForm.two_form(4, {(0, 1): 1}))
    assert not report.overall
    assert report.items[0].name == "cocycle(e1,e2,e4)"
    assert "-1" in report.items[0].witness


def test_central_extension_of_plane_is_heisenberg():
    ext = central_extension(LieAlgebra.abelian(2), KForm.two_form(2, {(0, 1): 1}))
    assert dense_c(ext.algebra) == dense_c(H3)
    assert ext.central_index == 2


def test_central_extension_by_zero_is_direct_sum():
    ext = central_extension(H3, KForm.zero(3, 2))
    assert ext.algebra.dim == 4
    assert bracket(ext.algebra, ext.algebra.basis_vector(0), ext.algebra.basis_vector(1)) == vector(
        [0, 0, 1, 0]
    )
    assert in_span(center(ext.algebra).rows, ext.algebra.basis_vector(3))


def test_central_extension_rejects_non_cocycle():
    with pytest.raises(PreconditionError) as err:
        central_extension(D4, KForm.two_form(4, {(0, 1): 1}))
    assert not err.value.report.overall


def test_derivation_extension_builds_d4half():
    ext = derivation_extension(H3, diagonal(["1/2", "1/2", 1]))
    assert dense_c(ext.algebra) == dense_c(D4)
    assert ext.derivation_index == 3


def test_derivation_extension_rejects_non_derivation():
    from lieforge.linalg import identity

    with pytest.raises(PreconditionError):
        derivation_extension(H3, identity(3))


RAGGED3 = matrix([[1, 0, 0], [0, 1], [0, 0, 1]])


def test_unchecked_derivation_extension_rejects_ragged_map():
    with pytest.raises(DimensionMismatch):
        derivation_extension(H3, RAGGED3, check=False)


@pytest.mark.parametrize(
    "d", [zero_matrix(2), zero_matrix(7), matrix([[0, 0, 0]] * 4), RAGGED3], ids=["2x2", "7x7", "4x3", "ragged"]
)
@pytest.mark.parametrize("check", [True, False])
def test_reversed_double_extension_rejects_misshapen_map(d, check):
    # the zero map skips the derivation step, but not the shape check
    with pytest.raises(DimensionMismatch):
        reversed_double_extension(H3, E3, d, check=check)
    with pytest.raises(DimensionMismatch):
        reversed_double_extension(D4, KForm.basis_one_form(4, 2), d, check=check)


def test_extensions_pick_a_label_the_algebra_does_not_have():
    # LieAlgebra rejects a repeated label, so the adjoined vector must skip the labels in use
    g = LieAlgebra.abelian(2, ("e3", "e4"))
    assert central_extension(g, KForm.two_form(2, {(0, 1): 1})).algebra.labels == ("e3", "e4", "e5")
    assert derivation_extension(g, identity(2)).algebra.labels == ("e3", "e4", "e5")
    assert double_extension(g, KForm.zero(2, 2), identity(3)).algebra.labels == ("e3", "e4", "e5", "e6")


def test_derivation_extension_by_zero():
    ext = derivation_extension(LieAlgebra.abelian(2), zero_matrix(2))
    assert dense_c(ext.algebra) == dense_c(LieAlgebra.abelian(3))


def test_double_extension_composes():
    theta = KForm.zero(3, 2)
    d = diagonal(["1/2", "1/2", 1, 1])
    ext = double_extension(H3, theta, d)
    step = derivation_extension(central_extension(H3, theta).algebra, d)
    assert dense_c(ext.algebra) == dense_c(step.algebra)
    assert ext.central_index == 3 and ext.derivation_index == 4
    assert check_jacobi(ext.algebra).overall


def test_double_extension_trivial_pair():
    g = random_jacobi_algebra(random.Random(2), 3)
    ext = double_extension(g, KForm.zero(3, 2), zero_matrix(4))
    assert ext.algebra.dim == 5
    assert in_span(center(ext.algebra).rows, ext.algebra.basis_vector(3))
    assert in_span(center(ext.algebra).rows, ext.algebra.basis_vector(4))


def test_reversed_double_extension_g5():
    ext = reversed_double_extension(H3, E3, diagonal(["1/2", "1/2", 1]))
    assert dense_c(ext.algebra) == dense_c(G5)
    assert ext.derivation_index == 3
    assert ext.central_index == 4


def test_reversed_double_extension_zero_map_contact_case():
    aff = LieAlgebra(2, {(0, 1): {1: 1}})
    ext = reversed_double_extension(aff, KForm.basis_one_form(2, 1), zero_matrix(2))
    assert ext.algebra.dim == 3
    assert ext.derivation_index is None
    assert ext.central_index == 2
    # forced bracket [e1, e2] = e2 + z
    assert bracket(ext.algebra, ext.algebra.basis_vector(0), ext.algebra.basis_vector(1)) == vector(
        [0, 1, 1]
    )


def test_reversed_double_extension_degenerate_rejected():
    with pytest.raises(PreconditionError) as err:
        reversed_double_extension(
            LieAlgebra.abelian(2), KForm.zero(2, 1), matrix([[1, 0], [0, 1]])
        )
    assert err.value.report.items[0].name == "exact_form_nondegenerate"


def test_embedding_is_homomorphism_modulo_center():
    rng = random.Random(9)
    for _ in range(20):
        g = random_jacobi_algebra(rng, rng.randint(2, 4))
        theta = random_two_form(rng, g.dim)
        if not is_cocycle(g, theta).overall:
            continue
        ext = central_extension(g, theta)
        child = ext.algebra
        for i in range(g.dim):
            for j in range(g.dim):
                inner = bracket(g, g.basis_vector(i), g.basis_vector(j))
                lifted = inner + (Fraction(0),)
                outer = bracket(child, child.basis_vector(i), child.basis_vector(j))
                diff = tuple(a - b for a, b in zip(outer, lifted))
                assert all(x == 0 for x in diff[:-1])
        assert in_span(center(child).rows, child.basis_vector(ext.central_index))


def test_extension_iff_cocycle_and_leibniz():
    rng = random.Random(42)
    cocycle_agree = derivation_agree = 0
    for _ in range(60):
        g = random_jacobi_algebra(rng, rng.randint(2, 4))
        theta = random_two_form(rng, g.dim)
        ext = central_extension(g, theta, check=False)
        assert check_jacobi(ext.algebra).overall == is_cocycle(g, theta).overall
        cocycle_agree += 1
        m = random_matrix(rng, g.dim)
        ext2 = derivation_extension(g, m, check=False)
        from lieforge import is_derivation

        assert check_jacobi(ext2.algebra).overall == is_derivation(g, m).overall
        derivation_agree += 1
    assert cocycle_agree == derivation_agree == 60


# --- the integer cocycle test against the Fraction ce_differential ------------


@st.composite
def two_form_inputs(draw):
    """(g, theta): a Lie or non-Lie algebra of dimension 1-6, a non-Lie one of dimension 1-3, or one
    with constants up to 10^40; theta random (RATIONALS or BIG_RATIONALS), exact (d of a 1-form, a
    cocycle exactly on the Lie algebras), or zero."""
    g = draw(st.one_of(lie_or_not(), antisymmetric_algebras(max_dim=3), antisymmetric_algebras(values=BIG_RATIONALS)))
    n = g.dim
    kind = draw(st.sampled_from(["random", "large", "exact", "zero"]))
    if kind == "exact":
        return g, ce_differential(g, KForm.one_form(n, draw(rational_vectors(n))))
    if kind == "zero":
        return g, KForm.zero(n, 2)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    values = BIG_RATIONALS if kind == "large" else RATIONALS
    return g, KForm.two_form(n, dict(zip(pairs, draw(rational_vectors(len(pairs), values)))))


@settings(max_examples=150, deadline=None)
@given(two_form_inputs())
def test_is_cocycle_matches_oracle(case):
    # every failing item and its d(theta) witness, and check_kahler's d(omega) item on the same form
    g, theta = case
    assert is_cocycle(g, theta) == structures_oracle.is_cocycle(g, theta)
    j = identity(g.dim)
    item = check_kahler(g, j, theta)[0].item("symplectic_closed")
    assert item == structures_oracle.check_kahler(g, j, theta)[0].item("symplectic_closed")


@settings(max_examples=80, deadline=None)
@given(two_form_inputs())
def test_cocycle_kernel_on_any_triple(case):
    # the pair contraction read on repeated and unordered triples: minus D*dt times d(theta)(e_i, e_j, e_k)
    g, theta = case
    n = g.dim
    d, _, big = g._integer_terms
    t, dt = int_matrix(as_matrix(theta))
    width = slot_width(n * big * max(abs(x) for row in t for x in row))
    q = [pack(enumerate(row), width) for row in t]
    failing = dict(_cyclic_failures(g, q, width, product(range(n), repeat=3)))
    d_theta = ce_differential(g, theta)
    for idxs in product(range(n), repeat=3):
        assert Fraction(-failing.get(idxs, 0), d * dt) == value_on_basis(d_theta, idxs)
