"""Metamorphic suite: verdicts and witnesses under a random rational change of basis.

A random invertible P with rational entries moves an algebra to the basis
e'_i = P e_i (the conjugation helpers of tests/conftest.py). There a vector
v has coordinates P^-1 v, a 1-form alpha becomes alpha o P, a 2-form omega
becomes omega(P., P.) and a map A becomes P^-1 A P. Every check item is a
statement about the algebra, not the basis, so each verdict must stay the
same; the Reeb vector and the principal element must move to P^-1 times the
old one, and the top coefficient of alpha ^ (d alpha)^n, the top form
evaluated on P e_1, ..., P e_N, must scale by det P.
"""

import random

from hypothesis import given, settings, strategies as st

import lieforge as lf
from lieforge.forms import _dalpha, _top_contact
from lieforge.linalg import det

from conftest import (
    conjugate_algebra,
    conjugate_map,
    conjugate_one_form,
    conjugate_two_form,
    mat_inverse,
    random_invertible,
    random_jacobi_algebra,
    random_one_form,
)
from linalg_oracle import mat_vec
from strategies import SEEDS, heisenberg_sasakian, lie_or_not
from structures_oracle import mat_neg


def basis_change(seed, dim):
    p = random_invertible(random.Random(seed), dim)
    return p, mat_inverse(p)


def passes(report):
    return [(item.name, item.passed) for item in report.items]


@settings(max_examples=60, deadline=None)
@given(lie_or_not(), SEEDS)
def test_jacobi_verdict_is_basis_free(g, seed):
    p, pinv = basis_change(seed, g.dim)
    assert lf.check_jacobi(conjugate_algebra(g, p, pinv)).overall == lf.check_jacobi(g).overall


@st.composite
def contact_cases(draw):
    rng = random.Random(draw(SEEDS))
    if draw(st.booleans()):
        g = random_jacobi_algebra(rng, draw(st.sampled_from([1, 3, 5, 7])))
        return g, random_one_form(rng, g.dim)
    g, _, z_star, _ = heisenberg_sasakian(draw(st.integers(1, 3)))
    return g, z_star if draw(st.booleans()) else random_one_form(rng, g.dim)


def top_coefficient(g, alpha):
    """The top coefficient of alpha ^ (d alpha)^n, from the top-form test that check_contact runs."""
    return _top_contact(alpha, *_dalpha(g, alpha))[0]


@settings(max_examples=60, deadline=None)
@given(contact_cases(), SEEDS)
def test_contact_verdict_reeb_and_top_coefficient_transform(case, seed):
    g, alpha = case
    p, pinv = basis_change(seed, g.dim)
    moved, moved_alpha = conjugate_algebra(g, p, pinv), conjugate_one_form(alpha, p)
    report, structure = lf.check_contact(g, alpha)
    moved_report, moved_structure = lf.check_contact(moved, moved_alpha)
    assert passes(moved_report) == passes(report)
    if structure is not None:
        assert moved_structure.reeb == mat_vec(pinv, structure.reeb)
    assert top_coefficient(moved, moved_alpha) == det(p) * top_coefficient(g, alpha)


SASAKIAN = {name: (lf.builtin(name).algebra, *lf.builtin(name).sasakian_data) for name in ("h3", "g0", "g5")}
SASAKIAN.update({f"h{2 * m + 1}": heisenberg_sasakian(m) for m in (2, 3)})


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SASAKIAN)), st.booleans(), SEEDS)
def test_sasakian_verdict_is_basis_free(name, broken, seed):
    g, reeb, alpha, phi = SASAKIAN[name]
    if broken:  # -Phi keeps Phi^2 and the torsion but makes the metric negative off the Reeb line
        phi = mat_neg(phi)
    p, pinv = basis_change(seed, g.dim)
    report, _ = lf.check_sasakian(g, reeb, alpha, phi)
    moved_report, _ = lf.check_sasakian(
        conjugate_algebra(g, p, pinv), mat_vec(pinv, reeb), conjugate_one_form(alpha, p), conjugate_map(phi, p, pinv)
    )
    assert report.overall != broken
    assert passes(moved_report) == passes(report)


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_frobenius_and_kahler_verdicts_are_basis_free(seed):
    d4 = lf.builtin("d4half")
    g, (j, omega), phi = d4.algebra, d4.kahler_data, d4.frobenius_form
    p, pinv = basis_change(seed, g.dim)
    moved = conjugate_algebra(g, p, pinv)
    report, structure = lf.check_frobenius(g, phi)
    moved_report, moved_structure = lf.check_frobenius(moved, conjugate_one_form(phi, p))
    assert passes(moved_report) == passes(report)
    assert moved_structure.principal == mat_vec(pinv, structure.principal)
    report, _ = lf.check_kahler(g, j, omega)
    moved_report, _ = lf.check_kahler(moved, conjugate_map(j, p, pinv), conjugate_two_form(omega, p))
    assert report.overall and passes(moved_report) == passes(report)
