"""Golden witness strings: one concrete failing input per refusal and per first-failure search.

The corpus digests pin passing runs only, so this table pins the exact
message, item name and witness of each one-item refusal of the
constructions, the witnesses of the failing condition items, and the notes
of the Kahler obstruction.
"""

from fractions import Fraction

import pytest

from lieforge import (
    DoubleExtensionParams,
    KForm,
    LieAlgebra,
    adjoint,
    builtin,
    check_frobenius,
    check_kahler,
    check_sasakian,
    contact_ideal_restriction,
    double_extension,
    extend_complex_structure,
    frobenius_kahler_to_sasakian,
    kahler_extension_obstruction,
    reversed_double_extension,
    sasakian_double_extension_conditions,
    sasakian_reduction,
    sasakian_to_frobenius_kahler,
    solve_double_extension_params,
)
from lieforge.linalg import diagonal, matrix, zero_matrix
from lieforge.report import CheckItem, PreconditionError
from lieforge.structures import FrobeniusStructure, SasakianStructure

from conftest import conjugate_algebra, conjugate_map, conjugate_one_form, conjugate_two_form, mat_inverse
from strategies import conjugated_phi, moved_reeb

H3 = builtin("h3")
D4 = builtin("d4half")
G0 = builtin("g0")
G5 = builtin("g5")
ZERO3 = KForm.zero(3, 2)
SLOT = diagonal([0, 0, 0, 1])


def _d4half_rescaled_omega():
    """A Kahler pair on d4half whose omega is 2 * (-d(phi)): Kahler, but not the Kirillov form."""
    k = D4.kahler()
    return check_kahler(D4.algebra, k.j, k.omega.scale(Fraction(2)))[1]


def _d4half_sheared():
    """d4half in the basis e3 -> e3 + e4: the principal element -e3 + e4 pivots on e3."""
    p = tuple(tuple(Fraction(int(i == j or (i, j) == (2, 3))) for j in range(4)) for i in range(4))
    pinv = mat_inverse(p)
    g = conjugate_algebra(D4.algebra, p, pinv)
    f = check_frobenius(g, conjugate_one_form(D4.frobenius().phi, p))[1]
    k = D4.kahler()
    return g, f, check_kahler(g, conjugate_map(k.j, p, pinv), conjugate_two_form(k.omega, p))[1]


def _params(a, b, c, d, u):
    return DoubleExtensionParams(*map(Fraction, (a, b, c, d)), tuple(map(Fraction, u)))


# name -> call that refuses
REFUSALS = {
    "principal_element": lambda: frobenius_kahler_to_sasakian(
        D4.algebra, FrobeniusStructure(D4.frobenius().phi, D4.algebra.basis_vector(0)), D4.kahler(), D4.maps[0][1]
    ),
    "center_spanned_by_reeb": lambda: sasakian_reduction(G0.algebra, G0.sasakian()),
    # R with alpha = e1*, xi = e1 and Phi = 0 is Sasakian; its quotient by the Reeb vector would be 0
    "quotient_dimension_positive": lambda: sasakian_reduction(
        LieAlgebra.abelian(1),
        SasakianStructure((Fraction(1),), KForm.basis_one_form(1, 0), ((Fraction(0),),), ((Fraction(1),),)),
    ),
    "contact_pairing_nonzero": lambda: solve_double_extension_params(
        H3.algebra, H3.sasakian(), ZERO3, diagonal(["1/2", "1/2", 1, 0])
    ),
    "params_u_in_kernel": lambda: sasakian_double_extension_conditions(
        H3.algebra, H3.sasakian(), ZERO3, SLOT, _params(1, 0, 1, -1, (0, 0, 1))
    ),
    "reeb_form_setup": lambda: sasakian_double_extension_conditions(
        H3.algebra, H3.sasakian(), ZERO3, SLOT, _params(0, 1, 1, -1, (0, 0, 0))
    ),
    "exact_symplectic_coherence_fk": lambda: frobenius_kahler_to_sasakian(
        D4.algebra, D4.frobenius(), _d4half_rescaled_omega(), D4.maps[0][1]
    ),
    "phi_d_vanishes": lambda: frobenius_kahler_to_sasakian(
        D4.algebra, D4.frobenius(), D4.kahler(), adjoint(D4.algebra, D4.algebra.basis_vector(3))
    ),
    "d_commutes_with_j": lambda: frobenius_kahler_to_sasakian(
        D4.algebra, D4.frobenius(), D4.kahler(), diagonal([1, -1, 0, 0])
    ),
    "alpha_d_invariance": lambda: sasakian_to_frobenius_kahler(H3.algebra, H3.sasakian(), zero_matrix(3)),
    "phi_d_commute_on_kernel": lambda: sasakian_to_frobenius_kahler(
        H3.algebra, H3.sasakian(), diagonal([1, 0, 1])
    ),
    "exact_symplectic_coherence_ideal": lambda: contact_ideal_restriction(
        D4.algebra, D4.frobenius(), _d4half_rescaled_omega()
    ),
    "ideal_closed": lambda: contact_ideal_restriction(*_d4half_sheared()),
    "exact_form_nondegenerate": lambda: reversed_double_extension(
        H3.algebra, KForm.basis_one_form(3, 0), zero_matrix(3)
    ),
    "catalog_sasakian": lambda: D4.sasakian(),
    "catalog_kahler": lambda: H3.kahler(),
    "catalog_frobenius": lambda: G0.frobenius(),
}

# name -> (message, item name, witness)
REFUSED = {
    "principal_element": ("supplied principal element is wrong", "principal_element", "solved e4"),
    "center_spanned_by_reeb": (
        "center must be one-dimensional and spanned by the Reeb vector",
        "center_spanned_by_reeb",
        "center = {0}",
    ),
    "quotient_dimension_positive": (
        "the quotient by the Reeb vector is 0-dimensional",
        "quotient_dimension_positive",
        "dim = 1",
    ),
    "contact_pairing_nonzero": ("alpha(D(z)) must be nonzero", "contact_pairing_nonzero", "alpha(D(z)) = 0"),
    "params_u_in_kernel": ("u must lie in Ker(alpha)", "params_u_in_kernel", "alpha(u) = 1"),
    "reeb_form_setup": ("parameters do not reproduce the solved Reeb vector", "reeb_form", "solved Reeb = e3"),
    "exact_symplectic_coherence_fk": (
        "symplectic form must equal -d(phi)",
        "exact_symplectic_coherence",
        "omega != -d(phi)",
    ),
    "phi_d_vanishes": ("phi o D must vanish", "phi_d_vanishes", "phi(D e3) != 0"),
    "d_commutes_with_j": ("D must commute with J", "d_commutes_with_j", "D o J != J o D"),
    "alpha_d_invariance": ("alpha o D must equal alpha", "alpha_d_invariance", "alpha(D e3) != alpha(e3)"),
    "phi_d_commute_on_kernel": (
        "Phi and D must commute on Ker(alpha)",
        "phi_d_commute_on_kernel",
        "[Phi,D](e1) != 0",
    ),
    "exact_symplectic_coherence_ideal": (
        "symplectic form must equal -d(phi)",
        "exact_symplectic_coherence",
        "omega != -d(phi)",
    ),
    "ideal_closed": (
        "complement of the principal element is not an ideal",
        "ideal_closed",
        "[x_P,e4] leaves the complement",
    ),
    "exact_form_nondegenerate": (
        "-d(alpha) is degenerate on the extension",
        "exact_form_nondegenerate",
        "radical contains e1",
    ),
    "catalog_sasakian": ("builtin d4half carries no Sasakian data", "precondition", "builtin d4half carries no Sasakian data"),
    "catalog_kahler": ("builtin h3 carries no Kahler data", "precondition", "builtin h3 carries no Kahler data"),
    "catalog_frobenius": ("builtin g0 carries no Frobenius data", "precondition", "builtin g0 carries no Frobenius data"),
}


def _conditions(base, theta, d):
    params = solve_double_extension_params(base.algebra, base.sasakian(), theta, d)
    return sasakian_double_extension_conditions(base.algebra, base.sasakian(), theta, d, params)


H3_THETA = KForm.two_form(3, {(0, 1): -1, (0, 2): 1, (1, 2): 1})
H3_D = matrix([[-1, 0, 0, 0], [1, 0, 0, 0], [0, 1, -1, 0], [1, -1, 1, -1]])
G5_THETA = KForm.two_form(5, {(0, 1): 1, (0, 3): -1, (1, 3): 1, (2, 3): -1})
G5_D = matrix(
    [
        [-1, 1, 0, -1, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [0, 2, -2, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, "-5/2", "-1/2"],
        [1, 3, 0, 0, "-1/2", "-3/2"],
    ]
)
R2R2 = LieAlgebra.from_brackets(4, {(0, 1): {1: 1}, (2, 3): {3: 1}})


def _r2r2_restriction():
    """aff(R) + aff(R) with phi = e2* + e4*: J(e2 - e4) = e3 - e1 leaves the contact ideal."""
    f = check_frobenius(R2R2, KForm.one_form(4, [0, 1, 0, 1]))[1]
    k = check_kahler(R2R2, matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]), f.kirillov)[1]
    return contact_ideal_restriction(R2R2, f, k)[1]


def _plane_double_extension_report():
    d = diagonal([1, -1, 0])
    ext = double_extension(LieAlgebra.abelian(2), KForm.two_form(2, {(0, 1): 1}), d)
    return extend_complex_structure(ext, matrix([[0, -1], [1, 0]]))


def _h3_moved_reeb():
    """h3 with xi = e1 + e3: Phi^2 = xi (x) alpha - Id and alpha o Phi = 0 hold, d(alpha)(xi, .) = -e2* != 0."""
    reeb, alpha, phi = H3.sasakian_data
    xi, moved = moved_reeb(reeb, [0, 0, 1], phi, H3.algebra.basis_vector(0))
    return check_sasakian(H3.algebra, xi, alpha, moved)[0]


def _g0_conjugated_phi():
    """g0 with Phi conjugated by Id + e1 e3^T, which fixes xi = e5 and alpha = e3* + e5*."""
    reeb, alpha, phi = G0.sasakian_data
    g = G0.algebra
    phi = conjugated_phi(reeb, [0, 0, 1, 0, 1], phi, g.basis_vector(0), g.basis_vector(2))
    return check_sasakian(g, reeb, alpha, phi)[0]


# name -> (call returning a report, failing item)
FAILING_ITEMS = {
    "cocycle_phi_pairing": (lambda: _conditions(G5, G5_THETA, G5_D), "cocycle_phi_pairing"),
    "derivation_commutes_with_phi": (lambda: _conditions(H3, H3_THETA, H3_D), "derivation_commutes_with_phi"),
    "ad_u_phi_conjugation": (lambda: _conditions(H3, H3_THETA, H3_D), "ad_u_phi_conjugation"),
    "torsion_vanishes": (_plane_double_extension_report, "torsion_vanishes"),
    "derivation_commutes_with_j": (_plane_double_extension_report, "derivation_commutes_with_j"),
    "phi_well_defined": (_r2r2_restriction, "phi_well_defined"),
    "metric_reproduces_dalpha": (_h3_moved_reeb, "metric_reproduces_dalpha"),
    "metric_phi_isometry": (_g0_conjugated_phi, "metric_phi_isometry"),
}

WITNESSES = {
    "cocycle_phi_pairing": "theta(Phi x,y)+theta(x,Phi y) = 1 on kernel pair (0,2)",
    "derivation_commutes_with_phi": "D(Phi x) = e3 - e4, Phi(D x) = -2*e1 - 2*e2 on kernel vector 0",
    "ad_u_phi_conjugation": "[u,x] = e3, -Phi[u,Phi x] = 0 on kernel vector 0",
    "torsion_vanishes": "N(e1,e3) = 2*e2",
    "derivation_commutes_with_j": "Jbar(D e1) = e2, D(J e1) = -e2",
    "phi_well_defined": "J(kernel part of e4) has x_P component 1",
    "metric_reproduces_dalpha": "g(x, Phi y) != d(alpha)(x,y)",
    "metric_phi_isometry": "g(Phi x, Phi y) != g(x,y) - alpha(x)alpha(y)",
}

# name -> call returning the obstruction report
NOTES = {
    "h3_zero": lambda: kahler_extension_obstruction(H3.algebra, H3.sasakian(), ZERO3),
    "h3_invariance_and_reeb": lambda: kahler_extension_obstruction(
        H3.algebra, H3.sasakian(), KForm.two_form(3, {(0, 1): 1, (0, 2): 1})
    ),
    "g0_all_three": lambda: kahler_extension_obstruction(
        G0.algebra, G0.sasakian(), KForm.two_form(5, {(0, 2): 1, (1, 4): 1})
    ),
}

OBSTRUCTION_NOTES = {
    "h3_zero": (
        ("theta_phi_invariance", "holds"),
        ("theta_phi_pairing", "holds"),
        ("theta_reeb_pairing", "holds"),
        ("dxi_star", "-e1^e2"),
        ("no_go_route", "closedness"),
    ),
    "h3_invariance_and_reeb": (
        ("theta_phi_invariance", "fails at pair (0, 1): 2"),
        ("theta_phi_pairing", "holds"),
        ("theta_reeb_pairing", "fails at kernel vector 0: 1"),
        ("dxi_star", "-e1^e2"),
        ("no_go_route", "integrability"),
    ),
    "g0_all_three": (
        ("theta_phi_invariance", "fails at pair (0, 2): 1"),
        ("theta_phi_pairing", "fails at pair (0, 2): -1"),
        ("theta_reeb_pairing", "fails at kernel vector 1: 1"),
        ("dxi_star", "-e1^e2 + e3^e4"),
        ("no_go_route", "integrability"),
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_names_one_failing_item(case):
    message, name, witness = REFUSED[case]
    with pytest.raises(PreconditionError) as err:
        REFUSALS[case]()
    assert str(err.value) == message
    assert err.value.report.items == (CheckItem(name, False, witness),)
    assert err.value.report.notes == ()


@pytest.mark.parametrize("case", sorted(FAILING_ITEMS))
def test_failing_item_witness(case):
    call, name = FAILING_ITEMS[case]
    item = call().item(name)
    assert not item.passed
    assert item.witness == WITNESSES[case]


@pytest.mark.parametrize("case", sorted(NOTES))
def test_obstruction_notes(case):
    report = NOTES[case]()
    assert report.overall
    assert report.notes == OBSTRUCTION_NOTES[case]
