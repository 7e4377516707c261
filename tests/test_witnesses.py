"""Golden witness strings: one concrete failing input per refusal and per first-failure search.

The corpus digests pin passing runs only, so this table pins the exact
message, item name and witness of each one-item refusal of the
constructions, the witnesses of the failing condition items, and the notes
of the Kahler obstruction.
"""

from fractions import Fraction

import pytest

from lieforge import (
    KForm,
    LieAlgebra,
    builtin,
    check_frobenius,
    check_kahler,
    check_sasakian,
    contact_ideal_restriction,
    double_extension,
    extend_complex_structure,
    frobenius_kahler_to_sasakian,
    kahler_extension_obstruction,
    kirillov_form,
    reversed_double_extension,
    sasakian_double_extension,
    sasakian_double_extension_conditions,
    sasakian_reduction,
    sasakian_to_frobenius_kahler,
)
from lieforge.cli import run
from lieforge.linalg import diagonal, identity, matrix, zero_matrix
from lieforge.report import CheckItem, PreconditionError
from lieforge.structures import FrobeniusStructure, SasakianStructure

from algebra_oracle import adjoint
from conftest import conjugate_algebra, conjugate_map, conjugate_one_form, conjugate_two_form, mat_inverse
import structures_oracle
import theorems_oracle
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
    "contact_pairing_nonzero": lambda: sasakian_double_extension(
        H3.algebra, H3.sasakian(), ZERO3, diagonal(["1/2", "1/2", 1, 0])
    ),
    "params_delta_nonzero": lambda: sasakian_double_extension_conditions(H3.algebra, H3.sasakian(), ZERO3, SLOT, 0),
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
    "params_delta_nonzero": (
        "the scale c of w = c xi + d z must be nonzero",
        "params_delta_nonzero",
        "delta = ad - bc = 0",
    ),
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
    return sasakian_double_extension_conditions(base.algebra, base.sasakian(), theta, d)


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
R2R2 = LieAlgebra(4, {(0, 1): {1: 1}, (2, 3): {3: 1}})


R2R2_J = matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])


def _r2r2_restriction():
    """aff(R) + aff(R) with phi = e2* + e4*: J(e2 - e4) = e3 - e1 leaves the contact ideal."""
    phi = KForm.one_form(4, [0, 1, 0, 1])
    f = check_frobenius(R2R2, phi)[1]
    k = check_kahler(R2R2, R2R2_J, kirillov_form(R2R2, phi))[1]
    return contact_ideal_restriction(R2R2, f, k)[1]


def _r2r2_tilted_restriction():
    """aff(R) + aff(R) with phi = e2* + e4* in the basis e1, e1 - e3, e2, e4: the contact ideal is
    span(e1 - e3, e2, e4), J maps its kernel into it, and ad(x_P) = diag(0, 1) does not commute with J on
    the kernel span(e1 - e3, e2 - e4), so the restriction returns no structure."""
    p = matrix([[1, 1, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]])
    pinv = mat_inverse(p)
    g = conjugate_algebra(R2R2, p, pinv)
    f = check_frobenius(g, conjugate_one_form(KForm.one_form(4, [0, 1, 0, 1]), p))[1]
    k = check_kahler(g, conjugate_map(R2R2_J, p, pinv), kirillov_form(g, f.phi))[1]
    _, report, structure = contact_ideal_restriction(g, f, k)
    assert structure is None
    return report


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


def _h3_unsymmetric_metric():
    """h3 with Phi = [[-1, -1, 0], [1, 2, 0], [0, 0, 0]]: the metric [[1, 2, 0], [1, 1, 0], [0, 0, 1]] is not
    symmetric, and its leading 2x2 minor is -1."""
    reeb, alpha, _ = H3.sasakian_data
    return check_sasakian(H3.algebra, reeb, alpha, matrix([[-1, -1, 0], [1, 2, 0], [0, 0, 0]]))[0]


def _d4half_unsymmetric_metric():
    """d4half with J e3 = e1 - e4 added to its J: omega J is not symmetric, and its leading 3x3 minor is -1."""
    j = matrix([[0, -1, 1, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    return check_kahler(D4.algebra, j, D4.kahler_data[1])[0]


R2 = LieAlgebra.abelian(2)
H3_PLUS_R = LieAlgebra(4, {(0, 1): {2: 1}})
ROTATION = matrix([[0, -1], [1, 0]])
R4_THETA = KForm.two_form(4, {(0, 1): 1, (0, 2): 1, (2, 3): 1})
R4_J = matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])

# failing item -> (double extension, J) that fails that base hypothesis of extend_complex_structure alone
BASE_HYPOTHESES = {
    "cocycle_nondegenerate": lambda: (double_extension(R2, KForm.zero(2, 2), zero_matrix(3)), ROTATION),
    "base_complex_square": lambda: (double_extension(R2, KForm.two_form(2, {(0, 1): 1}), zero_matrix(3)), identity(2)),
    # h3 + R with J e1 = e3, J e2 = e4: N_J(e1, e2) = -e3
    "base_complex_integrable": lambda: (
        double_extension(H3_PLUS_R, KForm.two_form(4, {(0, 2): 1, (1, 3): 1}), zero_matrix(5)),
        matrix([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]),
    ),
    # abelian R^4 with J e1 = e2, J e3 = e4 and theta = e1^e2 + e1^e3 + e3^e4: theta(Je1, Je3) = 0 != theta(e1, e3);
    # without this hypothesis the lift by D = 0 has N(e1, e3) = -e5 although D commutes with J-bar
    "cocycle_j_invariant": lambda: (
        double_extension(LieAlgebra.abelian(4), R4_THETA, zero_matrix(5)),
        R4_J,
    ),
}

# the four base hypotheses in the order of the refusal's report, with their witnesses
BASE_WITNESSES = {
    "base_complex_square": "J^2 != -Id on the base",
    "base_complex_integrable": "N_J != 0 on the base",
    "cocycle_nondegenerate": "the extension cocycle is degenerate on the base",
    "cocycle_j_invariant": "theta(Jx, Jy) != theta(x, y) on the base",
}

# name -> (call returning a report, failing item)
FAILING_ITEMS = {
    "cocycle_phi_pairing": (lambda: _conditions(G5, G5_THETA, G5_D), "cocycle_phi_pairing"),
    "derivation_commutes_with_phi": (lambda: _conditions(H3, H3_THETA, H3_D), "derivation_commutes_with_phi"),
    "ad_u_phi_conjugation": (lambda: _conditions(H3, H3_THETA, H3_D), "ad_u_phi_conjugation"),
    "torsion_vanishes": (_plane_double_extension_report, "torsion_vanishes"),
    "derivation_commutes_with_j": (_plane_double_extension_report, "derivation_commutes_with_j"),
    "phi_well_defined": (_r2r2_restriction, "phi_well_defined"),
    "principal_adjoint_commutes_on_kernel": (_r2r2_tilted_restriction, "principal_adjoint_commutes_on_kernel"),
    "reeb_adjoint_commutes_with_phi": (_r2r2_tilted_restriction, "reeb_adjoint_commutes_with_phi"),
    "theta_radical_contains_u_and_reeb": (lambda: _conditions(H3, H3_THETA, H3_D), "theta_radical_contains_u_and_reeb"),
    # theta = e1^e3: the solved u is nonzero and in Rad(theta) = span{e2}, xi = e3 is not
    "theta_radical_contains_u": (
        lambda: _conditions(H3, KForm.two_form(3, {(0, 2): 1}), diagonal([1, 1, 2, 3])),
        "theta_radical_contains_u_and_reeb",
    ),
    "metric_reproduces_dalpha": (_h3_moved_reeb, "metric_reproduces_dalpha"),
    "metric_phi_isometry": (_g0_conjugated_phi, "metric_phi_isometry"),
    "sasakian_metric_positive_definite": (_h3_unsymmetric_metric, "metric_positive_definite"),
    "kahler_metric_positive_definite": (_d4half_unsymmetric_metric, "metric_positive_definite"),
}

WITNESSES = {
    "cocycle_phi_pairing": "theta(Phi x,y)+theta(x,Phi y) = 1 on kernel pair (0,2)",
    "derivation_commutes_with_phi": "D(Phi x) = e3 - e4, Phi(D x) = -2*e1 - 2*e2 on kernel vector 0",
    "ad_u_phi_conjugation": "[u,x] = e3, -Phi[u,Phi x] = 0 on kernel vector 0",
    "torsion_vanishes": "N(e1,e3) = 2*e2",
    "derivation_commutes_with_j": "Jbar(D e1) = e2, D(J e1) = -e2",
    "phi_well_defined": "J(kernel part of e4) has x_P component 1",
    "principal_adjoint_commutes_on_kernel": "[ad(x_P), Phi] != 0 on Ker(restricted alpha)",
    "reeb_adjoint_commutes_with_phi": "[ad(xi), Phi] != 0 on the ideal",
    "theta_radical_contains_u_and_reeb": "u in Rad(theta): False, reeb in Rad(theta): False",
    "theta_radical_contains_u": "u in Rad(theta): True, reeb in Rad(theta): False",
    "metric_reproduces_dalpha": "g(x, Phi y) != d(alpha)(x,y)",
    "metric_phi_isometry": "g(Phi x, Phi y) != g(x,y) - alpha(x)alpha(y)",
    "sasakian_metric_positive_definite": "leading 2x2 minor is not positive",
    "kahler_metric_positive_definite": "leading 3x3 minor is not positive",
}

# name -> (argv, report lines): refusals of REFUSALS as the CLI reports them, with exit 1
CLI_REFUSED = {
    "center_spanned_by_reeb": (
        ["construct", "sasakian-reduction", "--builtin", "g0"],
        ["command construct sasakian-reduction", "item fail center_spanned_by_reeb | center = {0}", "overall fail"],
    ),
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


@pytest.mark.parametrize("case", sorted(BASE_HYPOTHESES))
def test_base_hypothesis_refusal_names_its_failing_item(case):
    # the refusal reports all four hypotheses, and only the one of the case fails; the oracle refuses alike
    ext, j = BASE_HYPOTHESES[case]()
    errors = []
    for call in (extend_complex_structure, theorems_oracle.extend_complex_structure):
        with pytest.raises(PreconditionError) as err:
            call(ext, j)
        errors.append((str(err.value), err.value.report))
    message, report = errors[0]
    assert message == "double extension does not satisfy the base hypotheses"
    assert report.items == tuple(
        CheckItem(name, name != case, None if name != case else witness) for name, witness in BASE_WITNESSES.items()
    )
    assert report.notes == ()
    assert errors[1] == errors[0]


@pytest.mark.parametrize("case", sorted(CLI_REFUSED))
def test_cli_refusal_names_one_failing_item(case):
    argv, lines = CLI_REFUSED[case]
    out, code = run(argv)
    assert code == 1
    assert out.splitlines() == ["lieforge/1 report", *lines]


@pytest.mark.parametrize("case", sorted(FAILING_ITEMS))
def test_failing_item_witness(case):
    call, name = FAILING_ITEMS[case]
    item = call().item(name)
    assert not item.passed
    assert item.witness == WITNESSES[case]


@pytest.mark.parametrize("case", sorted(FAILING_ITEMS))
def test_failing_item_report_is_that_of_the_full_torsion_scan(case):
    # every report of the table, the torsion items decided on a half basis, equals the one that scans every pair
    call, _ = FAILING_ITEMS[case]
    assert call() == structures_oracle.full_scan(call)


@pytest.mark.parametrize("case", sorted(NOTES))
def test_obstruction_notes(case):
    report = NOTES[case]()
    assert report.overall
    assert report.notes == OBSTRUCTION_NOTES[case]
