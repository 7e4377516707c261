import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lieforge import (
    KForm,
    LieAlgebra,
    builtin,
    center,
    central_extension,
    check_contact,
    check_frobenius,
    check_kahler,
    check_sasakian,
    is_cocycle,
    contact_ideal_restriction,
    double_extension,
    extend_complex_structure,
    frobenius_kahler_to_sasakian,
    kahler_extension_obstruction,
    kahler_to_sasakian_central,
    sasakian_double_extension,
    sasakian_double_extension_conditions,
    sasakian_reduction,
    sasakian_to_frobenius_kahler,
    reversed_double_extension,
)
from lieforge.derivations import Commute, FormEigen, Leibniz, derivation_space
from lieforge.linalg import diagonal, int_matrix, matrix, nullspace, vector, zero_matrix
from lieforge.forms import kirillov_form
from lieforge.report import DimensionMismatch, PreconditionError
from lieforge.theorems import _commute_mismatch, _phi_pairing_failure, kernel_basis

import theorems_oracle
from algebra_oracle import adjoint, dense_c
from forms_oracle import add, as_matrix
from linalg_oracle import mat_mul
from strategies import (
    BIG_RATIONALS,
    RATIONALS,
    conjugated_grading_derivation,
    conjugated_heisenberg_sasakian,
    frobenius_kahler_inputs,
    lifted_complex_structures,
    sasakian_reduction_inputs,
)


H3 = builtin("h3")
D4 = builtin("d4half")
G0 = builtin("g0")
G5 = builtin("g5")


# --- reduction and central extension -------------------------------------


def test_reduction_of_h3_is_flat_plane():
    h, _, structure = sasakian_reduction(H3.algebra, H3.sasakian())
    assert dense_c(h) == dense_c(LieAlgebra.abelian(2))
    assert structure.omega.coeff((0, 1)) == 1
    assert structure.j == matrix([[0, -1], [1, 0]])


def test_reduction_of_g5_recovers_d4half():
    h, _, structure = sasakian_reduction(G5.algebra, G5.sasakian())
    assert dense_c(h) == dense_c(D4.algebra)
    assert structure.j == D4.kahler().j
    assert structure.omega == D4.kahler().omega


def test_reduction_rejects_trivial_center():
    with pytest.raises(PreconditionError):
        sasakian_reduction(G0.algebra, G0.sasakian())


def test_flat_plane_extends_to_h3():
    g = LieAlgebra.abelian(2)
    rep, structure = check_kahler(g, matrix([[0, -1], [1, 0]]), KForm.two_form(2, {(0, 1): 1}))
    ext, _, sas = kahler_to_sasakian_central(g, structure)
    assert dense_c(ext.algebra) == dense_c(H3.algebra)
    assert sas.reeb == ext.algebra.basis_vector(2)


def test_d4half_extends_to_g5():
    ext, _, sas = kahler_to_sasakian_central(D4.algebra, D4.kahler())
    assert dense_c(ext.algebra) == dense_c(G5.algebra)


def test_round_trip_g5():
    h, _, k = sasakian_reduction(G5.algebra, G5.sasakian())
    ext, _, _ = kahler_to_sasakian_central(h, k)
    assert dense_c(ext.algebra) == dense_c(G5.algebra)


# --- the no-go for Kahler central extensions ------------------------------


def test_obstruction_h3_zero_cocycle():
    report = kahler_extension_obstruction(H3.algebra, H3.sasakian(), KForm.zero(3, 2))
    assert report.overall
    notes = dict(report.notes)
    assert notes["no_go_route"] == "closedness"
    assert notes["theta_phi_invariance"] == "holds"


def test_obstruction_h3_nonzero_theta_breaks_invariance():
    theta = KForm.two_form(3, {(0, 1): 1})
    report = kahler_extension_obstruction(H3.algebra, H3.sasakian(), theta)
    assert report.overall
    assert "fails" in dict(report.notes)["theta_phi_invariance"]
    assert "2" in dict(report.notes)["theta_phi_invariance"]


def test_obstruction_g0():
    report = kahler_extension_obstruction(G0.algebra, G0.sasakian(), KForm.zero(5, 2))
    assert report.overall
    assert dict(report.notes)["no_go_route"] == "closedness"


def test_obstruction_holds_above_dimension_one():
    # d(alpha) = 0 would leave the metric -d(alpha)(., Phi .) + alpha (x) alpha of rank 1, so from dimension 3
    # on the closedness route always holds: theta = 0 takes it, and any theta that breaks a constraint the
    # integrability route; only R, with alpha = e1*, xi = e1 and Phi = 0, gets no route
    from conftest import cocycle_basis, random_two_form

    rng = random.Random(3)
    for b in (H3, G0, G5):
        g, s = b.algebra, b.sasakian()
        thetas = cocycle_basis(g) + [random_two_form(rng, g.dim) for _ in range(20)]
        for theta, route in [(KForm.zero(g.dim, 2), "closedness")] + [(theta, "integrability") for theta in thetas]:
            report = kahler_extension_obstruction(g, s, theta)
            assert report.overall and dict(report.notes)["no_go_route"] == route
    line, (reeb, alpha, phi) = LieAlgebra.abelian(1), ((1,), KForm.basis_one_form(1, 0), ((0,),))
    report = kahler_extension_obstruction(line, check_sasakian(line, reeb, alpha, phi)[1], KForm.zero(1, 2))
    assert not report.overall and dict(report.notes)["no_go_route"] == "none"


# --- lifted complex structures on double extensions -----------------------


def _plane_double_extension(d):
    g = LieAlgebra.abelian(2)
    theta = KForm.two_form(2, {(0, 1): 1})
    return double_extension(g, theta, d)


def test_extend_complex_structure_trivial_derivation():
    j = matrix([[0, -1], [1, 0]])
    report = extend_complex_structure(_plane_double_extension(zero_matrix(3)), j)
    assert report.overall


def test_extend_complex_structure_both_sides_fail_together():
    j = matrix([[0, -1], [1, 0]])
    d = diagonal([1, -1, 0])
    report = extend_complex_structure(_plane_double_extension(d), j)
    assert not report.item("torsion_vanishes").passed
    assert not report.item("derivation_commutes_with_j").passed
    assert [item.name for item in report.items] == ["torsion_vanishes", "derivation_commutes_with_j"]


def test_base_integrability_is_scanned_where_j_squared_fails():
    # on d4half, J e1 = -e2, J e2 = 0, J e3 = -e4, J e4 = e3 fails J^2 = -Id; N_J vanishes on (e1, e3), the one
    # pair of its half basis e1, e3, but not on every pair, so the refusal names both hypotheses, as the oracle's
    ext = double_extension(D4.algebra, D4.kahler_data[1], zero_matrix(5))
    j = matrix([[0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    reports = []
    for call in (extend_complex_structure, theorems_oracle.extend_complex_structure):
        with pytest.raises(PreconditionError) as err:
            call(ext, j)
        reports.append(err.value.report)
    assert reports[0] == reports[1]
    assert [item.name for item in reports[0].items if not item.passed][:2] == ["base_complex_square", "base_complex_integrable"]


def test_extend_complex_structure_d4half_presentation():
    j = matrix([[0, -1], [1, 0]])
    d = diagonal(["1/2", "1/2", 1])
    ext = _plane_double_extension(d)
    assert dense_c(ext.algebra) == dense_c(D4.algebra)
    report = extend_complex_structure(ext, j)
    assert report.overall


def test_extend_complex_structure_refuses_reversed_double_extension():
    # the reversed extension adjoins the slot first (index 4) and z last (index 5): J-bar's blocks do not apply
    ext = reversed_double_extension(D4.algebra, KForm.basis_one_form(4, 2), dict(D4.maps)["E"], check=False)
    assert (ext.derivation_index, ext.central_index) == (4, 5)
    with pytest.raises(PreconditionError, match="expected the result of a double extension"):
        extend_complex_structure(ext, D4.kahler().j)


@pytest.mark.parametrize("j", [matrix([[0, -1], [1]])], ids=["ragged-j"])
def test_extend_complex_structure_rejects_misshapen_maps(j):
    with pytest.raises(DimensionMismatch):
        extend_complex_structure(_plane_double_extension(zero_matrix(3)), j)


# --- Sasakian double extensions -------------------------------------------


def test_double_extension_positive_instance():
    s = H3.sasakian()
    theta = KForm.zero(3, 2)
    d = diagonal([0, 0, 0, 1])
    ext, report, structure, params = sasakian_double_extension(H3.algebra, s, theta, d)
    assert (params.a, params.b) == (Fraction(1), Fraction(0))
    assert report.overall and structure is not None
    assert ext.algebra.dim == 5
    conditions = sasakian_double_extension_conditions(H3.algebra, s, theta, d)
    assert conditions.overall


def test_double_extension_negative_scale_needs_sign_solve():
    s = H3.sasakian()
    theta = KForm.zero(3, 2)
    d = diagonal([0, 0, 0, -1])
    _, report, structure, params = sasakian_double_extension(H3.algebra, s, theta, d)
    assert params.c == Fraction(-1)
    assert report.overall and structure is not None
    # the default scale c = 1 satisfies the five conditions but fails the metric
    conditions = sasakian_double_extension_conditions(H3.algebra, s, theta, d, Fraction(1))
    assert conditions.overall
    _, report2, structure2, forced = sasakian_double_extension(H3.algebra, s, theta, d, Fraction(1))
    assert (forced.a, forced.b, forced.u) == (params.a, params.b, params.u) and forced.c == 1
    assert structure2 is None
    assert not report2.item("metric_positive_definite").passed


def test_a_double_extension_is_built_and_checked_contact_once(monkeypatch):
    import lieforge.theorems as theorems

    calls = []
    for name in ("double_extension", "check_contact"):
        original = getattr(theorems, name)
        monkeypatch.setattr(theorems, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    args = (H3.algebra, H3.sasakian(), KForm.zero(3, 2), diagonal([0, 0, 0, 1]), -1)
    _, report, _, params = sasakian_double_extension(*args)
    assert sorted(calls) == ["check_contact", "double_extension"]
    assert report.item("contact:contact_top_form_nonzero").passed
    # the scale c is the one choice: d = -c follows it, and (a, b, u) are read off the solved Reeb vector e3
    assert (params.a, params.b, params.c, params.d, params.u) == (1, 0, -1, 1, (0, 0, 0))


def test_double_extension_rejects_non_contact_scaling():
    # alpha(D(z)) != 0 alone does not make the extension contact
    s = H3.sasakian()
    d = diagonal(["1/2", "1/2", 1, 1])
    with pytest.raises(PreconditionError) as err:
        sasakian_double_extension(H3.algebra, s, KForm.zero(3, 2), d)
    assert "not contact" in str(err.value)


def test_double_extension_rejects_zero_pairing():
    s = H3.sasakian()
    d = diagonal(["1/2", "1/2", 1, 0])
    with pytest.raises(PreconditionError) as err:
        sasakian_double_extension(H3.algebra, s, KForm.zero(3, 2), d)
    assert "alpha(D(z))" in str(err.value)


def test_double_extension_rejects_degenerate_params():
    s = H3.sasakian()
    theta = KForm.zero(3, 2)
    d = diagonal([0, 0, 0, 1])
    with pytest.raises(PreconditionError):
        sasakian_double_extension_conditions(H3.algebra, s, theta, d, c=Fraction(0))


def test_double_extension_condition_three_failure_matches_direct_check():
    s = H3.sasakian()
    theta = KForm.zero(3, 2)
    d = diagonal([1, -1, 0, 1])
    conditions = sasakian_double_extension_conditions(H3.algebra, s, theta, d)
    assert not conditions.item("derivation_commutes_with_phi").passed
    _, report, structure, _ = sasakian_double_extension(H3.algebra, s, theta, d)
    assert structure is None
    assert conditions.overall == report.overall == False


# --- derivation extensions between the two classes -------------------------


def test_fk_to_sasakian_produces_g0():
    ext, report, structure = frobenius_kahler_to_sasakian(
        D4.algebra, D4.frobenius(), D4.kahler(), dict(D4.maps)["E"]
    )
    assert report.overall and structure is not None
    assert dense_c(ext.algebra) == dense_c(G0.algebra)
    assert center(ext.algebra).dim == 0


def test_fk_to_sasakian_rejects_bad_frobenius():
    g = LieAlgebra.abelian(2)
    rep, structure = check_kahler(g, matrix([[0, -1], [1, 0]]), KForm.two_form(2, {(0, 1): 1}))
    from lieforge.structures import FrobeniusStructure

    fake = FrobeniusStructure(KForm.basis_one_form(2, 1), g.basis_vector(0))
    with pytest.raises(PreconditionError):
        frobenius_kahler_to_sasakian(g, fake, structure, zero_matrix(2))


@pytest.mark.parametrize(
    "construct",
    [
        lambda f: frobenius_kahler_to_sasakian(D4.algebra, f, D4.kahler(), dict(D4.maps)["E"]),
        lambda f: contact_ideal_restriction(D4.algebra, f, D4.kahler()),
    ],
    ids=["fk-to-sasakian", "contact-ideal"],
)
def test_a_correct_unbound_frobenius_structure_is_checked_and_accepted(construct, monkeypatch):
    # a hand-built structure is not bound to the algebra, so the construction checks it again; the
    # check finds the same principal element, and the result is the one the bound structure gives
    import lieforge.theorems as theorems
    from lieforge.structures import FrobeniusStructure

    bound = D4.frobenius()
    hand = FrobeniusStructure(bound.phi, bound.principal)
    assert bound.algebra is D4.algebra and hand.algebra is None
    calls = []
    original = theorems.check_frobenius
    monkeypatch.setattr(theorems, "check_frobenius", lambda *a: calls.append(a) or original(*a))
    expected = construct(bound)
    assert calls == []
    assert construct(hand) == expected and len(calls) == 1


def test_fk_to_sasakian_rejects_nonvanishing_pairing():
    # ad(e4) is an inner derivation with phi o D != 0
    d = adjoint(D4.algebra, D4.algebra.basis_vector(3))
    with pytest.raises(PreconditionError) as err:
        frobenius_kahler_to_sasakian(D4.algebra, D4.frobenius(), D4.kahler(), d)
    assert "phi o D" in str(err.value)


def test_fk_to_sasakian_rejects_identity():
    from lieforge.linalg import identity

    with pytest.raises(PreconditionError):
        frobenius_kahler_to_sasakian(D4.algebra, D4.frobenius(), D4.kahler(), identity(4))


def test_sasakian_to_fk_produces_d4half():
    d = diagonal(["1/2", "1/2", 1])
    ext, report, frob, kahler = sasakian_to_frobenius_kahler(H3.algebra, H3.sasakian(), d)
    assert report.overall
    assert dense_c(ext.algebra) == dense_c(D4.algebra)
    assert frob.principal == ext.algebra.basis_vector(3)
    assert kahler.j == D4.kahler().j


# d(alpha) builds per construction on bound inputs: no structure carries its Kirillov form, so
# sasakian-to-fk builds -d(phi) on the extension once, for its Frobenius check and as omega, the other
# two build -d(phi) once for omega = -d(phi), then fk-to-sasakian the extension's d(alpha) for its
# Sasakian check and contact-ideal the restricted contact form's for its contact and Sasakian checks
KIRILLOV_BUILDS = {
    "sasakian-to-fk": (
        lambda: (H3.sasakian(),),
        lambda s: sasakian_to_frobenius_kahler(H3.algebra, s, diagonal(["1/2", "1/2", 1])),
        1,
    ),
    "fk-to-sasakian": (
        lambda: (D4.frobenius(), D4.kahler()),
        lambda f, k: frobenius_kahler_to_sasakian(D4.algebra, f, k, D4.maps[0][1]),
        2,
    ),
    "contact-ideal": (
        lambda: (D4.frobenius(), D4.kahler()),
        lambda f, k: contact_ideal_restriction(D4.algebra, f, k),
        3,
    ),
}


@pytest.mark.parametrize("case", sorted(KIRILLOV_BUILDS))
def test_constructions_build_each_kirillov_form_once(case, monkeypatch):
    import sys

    import lieforge.forms

    inputs, construct, expected = KIRILLOV_BUILDS[case]
    structures = inputs()  # bound, so their own checks are not redone
    calls = []
    dalpha = lieforge.forms._dalpha

    def counted(*args):
        calls.append(args)
        return dalpha(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("lieforge") and getattr(module, "_dalpha", None) is dalpha:
            monkeypatch.setattr(module, "_dalpha", counted)
    report = construct(*structures)[1]
    assert report.overall
    assert len(calls) == expected


def _fresh(x):
    """x with every form a new KForm object, nothing cached on it: a form itself, or a copy of a
    structure (unbound, so a construction checks it again on the same fresh forms)."""
    if isinstance(x, KForm):
        return KForm(x.dim, x.degree, x.coeffs)
    return type(x)(*(_fresh(v) if isinstance(v, KForm) else v for v in (getattr(x, f) for f in x._fields)))


E3 = H3.sasakian_data[1]
# each check and construction, as (function, fresh inputs); the structures of the built-ins share their
# forms across calls, so only fresh forms show how often one call clears a form of denominators
ONE_READING = {
    "contact": lambda: (check_contact, H3.algebra, _fresh(E3)),
    "frobenius": lambda: (check_frobenius, D4.algebra, _fresh(D4.frobenius_form)),
    "kahler": lambda: (check_kahler, D4.algebra, D4.kahler_data[0], _fresh(D4.kahler_data[1])),
    "sasakian": lambda: (check_sasakian, H3.algebra, H3.sasakian_data[0], _fresh(E3), H3.sasakian_data[2]),
    "cocycle": lambda: (is_cocycle, D4.algebra, _fresh(D4.kahler_data[1])),
    "form-eigen": lambda: (derivation_space, H3.algebra, [Leibniz(), FormEigen(_fresh(E3), 1)]),
    "reversed-double": lambda: (reversed_double_extension, H3.algebra, _fresh(E3), diagonal([1, 1, 2])),
    "sasakian-reduction": lambda: (sasakian_reduction, G5.algebra, _fresh(G5.sasakian())),
    "kahler-to-sasakian": lambda: (kahler_to_sasakian_central, D4.algebra, _fresh(D4.kahler())),
    "kahler-obstruction": lambda: (
        kahler_extension_obstruction, H3.algebra, _fresh(H3.sasakian()), KForm.two_form(3, {(0, 1): 1})
    ),
    "double-conditions": lambda: (
        sasakian_double_extension_conditions,
        H3.algebra,
        _fresh(H3.sasakian()),
        KForm.zero(3, 2),
        diagonal([0, 0, 0, 1]),
    ),
    "sasakian-double": lambda: (
        sasakian_double_extension, H3.algebra, _fresh(H3.sasakian()), KForm.zero(3, 2), diagonal([0, 0, 0, 1])
    ),
    "sasakian-to-fk": lambda: (
        sasakian_to_frobenius_kahler, H3.algebra, _fresh(H3.sasakian()), diagonal(["1/2", "1/2", 1])
    ),
    "fk-to-sasakian": lambda: (
        frobenius_kahler_to_sasakian, D4.algebra, _fresh(D4.frobenius()), _fresh(D4.kahler()), dict(D4.maps)["E"]
    ),
    "contact-ideal": lambda: (contact_ideal_restriction, D4.algebra, _fresh(D4.frobenius()), _fresh(D4.kahler())),
}


@pytest.mark.parametrize("case", sorted(ONE_READING))
def test_each_form_is_cleared_of_denominators_once(case, monkeypatch):
    from functools import cached_property

    run, *inputs = ONE_READING[case]()  # built before the spy: checking a built-in reads its forms
    reads = []
    compute = KForm._ints.func

    def counted(form):
        reads.append(form)
        return compute(form)

    spy = cached_property(counted)
    spy.__set_name__(KForm, "_ints")
    monkeypatch.setattr(KForm, "_ints", spy)
    run(*inputs)
    assert reads and len(set(reads)) == len(reads), reads  # no form, nor an equal copy, is read twice


def test_sasakian_to_fk_rejects_zero_map():
    with pytest.raises(PreconditionError) as err:
        sasakian_to_frobenius_kahler(H3.algebra, H3.sasakian(), zero_matrix(3))
    assert "alpha o D" in str(err.value)


def test_sasakian_to_fk_rejects_noncommuting():
    d = diagonal([1, 0, 1])
    with pytest.raises(PreconditionError) as err:
        sasakian_to_frobenius_kahler(H3.algebra, H3.sasakian(), d)
    assert "commute" in str(err.value)


# --- restriction to the contact ideal --------------------------------------


def test_contact_ideal_restriction_d4half():
    h, report, structure = contact_ideal_restriction(D4.algebra, D4.frobenius(), D4.kahler())
    assert report.overall
    assert dense_c(h) == dense_c(H3.algebra)
    assert structure.phi == H3.sasakian().phi
    assert structure.reeb == h.basis_vector(2)


def test_contact_ideal_restriction_rejects_broken_j():
    # swapping the rotation block breaks J^2 = -Id, refused up front
    j = matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    from lieforge.structures import KahlerStructure

    fake = KahlerStructure(j, D4.kahler().omega, D4.kahler().metric)
    with pytest.raises(PreconditionError):
        contact_ideal_restriction(D4.algebra, D4.frobenius(), fake)


def _sample_family(rng, particular, basis, dim):
    d = [list(row) for row in particular]
    for m in basis:
        c = Fraction(rng.randint(-2, 2))
        for i in range(dim):
            for j in range(dim):
                d[i][j] += c * m[i][j]
    return tuple(tuple(row) for row in d)


def test_contact_ideal_criteria_agree_on_generated_family():
    # derivations of h3 fixing alpha and commuting with Phi on its kernel
    s = H3.sasakian()
    alpha = KForm.basis_one_form(3, 2)
    particular, basis = derivation_space(
        H3.algebra,
        [Leibniz(), FormEigen(alpha, Fraction(1)), Commute(s.phi, on=None)],
    )
    assert particular is not None
    rng = random.Random(17)
    seen = 0
    for _ in range(10):
        d = _sample_family(rng, particular, basis, 3)
        try:
            ext, report, frob, kahler = sasakian_to_frobenius_kahler(H3.algebra, s, d)
        except PreconditionError:
            continue
        # the preconditions passed, so the construction must verify
        assert report.overall, [it for it in report.items if not it.passed]
        assert frob is not None and kahler is not None
        assert frob.principal == ext.algebra.basis_vector(3)
        h, rep, structure = contact_ideal_restriction(ext.algebra, frob, kahler)
        assert rep.item("criteria_agree").passed
        seen += 1
    assert seen >= 5


def test_fk_to_sasakian_randomized_family_always_verifies():
    # derivations of d4half with phi o D = 0 commuting with J
    f = D4.frobenius()
    k = D4.kahler()
    particular, basis = derivation_space(
        D4.algebra,
        [Leibniz(), FormEigen(f.phi, Fraction(0)), Commute(k.j, on=None)],
    )
    assert particular is not None
    rng = random.Random(31)
    seen = 0
    for _ in range(12):
        d = _sample_family(rng, particular, basis, 4)
        ext, report, structure = frobenius_kahler_to_sasakian(D4.algebra, f, k, d)
        assert report.overall, [it for it in report.items if not it.passed]
        assert structure is not None
        seen += 1
    assert seen == 12


def test_double_extension_of_plane_by_zero_map_is_heisenberg_sum():
    ext = _plane_double_extension(zero_matrix(3))
    expected = LieAlgebra(4, {(0, 1): {2: 1}})
    assert dense_c(ext.algebra) == dense_c(expected)


def _g0_double_extension_draws():
    """60 pairs (theta, D) on g0 (seed 11): theta a {-1, 0, 1} combination of the cocycle basis, D one of
    the derivations of the central extension by theta."""
    from conftest import cocycle_basis

    rng = random.Random(11)
    forms = cocycle_basis(G0.algebra)
    for _ in range(60):
        theta = KForm.zero(5, 2)
        for f in forms:
            theta = add(theta, f.scale(Fraction(rng.randint(-1, 1))))
        _, basis = derivation_space(central_extension(G0.algebra, theta).algebra, [Leibniz()])
        coeffs = [rng.randint(-1, 1) for _ in basis]
        yield theta, matrix([[sum(c * m[i][j] for c, m in zip(coeffs, basis)) for j in range(6)] for i in range(6)])


def test_double_extension_oracle_on_five_dimensional_base():
    # the condition system is not Heisenberg-specific: positive and failing
    # instances over g0 (dim 5 -> dim 7) agree with the direct axiom check
    s = G0.sasakian()
    for scale in (1, -2):
        theta = KForm.zero(5, 2)
        d = diagonal([0, 0, 0, 0, 0, scale])
        conditions = sasakian_double_extension_conditions(G0.algebra, s, theta, d)
        ext, report, structure, _ = sasakian_double_extension(G0.algebra, s, theta, d)
        assert conditions.overall and report.overall and structure is not None
        assert ext.algebra.dim == 7

    constructed = 0
    for theta, d in _g0_double_extension_draws():
        try:
            ext, report, structure, _ = sasakian_double_extension(G0.algebra, s, theta, d)
        except PreconditionError:
            continue
        conditions = sasakian_double_extension_conditions(G0.algebra, s, theta, d)
        assert conditions.overall == report.overall == (structure is not None)
        constructed += 1
    assert constructed >= 10


def test_structure_checked_on_another_algebra_is_verified_again(monkeypatch):
    import lieforge.theorems as theorems

    # valid on h3, not on the abelian algebra: refused by the input check, not by the center test
    with pytest.raises(PreconditionError) as err:
        sasakian_reduction(LieAlgebra.abelian(3), H3.sasakian())
    assert "fails the Sasakian axioms" in str(err.value)
    # g0's structure is also Sasakian on g5; only the binding decides whether it is checked again
    calls = []
    original = theorems.check_sasakian
    monkeypatch.setattr(theorems, "check_sasakian", lambda *a: calls.append(a[0]) or original(*a))
    sasakian_reduction(G5.algebra, G0.sasakian())
    assert calls == [G5.algebra]
    sasakian_reduction(G5.algebra, G5.sasakian())
    assert calls == [G5.algebra]


# --- the constructions against the paths that computed a fact twice ----------


def outcome(call, *args):
    """call(*args), or the type, message and report of the error it raises."""
    try:
        return call(*args)
    except ValueError as exc:  # PreconditionError and DimensionMismatch among them
        return type(exc), str(exc), getattr(exc, "report", None)


def _g0_moved(seed):
    """g0 with its checked Sasakian structure, in its own basis (seed None) or in the random basis P of the
    seed, moved by the conjugation helpers of conftest (xi becomes P^-1 xi): a center of {0} in both."""
    from conftest import conjugate_algebra, conjugate_map, conjugate_one_form, mat_inverse, random_invertible
    from linalg_oracle import mat_vec

    (reeb, alpha, phi), g = G0.sasakian_data, G0.algebra
    if seed is not None:
        p = random_invertible(random.Random(seed), 5)
        pinv = mat_inverse(p)
        g, reeb, alpha = conjugate_algebra(g, p, pinv), mat_vec(pinv, reeb), conjugate_one_form(alpha, p)
        phi = conjugate_map(phi, p, pinv)
    return g, check_sasakian(g, reeb, alpha, phi)[1]


@settings(max_examples=60, deadline=None)
@given(sasakian_reduction_inputs())
@example(_g0_moved(None))
@example(_g0_moved(1))
@example(_g0_moved(2))
def test_sasakian_reduction_matches_oracle(case):
    # coordinates read off the pivots of the reduced basis of Ker(alpha), not solved for; the g0 examples are
    # refused by ad(xi) != 0, and the oracle eliminates the center for the same witness
    assert outcome(sasakian_reduction, *case) == outcome(theorems_oracle.sasakian_reduction, *case)


def _refuse_call(name):
    def call(*args):
        raise AssertionError(f"{name} called")

    return call


@pytest.mark.parametrize("name", ["h3", "g5"])
def test_passing_reduction_eliminates_no_center(monkeypatch, name):
    # the center is tested as ad(xi) = 0; only a refusal computes it, for its witness
    import lieforge.algebra
    import lieforge.theorems

    for module in (lieforge.algebra, lieforge.theorems):
        monkeypatch.setattr(module, "center", _refuse_call("center"))
    b = builtin(name)
    assert sasakian_reduction(b.algebra, b.sasakian())[1].overall


@pytest.mark.parametrize("theta", [{}, {(0, 2): 1}], ids=["zero", "e1^e3"])
def test_double_extension_conditions_eliminate_no_radical(monkeypatch, theta):
    # u and xi in Rad(theta) are the products T u = 0 and T xi = 0 with theta's skew matrix
    import lieforge.forms
    import lieforge.theorems

    for module in (lieforge.forms, lieforge.theorems):
        monkeypatch.setattr(module, "radical", _refuse_call("radical"))
    d = diagonal([1, 1, 2, 3] if theta else [0, 0, 0, 1])
    report = sasakian_double_extension_conditions(H3.algebra, H3.sasakian(), KForm.two_form(3, theta), d)
    assert report.item("theta_radical_contains_u_and_reeb").passed == (not theta)


@settings(max_examples=60, deadline=None)
@given(frobenius_kahler_inputs())
def test_contact_ideal_restriction_matches_oracle(case):
    # one bracket per pair for the ideal test, the brackets of the ideal and ad(x_P)
    assert outcome(contact_ideal_restriction, *case) == outcome(theorems_oracle.contact_ideal_restriction, *case)


# --- block maps and one commutator helper against the column-by-column paths ---

ORACLE_CASES = ["h3", "g5", "g0"] + [f"conjugated-h{2 * m + 1}" for m in range(1, 7)]


def _sasakian_case(name):
    """(g, s, D): a Sasakian built-in, or h_{2m+1} in the random basis of seed m, with D its grading derivation
    (1/2 on x and y, 1 on z). No derivation of g5 with alpha o D = alpha commutes with Phi on Ker(alpha), and no
    derivation of g0 has alpha o D = alpha: sasakian_to_frobenius_kahler refuses both."""
    if not name.startswith("conjugated-"):
        b = builtin(name)
        d = {"h3": ["1/2", "1/2", 1], "g5": [1, 0, 1, 0, 1], "g0": [0] * 5}[name]
        return b.algebra, b.sasakian(), diagonal(d)
    m = int(name.removeprefix("conjugated-h")) // 2
    _, s = check_sasakian(*conjugated_heisenberg_sasakian(m, m))
    return s.algebra, s, conjugated_grading_derivation(m, m)


def _plus_one(d):
    """d (+) 1 on the central extension by theta = 0: d on the base, 1 on z."""
    return matrix([(*row, 0) for row in d] + [[0] * len(d) + [1]])


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_derivation_extensions_match_oracle(name):
    # J = [[Phi, xi], [-alpha, 0]] and Phi = [[J, 0], [-phi o J, 0]] as block matrices; [Phi, D] on Ker(alpha)
    # and [ad(x_P), Phi] on the restricted kernel through the one commutator helper
    g, s, d = _sasakian_case(name)
    out = outcome(sasakian_to_frobenius_kahler, g, s, d)
    assert out == outcome(theorems_oracle.sasakian_to_frobenius_kahler, g, s, d)
    refusals = {"g5": "Phi and D must commute on Ker(alpha)", "g0": "alpha o D must equal alpha"}
    if name in refusals:
        assert out[:2] == (PreconditionError, refusals[name])
        return
    ext, report, frob, kahler = out
    assert report.overall
    fk = (ext.algebra, frob, kahler)
    assert outcome(contact_ideal_restriction, *fk) == outcome(theorems_oracle.contact_ideal_restriction, *fk)
    zero = zero_matrix(ext.algebra.dim)
    assert outcome(frobenius_kahler_to_sasakian, *fk, zero) == outcome(
        theorems_oracle.frobenius_kahler_to_sasakian, *fk, zero
    )


@pytest.mark.parametrize(
    "d",
    [dict(D4.maps)["E"], zero_matrix(4), adjoint(D4.algebra, D4.algebra.basis_vector(3))],
    ids=["E", "zero", "ad-e4"],
)
def test_fk_to_sasakian_on_d4half_matches_oracle(d):
    args = (D4.algebra, D4.frobenius(), D4.kahler(), d)
    assert outcome(frobenius_kahler_to_sasakian, *args) == outcome(theorems_oracle.frobenius_kahler_to_sasakian, *args)


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_double_extensions_match_oracle(name):
    # Phi-bar as one block matrix and D read once, as the slot action; theta = 0 with D (+) 1 (not contact on
    # the Heisenberg algebras), 0 (+) 1 (Sasakian) and ad(e_1) (+) 1 (fails [D, Phi] = 0)
    g, s, d = _sasakian_case(name)
    theta = KForm.zero(g.dim, 2)
    for dd in (_plus_one(d), _plus_one(zero_matrix(g.dim)), _plus_one(adjoint(g, g.basis_vector(0)))):
        args = (g, s, theta, dd)
        assert outcome(sasakian_double_extension_conditions, *args) == outcome(
            theorems_oracle.sasakian_double_extension_conditions, *args
        )
        assert outcome(sasakian_double_extension, *args) == outcome(theorems_oracle.sasakian_double_extension, *args)


@pytest.mark.parametrize("weights", [[1, 1, 2, 3], [1, -1, 0, 1], [2, "1/2", "5/2", "9/2"]])
def test_double_extension_by_a_cocycle_matches_oracle(weights):
    # theta = e1^e3 on h3 and D diagonal on its central extension: the solved Reeb vector has u != 0, and b != 0
    # except for the second weights, so every block of Phi-bar is nonzero
    s = H3.sasakian()
    theta = KForm.two_form(3, {(0, 2): 1})
    args = (H3.algebra, s, theta, diagonal(weights))
    result = sasakian_double_extension(*args)
    assert result == theorems_oracle.sasakian_double_extension(*args)
    params = result[3]
    assert any(params.u) and (params.b != 0) == (weights[1] != -1)
    assert sasakian_double_extension_conditions(*args) == theorems_oracle.sasakian_double_extension_conditions(*args)


@pytest.mark.parametrize("name", [n for n in ORACLE_CASES if n not in ("g5", "g0")])
def test_extend_complex_structure_matches_oracle(name):
    # J-bar = [[J, 0, 0], [0, 0, -1], [0, 1, 0]] on the double extension of a Frobenius-Kahler algebra by its
    # symplectic form: D = 0 commutes with J-bar, the inner derivations of e_1 and the slot do not
    g, s, d = _sasakian_case(name)
    ext, _, _, kahler = sasakian_to_frobenius_kahler(g, s, d)
    central = central_extension(ext.algebra, kahler.omega).algebra
    slot = central.basis_vector(g.dim)
    for dd in (zero_matrix(central.dim), adjoint(central, central.basis_vector(0)), adjoint(central, slot)):
        double = double_extension(ext.algebra, kahler.omega, dd)
        assert outcome(extend_complex_structure, double, kahler.j) == outcome(
            theorems_oracle.extend_complex_structure, double, kahler.j
        )


@settings(max_examples=80, deadline=None)
@given(lifted_complex_structures())
def test_lifted_complex_structure_matches_oracle_on_invariant_cocycles(case):
    # the torsion of the lift, read off the commutation search, against its definition on the whole extension
    ext, j = case
    assert outcome(extend_complex_structure, ext, j) == outcome(theorems_oracle.extend_complex_structure, ext, j)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.lists(RATIONALS, min_size=n, max_size=n), st.integers(0, n))))
def test_kernel_basis_is_the_nullspace_of_its_row(case):
    # Fraction coordinates, zeroed from index k on: a zero row (k = 0) and trailing zeros
    coords, k = case
    coords = coords[:k] + [0] * (len(coords) - k)
    n = len(coords)
    assert kernel_basis(LieAlgebra.abelian(n), KForm.one_form(n, coords)) == nullspace([vector(coords)], n)


MOVE = matrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]])  # moves e3* of h3 to e1* + e3*


def _moved_h3(int_form):
    """(g, s, P^-1): h3 moved by MOVE with its checked Sasakian structure, alpha = e1* + e3* given by
    int coefficients (which KForm accepts) or as Fractions."""
    from conftest import conjugate_algebra, conjugate_map, conjugate_one_form, mat_inverse
    from linalg_oracle import mat_vec

    pinv = mat_inverse(MOVE)
    g = conjugate_algebra(H3.algebra, MOVE, pinv)
    reeb, alpha, phi = H3.sasakian_data
    alpha = conjugate_one_form(alpha, MOVE)
    if int_form:
        alpha = KForm(3, 1, tuple((i, int(v)) for i, v in alpha.coeffs))
    return g, check_sasakian(g, mat_vec(pinv, reeb), alpha, conjugate_map(phi, MOVE, pinv))[1], pinv


def _d4half_frobenius(int_form):
    """d4half's Frobenius structure, unbound, with phi = e3* given by an int coefficient or as a Fraction."""
    from lieforge.structures import FrobeniusStructure

    phi = KForm(4, 1, (((2,), 1),)) if int_form else KForm.basis_one_form(4, 2)
    return FrobeniusStructure(phi, D4.frobenius().principal)


def _moved_d(g, s, pinv):
    from conftest import conjugate_map

    return sasakian_to_frobenius_kahler(g, s, conjugate_map(diagonal(["1/2", "1/2", 1]), MOVE, pinv))


# the constructions that read Ker(alpha) (kernel_basis), and fk-to-sasakian, which lifts phi
INT_TWINS = {
    "sasakian-reduction": lambda i: sasakian_reduction(*_moved_h3(i)[:2]),
    "kahler-obstruction": lambda i: kahler_extension_obstruction(*_moved_h3(i)[:2], KForm.two_form(3, {(0, 1): 1})),
    "double-conditions": lambda i: sasakian_double_extension_conditions(
        *_moved_h3(i)[:2], KForm.zero(3, 2), diagonal([0, 0, 0, 1])
    ),
    "sasakian-double": lambda i: sasakian_double_extension(*_moved_h3(i)[:2], KForm.zero(3, 2), diagonal([0, 0, 0, 1])),
    "sasakian-to-fk": lambda i: _moved_d(*_moved_h3(i)),
    "contact-ideal": lambda i: contact_ideal_restriction(D4.algebra, _d4half_frobenius(i), D4.kahler()),
    "fk-to-sasakian": lambda i: frobenius_kahler_to_sasakian(
        D4.algebra, _d4half_frobenius(i), D4.kahler(), dict(D4.maps)["E"]
    ),
}


@pytest.mark.parametrize("case", sorted(INT_TWINS))
def test_int_coefficient_forms_construct_like_their_fraction_twins(case):
    # kernel_basis divided two ints of such a form into a float, which the checks then refused
    assert all(type(v) is int for _, v in _moved_h3(True)[1].alpha.coeffs + _d4half_frobenius(True).phi.coeffs)
    assert INT_TWINS[case](True) == INT_TWINS[case](False)


# --- integer conditions against the Fraction paths they replaced ---------------


@st.composite
def commuting_or_not(draw):
    """(basis, a, b): an n x n map a with BIG_RATIONALS entries and b = c0 + c1 a + c2 a^2 (they commute),
    that b with one entry moved, or an independent b (they mostly do not); the basis is up to n+1 vectors."""
    n = draw(st.integers(1, 4))
    a = tuple(tuple(draw(st.lists(BIG_RATIONALS, min_size=n, max_size=n))) for _ in range(n))
    kind = draw(st.sampled_from(["polynomial", "moved", "random"]))
    if kind == "random":
        b = tuple(tuple(draw(st.lists(BIG_RATIONALS, min_size=n, max_size=n))) for _ in range(n))
    else:
        c0, c1, c2 = (draw(RATIONALS) for _ in range(3))
        a2 = mat_mul(a, a)
        b = [[c0 * (i == j) + c1 * a[i][j] + c2 * a2[i][j] for j in range(n)] for i in range(n)]
        if kind == "moved":
            b[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += draw(BIG_RATIONALS)
        b = tuple(map(tuple, b))
    basis = draw(st.lists(st.lists(BIG_RATIONALS, min_size=n, max_size=n).map(tuple), max_size=n + 1))
    return basis, a, b


@settings(max_examples=150, deadline=None)
@given(commuting_or_not())
def test_commute_mismatch_matches_fraction_pair(case):
    # [a, b] formed once as an integer matrix, each vector one integer product; witness as the four mat_vec calls
    basis, a, b = case
    assert _commute_mismatch(basis, int_matrix(a), int_matrix(b)) == theorems_oracle.commute_mismatch(basis, a, b)


@st.composite
def pairing_inputs(draw):
    """(basis, theta, Phi) with BIG_RATIONALS entries on dimension 1-4; Phi = 0 passes every pair."""
    n = draw(st.integers(1, 4))
    rows = st.lists(BIG_RATIONALS, min_size=n, max_size=n).map(tuple)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    theta = KForm.two_form(n, dict(zip(pairs, draw(st.lists(BIG_RATIONALS, min_size=len(pairs), max_size=len(pairs))))))
    phi = draw(st.one_of(st.just(zero_matrix(n)), st.lists(rows, min_size=n, max_size=n).map(tuple)))
    return draw(st.lists(rows, max_size=n + 1)), theta, phi


@settings(max_examples=100, deadline=None)
@given(pairing_inputs())
def test_phi_pairing_failure_matches_fraction_pairs(case):
    # the form T Phi - (T Phi)^T on integers, one product per pair; the witness as forms_oracle.evaluate gives it
    basis, theta, phi = case
    expected = theorems_oracle.phi_pairing_failure(basis, theta, phi)
    assert _phi_pairing_failure(basis, int_matrix(as_matrix(theta)), int_matrix(phi)) == expected


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_kahler_extension_obstruction_matches_oracle(name):
    # theta = 0 and -d(alpha) pass every pairing; a dense integer 2-form fails them
    g, s, _ = _sasakian_case(name)
    rng = random.Random(g.dim)
    dense = KForm.two_form(g.dim, {(i, j): rng.randint(-2, 2) for i in range(g.dim) for j in range(i + 1, g.dim)})
    for theta in (KForm.zero(g.dim, 2), kirillov_form(g, s.alpha), dense):
        report = kahler_extension_obstruction(g, s, theta)
        assert report == theorems_oracle.kahler_extension_obstruction(g, s, theta)
    assert dict(report.notes)["no_go_route"] == "integrability"


def _double_extension_condition_reports():
    """The condition reports of the double-extension families of this module and of acceptance 3: its 100
    instances on h3; theta = 0 with D (+) 1, 0 (+) 1 and ad(e_1) (+) 1 on ORACLE_CASES; theta = e1^e3 with
    diagonal D on h3; G0_THETA with G0_D on g0; and 60 draws of theta in span(Z^2(g0)) with D a {-1, 0, 1}
    combination of the derivations of the central extension (``_g0_double_extension_draws``). Refused inputs
    are skipped."""
    from test_acceptance import _heisenberg_double_extension_instances

    instances = _heisenberg_double_extension_instances(random.Random(2024), 100)
    cases = [(H3.algebra, s, theta, d) for s, theta, d, _ in instances]
    for name in ORACLE_CASES:
        g, s, d = _sasakian_case(name)
        for dd in (_plus_one(d), _plus_one(zero_matrix(g.dim)), _plus_one(adjoint(g, g.basis_vector(0)))):
            cases.append((g, s, KForm.zero(g.dim, 2), dd))
    for weights in ([1, 1, 2, 3], [1, -1, 0, 1], [2, "1/2", "5/2", "9/2"]):
        cases.append((H3.algebra, H3.sasakian(), KForm.two_form(3, {(0, 2): 1}), diagonal(weights)))
    cases.append((G0.algebra, G0.sasakian(), KForm.two_form(5, G0_THETA), matrix(G0_D)))
    cases += [(G0.algebra, G0.sasakian(), theta, d) for theta, d in _g0_double_extension_draws()]
    for case in cases:
        try:
            yield sasakian_double_extension_conditions(*case)
        except PreconditionError:
            continue


def test_ad_u_phi_conjugation_never_fails_alone():
    # condition 2 (u in Rad(theta)) forces u = 0, and then [u, x] = -Phi[u, Phi x] holds trivially
    failing = [r for r in _double_extension_condition_reports() if not r.item("ad_u_phi_conjugation").passed]
    assert failing and all(not r.item("theta_radical_contains_u_and_reeb").passed for r in failing)


G0_THETA = {(0, 3): 1, (0, 4): 1, (1, 3): "-1/2", (1, 4): 2}
G0_D = [[1, -1, 0, 0, 1, 0], [1, 1, 0, "1/2", 0, 0], [1, 0, 2, -1, 0, 0], [0] * 6, [0] * 6, [0, "5/2", 0, 1, 1, "1/2"]]


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_double_extension_conditions_with_both_sides_nonzero_match_oracle(seed):
    # on g0 this u fails [u, x] = -Phi[u, Phi x] with both sides nonzero; a random basis (seed) gives Phi fractions,
    # so the two sides of the failing vector have different denominators
    from conftest import conjugate_algebra, conjugate_map, conjugate_one_form, conjugate_two_form, mat_inverse
    from conftest import random_invertible
    from linalg_oracle import mat_vec

    (reeb, alpha, phi), g = G0.sasakian_data, G0.algebra
    theta, d = KForm.two_form(5, G0_THETA), matrix(G0_D)
    if seed is not None:
        p = random_invertible(random.Random(seed), 5)
        pinv = mat_inverse(p)
        g, reeb, alpha = conjugate_algebra(g, p, pinv), mat_vec(pinv, reeb), conjugate_one_form(alpha, p)
        phi, theta = conjugate_map(phi, p, pinv), conjugate_two_form(theta, p)
        p6, p6inv = (tuple((*row, 0) for row in m) + ((0,) * 5 + (1,),) for m in (p, pinv))  # z stays put
        d = conjugate_map(d, p6, p6inv)
    s = check_sasakian(g, reeb, alpha, phi)[1]
    args = (g, s, theta, d)
    report = sasakian_double_extension_conditions(*args)
    assert report == theorems_oracle.sasakian_double_extension_conditions(*args)
    witness = report.item("ad_u_phi_conjugation").witness
    assert not report.item("ad_u_phi_conjugation").passed and "= 0 " not in witness
