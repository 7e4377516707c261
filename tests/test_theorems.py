import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from lieforge import (
    DoubleExtensionParams,
    KForm,
    LieAlgebra,
    adjoint,
    builtin,
    center,
    central_extension,
    check_kahler,
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
    solve_double_extension_params,
)
from lieforge.derivations import Commute, FormEigen, Leibniz, derivation_space
from lieforge.linalg import diagonal, matrix, zero_matrix
from lieforge.report import DimensionMismatch, PreconditionError

import theorems_oracle
from strategies import frobenius_kahler_inputs, sasakian_reduction_inputs


H3 = builtin("h3")
D4 = builtin("d4half")
G0 = builtin("g0")
G5 = builtin("g5")


# --- reduction and central extension -------------------------------------


def test_reduction_of_h3_is_flat_plane():
    h, _, structure = sasakian_reduction(H3.algebra, H3.sasakian())
    assert h.c == LieAlgebra.abelian(2).c
    assert structure.omega.coeff((0, 1)) == 1
    assert structure.j == matrix([[0, -1], [1, 0]])


def test_reduction_of_g5_recovers_d4half():
    h, _, structure = sasakian_reduction(G5.algebra, G5.sasakian())
    assert h.c == D4.algebra.c
    assert structure.j == D4.kahler().j
    assert structure.omega == D4.kahler().omega


def test_reduction_rejects_trivial_center():
    with pytest.raises(PreconditionError):
        sasakian_reduction(G0.algebra, G0.sasakian())


def test_flat_plane_extends_to_h3():
    g = LieAlgebra.abelian(2)
    rep, structure = check_kahler(g, matrix([[0, -1], [1, 0]]), KForm.two_form(2, {(0, 1): 1}))
    ext, _, sas = kahler_to_sasakian_central(g, structure)
    assert ext.algebra.c == H3.algebra.c
    assert sas.reeb == ext.algebra.basis_vector(2)


def test_d4half_extends_to_g5():
    ext, _, sas = kahler_to_sasakian_central(D4.algebra, D4.kahler())
    assert ext.algebra.c == G5.algebra.c


def test_round_trip_g5():
    h, _, k = sasakian_reduction(G5.algebra, G5.sasakian())
    ext, _, _ = kahler_to_sasakian_central(h, k)
    assert ext.algebra.c == G5.algebra.c


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
    assert report.item("equivalence_agrees").passed


def test_extend_complex_structure_d4half_presentation():
    j = matrix([[0, -1], [1, 0]])
    d = diagonal(["1/2", "1/2", 1])
    ext = _plane_double_extension(d)
    assert ext.algebra.c == D4.algebra.c
    report = extend_complex_structure(ext, j)
    assert report.overall


@pytest.mark.parametrize("j", [matrix([[0, -1], [1]])], ids=["ragged-j"])
def test_extend_complex_structure_rejects_misshapen_maps(j):
    with pytest.raises(DimensionMismatch):
        extend_complex_structure(_plane_double_extension(zero_matrix(3)), j)


# --- Sasakian double extensions -------------------------------------------


def test_double_extension_positive_instance():
    s = H3.sasakian()
    theta = KForm.zero(3, 2)
    d = diagonal([0, 0, 0, 1])
    params = solve_double_extension_params(H3.algebra, s, theta, d)
    assert (params.a, params.b) == (Fraction(1), Fraction(0))
    conditions = sasakian_double_extension_conditions(H3.algebra, s, theta, d, params)
    assert conditions.overall
    ext, report, structure = sasakian_double_extension(H3.algebra, s, theta, d, params)
    assert report.overall and structure is not None
    assert ext.algebra.dim == 5


def test_double_extension_negative_scale_needs_sign_solve():
    s = H3.sasakian()
    theta = KForm.zero(3, 2)
    d = diagonal([0, 0, 0, -1])
    params = solve_double_extension_params(H3.algebra, s, theta, d)
    assert params.c == Fraction(-1)
    _, report, structure = sasakian_double_extension(H3.algebra, s, theta, d, params)
    assert report.overall and structure is not None
    # the default scale c = 1 satisfies the five conditions but fails the metric
    forced = DoubleExtensionParams(params.a, params.b, Fraction(1), Fraction(-1), params.u)
    conditions = sasakian_double_extension_conditions(H3.algebra, s, theta, d, forced)
    assert conditions.overall
    _, report2, structure2 = sasakian_double_extension(H3.algebra, s, theta, d, forced)
    assert structure2 is None
    assert not report2.item("metric_positive_definite").passed


def test_solved_params_carry_their_build_for_the_same_inputs_only(monkeypatch):
    import dataclasses

    import lieforge.theorems as theorems

    builds = []
    original = theorems._build_double_extension
    monkeypatch.setattr(theorems, "_build_double_extension", lambda *a: builds.append(a) or original(*a))
    s = H3.sasakian()
    theta = KForm.zero(3, 2)
    d = diagonal([0, 0, 0, 1])
    params = solve_double_extension_params(H3.algebra, s, theta, d)
    sasakian_double_extension_conditions(H3.algebra, s, theta, d, params)
    _, report, _ = sasakian_double_extension(H3.algebra, s, theta, d, params)
    assert report.overall and len(builds) == 1
    # an equal but distinct map, a replace() result and a hand-built copy are built again
    sasakian_double_extension(H3.algebra, s, theta, diagonal([0, 0, 0, 1]), params)
    copy = DoubleExtensionParams(params.a, params.b, params.c, params.d, params.u)
    for other in (dataclasses.replace(params), copy):
        assert other == params
        sasakian_double_extension(H3.algebra, s, theta, d, other)
    assert len(builds) == 4


def test_double_extension_rejects_non_contact_scaling():
    # alpha(D(z)) != 0 alone does not make the extension contact
    s = H3.sasakian()
    d = diagonal(["1/2", "1/2", 1, 1])
    with pytest.raises(PreconditionError) as err:
        solve_double_extension_params(H3.algebra, s, KForm.zero(3, 2), d)
    assert "not contact" in str(err.value)


def test_double_extension_rejects_zero_pairing():
    s = H3.sasakian()
    d = diagonal(["1/2", "1/2", 1, 0])
    with pytest.raises(PreconditionError) as err:
        solve_double_extension_params(H3.algebra, s, KForm.zero(3, 2), d)
    assert "alpha(D(z))" in str(err.value)


def test_double_extension_rejects_degenerate_params():
    s = H3.sasakian()
    theta = KForm.zero(3, 2)
    d = diagonal([0, 0, 0, 1])
    bad = DoubleExtensionParams(Fraction(1), Fraction(0), Fraction(0), Fraction(0), (Fraction(0),) * 3)
    with pytest.raises(PreconditionError):
        sasakian_double_extension_conditions(H3.algebra, s, theta, d, bad)


def test_double_extension_rejects_wrong_reeb_params():
    s = H3.sasakian()
    theta = KForm.zero(3, 2)
    d = diagonal([0, 0, 0, 1])
    wrong = DoubleExtensionParams(
        Fraction(0), Fraction(1), Fraction(1), Fraction(-1), (Fraction(0),) * 3
    )
    with pytest.raises(PreconditionError) as err:
        sasakian_double_extension_conditions(H3.algebra, s, theta, d, wrong)
    assert "Reeb" in str(err.value)


def test_double_extension_condition_three_failure_matches_direct_check():
    s = H3.sasakian()
    theta = KForm.zero(3, 2)
    d = diagonal([1, -1, 0, 1])
    params = solve_double_extension_params(H3.algebra, s, theta, d)
    conditions = sasakian_double_extension_conditions(H3.algebra, s, theta, d, params)
    assert not conditions.item("derivation_commutes_with_phi").passed
    _, report, structure = sasakian_double_extension(H3.algebra, s, theta, d, params)
    assert structure is None
    assert conditions.overall == report.overall == False


# --- derivation extensions between the two classes -------------------------


def test_fk_to_sasakian_produces_g0():
    ext, report, structure = frobenius_kahler_to_sasakian(
        D4.algebra, D4.frobenius(), D4.kahler(), D4.named_map("E")
    )
    assert report.overall and structure is not None
    assert ext.algebra.c == G0.algebra.c
    assert center(ext.algebra).dim == 0


def test_fk_to_sasakian_rejects_bad_frobenius():
    g = LieAlgebra.abelian(2)
    rep, structure = check_kahler(g, matrix([[0, -1], [1, 0]]), KForm.two_form(2, {(0, 1): 1}))
    from lieforge.structures import FrobeniusStructure

    fake = FrobeniusStructure(KForm.basis_one_form(2, 1), g.basis_vector(0))
    with pytest.raises(PreconditionError):
        frobenius_kahler_to_sasakian(g, fake, structure, zero_matrix(2))


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
    assert ext.algebra.c == D4.algebra.c
    assert frob.principal == ext.algebra.basis_vector(3)
    assert kahler.j == D4.kahler().j


def test_exact_two_forms_are_kirillov_forms(monkeypatch):
    # -d(alpha) of a 1-form comes from kirillov_form, not the general-degree differential
    import sys

    import lieforge.forms

    differential = lieforge.forms.ce_differential

    def degree_two_only(g, form):
        assert form.degree != 1, "ce_differential called on a 1-form"
        return differential(g, form)

    for name, module in list(sys.modules.items()):
        if name.startswith("lieforge") and getattr(module, "ce_differential", None) is differential:
            monkeypatch.setattr(module, "ce_differential", degree_two_only)
    d = diagonal(["1/2", "1/2", 1])
    ext, report, _, _ = sasakian_to_frobenius_kahler(H3.algebra, H3.sasakian(), d)
    assert report.overall and ext.algebra.c == D4.algebra.c
    assert reversed_double_extension(H3.algebra, H3.sasakian().alpha, d).algebra.c == G5.algebra.c


# d(alpha) builds per construction on bound inputs: the Kirillov form check_frobenius binds to a
# Frobenius structure serves as omega = -d(phi) in both directions, and contact-ideal builds only
# the restricted contact form's, for its contact and Sasakian checks
KIRILLOV_BUILDS = {
    "sasakian-to-fk": (
        lambda: (H3.sasakian(),),
        lambda s: sasakian_to_frobenius_kahler(H3.algebra, s, diagonal(["1/2", "1/2", 1])),
        1,
    ),
    "fk-to-sasakian": (
        lambda: (D4.frobenius(), D4.kahler()),
        lambda f, k: frobenius_kahler_to_sasakian(D4.algebra, f, k, D4.maps[0][1]),
        1,
    ),
    "contact-ideal": (
        lambda: (D4.frobenius(), D4.kahler()),
        lambda f, k: contact_ideal_restriction(D4.algebra, f, k),
        2,
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
    assert h.c == H3.algebra.c
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
    expected = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})
    assert ext.algebra.c == expected.c


def test_double_extension_oracle_on_five_dimensional_base():
    # the condition system is not Heisenberg-specific: positive and failing
    # instances over g0 (dim 5 -> dim 7) agree with the direct axiom check
    from conftest import cocycle_basis

    s = G0.sasakian()
    for scale in (1, -2):
        theta = KForm.zero(5, 2)
        d = diagonal([0, 0, 0, 0, 0, scale])
        params = solve_double_extension_params(G0.algebra, s, theta, d)
        conditions = sasakian_double_extension_conditions(G0.algebra, s, theta, d, params)
        ext, report, structure = sasakian_double_extension(G0.algebra, s, theta, d, params)
        assert conditions.overall and report.overall and structure is not None
        assert ext.algebra.dim == 7

    rng = random.Random(11)
    forms = cocycle_basis(G0.algebra)
    constructed = 0
    for _ in range(60):
        theta = KForm.zero(5, 2)
        for f in forms:
            theta = theta.add(f.scale(Fraction(rng.randint(-1, 1))))
        central = central_extension(G0.algebra, theta)
        particular, basis = derivation_space(central.algebra, [Leibniz()])
        d = [[Fraction(0)] * 6 for _ in range(6)]
        for m in basis:
            c = Fraction(rng.randint(-1, 1))
            if c == 0:
                continue
            for i in range(6):
                for j in range(6):
                    d[i][j] += c * m[i][j]
        d = tuple(tuple(row) for row in d)
        try:
            params = solve_double_extension_params(G0.algebra, s, theta, d)
        except PreconditionError:
            continue
        conditions = sasakian_double_extension_conditions(G0.algebra, s, theta, d, params)
        ext, report, structure = sasakian_double_extension(G0.algebra, s, theta, d, params)
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


@settings(max_examples=60, deadline=None)
@given(sasakian_reduction_inputs())
def test_sasakian_reduction_matches_oracle(case):
    # coordinates read off the pivots of the reduced basis of Ker(alpha), not solved for
    assert outcome(sasakian_reduction, *case) == outcome(theorems_oracle.sasakian_reduction, *case)


@settings(max_examples=60, deadline=None)
@given(frobenius_kahler_inputs())
def test_contact_ideal_restriction_matches_oracle(case):
    # one bracket per pair for the ideal test, the brackets of the ideal and ad(x_P)
    assert outcome(contact_ideal_restriction, *case) == outcome(theorems_oracle.contact_ideal_restriction, *case)
