import random
import sys
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from lieforge import (
    KForm,
    LieAlgebra,
    builtin,
    check_contact,
    check_frobenius,
    check_jacobi,
    check_kahler,
    check_sasakian,
    kirillov_form,
)
from lieforge.forms import _dalpha, _top_contact
from lieforge.linalg import (
    fmt_dual,
    identity,
    int_matrix,
    matrix,
    slot_width,
    unpack,
    vec_scale,
    vector_over,
    zero_matrix,
)
from lieforge.report import CheckItem, DimensionMismatch, passed
from lieforge.structures import _metric_checks, _packed_torsion

import algebra_oracle as oracle
import linalg_oracle
import structures_oracle
from strategies import (
    BIG_RATIONALS,
    RATIONALS,
    antisymmetric_algebras,
    conjugated_d4half_kahler,
    conjugated_heisenberg_sasakian,
    contact_inputs,
    frobenius_inputs,
    kahler_inputs,
    large_kahler_inputs,
    large_sasakian_inputs,
    lie_or_not,
    moved_reeb,
    near_sasakian_inputs,
    rational_vectors,
    sasakian_inputs,
)

H3 = builtin("h3")
D4 = builtin("d4half")
G0 = builtin("g0")
AFF = LieAlgebra(2, {(0, 1): {1: 1}}, ("x", "y"))
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
        assert check_frobenius(AFF, ystar.scale(lam))[1].principal == check_frobenius(AFF, ystar)[1].principal


def test_principal_element_degenerate_rejected():
    # abelian R^2 has d(phi) = 0: no principal element, and the check fails at its radical
    report, structure = check_frobenius(LieAlgebra.abelian(2), KForm.basis_one_form(2, 0))
    assert structure is None
    assert report.item("kirillov_nondegenerate") == CheckItem("kirillov_nondegenerate", False, "radical contains e1")


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


@pytest.mark.parametrize("a", [Fraction(1), Fraction(-2), Fraction(3, 7), Fraction(10**40, 3)])
def test_dimension_one_contact(a):
    # alpha = a e1*: d(alpha) = 0 has the one sub-Pfaffian w = (1), so the top coefficient is a and xi = e1/a
    report, structure = check_contact(LieAlgebra.abelian(1), KForm.one_form(1, [a]))
    assert report.overall and structure.reeb == (1 / a,)
    assert dict(report.notes)["top_coefficient"] == str(a)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(-1), Fraction(3), Fraction(-2, 3)]))
def test_contact_scaling_invariance(lam):
    report, structure = check_contact(H3.algebra, E3.scale(lam))
    assert report.overall
    assert structure.reeb == vec_scale(1 / lam, H3.algebra.basis_vector(2))


def nijenhuis(g, a):
    """N_A(e_i, e_j) for every pair i < j: each pair of ``_packed_torsion`` unpacked, over its denominator."""
    ai, da = int_matrix(a)
    width, _, torsion = _packed_torsion(g, ai)
    den = da * da * g._integer_terms[0]
    return {pair: vector_over(unpack(t, g.dim, width), den) for pair, t in torsion.items()}


def test_nijenhuis_abelian_vanishes():
    g = LieAlgebra.abelian(4)
    rng = random.Random(0)
    m = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)) for _ in range(4))
    torsion = nijenhuis(g, m)
    assert len(torsion) == 6 and not any(any(v) for v in torsion.values())


def test_nijenhuis_d4half_j_integrable():
    assert not any(any(v) for v in nijenhuis(D4.algebra, D4.kahler_data[0]).values())


def test_nijenhuis_h3_rotation():
    phi = H3.sasakian_data[2]
    torsion = nijenhuis(H3.algebra, phi)
    # N(e1,e2) = e3: the pair [Phi e1, Phi e2] = [e2, -e1] survives
    assert torsion[(0, 1)] == H3.algebra.basis_vector(2)
    assert torsion[(0, 2)] == (Fraction(0),) * 3


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_nijenhuis_matches_oracle(data):
    # rational maps with mixed denominators, A^2 = -Id almost never, on Lie and non-Lie tensors
    g = data.draw(lie_or_not())
    a = tuple(tuple(data.draw(RATIONALS) for _ in range(g.dim)) for _ in range(g.dim))
    assert_nijenhuis_matches_oracle(g, a)


def assert_nijenhuis_matches_oracle(g, a):
    """The packed integer kernel, every pair unpacked, against the Fraction expansion, and against
    the plain integer loop, numerator by numerator."""
    table = oracle.nijenhuis(g, a)
    assert nijenhuis(g, a) == {(i, j): table.value(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)}
    ai, _ = int_matrix(a)
    width, _, torsion = _packed_torsion(g, ai)
    ints, _ = structures_oracle.nijenhuis_ints(g, ai, 1)
    assert {pair: unpack(t, g.dim, width) for pair, t in torsion.items()} == ints


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_nijenhuis_large_entries_match_oracle(data):
    # constants and maps up to 10^40 over mixed denominators, dimensions 1 to 5
    g = data.draw(antisymmetric_algebras(values=BIG_RATIONALS))
    a = tuple(data.draw(rational_vectors(g.dim, BIG_RATIONALS)) for _ in range(g.dim))
    assert_nijenhuis_matches_oracle(g, a)


# [e_i, e_j] = s * TIGHT_TORSION[(i, j)] and A = t * TIGHT_MAP: N(e2, e3) has a coordinate
# 44*a^2*c of the 4*n^2*a^2*c = 64*a^2*c the slots are sized for (a, c the largest integer entries
# of A and of D*c), which with c = 3 is beyond what a slot one bit narrower holds
TIGHT_TORSION = {
    (0, 1): (1, 1, -1, -1),
    (0, 2): (1, 1, -1, -1),
    (0, 3): (-1, -1, 0, -1),
    (1, 2): (-1, -1, 1, 1),
    (1, 3): (1, 1, -1, -1),
    (2, 3): (1, 1, -1, -1),
}
TIGHT_MAP = ((-1, -1, 1, 1), (-1, 1, 1, 1), (1, 1, 1, -1), (1, 1, -1, -1))


# a negative s negates every packed structure vector, so N(e2, e3) sits at the bound's other sign
@pytest.mark.parametrize(
    "s, t",
    [
        (Fraction(3), Fraction(1)),
        (Fraction(-3), Fraction(1)),
        (Fraction(3 * 2**130, 7), Fraction(-(2**60), 5)),
        (Fraction(-3 * 2**130, 7), Fraction(2**60, 5)),
    ],
)
def test_nijenhuis_slot_width_boundary(s, t):
    brackets = {p: {k: x * s for k, x in enumerate(v) if x} for p, v in TIGHT_TORSION.items()}
    g = LieAlgebra(4, brackets)
    a = tuple(tuple(x * t for x in row) for row in TIGHT_MAP)
    big = t.numerator**2 * abs(s.numerator)
    torsion, _ = structures_oracle.nijenhuis_ints(g, *int_matrix(a))
    assert max(map(abs, torsion[(1, 2)])) == 132 * big // 3 >= 2 ** (slot_width(64 * big) - 2)
    assert_nijenhuis_matches_oracle(g, a)


def test_checks_refuse_float_inputs():
    # Phi written as floats passed check_sasakian, which returned a structure whose phi held floats
    reeb, alpha, phi = H3.sasakian_data
    j, omega = D4.kahler_data
    as_floats = lambda m: tuple(tuple(map(float, row)) for row in m)
    for call in (
        lambda: check_sasakian(H3.algebra, reeb, alpha, as_floats(phi)),
        lambda: check_sasakian(H3.algebra, tuple(map(float, reeb)), alpha, phi),
        lambda: check_sasakian(H3.algebra, tuple(map(bool, reeb)), alpha, phi),
        lambda: check_kahler(D4.algebra, as_floats(j), omega),
    ):
        with pytest.raises(TypeError, match="not an exact scalar"):
            call()


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
    g = LieAlgebra(4, {(0, 1): {2: 1}})
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


@pytest.mark.parametrize(
    "alpha, phi",
    [(E3, ((1, 0), (0, 1), (0, 0))), (E3, ((1, 0, 0), (0, 1), (0, 0, 1))), (KForm.basis_one_form(4, 3), identity(3))],
    ids=["non-square-phi", "ragged-phi", "alpha-too-long"],
)
def test_sasakian_rejects_misshapen_data(alpha, phi):
    with pytest.raises(DimensionMismatch):
        check_sasakian(H3.algebra, H3.algebra.basis_vector(2), alpha, phi)


@pytest.mark.parametrize(
    "j, omega",
    [
        (identity(3), D4.kahler_data[1]),
        (((1, 0, 0, 0), (0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)), D4.kahler_data[1]),
        (D4.kahler_data[0], KForm.basis_one_form(4, 0)),
        (D4.kahler_data[0], KForm.two_form(3, {(0, 1): 1})),
    ],
    ids=["3x3-j", "ragged-j", "one-form-omega", "omega-too-short"],
)
def test_kahler_rejects_misshapen_data(j, omega):
    with pytest.raises(DimensionMismatch):
        check_kahler(D4.algebra, j, omega)


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
    assert type(sas)(sas.reeb, sas.alpha, identity(3), sas.metric).algebra is None
    frob_copy = type(frob)(frob.phi, frob.principal)
    assert frob_copy == frob and frob_copy.algebra is None


# --- the integer d(alpha) paths against the Fraction oracle -------------------


def assert_same_result(got, want):
    """Reports equal item by item (name, verdict, witness), then notes and structure."""
    (report, structure), (oracle_report, oracle_structure) = got, want
    assert list(report.items) == list(oracle_report.items)
    assert report.notes == oracle_report.notes
    assert structure == oracle_structure


@settings(max_examples=150, deadline=None)
@given(contact_inputs())
def test_contact_matches_oracle(case):
    g, alpha = case
    assert_same_result(check_contact(g, alpha), structures_oracle.check_contact(g, alpha))
    assert kirillov_form(g, alpha) == structures_oracle.kirillov_form(g, alpha)
    if g.dim % 2:
        coefficient, reeb = _top_contact(alpha, *_dalpha(g, alpha))
        assert coefficient == structures_oracle.top_contact_test(g, alpha)
        assert (reeb is None) == (coefficient == 0)


@settings(max_examples=150, deadline=None)
@given(frobenius_inputs())
def test_frobenius_matches_oracle(case):
    # one skew elimination gives the principal element; only a degenerate B_phi is eliminated, for the witness
    g, phi = case
    got, want = check_frobenius(g, phi), structures_oracle.check_frobenius(g, phi)
    assert_same_result(got, want)


@settings(max_examples=150, deadline=None)
@given(sasakian_inputs())
def test_sasakian_matches_oracle(case):
    g, reeb, alpha, phi = case
    got = check_sasakian(g, reeb, alpha, phi)
    assert_same_result(got, structures_oracle.check_sasakian(g, reeb, alpha, phi))
    assert got[1] is None or got[1].algebra is g
    assert got[1] is None or got[1].metric == structures_oracle.sasakian_metric(g, alpha, phi)


@settings(max_examples=50, deadline=None)
@given(near_sasakian_inputs())
def test_sasakian_near_misses_match_oracle(case):
    # a moved Reeb vector or a conjugated Phi: the premises of the metric identities hold in part
    g, reeb, alpha, phi = case
    assert_same_result(check_sasakian(g, reeb, alpha, phi), structures_oracle.check_sasakian(g, reeb, alpha, phi))


@settings(max_examples=100, deadline=None)
@given(large_sasakian_inputs())
def test_sasakian_large_entries_match_oracle(case):
    g, reeb, alpha, phi = case
    got = check_sasakian(g, reeb, alpha, phi)
    assert_same_result(got, structures_oracle.check_sasakian(g, reeb, alpha, phi))


@st.composite
def large_contact_inputs(draw):
    """(g, alpha): constants and coordinates up to 10^40 on an antisymmetric tensor, mostly not Lie."""
    g = draw(antisymmetric_algebras(values=BIG_RATIONALS))
    return g, KForm.one_form(g.dim, draw(rational_vectors(g.dim, BIG_RATIONALS)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(contact_inputs(), large_contact_inputs()))
def test_contact_radical_certificate_matches_nullspace(case):
    # contact, degenerate and closed forms, Lie or not: where check_contact reaches the radical
    # item (certified by the Pfaffian), the nullspace of d(alpha) reaches it too, with the same item
    g, alpha = case
    report, _ = check_contact(g, alpha)
    names = [item.name for item in report.items]
    got = report.item("radical_spanned_by_reeb") if "radical_spanned_by_reeb" in names else None
    assert got == structures_oracle.contact_radical_item(g, alpha)


@settings(max_examples=120, deadline=None)
@given(st.one_of(sasakian_inputs(), large_sasakian_inputs()))
def test_sasakian_packed_torsion_matches_unpacked(case):
    # exact, negated and perturbed Phi (entries up to 10^40), and random data on non-Lie tensors
    g, reeb, alpha, phi = case
    item = check_sasakian(g, reeb, alpha, phi)[0].item("nijenhuis_torsion")
    assert item == structures_oracle.sasakian_torsion_item(g, reeb, alpha, phi)


@pytest.mark.parametrize("reeb", [(2, -1, 0), (0, 2, -1), (2**70, -(2**69), 1)])
def test_sasakian_torsion_slots_hold_the_expected_side(reeb):
    # Phi = 0 has no torsion, so on h3 with alpha = e3* the item fails at (e1, e2), where
    # -d(alpha) (x) xi = xi; in slots sized for the torsion alone xi = (2, -1, 0) would pack to 0
    reeb = tuple(map(Fraction, reeb))
    alpha, phi = H3.sasakian_data[1], zero_matrix(3)
    item = check_sasakian(H3.algebra, reeb, alpha, phi)[0].item("nijenhuis_torsion")
    assert not item.passed
    assert item == structures_oracle.sasakian_torsion_item(H3.algebra, reeb, alpha, phi)


@settings(max_examples=60, deadline=None)
@given(large_kahler_inputs())
def test_kahler_large_entries_match_fraction_torsion(case):
    # the integer check against the Fraction oracle, whose torsion is the Fraction expansion
    g, j, omega = case
    got = check_kahler(g, j, omega)
    assert_same_result(got, structures_oracle.check_kahler(g, j, omega))
    assert got[1] is None or got[1].metric == structures_oracle.kahler_metric(g, j, omega)


@settings(max_examples=120, deadline=None)
@given(kahler_inputs())
def test_kahler_matches_oracle(case):
    g, j, omega = case
    got = check_kahler(g, j, omega)
    assert_same_result(got, structures_oracle.check_kahler(g, j, omega))
    assert got[1] is None or got[1].algebra is g
    assert got[1] is None or got[1].metric == structures_oracle.kahler_metric(g, j, omega)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_kahler_d4half_in_a_random_basis_passes(seed):
    g, j, omega = conjugated_d4half_kahler(seed)
    got = check_kahler(g, j, omega)
    assert got[0].overall
    assert_same_result(got, structures_oracle.check_kahler(g, j, omega))


DENSE_H7 = conjugated_heisenberg_sasakian(3, 1)
ONE_DALPHA = {
    "contact-h3": lambda: check_contact(H3.algebra, E3),
    "contact-not-contact": lambda: check_contact(LieAlgebra.abelian(3), E3),
    "contact-dense-h7": lambda: check_contact(DENSE_H7[0], DENSE_H7[2]),
    "sasakian-h3": lambda: check_sasakian(H3.algebra, *H3.sasakian_data),
    "sasakian-broken-phi": lambda: check_sasakian(H3.algebra, H3.sasakian_data[0], E3, identity(3)),
    "sasakian-dense-h7": lambda: check_sasakian(*DENSE_H7),
    # the principal element is solved from the Kirillov form check_frobenius holds
    "frobenius-d4half": lambda: check_frobenius(D4.algebra, KForm.basis_one_form(4, 2)),
    "frobenius-degenerate": lambda: check_frobenius(LieAlgebra.abelian(2), KForm.basis_one_form(2, 0)),
}


@pytest.mark.parametrize("case", sorted(ONE_DALPHA))
def test_one_dalpha_per_check(case, monkeypatch):
    import lieforge.forms

    calls = []
    dalpha = lieforge.forms._dalpha

    def counted(*args):
        calls.append(args)
        return dalpha(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("lieforge") and getattr(module, "_dalpha", None) is dalpha:
            monkeypatch.setattr(module, "_dalpha", counted)
    ONE_DALPHA[case]()
    assert len(calls) == 1


DENSE_H7_MOVED = moved_reeb(
    DENSE_H7[1], [DENSE_H7[2].coeff((i,)) for i in range(7)], DENSE_H7[3], DENSE_H7[0].basis_vector(0)
)
# check, whether it passes, and its O(n^3) integer products
METRIC_PRODUCTS = {
    # the metric d(alpha) Phi; Phi^2 and both metric identities come without products
    "sasakian-dense-h7": (lambda: check_sasakian(*DENSE_H7), True, 1),
    # d(alpha) xi != 0, so both identities are tested on G Phi and Phi^T (G Phi)
    "sasakian-moved-reeb": (
        lambda: check_sasakian(DENSE_H7[0], DENSE_H7_MOVED[0], DENSE_H7[2], DENSE_H7_MOVED[1]), False, 3
    ),
    # the metric omega J; J^2 and J^T omega J = omega come without products
    "kahler-d4half": (lambda: check_kahler(*conjugated_d4half_kahler(1)), True, 1),
}


@pytest.mark.parametrize("case", sorted(METRIC_PRODUCTS))
def test_implied_identities_skip_their_products(case, monkeypatch):
    import lieforge.structures

    calls = []
    int_mul = lieforge.structures.int_mul
    monkeypatch.setattr(lieforge.structures, "int_mul", lambda a, b: calls.append(1) or int_mul(a, b))
    call, overall, products = METRIC_PRODUCTS[case]
    assert call()[0].overall == overall
    assert len(calls) == products


@st.composite
def integer_metrics(draw):
    """(n x n integer metric, denominator): symmetric, symmetric with a few entries changed, or drawn
    entry by entry, so that rows mirror all, some or none of the entries above them."""
    n = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**20), 10**20))
    metric = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        metric = [[metric[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        for _ in range(draw(st.integers(0, 2))):
            metric[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(entries)
    return metric, draw(st.sampled_from([1, 2, 6, 10**15]))


@settings(max_examples=200, deadline=None)
@given(integer_metrics())
def test_metric_checks_mirror_the_full_build(case):
    # one Fraction per mirrored pair: the rows are vector_over of every row, the notes fmt_dual's, and
    # the items those of the transpose test and the minor oracle
    metric, dm = case
    n = len(metric)
    g = LieAlgebra.abelian(n)
    items, rows, notes = _metric_checks(g, metric, dm, "not symmetric")
    assert rows == tuple(vector_over(row, dm) for row in metric)
    assert notes == tuple((f"metric_row_{label}", fmt_dual(row, g.labels)) for label, row in zip(g.labels, rows))
    assert all(rows[i][j] is rows[j][i] for i in range(n) for j in range(i) if metric[i][j] == metric[j][i])
    symmetric = metric == [list(col) for col in zip(*metric)]
    pos, minor = linalg_oracle.positive_definite(matrix(metric))
    witness = f"leading {minor}x{minor} minor is not positive" if not pos else "metric not symmetric"
    assert items == (
        passed("metric_symmetric", symmetric, "not symmetric"),
        passed("metric_positive_definite", symmetric and pos, witness),
    )


@pytest.mark.parametrize(
    "args",
    [(builtin("h3").algebra, *builtin("h3").sasakian_data), DENSE_H7],
    ids=["h3", "dense-h7"],
)
def test_a_passing_sasakian_check_formats_only_its_notes(args, monkeypatch):
    # a witness is formatted only for a failing item, so all a passing check formats is its notes
    import lieforge.structures

    formatted = []
    for name in ("fmt_basis_tuple", "fmt_dual", "fmt_scalar", "fmt_vector"):
        fmt = getattr(lieforge.structures, name)
        monkeypatch.setattr(lieforge.structures, name, lambda *a, fmt=fmt: formatted.append(fmt(*a)) or formatted[-1])
    report, structure = check_sasakian(*args)
    assert report.overall and structure is not None
    assert formatted and set(formatted) <= {value for _, value in report.notes}


def test_a_passing_kahler_check_describes_no_form(monkeypatch):
    # d(omega) is described only as the witness of a failing symplectic_closed
    described = []
    describe = KForm.describe
    monkeypatch.setattr(KForm, "describe", lambda self, *a: described.append(self) or describe(self, *a))
    report, structure = check_kahler(D4.algebra, *D4.kahler_data)
    assert report.overall and structure is not None
    assert described == []


# --- a fixed exhaustive slice of the small world ------------------------------


def test_a_fixed_slice_of_the_small_tables_matches_the_oracles():
    # every 11th of the 3^9 = 19,683 tables of [e1,e2], [e1,e3], [e2,e3] with constants in
    # {-1, 0, 1}, in product order (11 is prime to 3, so each constant takes all three values):
    # Jacobi on each against the oracle, and on the Lie ones check_contact for every nonzero
    # 1-form in {-1, 0, 1}^3 against the wedge-power oracle
    pairs = ((0, 1), (0, 2), (1, 2))
    forms = [KForm.one_form(3, c) for c in product((-1, 0, 1), repeat=3) if any(c)]
    lie = 0
    for consts in islice(product((-1, 0, 1), repeat=9), 0, None, 11):
        g = LieAlgebra(3, {pair: dict(enumerate(consts[3 * i : 3 * i + 3])) for i, pair in enumerate(pairs)})
        report = check_jacobi(g)
        assert report == oracle.check_jacobi(g)
        if report.overall:
            lie += 1
            for alpha in forms:
                assert check_contact(g, alpha) == structures_oracle.check_contact(g, alpha)
    assert len(forms) == 26 and lie == 119
