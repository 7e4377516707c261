"""Reference oracle for the contact, Kahler and Sasakian checks: plain Fraction versions.

These are the straightforward Fraction-arithmetic kirillov_form,
top_contact_test, check_contact, check_frobenius, check_kahler and
check_sasakian that the integer paths in lieforge.structures and
lieforge.forms replaced, and kahler_metric and sasakian_metric, the metrics
that a passing check_kahler and check_sasakian return:
d(alpha) comes from the general-degree ``ce_differential`` each time it is
needed, the matrix identities run through ``mat_mul`` and the torsion
through the Fraction Nijenhuis expansion of algebra_oracle. They are slow
but obviously correct; tests/test_structures.py checks that the fast paths
return exactly the same reports, witnesses, notes and structures.

nijenhuis_ints is the plain integer loop over the cached D*c that the packed
torsion kernel (structures._packed_torsion) replaced, O(n^4) multiply-adds
with the same numerators once unpacked.

check_frobenius eliminates the Kirillov system twice, for the radical and
then for the principal element. check_contact takes the bordered Pfaffian
from the plain skew elimination of linalg_oracle.pfaffian, then solves the
Reeb system and tests its uniqueness by Gauss-Jordan elimination. Neither
goes through linalg.sub_pfaffians, from which lieforge.structures reads
the Pfaffian, the Reeb vector and the principal element.

wedge and wedge_power expand alpha ^ (d alpha)^n term by term, the
definition that the Pfaffian of the contact test (forms._top_contact) and
top_contact_test here both stand in for.

Three single items keep the paths that the packed and certified ones
replaced: is_cocycle reads d(theta) from the Fraction ``ce_differential``;
contact_radical_item computes the radical of d(alpha) as a nullspace, as
check_contact did before the bordered Pfaffian certified it; and
sasakian_torsion_item takes the torsion of every pair from
nijenhuis_ints and compares it with -d(alpha) (x) xi
coordinate by coordinate, as check_sasakian did before its packed test.
Both read d(alpha) from ``ce_differential`` too, not from the integer
``forms._dalpha`` of the fast paths, so a fault there shows.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from lieforge.algebra import LieAlgebra, Subspace
from lieforge.forms import (
    KForm,
    TopContactResult,
    apply_one_form,
    ce_differential,
    one_form_coords,
    radical,
    sort_index_tuple,
)
from lieforge.linalg import (
    Matrix,
    Vector,
    ZERO,
    clear_denominators,
    column,
    fmt_basis_tuple,
    fmt_scalar,
    fmt_vector,
    identity,
    int_matrix,
    is_zero_vector,
    mat_mul,
    mat_vec,
    nullspace,
    positive_definite,
    solve_affine,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
    vector_over,
)
from lieforge.report import CheckItem, CheckReport, DimensionMismatch, fail, ok, passed
from lieforge.structures import (
    ContactStructure,
    FrobeniusStructure,
    KahlerStructure,
    SasakianStructure,
    _bind,
    _same,
)

import algebra_oracle
from linalg_oracle import pfaffian


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_add(r, s) for r, s in zip(a, b, strict=True))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_sub(r, s) for r, s in zip(a, b, strict=True))


def mat_neg(m: Matrix) -> Matrix:
    return tuple(vec_scale(-1, r) for r in m)


def outer(v: Vector, w: Vector) -> Matrix:
    return tuple(tuple(v[i] * w[j] for j in range(len(w))) for i in range(len(v)))


def kirillov_form(g: LieAlgebra, phi: KForm) -> KForm:
    """B_phi(x, y) = phi([x, y]); equals -d(phi)."""
    if phi.degree != 1 or phi.dim != g.dim:
        raise DimensionMismatch("expected a 1-form on the algebra")
    entries = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            entries[(i, j)] = apply_one_form(phi, g.c[i][j])
    return KForm.from_coeffs(g.dim, 2, entries)


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-commutative wedge in the determinant convention."""
    if a.dim != b.dim:
        raise DimensionMismatch("forms live on different spaces")
    degree = a.degree + b.degree
    if degree > a.dim:
        return KForm.zero(a.dim, degree)
    table: dict[tuple[int, ...], Fraction] = {}
    for ia, va in a.coeffs:
        for ib, vb in b.coeffs:
            sign, merged = sort_index_tuple(ia + ib)
            if sign:
                table[merged] = table.get(merged, ZERO) + sign * va * vb
    return KForm.from_coeffs(a.dim, degree, table)


def wedge_power(a: KForm, n: int) -> KForm:
    out = KForm.from_coeffs(a.dim, 0, {(): 1})
    for _ in range(n):
        out = wedge(out, a)
    return out


def top_contact_test(g: LieAlgebra, alpha: KForm) -> TopContactResult:
    """n! Pf([[0, alpha], [-alpha^T, d alpha]]) on the Fraction matrices."""
    if g.dim % 2 == 0:
        return TopContactResult(False, None, f"dimension {g.dim} is even")
    n = (g.dim - 1) // 2
    coords = one_form_coords(alpha)
    da = ce_differential(g, alpha).as_matrix()
    bordered = ((ZERO,) + coords,) + tuple((-x,) + row for x, row in zip(coords, da))
    coeff = factorial(n) * pfaffian(bordered)
    return TopContactResult(coeff != 0, coeff, None if coeff != 0 else "top coefficient is 0")


def check_contact(g: LieAlgebra, alpha: KForm) -> tuple[CheckReport, ContactStructure | None]:
    if alpha.degree != 1 or alpha.dim != g.dim:
        raise DimensionMismatch("expected a 1-form on the algebra")
    items = [passed("odd_dimension", g.dim % 2 == 1, f"dim = {g.dim}")]
    if not items[0].passed:
        return CheckReport(tuple(items)), None
    top = top_contact_test(g, alpha)
    items.append(passed("contact_top_form_nonzero", top.holds, top.reason or ""))
    if not top.holds:
        return CheckReport(tuple(items)), None
    da = ce_differential(g, alpha).as_matrix()
    rows = [tuple(da[i][j] for i in range(g.dim)) for j in range(g.dim)]
    rows.append(one_form_coords(alpha))
    rhs = [ZERO] * g.dim + [Fraction(1)]
    particular, homogeneous = solve_affine(rows, rhs)
    unique = particular is not None and not homogeneous
    items.append(passed("reeb_unique", unique, "Reeb system has no unique solution"))
    if not unique:
        return CheckReport(tuple(items)), None
    reeb = particular
    rad = radical(g, kirillov_form(g, alpha))
    items.append(
        passed(
            "radical_spanned_by_reeb",
            rad == Subspace.from_vectors(g.dim, (reeb,)),
            f"radical is {rad.describe(g.labels)}",
        )
    )
    report = CheckReport(
        tuple(items),
        (
            ("reeb", fmt_vector(reeb, g.labels)),
            ("top_coefficient", fmt_scalar(top.coefficient)),
        ),
    )
    if not report.overall:
        return report, None
    return report, ContactStructure(alpha, reeb)


def check_frobenius(g: LieAlgebra, phi: KForm) -> tuple[CheckReport, FrobeniusStructure | None]:
    """Two eliminations of the Kirillov system: the radical as a nullspace, then, once it is 0,
    the principal element as the unique solution of B_phi(x, y) = phi(y) for all y."""
    items = [passed("even_dimension", g.dim % 2 == 0, f"dim = {g.dim}")]
    b = kirillov_form(g, phi)
    rad = radical(g, b)
    witness = fmt_vector(rad.rows[0], g.labels) if rad.rows else "everything"
    items.append(passed("kirillov_nondegenerate", rad.dim == 0, f"radical contains {witness}"))
    report = CheckReport(tuple(items))
    if not report.overall:
        return report, None
    m = b.as_matrix()
    rows = [tuple(m[i][j] for i in range(g.dim)) for j in range(g.dim)]
    x_p, homogeneous = solve_affine(rows, one_form_coords(phi))
    assert x_p is not None and not homogeneous
    report = report.with_notes(("principal_element", fmt_vector(x_p, g.labels)), ("kirillov_form", b.describe(g.labels)))
    return report, _bind(FrobeniusStructure(phi, x_p), g)


def is_cocycle(g: LieAlgebra, theta: KForm) -> CheckReport:
    """d(theta) = 0 through the Fraction ce_differential: one failing item per nonzero coefficient."""
    d = ce_differential(g, theta)
    if d.is_zero():
        return CheckReport((ok("cocycle_d_theta_zero"),))
    return CheckReport(
        tuple(
            fail("cocycle(" + ",".join(g.labels[i] for i in idxs) + ")", f"d(theta) = {value}")
            for idxs, value in d.coeffs
        )
    )


def contact_radical_item(g: LieAlgebra, alpha: KForm) -> CheckItem | None:
    """The radical_spanned_by_reeb item from the nullspace of the integer d(alpha), or None where
    check_contact stops before that item (even dimension, top coefficient 0, no unique Reeb vector)."""
    if g.dim % 2 == 0:
        return None
    if not top_contact_test(g, alpha).holds:
        return None
    coords = one_form_coords(alpha)
    da = ce_differential(g, alpha).as_matrix()
    particular, homogeneous = solve_affine(da + (coords,), [0] * g.dim + [1])
    if particular is None or homogeneous:
        return None
    rad = Subspace(g.dim, nullspace(da, g.dim))
    return passed(
        "radical_spanned_by_reeb",
        rad == Subspace.from_vectors(g.dim, (particular,)),
        f"radical is {rad.describe(g.labels)}",
    )


def sasakian_torsion_item(g: LieAlgebra, reeb: Vector, alpha: KForm, phi: Matrix) -> CheckItem:
    """The nijenhuis_torsion item from the unpacked torsion of every pair, compared with
    -d(alpha)(e_i, e_j) xi over their two denominators."""
    r, dr = clear_denominators(reeb)
    p, dp = int_matrix(phi)
    da, den = int_matrix(ce_differential(g, alpha).as_matrix())
    torsion, dt = nijenhuis_ints(g, p, dp)
    expected = {(i, j): [-da[i][j] * y for y in r] for i, j in torsion}
    bad_pair = next((pair for pair, v in torsion.items() if not _same(v, dt, expected[pair], den * dr)), None)
    witness = (
        ""
        if bad_pair is None
        else f"N_Phi{fmt_basis_tuple(bad_pair, g.labels)} = "
        f"{fmt_vector(vector_over(torsion[bad_pair], dt), g.labels)}, expected "
        f"{fmt_vector(vector_over(expected[bad_pair], den * dr), g.labels)}"
    )
    return passed("nijenhuis_torsion", bad_pair is None, witness)


def nijenhuis_ints(g: LieAlgebra, ai: list[list[int]], da: int) -> tuple[dict[tuple[int, int], list[int]], int]:
    """The torsion of the map ai/da as (N, den): N[(i, j)], i < j, is N(e_i, e_j) times den = da^2*D.

    With L[i][b] = [Ae_i, e_b] precomputed,
    N(e_i, e_j) = A(A[e_i,e_j] - L[i][j] + L[j][i]) + sum_b A_bj L[i][b].
    """
    n = g.dim
    d, terms, _ = g._integer_terms
    cols = [[(r, ai[r][j]) for r in range(n) if ai[r][j]] for j in range(n)]
    left = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for b in range(n):
            acc = left[i][b]
            for r, x in cols[i]:
                for k, c in terms[r][b]:
                    acc[k] += x * c
    torsion = {}
    for i in range(n):
        for j in range(i + 1, n):
            inner = [y - x for x, y in zip(left[i][j], left[j][i])]
            for k, c in terms[i][j]:
                for r, x in cols[k]:
                    inner[r] += x * c
            acc = [sum(x * y for x, y in zip(row, inner)) for row in ai]
            for b, x in cols[j]:
                for k, y in enumerate(left[i][b]):
                    acc[k] += x * y
            torsion[(i, j)] = acc
    return torsion, da * da * d


def kahler_metric(g: LieAlgebra, j: Matrix, omega: KForm) -> Matrix:
    """Candidate metric g(x,y) = omega(x, Jy), one Fraction product."""
    return mat_mul(omega.as_matrix(), j)


def check_kahler(g: LieAlgebra, j: Matrix, omega: KForm):
    if len(j) != g.dim:
        raise DimensionMismatch("map does not match algebra dimension")
    if omega.degree != 2 or omega.dim != g.dim:
        raise DimensionMismatch("expected a 2-form on the algebra")
    n = g.dim
    items = []
    j2 = mat_mul(j, j)
    wrong = next((k for k in range(n) if column(j2, k) != vec_scale(Fraction(-1), g.basis_vector(k))), None)
    witness = "" if wrong is None else f"J^2({g.labels[wrong]}) = {fmt_vector(column(j2, wrong), g.labels)}"
    items.append(passed("complex_square_identity", wrong is None, witness))
    torsion = algebra_oracle.nijenhuis(g, j)
    bad_pair = next(
        ((a, b) for a in range(n) for b in range(a + 1, n) if not is_zero_vector(torsion.value(a, b))),
        None,
    )
    witness = (
        ""
        if bad_pair is None
        else f"N_J{fmt_basis_tuple(bad_pair, g.labels)} = {fmt_vector(torsion.value(*bad_pair), g.labels)}"
    )
    items.append(passed("complex_integrable", bad_pair is None, witness))
    domega = ce_differential(g, omega)
    items.append(passed("symplectic_closed", domega.is_zero(), f"d(omega) = {domega.describe(g.labels)}"))
    om = omega.as_matrix()
    invariant = mat_mul(transpose(j), mat_mul(om, j))
    bad_inv = next(
        ((a, b) for a in range(n) for b in range(a + 1, n) if invariant[a][b] != om[a][b]),
        None,
    )
    witness = (
        ""
        if bad_inv is None
        else f"omega(J.,J.) {fmt_basis_tuple(bad_inv, g.labels)}: "
        f"{fmt_scalar(invariant[bad_inv[0]][bad_inv[1]])} != {fmt_scalar(om[bad_inv[0]][bad_inv[1]])}"
    )
    items.append(passed("symplectic_j_invariant", bad_inv is None, witness))
    metric = mat_mul(om, j)
    symmetric = metric == transpose(metric)
    items.append(passed("metric_symmetric", symmetric, "omega(x, Jy) is not symmetric"))
    pos, minor = positive_definite(metric)
    items.append(
        passed(
            "metric_positive_definite",
            symmetric and pos,
            f"leading {minor}x{minor} minor is not positive" if not pos else "metric not symmetric",
        )
    )
    notes = tuple(
        (f"metric_row_{g.labels[i]}", fmt_vector(metric[i], tuple(f"{l}*" for l in g.labels))) for i in range(n)
    )
    report = CheckReport(tuple(items), notes)
    if not report.overall:
        return report, None
    return report, _bind(KahlerStructure(j, omega, metric), g)


def sasakian_metric(g: LieAlgebra, alpha: KForm, phi: Matrix) -> Matrix:
    """Candidate metric g(x,y) = -d(alpha)(x, Phi y) + alpha(x) alpha(y)."""
    da = ce_differential(g, alpha).as_matrix()
    coords = one_form_coords(alpha)
    return mat_add(mat_neg(mat_mul(da, phi)), outer(coords, coords))


def check_sasakian(g: LieAlgebra, reeb: Vector, alpha: KForm, phi: Matrix):
    if alpha.degree != 1 or alpha.dim != g.dim:
        raise DimensionMismatch("expected a 1-form on the algebra")
    if len(phi) != g.dim or len(reeb) != g.dim:
        raise DimensionMismatch("structure data does not match algebra dimension")
    n = g.dim
    duals = tuple(f"{l}*" for l in g.labels)
    coords = one_form_coords(alpha)
    items = []
    pairing = apply_one_form(alpha, reeb)
    items.append(passed("alpha_reeb_pairing", pairing == 1, f"alpha(xi) = {fmt_scalar(pairing)}"))
    phi2 = mat_mul(phi, phi)
    expected = mat_sub(outer(reeb, coords), identity(n))
    wrong = next((k for k in range(n) if column(phi2, k) != column(expected, k)), None)
    witness = (
        ""
        if wrong is None
        else f"Phi^2({g.labels[wrong]}) = {fmt_vector(column(phi2, wrong), g.labels)}, "
        f"expected {fmt_vector(column(expected, wrong), g.labels)}"
    )
    items.append(passed("phi_square_identity", wrong is None, witness))
    da = ce_differential(g, alpha).as_matrix()
    torsion = algebra_oracle.nijenhuis(g, phi)
    bad_pair = next(
        (
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if torsion.value(a, b) != vec_scale(-da[a][b], reeb)
        ),
        None,
    )
    witness = (
        ""
        if bad_pair is None
        else f"N_Phi{fmt_basis_tuple(bad_pair, g.labels)} = "
        f"{fmt_vector(torsion.value(*bad_pair), g.labels)}, expected "
        f"{fmt_vector(vec_scale(-da[bad_pair[0]][bad_pair[1]], reeb), g.labels)}"
    )
    items.append(passed("nijenhuis_torsion", bad_pair is None, witness))
    metric = sasakian_metric(g, alpha, phi)
    symmetric = metric == transpose(metric)
    items.append(passed("metric_symmetric", symmetric, "derived metric is not symmetric"))
    pos, minor = positive_definite(metric)
    items.append(
        passed(
            "metric_positive_definite",
            symmetric and pos,
            f"leading {minor}x{minor} minor is not positive" if not pos else "metric not symmetric",
        )
    )
    lhs = mat_mul(transpose(phi), mat_mul(metric, phi))
    rhs = mat_sub(metric, outer(coords, coords))
    items.append(passed("metric_phi_isometry", lhs == rhs, "g(Phi x, Phi y) != g(x,y) - alpha(x)alpha(y)"))
    items.append(
        passed("metric_reproduces_dalpha", mat_mul(metric, phi) == da, "g(x, Phi y) != d(alpha)(x,y)")
    )
    phi_reeb = mat_vec(phi, reeb)
    items.append(passed("phi_kills_reeb", is_zero_vector(phi_reeb), f"Phi(xi) = {fmt_vector(phi_reeb, g.labels)}"))
    alpha_phi = tuple(sum((coords[i] * phi[i][j] for i in range(n)), ZERO) for j in range(n))
    items.append(
        passed("alpha_phi_vanishes", is_zero_vector(alpha_phi), f"alpha(Phi e_j) = {fmt_vector(alpha_phi, duals)}")
    )
    notes = tuple((f"metric_row_{g.labels[i]}", fmt_vector(metric[i], duals)) for i in range(n))
    report = CheckReport(tuple(items), notes)
    if not report.overall:
        return report, None
    return report, _bind(SasakianStructure(reeb, alpha, phi, metric), g)
