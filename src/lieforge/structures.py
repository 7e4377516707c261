"""Verifiers for contact, Frobenius, Kahler and Sasakian structures.

Metric conventions, fixed by the worked four-dimensional example:
  * Kahler metric g(x,y) = omega(x, Jy);
  * Sasakian metric g(x,y) = -d(alpha)(x, Phi y) + alpha(x) alpha(y).
Both are recomputed from the supplied data and verified axiom by axiom;
positive definiteness is decided exactly through leading principal minors.

A Frobenius, Kahler or Sasakian structure returned by its ``check_*``
function is bound to the algebra it was checked on (its ``algebra``
field). The constructions in ``theorems`` accept such a structure on that
same algebra object as already verified; any other structure, including
one built by hand, is checked again. Only ``check_*`` binds: the field is
not a constructor argument, and ``dataclasses.replace`` resets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LieAlgebra, Subspace
from .forms import KForm, ce_differential, radical, top_contact_test
from .linalg import (
    Matrix,
    Vector,
    ZERO,
    clear_denominators,
    column,
    fmt_basis_tuple,
    fmt_scalar,
    fmt_vector,
    identity,
    is_zero_vector,
    mat_add,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_vec,
    positive_definite,
    solve_affine,
    transpose,
    vec_scale,
    vector_over,
)
from .report import CheckReport, DimensionMismatch, PreconditionError, passed


@dataclass(frozen=True)
class ContactStructure:
    alpha: KForm
    reeb: Vector


@dataclass(frozen=True)
class FrobeniusStructure:
    phi: KForm
    principal: Vector
    algebra: LieAlgebra | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class KahlerStructure:
    j: Matrix
    omega: KForm
    metric: Matrix
    algebra: LieAlgebra | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class SasakianStructure:
    reeb: Vector
    alpha: KForm
    phi: Matrix
    metric: Matrix
    algebra: LieAlgebra | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class NijenhuisTable:
    """Antisymmetric table of torsion values N(e_i, e_j)."""

    dim: int
    entries: tuple[tuple[Vector, ...], ...]

    def value(self, i: int, j: int) -> Vector:
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return all(is_zero_vector(v) for row in self.entries for v in row)


def _bind(structure, g: LieAlgebra):
    object.__setattr__(structure, "algebra", g)  # the dataclass is frozen
    return structure


def one_form_coords(alpha: KForm) -> Vector:
    if alpha.degree != 1:
        raise DimensionMismatch("expected a 1-form")
    return tuple(alpha.coeff((i,)) for i in range(alpha.dim))


def apply_one_form(alpha: KForm, v: Vector) -> Fraction:
    return sum((c * x for c, x in zip(one_form_coords(alpha), v, strict=True)), ZERO)


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


def principal_element(g: LieAlgebra, phi: KForm) -> Vector:
    """The unique x with phi(ad(x) y) = phi(y) for all y."""
    b = kirillov_form(g, phi).as_matrix()
    coords = one_form_coords(phi)
    rows = [tuple(b[i][j] for i in range(g.dim)) for j in range(g.dim)]
    particular, homogeneous = solve_affine(rows, coords)
    if particular is None or homogeneous:
        raise PreconditionError("principal element needs a nondegenerate Kirillov form")
    return particular


def check_frobenius(g: LieAlgebra, phi: KForm) -> tuple[CheckReport, FrobeniusStructure | None]:
    """Even dimension and nondegenerate Kirillov form; computes the principal element."""
    items = [passed("even_dimension", g.dim % 2 == 0, f"dim = {g.dim}")]
    structure = None
    notes: list[tuple[str, str]] = []
    b = kirillov_form(g, phi)
    rad = radical(g, b)
    witness = fmt_vector(rad.rows[0], g.labels) if rad.rows else "everything"
    items.append(passed("kirillov_nondegenerate", rad.dim == 0, f"radical contains {witness}"))
    report = CheckReport(tuple(items))
    if report.overall:
        x_p = principal_element(g, phi)
        structure = _bind(FrobeniusStructure(phi, x_p), g)
        notes.append(("principal_element", fmt_vector(x_p, g.labels)))
        notes.append(("kirillov_form", b.describe(g.labels)))
        report = report.with_notes(*notes)
    return report, structure


def check_contact(g: LieAlgebra, alpha: KForm) -> tuple[CheckReport, ContactStructure | None]:
    """Odd dimension, alpha ^ (d alpha)^n nonzero, unique Reeb vector."""
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


def nijenhuis(g: LieAlgebra, a: Matrix) -> NijenhuisTable:
    """Torsion N_A(x,y) = A^2[x,y] + [Ax,Ay] - A[x,Ay] - A[Ax,y].

    When A^2 = -Id this is the classical Nijenhuis tensor of an almost
    complex structure (leading term -[x,y]).

    Runs on integers over da^2*D, da the common denominator of A and D that
    of the structure constants: with L[i][b] = [Ae_i, e_b] precomputed,
    N(e_i, e_j) = A(A[e_i,e_j] - L[i][j] + L[j][i]) + sum_b A_bj L[i][b].
    """
    if len(a) != g.dim or any(len(row) != g.dim for row in a):
        raise DimensionMismatch("map does not match algebra dimension")
    n = g.dim
    d, terms = g._integer_terms
    flat, da = clear_denominators([x for row in a for x in row])
    ai = [flat[r * n : (r + 1) * n] for r in range(n)]
    cols = [[(r, ai[r][j]) for r in range(n) if ai[r][j]] for j in range(n)]
    left = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for b in range(n):
            acc = left[i][b]
            for r, x in cols[i]:
                for k, c in terms[r][b]:
                    acc[k] += x * c
    den = da * da * d
    zero = (ZERO,) * n
    table = [[zero] * n for _ in range(n)]
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
            table[i][j] = vector_over(acc, den)
            table[j][i] = vector_over([-x for x in acc], den)
    return NijenhuisTable(n, tuple(tuple(row) for row in table))


def kahler_metric(g: LieAlgebra, j: Matrix, omega: KForm) -> Matrix:
    """Candidate metric g(x,y) = omega(x, Jy)."""
    return mat_mul(omega.as_matrix(), j)


def check_kahler(g: LieAlgebra, j: Matrix, omega: KForm) -> tuple[CheckReport, KahlerStructure | None]:
    """J^2 = -Id, vanishing torsion, closed invariant omega, definite metric."""
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
    torsion = nijenhuis(g, j)
    bad_pair = next(
        (
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if not is_zero_vector(torsion.value(a, b))
        ),
        None,
    )
    witness = (
        ""
        if bad_pair is None
        else f"N_J{fmt_basis_tuple(bad_pair, g.labels)} = "
        f"{fmt_vector(torsion.value(*bad_pair), g.labels)}"
    )
    items.append(passed("complex_integrable", bad_pair is None, witness))
    domega = ce_differential(g, omega)
    items.append(
        passed("symplectic_closed", domega.is_zero(), f"d(omega) = {domega.describe(g.labels)}")
    )
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
    metric = kahler_metric(g, j, omega)
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
        (f"metric_row_{g.labels[i]}", fmt_vector(metric[i], tuple(f"{l}*" for l in g.labels)))
        for i in range(n)
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


def check_sasakian(
    g: LieAlgebra, reeb: Vector, alpha: KForm, phi: Matrix
) -> tuple[CheckReport, SasakianStructure | None]:
    """Full axiom check for an almost contact metric structure of Sasakian type.

    Items cover alpha(reeb) = 1, Phi^2 = -Id + alpha (x) reeb, the torsion
    identity N_Phi = -d(alpha) (x) reeb, and the compatibility axioms of the
    derived metric, plus the two consequences Phi(reeb) = 0 and
    alpha o Phi = 0.
    """
    if alpha.degree != 1 or alpha.dim != g.dim:
        raise DimensionMismatch("expected a 1-form on the algebra")
    if len(phi) != g.dim or len(reeb) != g.dim:
        raise DimensionMismatch("structure data does not match algebra dimension")
    n = g.dim
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
    da_form = ce_differential(g, alpha)
    da = da_form.as_matrix()
    torsion = nijenhuis(g, phi)
    bad_pair = None
    for a in range(n):
        for b in range(a + 1, n):
            if torsion.value(a, b) != vec_scale(-da[a][b], reeb):
                bad_pair = (a, b)
                break
        if bad_pair:
            break
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
    items.append(
        passed(
            "metric_phi_isometry",
            lhs == rhs,
            "g(Phi x, Phi y) != g(x,y) - alpha(x)alpha(y)",
        )
    )
    items.append(
        passed(
            "metric_reproduces_dalpha",
            mat_mul(metric, phi) == da,
            "g(x, Phi y) != d(alpha)(x,y)",
        )
    )
    phi_reeb = mat_vec(phi, reeb)
    items.append(
        passed(
            "phi_kills_reeb",
            is_zero_vector(phi_reeb),
            f"Phi(xi) = {fmt_vector(phi_reeb, g.labels)}",
        )
    )
    alpha_phi = tuple(sum((coords[i] * phi[i][j] for i in range(n)), ZERO) for j in range(n))
    items.append(
        passed(
            "alpha_phi_vanishes",
            is_zero_vector(alpha_phi),
            f"alpha(Phi e_j) = {alpha_phi}",
        )
    )
    notes = tuple(
        (f"metric_row_{g.labels[i]}", fmt_vector(metric[i], tuple(f"{l}*" for l in g.labels)))
        for i in range(n)
    )
    report = CheckReport(tuple(items), notes)
    if not report.overall:
        return report, None
    return report, _bind(SasakianStructure(reeb, alpha, phi, metric), g)
