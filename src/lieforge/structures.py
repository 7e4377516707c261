"""Verifiers for contact, Frobenius, Kahler and Sasakian structures.

Metric conventions, fixed by the worked four-dimensional example:
  * Kahler metric g(x,y) = omega(x, Jy);
  * Sasakian metric g(x,y) = -d(alpha)(x, Phi y) + alpha(x) alpha(y).
Both are recomputed from the supplied data and verified axiom by axiom;
positive definiteness is decided exactly through leading principal minors.

The contact and Sasakian checks compute d(alpha) once per call, as integers
over one denominator (``forms._dalpha``), and test every identity on integer
products cross-multiplied by their denominators; ``check_kahler`` tests J^2,
omega(J., J.), d(omega) (``forms._d_two_form``) and the metric on the
integer matrices of J and omega the same way. Fractions are made only for
the results, the notes and the witness of an item that fails. The contact
check eliminates only the Reeb system: the bordered Pfaffian it has already
computed certifies that the Reeb vector is unique and spans the radical (see
``check_contact``). ``check_frobenius`` reads the radical and the principal
element off one elimination of the Kirillov system.

Both read the Nijenhuis torsion as integers, not through the public
``nijenhuis``, which builds a Fraction table. ``_packed_torsion`` packs each
integer vector into one int (``linalg.pack``): O(n^3) big-int multiply-adds
in all, and one unpack per basis pair. It starts from the packed Leibniz
defect of ``_leibniz_defects``, which ``derivations.is_derivation`` tests
against 0 by itself. ``check_kahler`` unpacks the torsion
(``_nijenhuis_ints``); ``check_sasakian`` compares it with -d(alpha) (x) xi
as one packed int per pair and unpacks only a failing pair. The two checks
share their metric items (symmetric, positive definite) and ``metric_row_*``
notes.

A Frobenius, Kahler or Sasakian structure returned by its ``check_*``
function is bound to the algebra it was checked on (its ``algebra``
field). The constructions in ``theorems`` accept such a structure on that
same algebra object as already verified; any other structure, including
one built by hand, is checked again. Only ``check_*`` binds: the field is
not a constructor argument, and ``dataclasses.replace`` resets it. A bound
Frobenius structure also carries the Kirillov form its check computed
(``kirillov``), so a construction that needs -d(phi) does not build it again.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import mul

from .algebra import LieAlgebra
from .forms import KForm, _d_two_form, _dalpha, _top_contact
from .linalg import (
    Matrix,
    Vector,
    ZERO,
    clear_denominators,
    fmt_basis_tuple,
    fmt_scalar,
    fmt_vector,
    is_square,
    is_zero_vector,
    pack,
    positive_definite,
    slot_width,
    solve_affine,
    transpose,
    unpack,
    vector_over,
)
from .report import CheckItem, CheckReport, DimensionMismatch, PreconditionError, ok, passed


@dataclass(frozen=True)
class ContactStructure:
    alpha: KForm
    reeb: Vector


@dataclass(frozen=True)
class FrobeniusStructure:
    phi: KForm
    principal: Vector
    algebra: LieAlgebra | None = field(default=None, init=False, repr=False, compare=False)
    # B_phi = -d(phi) as check_frobenius found it nondegenerate; bound with algebra
    kirillov: KForm | None = field(default=None, init=False, repr=False, compare=False)


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


def _bind(structure, g: LieAlgebra, **checked):
    for name, value in {"algebra": g, **checked}.items():
        object.__setattr__(structure, name, value)  # the dataclass is frozen
    return structure


def one_form_coords(alpha: KForm) -> Vector:
    if alpha.degree != 1:
        raise DimensionMismatch("expected a 1-form")
    return tuple(alpha.coeff((i,)) for i in range(alpha.dim))


def apply_one_form(alpha: KForm, v: Vector) -> Fraction:
    return sum((c * x for c, x in zip(one_form_coords(alpha), v, strict=True)), ZERO)


def _int_matrix(m: Matrix) -> tuple[list[list[int]], int]:
    """(rows, d) with m == rows / d for a square m, d the least common denominator."""
    n = len(m)
    flat, d = clear_denominators([x for row in m for x in row])
    return [flat[r * n : (r + 1) * n] for r in range(n)], d


def _int_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def kirillov_form(g: LieAlgebra, phi: KForm) -> KForm:
    """B_phi(x, y) = phi([x, y]); equals -d(phi)."""
    if phi.degree != 1 or phi.dim != g.dim:
        raise DimensionMismatch("expected a 1-form on the algebra")
    da, den = _dalpha(g, one_form_coords(phi))
    n = g.dim
    return KForm.from_coeffs(n, 2, {(i, j): Fraction(-da[i][j], den) for i in range(n) for j in range(i + 1, n)})


def principal_element(g: LieAlgebra, phi: KForm) -> Vector:
    """The unique x with phi(ad(x) y) = phi(y) for all y."""
    x_p, rad = _principal(kirillov_form(g, phi), phi)
    if x_p is None or rad:
        raise PreconditionError("principal element needs a nondegenerate Kirillov form")
    return x_p


def _principal(b: KForm, phi: KForm) -> tuple[Vector | None, tuple[Vector, ...]]:
    """(x, radical) from one elimination of the Kirillov system B_phi(x, y) = phi(y) for all y:
    its canonical solution or None, and its kernel, the canonical basis of the radical of b."""
    m = b.as_matrix()
    rows = [tuple(m[i][j] for i in range(b.dim)) for j in range(b.dim)]
    return solve_affine(rows, one_form_coords(phi))


def check_frobenius(g: LieAlgebra, phi: KForm) -> tuple[CheckReport, FrobeniusStructure | None]:
    """Even dimension and nondegenerate Kirillov form; computes the principal element."""
    b = kirillov_form(g, phi)
    x_p, rad = _principal(b, phi)
    witness = fmt_vector(rad[0], g.labels) if rad else "everything"
    report = CheckReport(
        (
            passed("even_dimension", g.dim % 2 == 0, f"dim = {g.dim}"),
            passed("kirillov_nondegenerate", not rad, f"radical contains {witness}"),
        )
    )
    if rad:  # an odd dimension leaves a radical, so this is every failing report
        return report, None
    notes = (("principal_element", fmt_vector(x_p, g.labels)), ("kirillov_form", b.describe(g.labels)))
    return report.with_notes(*notes), _bind(FrobeniusStructure(phi, x_p), g, kirillov=b)


def check_contact(g: LieAlgebra, alpha: KForm) -> tuple[CheckReport, ContactStructure | None]:
    """Odd dimension, alpha ^ (d alpha)^n nonzero, unique Reeb vector.

    The uniqueness of the Reeb vector and the radical of d(alpha) are not
    computed: the nonzero Pfaffian of the top-form test certifies both. That
    Pfaffian makes the bordered matrix B = [[0, alpha], [-alpha^T, d(alpha)]]
    of size n+1 invertible, and deleting one row and one column of B leaves
    d(alpha), so rank d(alpha) >= n-1; a skew-symmetric matrix of odd size n
    has even rank, at most n-1. A v != 0 in the kernel of d(alpha) has
    alpha(v) != 0, else B (0, v) = 0. So the Reeb system d(alpha) xi = 0,
    alpha(xi) = 1 has exactly one solution, and ``reeb_unique`` passes; xi
    spans the kernel of d(alpha), and ``radical_spanned_by_reeb`` passes.
    """
    if alpha.degree != 1 or alpha.dim != g.dim:
        raise DimensionMismatch("expected a 1-form on the algebra")
    items = [passed("odd_dimension", g.dim % 2 == 1, f"dim = {g.dim}")]
    if not items[0].passed:
        return CheckReport(tuple(items)), None
    coords = one_form_coords(alpha)
    da, den = _dalpha(g, coords)
    top = _top_contact(coords, da, den)
    items.append(passed("contact_top_form_nonzero", top.holds, top.reason or ""))
    if not top.holds:
        return CheckReport(tuple(items)), None
    # d(alpha) is skew, so its rows span its columns: the Reeb system is
    # d(alpha)(xi, .) = 0, alpha(xi) = 1 on those rows
    reeb, _ = solve_affine(da + [coords], [0] * g.dim + [1])
    items += [ok("reeb_unique"), ok("radical_spanned_by_reeb")]  # certified by the Pfaffian, see the docstring
    report = CheckReport(
        tuple(items),
        (
            ("reeb", fmt_vector(reeb, g.labels)),
            ("top_coefficient", fmt_scalar(top.coefficient)),
        ),
    )
    return report, ContactStructure(alpha, reeb)


def nijenhuis(g: LieAlgebra, a: Matrix) -> NijenhuisTable:
    """Torsion N_A(x,y) = A^2[x,y] + [Ax,Ay] - A[x,Ay] - A[Ax,y].

    When A^2 = -Id this is the classical Nijenhuis tensor of an almost
    complex structure (leading term -[x,y]).

    Runs on integers over da^2*D, da the common denominator of A and D that
    of the structure constants (see ``_nijenhuis_ints``).
    """
    if not is_square(a, g.dim):
        raise DimensionMismatch("map does not match algebra dimension")
    n = g.dim
    ints, den = _nijenhuis_ints(g, *_int_matrix(a))
    zero = (ZERO,) * n
    table = [[zero] * n for _ in range(n)]
    for (i, j), acc in ints.items():
        table[i][j] = vector_over(acc, den)
        table[j][i] = vector_over([-x for x in acc], den)
    return NijenhuisTable(n, tuple(tuple(row) for row in table))


def _leibniz_defects(
    g: LieAlgebra, ai: list[list[int]], bound: Callable[[int, int, int], int]
) -> tuple[int, list[list[tuple[int, int]]], list[int], list[list[int]], dict[tuple[int, int], int]]:
    """The Leibniz defects of the integer map A = ai, packed: (width, cols, a_col, left, defect).

    With C = D*c from ``LieAlgebra._integer_terms``, cols[j] lists the nonzero
    (r, A_rj), a_col[j] is column j of A, left[i][b] = sum_r A_ri C_rb is
    D*[Ae_i, e_b], and defect[(i, j)], i < j in row-major order, is
    A C_ij - left[i][j] + left[j][i]: D times the Leibniz defect
    A[e_i,e_j] - [Ae_i,e_j] - [e_i,Ae_j], or da*D times that of ai/da. Every
    vector is one packed int (``linalg.pack``), built by O(n^3) big-int
    multiply-adds in all, at width slot_width(bound(n, a, c)) for a and c the
    largest |ai| and |C|: the caller's bound covers every coordinate of what it
    unpacks or tests against 0.
    """
    n = g.dim
    _, terms, c = g._integer_terms
    a = max(abs(x) for row in ai for x in row)
    width = slot_width(bound(n, a, c))
    cols = [[(r, ai[r][j]) for r in range(n) if ai[r][j]] for j in range(n)]
    a_col = [pack(col, width) for col in cols]
    c_rb = [[pack(row, width) for row in plane] for plane in terms]
    left = [[sum(x * c_rb[r][b] for r, x in col) for b in range(n)] for col in cols]
    defect = {
        (i, j): sum(y * a_col[k] for k, y in terms[i][j]) - left[i][j] + left[j][i]
        for i in range(n)
        for j in range(i + 1, n)
    }
    return width, cols, a_col, left, defect


def _packed_torsion(
    g: LieAlgebra, ai: list[list[int]], bound: Callable[[int, int, int], int]
) -> tuple[int, dict[tuple[int, int], int]]:
    """The torsion of the map A = ai/da, packed: (width, N), N[(i, j)], i < j, is da^2*D times N(e_i, e_j).

    With inner, left and cols the packed Leibniz defect, L[i][b] and the
    columns of ``_leibniz_defects``, N(e_i, e_j) = A(inner) + sum_b A_bj L[i][b]:
    a pair costs O(n) big-int multiply-adds plus one unpack, of inner. With a
    and c the largest |ai| and |C|, A(inner) has coordinates of at most
    3*n^2*a^2*c in absolute value and the last sum n^2*a^2*c, so the caller's
    bound(n, a, c) must cover 4*n^2*a^2*c, which also bounds inner's 3*n*a*c.
    """
    n = g.dim
    width, cols, a_col, left, defect = _leibniz_defects(g, ai, bound)
    torsion = {}
    for (i, j), inner in defect.items():
        total = sum(map(mul, unpack(inner, n, width), a_col))
        torsion[(i, j)] = total + sum(x * left[i][b] for b, x in cols[j])
    return width, torsion


def _nijenhuis_ints(g: LieAlgebra, ai: list[list[int]], da: int) -> tuple[dict[tuple[int, int], list[int]], int]:
    """The torsion of the map A = ai/da as (N, den): N[(i, j)], i < j, is N(e_i, e_j) times
    den = da^2*D, unpacked from ``_packed_torsion`` at slots of 4*n^2*a^2*c."""
    width, torsion = _packed_torsion(g, ai, lambda n, a, c: 4 * n * n * a * a * c)
    return {pair: unpack(v, g.dim, width) for pair, v in torsion.items()}, da * da * g._integer_terms[0]


def _kahler_ints(g: LieAlgebra, j: Matrix, omega: KForm) -> tuple[list[list[int]], int, list[list[int]], int]:
    """(ji, dj, om, do) with J = ji/dj and omega = om/do as integer matrices;
    data of the wrong shape for ``g`` raises ``DimensionMismatch``."""
    n = g.dim
    if not is_square(j, n):
        raise DimensionMismatch("map does not match algebra dimension")
    if omega.degree != 2 or omega.dim != n:
        raise DimensionMismatch("expected a 2-form on the algebra")
    return (*_int_matrix(j), *_int_matrix(omega.as_matrix()))


def kahler_metric(g: LieAlgebra, j: Matrix, omega: KForm) -> Matrix:
    """Candidate metric g(x,y) = omega(x, Jy): the integer om J over do*dj."""
    ji, dj, om, do = _kahler_ints(g, j, omega)
    return tuple(vector_over(row, do * dj) for row in _int_mul(om, ji))


def _metric_checks(
    g: LieAlgebra, metric: list[list[int]], dm: int, asymmetry: str
) -> tuple[tuple[CheckItem, CheckItem], Matrix, tuple[tuple[str, str], ...]]:
    """The symmetry and definiteness items of the metric ``metric``/dm, with ``asymmetry`` the
    witness of the first, the metric as Fractions and its ``metric_row_*`` notes."""
    n = g.dim
    symmetric = all(metric[i][j] == metric[j][i] for i in range(n) for j in range(i))
    pos, minor = positive_definite(metric)
    items = (
        passed("metric_symmetric", symmetric, asymmetry),
        passed(
            "metric_positive_definite",
            symmetric and pos,
            f"leading {minor}x{minor} minor is not positive" if not pos else "metric not symmetric",
        ),
    )
    rows = tuple(vector_over(row, dm) for row in metric)
    duals = tuple(f"{l}*" for l in g.labels)
    notes = tuple((f"metric_row_{label}", fmt_vector(row, duals)) for label, row in zip(g.labels, rows))
    return items, rows, notes


def check_kahler(g: LieAlgebra, j: Matrix, omega: KForm) -> tuple[CheckReport, KahlerStructure | None]:
    """J^2 = -Id, vanishing torsion, closed invariant omega, definite metric.

    With J = ji/dj and omega = om/do as integer matrices, J^2 is tested
    against -dj^2 Id, J^T (om J) against dj^2 om, and the metric om J over
    do*dj for symmetry and definiteness (a positive scale keeps the signs of
    the leading minors). The torsion comes from ``_nijenhuis_ints`` and
    d(omega) from ``forms._d_two_form``.
    """
    n = g.dim
    ji, dj, om, do = _kahler_ints(g, j, omega)
    s = dj * dj
    items = []
    j2 = list(zip(*_int_mul(ji, ji)))
    wrong = next((k for k in range(n) if any(x != (-s if r == k else 0) for r, x in enumerate(j2[k]))), None)
    witness = "" if wrong is None else f"J^2({g.labels[wrong]}) = {fmt_vector(vector_over(j2[wrong], s), g.labels)}"
    items.append(passed("complex_square_identity", wrong is None, witness))
    torsion, dt = _nijenhuis_ints(g, ji, dj)
    bad_pair = next((pair for pair, v in torsion.items() if any(v)), None)
    witness = (
        ""
        if bad_pair is None
        else f"N_J{fmt_basis_tuple(bad_pair, g.labels)} = "
        f"{fmt_vector(vector_over(torsion[bad_pair], dt), g.labels)}"
    )
    items.append(passed("complex_integrable", bad_pair is None, witness))
    domega = KForm(n, 3, tuple(_d_two_form(g, om, do)))
    items.append(
        passed("symplectic_closed", domega.is_zero(), f"d(omega) = {domega.describe(g.labels)}")
    )
    metric = _int_mul(om, ji)
    invariant = _int_mul(transpose(ji), metric)
    bad_inv = next(
        ((a, b) for a in range(n) for b in range(a + 1, n) if invariant[a][b] != s * om[a][b]),
        None,
    )
    witness = (
        ""
        if bad_inv is None
        else f"omega(J.,J.) {fmt_basis_tuple(bad_inv, g.labels)}: "
        f"{fmt_scalar(Fraction(invariant[bad_inv[0]][bad_inv[1]], do * s))} != "
        f"{fmt_scalar(Fraction(om[bad_inv[0]][bad_inv[1]], do))}"
    )
    items.append(passed("symplectic_j_invariant", bad_inv is None, witness))
    metric_items, metric, notes = _metric_checks(g, metric, do * dj, "omega(x, Jy) is not symmetric")
    report = CheckReport(tuple(items) + metric_items, notes)
    if not report.overall:
        return report, None
    return report, _bind(KahlerStructure(j, omega, metric), g)


def _same(u, du: int, v, dv: int) -> bool:
    """u/du == v/dv, entry by entry, for integer vectors u and v."""
    return all(x * dv == y * du for x, y in zip(u, v, strict=True))


def _sasakian_metric_ints(
    coords: Vector, p: list[list[int]], dp: int, da: list[list[int]], den: int
) -> tuple[list[list[int]], int]:
    """-d(alpha) Phi + alpha (x) alpha as (M, dm), for Phi = p/dp and d(alpha) = da/den
    from ``_dalpha``: with a = dal*alpha integers, M = (a a^T)(den/dal)dp - (da p)dal
    over dm = den*dal*dp."""
    a, dal = clear_denominators(coords)
    k = den // dal * dp
    dap = _int_mul(da, p)
    return [[x * y * k - z * dal for y, z in zip(a, row)] for x, row in zip(a, dap)], den * dal * dp


def sasakian_metric(g: LieAlgebra, alpha: KForm, phi: Matrix) -> Matrix:
    """Candidate metric g(x,y) = -d(alpha)(x, Phi y) + alpha(x) alpha(y)."""
    if alpha.dim != g.dim or not is_square(phi, g.dim):
        raise DimensionMismatch("structure data does not match algebra dimension")
    coords = one_form_coords(alpha)
    metric, dm = _sasakian_metric_ints(coords, *_int_matrix(phi), *_dalpha(g, coords))
    return tuple(vector_over(row, dm) for row in metric)


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
    if len(reeb) != g.dim or not is_square(phi, g.dim):
        raise DimensionMismatch("structure data does not match algebra dimension")
    n = g.dim
    duals = tuple(f"{l}*" for l in g.labels)
    coords = one_form_coords(alpha)
    a, dal = clear_denominators(coords)
    r, dr = clear_denominators(reeb)
    p, dp = _int_matrix(phi)
    da, den = _dalpha(g, coords)
    items = []
    pairing = Fraction(sum(x * y for x, y in zip(a, r)), dal * dr)
    items.append(passed("alpha_reeb_pairing", pairing == 1, f"alpha(xi) = {fmt_scalar(pairing)}"))
    # Phi^2 over dp^2 against xi (x) alpha - Id = (r a^T - s Id) over s, column by column
    s = dal * dr
    phi2 = list(zip(*_int_mul(p, p)))
    target = [[y * x - (s if i == j else 0) for i, y in enumerate(r)] for j, x in enumerate(a)]
    wrong = next((k for k in range(n) if not _same(phi2[k], dp * dp, target[k], s)), None)
    witness = (
        ""
        if wrong is None
        else f"Phi^2({g.labels[wrong]}) = {fmt_vector(vector_over(phi2[wrong], dp * dp), g.labels)}, "
        f"expected {fmt_vector(vector_over(target[wrong], s), g.labels)}"
    )
    items.append(passed("phi_square_identity", wrong is None, witness))
    # N_Phi(e_i, e_j) over dt = dp^2*D against -d(alpha)(e_i, e_j) xi over den*dr: with
    # u = den*dr/h and v = dt/h, h their gcd, the packed N*u + d(alpha)_ij*v*xi is 0 for each
    # pair, in slots that hold both terms
    dt = dp * dp * g._integer_terms[0]
    h = gcd(den * dr, dt)
    u, v = den * dr // h, dt // h
    big = max(abs(x) for row in da for x in row) * v * max(map(abs, r))
    width, torsion = _packed_torsion(g, p, lambda n, a, c: 4 * n * n * a * a * c * u + big)
    xi = v * pack(enumerate(r), width)
    bad_pair = next(((i, j) for (i, j), t in torsion.items() if t * u + da[i][j] * xi), None)
    witness = (
        ""
        if bad_pair is None
        else f"N_Phi{fmt_basis_tuple(bad_pair, g.labels)} = "
        f"{fmt_vector(vector_over(unpack(torsion[bad_pair], n, width), dt), g.labels)}, expected "
        f"{fmt_vector(vector_over([-da[bad_pair[0]][bad_pair[1]] * y for y in r], den * dr), g.labels)}"
    )
    items.append(passed("nijenhuis_torsion", bad_pair is None, witness))
    metric, dm = _sasakian_metric_ints(coords, p, dp, da, den)
    metric_items, rational_metric, notes = _metric_checks(g, metric, dm, "derived metric is not symmetric")
    items.extend(metric_items)
    # Phi^T g Phi over dm*dp^2 against g - alpha (x) alpha over dm*dal^2
    gphi = _int_mul(metric, p)
    lhs = _int_mul(transpose(p), gphi)
    rhs = [[z * dal * dal - x * y * dm for y, z in zip(a, row)] for x, row in zip(a, metric)]
    isometry = all(_same(u, dm * dp * dp, v, dm * dal * dal) for u, v in zip(lhs, rhs))
    items.append(passed("metric_phi_isometry", isometry, "g(Phi x, Phi y) != g(x,y) - alpha(x)alpha(y)"))
    reproduces = all(_same(u, dm * dp, v, den) for u, v in zip(gphi, da))
    items.append(passed("metric_reproduces_dalpha", reproduces, "g(x, Phi y) != d(alpha)(x,y)"))
    phi_reeb = [sum(map(mul, row, r)) for row in p]
    witness = f"Phi(xi) = {fmt_vector(vector_over(phi_reeb, dp * dr), g.labels)}"
    items.append(passed("phi_kills_reeb", not any(phi_reeb), witness))
    alpha_phi = [sum(map(mul, a, col)) for col in zip(*p)]
    witness = f"alpha(Phi e_j) = {fmt_vector(vector_over(alpha_phi, dal * dp), duals)}"
    items.append(passed("alpha_phi_vanishes", not any(alpha_phi), witness))
    report = CheckReport(tuple(items), notes)
    if not report.overall:
        return report, None
    return report, _bind(SasakianStructure(reeb, alpha, phi, rational_metric), g)
