"""Verifiers for contact, Frobenius, Kahler and Sasakian structures.

Metric conventions, fixed by the worked four-dimensional example:
  * Kahler metric g(x,y) = omega(x, Jy);
  * Sasakian metric g(x,y) = -d(alpha)(x, Phi y) + alpha(x) alpha(y).
Both are recomputed from the supplied data and verified axiom by axiom, an
axiom that other items imply decided from them; positive definiteness is
decided exactly through leading principal minors.

The contact and Sasakian checks compute d(alpha) once per call, as integers
over one denominator (``forms._dalpha``), and test every identity on integer
products cross-multiplied by their denominators; ``check_kahler`` tests J^2,
omega(J., J.), d(omega) (``forms._d_two_form``) and the metric on the
integer matrices of J and omega the same way. Fractions are made only for
the results, the notes and the witness of an item that fails. The contact
check and a passing Frobenius check read the Reeb vector, its certificate
and the principal element off one skew elimination (``linalg.sub_pfaffians``,
see ``check_contact`` and ``_principal``), with no Gauss-Jordan solve.

Both read the Nijenhuis torsion as integers, not through the public
``nijenhuis``, which builds a Fraction table. ``_packed_torsion`` packs each
integer vector into one int (``linalg.pack``): O(n^3) big-int multiply-adds
in all, and one unpack per basis pair. It starts from the packed Leibniz
defect of ``_leibniz_defects``, which ``derivations.is_derivation`` tests
against 0 by itself. ``check_kahler`` tests each packed pair against 0
(``_first_torsion``), ``check_sasakian`` compares it with -d(alpha) (x) xi;
both unpack only a failing pair and test J^2 or Phi^2 on the packed columns
of the map (``_square_mismatch``). Metric identities that other items imply
skip their O(n^3) products, as each check derives: with J^2 = -Id,
omega(J., J.) = omega is the symmetry of omega J; with alpha o Phi = 0 and
Phi^2 = xi (x) alpha - Id, g(., Phi .) = d(alpha) is d(alpha) xi = 0, and
then g(Phi., Phi.) = g - alpha (x) alpha is the symmetry of g. The two
checks share their metric items and ``metric_row_*`` notes.

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
    nullspace,
    pack,
    positive_definite,
    slot_width,
    sub_pfaffians,
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


def _kirillov(g: LieAlgebra, phi: KForm) -> tuple[Vector, list[list[int]], int, KForm]:
    """(coords, da, den, B): phi's coordinates, d(phi) = da/den (``_dalpha``) and B_phi = -d(phi)."""
    if phi.degree != 1 or phi.dim != g.dim:
        raise DimensionMismatch("expected a 1-form on the algebra")
    coords = one_form_coords(phi)
    da, den = _dalpha(g, coords)
    coeffs = {(i, j): Fraction(-x, den) for i, row in enumerate(da) for j, x in enumerate(row) if i < j}
    return coords, da, den, KForm.from_coeffs(g.dim, 2, coeffs)


def kirillov_form(g: LieAlgebra, phi: KForm) -> KForm:
    """B_phi(x, y) = phi([x, y]); equals -d(phi)."""
    return _kirillov(g, phi)[3]


def principal_element(g: LieAlgebra, phi: KForm) -> Vector:
    """The unique x with phi(ad(x) y) = phi(y) for all y."""
    x_p = _principal(*_kirillov(g, phi)[:3])
    if x_p is None:
        raise PreconditionError("principal element needs a nondegenerate Kirillov form")
    return x_p


def _principal(coords: Vector, da: list[list[int]], den: int) -> Vector | None:
    """The x with B_phi(x, y) = phi(y) for all y, B_phi = -da/den, or None where B_phi is degenerate.

    In even dimension n, with b = den*phi, A = [[-da, b], [-b^T, 0]] has sub-Pfaffians w with
    A w = 0 and w_n = Pf(-da), nonzero exactly when B_phi is nondegenerate; then
    -da w_<n = -b w_n, so x = w_<n / w_n. In odd dimension B_phi is always degenerate.
    """
    n = len(coords)
    if n % 2:
        return None
    b = [int(x * den) for x in coords]
    w = sub_pfaffians([[-x for x in row] + [y] for row, y in zip(da, b)] + [[-y for y in b] + [0]])
    return vector_over(w[:n], w[n]) if w[n] else None


def check_frobenius(g: LieAlgebra, phi: KForm) -> tuple[CheckReport, FrobeniusStructure | None]:
    """Even dimension and nondegenerate Kirillov form; computes the principal element."""
    coords, da, den, b = _kirillov(g, phi)
    x_p = _principal(coords, da, den)
    witness = "" if x_p is not None else f"radical contains {fmt_vector(nullspace(da, g.dim)[0], g.labels)}"
    report = CheckReport(
        (
            passed("even_dimension", g.dim % 2 == 0, f"dim = {g.dim}"),
            passed("kirillov_nondegenerate", x_p is not None, witness),
        )
    )
    if x_p is None:  # an odd dimension leaves a radical, so this is every failing report
        return report, None
    notes = (("principal_element", fmt_vector(x_p, g.labels)), ("kirillov_form", b.describe(g.labels)))
    return report.with_notes(*notes), _bind(FrobeniusStructure(phi, x_p), g, kirillov=b)


def check_contact(g: LieAlgebra, alpha: KForm) -> tuple[CheckReport, ContactStructure | None]:
    """Odd dimension 2n+1, alpha ^ (d alpha)^n nonzero, unique Reeb vector.

    Nothing is eliminated. The top-form test reads the bordered Pfaffian off
    the signed sub-Pfaffians w of d(alpha), with d(alpha) w = 0
    (``forms._top_contact``). When it is nonzero, some entry of w, a
    sub-Pfaffian of size 2n, is nonzero, so d(alpha) has rank 2n and its
    kernel is the line of w, on which alpha(w) != 0. So xi = w/alpha(w) is
    the one solution of d(alpha) xi = 0, alpha(xi) = 1 (``reeb_unique``) and
    spans the kernel of d(alpha) (``radical_spanned_by_reeb``).
    """
    if alpha.degree != 1 or alpha.dim != g.dim:
        raise DimensionMismatch("expected a 1-form on the algebra")
    items = [passed("odd_dimension", g.dim % 2 == 1, f"dim = {g.dim}")]
    if not items[0].passed:
        return CheckReport(tuple(items)), None
    coords = one_form_coords(alpha)
    top, reeb = _top_contact(coords, *_dalpha(g, coords))
    items.append(passed("contact_top_form_nonzero", top.holds, top.reason or ""))
    if not top.holds:
        return CheckReport(tuple(items)), None
    items += [ok("reeb_unique"), ok("radical_spanned_by_reeb")]  # certified by w, see the docstring
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
    of the structure constants: every pair of ``_packed_torsion`` unpacked.
    """
    if not is_square(a, g.dim):
        raise DimensionMismatch("map does not match algebra dimension")
    n = g.dim
    ai, da = _int_matrix(a)
    width, _, torsion = _packed_torsion(g, ai)
    den = da * da * g._integer_terms[0]
    table = [[(ZERO,) * n] * n for _ in range(n)]
    for (i, j), packed in torsion.items():
        table[i][j] = vector_over(unpack(packed, n, width), den)
        table[j][i] = tuple(-x for x in table[i][j])
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
    g: LieAlgebra, ai: list[list[int]], bound: Callable[[int, int, int], int] = lambda n, a, c: 4 * n * n * a * a * c
) -> tuple[int, list[int], dict[tuple[int, int], int]]:
    """The torsion of the map A = ai/da, packed: (width, a_col, N), with a_col the packed columns
    of ai (``_leibniz_defects``) and N[(i, j)], i < j, da^2*D times N(e_i, e_j).

    With inner, left and cols the packed Leibniz defect, L[i][b] and the
    columns of ``_leibniz_defects``, N(e_i, e_j) = A(inner) + sum_b A_bj L[i][b]:
    a pair costs O(n) big-int multiply-adds plus one unpack, of inner. With a
    and c the largest |ai| and |C|, A(inner) has coordinates of at most
    3*n^2*a^2*c in absolute value and the last sum n^2*a^2*c, so the caller's
    bound(n, a, c) must cover 4*n^2*a^2*c, the default, which also bounds inner's 3*n*a*c.
    """
    n = g.dim
    width, cols, a_col, left, defect = _leibniz_defects(g, ai, bound)
    torsion = {}
    for (i, j), inner in defect.items():
        total = sum(map(mul, unpack(inner, n, width), a_col))
        torsion[(i, j)] = total + sum(x * left[i][b] for b, x in cols[j])
    return width, a_col, torsion


def _first_torsion(g: LieAlgebra, packed: tuple, da: int) -> tuple[tuple[int, int], Vector] | None:
    """The first pair with a nonzero torsion vector and that vector, or None: each pair of the
    ``_packed_torsion`` of a map over da is tested against 0, and only the failing one unpacked."""
    width, _, torsion = packed
    pair = next((pair for pair, t in torsion.items() if t), None)
    if pair is None:
        return None
    return pair, vector_over(unpack(torsion[pair], g.dim, width), da * da * g._integer_terms[0])


def _square_mismatch(
    ai: list[list[int]], a_col: list[int], width: int, scale: int, expected: list[int]
) -> tuple[int, list[int]] | None:
    """(k, A^2 e_k) for the first k with scale * A^2 e_k != expected[k], or None: column k of A^2 is
    sum_i A_ik a_col[i], a_col the packed columns of A = ai, and width holds each difference's slots."""
    for k, column in enumerate(zip(*ai)):
        square = sum(map(mul, column, a_col))
        if square * scale != expected[k]:
            return k, unpack(square, len(ai), width)
    return None


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
    against -dj^2 Id on the torsion's packed columns of ji, and the metric
    om J over do*dj for symmetry and definiteness (a positive scale keeps
    the signs of the leading minors). omega is skew, so omega J is symmetric
    exactly when omega J = -J^T omega, which for J^2 = -Id is, times J on the
    right, J^T omega J = omega: J^T (om J) is formed only where either fails.
    """
    n = g.dim
    ji, dj, om, do = _kahler_ints(g, j, omega)
    s = dj * dj
    packed = _packed_torsion(g, ji, lambda n, a, c: 4 * n * n * a * a * c + n * a * a + s)
    width, a_col, _ = packed
    wrong = _square_mismatch(ji, a_col, width, 1, [-s << width * k for k in range(n)])
    witness = "" if wrong is None else f"J^2({g.labels[wrong[0]]}) = {fmt_vector(vector_over(wrong[1], s), g.labels)}"
    items = [passed("complex_square_identity", wrong is None, witness)]
    bad = _first_torsion(g, packed, dj)
    witness = "" if bad is None else f"N_J{fmt_basis_tuple(bad[0], g.labels)} = {fmt_vector(bad[1], g.labels)}"
    items.append(passed("complex_integrable", bad is None, witness))
    domega = KForm(n, 3, tuple(_d_two_form(g, om, do)))
    items.append(
        passed("symplectic_closed", domega.is_zero(), f"d(omega) = {domega.describe(g.labels)}")
    )
    metric = _int_mul(om, ji)
    metric_items, rows, notes = _metric_checks(g, metric, do * dj, "omega(x, Jy) is not symmetric")
    bad_inv = None
    if wrong is not None or not metric_items[0].passed:
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
    report = CheckReport(tuple(items) + metric_items, notes)
    if not report.overall:
        return report, None
    return report, _bind(KahlerStructure(j, omega, rows), g)


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

    Phi^2 is tested on the torsion's packed columns of Phi; the metric G =
    -D Phi + a a^T, D = d(alpha) and a = alpha, is the one O(n^3) product of a
    passing check (Blair, Riemannian Geometry of Contact and Symplectic
    Manifolds, ch. 4 and 6). With P1 Phi^2 = xi a^T - Id and P2 a^T Phi = 0,
    G Phi = D - (D xi) a^T, so G Phi = D exactly when P3 D xi = 0 (a = 0 gives
    D = 0); with P1-P3, Phi^T G Phi = Phi^T D is the transpose of -D Phi =
    G - a a^T (D is skew), so the isometry holds exactly when G is symmetric.
    G Phi and Phi^T (G Phi) are formed only where P1, P2 or P3 fails.
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
    # N_Phi(e_i, e_j) over dt = dp^2*D against -d(alpha)(e_i, e_j) xi over den*dr: with
    # u = den*dr/h and v = dt/h, h their gcd, the packed N*u + d(alpha)_ij*v*xi is 0 for each
    # pair; s*Phi^2 e_k over s*dp^2 against (xi (x) alpha - Id) e_k = (a_k xi - s e_k) over s,
    # s = dal*dr, is 0 packed on the same columns of Phi; the slots hold all four terms
    s = dal * dr
    dt = dp * dp * g._integer_terms[0]
    h = gcd(den * dr, dt)
    u, v = den * dr // h, dt // h
    r_max = max(map(abs, r))
    big = max(abs(x) for row in da for x in row) * v * r_max + dp * dp * (max(map(abs, a)) * r_max + s)
    width, a_col, torsion = _packed_torsion(g, p, lambda n, a, c: (4 * n * c * u + s) * n * a * a + big)
    xi = pack(enumerate(r), width)
    wrong = _square_mismatch(p, a_col, width, s, [dp * dp * (x * xi - (s << width * k)) for k, x in enumerate(a)])
    k, square = wrong or (0, None)
    witness = (
        ""
        if wrong is None
        else f"Phi^2({g.labels[k]}) = {fmt_vector(vector_over(square, dp * dp), g.labels)}, expected "
        f"{fmt_vector(vector_over([y * a[k] - (s if i == k else 0) for i, y in enumerate(r)], s), g.labels)}"
    )
    items.append(passed("phi_square_identity", wrong is None, witness))
    bad_pair = next(((i, j) for (i, j), t in torsion.items() if t * u + da[i][j] * v * xi), None)
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
    phi_reeb = [sum(map(mul, row, r)) for row in p]
    alpha_phi = [sum(map(mul, a, col)) for col in zip(*p)]
    if wrong is None and not any(alpha_phi) and not any(sum(map(mul, row, r)) for row in da):
        # Phi^2 = xi (x) alpha - Id, alpha o Phi = 0 and d(alpha) xi = 0 decide both items (see the docstring)
        isometry, reproduces = metric_items[0].passed, True
    else:
        # Phi^T g Phi over dm*dp^2 against g - alpha (x) alpha over dm*dal^2
        gphi = _int_mul(metric, p)
        lhs = _int_mul(transpose(p), gphi)
        rhs = [[z * dal * dal - x * y * dm for y, z in zip(a, row)] for x, row in zip(a, metric)]
        isometry = all(_same(u, dm * dp * dp, v, dm * dal * dal) for u, v in zip(lhs, rhs))
        reproduces = all(_same(u, dm * dp, v, den) for u, v in zip(gphi, da))
    items.append(passed("metric_phi_isometry", isometry, "g(Phi x, Phi y) != g(x,y) - alpha(x)alpha(y)"))
    items.append(passed("metric_reproduces_dalpha", reproduces, "g(x, Phi y) != d(alpha)(x,y)"))
    witness = f"Phi(xi) = {fmt_vector(vector_over(phi_reeb, dp * dr), g.labels)}"
    items.append(passed("phi_kills_reeb", not any(phi_reeb), witness))
    witness = f"alpha(Phi e_j) = {fmt_vector(vector_over(alpha_phi, dal * dp), duals)}"
    items.append(passed("alpha_phi_vanishes", not any(alpha_phi), witness))
    report = CheckReport(tuple(items), notes)
    if not report.overall:
        return report, None
    return report, _bind(SasakianStructure(reeb, alpha, phi, rational_metric), g)
