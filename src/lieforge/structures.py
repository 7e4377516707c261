"""Verifiers for contact, Frobenius, Kahler and Sasakian structures.

Metric conventions, fixed by the worked four-dimensional example:
  * Kahler metric g(x,y) = omega(x, Jy);
  * Sasakian metric g(x,y) = -d(alpha)(x, Phi y) + alpha(x) alpha(y).
Both are recomputed from the supplied data and verified axiom by axiom, an
axiom that other items imply decided from them; positive definiteness is
decided exactly through leading principal minors.

The checks read a form's numerators off the form itself (``KForm._ints``,
cached), and a map's or a vector's through ``linalg.int_matrix`` and
``linalg.clear_denominators``. The contact and Sasakian checks compute
d(alpha) once per call, as integers over one denominator (``forms._dalpha``),
and test every identity on integer products cross-multiplied by their
denominators; ``check_kahler`` tests J^2, omega(J., J.), d(omega)
(``forms._d_two_form``) and the metric on the integer matrices of J and
omega the same way.
Fractions are made only for the results, the notes and the witness of an item
that fails (``report.first_failure``). The contact check and a passing
Frobenius check read the Reeb vector, its certificate and the principal
element off one skew elimination (``linalg.sub_pfaffians``, see
``check_contact`` and ``_principal``), with no Gauss-Jordan solve.

Both read the Nijenhuis torsion as integers: ``_packed_torsion`` packs each
integer vector into one int (``linalg.pack``), O(n^3) big-int multiply-adds
in all, and one unpack per basis pair. It starts from the packed Leibniz
defect of ``algebra._leibniz_defects``, which ``derivations.is_derivation``
tests against 0 by itself. ``check_kahler`` tests each packed pair against 0
(``_first_torsion``), ``check_sasakian`` compares it with -d(alpha) (x) xi;
both unpack only a failing pair and test J^2 or Phi^2 on the packed columns
of the map (``_square_mismatch``). Metric identities that other items imply
skip their O(n^3) products, as each check derives: with J^2 = -Id,
omega(J., J.) = omega is the symmetry of omega J; with alpha o Phi = 0 and
Phi^2 = xi (x) alpha - Id, g(., Phi .) = d(alpha) is d(alpha) xi = 0, and
then g(Phi., Phi.) = g - alpha (x) alpha is the symmetry of g. The two
checks share their metric items and ``metric_row_*`` notes
(``_metric_checks``): the metric's leading minors come from the symmetric
sweep of ``linalg.positive_definite``, and its Fractions are built once for
each pair of mirrored entries.

A Frobenius, Kahler or Sasakian structure returned by its ``check_*``
function is bound to the algebra it was checked on (its ``algebra``
attribute). The constructions in ``theorems`` accept such a structure on that
same algebra object as already verified; any other structure, including
one built by hand, is checked again. Only ``check_*`` binds: ``algebra`` is
a class attribute, None, outside the record's ``_fields``, and only ``_bind``
sets it on an instance, so a copy built from the fields is unbound. The
binding is the only hidden field: a construction that needs the Kirillov form
-d(phi) of a Frobenius structure builds it (``forms.kirillov_form``).
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import gcd
from operator import mul

from .algebra import LieAlgebra, _leibniz_defects
from .forms import KForm, _check_form, _d_two_form, _dalpha, _kirillov, _top_contact
from .linalg import (
    Matrix,
    Vector,
    ZERO,
    _check_square,
    _check_width,
    clear_denominators,
    fmt_basis_tuple,
    fmt_dual,
    fmt_scalar,
    fmt_vector,
    int_apply,
    int_matrix,
    int_mul,
    nullspace,
    pack,
    positive_definite,
    sub_pfaffians,
    transpose,
    unpack,
    vector_over,
)
from .report import CheckItem, CheckReport, Record, first_failure, ok, passed


class ContactStructure(Record):
    _fields = ("alpha", "reeb")


class FrobeniusStructure(Record):
    _fields = ("phi", "principal")
    algebra: LieAlgebra | None = None


class KahlerStructure(Record):
    _fields = ("j", "omega", "metric")
    algebra: LieAlgebra | None = None


class SasakianStructure(Record):
    _fields = ("reeb", "alpha", "phi", "metric")
    algebra: LieAlgebra | None = None


def _bind(structure, g: LieAlgebra):
    structure.__dict__["algebra"] = g  # over the class default None; assignment is refused
    return structure


def _principal(phi: KForm, da: list[list[int]], den: int) -> Vector | None:
    """The x with B_phi(x, y) = phi(y) for all y, B_phi = -da/den, or None where B_phi is degenerate.

    In even dimension n, with b = den*phi = (den/d)*a for phi = a/d (``KForm._ints``),
    A = [[-da, b], [-b^T, 0]] has sub-Pfaffians w with A w = 0 and w_n = Pf(-da), nonzero exactly
    when B_phi is nondegenerate; then -da w_<n = -b w_n, so x = w_<n / w_n. In odd dimension B_phi
    is always degenerate.
    """
    n = phi.dim
    if n % 2:
        return None
    a, d = phi._ints
    b = [x * (den // d) for x in a]
    w = sub_pfaffians([[-x for x in row] + [y] for row, y in zip(da, b)] + [[-y for y in b] + [0]])
    return vector_over(w[:n], w[n]) if w[n] else None


def check_frobenius(
    g: LieAlgebra, phi: KForm, kirillov: tuple | None = None
) -> tuple[CheckReport, FrobeniusStructure | None]:
    """Even dimension and nondegenerate Kirillov form; computes the principal element. A caller
    that also needs B_phi = -d(phi) passes phi's ``forms._kirillov`` tuple, built once."""
    da, den, b = kirillov or _kirillov(g, phi)
    x_p = _principal(phi, da, den)
    report = CheckReport(
        (
            passed("even_dimension", g.dim % 2 == 0, f"dim = {g.dim}"),
            first_failure(  # the hit is the degenerate d(phi)
                "kirillov_nondegenerate",
                da if x_p is None else None,
                lambda m: f"radical contains {fmt_vector(nullspace(m, g.dim)[0], g.labels)}",
            ),
        )
    )
    if x_p is None:  # an odd dimension leaves a radical, so this is every failing report
        return report, None
    notes = (("principal_element", fmt_vector(x_p, g.labels)), ("kirillov_form", b.describe(g.labels)))
    return report.with_notes(*notes), _bind(FrobeniusStructure(phi, x_p), g)


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
    _check_form(alpha, g.dim, 1)
    items = [passed("odd_dimension", g.dim % 2 == 1, f"dim = {g.dim}")]
    if not items[0].passed:
        return CheckReport(tuple(items)), None
    coefficient, reeb = _top_contact(alpha, *_dalpha(g, alpha))
    items.append(passed("contact_top_form_nonzero", reeb is not None, "top coefficient is 0"))
    if reeb is None:
        return CheckReport(tuple(items)), None
    items += [ok("reeb_unique"), ok("radical_spanned_by_reeb")]  # certified by w, see the docstring
    report = CheckReport(
        tuple(items),
        (
            ("reeb", fmt_vector(reeb, g.labels)),
            ("top_coefficient", fmt_scalar(coefficient)),
        ),
    )
    return report, ContactStructure(alpha, reeb)


def _packed_torsion(
    g: LieAlgebra, ai: list[list[int]], bound: Callable[[int, int, int], int] = lambda n, a, c: 4 * n * n * a * a * c
) -> tuple[int, list[int], dict[tuple[int, int], int]]:
    """The torsion of the map A = ai/da, packed: (width, a_col, N), with a_col the packed columns
    of ai (``algebra._leibniz_defects``) and N[(i, j)], i < j, da^2*D times N(e_i, e_j).

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
        torsion[(i, j)] = total + sum(map(mul, cols[j], left[i]))
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


def _metric_checks(
    g: LieAlgebra, metric: list[list[int]], dm: int, asymmetry: str
) -> tuple[tuple[CheckItem, CheckItem], Matrix, tuple[tuple[str, str], ...]]:
    """The symmetry and definiteness items of the metric ``metric``/dm, with ``asymmetry`` the
    witness of the first, the metric as Fractions and its ``metric_row_*`` notes.

    Each pair of equal entries (i, j), (j, i) gets one Fraction: row i reuses those of rows j < i
    where it mirrors them and builds the rest as ``vector_over`` does. The notes are ``fmt_vector``
    over the dual labels, built once, so their text is that of ``fmt_dual``."""
    symmetric = metric == [list(col) for col in zip(*metric)]
    pos, minor = positive_definite(metric)
    items = (
        passed("metric_symmetric", symmetric, asymmetry),
        passed(
            "metric_positive_definite",
            symmetric and pos,
            f"leading {minor}x{minor} minor is not positive" if not pos else "metric not symmetric",
        ),
    )
    rows: list[Vector] = []
    for i, (row, col) in enumerate(zip(metric, zip(*metric))):  # col[j] is entry (j, i), rows[j][i] its Fraction
        mirrored = [rows[j][i] if j < i and x == col[j] else Fraction(x, dm) if x else ZERO for j, x in enumerate(row)]
        rows.append(tuple(mirrored))
    dual = [f"{label}*" for label in g.labels]
    notes = tuple((f"metric_row_{label}", fmt_vector(row, dual)) for label, row in zip(g.labels, rows))
    return items, tuple(rows), notes


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
    _check_square(j, n)
    _check_form(omega, n, 2)
    ji, dj = int_matrix(j)
    om, do = omega._ints
    s = dj * dj
    packed = _packed_torsion(g, ji, lambda n, a, c: 4 * n * n * a * a * c + n * a * a + s)
    width, a_col, _ = packed
    wrong = _square_mismatch(ji, a_col, width, 1, [-s << width * k for k in range(n)])
    bad = _first_torsion(g, packed, dj)
    domega = KForm(n, 3, tuple(_d_two_form(g, omega)))
    metric = int_mul(om, ji)
    metric_items, rows, notes = _metric_checks(g, metric, do * dj, "omega(x, Jy) is not symmetric")
    bad_inv = None
    if wrong is not None or not metric_items[0].passed:
        invariant = int_mul(transpose(ji), metric)
        bad_inv = next(((a, b) for a in range(n) for b in range(a + 1, n) if invariant[a][b] != s * om[a][b]), None)
    items = (
        first_failure(
            "complex_square_identity",
            wrong,
            lambda w: f"J^2({g.labels[w[0]]}) = {fmt_vector(vector_over(w[1], s), g.labels)}",
        ),
        first_failure(
            "complex_integrable", bad, lambda t: f"N_J{fmt_basis_tuple(t[0], g.labels)} = {fmt_vector(t[1], g.labels)}"
        ),
        first_failure(
            "symplectic_closed", None if domega.is_zero() else domega, lambda f: f"d(omega) = {f.describe(g.labels)}"
        ),
        first_failure(
            "symplectic_j_invariant",
            bad_inv,
            lambda pair: f"omega(J.,J.) {fmt_basis_tuple(pair, g.labels)}: "
            f"{fmt_scalar(Fraction(invariant[pair[0]][pair[1]], do * s))} != "
            f"{fmt_scalar(Fraction(om[pair[0]][pair[1]], do))}",
        ),
    )
    report = CheckReport(items + metric_items, notes)
    if not report.overall:
        return report, None
    return report, _bind(KahlerStructure(j, omega, rows), g)


def _same(u, du: int, v, dv: int) -> bool:
    """u/du == v/dv, entry by entry, for integer vectors u and v."""
    return all(x * dv == y * du for x, y in zip(u, v, strict=True))


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
    n = g.dim
    _check_form(alpha, n, 1)
    _check_width((reeb,), n)
    _check_square(phi, n)
    a, dal = alpha._ints
    r, dr = clear_denominators(reeb)
    p, dp = int_matrix(phi)
    da, den = _dalpha(g, alpha)
    pairing = Fraction(sum(x * y for x, y in zip(a, r)), dal * dr)
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
    bad_pair = next(((i, j) for (i, j), t in torsion.items() if t * u + da[i][j] * v * xi), None)
    # G = -d(alpha) Phi + alpha (x) alpha = (a a^T)(den/dal)dp - (da p)dal over dm = den*dal*dp
    dm, scale = den * dal * dp, den // dal * dp
    metric = [[x * y * scale - z * dal for y, z in zip(a, row)] for x, row in zip(a, int_mul(da, p))]
    metric_items, rational_metric, notes = _metric_checks(g, metric, dm, "derived metric is not symmetric")
    phi_reeb = int_apply(p, r)
    alpha_phi = int_apply(zip(*p), a)
    if wrong is None and not any(alpha_phi) and not any(int_apply(da, r)):
        # Phi^2 = xi (x) alpha - Id, alpha o Phi = 0 and d(alpha) xi = 0 decide both items (see the docstring)
        isometry, reproduces = metric_items[0].passed, True
    else:
        # Phi^T g Phi over dm*dp^2 against g - alpha (x) alpha over dm*dal^2
        gphi = int_mul(metric, p)
        lhs = int_mul(transpose(p), gphi)
        rhs = [[z * dal * dal - x * y * dm for y, z in zip(a, row)] for x, row in zip(a, metric)]
        isometry = all(_same(u, dm * dp * dp, v, dm * dal * dal) for u, v in zip(lhs, rhs))
        reproduces = all(_same(u, dm * dp, v, den) for u, v in zip(gphi, da))
    items = (
        first_failure(
            "alpha_reeb_pairing", None if pairing == 1 else pairing, lambda q: f"alpha(xi) = {fmt_scalar(q)}"
        ),
        first_failure(
            "phi_square_identity",
            wrong,
            lambda w: f"Phi^2({g.labels[w[0]]}) = {fmt_vector(vector_over(w[1], dp * dp), g.labels)}, expected "
            f"{fmt_vector(vector_over([y * a[w[0]] - (s if i == w[0] else 0) for i, y in enumerate(r)], s), g.labels)}",
        ),
        first_failure(
            "nijenhuis_torsion",
            bad_pair,
            lambda pair: f"N_Phi{fmt_basis_tuple(pair, g.labels)} = "
            f"{fmt_vector(vector_over(unpack(torsion[pair], n, width), dt), g.labels)}, expected "
            f"{fmt_vector(vector_over([-da[pair[0]][pair[1]] * y for y in r], den * dr), g.labels)}",
        ),
        *metric_items,
        passed("metric_phi_isometry", isometry, "g(Phi x, Phi y) != g(x,y) - alpha(x)alpha(y)"),
        passed("metric_reproduces_dalpha", reproduces, "g(x, Phi y) != d(alpha)(x,y)"),
        first_failure(
            "phi_kills_reeb",
            phi_reeb if any(phi_reeb) else None,
            lambda w: f"Phi(xi) = {fmt_vector(vector_over(w, dp * dr), g.labels)}",
        ),
        first_failure(
            "alpha_phi_vanishes",
            alpha_phi if any(alpha_phi) else None,
            lambda w: f"alpha(Phi e_j) = {fmt_dual(vector_over(w, dal * dp), g.labels)}",
        ),
    )
    report = CheckReport(items, notes)
    if not report.overall:
        return report, None
    return report, _bind(SasakianStructure(reeb, alpha, phi, rational_metric), g)
