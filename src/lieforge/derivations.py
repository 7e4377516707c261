"""Derivation checks and affine solution spaces of linear-map constraints.

Unknowns are the n^2 entries of a map in row-major order, D[i][j] with
column j the image of e_j; solution bases come back row-reduced in that
flattening, so results are canonical. Each constraint refuses data of the
wrong shape or inexact entries (through ``linalg.scalar``: a float raises
TypeError, a "p/q" string is read exactly), and builds its own integer rows
(``rows(g)``): the Leibniz equations from the algebra's cached integer
structure constants, ``FormEigen`` from the numerators its form caches
(``forms.KForm._ints``), the others scaled, with their right-hand sides, by
the common denominators of their maps and vectors. The elimination makes
every row primitive, so their scale does not matter. ``is_derivation`` tests the
Leibniz rule on the packed integer defect that the Nijenhuis torsion kernel
also starts from (``algebra._leibniz_defects``).
"""

from __future__ import annotations

from .algebra import LieAlgebra, _leibniz_defects
from .forms import _check_form
from .linalg import (
    Matrix,
    Vector,
    _check_square,
    _check_width,
    clear_denominators,
    fmt_basis_tuple,
    fmt_vector,
    int_apply,
    int_matrix,
    matrix,
    nullspace,
    scalar,
    solve_affine,
    unpack,
    vector,
    vector_over,
    zero_vector,
)
from .report import CheckReport, Record, fail, ok


def is_derivation(g: LieAlgebra, d: Matrix) -> CheckReport:
    """Leibniz rule D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] on all pairs.

    With the map A = ai/da and C = D*c over integers, each pair's defect is
    one packed int from ``algebra._leibniz_defects``, da*D times
    A[e_i,e_j] - [Ae_i,e_j] - [e_i,Ae_j], tested against 0: O(n^3) big-int
    multiply-adds in all. Only a failing pair is unpacked, into its two sides
    A C_ij and L[i][j] - L[j][i], L[i][b] = D*da*[Ae_i, e_b]. With a and c the
    largest |ai| and |C|, the first has coordinates of at most n*a*c in
    absolute value, the second 2*n*a*c and the defect 3*n*a*c, so the slots
    hold 3*n*a*c.
    """
    n = g.dim
    _check_square(d, n)
    ai, da = int_matrix(d)
    lcd, terms, _ = g._integer_terms
    den = lcd * da
    width, _, a_col, left, defect = _leibniz_defects(g, ai, lambda n, a, c: 3 * n * a * c)
    failures = []
    for (i, j), inner in defect.items():
        if inner:
            lhs = vector_over(unpack(sum(y * a_col[k] for k, y in terms[i][j]), n, width), den)
            rhs = vector_over(unpack(left[i][j] - left[j][i], n, width), den)
            failures.append(
                fail(
                    f"leibniz{fmt_basis_tuple((i, j), g.labels)}",
                    f"D[e_i,e_j] = {fmt_vector(lhs, g.labels)}, "
                    f"[De_i,e_j]+[e_i,De_j] = {fmt_vector(rhs, g.labels)}",
                )
            )
    if failures:
        return CheckReport(tuple(failures))
    return CheckReport((ok("leibniz_all_pairs"),))


class Leibniz(Record):
    """D is a derivation of the algebra."""

    def rows(self, g: LieAlgebra) -> tuple[list[list[int]], list[int]]:
        """D times the homogeneous Leibniz equations, one per (p < q, k), as integer rows.

        With C = D*c from ``LieAlgebra._integer_terms``, the row of (p, q, k) is
        sum_m C_pqm D[k][m] - sum_i C_iqk D[i][p] + sum_j C_jpk D[j][q]: the
        component k of D[e_p,e_q] - [De_p,e_q] - [e_p,De_q], using C_pjk = -C_jpk.
        """
        n = g.dim
        _, terms, _ = g._integer_terms
        # into[q][k] lists the (i, C_iqk) with C_iqk != 0
        into: list[list[list[tuple[int, int]]]] = [[[] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for q in range(n):
                for k, c in terms[i][q]:
                    into[q][k].append((i, c))
        rows: list[list[int]] = []
        for p in range(n):
            for q in range(p + 1, n):
                for k in range(n):
                    row = [0] * (n * n)
                    for m, c in terms[p][q]:
                        row[k * n + m] += c
                    for i, c in into[q][k]:
                        row[i * n + p] -= c
                    for j, c in into[p][k]:
                        row[j * n + q] += c
                    rows.append(row)
        return rows, [0] * len(rows)


class FormEigen(Record):
    """phi o D = lambda * phi for a fixed 1-form."""

    _fields = ("phi", "factor")

    def rows(self, g: LieAlgebra) -> tuple[list[list[int]], list[int]]:
        """dc*q times the equations (phi o D)_j = factor*phi_j, phi = c/dc (``KForm._ints``) and
        factor = p/q, as integer rows: c_i*q at D[i][j], right-hand side p*c_j."""
        _check_form(self.phi, g.dim, 1)
        n = g.dim
        c, _ = self.phi._ints
        p, q = scalar(self.factor).as_integer_ratio()
        rows = [[0] * (n * n) for _ in range(n)]
        for j, row in enumerate(rows):
            row[j::n] = [x * q for x in c]
        return rows, [p * x for x in c]


class Commute(Record):
    """D o A = A o D, restricted to a subspace when given."""

    _fields = ("a", "on")
    _defaults = {"on": None}

    def rows(self, g: LieAlgebra) -> tuple[list[list[int]], list[int]]:
        """da*dv times the equations D(Av) = A(Dv), for each v of the subspace (every e_j without one),
        as integer rows, A = ai/da and v = vi/dv: component k is
        sum_j (ai vi)_j D[k][j] - sum_i,j ai[k][i] vi[j] D[i][j]."""
        n = g.dim
        _check_square(self.a, n)
        ai, _ = int_matrix(matrix(self.a))
        vectors = self.on.rows if self.on is not None else tuple(g.basis_vector(j) for j in range(n))
        _check_width(vectors, n)
        rows: list[list[int]] = []
        for v in vectors:
            vi, _ = clear_denominators(vector(v))
            av = int_apply(ai, vi)
            support = [(j, x) for j, x in enumerate(vi) if x]
            for k in range(n):
                row = [0] * (n * n)
                row[k * n : (k + 1) * n] = av
                for i, y in enumerate(ai[k]):
                    if y:
                        for j, x in support:
                            row[i * n + j] -= y * x
                rows.append(row)
        return rows, [0] * len(rows)


class Sends(Record):
    """D(v) = w for fixed vectors."""

    _fields = ("v", "w")

    def rows(self, g: LieAlgebra) -> tuple[list[list[int]], list[int]]:
        """dv*dw times the equations D(v) = w, v = vi/dv and w = wi/dw, as integer rows."""
        n = g.dim
        _check_width((self.v, self.w), n)
        (vi, dv), (wi, dw) = clear_denominators(vector(self.v)), clear_denominators(vector(self.w))
        zero = [0] * n
        return [zero * k + [x * dw for x in vi] + zero * (n - 1 - k) for k in range(n)], [x * dv for x in wi]


Constraint = Leibniz | FormEigen | Commute | Sends


def _unflatten(g: LieAlgebra, flat: Vector) -> Matrix:
    n = g.dim
    return tuple(flat[i * n : (i + 1) * n] for i in range(n))


def derivation_space(
    g: LieAlgebra, constraints: list[Constraint]
) -> tuple[Matrix | None, tuple[Matrix, ...]]:
    """Solve the combined affine system over the map entries.

    Returns (particular solution or None when inconsistent, homogeneous
    basis as matrices, row-reduced over the flattened entries).
    """
    n = g.dim
    rows: list[list[int]] = []
    rhs: list[int] = []
    for con in constraints:
        r, b = con.rows(g)
        rows.extend(r)
        rhs.extend(b)
    if rows:
        particular, homogeneous = solve_affine(rows, rhs)
    else:
        particular, homogeneous = zero_vector(n * n), nullspace([], n * n)
    basis_maps = tuple(_unflatten(g, v) for v in homogeneous)
    if particular is None:
        return None, basis_maps
    return _unflatten(g, particular), basis_maps
