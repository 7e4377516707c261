"""Reference oracle for lieforge.derivations: the Fraction Leibniz rule and system.

This is the straightforward Fraction-arithmetic is_derivation that the packed
Leibniz defect (``algebra._leibniz_defects``) replaced, the Fraction
_leibniz_rows that the integer rows built from ``LieAlgebra._integer_terms``
replaced, the Fraction rows of the FormEigen, Commute and Sends constraints
that integer rows over the common denominators of their data replaced, and a
derivation_space that solves them through linalg_oracle.solve_affine. They are
slow but obviously correct; tests/test_derivations.py checks that the fast
paths return exactly the same reports, particular solution and basis.

map_in_family tests a map against a solved affine family with
linalg_oracle.in_span on the row-major flattening.
"""

from __future__ import annotations

from fractions import Fraction

import algebra_oracle
import linalg_oracle
from lieforge.algebra import LieAlgebra, Subspace
from lieforge.derivations import Commute, Constraint, FormEigen, Leibniz, Sends
from lieforge.linalg import ZERO, Matrix, Vector, fmt_basis_tuple, fmt_vector
from lieforge.report import CheckReport, DimensionMismatch, fail, ok
from linalg_oracle import mat_vec


def is_derivation(g: LieAlgebra, d: Matrix) -> CheckReport:
    """Leibniz rule D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] on all pairs."""
    if len(d) != g.dim:
        raise DimensionMismatch("map does not match algebra dimension")
    c = algebra_oracle.dense_c(g)
    failures = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = mat_vec(d, c[i][j])
            di = tuple(d[r][i] for r in range(g.dim))
            dj = tuple(d[r][j] for r in range(g.dim))
            rhs = tuple(
                a + b
                for a, b in zip(
                    algebra_oracle.bracket(g, di, g.basis_vector(j)), algebra_oracle.bracket(g, g.basis_vector(i), dj)
                )
            )
            if lhs != rhs:
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


def _leibniz_rows(g: LieAlgebra) -> tuple[list[Vector], list[Fraction]]:
    n = g.dim
    c = algebra_oracle.dense_c(g)
    rows: list[Vector] = []
    rhs: list[Fraction] = []
    for p in range(n):
        for q in range(p + 1, n):
            for k in range(n):
                row = [ZERO] * (n * n)
                # D([e_p,e_q])_k = sum_m c[p][q][m] D[k][m]
                for m in range(n):
                    row[k * n + m] += c[p][q][m]
                # -[D e_p, e_q]_k = -sum_i D[i][p] c[i][q][k]
                for i in range(n):
                    row[i * n + p] -= c[i][q][k]
                # -[e_p, D e_q]_k = -sum_j D[j][q] c[p][j][k]
                for j in range(n):
                    row[j * n + q] -= c[p][j][k]
                rows.append(tuple(row))
                rhs.append(ZERO)
    return rows, rhs


def _form_eigen_rows(g: LieAlgebra, phi, factor: Fraction) -> tuple[list[Vector], list[Fraction]]:
    n = g.dim
    coords = tuple(phi.coeff((i,)) for i in range(n))
    rows: list[Vector] = []
    rhs: list[Fraction] = []
    for j in range(n):
        row = [ZERO] * (n * n)
        for i in range(n):
            row[i * n + j] += coords[i]
        rows.append(tuple(row))
        rhs.append(factor * coords[j])
    return rows, rhs


def _commute_rows(g: LieAlgebra, a: Matrix, on: Subspace | None) -> tuple[list[Vector], list[Fraction]]:
    n = g.dim
    vectors = on.rows if on is not None else tuple(g.basis_vector(j) for j in range(n))
    rows: list[Vector] = []
    rhs: list[Fraction] = []
    for v in vectors:
        av = mat_vec(a, v)
        for k in range(n):
            row = [ZERO] * (n * n)
            # D(Av)_k - A(Dv)_k = sum_j Av_j D[k][j] - sum_i A[k][i] sum_j v_j D[i][j]
            for j in range(n):
                row[k * n + j] += av[j]
            for i in range(n):
                for j in range(n):
                    row[i * n + j] -= a[k][i] * v[j]
            rows.append(tuple(row))
            rhs.append(ZERO)
    return rows, rhs


def _sends_rows(g: LieAlgebra, v: Vector, w: Vector) -> tuple[list[Vector], list[Fraction]]:
    n = g.dim
    rows: list[Vector] = []
    rhs: list[Fraction] = []
    for k in range(n):
        row = [ZERO] * (n * n)
        for j in range(n):
            row[k * n + j] += v[j]
        rows.append(tuple(row))
        rhs.append(w[k])
    return rows, rhs


def derivation_space(g: LieAlgebra, constraints: list[Constraint]) -> tuple[Matrix | None, tuple[Matrix, ...]]:
    """The Fraction system of the constraints, solved by the oracle elimination."""
    n = g.dim
    rows: list[Vector] = []
    rhs: list[Fraction] = []
    for con in constraints:
        if isinstance(con, Leibniz):
            r, b = _leibniz_rows(g)
        elif isinstance(con, FormEigen):
            r, b = _form_eigen_rows(g, con.phi, con.factor)
        elif isinstance(con, Commute):
            r, b = _commute_rows(g, con.a, con.on)
        elif isinstance(con, Sends):
            r, b = _sends_rows(g, con.v, con.w)
        else:
            raise TypeError(f"unknown constraint {con!r}")
        rows.extend(r)
        rhs.extend(b)
    if rows:
        particular, basis = linalg_oracle.solve_affine(rows, rhs)
    else:
        particular, basis = (ZERO,) * (n * n), linalg_oracle.nullspace(rows, n * n)

    def unflatten(flat: Vector) -> Matrix:
        return tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))

    return (None if particular is None else unflatten(particular)), tuple(unflatten(v) for v in basis)


def map_in_family(g: LieAlgebra, d: Matrix, particular: Matrix, basis: tuple[Matrix, ...]) -> bool:
    """Is d = particular + (combination of basis maps)?"""
    n = g.dim
    flat_basis = [tuple(b[i][j] for i in range(n) for j in range(n)) for b in basis]
    return linalg_oracle.in_span(flat_basis, tuple(d[i][j] - particular[i][j] for i in range(n) for j in range(n)))
