"""Reference oracle for lieforge.derivations: the Fraction Leibniz system.

This is the straightforward Fraction-arithmetic _leibniz_rows that the
integer rows built from ``LieAlgebra._integer_terms`` replaced, and a
derivation_space that solves it, with the unchanged rows of the other
constraints, through linalg_oracle.solve_affine. It is slow but obviously
correct; tests/test_derivations.py checks that the fast path returns exactly
the same particular solution and basis.
"""

from __future__ import annotations

from fractions import Fraction

import linalg_oracle
from lieforge.algebra import LieAlgebra
from lieforge.derivations import (
    Commute,
    Constraint,
    FormEigen,
    Leibniz,
    Sends,
    _commute_rows,
    _form_eigen_rows,
    _sends_rows,
)
from lieforge.linalg import ZERO, Matrix, Vector


def _leibniz_rows(g: LieAlgebra) -> tuple[list[Vector], list[Fraction]]:
    n = g.dim
    rows: list[Vector] = []
    rhs: list[Fraction] = []
    for p in range(n):
        for q in range(p + 1, n):
            for k in range(n):
                row = [ZERO] * (n * n)
                # D([e_p,e_q])_k = sum_m c[p][q][m] D[k][m]
                for m in range(n):
                    row[k * n + m] += g.c[p][q][m]
                # -[D e_p, e_q]_k = -sum_i D[i][p] c[i][q][k]
                for i in range(n):
                    row[i * n + p] -= g.c[i][q][k]
                # -[e_p, D e_q]_k = -sum_j D[j][q] c[p][j][k]
                for j in range(n):
                    row[j * n + q] -= g.c[p][j][k]
                rows.append(tuple(row))
                rhs.append(ZERO)
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
