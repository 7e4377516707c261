"""Reference oracle for lieforge.forms: the Fraction methods of KForm that no verdict runs.

evaluate, as_matrix and add are the determinant-rule evaluation of a k-form
on k vectors, the antisymmetric matrix of a 2-form and the sum of two forms,
as KForm carried them until every check, construction and constraint read a
form's numerators over one denominator (``KForm._ints``) instead. The other
oracles and the tests evaluate forms, read 2-forms as matrices and sum
forms with them. evaluate takes its minors' determinants from
linalg_oracle.det, so it does not run lieforge's elimination.

radical is the nullspace of a 2-form's Fraction matrix by the Gauss-Jordan
elimination of linalg_oracle, where lieforge.forms.radical eliminates the
form's integer numerators with lieforge's kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from lieforge.algebra import LieAlgebra, Subspace
from lieforge.forms import KForm, _check_form
from lieforge.linalg import ZERO, Matrix, Vector, _check_width
from lieforge.report import DimensionMismatch

from linalg_oracle import det, nullspace


def evaluate(form: KForm, vectors: Sequence[Vector]) -> Fraction:
    """Determinant-convention evaluation on k vectors: sum of c_I det(v[i] for i in I)."""
    if len(vectors) != form.degree:
        raise DimensionMismatch("wrong number of arguments")
    _check_width(vectors, form.dim)
    if form.degree == 0:
        return form.coeff(())
    total = ZERO
    for idxs, value in form.coeffs:
        minor = tuple(tuple(v[i] for v in vectors) for i in idxs)
        total += value * det(minor)
    return total


def as_matrix(form: KForm) -> Matrix:
    """Degree-2 form as the antisymmetric matrix B[i][j] = w(e_i, e_j)."""
    _check_form(form, form.dim, 2)
    m = [[ZERO] * form.dim for _ in range(form.dim)]
    for (i, j), value in form.coeffs:
        m[i][j] = value
        m[j][i] = -value
    return tuple(tuple(row) for row in m)


def add(a: KForm, b: KForm) -> KForm:
    """a + b, coefficient by coefficient."""
    _check_form(b, a.dim, a.degree)
    table = dict(a.coeffs)
    for idxs, value in b.coeffs:
        table[idxs] = table.get(idxs, ZERO) + value
    return KForm.from_coeffs(a.dim, a.degree, table)


def radical(g: LieAlgebra, form: KForm) -> Subspace:
    """{x : form(x, y) = 0 for all y}: the canonical nullspace of the form's antisymmetric matrix."""
    return Subspace(g.dim, nullspace(as_matrix(form), g.dim))
