"""Reference oracle for the multilinear kernels: plain Fraction expansions.

These are the straightforward Fraction-arithmetic versions of bracket,
jacobi_residual, check_jacobi and nijenhuis that the integer
structure-constant kernels in lieforge.algebra and lieforge.structures
replaced. They are slow but obviously correct; tests/test_algebra.py and
tests/test_structures.py check that the fast paths return exactly the same
values, witnesses included.

jacobi_residual_ints is the plain integer loop over the cached D*c that the
packed Jacobi kernel replaced: one multiply-add per coefficient.
packed_jacobi_residual reads one triple's cyclic sum from that packed kernel,
lieforge.algebra._jacobi_failures, and packed_jacobi_residuals every ordered
triple's from one call of it.

dense_tensor and integer_terms are the dense structure-constant path that
the bracket table replaced: the full antisymmetric tensor filled from the
sparse i < j data, and the n^3 scan of it that clears the denominators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from lieforge.algebra import LieAlgebra, _jacobi_failures
from lieforge.linalg import (
    Matrix,
    Vector,
    ZERO,
    column,
    fmt_basis_tuple,
    fmt_vector,
    is_zero_vector,
    mat_mul,
    mat_vec,
    scalar,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)
from lieforge.report import CheckReport, DimensionMismatch, fail, ok
from lieforge.structures import NijenhuisTable


def dense_tensor(dim: int, brackets) -> tuple[tuple[Vector, ...], ...]:
    """c[i][j] is the vector [e_i, e_j], filled from brackets[(i, j)][k] = c_ijk, i < j, and negated below."""
    table = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
    for (i, j), coeffs in dict(brackets).items():
        for k, value in dict(coeffs).items():
            v = scalar(value)
            table[i][j][k] = v
            table[j][i][k] = -v
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def integer_terms(c: tuple[tuple[Vector, ...], ...]) -> tuple[int, tuple, int]:
    """(D, T, M) of ``LieAlgebra._integer_terms`` by a scan of every entry of the dense tensor c."""
    d = lcm(*(x.denominator for plane in c for v in plane for x in v))
    terms = tuple(
        tuple(tuple((k, x.numerator * (d // x.denominator)) for k, x in enumerate(v) if x) for v in plane)
        for plane in c
    )
    big = max((abs(x) for plane in terms for row in plane for _, x in row), default=0)
    return d, terms, big


def bracket(g: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """[x, y] by bilinear expansion through the structure constants."""
    if len(x) != g.dim or len(y) != g.dim:
        raise DimensionMismatch("vector length does not match algebra dimension")
    out = zero_vector(g.dim)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0 or i == j:
                continue
            out = vec_add(out, vec_scale(xi * yj, g.c[i][j]))
    return out


def jacobi_residual(g: LieAlgebra, i: int, j: int, k: int) -> Vector:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]."""
    r = bracket(g, g.c[i][j], g.basis_vector(k))
    r = vec_add(r, bracket(g, g.c[j][k], g.basis_vector(i)))
    return vec_add(r, bracket(g, g.c[k][i], g.basis_vector(j)))


def packed_jacobi_residual(g: LieAlgebra, i: int, j: int, k: int) -> Vector:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] from the packed kernel."""
    failing = _jacobi_failures(g, ((i, j, k),))
    return failing[0][1] if failing else zero_vector(g.dim)


def packed_jacobi_residuals(g: LieAlgebra) -> dict[tuple[int, int, int], Vector]:
    """Every ordered triple's cyclic sum, repeated indices included, from one call of the packed kernel."""
    triples = list(product(range(g.dim), repeat=3))
    failing = dict(_jacobi_failures(g, triples))
    return {t: failing.get(t, zero_vector(g.dim)) for t in triples}


def jacobi_residual_ints(g: LieAlgebra, i: int, j: int, k: int) -> tuple[list[int], int]:
    """(acc, D^2) with acc/D^2 the cyclic sum: sum over m of C_ij^m C_mk^l plus its cyclic shifts, C = D*c."""
    d, terms, _ = g._integer_terms
    acc = [0] * g.dim
    for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
        for m, a in terms[p][q]:
            for l, b in terms[m][r]:
                acc[l] += a * b
    return acc, d * d


def check_jacobi(g: LieAlgebra) -> CheckReport:
    """Jacobi identity on all basis triples i < j < k."""
    failures = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                res = jacobi_residual(g, i, j, k)
                if not is_zero_vector(res):
                    failures.append(
                        fail(
                            f"jacobi{fmt_basis_tuple((i, j, k), g.labels)}",
                            f"cyclic sum = {fmt_vector(res, g.labels)}",
                        )
                    )
    if failures:
        return CheckReport(tuple(failures))
    return CheckReport((ok("jacobi_all_triples"),))


def nijenhuis(g: LieAlgebra, a: Matrix) -> NijenhuisTable:
    """Torsion N_A(x,y) = A^2[x,y] + [Ax,Ay] - A[x,Ay] - A[Ax,y]."""
    if len(a) != g.dim:
        raise DimensionMismatch("map does not match algebra dimension")
    n = g.dim
    a2 = mat_mul(a, a)
    images = [column(a, j) for j in range(n)]
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = (ZERO,) * n
    for i in range(n):
        for j in range(i + 1, n):
            value = mat_vec(a2, g.c[i][j])
            value = tuple(x + y for x, y in zip(value, bracket(g, images[i], images[j])))
            value = vec_sub(value, mat_vec(a, bracket(g, g.basis_vector(i), images[j])))
            value = vec_sub(value, mat_vec(a, bracket(g, images[i], g.basis_vector(j))))
            table[i][j] = value
            table[j][i] = vec_scale(Fraction(-1), value)
    return NijenhuisTable(n, tuple(tuple(row) for row in table))
