"""Reference oracle for the multilinear kernels: plain Fraction expansions.

These are the straightforward Fraction-arithmetic versions of bracket,
jacobi_residual, check_jacobi and nijenhuis that the integer
structure-constant kernels in lieforge.algebra and lieforge.structures
replaced, and adjoint, the matrix of ad(x) from bracket, which the tests use
to build inner derivations. bracket expands bilinearly, x_i y_j [e_i, e_j]
for every pair of nonzero coordinates, and nijenhuis returns every pair's
torsion as a NijenhuisTable. They are slow but obviously correct;
tests/test_algebra.py and tests/test_structures.py check that the fast paths
(algebra._bracket_ints, algebra._jacobi_failures, structures._packed_torsion)
return exactly the same values, witnesses included.

jacobi_residual_ints is the plain integer loop over the cached D*c that the
packed Jacobi kernel replaced: one multiply-add per coefficient.
packed_jacobi_residual reads one triple's cyclic sum from that packed kernel,
lieforge.algebra._jacobi_failures, and packed_jacobi_residuals every ordered
triple's from one call of it.

dense_tensor and integer_terms are the dense structure-constant path that
the bracket table replaced: the full antisymmetric tensor filled from the
sparse i < j data, and the n^3 scan of it that clears the denominators.
dense_c is that tensor for an algebra, c[i][j] = [e_i, e_j], which the tests
compare algebras by and the other oracles read structure constants from.

conjugate_algebra, conjugate_map, conjugate_one_form, conjugate_two_form and
mat_inverse are the Fraction basis changes to e'_i = P e_i that the integer
helpers of tests/conftest.py, of the same names, replaced: the inner bracket
summed over the bracket table and P^-1 applied to its nonzero coordinates,
P^-1 M P as two Fraction products, alpha o P as P^T times the coordinates,
omega(P., P.) by evaluation, and P^-1 as the right half of the Fraction rref
of [P | I]. tests/test_algebra.py checks that those helpers return exactly
what these return.

span is the canonical Subspace of some vectors, its rows their Fraction
rref: Subspace.from_vectors, which left lieforge.algebra once no verdict
called it. center is the nullspace of all n^2 Fraction rows of the dense
tensor, zero rows included, by the Gauss-Jordan elimination of
linalg_oracle, where lieforge.algebra.center eliminates the nonzero integer
rows with its own kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from lieforge.algebra import LieAlgebra, Subspace, _jacobi_failures
from lieforge.forms import KForm
from lieforge.linalg import (
    Matrix,
    Vector,
    ZERO,
    fmt_basis_tuple,
    fmt_vector,
    identity,
    is_zero_vector,
    scalar,
    transpose,
    vec_scale,
    vec_sub,
    zero_vector,
)
from lieforge.report import CheckReport, DimensionMismatch, Record, fail, ok

from forms_oracle import evaluate
from linalg_oracle import column, mat_mul, mat_vec, nullspace, rref, vec_add


class NijenhuisTable(Record):
    """Antisymmetric table of torsion values N(e_i, e_j)."""

    _fields = ("dim", "entries")

    def value(self, i: int, j: int) -> Vector:
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return all(is_zero_vector(v) for row in self.entries for v in row)


def dense_tensor(dim: int, brackets) -> tuple[tuple[Vector, ...], ...]:
    """c[i][j] is the vector [e_i, e_j], filled from brackets[(i, j)][k] = c_ijk, i < j, and negated below."""
    table = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
    for (i, j), coeffs in dict(brackets).items():
        for k, value in dict(coeffs).items():
            v = scalar(value)
            table[i][j][k] = v
            table[j][i][k] = -v
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def dense_c(g: LieAlgebra) -> tuple[tuple[Vector, ...], ...]:
    """The dense antisymmetric tensor of g: c[i][j] is the vector [e_i, e_j]."""
    return dense_tensor(g.dim, g.brackets)


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
    """[x, y] by bilinear expansion through the structure constants: x_i y_j [e_i, e_j] summed
    over the nonzero coordinates, i != j, with [e_i, e_j] read off the bracket table and
    negated when i > j."""
    if len(x) != g.dim or len(y) != g.dim:
        raise DimensionMismatch("vector length does not match algebra dimension")
    table = dict(g.brackets)
    out = [ZERO] * g.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj and i != j:
                f = xi * yj if i < j else -xi * yj
                for k, c in table.get((min(i, j), max(i, j)), ()):
                    out[k] += f * c
    return tuple(out)


def adjoint(g: LieAlgebra, x: Vector) -> Matrix:
    """ad(x): column j is [x, e_j]."""
    return transpose([bracket(g, x, g.basis_vector(j)) for j in range(g.dim)])


def jacobi_residual(g: LieAlgebra, i: int, j: int, k: int) -> Vector:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]."""
    e = g.basis_vector
    r = bracket(g, bracket(g, e(i), e(j)), e(k))
    r = vec_add(r, bracket(g, bracket(g, e(j), e(k)), e(i)))
    return vec_add(r, bracket(g, bracket(g, e(k), e(i)), e(j)))


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
            value = mat_vec(a2, bracket(g, g.basis_vector(i), g.basis_vector(j)))
            value = tuple(x + y for x, y in zip(value, bracket(g, images[i], images[j])))
            value = vec_sub(value, mat_vec(a, bracket(g, g.basis_vector(i), images[j])))
            value = vec_sub(value, mat_vec(a, bracket(g, images[i], g.basis_vector(j))))
            table[i][j] = value
            table[j][i] = vec_scale(Fraction(-1), value)
    return NijenhuisTable(n, tuple(tuple(row) for row in table))


def mat_inverse(m: Matrix) -> Matrix | None:
    """m^-1, the right half of rref([m | I]), or None when m is singular."""
    n = len(m)
    rows, pivots = rref([tuple(row) + unit for row, unit in zip(m, identity(n))])
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in rows)


def conjugate_algebra(g: LieAlgebra, p: Matrix, pinv: Matrix) -> LieAlgebra:
    """Structure constants in the basis e'_i = P e_i: [e'_i, e'_j] = P^-1 [P e_i, P e_j], the inner
    bracket summed over the bracket table of g and P^-1 applied to its nonzero coordinates."""
    n = g.dim
    cols = transpose(p)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            x, y = cols[i], cols[j]
            v: dict[int, Fraction] = {}
            for (a, b), entries in g.brackets:
                f = x[a] * y[b] - x[b] * y[a]
                if f:
                    for k, c in entries:
                        v[k] = v.get(k, ZERO) + f * c
            image = [sum((row[k] * c for k, c in v.items()), ZERO) for row in pinv]
            entries = {k: val for k, val in enumerate(image) if val}
            if entries:
                brackets[(i, j)] = entries
    return LieAlgebra(n, brackets, g.labels)


def conjugate_map(m: Matrix, p: Matrix, pinv: Matrix) -> Matrix:
    return mat_mul(pinv, mat_mul(m, p))


def conjugate_one_form(alpha: KForm, p: Matrix) -> KForm:
    """alpha'(x) = alpha(P x), so coords transform by P transpose."""
    coords = tuple(alpha.coeff((i,)) for i in range(alpha.dim))
    return KForm.one_form(alpha.dim, mat_vec(transpose(p), coords))


def conjugate_two_form(omega: KForm, p: Matrix) -> KForm:
    """omega'(x, y) = omega(P x, P y)."""
    entries = {}
    for a in range(omega.dim):
        for b in range(a + 1, omega.dim):
            entries[(a, b)] = evaluate(omega, (column(p, a), column(p, b)))
    return KForm.two_form(omega.dim, entries)


def span(ambient_dim: int, vectors) -> Subspace:
    """The canonical subspace spanned by vectors of ambient_dim entries: their nonzero rref rows."""
    return Subspace(ambient_dim, rref(vectors)[0])


def center(g: LieAlgebra) -> Subspace:
    """The center as the nullspace of all n^2 Fraction rows (j, k) -> [c_ijk]_i, zero rows included."""
    n, c = g.dim, dense_c(g)
    rows = [tuple(c[i][j][k] for i in range(n)) for j in range(n) for k in range(n)]
    return Subspace(n, nullspace(rows, n))
