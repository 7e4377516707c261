"""Reference oracle for lieforge.linalg: plain Fraction Gauss-Jordan elimination.

These are the straightforward Fraction-arithmetic versions of rref,
nullspace, solve_affine, solve_unique, in_span, det and positive_definite
that the integer elimination kernel in lieforge.linalg replaced. They are
slow but obviously correct; tests/test_linalg.py checks that the fast path
returns exactly the same values.

independent_mod_p is the row selection of lieforge.linalg's tall solves
before it tested each row by a projection: every row is reduced mod p by
every row kept before it, and kept when something is left.

pfaffian is the fraction-free skew elimination that lieforge.linalg ran
before its Pfaffian was read off sub_pfaffians: Knuth's overlapping-Pfaffian
elimination of the whole matrix, with no border. The contact oracle in
structures_oracle uses it, so it stays independent of sub_pfaffians.

fmt_vector is the formatter that lieforge.linalg.fmt_vector replaced: it
compares each coefficient with 0, 1 and -1 instead of reading its text.

mat_mul is the Fraction matrix product, row times column, that the integer
products of lieforge (linalg.int_mul) replaced; the oracles and tests form
their matrix identities with it, and their images and sums of vectors with
mat_vec and vec_add, and read a map's columns with column, which left
lieforge.linalg once no code there called them. rref left it too: the tests
read the reduced rows of lieforge's elimination (linalg._eliminate) directly
and compare them with the rref here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from lieforge.linalg import ONE, ZERO, Matrix, Vector, clear_denominators, identity, is_zero_vector, zero_vector


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)) for row in a)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in m)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def column(m: Matrix, j: int) -> Vector:
    return tuple(row[j] for row in m)


def rref(rows: Sequence[Vector]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = ONE / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def nullspace(rows: Sequence[Vector], ncols: int) -> tuple[Vector, ...]:
    """Canonical (row-reduced) basis of {x : rows @ x = 0}."""
    if not rows:
        return tuple(identity(ncols)) if ncols else ()
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    if not basis:
        return ()
    canonical, _ = rref(basis)
    return canonical


def solve_affine(rows: Sequence[Vector], rhs: Sequence[Fraction]) -> tuple[Vector | None, tuple[Vector, ...]]:
    """Solve rows @ x = rhs; returns (particular or None, nullspace basis).

    The particular solution sets all free variables to zero, making it
    canonical for a given system.
    """
    ncols = len(rows[0]) if rows else 0
    if not rows:
        return zero_vector(ncols), nullspace(rows, ncols)
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None, nullspace(rows, ncols)
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return tuple(x), nullspace(rows, ncols)


def solve_unique(rows: Sequence[Vector], rhs: Sequence[Fraction]) -> Vector | None:
    """Unique solution of rows @ x = rhs, or None when absent/non-unique."""
    part, null = solve_affine(rows, rhs)
    if part is None or null:
        return None
    return part


def in_span(rows: Sequence[Vector], v: Vector) -> bool:
    """Is v a linear combination of the given rows?"""
    if is_zero_vector(v):
        return True
    if not rows:
        return False
    cols = [tuple(r[j] for r in rows) for j in range(len(v))]
    part, _ = solve_affine(cols, v)
    return part is not None


def det(m: Matrix) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    n = len(m)
    work = [list(r) for r in m]
    result = ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            result = -result
        result *= work[c][c]
        inv = ONE / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return result


def positive_definite(m: Matrix) -> tuple[bool, int | None]:
    """Sylvester's criterion; returns (ok, first failing minor size)."""
    for k in range(1, len(m) + 1):
        minor = tuple(row[:k] for row in m[:k])
        if det(minor) <= 0:
            return False, k
    return True, None



def independent_mod_p(ints: Sequence[Sequence[int]], ncols: int, p: int) -> list[int]:
    """Indices, in order, of the rows independent mod p of the rows kept before them.

    The kept rows are held in echelon form mod p: each is reduced by the ones
    kept before it and scaled to 1 at its pivot, its first nonzero column.
    """
    basis: list[tuple[int, list[int]]] = []
    keep = []
    for i, row in enumerate(ints):
        v = [x % p for x in row]
        for c, kept in basis:
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, kept)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            continue
        inv = pow(v[c], -1, p)
        basis.append((c, [x * inv % p for x in v]))
        keep.append(i)
        if len(keep) == ncols:
            break
    return keep


def pfaffian(m: Matrix) -> Fraction:
    """Pfaffian of an even-sized skew-symmetric matrix, by fraction-free skew elimination.

    Only the strict upper triangle is read. After the denominators are
    cleared, step k replaces every entry (i, j) of the trailing block by the
    Pfaffian of the principal submatrix on indices 0..2k+1, i, j; Knuth's
    overlapping-Pfaffian identity makes the division by the previous pivot
    exact. A zero pivot is replaced by a symmetric exchange of two trailing
    indices, which flips the sign; a trailing row of zeros makes the
    Pfaffian 0. The last pivot is the Pfaffian of the whole matrix.
    """
    size = len(m)
    if size % 2:
        raise ValueError("the Pfaffian needs an even-sized matrix")
    flat, d = clear_denominators([m[i][j] if i < j else -m[j][i] for i in range(size) for j in range(size)])
    a = [flat[i * size : (i + 1) * size] for i in range(size)]
    sign, prev, p = 1, 1, 1
    for k in range(0, size, 2):
        j = next((j for j in range(k + 1, size) if a[k][j]), None)
        if j is None:
            return ZERO
        if j != k + 1:
            a[k + 1], a[j] = a[j], a[k + 1]
            for row in a:
                row[k + 1], row[j] = row[j], row[k + 1]
            sign = -sign
        p, top, nxt = a[k][k + 1], a[k], a[k + 1]
        for i in range(k + 2, size):
            row = a[i]
            for j in range(i + 1, size):
                row[j] = (p * row[j] - top[i] * nxt[j] + top[j] * nxt[i]) // prev
                a[j][i] = -row[j]
        prev = p
    return Fraction(sign * p, d ** (size // 2))


def fmt_vector(v: Vector, labels: Sequence[str]) -> str:
    """Render a vector as a signed combination of basis labels, one comparison per case."""
    parts: list[str] = []
    for coef, label in zip(v, labels):
        if coef == 0:
            continue
        if coef == 1:
            term = label
        elif coef == -1:
            term = f"-{label}"
        else:
            term = f"{coef}*{label}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"
