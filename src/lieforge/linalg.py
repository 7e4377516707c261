"""Exact rational linear algebra on immutable tuples.

Scalars are fractions.Fraction (canonical reduced form, positive
denominator); floats are rejected at the boundary. Vectors are tuples of
Fractions, matrices are tuples of row tuples; the eliminations also take
rows of plain integers. Nothing here mutates its inputs, so every value is
safe to share across threads.

All elimination runs in one fraction-free integer kernel, _eliminate, on
primitive integer rows that become Fractions once, at the end. nullspace is
one elimination with the columns reversed, whose free-variable basis is
already the canonical (row-reduced) one, so a homogeneous solve_affine is a
single elimination too. An inhomogeneous solve_affine reduces the augmented
system once, reads the particular solution from its integer rows and
reduces the integer null basis once more to make it canonical.
positive_definite reads every leading minor's sign from one forward pass
without row exchanges.

nullspace and solve_affine reduce a tall system, one with at least 8
columns and at least twice as many rows as columns (the Leibniz systems of
derivations, the centers of dimension 8 and up), on part of its rows
(_row_reduce):
- selection: the rows, cleared of denominators once, are reduced mod the
  prime 2^20 - 3, packed 64 bits a slot, and kept in order when independent
  mod p of the rows kept before them, and so independent over Q;
- the exact solve: _eliminate runs on the kept rows alone;
- the check: every other row must annihilate the kernel of the result,
  whose coordinates are packed one int per column (pack), so a row costs
  one big-int multiply-add per nonzero entry; for solve_affine the kernel
  of the augmented rows holds (x, -1) for the particular solution x;
- the fallback: the rows that fail join the kept rows and the exact solve
  runs again, so the result is exact whatever the prime.
Once the check passes, the kept rows span the row space of all rows, and
the reduced rows, the canonical basis and the canonical particular solution
(or the verdict that there is none) are those of the whole system. Square,
near-square and narrow systems, such as a radical (n x n), are eliminated
whole: there the selection saves no more than it costs.

pack, unpack and slot_width hold an integer vector in one Python int, one
signed slot per coordinate (Kronecker substitution), so that a linear
combination of many vectors is a few big-int multiply-adds. The structure
constant kernels in algebra and structures size the slots from a bound they
compute from their own inputs; so does sub_pfaffians, the fraction-free skew
elimination that the contact and Frobenius checks read off. There is no
separate Pfaffian: Pf([[0, r], [-r^T, m']]) is sub_pfaffians(m') . r.
int_matrix writes a map as integers over one denominator, and int_mul and
int_apply are the integer products that the checks and constructions share.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .report import DimensionMismatch

Scalar = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

ScalarLike = Fraction | int | str


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an exact value ("p/q" string, int or Fraction) to Fraction."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact scalar: {value!r}")


def vector(items: Iterable[ScalarLike]) -> Vector:
    return tuple(scalar(x) for x in items)


def matrix(rows: Iterable[Iterable[ScalarLike]]) -> Matrix:
    return tuple(vector(r) for r in rows)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def zero_matrix(n: int, m: int | None = None) -> Matrix:
    return tuple((ZERO,) * (m if m is not None else n) for _ in range(n))


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def diagonal(entries: Sequence[ScalarLike]) -> Matrix:
    d = vector(entries)
    n = len(d)
    return tuple(tuple(d[i] if i == j else ZERO for j in range(n)) for i in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def is_zero_vector(a: Vector) -> bool:
    return all(x == 0 for x in a)


def is_zero_matrix(m: Matrix) -> bool:
    return all(is_zero_vector(r) for r in m)


def is_square(m: Matrix, n: int) -> bool:
    """Is m an n x n matrix?"""
    return len(m) == n and all(len(row) == n for row in m)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt) for row in a)


def column(m: Matrix, j: int) -> Vector:
    return tuple(row[j] for row in m)


def clear_denominators(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, d) with v == ints / d, d the least common denominator of v."""
    ratios = [x.as_integer_ratio() for x in v]
    d = lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def int_matrix(m: Matrix) -> tuple[list[list[int]], int]:
    """(rows, d) with m == rows / d for a square m, d the least common denominator."""
    n = len(m)
    flat, d = clear_denominators([x for row in m for x in row])
    return [flat[r * n : (r + 1) * n] for r in range(n)], d


def int_apply(m: Iterable[Sequence[int]], v: Sequence[int]) -> list[int]:
    """The integer product m v, m given by its rows."""
    return [sum(map(mul, row, v)) for row in m]


def int_mul(a: Iterable[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer product a b, row by row through ``int_apply`` on the columns of b."""
    cols = list(zip(*b))
    return [int_apply(cols, row) for row in a]


def vector_over(ints: Sequence[int], d: int) -> Vector:
    """The vector ints / d, one Fraction per nonzero coordinate."""
    return tuple(Fraction(x, d) if x else ZERO for x in ints)


def slot_width(bound: int) -> int:
    """Bits per slot of a packed vector whose coordinates lie in [-bound, bound]:
    the bits of bound plus one sign bit, so bound < 2^(width-1)."""
    return bound.bit_length() + 1


def pack(entries: Iterable[tuple[int, int]], width: int) -> int:
    """The integer vector with coordinate l = x, for each (l, x) in entries, as one int:
    sum of x * 2^(width*l) (Kronecker substitution).

    Packing is linear, so sums and integer multiples of packed vectors are the
    packed sums and multiples, whatever the slots of intermediate values hold;
    unpack reads the result back exactly while every coordinate of it lies in
    [-bound, bound] for width = slot_width(bound).
    """
    return sum(x << (width * l) for l, x in entries)


def unpack(p: int, n: int, width: int) -> list[int]:
    """The n coordinates of the packed vector p, read as balanced width-bit digits."""
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    out = []
    for _ in range(n):
        x = p & mask
        if x >= half:
            x -= full
        out.append(x)
        p = (p - x) >> width
    return out


def _eliminate(
    rows: Sequence[Vector], reduce: bool = True, swap: bool = True
) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """Fraction-free Gauss-Jordan (forward only unless reduce) on primitive integer rows.

    Per column the row with the smallest usable pivot p moves up; every other
    row with entry f there becomes (p/g*row - f/g*pivot_row) / content, g =
    gcd(p, f), the subtraction touching only the pivot row's nonzero columns.
    Without swap the pass stops at the first zero on the diagonal. Pivot row k
    of work is num[k]/den[k] times the row Fraction elimination with the same
    exchanges would hold; the exchanges' signs are folded into num.
    """
    work, num, den = [], [], []
    for row in rows:
        ints, d = clear_denominators(row)
        g = gcd(*ints) or 1
        work.append([x // g for x in ints])
        num.append(d)
        den.append(g)
    nrows, ncols = len(work), len(work[0]) if work else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows or not (swap or work[r][c]):
            break
        usable = [i for i in range(r, nrows if swap else r + 1) if work[i][c]]
        if not usable:
            continue
        pr = min(usable, key=lambda i: abs(work[i][c]))
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
            num[r], num[pr] = -num[pr], num[r]
            den[r], den[pr] = den[pr], den[r]
        p = work[r][c]
        support = [(j, y) for j, y in enumerate(work[r]) if y]
        for i in range(0 if reduce else r + 1, nrows):
            row = work[i]
            f = row[c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                row = [a * x for x in row]
            for j, y in support:
                row[j] -= b * y
            g = gcd(*row)
            work[i] = [x // g for x in row] if g > 1 else row
            num[i] *= a
            den[i] *= g or 1
        pivots.append(c)
    return work, pivots, num, den


def _row_reduce(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], list[int]]:
    """The rows and pivots _eliminate(rows) returns, from as few of the rows as it can.

    A system with fewer than 8 columns or fewer rows than twice its columns is
    eliminated whole: there the selection saves no more than it costs
    (measured on the center and Leibniz systems of dimension 5 to 9). A
    taller one is cleared of denominators once; _independent_mod_p keeps the
    rows independent mod _PRIME, and only they are eliminated. Every other
    row is checked against the kernel of the result, and the rows that fail
    join the kept ones for another elimination. Once the check passes, the
    kept rows span the row space of all rows, so the reduced rows are those
    of the whole system.
    """
    ncols = len(rows[0])
    if len(rows) < 2 * ncols or ncols < 8:
        work, pivots, _, _ = _eliminate(rows)
        return work, pivots
    ints = [row if all(map(int.__instancecheck__, row)) else clear_denominators(row)[0] for row in rows]
    keep = _independent_mod_p(ints, ncols)
    while True:
        work, pivots, _, _ = _eliminate([ints[i] for i in keep])
        failing = _unsatisfied(ints, keep, work, pivots, ncols)
        if not failing:
            return work, pivots
        keep = sorted(keep + failing)


# The prime of the row selection: 2^20 - 3, small enough that a 64-bit slot
# holds p + r*p^2 for every rank r below 2^23.
_PRIME = 2**20 - 3


def _pack64(entries: Sequence[int]) -> int:
    """Entries in [0, 2^64) as one int, one 64-bit slot each."""
    return int.from_bytes(array("Q", entries), sys.byteorder)


def _independent_mod_p(ints: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Indices, in order, of the rows independent mod _PRIME of the rows kept before them.

    The kept rows are held in echelon form mod p: each is reduced by the ones
    kept before it, scaled to 1 at its pivot, its first nonzero column, and
    packed by _pack64. A row is reduced by each kept row in turn, with one
    big-int multiply-add by p minus its current entry at that pivot. Its
    slots stay below p + rank*p^2 < 2^64, so only the entry at each pivot is
    reduced mod p on the way, and every slot once at the end, to test the
    result against 0.
    """
    p, size, mask = _PRIME, 8 * ncols, (1 << 64) - 1
    basis: list[tuple[int, int]] = []  # (bit offset of the pivot's slot, packed row)
    keep = []
    for i, row in enumerate(ints):
        if not any(row):
            continue
        v = _pack64([x % p for x in row])
        for shift, packed in basis:
            f = (v >> shift & mask) % p
            if f:
                v += (p - f) * packed
        slots = memoryview(v.to_bytes(size, sys.byteorder)).cast("Q")
        if not any(map(p.__rmod__, slots)):
            continue
        res = [x % p for x in slots]
        c = next(j for j, x in enumerate(res) if x)
        inv = pow(res[c], -1, p)
        basis.append((64 * c, _pack64([x * inv % p for x in res])))
        keep.append(i)
        if len(keep) == ncols:
            break
    return keep


def _unsatisfied(
    ints: Sequence[Sequence[int]], keep: Sequence[int], work: list[list[int]], pivots: Sequence[int], ncols: int
) -> list[int]:
    """Indices of the rows outside keep that the kernel of work, reduced by _eliminate, does not satisfy.

    With s the lcm of the pivots, free column f has the kernel vector with s
    at f and -row[f]*s/row[c] at the pivot c of each reduced row. Coordinate
    j of all of them is packed into one int P_j (``pack``), so a row a is
    checked by one multiply-add per nonzero a_j: sum of a_j P_j is 0 iff a
    annihilates every kernel vector. The slots hold sum |a_j| times the
    largest kernel coordinate.
    """
    free = sorted(set(range(ncols)).difference(pivots))
    kept = set(keep)
    others = [i for i in range(len(ints)) if i not in kept]
    if not free or not others:
        return []
    scale = lcm(*(row[c] for row, c in zip(work, pivots)))
    reduced = [(c, scale // row[c], [row[f] for f in free]) for row, c in zip(work, pivots)]
    big = max([scale] + [abs(m) * max(map(abs, at_free)) for _, m, at_free in reduced])
    width = slot_width(big * max(sum(map(abs, ints[i])) for i in others))
    packed = [0] * ncols
    for t, f in enumerate(free):
        packed[f] = scale << (width * t)
    for c, m, at_free in reduced:
        packed[c] = -m * pack(enumerate(at_free), width)
    return [i for i in others if sum(a * packed[j] for j, a in enumerate(ints[i]) if a)]


def rref(rows: Sequence[Vector]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work, pivots, _, _ = _eliminate(rows)
    red = tuple(
        tuple(Fraction(x, row[c]) if x else ZERO for x in row) for row, c in zip(work, pivots)
    )
    return red, tuple(pivots)


def nullspace(rows: Sequence[Vector], ncols: int) -> tuple[Vector, ...]:
    """Canonical (row-reduced) basis of {x : rows @ x = 0}, from one elimination.

    The elimination (_row_reduce: of the kept rows alone when the system is
    tall) runs with the columns reversed. Its pivots P' are the
    complement of the pivot columns of RREF(ker rows): column j is a kernel
    pivot iff it is independent of the columns right of it, i.e. not in P'.
    Row k of the reduced system only involves columns up to its pivot p_k,
    so the basis vector of a free column f has 1 at f, -row_k[f]/row_k[p_k]
    at each p_k > f and 0 elsewhere: it is already the RREF basis, which is
    unique.
    """
    for row in rows:
        if len(row) != ncols:
            raise DimensionMismatch(f"row of width {len(row)} in a system of {ncols} columns")
    if not rows:
        return identity(ncols)
    work, pivots = _row_reduce([row[::-1] for row in rows])
    last = ncols - 1
    reduced = [(row, row[c], last - c) for row, c in zip(work, pivots)]
    basis = []
    for f in sorted(set(range(ncols)).difference(last - c for c in pivots)):
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p, at in reduced:
            if row[last - f]:
                v[at] = Fraction(-row[last - f], p)
        basis.append(tuple(v))
    return tuple(basis)


def solve_affine(rows: Sequence[Vector], rhs: Sequence[Fraction]) -> tuple[Vector | None, tuple[Vector, ...]]:
    """Solve rows @ x = rhs; returns (particular or None, nullspace basis).

    A homogeneous system is one nullspace elimination with the zero vector.
    Otherwise one elimination of the augmented system (_row_reduce) gives
    both: its first ncols columns are the RREF of rows, the particular
    solution sets all free variables to zero, making it canonical for a given
    system, and the free variables' null basis, as integer rows, is reduced
    once more to the canonical basis.
    """
    if not rows:
        return (), ()
    ncols = len(rows[0])
    if len(rhs) != len(rows):
        raise DimensionMismatch(f"{len(rhs)} right-hand sides for {len(rows)} equations")
    if not any(rhs):
        return zero_vector(ncols), nullspace(rows, ncols)
    work, pivots = _row_reduce([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    basis = _integer_null_basis(work, pivots, ncols)
    if ncols in pivots:
        return None, basis
    x = [ZERO] * ncols
    for row, p in zip(work, pivots):
        if row[ncols]:
            x[p] = Fraction(row[ncols], row[p])
    return tuple(x), basis


def _integer_null_basis(work: list[list[int]], pivots: Sequence[int], ncols: int) -> tuple[Vector, ...]:
    """Canonical basis of {x : work @ x = 0}, work reduced by _eliminate on its first ncols columns.

    Each free variable's basis vector is scaled by the lcm of the pivots to
    integers, which leaves its primitive row, and so the reduction, as the
    Fraction vector would give.
    """
    reduced = [(row, p) for row, p in zip(work, pivots) if p < ncols]
    scale = lcm(*(row[p] for row, p in reduced))
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        v[f] = scale
        for row, p in reduced:
            v[p] = -row[f] * (scale // row[p])
        basis.append(v)
    return rref(basis)[0] if basis else ()


def det(m: Matrix) -> Fraction:
    """Determinant: the product of the pivots of one forward elimination."""
    work, pivots, num, den = _eliminate(m, reduce=False)
    if len(pivots) < len(m):
        return ZERO
    return Fraction(prod(row[c] * d for row, c, d in zip(work, pivots, den)), prod(num))


def sub_pfaffians(a: Sequence[Sequence[int]]) -> list[int]:
    """The w with Pf([[0, u], [-u^T, a]]) = w . u for every u, for a an odd-sized integer skew
    matrix: w_j = (-1)^j Pf(a without row and column j), and a w = 0.

    Knuth's overlapping-Pfaffian elimination of [[a, u], [-u^T, 0]], which has the same Pfaffian,
    with each border entry a packed integer vector in u: step k moves a pair i < j with a_ij != 0
    to k, k+1 by symmetric exchanges (each flips the sign) and replaces each trailing entry (i, j),
    border included, by the Pfaffian on 0..k+1, i, j, dividing exactly by the previous pivot. The
    last border entry is the whole Pfaffian; a zero trailing block before that makes w = 0.
    """
    n = len(a)
    # Hadamard: Pf(a')^4 = det(a')^2 < 2^bits for a' a principal submatrix, so |w_j| < 2^(width - 1)
    bits = sum(max(1, sum(x * x for x in row)).bit_length() for row in a)
    width = bits // 4 + 2
    a = [list(row) for row in a]
    border = [1 << (width * i) for i in range(n)]
    sign, prev = 1, 1
    for k in range(0, n - 1, 2):
        pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
        if pair is None:
            return [0] * n
        for i, j in zip(pair, (k, k + 1)):
            if i != j:
                a[i], a[j], border[i], border[j] = a[j], a[i], border[j], border[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
                sign = -sign
        p, top, nxt = a[k][k + 1], a[k], a[k + 1]
        for i in range(k + 2, n):
            row, ti, ni = a[i], top[i], nxt[i]
            for j in range(i + 1, n):
                row[j] = (p * row[j] - ti * nxt[j] + top[j] * ni) // prev
                a[j][i] = -row[j]
            border[i] = (p * border[i] - ti * border[k + 1] + border[k] * ni) // prev
        prev = p
    return unpack(sign * border[n - 1], n, width)


def positive_definite(m: Matrix) -> tuple[bool, int | None]:
    """Sylvester's criterion; returns (ok, first failing minor size).

    While minors 1..k-1 are positive, rows are only scaled by positive
    factors, so pivot k has the sign of minor k; a zero pivot ends the pass.
    """
    work, pivots, _, _ = _eliminate(m, reduce=False, swap=False)
    for k, (row, c) in enumerate(zip(work, pivots), start=1):
        if row[c] < 0:
            return False, k
    if len(pivots) < len(m):
        return False, len(pivots) + 1
    return True, None


def fmt_scalar(x: Fraction) -> str:
    return str(x)


def fmt_vector(v: Vector, labels: Sequence[str]) -> str:
    """Render a vector as a signed combination of basis labels."""
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


def fmt_basis_tuple(idxs: Sequence[int], labels: Sequence[str]) -> str:
    return "(" + ",".join(labels[i] for i in idxs) + ")"
