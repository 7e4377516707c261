"""Exact rational linear algebra on immutable tuples.

Scalars are fractions.Fraction (canonical reduced form, positive
denominator); floats are rejected at the boundary, by scalar and by
clear_denominators, through which every integer kernel reads its entries.
Vectors are tuples of Fractions, matrices are tuples of row tuples; the
eliminations also take rows of plain integers. No public function mutates
its inputs, so every value is safe to share across threads.

Every elimination but positive_definite's runs in one fraction-free integer
kernel, _eliminate, on primitive integer rows that become Fractions once, at
the end; a row of plain ints has no denominators to clear. Its back pass
serves the null bases, and det reads the pivots of its forward pass.
There is no separate rref: every reduced basis a verdict reads is a
nullspace's. The systems are solved by one function, _solve, on augmented
integer rows. solve_affine checks the widths and entries of the rows it is
given and clears each, with its right-hand side, into one new integer row,
which _solve consumes; nullspace is the null basis of a homogeneous
solve_affine. The library's own integer systems (the Leibniz rows of
derivations, the center's adjoint rows) are built as new lists and handed
to _solve directly, with no second check and no copy. A homogeneous system
is one elimination with the columns reversed, whose free-variable basis is
already the canonical (row-reduced) one. An inhomogeneous one runs only the
forward pass on the augmented system and back-substitutes its last column,
0 at every free column: the canonical particular solution. Its canonical
null basis is the nullspace of the rows that pass ran on, which span the
row space. positive_definite reads every leading minor's sign from its own
Schur-complement sweep without row exchanges, which keeps only the upper
triangle of a symmetric matrix.

_solve reduces a tall system, one with at least 8 columns and at least
twice as many rows as columns (the Leibniz systems of derivations, the
centers of dimension 8 and up), on part of its rows (_row_reduce):
- selection: the integer rows are kept in order
  when independent mod the prime p = 2^20 - 3 of the rows kept before them,
  and so independent over Q. Each row is first projected on a kernel vector
  z of the kept rows mod p, one dot product: a projection of 0 skips the
  row, which then almost always lies in their span. Any other row lies
  outside it and is kept: it is reduced mod p, packed 64 bits a slot,
  against the kept rows, and z is moved back into their kernel at the new
  pivot and the older ones. So the reduction, O(rank) big-int steps, runs
  on the kept rows alone, and every other row costs one O(ncols) dot
  product (_independent_mod_p);
- the exact solve: it runs on the kept rows alone;
- the check: every other row must annihilate the kernel of the kept rows,
  integer vectors packed one int per column (pack), so a row costs one
  big-int multiply-add per nonzero entry; for an inhomogeneous system that
  kernel is the null basis padded with 0, plus (x, -1) for the particular
  solution x;
- the fallback: the rows that fail join the kept rows and the exact solve
  runs again, so the result is exact whatever the prime or the projection.
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
from typing import Callable, Iterable, Sequence

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
    return tuple([scalar(x) for x in items])


def matrix(rows: Iterable[Iterable[ScalarLike]]) -> Matrix:
    return tuple(vector(r) for r in rows)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def zero_matrix(n: int) -> Matrix:
    return tuple((ZERO,) * n for _ in range(n))


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def diagonal(entries: Sequence[ScalarLike]) -> Matrix:
    d = vector(entries)
    n = len(d)
    return tuple(tuple(d[i] if i == j else ZERO for j in range(n)) for i in range(n))


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


_EXACT_TYPES = frozenset((int, Fraction))


def _check_exact(v: Sequence) -> None:
    """Refuses, with the TypeError of ``scalar``, an entry of v that is neither an int nor a Fraction;
    only a vector with an entry of another type (a subclass of int included) is tested entry by entry."""
    if _EXACT_TYPES.issuperset(map(type, v)):
        return
    for x in v:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"not an exact scalar: {x!r}")


def clear_denominators(v: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(ints, d) with v == ints / d, d the least common denominator of v; ints is a new list.
    An entry that is neither an int nor a Fraction is refused: a float has an integer ratio too."""
    if all(map(int.__instancecheck__, v)):
        return list(v), 1
    _check_exact(v)
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
    return tuple([Fraction(x, d) if x else ZERO for x in ints])


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
    [-bound, bound] for width = slot_width(bound). In particular the packed
    -v is -pack(v): the kernels of algebra pack each antisymmetric pair of
    structure vectors once per call and negate it for the other order.
    """
    acc = 0
    for l, x in entries:
        acc += x << (width * l)
    return acc


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


def _eliminate(rows: Sequence[Vector], reduce: bool = True) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """Fraction-free Gaussian elimination on primitive integer rows: a forward pass, then, if reduce,
    a back pass to the reduced echelon form.

    Forward, per column the row with the smallest usable pivot p moves up, and clear makes each row
    below with entry f there (p/g*row - f/g*pivot_row) / content, g = gcd(p, f). Then pivot row k of
    work is num[k]/den[k] times the row Fraction elimination with the same exchanges (signs folded
    into num) would hold. The back pass clears above each pivot from the last one up, when its row
    is 0 at every later pivot: an update touches only that row's pivot and free columns.
    positive_definite, which reads leading minors and so must not exchange rows, runs its own sweep.
    """
    work, num, den = [], [], []
    for row in rows:
        ints, d = clear_denominators(row)
        g = gcd(*ints) or 1
        work.append([x // g for x in ints] if g > 1 else ints)
        num.append(d)
        den.append(g)
    nrows, ncols = len(work), len(work[0]) if work else 0
    pivots: list[int] = []

    def clear(r: int, c: int, targets: range) -> None:  # column c of the rows targets, by pivot row r
        p, support = work[r][c], None
        for i in targets:
            row = work[i]
            f = row[c]
            if not f:
                continue
            support = support or [(j, y) for j, y in enumerate(work[r]) if y]
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

    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        usable = [i for i in range(r, nrows) if work[i][c]]
        if not usable:
            continue
        pr = min(usable, key=lambda i: abs(work[i][c]))
        if pr != r:
            work[r], work[pr] = work[pr], work[r]
            num[r], num[pr] = -num[pr], num[r]
            den[r], den[pr] = den[pr], den[r]
        pivots.append(c)
        clear(r, c, range(r + 1, nrows))
    if reduce:
        for r in range(len(pivots) - 1, 0, -1):
            clear(r, pivots[r], range(r))
    return work, pivots, num, den


def _row_reduce(rows: Sequence[list[int]], solve: Callable[[list], tuple]):
    """The result of solve(rows), from as few of the integer rows as it can; solve returns (result,
    kernel), kernel the callable that _unsatisfied reads, called only for a tall system.

    A system with fewer than 8 columns or fewer rows than twice its columns is solved whole: the
    selection saves no more than it costs there (measured on the center and Leibniz systems of
    dimension 5 to 9). A taller one is solved on the rows _independent_mod_p keeps, then again with
    the rows the check (_unsatisfied) fails, until it passes: the kept rows then span the row space
    of all rows, so the result is the whole system's.
    """
    ncols = len(rows[0])
    if len(rows) < 2 * ncols or ncols < 8:
        return solve(rows)[0]
    keep = _independent_mod_p(rows, ncols)
    while True:
        result, kernel = solve([rows[i] for i in keep])
        failing = _unsatisfied(rows, keep, kernel)
        if not failing:
            return result
        keep = sorted(keep + failing)


# The prime of the row selection: 2^20 - 3, small enough that a 64-bit slot
# holds p + r*p^2 for every rank r below 2^23.
_PRIME = 2**20 - 3


def _pack64(entries: Sequence[int]) -> int:
    """Entries in [0, 2^64) as one int, one 64-bit slot each."""
    return int.from_bytes(array("Q", entries), sys.byteorder)


def _probe(ncols: int, p: int) -> list[int]:
    """Fixed pseudo-random values in [1, p), one per column: the Lehmer generator
    x -> 48271 x mod 2^31 - 1 from x = 1, folded into [1, p)."""
    x, out = 1, []
    for _ in range(ncols):
        x = x * 48271 % 2147483647
        out.append(x % (p - 1) + 1)
    return out


def _independent_mod_p(ints: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Indices, in order, of the rows independent mod _PRIME of the rows kept before them.

    The kept rows are held in echelon form mod p: each is reduced by the ones
    kept before it, scaled to 1 at its pivot, its first nonzero column, and
    packed by _pack64. So a kept row is 0 at the pivots of the rows kept
    before it, and z, their kernel vector with fixed values (_probe) at the
    free columns, is determined at their pivots in reverse order of keeping.

    Each row is first projected on z, one dot product (Freivalds' check): a
    row in the span of the kept rows has projection 0 mod p and is skipped
    in O(ncols) small-int steps. A row with a nonzero projection lies outside
    their span, so it is kept: it is reduced by each kept row in turn, with
    one big-int multiply-add by p minus its current entry at that pivot. Its
    slots stay below p + rank*p^2 < 2^64, so only the entry at each pivot is
    reduced mod p on the way, and every slot once at the end. z stays a
    kernel vector of the kept rows: keeping a row with pivot c moves z at c,
    by minus its projection over the reduced row's entry at c, and at the
    older pivots, in reverse order of keeping, by a back-substitution over
    each older row's entries at the pivots kept after it, which are stored
    sparsely as the rows are kept. So only the kept rows are reduced, and
    every other row costs one O(ncols) dot product.

    An independent row whose projection is 0 mod p, about one in p, is
    skipped too: it fails _unsatisfied and joins the elimination through the
    fallback, so the result stays exact.
    """
    p, size, mask = _PRIME, 8 * ncols, (1 << 64) - 1
    z = _probe(ncols, p)
    # a kept row's pivot, the row packed and as a list, and its (pivot, entry) at the pivots kept after it
    basis: list[tuple[int, int, list[int], list[tuple[int, int]]]] = []
    keep = []
    for i, row in enumerate(ints):
        s = sum(map(mul, row, z)) % p
        if not s:
            continue
        v = _pack64([x % p for x in row])
        for b, packed, _, _ in basis:
            f = (v >> 64 * b & mask) % p
            if f:
                v += (p - f) * packed
        res = [x % p for x in memoryview(v.to_bytes(size, sys.byteorder)).cast("Q")]
        c = next(j for j, x in enumerate(res) if x)
        inv = pow(res[c], -1, p)
        res = [x * inv % p for x in res]
        moved = {c: -s * inv % p}  # a kernel vector of the older rows, making the new row's projection 0
        for b, _, kept, later in reversed(basis):
            if kept[c]:
                later.append((c, kept[c]))
            if later:
                moved[b] = -sum(x * moved.get(a, 0) for a, x in later) % p
        for a, x in moved.items():
            z[a] = (z[a] + x) % p
        basis.append((c, _pack64(res), res, []))
        keep.append(i)
        if len(keep) == ncols:
            break
    return keep


def _unsatisfied(ints: Sequence[Sequence[int]], keep: Sequence[int], kernel: Callable[[], tuple]) -> list[int]:
    """Indices of the rows outside keep that do not annihilate the kernel of the kept rows: kernel()
    gives (bound, packed), bound the largest |coordinate| of its vectors (0 for none) and packed(width)
    coordinate j of all of them in one int P_j (``pack``). So a row a is checked by one multiply-add
    per nonzero a_j: sum of a_j P_j is 0 iff a annihilates them all. The slots hold sum |a_j| times bound."""
    kept = set(keep)
    others = [i for i in range(len(ints)) if i not in kept]
    big, packed = kernel() if others else (0, None)
    if not big:
        return []
    packed = packed(slot_width(big * max(sum(map(abs, ints[i])) for i in others)))
    return [i for i in others if sum(a * packed[j] for j, a in enumerate(ints[i]) if a)]


def _kernel(work: list[list[int]], pivots: Sequence[int], ncols: int) -> tuple[int, Callable[[int], list[int]]]:
    """The kernel of the rows _eliminate reduced to work, for _unsatisfied: vector t, of the t-th free
    column f, is s at f and -row[f]*s/row[c] at the pivot c of each row, s the lcm of the pivots."""
    free = sorted(set(range(ncols)).difference(pivots))
    s = lcm(*(row[c] for row, c in zip(work, pivots)))
    reduced = [(c, s // row[c], [row[f] for f in free]) for row, c in zip(work, pivots)]

    def packed(width: int) -> list[int]:
        out = [0] * ncols
        for t, f in enumerate(free):
            out[f] = s << (width * t)
        for c, m, at_free in reduced:
            out[c] = -m * pack(enumerate(at_free), width)
        return out

    return max([s] + [abs(m) * max(map(abs, at_free)) for _, m, at_free in reduced]) if free else 0, packed


def _check_width(rows: Sequence[Sequence], ncols: int) -> None:
    for row in rows:
        if len(row) != ncols:
            raise DimensionMismatch(f"a vector of length {len(row)} where {ncols} entries are expected")


def _check_square(m: Matrix, n: int | None = None) -> None:
    """Refuses m unless it is an n x n map, or square when n is None."""
    if not is_square(m, len(m) if n is None else n):
        raise DimensionMismatch(f"a matrix of {len(m)} rows that is not {'square' if n is None else f'{n} x {n}'}")


def nullspace(rows: Sequence[Vector], ncols: int) -> tuple[Vector, ...]:
    """Canonical (row-reduced) basis of {x : rows @ x = 0}: the null basis of the homogeneous
    solve_affine, which checks every other row against the width of the first, the identity for
    no rows."""
    _check_width(rows[:1], ncols)
    return solve_affine(rows, [0] * len(rows))[1] if rows else identity(ncols)


def _null_basis(rows: Sequence[Sequence], ncols: int) -> tuple[tuple[Vector, ...], Callable[[], tuple]]:
    """(the nullspace basis, its _kernel in the reversed coordinates) of rows given with their columns reversed."""
    work, pivots, _, _ = _eliminate(rows)
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
    return tuple(basis), lambda: _kernel(work, pivots, ncols)


def solve_affine(rows: Sequence[Vector], rhs: Sequence[Fraction]) -> tuple[Vector | None, tuple[Vector, ...]]:
    """Solve rows @ x = rhs; returns (particular or None, nullspace basis): _solve on one copy of
    each augmented row, cleared of denominators, once the widths and entries are checked."""
    if not rows:
        return (), ()
    ncols = len(rows[0])
    _check_width(rows, ncols)
    if len(rhs) != len(rows):
        raise DimensionMismatch(f"{len(rhs)} right-hand sides for {len(rows)} equations")
    return _solve([clear_denominators([*r, b])[0] for r, b in zip(rows, rhs)], ncols)


def _solve(rows: list[list[int]], ncols: int) -> tuple[Vector | None, tuple[Vector, ...]]:
    """(particular or None, nullspace basis) of the integer system whose augmented rows [a | b] are
    given, each of width ncols + 1; the rows get no check, and _solve may change them in place.

    A homogeneous system is one elimination of its rows, the last column dropped and the others
    reversed in place, and the zero vector. Its pivots P' are the complement of the pivot columns
    of RREF(ker rows): column j is a kernel pivot iff it is independent of the columns right of
    it, i.e. not in P'. Row k of the reduced system only involves columns up to its pivot p_k, so
    the basis vector of a free column f has 1 at f, -row_k[f]/row_k[p_k] at each p_k > f and 0
    elsewhere: it is already the RREF basis, which is unique.
    Otherwise the augmented rows get only the forward pass of _eliminate, whose pivots are those
    of its RREF; the particular solution, 0 at every free column and so canonical, is
    back-substituted from the last column over one integer denominator. The rows that pass ran on
    span the augmented row space: the null basis is the nullspace of their first ncols.
    Both eliminations run through _row_reduce, on the kept rows alone when the system is tall.
    """
    if not rows:
        return zero_vector(ncols), identity(ncols)
    if any(row[ncols] for row in rows):
        return _row_reduce(rows, lambda kept: _affine(kept, ncols))
    for row in rows:
        row.pop()
        row.reverse()
    return zero_vector(ncols), _row_reduce(rows, lambda kept: _null_basis(kept, ncols))


def _affine(rows: Sequence[Sequence], ncols: int) -> tuple[tuple[Vector | None, tuple[Vector, ...]], Callable]:
    """((particular x or None, nullspace basis), kernel) of augmented rows, for _solve."""
    work, pivots, _, _ = _eliminate(rows, reduce=False)
    basis, null = _null_basis([row[:ncols][::-1] for row in rows], ncols)
    x, d = [0] * ncols, 1
    if ncols in pivots:  # no solution: the kernel is the null basis padded with 0
        d, pivots = 0, []
    for k in range(len(pivots) - 1, -1, -1):
        row, c = work[k], pivots[k]
        xc = Fraction(row[ncols] * d - sum(row[j] * x[j] for j in pivots[k + 1 :]), row[c] * d)
        m = xc.denominator // gcd(xc.denominator, d)
        if m > 1:
            x, d = [m * y for y in x], d * m
        x[c] = xc.numerator * (d // xc.denominator)

    def kernel():  # the null basis padded with 0, then (x, -d) in slot t
        big, packed = null()
        t = len(basis)
        return max(big, d, *map(abs, x)), lambda w: [p + (y << w * t) for p, y in zip(packed(w)[::-1], x)] + [-d << w * t]

    return (vector_over(x, d) if d else None, basis), kernel


def det(m: Matrix) -> Fraction:
    """Determinant: the product of the pivots of one forward elimination. No verdict calls it; it is
    kept for ``bench/workloads.dense_heisenberg``, which calls it."""
    _check_square(m)
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

    One Schur-complement sweep without row exchanges on m cleared to integers
    (``int_matrix``). Step k divides the block of rows k.. by the gcd of the
    entries it keeps (m's own content at k = 0), so the entries stay about
    as wide as the minors, and then, with pivot p = a_kk > 0, makes each
    trailing row i p*row_i - f*row_k. Every scale is positive, so while
    minors 1..k are positive the pivot k+1 has the sign of minor k+1, and
    the first pivot that is not positive names the failing minor. A
    symmetric m keeps its trailing block symmetric, so only the upper
    triangle is kept, row i from column i on, with f = a_ki; any other
    square m keeps row i from column k+1 on, with f = a_ik.
    """
    _check_square(m)
    rows, _ = int_matrix(m)
    upper = rows == [list(col) for col in zip(*rows)]
    rows = [row[i if upper else 0 :] for i, row in enumerate(rows)]  # symmetric: row i from its diagonal on
    for k in range(len(rows)):
        g = gcd(*[x for row in rows for x in row])
        if g > 1:
            rows = [[x // g for x in row] for row in rows]
        p, top = rows[0][0], rows[0]
        if p <= 0:
            return False, k + 1
        trailing = []
        for t, row in enumerate(rows[1:], 1):
            f, row, pivot_row = (top[t], row, top[t:]) if upper else (row[0], row[1:], top[1:])
            trailing.append([p * x - f * y for x, y in zip(row, pivot_row)])
        rows = trailing
    return True, None


def fmt_scalar(x: Fraction) -> str:
    return str(x)


def fmt_vector(v: Vector, labels: Sequence[str]) -> str:
    """Render a vector as a signed combination of basis labels."""
    parts: list[str] = []
    for coef, label in zip(v, labels):
        if not coef:
            continue
        text = str(coef)  # an exact scalar is 1 or -1 exactly when its text is
        if text == "1":
            term = label
        elif text == "-1":
            term = f"-{label}"
        else:
            term = f"{text}*{label}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


def fmt_dual(v: Vector, labels: Sequence[str]) -> str:
    """Render a covector as a signed combination of the dual labels ``l*``."""
    return fmt_vector(v, [f"{l}*" for l in labels])


def fmt_basis_tuple(idxs: Sequence[int], labels: Sequence[str]) -> str:
    return "(" + ",".join(labels[i] for i in idxs) + ")"
