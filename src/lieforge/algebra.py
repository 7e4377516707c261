"""Lie algebras with exact rational structure constants.

A LieAlgebra is the dimension, the basis labels and its bracket table: the
nonzero c_ijk of [e_i, e_j] = sum_k c_ijk e_k for i < j, sorted by (i, j)
and then by k. This is the only stored form. The constructor validates the
distinct labels and the sparse input, refusing a bracket or a target given
twice, and builds the table, so antisymmetry holds by construction and two
algebras with the same labels are equal exactly when their tables are. The
Jacobi identity is not enforced at construction, ``check_jacobi`` reports it.

Brackets (``_bracket_ints``) and Jacobi sums run on integers: each algebra
caches D, the least common denominator of its structure constants, with the
nonzero entries of D*c, read off the table, and their largest absolute
value, and a result becomes Fractions once, one per output coordinate. Jacobi and the 2-cocycle
test share one pairwise cyclic contraction (``_cyclic_failures``): per basis
pair one packed sum (``linalg.pack``), O(n^3) big-int multiply-adds in all,
and per triple three block reads and a test against 0. A triple that passes
is never unpacked. The packed Leibniz defect of an integer map
(``_leibniz_defects``) serves the derivation test and the Nijenhuis torsion.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .linalg import (
    ScalarLike,
    Vector,
    ZERO,
    _check_exact,
    _check_width,
    _solve,
    fmt_basis_tuple,
    fmt_vector,
    pack,
    scalar,
    slot_width,
    unpack,
    vector_over,
)
from .report import CheckReport, DimensionMismatch, LieforgeError, Record, fail, ok


def default_labels(dim: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(dim))


Table = tuple[tuple[tuple[int, int], tuple[tuple[int, Fraction], ...]], ...]
Brackets = Mapping[tuple[int, int], Mapping[int, ScalarLike]] | Iterable[tuple[tuple[int, int], Iterable]]


class LieAlgebra(Record):
    _fields = ("dim", "brackets", "labels")

    def __init__(self, dim: int, brackets: Brackets, labels: Sequence[str] | None = None) -> None:
        """Validate sparse i < j data, brackets[(i, j)][k] = c_ijk (a mapping or its pairs), and store its table."""
        if dim <= 0:
            raise ValueError("dimension must be positive")
        labels = default_labels(dim) if labels is None else tuple(labels)
        if len(labels) != dim:
            raise DimensionMismatch(f"{len(labels)} labels for dimension {dim}")
        if len(set(labels)) != dim:
            repeat = next(x for i, x in enumerate(labels) if x in labels[:i])
            raise LieforgeError(f"basis label {repeat!r} given twice")
        table, pairs = [], set()
        for (i, j), coeffs in _items(brackets):
            if not 0 <= i < j < dim:
                raise ValueError(f"bracket indices must satisfy 0 <= i < j < dim, got ({i},{j})")
            if (i, j) in pairs:
                raise LieforgeError(f"bracket ({i},{j}) given twice")
            pairs.add((i, j))
            entries, targets = [], set()
            for k, value in _items(coeffs):
                if not 0 <= k < dim:
                    raise ValueError(f"target index {k} out of range")
                if k in targets:
                    raise LieforgeError(f"target index {k} given twice in bracket ({i},{j})")
                targets.add(k)
                v = scalar(value)
                if v:
                    entries.append((k, v))
            if entries:
                table.append(((i, j), tuple(sorted(entries))))
        self.__dict__.update(dim=dim, brackets=tuple(sorted(table)), labels=labels)

    @classmethod
    def from_brackets(cls, dim: int, brackets: Brackets, labels: Sequence[str] | None = None) -> "LieAlgebra":
        """The constructor under its former name; kept for ``bench/workloads.dense_heisenberg``, which calls it."""
        return cls(dim, brackets, labels)

    @classmethod
    def abelian(cls, dim: int, labels: Sequence[str] | None = None) -> "LieAlgebra":
        return cls(dim, (), labels)

    @cached_property
    def _integer_terms(self) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...], int]:
        """(D, T, M): D is the least common denominator of the structure
        constants, T[i][j] lists the nonzero (k, D*c_ijk) of [e_i, e_j] and M is
        the largest |D*c_ijk|, 0 on an abelian algebra."""
        d = lcm(*(x.denominator for _, entries in self.brackets for _, x in entries))
        n = self.dim
        terms = [[()] * n for _ in range(n)]
        for (i, j), entries in self.brackets:
            terms[i][j] = row = tuple((k, x.numerator * (d // x.denominator)) for k, x in entries)
            terms[j][i] = tuple((k, -c) for k, c in row)
        big = max((abs(c) for plane in terms for row in plane for _, c in row), default=0)
        return d, tuple(map(tuple, terms)), big

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1) if j == i else ZERO for j in range(self.dim))


def _items(data: Mapping | Iterable[tuple]) -> Iterable[tuple]:
    """The (key, value) pairs of a mapping, or the pairs given, repeats kept for the caller to refuse."""
    return data.items() if isinstance(data, Mapping) else data


def _bracket_ints(g: LieAlgebra, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """D times [x, y] for integer vectors x and y, D the least common denominator of the algebra."""
    _, terms, _ = g._integer_terms
    y_terms = [(j, b) for j, b in enumerate(ys) if b]
    acc = [0] * g.dim
    for i, a in enumerate(xs):
        if a:
            row = terms[i]
            for j, b in y_terms:
                f = a * b
                for k, c in row[j]:
                    acc[k] += f * c
    return acc


def _leibniz_defects(
    g: LieAlgebra, ai: list[list[int]], bound: Callable[[int, int, int], int]
) -> tuple[int, list[tuple[int, ...]], list[int], list[list[int]], dict[tuple[int, int], int]]:
    """The Leibniz defects of the integer map A = ai, packed: (width, cols, a_col, left, defect).

    With C = D*c from ``LieAlgebra._integer_terms``, cols[j] is column j of
    A, a_col[j] that column packed, left[i][b] = sum_r A_ri C_rb = -sum_r C_br A_ri is
    D*[Ae_i, e_b], and defect[(i, j)], i < j in row-major order, is
    A C_ij - left[i][j] + left[j][i]: D times the Leibniz defect
    A[e_i,e_j] - [Ae_i,e_j] - [e_i,Ae_j], or da*D times that of ai/da. Every
    vector is one packed int (``linalg.pack``), built by O(n^3) big-int
    multiply-adds in all, at width slot_width(bound(n, a, c)) for a and c the
    largest |ai| and |C|: the caller's bound covers every coordinate of what it
    unpacks or tests against 0. Each antisymmetric pair of structure vectors
    is packed once per call, C_rb for r < b (``_packed_pairs``), at that width.
    """
    n = g.dim
    _, terms, c = g._integer_terms
    a = max(abs(x) for row in ai for x in row)
    width = slot_width(bound(n, a, c))
    cols = list(zip(*ai))
    a_col = [pack(enumerate(col), width) for col in cols]
    c_rb = _packed_pairs(terms, width)
    left = [[-sum(map(mul, row, col)) for row in c_rb] for col in cols]
    defect = {
        (i, j): sum(y * a_col[k] for k, y in terms[i][j]) - left[i][j] + left[j][i]
        for i in range(n)
        for j in range(i + 1, n)
    }
    return width, cols, a_col, left, defect


def _packed_pairs(terms: Sequence[Sequence[Sequence[tuple[int, int]]]], width: int) -> list[list[int]]:
    """p[r][b] = pack(C_rb, width) for the integer table C = terms: C_rb is packed once, for r < b,
    and p[b][r] = -p[r][b], as the constructor's table has C_br = -C_rb and C_rr = 0."""
    n = len(terms)
    p = [[0] * n for _ in range(n)]
    for r in range(n):
        for b in range(r + 1, n):
            v = pack(terms[r][b], width)
            p[r][b], p[b][r] = v, -v
    return p


def _cyclic_failures(
    g: LieAlgebra, q: Sequence[int], width: int, triples: Iterable[tuple[int, int, int]]
) -> list[tuple[tuple[int, int, int], int]]:
    """The triples whose cyclic sum S_ij[k] + S_jk[i] + S_ki[j] is not 0, each with that sum, in
    the order given; any triple is accepted, repeated or unordered indices included.

    q[m] packs n blocks of ``width`` bits, and S_ij = sum over m of C_ij^m q[m], C = D*c, is
    formed once per pair i < j and read back block by block with one balanced ``unpack``; the
    table is antisymmetric, S_ji = -S_ij and S_ii = 0. The caller sizes ``width`` so that every
    block of every S_ij lies in [-2^(width-1), 2^(width-1)), which makes the reads exact.
    """
    n = g.dim
    _, terms, _ = g._integer_terms
    zero = [0] * n
    table = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = 0
            for m, c in terms[i][j]:
                s += c * q[m]
            if s:
                table[i][j] = unpack(s, n, width)
                table[j][i] = [-x for x in table[i][j]]
    failing = []
    for i, j, k in triples:
        total = table[i][j][k] + table[j][k][i] + table[k][i][j]
        if total:
            failing.append(((i, j, k), total))
    return failing


def _jacobi_failures(
    g: LieAlgebra, triples: Iterable[tuple[int, int, int]]
) -> list[tuple[tuple[int, int, int], Vector]]:
    """The triples with a nonzero cyclic sum, each with that sum, in the order given.

    D^2 times the cyclic sum of (i, j, k) is the integer vector
    sum over m of C_ij^m C_mk plus its cyclic shifts, C = D*c. Here q[m] packs
    the table (k, l) -> C_mk^l as n blocks of n slots, so block k of
    S_ij = sum over m of C_ij^m q[m] is D^2 [[e_i, e_j], e_k] and the cyclic sum
    is three blocks of ``_cyclic_failures``, unpacked only for a failing triple.
    With M the largest |C_ij^m|, a coordinate of one block is at most n*M^2 in
    absolute value and of the sum 3*n*M^2, the slot bound: 3*n*M^2 < 2^(w-1)
    for slots of w bits. A block then lies within
    n*M^2 * (2^(n*w) - 1)/(2^w - 1) < 2^(n*w - 1), so reading it at width n*w
    is exact. Each antisymmetric pair C_mk = -C_km is packed once per call (``_packed_pairs``).
    """
    d, terms, big = g._integer_terms
    n = g.dim
    width = slot_width(3 * n * big * big)
    q = [pack(enumerate(row), n * width) for row in _packed_pairs(terms, width)]
    return [
        (t, vector_over(unpack(total, n, width), d * d)) for t, total in _cyclic_failures(g, q, n * width, triples)
    ]


def check_jacobi(g: LieAlgebra) -> CheckReport:
    """Jacobi identity on all basis triples i < j < k."""
    failures = [
        fail(f"jacobi{fmt_basis_tuple(t, g.labels)}", f"cyclic sum = {fmt_vector(res, g.labels)}")
        for t, res in _jacobi_failures(g, combinations(range(g.dim), 3))
    ]
    if failures:
        return CheckReport(tuple(failures))
    return CheckReport((ok("jacobi_all_triples"),))


class Subspace(Record):
    """A subspace as its reduced row-echelon basis, rows of ambient_dim entries, which is unique: so
    two subspaces are equal exactly when their rows are, and ``dim`` counts independent rows.
    The constructor refuses a row of another width (DimensionMismatch), an entry that is neither an
    int nor a Fraction (TypeError) and the first row that breaks the form with the rows above it
    (ValueError): each row's first nonzero entry is 1, those columns increase, and every other row
    is 0 in them."""

    _fields = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: tuple[Vector, ...]) -> None:
        _check_width(rows, ambient_dim)
        _check_exact([x for row in rows for x in row])
        for k, row in enumerate(rows):  # row k - 1 has its leading 1 left of c when it is not 0 before c
            c = next((c for c, x in enumerate(row) if x), None)
            if c is None or row[c] != 1 or any(r[c] for r in rows[:k]) or (k and not any(rows[k - 1][:c])):
                raise ValueError(f"subspace row {k + 1} breaks the reduced row-echelon form")
        self.__dict__.update(ambient_dim=ambient_dim, rows=rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def describe(self, labels: Sequence[str]) -> str:
        if not self.rows:
            return "{0}"
        return "span{" + ", ".join(fmt_vector(r, labels) for r in self.rows) + "}"


def center(g: LieAlgebra) -> Subspace:
    """Nullspace of the stacked adjoint maps: row (j, k) is [C_ijk]_i, C = D*c, then its right-hand
    side 0, for the pairs (j, k) where it is not zero; the new rows go to ``linalg._solve`` unchecked."""
    n = g.dim
    _, terms, _ = g._integer_terms
    rows: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        for j in range(n):
            for k, c in terms[i][j]:
                rows.setdefault((j, k), [0] * (n + 1))[i] = c
    return Subspace(n, _solve(list(rows.values()), n)[1])
