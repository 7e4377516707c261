"""Alternating k-forms, wedge products and the Chevalley-Eilenberg differential.

Conventions (fixed package-wide):
  * evaluation follows the determinant rule, (a^b)(x,y) = a(x)b(y) - a(y)b(x);
  * the differential satisfies d(phi)(x,y) = -phi([x,y]) in degree 1 and
    (dw)(x_0..x_k) = sum_{i<j} (-1)^{i+j} w([x_i,x_j], x_0..^i..^j..x_k)
    in general.

The alternative interior-product evaluation convention differs from the
determinant rule by (-1)^(k(k-1)/2) in degree k; ``evaluation_sign``
exposes that factor for display purposes only.

The contact test never expands a wedge power: in dimension 2n+1 the top
coefficient of alpha ^ (d alpha)^n is n! times the Pfaffian of the bordered
skew matrix [[0, alpha], [-alpha^T, d alpha]], read off the sub-Pfaffians
of d(alpha) (``linalg.sub_pfaffians``, O(n^3)), which also give the Reeb
vector. ``wedge`` and ``wedge_power`` stay public and are its test oracle.

d(alpha) of a 1-form is built once per check, as an integer skew matrix
over one denominator (``_dalpha``), and d(theta) of a 2-form comes from the
pairwise cyclic contraction of ``algebra._cyclic_failures`` (``_d_two_form``);
``ce_differential`` stays the general path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial
from typing import Mapping, Sequence

from .algebra import LieAlgebra, Subspace, _cyclic_failures
from .linalg import (
    ScalarLike,
    Vector,
    ZERO,
    clear_denominators,
    det,
    nullspace,
    pack,
    scalar,
    slot_width,
    sub_pfaffians,
    vector_over,
)
from .report import DimensionMismatch


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sign of sorting the concatenation of two increasing index tuples.

    Returns (0, ()) when the tuples share an index.
    """
    if set(left) & set(right):
        return 0, ()
    combined = list(left + right)
    sign = 1
    # insertion sort; count inversions
    for i in range(1, len(combined)):
        j = i
        while j > 0 and combined[j - 1] > combined[j]:
            combined[j - 1], combined[j] = combined[j], combined[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(combined)


def sort_index_tuple(idxs: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(sign, sorted tuple); sign 0 on repeated indices."""
    return merge_sign(tuple(idxs), ())


@dataclass(frozen=True)
class KForm:
    """Alternating k-form as rational coefficients on increasing index tuples."""

    dim: int
    degree: int
    coeffs: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        for idxs, value in self.coeffs:
            if len(idxs) != self.degree:
                raise ValueError(f"coefficient tuple {idxs} has wrong length")
            if any(not 0 <= i < self.dim for i in idxs):
                raise ValueError(f"index out of range in {idxs}")
            if any(a >= b for a, b in zip(idxs, idxs[1:])):
                raise ValueError(f"indices must be strictly increasing: {idxs}")
            if value == 0:
                raise ValueError("zero coefficients must be dropped")

    @classmethod
    def from_coeffs(cls, dim: int, degree: int, coeffs: Mapping[tuple[int, ...], ScalarLike]) -> "KForm":
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for idxs, value in coeffs.items():
            v = scalar(value)
            if v != 0:
                cleaned[tuple(idxs)] = v
        return cls(dim, degree, tuple(sorted(cleaned.items())))

    @classmethod
    def zero(cls, dim: int, degree: int) -> "KForm":
        return cls(dim, degree, ())

    @classmethod
    def one_form(cls, dim: int, coords: Sequence[ScalarLike]) -> "KForm":
        if len(coords) != dim:
            raise DimensionMismatch("coefficient list does not match dim")
        return cls.from_coeffs(dim, 1, {(i,): v for i, v in enumerate(coords)})

    @classmethod
    def basis_one_form(cls, dim: int, index: int) -> "KForm":
        return cls.from_coeffs(dim, 1, {(index,): 1})

    @classmethod
    def two_form(cls, dim: int, entries: Mapping[tuple[int, int], ScalarLike]) -> "KForm":
        return cls.from_coeffs(dim, 2, {k: v for k, v in entries.items()})

    @cached_property
    def _table(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, idxs: tuple[int, ...]) -> Fraction:
        return self._table.get(idxs, ZERO)

    def value_on_basis(self, idxs: Sequence[int]) -> Fraction:
        """Evaluation on a tuple of basis vectors, any order, 0 on repeats."""
        if len(idxs) != self.degree:
            raise DimensionMismatch("wrong number of arguments")
        sign, key = sort_index_tuple(idxs)
        if sign == 0:
            return ZERO
        return sign * self._table.get(key, ZERO)

    def evaluate(self, vectors: Sequence[Vector]) -> Fraction:
        """Determinant-convention evaluation on k vectors."""
        if len(vectors) != self.degree:
            raise DimensionMismatch("wrong number of arguments")
        for v in vectors:
            if len(v) != self.dim:
                raise DimensionMismatch("vector length does not match form dimension")
        if self.degree == 0:
            return self._table.get((), ZERO)
        total = ZERO
        for idxs, value in self.coeffs:
            minor = tuple(tuple(v[i] for v in vectors) for i in idxs)
            total += value * det(minor)
        return total

    def as_matrix(self) -> tuple[Vector, ...]:
        """Degree-2 form as the antisymmetric matrix B[i][j] = w(e_i, e_j)."""
        if self.degree != 2:
            raise ValueError("matrix view only for degree-2 forms")
        m = [[ZERO] * self.dim for _ in range(self.dim)]
        for (i, j), value in self.coeffs:
            m[i][j] = value
            m[j][i] = -value
        return tuple(tuple(row) for row in m)

    def scale(self, factor: ScalarLike) -> "KForm":
        f = scalar(factor)
        if f == 0:
            return KForm.zero(self.dim, self.degree)
        return KForm(self.dim, self.degree, tuple((idxs, f * v) for idxs, v in self.coeffs))

    def add(self, other: "KForm") -> "KForm":
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionMismatch("form shapes differ")
        table = dict(self.coeffs)
        for idxs, value in other.coeffs:
            table[idxs] = table.get(idxs, ZERO) + value
        return KForm.from_coeffs(self.dim, self.degree, table)

    def neg(self) -> "KForm":
        return self.scale(-1)

    def describe(self, labels: Sequence[str]) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for idxs, value in self.coeffs:
            mono = "^".join(labels[i] for i in idxs) if idxs else "1"
            if value == 1:
                term = mono
            elif value == -1:
                term = f"-{mono}"
            else:
                term = f"{value}*{mono}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts)


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-commutative wedge in the determinant convention."""
    if a.dim != b.dim:
        raise DimensionMismatch("forms live on different spaces")
    degree = a.degree + b.degree
    if degree > a.dim:
        return KForm.zero(a.dim, degree)
    table: dict[tuple[int, ...], Fraction] = {}
    for ia, va in a.coeffs:
        for ib, vb in b.coeffs:
            sign, merged = merge_sign(ia, ib)
            if sign == 0:
                continue
            table[merged] = table.get(merged, ZERO) + sign * va * vb
    return KForm.from_coeffs(a.dim, degree, table)


def wedge_power(a: KForm, n: int) -> KForm:
    out = KForm.from_coeffs(a.dim, 0, {(): 1})
    for _ in range(n):
        out = wedge(out, a)
    return out


def evaluation_sign(degree: int, convention: str) -> int:
    """Display factor between evaluation conventions; verdicts never use it."""
    if convention == "determinant":
        return 1
    if convention == "paper":
        return -1 if (degree * (degree - 1) // 2) % 2 else 1
    raise ValueError(f"unknown convention {convention!r}")


def ce_differential(g: LieAlgebra, form: KForm) -> KForm:
    """Chevalley-Eilenberg differential, d(phi)(x,y) = -phi([x,y]) in degree 1."""
    if form.dim != g.dim:
        raise DimensionMismatch("form does not match algebra dimension")
    k = form.degree
    if k >= g.dim:
        return KForm.zero(g.dim, k + 1)
    table: dict[tuple[int, ...], Fraction] = {}
    for idxs in combinations(range(g.dim), k + 1):
        total = ZERO
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                w = g.c[idxs[a]][idxs[b]]
                rest = idxs[:a] + idxs[a + 1 : b] + idxs[b + 1 :]
                sign = -1 if (a + b) % 2 else 1
                for m, wm in enumerate(w):
                    if wm != 0:
                        total += sign * wm * form.value_on_basis((m,) + rest)
        if total != 0:
            table[idxs] = total
    return KForm.from_coeffs(g.dim, k + 1, table)


def _dalpha(g: LieAlgebra, coords: Sequence[Fraction]) -> tuple[list[list[int]], int]:
    """d(alpha) of the 1-form with these coordinates as (A, den), d(alpha) = A/den.

    With a = da*alpha, da the least common denominator of alpha, and the
    integers D*c of the algebra, A[i][j] = -sum_k a_k D c_ijk and den = D*da: one
    sum per pair i < j, negated below the diagonal.
    """
    d, terms, _ = g._integer_terms
    a, da = clear_denominators(coords)
    n = g.dim
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = -sum(a[k] * c for k, c in terms[i][j])
            out[i][j], out[j][i] = x, -x
    return out, d * da


def _d_two_form(g: LieAlgebra, t: list[list[int]], dt: int) -> list[tuple[tuple[int, int, int], Fraction]]:
    """The nonzero coefficients ((i, j, k), d(theta)(e_i, e_j, e_k)), i < j < k in increasing
    order, of the 2-form theta = t/dt given as an integer skew matrix.

    d(theta)(e_i, e_j, e_k) is minus the cyclic sum of theta([e_i, e_j], e_k). With C = D*c
    and q[m] row m of t packed (``linalg.pack``), slot k of S_ij = sum over m of C_ij^m q[m]
    is D*dt*theta([e_i, e_j], e_k), so ``algebra._cyclic_failures`` gives D*dt times the cyclic
    sum, and a Fraction is made only for a nonzero coefficient. With M the largest |C| and
    t_max the largest |t|, a slot of S_ij is at most n*M*t_max in absolute value.
    """
    n = g.dim
    d, _, big = g._integer_terms
    width = slot_width(n * big * max((abs(x) for row in t for x in row), default=0))
    q = [pack(enumerate(row), width) for row in t]
    return [(idxs, Fraction(-s, d * dt)) for idxs, s in _cyclic_failures(g, q, width, combinations(range(n), 3))]


def radical(g: LieAlgebra, form: KForm) -> Subspace:
    """{x : B(x, y) = 0 for all y} of a degree-2 form, as a nullspace."""
    if form.degree != 2:
        raise ValueError("radical is defined for degree-2 forms")
    if form.dim != g.dim:
        raise DimensionMismatch("form does not match algebra dimension")
    b = form.as_matrix()
    rows = [tuple(b[i][j] for i in range(g.dim)) for j in range(g.dim)]
    return Subspace(g.dim, nullspace(rows, g.dim))


@dataclass(frozen=True)
class TopContactResult:
    holds: bool
    coefficient: Fraction | None
    reason: str | None = None


def top_contact_test(g: LieAlgebra, alpha: KForm) -> TopContactResult:
    """Does alpha ^ (d alpha)^n have a nonzero top coefficient (dim = 2n+1)?

    With a new index 0 in front, the 2-form e^0 ^ alpha + d alpha has
    (n+1)-st power (n+1) e^0 ^ alpha ^ (d alpha)^n, and that power is
    (n+1)! Pf(M) e^0 ^ ... ^ e^2n+1, M = [[0, alpha], [-alpha^T, d alpha]].
    So the coefficient is n! Pf(M).
    """
    if alpha.degree != 1 or alpha.dim != g.dim:
        raise DimensionMismatch("expected a 1-form on the algebra")
    if g.dim % 2 == 0:
        return TopContactResult(False, None, f"dimension {g.dim} is even")
    coords = tuple(alpha.coeff((i,)) for i in range(g.dim))
    return _top_contact(coords, *_dalpha(g, coords))[0]


def _top_contact(coords: Vector, da: list[list[int]], den: int) -> tuple[TopContactResult, Vector | None]:
    """The contact test of odd dimension 2n+1 on d(alpha) = da/den, and the Reeb vector if it passes.

    With w = sub_pfaffians(da) and b = den*alpha, Pf([[0, b], [-b^T, da]]) = w . b, so the top
    coefficient is n! (w . b) / den^(n+1). If it is nonzero, da w = 0 and alpha(w) = (w . b)/den
    != 0, so xi = w/alpha(w) solves the Reeb system d(alpha)(xi, .) = 0, alpha(xi) = 1.
    """
    w = sub_pfaffians(da)
    wb = sum(x * int(y * den) for x, y in zip(w, coords))
    coeff = Fraction(factorial(len(coords) // 2) * wb, den ** (len(coords) // 2 + 1))
    if not wb:
        return TopContactResult(False, coeff, "top coefficient is 0"), None
    return TopContactResult(True, coeff), vector_over([x * den for x in w], wb)
