"""Alternating k-forms and the Chevalley-Eilenberg differential.

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
vector.

d(alpha) of a 1-form is built once per check, as an integer skew matrix
over one denominator (``_dalpha``); the Kirillov form B_phi = -d(phi) of
``kirillov_form`` and the structure checks read it there (``_kirillov``).
d(theta) of a 2-form comes from the pairwise cyclic contraction of
``algebra._cyclic_failures`` (``_d_two_form``); ``ce_differential`` stays
the general path.
"""

from __future__ import annotations

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
    _check_width,
    clear_denominators,
    det,
    fmt_vector,
    nullspace,
    pack,
    scalar,
    slot_width,
    sub_pfaffians,
    vector_over,
)
from .report import DimensionMismatch, Record


def sort_index_tuple(idxs: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(sign of the sorting permutation, sorted tuple); (0, ()) on repeated indices."""
    if len(set(idxs)) != len(idxs):
        return 0, ()
    combined = list(idxs)
    sign = 1
    # insertion sort; count inversions
    for i in range(1, len(combined)):
        j = i
        while j > 0 and combined[j - 1] > combined[j]:
            combined[j - 1], combined[j] = combined[j], combined[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(combined)


class KForm(Record):
    """Alternating k-form as exact coefficients (int or Fraction, never 0) on increasing index tuples."""

    _fields = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs: tuple[tuple[tuple[int, ...], Fraction], ...]) -> None:
        if degree < 0:
            raise ValueError("degree must be non-negative")
        for idxs, value in coeffs:
            if len(idxs) != degree:
                raise ValueError(f"coefficient tuple {idxs} has wrong length")
            if any(not 0 <= i < dim for i in idxs):
                raise ValueError(f"index out of range in {idxs}")
            if any(a >= b for a, b in zip(idxs, idxs[1:])):
                raise ValueError(f"indices must be strictly increasing: {idxs}")
            if isinstance(value, str):
                raise TypeError(f"not an exact scalar: {value!r}")
            if scalar(value) == 0:  # scalar refuses a bool, a float and any other inexact value
                raise ValueError("zero coefficients must be dropped")
        self.__dict__.update(dim=dim, degree=degree, coeffs=coeffs)

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
        _check_width((coords,), dim)
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
        _check_width(vectors, self.dim)
        if self.degree == 0:
            return self._table.get((), ZERO)
        total = ZERO
        for idxs, value in self.coeffs:
            minor = tuple(tuple(v[i] for v in vectors) for i in idxs)
            total += value * det(minor)
        return total

    def as_matrix(self) -> tuple[Vector, ...]:
        """Degree-2 form as the antisymmetric matrix B[i][j] = w(e_i, e_j)."""
        _check_form(self, self.dim, 2)
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
        _check_form(other, self.dim, self.degree)
        table = dict(self.coeffs)
        for idxs, value in other.coeffs:
            table[idxs] = table.get(idxs, ZERO) + value
        return KForm.from_coeffs(self.dim, self.degree, table)

    def neg(self) -> "KForm":
        return self.scale(-1)

    def describe(self, labels: Sequence[str]) -> str:
        monomials = ["^".join(labels[i] for i in idxs) or "1" for idxs, _ in self.coeffs]
        return fmt_vector([value for _, value in self.coeffs], monomials)


def _check_form(form: KForm, dim: int, degree: int | None = None) -> None:
    """Refuses ``form`` unless it is a form on a space of dimension ``dim``, of ``degree`` when given."""
    if form.dim != dim or degree not in (None, form.degree):
        k = "k" if degree is None else degree
        raise DimensionMismatch(f"expected a {k}-form in dimension {dim}, not a {form.degree}-form in {form.dim}")


def evaluation_sign(degree: int, convention: str) -> int:
    """Display factor between evaluation conventions; verdicts never use it."""
    if convention == "determinant":
        return 1
    if convention == "paper":
        return -1 if (degree * (degree - 1) // 2) % 2 else 1
    raise ValueError(f"unknown convention {convention!r}")


def ce_differential(g: LieAlgebra, form: KForm) -> KForm:
    """Chevalley-Eilenberg differential, d(phi)(x,y) = -phi([x,y]) in degree 1."""
    _check_form(form, g.dim)
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
            x = 0
            for k, c in terms[i][j]:
                x -= a[k] * c
            out[i][j], out[j][i] = x, -x
    return out, d * da


def one_form_coords(alpha: KForm) -> Vector:
    _check_form(alpha, alpha.dim, 1)
    return tuple(alpha.coeff((i,)) for i in range(alpha.dim))


def apply_one_form(alpha: KForm, v: Vector) -> Fraction:
    return sum((c * x for c, x in zip(one_form_coords(alpha), v, strict=True)), ZERO)


def _kirillov(g: LieAlgebra, phi: KForm) -> tuple[Vector, list[list[int]], int, KForm]:
    """(coords, da, den, B): phi's coordinates, d(phi) = da/den (``_dalpha``) and B_phi = -d(phi)."""
    _check_form(phi, g.dim, 1)
    coords = one_form_coords(phi)
    da, den = _dalpha(g, coords)
    coeffs = {(i, j): Fraction(-x, den) for i, row in enumerate(da) for j, x in enumerate(row) if i < j}
    return coords, da, den, KForm.from_coeffs(g.dim, 2, coeffs)


def kirillov_form(g: LieAlgebra, phi: KForm) -> KForm:
    """B_phi(x, y) = phi([x, y]); equals -d(phi)."""
    return _kirillov(g, phi)[3]


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
    _check_form(form, g.dim, 2)
    return Subspace(g.dim, nullspace(form.as_matrix(), g.dim))  # B is skew: Ker B^T = Ker B


class TopContactResult(Record):
    _fields = ("holds", "coefficient", "reason")
    _defaults = {"reason": None}


def _top_contact(coords: Vector, da: list[list[int]], den: int) -> tuple[TopContactResult, Vector | None]:
    """The contact test of odd dimension 2n+1 on d(alpha) = da/den, and the Reeb vector if it passes.

    With a new index 0 in front, the 2-form e^0 ^ alpha + d alpha has (n+1)-st power
    (n+1) e^0 ^ alpha ^ (d alpha)^n, and that power is (n+1)! Pf(M) e^0 ^ ... ^ e^2n+1,
    M = [[0, alpha], [-alpha^T, d alpha]], so the top coefficient of alpha ^ (d alpha)^n is n! Pf(M).
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
