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

A form carries its numerators over one denominator, the least common
denominator of its coefficients, as a cached property (``KForm._ints``):
the integer kernels below, the structure checks, the constructions and the
derivation constraints take the form and read them there, so each form is
cleared of denominators once, however many of them read it.

d(alpha) of a 1-form is built once per check, as an integer skew matrix
over one denominator (``_dalpha``); the Kirillov form B_phi = -d(phi) of
``kirillov_form`` and the structure checks read it there (``_kirillov``).
d(theta) of a 2-form comes from the pairwise cyclic contraction of
``algebra._cyclic_failures`` (``_d_two_form``). No other degree is needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial, lcm
from operator import mul
from typing import Mapping, Sequence

from .algebra import LieAlgebra, Subspace, _cyclic_failures
from .linalg import (
    ScalarLike,
    Vector,
    ZERO,
    _check_width,
    fmt_vector,
    nullspace,
    pack,
    scalar,
    slot_width,
    sub_pfaffians,
    vector_over,
)
from .report import DimensionMismatch, Record


class KForm(Record):
    """Alternating k-form as exact coefficients (int or Fraction, never 0) on increasing index tuples,
    each tuple given once and the tuples in increasing order, as ``from_coeffs`` sorts them."""

    _fields = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs: tuple[tuple[tuple[int, ...], Fraction], ...]) -> None:
        if degree < 0:
            raise ValueError("degree must be non-negative")
        for idxs, value in coeffs:
            if not isinstance(idxs, tuple):
                raise TypeError(f"index {idxs!r} is not a tuple")
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
        if any(a >= b for (a, _), (b, _) in zip(coeffs, coeffs[1:])):
            raise ValueError("index tuples must be given once each, in increasing order")
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

    @cached_property
    def _ints(self) -> tuple[tuple, int]:
        """The form as integers over d, the least common denominator of its coefficients: (a, d)
        with a_i = d*alpha(e_i) for a 1-form, (rows, d) with rows[i][j] = d*omega(e_i, e_j), a skew
        matrix, for a 2-form. Every integer kernel reads a form's numerators here."""
        d = lcm(*(v.denominator for _, v in self.coeffs))
        num = {idxs: v.numerator * (d // v.denominator) for idxs, v in self.coeffs}.get
        n = range(self.dim)
        if self.degree == 1:
            return tuple([num((i,), 0) for i in n]), d
        _check_form(self, self.dim, 2)
        # entry (i, j) is the coefficient of (i, j), or minus that of (j, i)
        return tuple(tuple([num((i, j), 0) - num((j, i), 0) for j in n]) for i in n), d

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, idxs: tuple[int, ...]) -> Fraction:
        return self._table.get(idxs, ZERO)

    def scale(self, factor: ScalarLike) -> "KForm":
        f = scalar(factor)
        if f == 0:
            return KForm.zero(self.dim, self.degree)
        return KForm(self.dim, self.degree, tuple((idxs, f * v) for idxs, v in self.coeffs))

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


def _dalpha(g: LieAlgebra, alpha: KForm) -> tuple[list[list[int]], int]:
    """d(alpha) of the 1-form alpha as (A, den), d(alpha) = A/den.

    With alpha = a/da (``KForm._ints``) and the integers D*c of the algebra,
    A[i][j] = -sum_k a_k D c_ijk and den = D*da: one sum per pair i < j, negated
    below the diagonal.
    """
    d, terms, _ = g._integer_terms
    a, da = alpha._ints
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
    return tuple([alpha.coeff((i,)) for i in range(alpha.dim)])


def apply_one_form(alpha: KForm, v: Vector) -> Fraction:
    return sum((c * x for c, x in zip(one_form_coords(alpha), v, strict=True)), ZERO)


def _kirillov(g: LieAlgebra, phi: KForm) -> tuple[list[list[int]], int, KForm]:
    """(da, den, B): d(phi) = da/den (``_dalpha``) and B_phi = -d(phi)."""
    _check_form(phi, g.dim, 1)
    da, den = _dalpha(g, phi)
    coeffs = {(i, j): Fraction(-x, den) for i, row in enumerate(da) for j, x in enumerate(row) if i < j}
    return da, den, KForm.from_coeffs(g.dim, 2, coeffs)


def kirillov_form(g: LieAlgebra, phi: KForm) -> KForm:
    """B_phi(x, y) = phi([x, y]); equals -d(phi)."""
    return _kirillov(g, phi)[2]


def _d_two_form(g: LieAlgebra, theta: KForm) -> list[tuple[tuple[int, int, int], Fraction]]:
    """The nonzero coefficients ((i, j, k), d(theta)(e_i, e_j, e_k)), i < j < k in increasing
    order, of the 2-form theta = t/dt, t its integer skew matrix (``KForm._ints``).

    d(theta)(e_i, e_j, e_k) is minus the cyclic sum of theta([e_i, e_j], e_k). With C = D*c
    and q[m] row m of t packed (``linalg.pack``), slot k of S_ij = sum over m of C_ij^m q[m]
    is D*dt*theta([e_i, e_j], e_k), so ``algebra._cyclic_failures`` gives D*dt times the cyclic
    sum, and a Fraction is made only for a nonzero coefficient. With M the largest |C| and
    t_max the largest |t|, a slot of S_ij is at most n*M*t_max in absolute value.
    """
    n = g.dim
    d, _, big = g._integer_terms
    t, dt = theta._ints
    width = slot_width(n * big * max((abs(x) for row in t for x in row), default=0))
    q = [pack(enumerate(row), width) for row in t]
    return [(idxs, Fraction(-s, d * dt)) for idxs, s in _cyclic_failures(g, q, width, combinations(range(n), 3))]


def radical(g: LieAlgebra, form: KForm) -> Subspace:
    """{x : B(x, y) = 0 for all y} of a degree-2 form, as a nullspace."""
    _check_form(form, g.dim, 2)
    return Subspace(g.dim, nullspace(form._ints[0], g.dim))  # B is skew: Ker B^T = Ker B


def _top_contact(alpha: KForm, da: list[list[int]], den: int) -> tuple[Fraction, Vector | None]:
    """The contact test of odd dimension 2n+1 on d(alpha) = da/den: (the top coefficient of
    alpha ^ (d alpha)^n, the Reeb vector), the Reeb vector None exactly when the coefficient is 0.

    With a new index 0 in front, the 2-form e^0 ^ alpha + d alpha has (n+1)-st power
    (n+1) e^0 ^ alpha ^ (d alpha)^n, and that power is (n+1)! Pf(M) e^0 ^ ... ^ e^2n+1,
    M = [[0, alpha], [-alpha^T, d alpha]], so the top coefficient of alpha ^ (d alpha)^n is n! Pf(M).
    With w = sub_pfaffians(da) and b = den*alpha, Pf([[0, b], [-b^T, da]]) = w . b, so the top
    coefficient is n! (w . b) / den^(n+1). If it is nonzero, da w = 0 and alpha(w) = (w . b)/den
    != 0, so xi = w/alpha(w) solves the Reeb system d(alpha)(xi, .) = 0, alpha(xi) = 1.
    With alpha = a/d (``KForm._ints``), b = (den/d)*a.
    """
    w = sub_pfaffians(da)
    a, d = alpha._ints
    wb = sum(map(mul, w, a)) * (den // d)
    n = alpha.dim // 2
    coeff = Fraction(factorial(n) * wb, den ** (n + 1))
    return coeff, (vector_over([x * den for x in w], wb) if wb else None)
