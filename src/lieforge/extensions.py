"""Central, derivation, double, and reversed double extensions.

Basis ordering in all outputs: parent basis first with unchanged indices,
then the new elements in construction order. The embedding is therefore
the identity on indices, which keeps golden outputs stable.
"""

from __future__ import annotations

from .algebra import LieAlgebra
from .derivations import is_derivation
from .forms import KForm, _check_form, _d_two_form, kirillov_form, radical
from .linalg import Matrix, _check_square, fmt_vector, int_matrix, is_zero_matrix
from .report import CheckReport, Record, fail, ok, refusal, require


class ExtensionResult(Record):
    _fields = ("algebra", "embedding", "central_index", "derivation_index")
    _defaults = {"central_index": None, "derivation_index": None}

    @property
    def parent_dim(self) -> int:
        return len(self.embedding)


def _adjoin(g: LieAlgebra, new: dict[tuple[int, int], dict[int, object]]) -> LieAlgebra:
    """g plus one basis vector e_n with a fresh label; ``new`` adds entries to g's bracket table."""
    brackets = {pair: dict(entries) for pair, entries in g.brackets}
    for pair, entries in new.items():
        brackets.setdefault(pair, {}).update(entries)
    i = g.dim + 1
    while f"e{i}" in g.labels:
        i += 1
    return LieAlgebra(g.dim + 1, brackets, g.labels + (f"e{i}",))


def is_cocycle(g: LieAlgebra, theta: KForm) -> CheckReport:
    """d(theta) = 0 under the Chevalley-Eilenberg differential, on the integer skew matrix of
    theta (``forms._d_two_form``): one failing item per nonzero coefficient of d(theta)."""
    _check_form(theta, g.dim, 2)
    failures = tuple(
        fail(
            "cocycle(" + ",".join(g.labels[i] for i in idxs) + ")",
            f"d(theta) = {value}",
        )
        for idxs, value in _d_two_form(g, *int_matrix(theta.as_matrix()))
    )
    return CheckReport(failures or (ok("cocycle_d_theta_zero"),))


def central_extension(g: LieAlgebra, theta: KForm, *, check: bool = True) -> ExtensionResult:
    """[x,y]_new = [x,y] + theta(x,y) z with z central; needs d(theta) = 0."""
    _check_form(theta, g.dim, 2)
    if check:
        require("theta is not a 2-cocycle", is_cocycle(g, theta))
    n = g.dim
    child = _adjoin(g, {pair: {n: value} for pair, value in theta.coeffs})
    return ExtensionResult(child, tuple(range(n)), central_index=n)


def derivation_extension(g: LieAlgebra, d: Matrix, *, check: bool = True) -> ExtensionResult:
    """Adjoin a slot with [slot, x] = D(x); needs the Leibniz rule."""
    _check_square(d, g.dim)
    if check:
        require("map is not a derivation", is_derivation(g, d))
    n = g.dim
    # [e_i, slot] = -D(e_i)
    child = _adjoin(g, {(i, n): {k: -d[k][i] for k in range(n) if d[k][i] != 0} for i in range(n)})
    return ExtensionResult(child, tuple(range(n)), derivation_index=n)


def double_extension(g: LieAlgebra, theta: KForm, d: Matrix, *, check: bool = True) -> ExtensionResult:
    """Central extension by theta, then a derivation of that extension.

    ``d`` acts on the (n+1)-dimensional central extension.
    """
    central = central_extension(g, theta, check=check)
    outer = derivation_extension(central.algebra, d, check=check)
    return ExtensionResult(
        outer.algebra,
        tuple(range(g.dim)),
        central_index=central.central_index,
        derivation_index=outer.derivation_index,
    )


def lift_one_form(alpha: KForm, new_dim: int) -> KForm:
    """Extend a 1-form by zero on appended basis directions."""
    return KForm.from_coeffs(new_dim, 1, {idxs: v for idxs, v in alpha.coeffs})


def reversed_double_extension(g: LieAlgebra, alpha: KForm, d: Matrix, *, check: bool = True) -> ExtensionResult:
    """Adjoin the derivation first, then centrally extend by -d(lifted alpha).

    The zero derivation contributes nothing, so in that case the exact
    form is taken on g itself and only the central step runs.
    """
    _check_form(alpha, g.dim, 1)
    _check_square(d, g.dim)
    if is_zero_matrix(d):
        base = ExtensionResult(g, tuple(range(g.dim)))
        lifted = alpha
    else:
        base = derivation_extension(g, d, check=check)
        lifted = lift_one_form(alpha, base.algebra.dim)
    omega = kirillov_form(base.algebra, lifted)  # -d(lifted alpha)
    if check:
        rad = radical(base.algebra, omega)
        if rad.dim != 0:
            witness = f"radical contains {fmt_vector(rad.rows[0], base.algebra.labels)}"
            raise refusal("-d(alpha) is degenerate on the extension", "exact_form_nondegenerate", witness)
    central = central_extension(base.algebra, omega, check=check)
    return ExtensionResult(
        central.algebra,
        tuple(range(g.dim)),
        central_index=central.central_index,
        derivation_index=base.derivation_index,
    )
