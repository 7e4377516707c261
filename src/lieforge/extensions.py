"""Central, derivation, double, and reversed double extensions.

Basis ordering in all outputs: parent basis first with unchanged indices,
then the new elements in construction order. The embedding is therefore
the identity on indices, which keeps golden outputs stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra
from .derivations import is_derivation
from .forms import KForm, ce_differential, radical
from .linalg import Matrix, fmt_vector, is_zero_matrix
from .report import CheckReport, DimensionMismatch, PreconditionError, fail, ok
from .structures import kirillov_form


@dataclass(frozen=True)
class ExtensionResult:
    algebra: LieAlgebra
    embedding: tuple[int, ...]
    central_index: int | None = None
    derivation_index: int | None = None

    @property
    def parent_dim(self) -> int:
        return len(self.embedding)


def _fresh_label(used: tuple[str, ...]) -> str:
    i = len(used) + 1
    label = f"e{i}"
    while label in used:
        i += 1
        label = f"e{i}"
    return label


def is_cocycle(g: LieAlgebra, theta: KForm) -> CheckReport:
    """d(theta) = 0 under the Chevalley-Eilenberg differential."""
    if theta.degree != 2 or theta.dim != g.dim:
        raise DimensionMismatch("expected a 2-form on the algebra")
    d = ce_differential(g, theta)
    if d.is_zero():
        return CheckReport((ok("cocycle_d_theta_zero"),))
    failures = tuple(
        fail(
            "cocycle(" + ",".join(g.labels[i] for i in idxs) + ")",
            f"d(theta) = {value}",
        )
        for idxs, value in d.coeffs
    )
    return CheckReport(failures)


def central_extension(g: LieAlgebra, theta: KForm, *, check: bool = True) -> ExtensionResult:
    """[x,y]_new = [x,y] + theta(x,y) z with z central; needs d(theta) = 0."""
    if theta.degree != 2 or theta.dim != g.dim:
        raise DimensionMismatch("expected a 2-form on the algebra")
    if check:
        rep = is_cocycle(g, theta)
        if not rep.overall:
            raise PreconditionError("theta is not a 2-cocycle", rep)
    n = g.dim
    brackets: dict[tuple[int, int], dict[int, object]] = {}
    for (i, j), entries in g.sparse_brackets().items():
        brackets[(i, j)] = dict(entries)
    for (i, j), value in theta.coeffs:
        brackets.setdefault((i, j), {})[n] = value
    labels = g.labels + (_fresh_label(g.labels),)
    child = LieAlgebra.from_brackets(n + 1, brackets, labels)
    return ExtensionResult(child, tuple(range(n)), central_index=n)


def derivation_extension(g: LieAlgebra, d: Matrix, *, check: bool = True) -> ExtensionResult:
    """Adjoin a slot with [slot, x] = D(x); needs the Leibniz rule."""
    if len(d) != g.dim:
        raise DimensionMismatch("map does not match algebra dimension")
    if check:
        rep = is_derivation(g, d)
        if not rep.overall:
            raise PreconditionError("map is not a derivation", rep)
    n = g.dim
    brackets: dict[tuple[int, int], dict[int, object]] = {}
    for (i, j), entries in g.sparse_brackets().items():
        brackets[(i, j)] = dict(entries)
    for i in range(n):
        col = {k: -d[k][i] for k in range(n) if d[k][i] != 0}
        if col:
            brackets[(i, n)] = col  # [e_i, slot] = -D(e_i)
    labels = g.labels + (_fresh_label(g.labels),)
    child = LieAlgebra.from_brackets(n + 1, brackets, labels)
    return ExtensionResult(child, tuple(range(n)), derivation_index=n)


def double_extension(g: LieAlgebra, theta: KForm, d: Matrix, *, check: bool = True) -> ExtensionResult:
    """Central extension by theta, then a derivation of that extension.

    ``d`` acts on the (n+1)-dimensional central extension.
    """
    central = central_extension(g, theta, check=check)
    if len(d) != central.algebra.dim:
        raise DimensionMismatch("map must act on the central extension (dim n+1)")
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
    if alpha.degree != 1 or alpha.dim != g.dim:
        raise DimensionMismatch("expected a 1-form on the algebra")
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
            witness = fmt_vector(rad.rows[0], base.algebra.labels)
            raise PreconditionError(
                "-d(alpha) is degenerate on the extension",
                CheckReport((fail("exact_form_nondegenerate", f"radical contains {witness}"),)),
            )
    central = central_extension(base.algebra, omega, check=check)
    return ExtensionResult(
        central.algebra,
        tuple(range(g.dim)),
        central_index=central.central_index,
        derivation_index=base.derivation_index,
    )
