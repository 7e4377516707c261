"""Constructions connecting Sasakian, Kahler and Frobenius structures.

Every constructor re-verifies its output with the axiom checkers from
``structures``; nothing is trusted by construction. An input structure is
verified once: a structure that ``check_*`` bound to the very algebra
object passed alongside it is accepted as is, and any other structure
(checked on another algebra, or built by hand) is checked again.

A construction refuses its input with ``PreconditionError``, whose report is
the evidence: the failing report of a check (``report.require``), or a report
of one failing item that names the condition and its witness
(``report.refusal``). Where a condition quantifies over a basis, the witness
is its first failure in basis order (``_first_mismatch``,
``_first_nonzero_pair``).

The conditions and maps run on integers: a map is its integer matrix over one
denominator (``structures._int_matrix``), a bracket the integer core of
``algebra.bracket``. phi o D = 0, alpha o D = alpha, [D, J] = 0, J^2 = -Id and
[ad(xi), Phi] = 0 are integer products; a condition "two maps agree on a
basis" forms the integer difference of the maps once and tests each basis
vector as one product, and a pairing condition tests each basis pair as one.
The reduction reads its brackets, omega and J off integer brackets of the
written-down basis of Ker(alpha) (``kernel_basis``) at its pivots; the
contact-ideal restriction takes its brackets from the bracket table of g,
reindexed to the ideal, and a vector there has an x_P component exactly where
its pivot coordinate is nonzero. Fractions are
made only for output entries and, on a failure, for its witness.

Every map a construction builds is one block matrix on the extension, with
the base first, then the central element z, then the derivation slot:

- the derivation extension of a Frobenius-Kahler algebra carries
  Phi = [[J, 0], [-phi o J, 0]], that of a Sasakian algebra
  J = [[Phi, xi], [-alpha, 0]];
- a Sasakian double extension carries
  Phi-bar = [[Phi - (d/delta) Phi u (x) alpha, (c/delta) Phi u, -c xi],
  [0, 0, -d], [-(b/delta) alpha, a/delta, 0]];
- the lift of a complex structure J to a double extension is
  J-bar = [[J, 0, 0], [0, 0, -1], [0, 1, 0]].

The derivation of a double extension is read once, as the slot action on
the extension (column x is [slot, e_x]), and the four conditions "two maps
commute on a basis" are one helper (``_commute_mismatch``).

Where the source formulas admit two sign choices, the worked
low-dimensional examples fix the sign (see the module tests for the
frozen values).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import mul

from .algebra import LieAlgebra, _bracket_ints, center
from .extensions import (
    ExtensionResult,
    central_extension,
    derivation_extension,
    double_extension,
)
from .forms import KForm, radical
from .linalg import (
    Matrix,
    Vector,
    ZERO,
    clear_denominators,
    fmt_basis_tuple,
    fmt_scalar,
    fmt_vector,
    is_square,
    is_zero_vector,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
    vector_over,
    zero_vector,
)
from .report import CheckReport, DimensionMismatch, PreconditionError, passed, refusal, require
from .structures import (
    FrobeniusStructure,
    KahlerStructure,
    SasakianStructure,
    _first_torsion,
    _int_matrix,
    _int_mul,
    _packed_torsion,
    apply_one_form,
    check_contact,
    check_frobenius,
    check_kahler,
    check_sasakian,
    kirillov_form,
    one_form_coords,
)

ONE = Fraction(1)
IntMap = tuple[Sequence[Sequence[int]], int]  # (m, d): the map m/d


def embed_vector(v: Vector, dim: int) -> Vector:
    if len(v) > dim:
        raise DimensionMismatch("cannot embed into a smaller space")
    return v + zero_vector(dim - len(v))


def extend_map_by_zero(m: Matrix, dim: int) -> Matrix:
    """Block-extend a map by zero on the appended directions."""
    n = len(m)
    return tuple(
        tuple(m[i][j] if i < n and j < n else ZERO for j in range(dim)) for i in range(dim)
    )


def kernel_basis(g: LieAlgebra, alpha: KForm) -> tuple[Vector, ...]:
    """The canonical basis of Ker(alpha) that ``linalg.nullspace`` gives for the row a of alpha,
    with no elimination: e_f - (a_f/a_l) e_l for f < l and e_f for f > l, in increasing f, with
    l the last index where a_l != 0 (every e_f when alpha = 0)."""
    a = one_form_coords(alpha)
    l = max((f for f, x in enumerate(a) if x), default=-1)
    basis = [list(g.basis_vector(f)) for f in range(g.dim) if f != l]
    for f, v in zip(range(l), basis):  # the rows of f < l come first
        v[l] = -a[f] / a[l]
    return tuple(map(tuple, basis))


def _verify_sasakian_input(g: LieAlgebra, s: SasakianStructure) -> None:
    if s.algebra is not g:
        require("input structure fails the Sasakian axioms", check_sasakian(g, s.reeb, s.alpha, s.phi)[0])


def _verify_kahler_input(g: LieAlgebra, k: KahlerStructure) -> None:
    if k.algebra is not g:
        require("input structure fails the Kahler axioms", check_kahler(g, k.j, k.omega)[0])


def _verify_frobenius_input(g: LieAlgebra, f: FrobeniusStructure) -> KForm:
    """Checks f unless it is bound to g; returns its Kirillov form -d(phi)."""
    if f.algebra is g:
        return f.kirillov
    rep, frob = check_frobenius(g, f.phi)
    require("input is not Frobenius", rep)
    if frob.principal != f.principal:
        witness = f"solved {fmt_vector(frob.principal, g.labels)}"
        raise refusal("supplied principal element is wrong", "principal_element", witness)
    return frob.kirillov


def _verify_frobenius_kahler_input(g: LieAlgebra, f: FrobeniusStructure, k: KahlerStructure) -> None:
    """Checks f and k as the inputs above, and that omega = -d(phi)."""
    kirillov = _verify_frobenius_input(g, f)
    _verify_kahler_input(g, k)
    if k.omega != kirillov:
        raise refusal("symplectic form must equal -d(phi)", "exact_symplectic_coherence", "omega != -d(phi)")


def _apply(m: Iterable[Sequence[int]], v: Sequence[int]) -> list[int]:
    """The integer product m v, m given by its rows."""
    return [sum(map(mul, row, v)) for row in m]


def _int_adjoint(g: LieAlgebra, x: Vector, on: Sequence[int] | None = None) -> IntMap:
    """ad(x) as an integer map on the basis vectors e_j, j in on (all of them by default): a column is [x, e_j]."""
    xs, dx = clear_denominators(x)
    cols = [_bracket_ints(g, xs, [int(i == j) for i in range(g.dim)]) for j in (range(g.dim) if on is None else on)]
    return list(zip(*cols)), g._integer_terms[0] * dx


def _first_mismatch(basis: Iterable[Vector], left: IntMap, right: IntMap) -> tuple[int, Vector, Vector] | None:
    """(k, l(x), r(x)) at the first basis vector x, k its position, where the maps l and r differ; None if none does.

    The integer difference of the two maps over one denominator is formed once, each vector is tested as one
    integer product, and only the failing vector's two images become Fractions.
    """
    (li, dl), (ri, dr) = left, right
    f = gcd(dl, dr)
    diff = [[x * (dr // f) - y * (dl // f) for x, y in zip(a, b)] for a, b in zip(li, ri)]
    for k, x in enumerate(basis):
        xs, dx = clear_denominators(x)
        if any(_apply(diff, xs)):
            return k, vector_over(_apply(li, xs), dl * dx), vector_over(_apply(ri, xs), dr * dx)
    return None


def _commute_mismatch(basis: Iterable[Vector], a: IntMap, b: IntMap) -> tuple[int, Vector, Vector] | None:
    """``_first_mismatch`` of a(b(x)) and b(a(x)): the first basis vector x with [a, b] x != 0."""
    (ai, da), (bi, db) = a, b
    return _first_mismatch(basis, (_int_mul(ai, bi), da * db), (_int_mul(bi, ai), da * db))


def _slot_action(ext: ExtensionResult) -> IntMap:
    """The derivation of an extension as an integer map on the extension: column x is [slot, e_x]."""
    g = ext.algebra
    d, terms, _ = g._integer_terms
    m = [[0] * g.dim for _ in range(g.dim)]
    for x, image in enumerate(terms[ext.derivation_index]):
        for k, c in image:
            m[k][x] = c
    return m, d


def _first_nonzero_pair(basis: Sequence[Vector], form: IntMap) -> tuple[int, int, Fraction] | None:
    """(a, b, S(x_a, x_b)) at the first pair a < b of basis vectors where the bilinear form S = s/d is nonzero.

    The pairs a = b are not tested: the values tested here vanish on them, theta being alternating.
    """
    s, d = form
    vecs = [clear_denominators(x) for x in basis]
    for a, (xa, da) in enumerate(vecs):
        row = _apply(zip(*s), xa)  # x_a^T s
        for b in range(a + 1, len(vecs)):
            val = sum(map(mul, row, vecs[b][0]))
            if val:
                return a, b, Fraction(val, d * da * vecs[b][1])
    return None


def _phi_pairing_failure(basis: Sequence[Vector], theta: IntMap, phi: IntMap) -> tuple[int, int, Fraction] | None:
    """The first pair of ``_first_nonzero_pair`` for theta(Phi x, y) + theta(x, Phi y), the form
    Phi^T T + T Phi = T Phi - (T Phi)^T, T the skew matrix of theta."""
    (t, dt), (p, dp) = theta, phi
    tp = _int_mul(t, p)
    return _first_nonzero_pair(basis, ([[x - y for x, y in zip(r, c)] for r, c in zip(tp, zip(*tp))], dt * dp))


# ---------------------------------------------------------------------------
# reduction along the center and its inverse construction


def sasakian_reduction(g: LieAlgebra, s: SasakianStructure) -> tuple[LieAlgebra, CheckReport, KahlerStructure]:
    """Quotient a Sasakian algebra with center spanned by the Reeb vector.

    Builds Ker(alpha) with the projected bracket, J the restriction of
    Phi, and omega(x,y) = alpha([x,y]), then verifies the Kahler axioms;
    returns the quotient, that report and the structure. The basis of
    Ker(alpha) is reduced, so coordinates in it are read off its pivots.
    A 1-dimensional algebra is refused: its quotient is 0.
    """
    _verify_sasakian_input(g, s)
    if g.dim == 1:
        raise refusal("the quotient by the Reeb vector is 0-dimensional", "quotient_dimension_positive", "dim = 1")
    z = center(g)
    if z.dim != 1 or not z.contains(s.reeb):  # the checked s has alpha(reeb) = 1, so reeb != 0
        raise refusal(
            "center must be one-dimensional and spanned by the Reeb vector",
            "center_spanned_by_reeb",
            f"center = {z.describe(g.labels)}",
        )
    n, m = g.dim, g.dim - 1  # the checked alpha is nonzero (alpha(xi) = 1)
    flat, db = clear_denominators([x for v in kernel_basis(g, s.alpha) for x in v])
    basis = [flat[r * n : (r + 1) * n] for r in range(m)]  # db times the basis of Ker(alpha)
    pivots = [next(i for i, x in enumerate(v) if x) for v in basis]
    a, da = clear_denominators(one_form_coords(s.alpha))
    xi, dx = clear_denominators(s.reeb)
    den = g._integer_terms[0] * db * db * da  # of alpha([x_p, x_q]) = t/den
    # v - alpha(v) xi and Phi x lie in Ker(alpha) on the checked s (alpha(xi) = 1, alpha o Phi = 0)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    omega_entries: dict[tuple[int, int], Fraction] = {}
    for p in range(m):
        for q in range(p + 1, m):
            v = _bracket_ints(g, basis[p], basis[q])
            t = sum(map(mul, a, v))
            h_part = [v[c] * da * dx - t * xi[c] for c in pivots]  # over den * dx
            entries = {k: Fraction(x, den * dx) for k, x in enumerate(h_part) if x}
            if entries:
                brackets[(p, q)] = entries
            omega_entries[(p, q)] = Fraction(t, den)
    h = LieAlgebra.from_brackets(m, brackets)
    phi, dp = _int_matrix(s.phi)
    j = tuple(vector_over(_apply(basis, phi[c]), dp * db) for c in pivots)
    omega = KForm.two_form(m, omega_entries)
    rep, structure = check_kahler(h, j, omega)
    require("reduction did not produce a Kahler structure", rep)
    return h, rep, structure


def kahler_to_sasakian_central(
    g: LieAlgebra, k: KahlerStructure
) -> tuple[ExtensionResult, CheckReport, SasakianStructure]:
    """Central extension by the symplectic form; z becomes the Reeb vector."""
    _verify_kahler_input(g, k)
    ext = central_extension(g, k.omega, check=False)  # checked omega is closed: a cocycle
    child = ext.algebra
    zi = ext.central_index
    alpha = KForm.basis_one_form(child.dim, zi)
    reeb = child.basis_vector(zi)
    phi = extend_map_by_zero(k.j, child.dim)
    rep, structure = check_sasakian(child, reeb, alpha, phi)
    require("central extension failed the Sasakian axioms", rep)
    return ext, rep, structure


def kahler_extension_obstruction(g: LieAlgebra, s: SasakianStructure, theta: KForm) -> CheckReport:
    """No central extension carries a Kahler pair extending (Phi, -d alpha).

    Evaluates the integrability constraints forced on the candidate
    extension and the closedness obstruction d(xi*) = 0; the verdict
    passes when at least one of them rules the extension out.
    """
    _verify_sasakian_input(g, s)
    if theta.degree != 2 or theta.dim != g.dim:
        raise DimensionMismatch("expected a 2-form on the algebra")
    basis = kernel_basis(g, s.alpha)
    (t, dt), (p, dp) = _int_matrix(theta.as_matrix()), _int_matrix(s.phi)
    ptp = _int_mul(transpose(p), _int_mul(t, p))  # theta(x, y) + theta(Phi x, Phi y) is the form T + Phi^T T Phi
    invariance = _first_nonzero_pair(basis, ([[x * dp * dp + y for x, y in zip(*r)] for r in zip(t, ptp)], dt * dp**2))
    pairing = _phi_pairing_failure(basis, (t, dt), (p, dp))
    xi, dx = clear_denominators(s.reeb)
    reeb_pair = _first_mismatch(basis, ([_apply(t, xi)], dt * dx), ([[0] * g.dim], 1))  # theta(x, xi) against 0
    dxi = kirillov_form(g, s.alpha).neg()  # d(alpha) = -B_alpha
    integrability_broken = invariance is not None or pairing is not None or reeb_pair is not None
    closedness_broken = not dxi.is_zero()
    confirmed = integrability_broken or closedness_broken

    def pair_note(hit: tuple[int, int, Fraction] | None) -> str:
        return "holds" if hit is None else f"fails at pair {hit[:2]}: {fmt_scalar(hit[2])}"

    notes = (
        ("theta_phi_invariance", pair_note(invariance)),
        ("theta_phi_pairing", pair_note(pairing)),
        (
            "theta_reeb_pairing",
            "holds" if reeb_pair is None else f"fails at kernel vector {reeb_pair[0]}: {fmt_scalar(reeb_pair[1][0])}",
        ),
        ("dxi_star", "0" if dxi.is_zero() else dxi.describe(g.labels)),
        ("no_go_route", "integrability" if integrability_broken else ("closedness" if closedness_broken else "none")),
    )
    item = passed(
        "no_kahler_central_extension",
        confirmed,
        "all integrability constraints hold and d(xi*) = 0",
    )
    return CheckReport((item,), notes)


def extend_complex_structure(ext: ExtensionResult, j: Matrix) -> CheckReport:
    """Integrability of the lifted complex structure on a double extension.

    The lift J-bar = [[J, 0, 0], [0, 0, -1], [0, 1, 0]] sends the central
    element z to the derivation slot and the slot to -z; its torsion
    vanishes exactly when the derivation (the slot action in ``ext``)
    commutes with J-bar on the base, and both verdicts are reported. The
    extension must be a double extension, z at index n and the slot at n+1
    (a reversed double extension adjoins the slot first and is refused).
    Both torsions, of J on the base and of the lift, are tested packed
    (``structures._first_torsion``); only a witness is Fractions.
    """
    n = ext.parent_dim
    if (ext.central_index, ext.derivation_index) != (n, n + 1):
        raise PreconditionError("expected the result of a double extension")
    child = ext.algebra
    base_table = [(pair, entries) for pair, entries in child.brackets if pair[1] < n]  # brackets of base vectors
    base = LieAlgebra(n, [(pair, [(k, x) for k, x in xs if k < n]) for pair, xs in base_table], child.labels[:n])
    if not is_square(j, n):
        raise DimensionMismatch("complex structure must act on the base")
    ji, dj = _int_matrix(j)
    square = _int_mul(ji, ji) == [[-dj * dj * (r == c) for c in range(n)] for r in range(n)]
    pre = [passed("base_complex_square", square, "J^2 != -Id on the base")]
    integrable = _first_torsion(base, _packed_torsion(base, ji), dj) is None
    pre.append(passed("base_complex_integrable", integrable, "N_J != 0 on the base"))
    theta = KForm.two_form(n, {pair: x for pair, xs in base_table for k, x in xs if k == n})
    pre.append(
        passed(
            "cocycle_nondegenerate",
            radical(base, theta).dim == 0,
            "the extension cocycle is degenerate on the base",
        )
    )
    require("double extension does not satisfy the base hypotheses", CheckReport(tuple(pre)))

    zero = zero_vector(n)
    jbar = tuple((*row, ZERO, ZERO) for row in j) + ((*zero, ZERO, -ONE), (*zero, ONE, ZERO))
    ji, dj = _int_matrix(jbar)
    tw = _first_torsion(child, _packed_torsion(child, ji), dj)
    cw = _commute_mismatch(map(child.basis_vector, range(n)), (ji, dj), _slot_action(ext))
    torsion_ok = tw is None
    commute_ok = cw is None
    torsion_witness = (
        ""
        if tw is None
        else f"N{fmt_basis_tuple(tw[0], child.labels)} = {fmt_vector(tw[1], child.labels)}"
    )
    commute_witness = (
        ""
        if cw is None
        else f"Jbar(D {child.labels[cw[0]]}) = {fmt_vector(cw[1], child.labels)}, "
        f"D(J {child.labels[cw[0]]}) = {fmt_vector(cw[2], child.labels)}"
    )
    items = (
        passed("torsion_vanishes", torsion_ok, torsion_witness),
        passed("derivation_commutes_with_j", commute_ok, commute_witness),
        passed(
            "equivalence_agrees",
            torsion_ok == commute_ok,
            f"torsion {'vanishes' if torsion_ok else 'persists'} but commutation "
            f"{'holds' if commute_ok else 'fails'}",
        ),
    )
    return CheckReport(items)


# ---------------------------------------------------------------------------
# double extensions of Sasakian algebras


@dataclass(frozen=True)
class DoubleExtensionParams:
    """Reeb decomposition (a, b, u) plus the scale (c, d) of the w vector."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    u: Vector
    # (g, s, theta, d, build) from solve_double_extension_params, reused by the
    # constructors for those very objects; hand-built and replace()d params have none
    _build: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def delta(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def validate(self) -> CheckReport:
        items = (
            passed("params_a_plus_b", self.a + self.b == 1, f"a+b = {fmt_scalar(self.a + self.b)}"),
            passed("params_c_plus_d", self.c + self.d == 0, f"c+d = {fmt_scalar(self.c + self.d)}"),
            passed("params_delta_nonzero", self.delta != 0, "delta = ad - bc = 0"),
        )
        return CheckReport(items)


def _build_double_extension(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix
) -> tuple[ExtensionResult, KForm, CheckReport, Vector | None]:
    """Shared preconditions: cocycle, derivation, contact pairing, contact."""
    _verify_sasakian_input(g, s)
    ext = double_extension(g, theta, d)
    child = ext.algebra
    coords = one_form_coords(s.alpha) + (ONE, ZERO)
    alpha = KForm.one_form(child.dim, coords)
    _, terms, _ = child._integer_terms
    if not sum(coords[k] * c for k, c in terms[ext.derivation_index][ext.central_index]):  # D alpha([slot, z])
        raise refusal("alpha(D(z)) must be nonzero", "contact_pairing_nonzero", "alpha(D(z)) = 0")
    contact_rep, contact = check_contact(child, alpha)
    require("extension is not contact for alpha = lifted alpha + z*", contact_rep)
    return ext, alpha, contact_rep, contact.reeb


def solve_double_extension_params(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, c: Fraction | None = None
) -> DoubleExtensionParams:
    """Read (a, b, u) off the solved Reeb vector; pick c by the metric sign.

    The candidate metric gives g(D, D) = c (alpha(D z) - alpha(D xi)), so
    when no scale is supplied c is chosen as the sign of that bracket, and
    defaults to 1 when the factor vanishes. The params carry the extension
    built here, so the constructors given the same (g, s, theta, d) objects
    do not build and check it again.

    The solved Reeb vector xi has no component t along the derivation slot:
    ``_build_double_extension`` has refused alpha(D(z)) = 0, and
    0 = d(alpha)(xi, z) = -t alpha(D(z)) then forces t = 0.
    """
    build = _build_double_extension(g, s, theta, d)
    ext, alpha, _, reeb = build
    n = g.dim
    b = reeb[n]
    a = apply_one_form(s.alpha, reeb[:n])
    u = vec_sub(reeb[:n], vec_scale(a, s.reeb))
    if c is None:  # the sign of alpha(D(z - xi)), from integers over positive denominators
        z_minus_xi, _ = clear_denominators(vec_sub(ext.algebra.basis_vector(n), embed_vector(s.reeb, n + 2)))
        a_ints, _ = clear_denominators(one_form_coords(alpha))
        c = ONE if sum(map(mul, a_ints, _apply(_slot_action(ext)[0], z_minus_xi))) >= 0 else -ONE
    params = DoubleExtensionParams(a=a, b=b, c=c, d=-c, u=u)
    object.__setattr__(params, "_build", (g, s, theta, d, build))  # the dataclass is frozen
    return params


def _double_extension_setup(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, params: DoubleExtensionParams
) -> tuple[ExtensionResult, KForm, Vector, Matrix, CheckReport]:
    """(extension, its contact form, solved Reeb vector, Phi-bar, contact report) for checked params."""
    carried = params._build
    if carried is not None and all(x is y for x, y in zip(carried, (g, s, theta, d))):
        ext, alpha, contact_rep, reeb = carried[4]
    else:
        ext, alpha, contact_rep, reeb = _build_double_extension(g, s, theta, d)
    n = g.dim
    require("inconsistent parameters", params.validate())
    if len(params.u) != n:
        raise DimensionMismatch("u must live in the base algebra")
    alpha_u = apply_one_form(s.alpha, params.u)
    if alpha_u != 0:
        raise refusal("u must lie in Ker(alpha)", "params_u_in_kernel", f"alpha(u) = {fmt_scalar(alpha_u)}")
    if vec_add(params.u, vec_scale(params.a, s.reeb)) + (params.b, ZERO) != reeb:  # u + a xi + b z
        raise refusal(
            "parameters do not reproduce the solved Reeb vector",
            "reeb_form",
            f"solved Reeb = {fmt_vector(reeb, ext.algebra.labels)}",
        )
    inv = ONE / params.delta
    coords = one_form_coords(s.alpha)
    (sp, dsp), (u, du) = _int_matrix(s.phi), clear_denominators(params.u)
    phi_u = vector_over(_apply(sp, u), dsp * du)
    # [[Phi - (d/delta) Phi u (x) alpha, (c/delta) Phi u, -c xi], [0, 0, -d], [-(b/delta) alpha, a/delta, 0]]
    phi = tuple(
        (*(p - params.d * inv * pu * x for p, x in zip(row, coords)), params.c * inv * pu, -params.c * xi)
        for row, pu, xi in zip(s.phi, phi_u, s.reeb)
    ) + ((*zero_vector(n), ZERO, -params.d), (*(-params.b * inv * x for x in coords), params.a * inv, ZERO))
    return ext, alpha, reeb, phi, contact_rep


def sasakian_double_extension_conditions(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, params: DoubleExtensionParams
) -> CheckReport:
    """The five equivalent conditions for the extension to stay Sasakian."""
    ext, _, reeb, phi, _ = _double_extension_setup(g, s, theta, d, params)
    child = ext.algebra
    basis = kernel_basis(g, s.alpha)
    p, dp = _int_matrix(s.phi)
    w1 = _phi_pairing_failure(basis, _int_matrix(theta.as_matrix()), (p, dp))
    witness1 = (
        ""
        if w1 is None
        else f"theta(Phi x,y)+theta(x,Phi y) = {fmt_scalar(w1[2])} on kernel pair ({w1[0]},{w1[1]})"
    )
    item1 = passed("cocycle_phi_pairing", w1 is None, witness1)
    rad = radical(g, theta)
    u_ok = rad.contains(params.u)
    xi_ok = rad.contains(s.reeb)
    item2 = passed(
        "theta_radical_contains_u_and_reeb",
        u_ok and xi_ok,
        f"u in Rad(theta): {u_ok}, reeb in Rad(theta): {xi_ok}",
    )
    # Phi-bar is Phi on Ker(alpha)
    pb, dpb = _int_matrix(phi)
    w3 = _commute_mismatch((embed_vector(x, child.dim) for x in basis), _slot_action(ext), (pb, dpb))
    witness3 = (
        ""
        if w3 is None
        else f"D(Phi x) = {fmt_vector(w3[1], child.labels)}, Phi(D x) = {fmt_vector(w3[2], child.labels)} "
        f"on kernel vector {w3[0]}"
    )
    item3 = passed("derivation_commutes_with_phi", w3 is None, witness3)
    ad_u, du = _int_adjoint(g, params.u)  # [u, x] against -Phi[u, Phi x]
    w4 = _first_mismatch(basis, (ad_u, du), ([[-x for x in r] for r in _int_mul(p, _int_mul(ad_u, p))], du * dp * dp))
    witness4 = (
        ""
        if w4 is None
        else f"[u,x] = {fmt_vector(w4[1], g.labels)}, -Phi[u,Phi x] = {fmt_vector(w4[2], g.labels)} "
        f"on kernel vector {w4[0]}"
    )
    item4 = passed("ad_u_phi_conjugation", w4 is None, witness4)

    def torsion(uu: Vector, vv: Vector) -> Vector:
        """-[u, v] + [Phi u, Phi v] - Phi[Phi u, v] - Phi[u, Phi v] from integer brackets, Phi = Phi-bar."""
        (us, du), (vs, dv) = clear_denominators(uu), clear_denominators(vv)
        pu, pv = _apply(pb, us), _apply(pb, vs)
        inner = map(int.__add__, _bracket_ints(child, pu, vs), _bracket_ints(child, us, pv))
        terms = zip(_bracket_ints(child, us, vs), _bracket_ints(child, pu, pv), _apply(pb, list(inner)))
        return vector_over([y - x * dpb * dpb - z for x, y, z in terms], child._integer_terms[0] * du * dv * dpb * dpb)

    w_vec = vec_scale(params.c, s.reeb) + (params.d, ZERO)  # c xi + d z
    m_w = torsion(w_vec, reeb)
    m_d = torsion(child.basis_vector(ext.derivation_index), reeb)
    item5 = passed(
        "reeb_derivative_balance",
        is_zero_vector(m_w) and is_zero_vector(m_d),
        f"M(w,xi) = {fmt_vector(m_w, child.labels)}, M(D,xi) = {fmt_vector(m_d, child.labels)}",
    )
    notes = (
        ("M(w,xi)", fmt_vector(m_w, child.labels)),
        ("M(D,xi)", fmt_vector(m_d, child.labels)),
        ("solved_reeb", fmt_vector(reeb, child.labels)),
    )
    return CheckReport((item1, item2, item3, item4, item5), notes)


def sasakian_double_extension(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, params: DoubleExtensionParams
) -> tuple[ExtensionResult, CheckReport, SasakianStructure | None]:
    """Build the double extension and verify the Sasakian axioms directly."""
    ext, alpha, reeb, phi, contact = _double_extension_setup(g, s, theta, d, params)
    rep, structure = check_sasakian(ext.algebra, reeb, alpha, phi)
    merged = CheckReport(contact.prefixed("contact:") + rep.items, contact.notes + rep.notes)
    return ext, merged, structure


# ---------------------------------------------------------------------------
# derivation extensions between the Frobenius-Kahler and Sasakian classes


def frobenius_kahler_to_sasakian(
    g: LieAlgebra, f: FrobeniusStructure, k: KahlerStructure, d: Matrix
) -> tuple[ExtensionResult, CheckReport, SasakianStructure | None]:
    """Adjoin a derivation with phi o D = 0, [D, J] = 0; the slot is the Reeb.

    The almost contact endomorphism is Phi(x) = J(x) - alpha(J x) xi on the
    base and Phi(xi) = 0, which squares to -Id + alpha (x) xi identically.
    """
    _verify_frobenius_kahler_input(g, f, k)
    ext = derivation_extension(g, d)  # refuses a D that breaks the Leibniz rule
    coords = one_form_coords(f.phi)
    (c, dc), (di, _), (ji, dj) = clear_denominators(coords), _int_matrix(d), _int_matrix(k.j)
    bad = next((j for j, x in enumerate(_apply(zip(*di), c)) if x), None)  # the row phi o D
    if bad is not None:
        raise refusal("phi o D must vanish", "phi_d_vanishes", f"phi(D {g.labels[bad]}) != 0")
    if _int_mul(di, ji) != _int_mul(ji, di):
        raise refusal("D must commute with J", "d_commutes_with_j", "D o J != J o D")
    child = ext.algebra
    alpha = KForm.one_form(child.dim, coords + (ONE,))
    phi_j = vector_over(_apply(zip(*ji), c), dc * dj)  # the row phi o J
    phi = tuple((*row, ZERO) for row in k.j) + ((*(-x for x in phi_j), ZERO),)  # [[J, 0], [-phi o J, 0]]
    rep, structure = check_sasakian(child, child.basis_vector(ext.derivation_index), alpha, phi)
    return ext, rep, structure


def sasakian_to_frobenius_kahler(
    g: LieAlgebra, s: SasakianStructure, d: Matrix
) -> tuple[ExtensionResult, CheckReport, FrobeniusStructure | None, KahlerStructure | None]:
    """Adjoin a derivation with alpha o D = alpha, [Phi, D] = 0 on Ker(alpha).

    The slot is the principal element for the lifted alpha, and
    J(x) = Phi(x) - alpha(x) x_P with J(x_P) = xi.
    """
    _verify_sasakian_input(g, s)
    ext = derivation_extension(g, d)  # refuses a D that breaks the Leibniz rule
    coords = one_form_coords(s.alpha)
    (a, _), (di, dd) = clear_denominators(coords), _int_matrix(d)
    bad = next((j for j, (x, y) in enumerate(zip(_apply(zip(*di), a), a)) if x != y * dd), None)  # alpha o D, alpha
    if bad is not None:
        label = g.labels[bad]
        raise refusal("alpha o D must equal alpha", "alpha_d_invariance", f"alpha(D {label}) != alpha({label})")
    basis = kernel_basis(g, s.alpha)
    hit = _commute_mismatch(basis, _int_matrix(s.phi), (di, dd))
    if hit is not None:
        witness = f"[Phi,D]({fmt_vector(basis[hit[0]], g.labels)}) != 0"
        raise refusal("Phi and D must commute on Ker(alpha)", "phi_d_commute_on_kernel", witness)
    child = ext.algebra
    slot = child.basis_vector(ext.derivation_index)
    phi_lift = KForm.one_form(child.dim, coords + (ZERO,))
    j = tuple((*row, x) for row, x in zip(s.phi, s.reeb)) + ((*(-x for x in coords), ZERO),)  # [[Phi, xi], [-alpha, 0]]
    rep_f, frob = check_frobenius(child, phi_lift)
    omega = frob.kirillov if frob is not None else kirillov_form(child, phi_lift)  # -d(phi_lift)
    rep_k, kahler = check_kahler(child, j, omega)
    items = rep_f.prefixed("frobenius:") + rep_k.prefixed("kahler:")
    principal_ok = frob is not None and frob.principal == slot
    witness = (
        f"principal element = {fmt_vector(frob.principal, child.labels)}"
        if frob is not None
        else "no principal element"
    )
    items += (passed("principal_is_adjoined_slot", principal_ok, witness),)
    merged = CheckReport(items, rep_f.notes + rep_k.notes)
    return ext, merged, frob, kahler


def contact_ideal_restriction(
    g: LieAlgebra, f: FrobeniusStructure, k: KahlerStructure
) -> tuple[LieAlgebra, CheckReport, SasakianStructure | None]:
    """Restrict a Frobenius-Kahler structure to the contact ideal.

    The ideal is the span of the basis vectors away from the principal
    element's pivot; the restriction is Sasakian exactly when the Reeb
    adjoint commutes with Phi, equivalently when ad(x_P) commutes with Phi
    on the kernel of the restricted form.
    """
    _verify_frobenius_kahler_input(g, f, k)
    xp = f.principal
    pivot = next(i for i, x in enumerate(xp) if x != 0)
    keep = [i for i in range(g.dim) if i != pivot]

    def leaves(name: str, b: int) -> PreconditionError:  # [name, e_b] has an x_P component
        return refusal(
            "complement of the principal element is not an ideal",
            "ideal_closed",
            f"[{name},{g.labels[b]}] leaves the complement",
        )

    # ideal test in the adapted basis {x_P} + kept vectors, one bracket per pair: [x_P, e_b] is a column
    # of ad(x_P) on the ideal, and the brackets of h are g's table entries of the kept pairs, reindexed
    m = g.dim - 1
    ad, dad = _int_adjoint(g, xp, keep)
    for t, b in enumerate(keep):
        if ad[pivot][t]:
            raise leaves("x_P", b)
    ad_xp = [ad[i] for i in keep]
    brackets = []
    for (a, b), entries in g.brackets:
        if pivot not in (a, b):
            if any(c == pivot for c, _ in entries):
                raise leaves(g.labels[a], b)
            brackets.append(((a - (a > pivot), b - (b > pivot)), [(c - (c > pivot), x) for c, x in entries]))
    h = LieAlgebra(m, brackets, tuple(g.labels[i] for i in keep))

    alpha_h = KForm.one_form(m, tuple(one_form_coords(f.phi)[i] for i in keep))
    contact_rep, contact = check_contact(h, alpha_h)
    require("restricted form is not contact on the ideal", contact_rep)
    xi = contact.reeb
    items = list(contact_rep.prefixed("contact:"))
    # column i of J on the kernel part e_i - alpha_h(e_i) xi, in the coordinates of g over den
    (a, da), (x, dx), (ji, dj) = clear_denominators(one_form_coords(alpha_h)), clear_denominators(xi), _int_matrix(k.j)
    den = dj * da * dx
    j_xi = [sum(row[c] * y for c, y in zip(keep, x)) for row in ji]
    images = [[da * dx * row[c] - ai * y for row, y in zip(ji, j_xi)] for c, ai in zip(keep, a)]
    bad = [i for i, v in enumerate(images) if v[pivot]]
    lam = Fraction(images[bad[-1]][pivot], den) / xp[pivot] if bad else None  # the last x_P component
    witness = f"J(kernel part of {h.labels[bad[-1]]}) has x_P component {fmt_scalar(lam)}" if bad else ""
    items.append(passed("phi_well_defined", not bad, witness))
    if bad:
        return h, CheckReport(tuple(items)), None
    phi = [[v[c] for v in images] for c in keep]
    ad_xi, _ = _int_adjoint(h, xi)
    crit_reeb = _int_mul(ad_xi, phi) == _int_mul(phi, ad_xi)
    items.append(
        passed(
            "reeb_adjoint_commutes_with_phi",
            crit_reeb,
            "[ad(xi), Phi] != 0 on the ideal",
        )
    )
    crit_xp = _commute_mismatch(kernel_basis(h, alpha_h), (ad_xp, dad), (phi, den)) is None
    items.append(
        passed(
            "principal_adjoint_commutes_on_kernel",
            crit_xp,
            "[ad(x_P), Phi] != 0 on Ker(restricted alpha)",
        )
    )
    items.append(
        passed(
            "criteria_agree",
            crit_reeb == crit_xp,
            f"reeb criterion {crit_reeb}, principal criterion {crit_xp}",
        )
    )
    if not (crit_reeb and crit_xp):
        return h, CheckReport(tuple(items), contact_rep.notes), None
    sas_rep, structure = check_sasakian(h, xi, alpha_h, tuple(vector_over(row, den) for row in phi))
    items.extend(sas_rep.items)
    return h, CheckReport(tuple(items), contact_rep.notes + sas_rep.notes), structure
