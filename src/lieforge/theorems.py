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

The reduction reads coordinates off the reduced basis of Ker(alpha) instead
of solving for them; the contact-ideal restriction forms each bracket once.

Where the source formulas admit two sign choices, the worked
low-dimensional examples fix the sign (see the module tests for the
frozen values).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LieAlgebra, Subspace, adjoint, bracket, center
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
    column,
    fmt_basis_tuple,
    fmt_scalar,
    fmt_vector,
    is_square,
    is_zero_vector,
    mat_mul,
    mat_vec,
    nullspace,
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
    _int_matrix,
    _nijenhuis_ints,
    apply_one_form,
    check_contact,
    check_frobenius,
    check_kahler,
    check_sasakian,
    kirillov_form,
    one_form_coords,
)

ONE = Fraction(1)


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
    """Echelon basis of Ker(alpha) for a 1-form."""
    return nullspace([one_form_coords(alpha)], g.dim)


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


def _first_mismatch(items: Iterable, lhs: Callable, rhs: Callable) -> tuple[int, object, object] | None:
    """(k, lhs(x), rhs(x)) at the first item x, k its position, where the two sides differ; None if none does."""
    for k, x in enumerate(items):
        left, right = lhs(x), rhs(x)
        if left != right:
            return k, left, right
    return None


def _first_nonzero_pair(
    basis: Sequence[Vector], value: Callable[[Vector, Vector], Fraction]
) -> tuple[int, int, Fraction] | None:
    """(a, b, value(x_a, x_b)) at the first pair a < b of basis vectors where the value is nonzero.

    The pairs a = b are not tested: the values tested here vanish on them, theta being alternating.
    """
    for a, x in enumerate(basis):
        for b in range(a + 1, len(basis)):
            val = value(x, basis[b])
            if val != 0:
                return a, b, val
    return None


def _phi_pairing_failure(basis: Sequence[Vector], theta: KForm, phi: Matrix) -> tuple[int, int, Fraction] | None:
    """The first pair of ``_first_nonzero_pair`` for theta(Phi x, y) + theta(x, Phi y)."""
    return _first_nonzero_pair(
        basis, lambda x, y: theta.evaluate((mat_vec(phi, x), y)) + theta.evaluate((x, mat_vec(phi, y)))
    )


# ---------------------------------------------------------------------------
# reduction along the center and its inverse construction


def sasakian_reduction(g: LieAlgebra, s: SasakianStructure) -> tuple[LieAlgebra, CheckReport, KahlerStructure]:
    """Quotient a Sasakian algebra with center spanned by the Reeb vector.

    Builds Ker(alpha) with the projected bracket, J the restriction of
    Phi, and omega(x,y) = alpha([x,y]), then verifies the Kahler axioms;
    returns the quotient, that report and the structure. The basis of
    Ker(alpha) is reduced, so coordinates in it are read off its pivots.
    """
    _verify_sasakian_input(g, s)
    z = center(g)
    if z.dim != 1 or not z.contains(s.reeb):  # the checked s has alpha(reeb) = 1, so reeb != 0
        raise refusal(
            "center must be one-dimensional and spanned by the Reeb vector",
            "center_spanned_by_reeb",
            f"center = {z.describe(g.labels)}",
        )
    kernel = Subspace(g.dim, kernel_basis(g, s.alpha))
    basis = kernel.rows
    m = len(basis)
    pivots = [next(i for i, x in enumerate(b) if x) for b in basis]

    def to_h(v: Vector) -> Vector:
        if not kernel.contains(v):
            raise ValueError("vector does not lie in Ker(alpha)")
        return tuple(v[p] for p in pivots)

    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    omega_entries: dict[tuple[int, int], Fraction] = {}
    for a in range(m):
        for b in range(a + 1, m):
            v = bracket(g, basis[a], basis[b])
            xi_part = apply_one_form(s.alpha, v)
            h_part = vec_sub(v, vec_scale(xi_part, s.reeb))
            coords = to_h(h_part)
            entries = {k: c for k, c in enumerate(coords) if c != 0}
            if entries:
                brackets[(a, b)] = entries
            omega_entries[(a, b)] = xi_part
    h = LieAlgebra.from_brackets(m, brackets)
    j = transpose([to_h(mat_vec(s.phi, basis[a])) for a in range(m)])
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
    invariance = _first_nonzero_pair(
        basis, lambda x, y: theta.evaluate((x, y)) + theta.evaluate((mat_vec(s.phi, x), mat_vec(s.phi, y)))
    )
    pairing = _phi_pairing_failure(basis, theta, s.phi)
    reeb_pair = _first_mismatch(basis, lambda x: theta.evaluate((x, s.reeb)), lambda x: 0)
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
            "holds" if reeb_pair is None else f"fails at kernel vector {reeb_pair[0]}: {fmt_scalar(reeb_pair[1])}",
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

    The lift sends the central element to the derivation slot and back
    with a sign; its torsion vanishes exactly when the derivation (the slot
    action in ``ext``) commutes with J on the base, and both verdicts are
    reported. Both torsions, of J on the base and of the lift, are read as
    integers (``structures._nijenhuis_ints``); only a witness is Fractions.
    """
    if ext.central_index is None or ext.derivation_index is None:
        raise PreconditionError("expected the result of a double extension")
    child = ext.algebra
    n = ext.parent_dim
    zi, si = ext.central_index, ext.derivation_index
    base = LieAlgebra(
        n,
        tuple(tuple(tuple(child.c[i][j2][k] for k in range(n)) for j2 in range(n)) for i in range(n)),
        child.labels[:n],
    )
    if not is_square(j, n):
        raise DimensionMismatch("complex structure must act on the base")
    pre = []
    j2 = mat_mul(j, j)
    pre.append(
        passed(
            "base_complex_square",
            all(column(j2, k) == vec_scale(-ONE, base.basis_vector(k)) for k in range(n)),
            "J^2 != -Id on the base",
        )
    )
    base_torsion, _ = _nijenhuis_ints(base, *_int_matrix(j))
    pre.append(
        passed(
            "base_complex_integrable",
            not any(any(v) for v in base_torsion.values()),
            "N_J != 0 on the base",
        )
    )
    theta = KForm.two_form(n, {(a, b): child.c[a][b][zi] for a in range(n) for b in range(a + 1, n)})
    pre.append(
        passed(
            "cocycle_nondegenerate",
            radical(base, theta).dim == 0,
            "the extension cocycle is degenerate on the base",
        )
    )
    require("double extension does not satisfy the base hypotheses", CheckReport(tuple(pre)))

    jbar_cols = [embed_vector(column(j, k), child.dim) for k in range(n)]
    z_img = child.basis_vector(si)
    s_img = vec_scale(-ONE, child.basis_vector(zi))
    jbar = transpose(jbar_cols + [z_img, s_img])

    d = tuple(tuple(child.c[si][x][k] for x in range(n + 1)) for k in range(n + 1))  # the slot action
    torsion, dt = _nijenhuis_ints(child, *_int_matrix(jbar))
    tw = next((pair for pair, v in torsion.items() if any(v)), None)
    cw = _first_mismatch(
        range(n),
        lambda x: mat_vec(jbar, embed_vector(column(d, x), child.dim)),
        lambda x: embed_vector(mat_vec(d, embed_vector(column(j, x), n + 1)), child.dim),
    )
    torsion_ok = tw is None
    commute_ok = cw is None
    torsion_witness = (
        ""
        if tw is None
        else f"N{fmt_basis_tuple(tw, child.labels)} = {fmt_vector(vector_over(torsion[tw], dt), child.labels)}"
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


@dataclass(frozen=True)
class _DoubleExtensionSetup:
    extension: ExtensionResult
    alpha: KForm
    reeb: Vector
    params: DoubleExtensionParams
    phi: Matrix
    contact_report: CheckReport


def _build_double_extension(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix
) -> tuple[ExtensionResult, KForm, CheckReport, Vector | None]:
    """Shared preconditions: cocycle, derivation, contact pairing, contact."""
    _verify_sasakian_input(g, s)
    ext = double_extension(g, theta, d)
    child = ext.algebra
    zi = ext.central_index
    alpha_coords = one_form_coords(s.alpha) + (ONE, ZERO)
    alpha = KForm.one_form(child.dim, alpha_coords)
    dz = embed_vector(column(d, zi), child.dim)
    pairing = apply_one_form(alpha, dz)
    if pairing == 0:
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
    b = reeb[ext.central_index]
    g_part = reeb[:n]
    a = apply_one_form(s.alpha, g_part)
    u = vec_sub(g_part, vec_scale(a, s.reeb))
    if c is None:
        factor = apply_one_form(alpha, embed_vector(column(d, ext.central_index), ext.algebra.dim))
        factor -= apply_one_form(alpha, embed_vector(mat_vec(d, embed_vector(s.reeb, n + 1)), ext.algebra.dim))
        c = ONE if factor >= 0 else -ONE
    params = DoubleExtensionParams(a=a, b=b, c=c, d=-c, u=u)
    object.__setattr__(params, "_build", (g, s, theta, d, build))  # the dataclass is frozen
    return params


def _double_extension_setup(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, params: DoubleExtensionParams
) -> _DoubleExtensionSetup:
    carried = params._build
    if carried is not None and all(x is y for x, y in zip(carried, (g, s, theta, d))):
        ext, alpha, contact_rep, reeb = carried[4]
    else:
        ext, alpha, contact_rep, reeb = _build_double_extension(g, s, theta, d)
    child = ext.algebra
    n = g.dim
    require("inconsistent parameters", params.validate())
    if len(params.u) != n:
        raise DimensionMismatch("u must live in the base algebra")
    alpha_u = apply_one_form(s.alpha, params.u)
    if alpha_u != 0:
        raise refusal("u must lie in Ker(alpha)", "params_u_in_kernel", f"alpha(u) = {fmt_scalar(alpha_u)}")
    claimed = embed_vector(params.u, child.dim)
    claimed = vec_add(claimed, vec_scale(params.a, embed_vector(s.reeb, child.dim)))
    claimed = vec_add(claimed, vec_scale(params.b, child.basis_vector(ext.central_index)))
    if claimed != reeb:
        raise refusal(
            "parameters do not reproduce the solved Reeb vector",
            "reeb_form",
            f"solved Reeb = {fmt_vector(reeb, child.labels)}",
        )
    delta = params.delta
    phi_u = embed_vector(mat_vec(s.phi, params.u), child.dim)
    slot = child.basis_vector(ext.derivation_index)
    z_vec = child.basis_vector(ext.central_index)
    xi_bar = embed_vector(s.reeb, child.dim)
    phi_xibar = vec_scale(-ONE / delta, vec_add(vec_scale(params.b, slot), vec_scale(params.d, phi_u)))
    phi_z = vec_scale(ONE / delta, vec_add(vec_scale(params.a, slot), vec_scale(params.c, phi_u)))
    phi_slot = vec_sub(vec_scale(-params.c, xi_bar), vec_scale(params.d, z_vec))
    cols = []
    for i in range(n):
        base_img = embed_vector(column(s.phi, i), child.dim)
        ai = apply_one_form(s.alpha, g.basis_vector(i))
        cols.append(vec_add(base_img, vec_scale(ai, phi_xibar)))
    cols.append(phi_z)
    cols.append(phi_slot)
    phi = transpose(cols)
    return _DoubleExtensionSetup(ext, alpha, reeb, params, phi, contact_rep)


def sasakian_double_extension_conditions(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, params: DoubleExtensionParams
) -> CheckReport:
    """The five equivalent conditions for the extension to stay Sasakian."""
    setup = _double_extension_setup(g, s, theta, d, params)
    child = setup.extension.algebra
    n = g.dim
    basis = kernel_basis(g, s.alpha)

    def phi_bar(v: Vector) -> Vector:
        return mat_vec(s.phi, v)

    w1 = _phi_pairing_failure(basis, theta, s.phi)
    witness1 = (
        ""
        if w1 is None
        else f"theta(Phi x,y)+theta(x,Phi y) = {fmt_scalar(w1[2])} on kernel pair ({w1[0]},{w1[1]})"
    )
    item1 = passed("cocycle_phi_pairing", w1 is None, witness1)
    rad = radical(g, theta)
    u_ok = rad.contains(setup.params.u)
    xi_ok = rad.contains(s.reeb)
    item2 = passed(
        "theta_radical_contains_u_and_reeb",
        u_ok and xi_ok,
        f"u in Rad(theta): {u_ok}, reeb in Rad(theta): {xi_ok}",
    )
    w3 = _first_mismatch(
        basis,
        lambda x: embed_vector(mat_vec(d, embed_vector(phi_bar(x), n + 1)), child.dim),
        lambda x: mat_vec(setup.phi, embed_vector(mat_vec(d, embed_vector(x, n + 1)), child.dim)),
    )
    witness3 = (
        ""
        if w3 is None
        else f"D(Phi x) = {fmt_vector(w3[1], child.labels)}, Phi(D x) = {fmt_vector(w3[2], child.labels)} "
        f"on kernel vector {w3[0]}"
    )
    item3 = passed("derivation_commutes_with_phi", w3 is None, witness3)
    u = setup.params.u
    w4 = _first_mismatch(
        basis, lambda x: bracket(g, u, x), lambda x: vec_scale(-ONE, phi_bar(bracket(g, u, phi_bar(x))))
    )
    witness4 = (
        ""
        if w4 is None
        else f"[u,x] = {fmt_vector(w4[1], g.labels)}, -Phi[u,Phi x] = {fmt_vector(w4[2], g.labels)} "
        f"on kernel vector {w4[0]}"
    )
    item4 = passed("ad_u_phi_conjugation", w4 is None, witness4)

    def torsion(uu: Vector, vv: Vector) -> Vector:
        t = vec_scale(-ONE, bracket(child, uu, vv))
        t = vec_add(t, bracket(child, mat_vec(setup.phi, uu), mat_vec(setup.phi, vv)))
        t = vec_sub(t, mat_vec(setup.phi, bracket(child, mat_vec(setup.phi, uu), vv)))
        t = vec_sub(t, mat_vec(setup.phi, bracket(child, uu, mat_vec(setup.phi, vv))))
        return t

    w_vec = vec_add(
        vec_scale(setup.params.c, embed_vector(s.reeb, child.dim)),
        vec_scale(setup.params.d, child.basis_vector(setup.extension.central_index)),
    )
    slot = child.basis_vector(setup.extension.derivation_index)
    xi = setup.reeb
    m_w = torsion(w_vec, xi)
    m_d = torsion(slot, xi)
    item5 = passed(
        "reeb_derivative_balance",
        is_zero_vector(m_w) and is_zero_vector(m_d),
        f"M(w,xi) = {fmt_vector(m_w, child.labels)}, M(D,xi) = {fmt_vector(m_d, child.labels)}",
    )
    notes = (
        ("M(w,xi)", fmt_vector(m_w, child.labels)),
        ("M(D,xi)", fmt_vector(m_d, child.labels)),
        ("solved_reeb", fmt_vector(setup.reeb, child.labels)),
    )
    return CheckReport((item1, item2, item3, item4, item5), notes)


def sasakian_double_extension(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, params: DoubleExtensionParams
) -> tuple[ExtensionResult, CheckReport, SasakianStructure | None]:
    """Build the double extension and verify the Sasakian axioms directly."""
    setup = _double_extension_setup(g, s, theta, d, params)
    child = setup.extension.algebra
    rep, structure = check_sasakian(child, setup.reeb, setup.alpha, setup.phi)
    contact = setup.contact_report
    merged = CheckReport(contact.prefixed("contact:") + rep.items, contact.notes + rep.notes)
    return setup.extension, merged, structure


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
    bad = next((j for j in range(g.dim) if apply_one_form(f.phi, column(d, j)) != 0), None)
    if bad is not None:
        raise refusal("phi o D must vanish", "phi_d_vanishes", f"phi(D {g.labels[bad]}) != 0")
    if mat_mul(d, k.j) != mat_mul(k.j, d):
        raise refusal("D must commute with J", "d_commutes_with_j", "D o J != J o D")
    child = ext.algebra
    xi = child.basis_vector(ext.derivation_index)
    alpha = KForm.one_form(child.dim, coords + (ONE,))
    cols = []
    for i in range(g.dim):
        jx = column(k.j, i)
        cols.append(vec_sub(embed_vector(jx, child.dim), vec_scale(apply_one_form(f.phi, jx), xi)))
    cols.append(zero_vector(child.dim))
    phi = transpose(cols)
    rep, structure = check_sasakian(child, xi, alpha, phi)
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
    bad = next(
        (j for j in range(g.dim) if apply_one_form(s.alpha, column(d, j)) != coords[j]), None
    )
    if bad is not None:
        label = g.labels[bad]
        raise refusal("alpha o D must equal alpha", "alpha_d_invariance", f"alpha(D {label}) != alpha({label})")
    basis = kernel_basis(g, s.alpha)
    hit = _first_mismatch(basis, lambda x: mat_vec(s.phi, mat_vec(d, x)), lambda x: mat_vec(d, mat_vec(s.phi, x)))
    if hit is not None:
        witness = f"[Phi,D]({fmt_vector(basis[hit[0]], g.labels)}) != 0"
        raise refusal("Phi and D must commute on Ker(alpha)", "phi_d_commute_on_kernel", witness)
    child = ext.algebra
    slot = child.basis_vector(ext.derivation_index)
    phi_lift = KForm.one_form(child.dim, coords + (ZERO,))
    cols = []
    for i in range(g.dim):
        img = embed_vector(column(s.phi, i), child.dim)
        cols.append(vec_sub(img, vec_scale(coords[i], slot)))
    cols.append(embed_vector(s.reeb, child.dim))
    j = transpose(cols)
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
    pivot = next(i for i, x in enumerate(f.principal) if x != 0)
    keep = [i for i in range(g.dim) if i != pivot]
    xp = f.principal

    def split(v: Vector) -> tuple[Fraction, Vector]:
        """v = lam * x_P + (ideal part in the kept coordinates)."""
        lam = v[pivot] / xp[pivot]
        rest = vec_sub(v, vec_scale(lam, xp))
        return lam, tuple(rest[i] for i in keep)

    def in_ideal(name: str, b: int, v: Vector) -> Vector:  # the kept coordinates of v = [name, e_b]
        lam, rest = split(v)
        if lam != 0:
            raise refusal(
                "complement of the principal element is not an ideal",
                "ideal_closed",
                f"[{name},{g.labels[b]}] leaves the complement",
            )
        return rest

    # ideal test in the adapted basis {x_P} + kept vectors, one bracket per pair: [x_P, e_b] is a column
    # of ad(x_P) on the ideal and [e_a, e_b], a < b, a bracket of h ([e_b, e_a] is its negative)
    m = g.dim - 1
    ad_xp_mat = transpose([in_ideal("x_P", b, bracket(g, xp, g.basis_vector(b))) for b in keep])
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for ia, a in enumerate(keep):
        for ib in range(ia + 1, m):
            rest = in_ideal(g.labels[a], keep[ib], g.c[a][keep[ib]])
            entries = {kk: c for kk, c in enumerate(rest) if c != 0}
            if entries:
                brackets[(ia, ib)] = entries
    h = LieAlgebra.from_brackets(m, brackets, tuple(g.labels[i] for i in keep))

    def to_g(v: Vector) -> Vector:
        out = [ZERO] * g.dim
        for idx, val in zip(keep, v):
            out[idx] = val
        return tuple(out)

    alpha_h = KForm.one_form(m, tuple(one_form_coords(f.phi)[i] for i in keep))
    contact_rep, contact = check_contact(h, alpha_h)
    require("restricted form is not contact on the ideal", contact_rep)
    xi = contact.reeb
    items = list(contact_rep.prefixed("contact:"))
    cols = []
    well_defined = True
    witness = ""
    for i in range(m):
        v = h.basis_vector(i)
        k_part = vec_sub(v, vec_scale(apply_one_form(alpha_h, v), xi))
        jimg = mat_vec(k.j, to_g(k_part))
        lam, rest = split(jimg)
        if lam != 0:
            well_defined = False
            witness = f"J(kernel part of {h.labels[i]}) has x_P component {fmt_scalar(lam)}"
            cols.append(zero_vector(m))
        else:
            cols.append(rest)
    items.append(passed("phi_well_defined", well_defined, witness))
    if not well_defined:
        return h, CheckReport(tuple(items)), None
    phi = transpose(cols)
    ad_xi = adjoint(h, xi)
    crit_reeb = mat_mul(ad_xi, phi) == mat_mul(phi, ad_xi)
    items.append(
        passed(
            "reeb_adjoint_commutes_with_phi",
            crit_reeb,
            "[ad(xi), Phi] != 0 on the ideal",
        )
    )
    xp_hit = _first_mismatch(
        kernel_basis(h, alpha_h),
        lambda v: mat_vec(ad_xp_mat, mat_vec(phi, v)),
        lambda v: mat_vec(phi, mat_vec(ad_xp_mat, v)),
    )
    crit_xp = xp_hit is None
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
    sas_rep, structure = check_sasakian(h, xi, alpha_h, phi)
    items.extend(sas_rep.items)
    return h, CheckReport(tuple(items), contact_rep.notes + sas_rep.notes), structure
