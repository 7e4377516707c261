"""Reference oracle for lieforge.theorems: the paths that computed a fact twice, assembled a map entry by
entry or tested a condition in Fractions.

sasakian_reduction solves for the coordinates of every vector in the basis of
Ker(alpha) with its own elimination (``solve_unique``), where lieforge reads
them off the pivots of that reduced basis. contact_ideal_restriction brackets
x_P and every kept vector with every kept vector for the ideal test, takes
the brackets of the ideal again from the structure constants, and brackets
x_P with each kept vector once more for every entry of ad(x_P), where
lieforge brackets each pair once.

The derivation-extension and double-extension constructions here build each
output map column by column from vectors embedded one at a time, n -> n+1 ->
n+2, and test each "two maps commute on a basis" condition with its own pair
of functions. They read the derivation of a double extension as the caller's
(n+1)-map embedded twice, as column(d, z) embedded, or, in
extend_complex_structure, as the block of the slot action on rows and
columns 0..n, where lieforge writes each map as one block matrix on the
extension and reads the derivation once, as the slot action on the
extension. Its torsions are the unpacked integer loop of
structures_oracle.nijenhuis_ints. tests/test_theorems.py checks that both return exactly the same
algebras, reports, structures and refusals.

Every condition here is tested in Fractions, vector by vector: a commutator as the four ``mat_vec`` calls
of ``commute_mismatch``, a pairing as ``KForm.evaluate`` on each basis pair, [D, J] = 0 and J^2 = -Id as
``mat_mul`` products, and the brackets and projections of the reduction and of the contact ideal as
``bracket``, ``apply_one_form`` and ``mat_vec``, where lieforge tests integer products and makes
Fractions only for outputs and witnesses.
"""

from __future__ import annotations

from fractions import Fraction

from lieforge.algebra import LieAlgebra, Subspace, adjoint, bracket, center
from lieforge.extensions import ExtensionResult, derivation_extension, double_extension
from lieforge.forms import KForm, radical
from lieforge.linalg import (
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
    solve_unique,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
    vector_over,
    zero_vector,
)
from lieforge.report import CheckReport, DimensionMismatch, PreconditionError, passed, refusal, require
from lieforge.structures import (
    FrobeniusStructure,
    KahlerStructure,
    SasakianStructure,
    _int_matrix,
    apply_one_form,
    check_contact,
    check_frobenius,
    check_kahler,
    check_sasakian,
    kirillov_form,
    one_form_coords,
)
from lieforge.theorems import (
    DoubleExtensionParams,
    _verify_frobenius_kahler_input,
    _verify_sasakian_input,
    embed_vector,
    kernel_basis,
)

from structures_oracle import nijenhuis_ints

ONE = Fraction(1)


def _first_mismatch(items, lhs, rhs):
    """(k, lhs(x), rhs(x)) at the first item x, k its position, where the two sides differ; None if none does."""
    for k, x in enumerate(items):
        left, right = lhs(x), rhs(x)
        if left != right:
            return k, left, right
    return None


def commute_mismatch(basis, a, b):
    """``_first_mismatch`` of a(b(x)) and b(a(x)) for Fraction maps a and b."""
    return _first_mismatch(basis, lambda x: mat_vec(a, mat_vec(b, x)), lambda x: mat_vec(b, mat_vec(a, x)))


def _first_nonzero_pair(basis, value):
    """(a, b, value(x_a, x_b)) at the first pair a < b of basis vectors where the value is nonzero."""
    for a, x in enumerate(basis):
        for b in range(a + 1, len(basis)):
            val = value(x, basis[b])
            if val != 0:
                return a, b, val
    return None


def phi_pairing_failure(basis, theta, phi):
    """The first pair of ``_first_nonzero_pair`` for theta(Phi x, y) + theta(x, Phi y)."""
    return _first_nonzero_pair(
        basis, lambda x, y: theta.evaluate((mat_vec(phi, x), y)) + theta.evaluate((x, mat_vec(phi, y)))
    )


def kahler_extension_obstruction(g: LieAlgebra, s: SasakianStructure, theta: KForm) -> CheckReport:
    _verify_sasakian_input(g, s)
    if theta.degree != 2 or theta.dim != g.dim:
        raise DimensionMismatch("expected a 2-form on the algebra")
    basis = kernel_basis(g, s.alpha)
    invariance = _first_nonzero_pair(
        basis, lambda x, y: theta.evaluate((x, y)) + theta.evaluate((mat_vec(s.phi, x), mat_vec(s.phi, y)))
    )
    pairing = phi_pairing_failure(basis, theta, s.phi)
    reeb_pair = _first_mismatch(basis, lambda x: theta.evaluate((x, s.reeb)), lambda x: 0)
    dxi = kirillov_form(g, s.alpha).neg()
    integrability_broken = invariance is not None or pairing is not None or reeb_pair is not None
    closedness_broken = not dxi.is_zero()

    def pair_note(hit):
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
        integrability_broken or closedness_broken,
        "all integrability constraints hold and d(xi*) = 0",
    )
    return CheckReport((item,), notes)


def sasakian_reduction(g: LieAlgebra, s: SasakianStructure) -> tuple[LieAlgebra, CheckReport, KahlerStructure]:
    _verify_sasakian_input(g, s)
    if g.dim == 1:
        raise refusal("the quotient by the Reeb vector is 0-dimensional", "quotient_dimension_positive", "dim = 1")
    z = center(g)
    if z != Subspace.from_vectors(g.dim, (s.reeb,)):
        raise refusal(
            "center must be one-dimensional and spanned by the Reeb vector",
            "center_spanned_by_reeb",
            f"center = {z.describe(g.labels)}",
        )
    basis = kernel_basis(g, s.alpha)
    m = len(basis)
    cols = [tuple(b[i] for b in basis) for i in range(g.dim)]

    def to_h(v: Vector) -> Vector:
        coords = solve_unique(cols, v)
        if coords is None:
            raise ValueError("vector does not lie in Ker(alpha)")
        return coords

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


def contact_ideal_restriction(
    g: LieAlgebra, f: FrobeniusStructure, k: KahlerStructure
) -> tuple[LieAlgebra, CheckReport, SasakianStructure | None]:
    _verify_frobenius_kahler_input(g, f, k)
    pivot = next(i for i, x in enumerate(f.principal) if x != 0)
    keep = [i for i in range(g.dim) if i != pivot]
    xp = f.principal

    def split(v: Vector) -> tuple[Fraction, Vector]:
        lam = v[pivot] / xp[pivot]
        rest = vec_sub(v, vec_scale(lam, xp))
        return lam, tuple(rest[i] for i in keep)

    for v, name in [(xp, "x_P")] + [(g.basis_vector(a), g.labels[a]) for a in keep]:
        for b in keep:
            lam, _ = split(bracket(g, v, g.basis_vector(b)))
            if lam != 0:
                raise refusal(
                    "complement of the principal element is not an ideal",
                    "ideal_closed",
                    f"[{name},{g.labels[b]}] leaves the complement",
                )
    m = g.dim - 1
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for ia in range(m):
        for ib in range(ia + 1, m):
            _, rest = split(g.c[keep[ia]][keep[ib]])
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
    items.append(passed("reeb_adjoint_commutes_with_phi", crit_reeb, "[ad(xi), Phi] != 0 on the ideal"))
    ad_xp_mat = tuple(
        tuple(split(bracket(g, xp, to_g(h.basis_vector(jj))))[1][ii] for jj in range(m)) for ii in range(m)
    )
    xp_hit = _first_mismatch(
        kernel_basis(h, alpha_h),
        lambda v: mat_vec(ad_xp_mat, mat_vec(phi, v)),
        lambda v: mat_vec(phi, mat_vec(ad_xp_mat, v)),
    )
    crit_xp = xp_hit is None
    items.append(
        passed("principal_adjoint_commutes_on_kernel", crit_xp, "[ad(x_P), Phi] != 0 on Ker(restricted alpha)")
    )
    items.append(
        passed("criteria_agree", crit_reeb == crit_xp, f"reeb criterion {crit_reeb}, principal criterion {crit_xp}")
    )
    if not (crit_reeb and crit_xp):
        return h, CheckReport(tuple(items), contact_rep.notes), None
    sas_rep, structure = check_sasakian(h, xi, alpha_h, phi)
    items.extend(sas_rep.items)
    return h, CheckReport(tuple(items), contact_rep.notes + sas_rep.notes), structure


def extend_complex_structure(ext: ExtensionResult, j: Matrix) -> CheckReport:
    n = ext.parent_dim
    if (ext.central_index, ext.derivation_index) != (n, n + 1):
        raise PreconditionError("expected the result of a double extension")
    child = ext.algebra
    zi, si = ext.central_index, ext.derivation_index
    base = LieAlgebra(
        n,
        {(i, j2): dict(enumerate(child.c[i][j2][:n])) for i in range(n) for j2 in range(i + 1, n)},
        child.labels[:n],
    )
    if not is_square(j, n):
        raise DimensionMismatch("complex structure must act on the base")
    j2 = mat_mul(j, j)
    base_torsion, _ = nijenhuis_ints(base, *_int_matrix(j))
    theta = KForm.two_form(n, {(a, b): child.c[a][b][zi] for a in range(n) for b in range(a + 1, n)})
    pre = (
        passed(
            "base_complex_square",
            all(column(j2, k) == vec_scale(-ONE, base.basis_vector(k)) for k in range(n)),
            "J^2 != -Id on the base",
        ),
        passed("base_complex_integrable", not any(any(v) for v in base_torsion.values()), "N_J != 0 on the base"),
        passed(
            "cocycle_nondegenerate", radical(base, theta).dim == 0, "the extension cocycle is degenerate on the base"
        ),
    )
    require("double extension does not satisfy the base hypotheses", CheckReport(pre))
    jbar_cols = [embed_vector(column(j, k), child.dim) for k in range(n)]
    jbar = transpose(jbar_cols + [child.basis_vector(si), vec_scale(-ONE, child.basis_vector(zi))])
    # the slot action on rows and columns 0..n: the central extension, as the slot comes last
    d = tuple(tuple(child.c[si][x][k] for x in range(n + 1)) for k in range(n + 1))
    torsion, dt = nijenhuis_ints(child, *_int_matrix(jbar))
    tw = next((pair for pair, v in torsion.items() if any(v)), None)
    cw = _first_mismatch(
        range(n),
        lambda x: mat_vec(jbar, embed_vector(column(d, x), child.dim)),
        lambda x: embed_vector(mat_vec(d, embed_vector(column(j, x), n + 1)), child.dim),
    )
    torsion_ok, commute_ok = tw is None, cw is None
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
    return CheckReport(
        (
            passed("torsion_vanishes", torsion_ok, torsion_witness),
            passed("derivation_commutes_with_j", commute_ok, commute_witness),
            passed(
                "equivalence_agrees",
                torsion_ok == commute_ok,
                f"torsion {'vanishes' if torsion_ok else 'persists'} but commutation "
                f"{'holds' if commute_ok else 'fails'}",
            ),
        )
    )


def _build_double_extension(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix
) -> tuple[ExtensionResult, KForm, CheckReport, Vector | None]:
    _verify_sasakian_input(g, s)
    ext = double_extension(g, theta, d)
    child = ext.algebra
    zi = ext.central_index
    alpha = KForm.one_form(child.dim, one_form_coords(s.alpha) + (ONE, ZERO))
    if apply_one_form(alpha, embed_vector(column(d, zi), child.dim)) == 0:
        raise refusal("alpha(D(z)) must be nonzero", "contact_pairing_nonzero", "alpha(D(z)) = 0")
    contact_rep, contact = check_contact(child, alpha)
    require("extension is not contact for alpha = lifted alpha + z*", contact_rep)
    return ext, alpha, contact_rep, contact.reeb


def solve_double_extension_params(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, c: Fraction | None = None
) -> DoubleExtensionParams:
    ext, alpha, _, reeb = _build_double_extension(g, s, theta, d)
    n = g.dim
    b = reeb[ext.central_index]
    g_part = reeb[:n]
    a = apply_one_form(s.alpha, g_part)
    u = vec_sub(g_part, vec_scale(a, s.reeb))
    if c is None:
        factor = apply_one_form(alpha, embed_vector(column(d, ext.central_index), ext.algebra.dim))
        factor -= apply_one_form(alpha, embed_vector(mat_vec(d, embed_vector(s.reeb, n + 1)), ext.algebra.dim))
        c = ONE if factor >= 0 else -ONE
    return DoubleExtensionParams(a=a, b=b, c=c, d=-c, u=u)


def _double_extension_setup(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, params: DoubleExtensionParams
) -> tuple[ExtensionResult, KForm, Vector, Matrix, CheckReport]:
    """(extension, contact form, solved Reeb vector, Phi-bar, contact report), Phi-bar column by column."""
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
    return ext, alpha, reeb, transpose(cols), contact_rep


def sasakian_double_extension_conditions(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, params: DoubleExtensionParams
) -> CheckReport:
    ext, _, reeb, phi, _ = _double_extension_setup(g, s, theta, d, params)
    child = ext.algebra
    n = g.dim
    basis = kernel_basis(g, s.alpha)

    def phi_bar(v: Vector) -> Vector:
        return mat_vec(s.phi, v)

    w1 = phi_pairing_failure(basis, theta, s.phi)
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
    w3 = _first_mismatch(
        basis,
        lambda x: embed_vector(mat_vec(d, embed_vector(phi_bar(x), n + 1)), child.dim),
        lambda x: mat_vec(phi, embed_vector(mat_vec(d, embed_vector(x, n + 1)), child.dim)),
    )
    witness3 = (
        ""
        if w3 is None
        else f"D(Phi x) = {fmt_vector(w3[1], child.labels)}, Phi(D x) = {fmt_vector(w3[2], child.labels)} "
        f"on kernel vector {w3[0]}"
    )
    item3 = passed("derivation_commutes_with_phi", w3 is None, witness3)
    u = params.u
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
        t = vec_add(t, bracket(child, mat_vec(phi, uu), mat_vec(phi, vv)))
        t = vec_sub(t, mat_vec(phi, bracket(child, mat_vec(phi, uu), vv)))
        t = vec_sub(t, mat_vec(phi, bracket(child, uu, mat_vec(phi, vv))))
        return t

    w_vec = vec_add(
        vec_scale(params.c, embed_vector(s.reeb, child.dim)),
        vec_scale(params.d, child.basis_vector(ext.central_index)),
    )
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
    ext, alpha, reeb, phi, contact = _double_extension_setup(g, s, theta, d, params)
    rep, structure = check_sasakian(ext.algebra, reeb, alpha, phi)
    merged = CheckReport(contact.prefixed("contact:") + rep.items, contact.notes + rep.notes)
    return ext, merged, structure


def frobenius_kahler_to_sasakian(
    g: LieAlgebra, f: FrobeniusStructure, k: KahlerStructure, d: Matrix
) -> tuple[ExtensionResult, CheckReport, SasakianStructure | None]:
    _verify_frobenius_kahler_input(g, f, k)
    ext = derivation_extension(g, d)
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
    rep, structure = check_sasakian(child, xi, alpha, transpose(cols))
    return ext, rep, structure


def sasakian_to_frobenius_kahler(
    g: LieAlgebra, s: SasakianStructure, d: Matrix
) -> tuple[ExtensionResult, CheckReport, FrobeniusStructure | None, KahlerStructure | None]:
    _verify_sasakian_input(g, s)
    ext = derivation_extension(g, d)
    coords = one_form_coords(s.alpha)
    bad = next((j for j in range(g.dim) if apply_one_form(s.alpha, column(d, j)) != coords[j]), None)
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
    omega = frob.kirillov if frob is not None else kirillov_form(child, phi_lift)
    rep_k, kahler = check_kahler(child, j, omega)
    items = rep_f.prefixed("frobenius:") + rep_k.prefixed("kahler:")
    principal_ok = frob is not None and frob.principal == slot
    witness = (
        f"principal element = {fmt_vector(frob.principal, child.labels)}"
        if frob is not None
        else "no principal element"
    )
    items += (passed("principal_is_adjoined_slot", principal_ok, witness),)
    return ext, CheckReport(items, rep_f.notes + rep_k.notes), frob, kahler
