"""Reference oracle for two constructions of lieforge.theorems: the paths that computed a fact twice.

sasakian_reduction solves for the coordinates of every vector in the basis of
Ker(alpha) with its own elimination (``solve_unique``), where lieforge reads
them off the pivots of that reduced basis. contact_ideal_restriction brackets
x_P and every kept vector with every kept vector for the ideal test, takes
the brackets of the ideal again from the structure constants, and brackets
x_P with each kept vector once more for every entry of ad(x_P), where
lieforge brackets each pair once. tests/test_theorems.py checks that both
return exactly the same algebras, reports, structures and refusals.
"""

from __future__ import annotations

from fractions import Fraction

from lieforge.algebra import LieAlgebra, Subspace, adjoint, bracket, center
from lieforge.forms import KForm
from lieforge.linalg import (
    Vector,
    ZERO,
    fmt_scalar,
    mat_mul,
    mat_vec,
    solve_unique,
    transpose,
    vec_scale,
    vec_sub,
    zero_vector,
)
from lieforge.report import CheckReport, passed, refusal, require
from lieforge.structures import (
    FrobeniusStructure,
    KahlerStructure,
    SasakianStructure,
    apply_one_form,
    check_contact,
    check_kahler,
    check_sasakian,
    one_form_coords,
)
from lieforge.theorems import (
    _first_mismatch,
    _verify_frobenius_kahler_input,
    _verify_sasakian_input,
    kernel_basis,
)


def sasakian_reduction(g: LieAlgebra, s: SasakianStructure) -> tuple[LieAlgebra, CheckReport, KahlerStructure]:
    _verify_sasakian_input(g, s)
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
