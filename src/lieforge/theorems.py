"""Constructions connecting Sasakian, Kahler and Frobenius structures.

Every constructor re-verifies its output with the axiom checkers from
``structures``; nothing is trusted by construction. An input structure is
verified once: a structure that ``check_*`` bound to the very algebra
object passed alongside it is accepted as is, and any other structure
(checked on another algebra, or built by hand) is checked again. A structure
carries no derived value, so omega = -d(phi) is tested on -d(phi) built anew.

A construction refuses its input with ``PreconditionError``, whose report is
the evidence: the failing report of a check (``report.require``), or a report
of one failing item that names the condition and its witness
(``report.refusal``). Where a condition quantifies over a basis, the witness
is its first failure in basis order (``_first_mismatch``,
``_first_nonzero_pair``).

The conditions and maps run on integers: a form is the integer vector or
skew matrix over one denominator that it carries (``forms.KForm._ints``,
cached, so a form read by several conditions and checks is cleared of
denominators once), a map its integer matrix over one denominator
(``linalg.int_matrix``), a bracket D times the bracket of integer vectors
(``algebra._bracket_ints``). phi o D = 0, alpha o D = alpha, [D, J] = 0, J^2 = -Id and
[ad(xi), Phi] = 0 are integer products; a condition "two maps agree on a
basis" forms the integer difference of the maps once and tests each basis
vector as one product, and a pairing condition tests each basis pair as one.
A hypothesis is decided on the checked input with no elimination: the center
of a Sasakian algebra is span(xi) exactly when ad(xi) = 0, and x lies in
Rad(theta) exactly when T x = 0; only the refusal of the reduction computes
the center, for its witness. Ker(alpha) is the nullspace of alpha's one row
(``kernel_basis``); the reduction reads its brackets, omega and J off integer
brackets of that reduced basis at its pivots; the contact-ideal restriction
takes its brackets from the bracket table of g, reindexed to the ideal, and a
vector there has an x_P component exactly where its pivot coordinate is
nonzero. Fractions are made only for output entries and, on a failure, for its
witness. The one map built in Fractions is Phi-bar of a double extension:
after Phi u is formed on integers, its O(n^2) entries are Fraction products of
Phi, Phi u, alpha and the solved parameters, once per call.

Every map a construction builds is one block matrix on the extension, with
the base first, then the central element z, then the derivation slot:

- the derivation extension of a Frobenius-Kahler algebra carries
  Phi = [[J, 0], [-phi o J, 0]], that of a Sasakian algebra
  J = [[Phi, xi], [-alpha, 0]];
- a Sasakian double extension carries
  Phi-bar = [[Phi - (d/delta) Phi u (x) alpha, (c/delta) Phi u, -c xi],
  [0, 0, -d], [-(b/delta) alpha, a/delta, 0]], which with d = -c and
  delta = -c is [[Phi - Phi u (x) alpha, -Phi u, -c xi], [0, 0, c],
  [(b/c) alpha, -a/c, 0]];
- the lift of a complex structure J to a double extension is
  J-bar = [[J, 0, 0], [0, 0, -1], [0, 1, 0]].

A Sasakian double extension takes only the scale c of w = c xi + d z. The
rest is read off the Reeb vector u + a xi + b z of the lifted contact form,
which is unique, so a + b = 1, alpha(u) = 0, d = -c and delta = ad - bc = -c
(``DoubleExtensionParams``, an output). Each call verifies the input, builds
the extension and checks it contact once (``_double_extension``). The
derivation of a double extension is read as ad(slot) on the extension
(column x is [slot, e_x]), from the one integer ad(x) (``_int_adjoint``),
and the four conditions "two maps commute on a basis" are one helper
(``_commute_mismatch``).

Where the source formulas admit two sign choices, the worked
low-dimensional examples fix the sign (see the module tests for the
frozen values).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd
from operator import mul

from .algebra import LieAlgebra, _bracket_ints, center
from .extensions import (
    ExtensionResult,
    central_extension,
    derivation_extension,
    double_extension,
    lift_one_form,
)
from .forms import KForm, _check_form, _kirillov, apply_one_form, kirillov_form, one_form_coords, radical
from .linalg import (
    Matrix,
    Vector,
    ZERO,
    _check_square,
    clear_denominators,
    fmt_basis_tuple,
    fmt_scalar,
    fmt_vector,
    int_apply,
    int_matrix,
    int_mul,
    is_zero_vector,
    nullspace,
    transpose,
    vec_scale,
    vec_sub,
    vector_over,
    zero_vector,
)
from .report import CheckReport, PreconditionError, Record, first_failure, passed, refusal, require
from .structures import (
    FrobeniusStructure,
    KahlerStructure,
    SasakianStructure,
    _first_torsion,
    _packed_torsion,
    check_contact,
    check_frobenius,
    check_kahler,
    check_sasakian,
)

ONE = Fraction(1)
IntMap = tuple[Sequence[Sequence[int]], int]  # (m, d): the map m/d


def kernel_basis(g: LieAlgebra, alpha: KForm) -> tuple[Vector, ...]:
    """The reduced basis of Ker(alpha): the nullspace of alpha's row of numerators."""
    _check_form(alpha, g.dim, 1)
    return nullspace([alpha._ints[0]], g.dim)


def _verify_sasakian_input(g: LieAlgebra, s: SasakianStructure) -> None:
    if s.algebra is not g:
        require("input structure fails the Sasakian axioms", check_sasakian(g, s.reeb, s.alpha, s.phi)[0])


def _verify_kahler_input(g: LieAlgebra, k: KahlerStructure) -> None:
    if k.algebra is not g:
        require("input structure fails the Kahler axioms", check_kahler(g, k.j, k.omega)[0])


def _verify_frobenius_kahler_input(g: LieAlgebra, f: FrobeniusStructure, k: KahlerStructure) -> None:
    """Checks f and k as the inputs above, and that omega = -d(phi)."""
    kirillov = _kirillov(g, f.phi)
    if f.algebra is not g:
        rep, frob = check_frobenius(g, f.phi, kirillov)
        require("input is not Frobenius", rep)
        if frob.principal != f.principal:
            witness = f"solved {fmt_vector(frob.principal, g.labels)}"
            raise refusal("supplied principal element is wrong", "principal_element", witness)
    _verify_kahler_input(g, k)
    if k.omega != kirillov[2]:
        raise refusal("symplectic form must equal -d(phi)", "exact_symplectic_coherence", "omega != -d(phi)")


def _int_adjoint(g: LieAlgebra, x: Vector, on: Sequence[int] | None = None) -> IntMap:
    """ad(x) as an integer map on the basis vectors e_j, j in on (all of them by default), read off
    the integer structure constants C = D*c: with x = xs/dx, column t is D*dx*[x, e_j] = sum_i xs_i C_ij."""
    xs, dx = clear_denominators(x)
    d, terms, _ = g._integer_terms
    on = range(g.dim) if on is None else on
    m = [[0] * len(on) for _ in range(g.dim)]
    for i, a in enumerate(xs):
        if a:
            for t, j in enumerate(on):
                for k, c in terms[i][j]:
                    m[k][t] += a * c
    return m, d * dx


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
        if any(int_apply(diff, xs)):
            return k, vector_over(int_apply(li, xs), dl * dx), vector_over(int_apply(ri, xs), dr * dx)
    return None


def _commute_mismatch(basis: Iterable[Vector], a: IntMap, b: IntMap) -> tuple[int, Vector, Vector] | None:
    """``_first_mismatch`` of a(b(x)) and b(a(x)): the first basis vector x with [a, b] x != 0."""
    (ai, da), (bi, db) = a, b
    return _first_mismatch(basis, (int_mul(ai, bi), da * db), (int_mul(bi, ai), da * db))


def _first_nonzero_pair(basis: Sequence[Vector], form: IntMap) -> tuple[int, int, Fraction] | None:
    """(a, b, S(x_a, x_b)) at the first pair a < b of basis vectors where the bilinear form S = s/d is nonzero.

    The pairs a = b are not tested: the values tested here vanish on them, theta being alternating.
    """
    s, d = form
    vecs = [clear_denominators(x) for x in basis]
    for a, (xa, da) in enumerate(vecs):
        row = int_apply(zip(*s), xa)  # x_a^T s
        for b in range(a + 1, len(vecs)):
            val = sum(map(mul, row, vecs[b][0]))
            if val:
                return a, b, Fraction(val, d * da * vecs[b][1])
    return None


def _phi_pairing_failure(basis: Sequence[Vector], theta: IntMap, phi: IntMap) -> tuple[int, int, Fraction] | None:
    """The first pair of ``_first_nonzero_pair`` for theta(Phi x, y) + theta(x, Phi y), the form
    Phi^T T + T Phi = T Phi - (T Phi)^T, T the skew matrix of theta."""
    (t, dt), (p, dp) = theta, phi
    tp = int_mul(t, p)
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
    # a central z has d(alpha)(z, .) = -alpha([z, .]) = 0, and the radical of d(alpha) is span(xi) on the
    # checked s (d(alpha) is the metric paired with Phi, which maps onto Ker(alpha); Blair, ch. 4 and 6):
    # so the center is span(xi) when ad(xi) = 0, and {0} otherwise
    if any(map(any, _int_adjoint(g, s.reeb)[0])):
        raise refusal(
            "center must be one-dimensional and spanned by the Reeb vector",
            "center_spanned_by_reeb",
            f"center = {center(g).describe(g.labels)}",
        )
    n, m = g.dim, g.dim - 1  # the checked alpha is nonzero (alpha(xi) = 1)
    flat, db = clear_denominators([x for v in kernel_basis(g, s.alpha) for x in v])
    basis = [flat[r * n : (r + 1) * n] for r in range(m)]  # db times the basis of Ker(alpha)
    pivots = [next(i for i, x in enumerate(v) if x) for v in basis]
    a, da = s.alpha._ints
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
    h = LieAlgebra(m, brackets)
    phi, dp = int_matrix(s.phi)
    j = tuple(vector_over(int_apply(basis, phi[c]), dp * db) for c in pivots)
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
    phi = tuple((*row, ZERO) for row in k.j) + (zero_vector(child.dim),)
    rep, structure = check_sasakian(child, reeb, alpha, phi)
    require("central extension failed the Sasakian axioms", rep)
    return ext, rep, structure


def kahler_extension_obstruction(g: LieAlgebra, s: SasakianStructure, theta: KForm) -> CheckReport:
    """No central extension carries a Kahler pair extending (Phi, -d alpha).

    Evaluates the integrability constraints forced on the candidate
    extension and the closedness obstruction d(xi*) = 0; the verdict
    passes when at least one of them rules the extension out. On a checked
    Sasakian structure of dimension 3 or more d(alpha) != 0, since otherwise
    the metric -d(alpha)(., Phi .) + alpha (x) alpha would have rank 1: there
    the closedness obstruction always holds, the verdict always passes and the
    integrability constraints choose only the ``no_go_route`` note. It can fail
    only in dimension 1.
    """
    _verify_sasakian_input(g, s)
    _check_form(theta, g.dim, 2)
    basis = kernel_basis(g, s.alpha)
    (t, dt), (p, dp) = theta._ints, int_matrix(s.phi)
    ptp = int_mul(transpose(p), int_mul(t, p))  # theta(x, y) + theta(Phi x, Phi y) is the form T + Phi^T T Phi
    invariance = _first_nonzero_pair(basis, ([[x * dp * dp + y for x, y in zip(*r)] for r in zip(t, ptp)], dt * dp**2))
    pairing = _phi_pairing_failure(basis, (t, dt), (p, dp))
    xi, dx = clear_denominators(s.reeb)
    reeb_pair = _first_mismatch(basis, ([int_apply(t, xi)], dt * dx), ([[0] * g.dim], 1))  # theta(x, xi) against 0
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
    _check_square(j, n)
    ji, dj = int_matrix(j)
    square = int_mul(ji, ji) == [[-dj * dj * (r == c) for c in range(n)] for r in range(n)]
    integrable = _first_torsion(base, _packed_torsion(base, ji), dj) is None
    theta = KForm.two_form(n, {pair: x for pair, xs in base_table for k, x in xs if k == n})
    nondegenerate = radical(base, theta).dim == 0
    pre = (
        passed("base_complex_square", square, "J^2 != -Id on the base"),
        passed("base_complex_integrable", integrable, "N_J != 0 on the base"),
        passed("cocycle_nondegenerate", nondegenerate, "the extension cocycle is degenerate on the base"),
    )
    require("double extension does not satisfy the base hypotheses", CheckReport(pre))

    ji = [[*row, 0, 0] for row in ji] + [[0] * n + [0, -dj], [0] * n + [dj, 0]]  # J-bar over dj
    tw = _first_torsion(child, _packed_torsion(child, ji), dj)
    ad_slot = _int_adjoint(child, child.basis_vector(n + 1))  # D on the extension
    cw = _commute_mismatch(map(child.basis_vector, range(n)), (ji, dj), ad_slot)
    torsion_ok = tw is None
    commute_ok = cw is None
    items = (
        first_failure(
            "torsion_vanishes",
            tw,
            lambda t: f"N{fmt_basis_tuple(t[0], child.labels)} = {fmt_vector(t[1], child.labels)}",
        ),
        first_failure(
            "derivation_commutes_with_j",
            cw,
            lambda c: f"Jbar(D {child.labels[c[0]]}) = {fmt_vector(c[1], child.labels)}, "
            f"D(J {child.labels[c[0]]}) = {fmt_vector(c[2], child.labels)}",
        ),
        first_failure(  # the hit is torsion_ok, commute_ok being its negation
            "equivalence_agrees",
            None if torsion_ok == commute_ok else torsion_ok,
            lambda t: f"torsion {'vanishes' if t else 'persists'} but commutation {'fails' if t else 'holds'}",
        ),
    )
    return CheckReport(items)


# ---------------------------------------------------------------------------
# double extensions of Sasakian algebras


class DoubleExtensionParams(Record):
    """The solved Reeb vector u + a xi + b z of a double extension and the scale c of w = c xi + d z, d = -c."""

    _fields = ("a", "b", "c", "u")

    @property
    def d(self) -> Fraction:
        return -self.c


def _double_extension(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, c: Fraction | None
) -> tuple[ExtensionResult, KForm, Vector, DoubleExtensionParams, Matrix, CheckReport]:
    """(extension, its contact form, solved Reeb vector, params, Phi-bar, contact report).

    The extension must be contact for alpha + z*, which needs alpha(D(z)) != 0. Its Reeb vector then
    has no component t along the derivation slot, as 0 = d(alpha)(xi, z) = -t alpha(D(z)), so it reads
    u + a xi + b z with alpha(u) = 0 and a + b = 1. The candidate metric gives g(D, D) = c (alpha(D z) -
    alpha(D xi)), so when no scale is supplied c is chosen as the sign of that bracket, and defaults to 1
    when the factor vanishes. With d = -c, delta = ad - bc = -c, so c = 0 is refused.
    """
    _verify_sasakian_input(g, s)
    ext = double_extension(g, theta, d)
    child = ext.algebra
    n = g.dim
    coords = one_form_coords(s.alpha)
    alpha = KForm.one_form(child.dim, coords + (ONE, ZERO))
    a_ints, _ = alpha._ints
    ad_slot, _ = _int_adjoint(child, child.basis_vector(n + 1))  # D on the extension
    alpha_d = int_apply(zip(*ad_slot), a_ints)  # the row alpha o D, over a positive denominator
    if not alpha_d[n]:
        raise refusal("alpha(D(z)) must be nonzero", "contact_pairing_nonzero", "alpha(D(z)) = 0")
    contact_rep, contact = check_contact(child, alpha)
    require("extension is not contact for alpha = lifted alpha + z*", contact_rep)
    reeb = contact.reeb
    if c is None:  # the sign of alpha(D(z - xi))
        xi, dx = clear_denominators(s.reeb)
        c = ONE if alpha_d[n] * dx >= sum(map(mul, alpha_d, xi)) else -ONE
    elif c == 0:
        raise refusal("the scale c of w = c xi + d z must be nonzero", "params_delta_nonzero", "delta = ad - bc = 0")
    c = Fraction(c)
    a = apply_one_form(s.alpha, reeb[:n])
    params = DoubleExtensionParams(a, reeb[n], c, vec_sub(reeb[:n], vec_scale(a, s.reeb)))
    (sp, dsp), (u, du) = int_matrix(s.phi), clear_denominators(params.u)
    phi_u = vector_over(int_apply(sp, u), dsp * du)
    # with delta = -c: [[Phi - Phi u (x) alpha, -Phi u, -c xi], [0, 0, c], [(b/c) alpha, -a/c, 0]]
    phi = tuple(
        (*(p - pu * x for p, x in zip(row, coords)), -pu, -c * xi) for row, pu, xi in zip(s.phi, phi_u, s.reeb)
    ) + ((*zero_vector(n), ZERO, c), (*(params.b / c * x for x in coords), -params.a / c, ZERO))
    return ext, alpha, reeb, params, phi, contact_rep


def sasakian_double_extension_conditions(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, c: Fraction | None = None
) -> CheckReport:
    """The five equivalent conditions for the extension to stay Sasakian, at the scale c (solved when None)."""
    ext, _, reeb, params, phi, _ = _double_extension(g, s, theta, d, c)
    child = ext.algebra
    basis = kernel_basis(g, s.alpha)
    p, dp = int_matrix(s.phi)
    item1 = first_failure(
        "cocycle_phi_pairing",
        _phi_pairing_failure(basis, theta._ints, (p, dp)),
        lambda w: f"theta(Phi x,y)+theta(x,Phi y) = {fmt_scalar(w[2])} on kernel pair ({w[0]},{w[1]})",
    )
    t, _ = theta._ints  # x in Rad(theta) iff T x = 0
    u_ok, xi_ok = (not any(int_apply(t, clear_denominators(x)[0])) for x in (params.u, s.reeb))
    witness = f"u in Rad(theta): {u_ok}, reeb in Rad(theta): {xi_ok}"
    item2 = passed("theta_radical_contains_u_and_reeb", u_ok and xi_ok, witness)
    # Phi-bar is Phi on Ker(alpha)
    pb, dpb = int_matrix(phi)
    ad_slot = _int_adjoint(child, child.basis_vector(ext.derivation_index))  # D on the extension
    item3 = first_failure(
        "derivation_commutes_with_phi",
        _commute_mismatch(((*x, ZERO, ZERO) for x in basis), ad_slot, (pb, dpb)),
        lambda w: f"D(Phi x) = {fmt_vector(w[1], child.labels)}, Phi(D x) = {fmt_vector(w[2], child.labels)} "
        f"on kernel vector {w[0]}",
    )
    ad_u, du = _int_adjoint(g, params.u)  # [u, x] against -Phi[u, Phi x]
    item4 = first_failure(
        "ad_u_phi_conjugation",
        _first_mismatch(basis, (ad_u, du), ([[-x for x in r] for r in int_mul(p, int_mul(ad_u, p))], du * dp * dp)),
        lambda w: f"[u,x] = {fmt_vector(w[1], g.labels)}, -Phi[u,Phi x] = {fmt_vector(w[2], g.labels)} "
        f"on kernel vector {w[0]}",
    )

    def torsion(uu: Vector, vv: Vector) -> Vector:
        """-[u, v] + [Phi u, Phi v] - Phi[Phi u, v] - Phi[u, Phi v] from integer brackets, Phi = Phi-bar."""
        (us, du), (vs, dv) = clear_denominators(uu), clear_denominators(vv)
        pu, pv = int_apply(pb, us), int_apply(pb, vs)
        inner = map(int.__add__, _bracket_ints(child, pu, vs), _bracket_ints(child, us, pv))
        terms = zip(_bracket_ints(child, us, vs), _bracket_ints(child, pu, pv), int_apply(pb, list(inner)))
        return vector_over([y - x * dpb * dpb - z for x, y, z in terms], child._integer_terms[0] * du * dv * dpb * dpb)

    w_vec = vec_scale(params.c, s.reeb) + (params.d, ZERO)  # c xi + d z
    m_w = torsion(w_vec, reeb)
    m_d = torsion(child.basis_vector(ext.derivation_index), reeb)
    notes = (
        ("M(w,xi)", fmt_vector(m_w, child.labels)),
        ("M(D,xi)", fmt_vector(m_d, child.labels)),
        ("solved_reeb", fmt_vector(reeb, child.labels)),
    )
    witness = f"M(w,xi) = {notes[0][1]}, M(D,xi) = {notes[1][1]}"
    item5 = passed("reeb_derivative_balance", is_zero_vector(m_w) and is_zero_vector(m_d), witness)
    return CheckReport((item1, item2, item3, item4, item5), notes)


def sasakian_double_extension(
    g: LieAlgebra, s: SasakianStructure, theta: KForm, d: Matrix, c: Fraction | None = None
) -> tuple[ExtensionResult, CheckReport, SasakianStructure | None, DoubleExtensionParams]:
    """Build the double extension at the scale c (solved when None) and verify the Sasakian axioms directly;
    returns the extension, the report, the structure and the solved params."""
    ext, alpha, reeb, params, phi, contact = _double_extension(g, s, theta, d, c)
    rep, structure = check_sasakian(ext.algebra, reeb, alpha, phi)
    merged = CheckReport(contact.prefixed("contact:") + rep.items, contact.notes + rep.notes)
    return ext, merged, structure, params


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
    (c, dc), (di, _), (ji, dj) = f.phi._ints, int_matrix(d), int_matrix(k.j)
    bad = next((j for j, x in enumerate(int_apply(zip(*di), c)) if x), None)  # the row phi o D
    if bad is not None:
        raise refusal("phi o D must vanish", "phi_d_vanishes", f"phi(D {g.labels[bad]}) != 0")
    if int_mul(di, ji) != int_mul(ji, di):
        raise refusal("D must commute with J", "d_commutes_with_j", "D o J != J o D")
    child = ext.algebra
    alpha = KForm.from_coeffs(child.dim, 1, {**f.phi._table, (g.dim,): ONE})  # phi plus the slot's dual
    phi_j = vector_over(int_apply(zip(*ji), c), dc * dj)  # the row phi o J
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
    (a, da), (di, dd) = s.alpha._ints, int_matrix(d)
    bad = next((j for j, (x, y) in enumerate(zip(int_apply(zip(*di), a), a)) if x != y * dd), None)  # alpha o D, alpha
    if bad is not None:
        label = g.labels[bad]
        raise refusal("alpha o D must equal alpha", "alpha_d_invariance", f"alpha(D {label}) != alpha({label})")
    basis = kernel_basis(g, s.alpha)
    hit = _commute_mismatch(basis, int_matrix(s.phi), (di, dd))
    if hit is not None:
        witness = f"[Phi,D]({fmt_vector(basis[hit[0]], g.labels)}) != 0"
        raise refusal("Phi and D must commute on Ker(alpha)", "phi_d_commute_on_kernel", witness)
    child = ext.algebra
    slot = child.basis_vector(ext.derivation_index)
    phi_lift = lift_one_form(s.alpha, child.dim)
    # J = [[Phi, xi], [-alpha, 0]]
    j = tuple((*row, x) for row, x in zip(s.phi, s.reeb)) + ((*vector_over([-x for x in a], da), ZERO),)
    kirillov = _kirillov(child, phi_lift)
    rep_f, frob = check_frobenius(child, phi_lift, kirillov)
    rep_k, kahler = check_kahler(child, j, kirillov[2])  # omega = -d(phi_lift)
    items = rep_f.prefixed("frobenius:") + rep_k.prefixed("kahler:")
    principal = None if frob is None else frob.principal
    items += (
        first_failure(  # the hit is (principal,), None where phi_lift is not Frobenius
            "principal_is_adjoined_slot",
            None if principal == slot else (principal,),
            lambda h: "no principal element"
            if h[0] is None
            else f"principal element = {fmt_vector(h[0], child.labels)}",
        ),
    )
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

    alpha_h = KForm.one_form(m, [f.phi.coeff((i,)) for i in keep])
    contact_rep, contact = check_contact(h, alpha_h)
    require("restricted form is not contact on the ideal", contact_rep)
    xi = contact.reeb
    items = list(contact_rep.prefixed("contact:"))
    # column i of J on the kernel part e_i - alpha_h(e_i) xi, in the coordinates of g over den
    (a, da), (x, dx), (ji, dj) = alpha_h._ints, clear_denominators(xi), int_matrix(k.j)
    den = dj * da * dx
    j_xi = [sum(row[c] * y for c, y in zip(keep, x)) for row in ji]
    images = [[da * dx * row[c] - ai * y for row, y in zip(ji, j_xi)] for c, ai in zip(keep, a)]
    last = max((i for i, v in enumerate(images) if v[pivot]), default=None)  # the last with an x_P component
    items.append(
        first_failure(
            "phi_well_defined",
            last,
            lambda i: f"J(kernel part of {h.labels[i]}) has x_P component "
            f"{fmt_scalar(Fraction(images[i][pivot], den) / xp[pivot])}",
        )
    )
    if last is not None:
        return h, CheckReport(tuple(items)), None
    phi = [[v[c] for v in images] for c in keep]
    ad_xi, _ = _int_adjoint(h, xi)
    crit_reeb = int_mul(ad_xi, phi) == int_mul(phi, ad_xi)
    crit_xp = _commute_mismatch(kernel_basis(h, alpha_h), (ad_xp, dad), (phi, den)) is None
    items += (
        passed("reeb_adjoint_commutes_with_phi", crit_reeb, "[ad(xi), Phi] != 0 on the ideal"),
        passed("principal_adjoint_commutes_on_kernel", crit_xp, "[ad(x_P), Phi] != 0 on Ker(restricted alpha)"),
        passed("criteria_agree", crit_reeb == crit_xp, f"reeb criterion {crit_reeb}, principal criterion {crit_xp}"),
    )
    if not (crit_reeb and crit_xp):
        return h, CheckReport(tuple(items), contact_rep.notes), None
    sas_rep, structure = check_sasakian(h, xi, alpha_h, tuple(vector_over(row, den) for row in phi))
    items.extend(sas_rep.items)
    return h, CheckReport(tuple(items), contact_rep.notes + sas_rep.notes), structure
