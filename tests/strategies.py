"""Hypothesis strategies shared by the oracle and metamorphic tests.

Kept out of conftest.py, which the benchmark imports for its conjugation
helpers and which therefore must not pull in hypothesis.
"""

import random
from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

import lieforge as lf
from lieforge.forms import KForm
from lieforge.linalg import diagonal, identity, nullspace, vec_scale, vec_sub

from algebra_oracle import dense_c
from conftest import (
    conjugate_algebra,
    conjugate_map,
    conjugate_one_form,
    conjugate_two_form,
    heisenberg_plus_abelian,
    invariant_closed_two_forms,
    mat_inverse,
    random_complex_structure,
    random_invertible,
    random_jacobi_algebra,
)
from forms_oracle import add
from linalg_oracle import mat_mul, mat_vec, vec_add
from structures_oracle import ce_differential

SEEDS = st.integers(0, 10**6)

RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3, 6])),
    st.builds(Fraction, st.integers(-(10**4), 10**4), st.integers(1, 10**4)),
)

# Large entries for the packed kernels: numerators up to 10^40 of either sign
# over mixed denominators, so slot widths and common denominators vary widely.
BIG_NONZERO = st.builds(
    Fraction,
    st.integers(1, 10**40).flatmap(lambda x: st.sampled_from([x, -x])),
    st.one_of(st.sampled_from([1, 2, 3, 7]), st.integers(1, 10**12)),
)
BIG_RATIONALS = st.one_of(RATIONALS, BIG_NONZERO)


@st.composite
def bracket_tables(draw, max_dim=5, values=RATIONALS):
    """(dim, brackets): sparse i < j data brackets[(i, j)][k] with entries drawn from values, zeros included."""
    dim = draw(st.integers(1, max_dim))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = {
        pair: draw(st.dictionaries(st.integers(0, dim - 1), values, max_size=dim)) for pair in pairs
    }
    return dim, brackets


def antisymmetric_algebras(max_dim=5, values=RATIONALS):
    """Any antisymmetric tensor with entries drawn from values: mostly not Lie."""
    return bracket_tables(max_dim, values).map(lambda table: lf.LieAlgebra(*table))


@st.composite
def dense_antisymmetric_algebras(draw, min_dim=3, max_dim=6):
    """Every structure constant a nonzero BIG_NONZERO: almost every basis triple fails Jacobi."""
    dim = draw(st.integers(min_dim, max_dim))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = {pair: dict(enumerate(draw(rational_vectors(dim, BIG_NONZERO)))) for pair in pairs}
    return lf.LieAlgebra(dim, brackets)


@st.composite
def lie_or_not(draw):
    """An antisymmetric tensor as above, or a random Lie algebra of dimension <= 6."""
    if draw(st.booleans()):
        return draw(antisymmetric_algebras())
    return random_jacobi_algebra(random.Random(draw(st.integers(0, 10**6))), draw(st.integers(1, 6)))


def heisenberg_sasakian(m):
    """h_{2m+1} on (x_1..x_m, y_1..y_m, z) with its standard Sasakian data."""
    n = 2 * m + 1
    g = heisenberg_plus_abelian(m)
    phi = [[0] * n for _ in range(n)]
    for k in range(m):
        phi[m + k][k] = 1  # Phi x_k = y_k
        phi[k][m + k] = -1  # Phi y_k = -x_k
    return g, g.basis_vector(n - 1), KForm.basis_one_form(n, n - 1), lf.matrix(phi)


def _random_basis(dim, seed):
    """(P, P^-1) for the random rational basis e'_i = P e_i drawn from seed."""
    p = random_invertible(random.Random(seed), dim)
    return p, mat_inverse(p)


@cache
def conjugated_heisenberg_sasakian(m, seed):
    """heisenberg_sasakian(m) moved to a random rational basis e'_i = P e_i. Cached: the result
    is deterministic in (m, seed) and immutable, and no test needs a fresh algebra object."""
    g, reeb, alpha, phi = heisenberg_sasakian(m)
    p, pinv = _random_basis(g.dim, seed)
    return conjugate_algebra(g, p, pinv), mat_vec(pinv, reeb), conjugate_one_form(alpha, p), conjugate_map(phi, p, pinv)


def conjugated_grading_derivation(m, seed):
    """The grading derivation of h_{2m+1} (1/2 on x and y, 1 on z) in the basis of
    conjugated_heisenberg_sasakian(m, seed): alpha o D = alpha, and D commutes with Phi."""
    p, pinv = _random_basis(2 * m + 1, seed)
    return conjugate_map(diagonal([Fraction(1, 2)] * (2 * m) + [1]), p, pinv)


def rational_vectors(dim, values=RATIONALS):
    return st.lists(values, min_size=dim, max_size=dim).map(tuple)


@st.composite
def closed_one_forms(draw, g):
    """A 1-form vanishing on [g, g], so d(alpha) = 0: a combination of the annihilator's basis."""
    c = dense_c(g)
    rows = [c[i][j] for i in range(g.dim) for j in range(i + 1, g.dim)]
    coords = [0] * g.dim
    for v in nullspace(rows, g.dim) if rows else identity(g.dim):
        c = draw(RATIONALS)
        coords = [x + c * y for x, y in zip(coords, v)]
    return KForm.one_form(g.dim, coords)


@st.composite
def perturbed(draw, values, entries=RATIONALS):
    """values with a few entries replaced by drawn rationals (mixed denominators)."""
    out = list(values)
    for i in draw(st.lists(st.integers(0, len(out) - 1), max_size=2)):
        out[i] = draw(entries)
    return tuple(out)


@st.composite
def contact_inputs(draw):
    """(g, alpha): conjugated h_{2k+1} + R^{2(m-k)} with z* or a perturbed z*, dense h_{2m+1} up to
    h13 with z*, a random algebra (Lie or not) with a rational 1-form, a closed 1-form or the zero
    form; odd and even dimension."""
    kind = draw(st.sampled_from(["heisenberg", "dense", "random", "closed", "zero"]))
    if kind == "dense":
        g, _, alpha, _ = conjugated_heisenberg_sasakian(draw(st.integers(1, 6)), draw(SEEDS))
        return g, alpha
    if kind == "heisenberg":
        m = draw(st.integers(1, 3))
        k = draw(st.integers(0, m))
        base = heisenberg_plus_abelian(k, 2 * (m - k))
        p = random_invertible(random.Random(draw(SEEDS)), base.dim)
        g = conjugate_algebra(base, p, mat_inverse(p))
        z_star = conjugate_one_form(KForm.basis_one_form(base.dim, 2 * k), p)
        return g, KForm.one_form(g.dim, draw(perturbed([z_star.coeff((i,)) for i in range(g.dim)])))
    g = draw(lie_or_not())
    if kind == "closed":
        return g, draw(closed_one_forms(g))
    if kind == "zero":
        return g, KForm.one_form(g.dim, [0] * g.dim)
    return g, KForm.one_form(g.dim, draw(rational_vectors(g.dim)))


@st.composite
def sasakian_inputs(draw):
    """(g, reeb, alpha, phi): Sasakian data on a conjugated h_{2m+1}, exact, with -Phi
    (the metric fails to be definite) or with a few entries of xi, alpha or Phi perturbed;
    or random data on a random algebra (Lie or not, any dimension), with a closed alpha
    or a rational one."""
    kind = draw(st.sampled_from(["exact", "negated", "perturbed", "random", "closed"]))
    if kind in ("exact", "negated", "perturbed"):
        g, reeb, alpha, phi = conjugated_heisenberg_sasakian(draw(st.integers(1, 3)), draw(SEEDS))
        n = g.dim
        if kind == "negated":
            phi = tuple(tuple(-x for x in row) for row in phi)
        if kind == "perturbed":
            reeb = draw(perturbed(reeb))
            alpha = KForm.one_form(n, draw(perturbed([alpha.coeff((i,)) for i in range(n)])))
            flat = draw(perturbed([x for row in phi for x in row]))
            phi = tuple(flat[r * n : (r + 1) * n] for r in range(n))
        return g, reeb, alpha, phi
    g = draw(lie_or_not())
    n = g.dim
    alpha = draw(closed_one_forms(g)) if kind == "closed" else KForm.one_form(n, draw(rational_vectors(n)))
    phi = tuple(draw(rational_vectors(n)) for _ in range(n))
    return g, draw(rational_vectors(n)), alpha, phi


def _rank_one(v, w, c):
    """Id + c v w^T."""
    return tuple(tuple(int(i == j) + c * x * y for j, y in enumerate(w)) for i, x in enumerate(v))


def _dot(v, w):
    return sum(x * y for x, y in zip(v, w))


def _killed(x, v, f):
    """x - f(x) v, which f sends to 0 where f(v) = 1."""
    return vec_sub(x, vec_scale(_dot(f, x), v))


def moved_reeb(reeb, coords, phi, x):
    """(xi', Phi o (Id - xi' (x) alpha)) for Sasakian data (xi, alpha = coords, Phi) and xi' = xi + v,
    v = x - alpha(x) xi in Ker(alpha): alpha(xi') = 1, Phi'^2 = xi' (x) alpha - Id and
    alpha o Phi' = 0 still hold, while d(alpha) xi' = d(alpha) v is nonzero unless v = 0."""
    xi = vec_add(reeb, _killed(x, reeb, coords))
    return xi, mat_mul(phi, _rank_one(xi, coords, -1))


def conjugated_phi(reeb, coords, phi, x, y):
    """Q Phi Q^-1 for Sasakian data (xi, alpha = coords, Phi) and Q = Id + u w^T, with
    u = x - alpha(x) xi and w = y - y(xi) alpha (doubled where 1 + w(u) = 0): Q xi = xi and
    alpha o Q = alpha, so Phi^2 = xi (x) alpha - Id, alpha o Phi = 0 and d(alpha) xi = 0 still
    hold, while the derived metric is generally not symmetric."""
    u, w = _killed(x, reeb, coords), _killed(y, coords, reeb)
    if 1 + _dot(w, u) == 0:
        w = vec_scale(Fraction(2), w)
    q, qinv = _rank_one(u, w, 1), _rank_one(u, w, -1 / (1 + _dot(w, u)))
    return mat_mul(mat_mul(q, phi), qinv)


@st.composite
def near_sasakian_inputs(draw):
    """(g, reeb, alpha, phi): Sasakian data on a conjugated h_{2m+1} with the Reeb vector moved
    inside Ker(alpha) (``moved_reeb``), or with Phi conjugated by a map that fixes xi and alpha
    (``conjugated_phi``): inputs that keep the premises from which check_sasakian decides its
    metric identities, but fail d(alpha) xi = 0 or the symmetry of the metric."""
    g, reeb, alpha, phi = conjugated_heisenberg_sasakian(draw(st.integers(1, 3)), draw(SEEDS))
    coords = [alpha.coeff((i,)) for i in range(g.dim)]
    x, y = draw(rational_vectors(g.dim).filter(any)), draw(rational_vectors(g.dim).filter(any))
    if draw(st.booleans()):
        xi, moved = moved_reeb(reeb, coords, phi, x)
        return g, xi, alpha, moved
    return g, reeb, alpha, conjugated_phi(reeb, coords, phi, x, y)


def _square(flat, n):
    return tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n))


@st.composite
def diagonal_rescalings(draw, dim):
    """(P, P^-1) for P = diag of BIG_NONZERO scales: e'_i = s_i e_i multiplies c_ij^k by s_i s_j / s_k."""
    scales = draw(st.lists(BIG_NONZERO, min_size=dim, max_size=dim))
    return diagonal(scales), diagonal([1 / x for x in scales])


@st.composite
def large_sasakian_inputs(draw):
    """(g, reeb, alpha, phi) with large, fractional entries: Sasakian data on a conjugated h_{2m+1}
    moved by a diagonal_rescalings basis (still Sasakian), the same with a few entries of Phi
    replaced by BIG_RATIONALS, or BIG_RATIONALS data on a random algebra with large constants."""
    kind = draw(st.sampled_from(["rescaled", "perturbed", "random"]))
    if kind == "random":
        g = draw(antisymmetric_algebras(values=BIG_RATIONALS))
        n = g.dim
        alpha = KForm.one_form(n, draw(rational_vectors(n, BIG_RATIONALS)))
        phi = tuple(draw(rational_vectors(n, BIG_RATIONALS)) for _ in range(n))
        return g, draw(rational_vectors(n, BIG_RATIONALS)), alpha, phi
    g, reeb, alpha, phi = conjugated_heisenberg_sasakian(draw(st.integers(1, 3)), draw(SEEDS))
    n = g.dim
    p, pinv = draw(diagonal_rescalings(n))
    g, reeb = conjugate_algebra(g, p, pinv), mat_vec(pinv, reeb)
    alpha, phi = conjugate_one_form(alpha, p), conjugate_map(phi, p, pinv)
    if kind == "perturbed":
        phi = _square(draw(perturbed([x for row in phi for x in row], BIG_RATIONALS)), n)
    return g, reeb, alpha, phi


@st.composite
def large_kahler_inputs(draw):
    """(g, j, omega): the d4half Kahler pair moved by a diagonal_rescalings basis (still Kahler), with
    a few entries of J replaced by BIG_RATIONALS, or BIG_RATIONALS data on a random algebra."""
    kind = draw(st.sampled_from(["rescaled", "perturbed", "random"]))
    if kind == "random":
        g = draw(antisymmetric_algebras(values=BIG_RATIONALS))
        n = g.dim
        j = tuple(draw(rational_vectors(n, BIG_RATIONALS)) for _ in range(n))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        return g, j, KForm.two_form(n, dict(zip(pairs, draw(rational_vectors(len(pairs), BIG_RATIONALS)))))
    d4 = lf.builtin("d4half")
    j, omega = d4.kahler_data
    p, pinv = draw(diagonal_rescalings(4))
    g, j, omega = conjugate_algebra(d4.algebra, p, pinv), conjugate_map(j, p, pinv), conjugate_two_form(omega, p)
    if kind == "perturbed":
        j = _square(draw(perturbed([x for row in j for x in row], BIG_RATIONALS)), 4)
    return g, j, omega


def conjugated_d4half_kahler(seed):
    """d4half with its Kahler pair (J, omega), moved to a random rational basis e'_i = P e_i."""
    d4 = lf.builtin("d4half")
    j, omega = d4.kahler_data
    p = random_invertible(random.Random(seed), 4)
    pinv = mat_inverse(p)
    return conjugate_algebra(d4.algebra, p, pinv), conjugate_map(j, p, pinv), conjugate_two_form(omega, p)


@st.composite
def kahler_inputs(draw):
    """(g, j, omega) for check_kahler, each kind aimed at one item: d4half's Kahler pair in a
    random basis (passes); with omega negated (negative definite metric); with J perturbed
    (J^2 != -Id); with omega replaced by a random 2-form (not closed) or moved by an exact
    d(beta) (closed, not J-invariant, so the metric is not symmetric); or a random J^2 = -Id
    on a random Lie algebra of dimension 2, 4 or 6 (mostly not integrable) with a combination
    of its closed J-invariant 2-forms (indefinite, degenerate or definite metrics)."""
    kind = draw(st.sampled_from(["exact", "negated", "square", "not-closed", "not-invariant", "family"]))
    if kind == "family":
        rng = random.Random(draw(SEEDS))
        g = random_jacobi_algebra(rng, draw(st.sampled_from([2, 4, 6])))
        j = random_complex_structure(rng, g.dim)
        omega = KForm.zero(g.dim, 2)
        for form in invariant_closed_two_forms(g, j):
            omega = add(omega, form.scale(draw(RATIONALS)))
        return g, j, omega
    g, j, omega = conjugated_d4half_kahler(draw(SEEDS))
    if kind == "negated":
        omega = omega.scale(Fraction(-1))
    elif kind == "square":
        j = _square(draw(perturbed([x for row in j for x in row])), 4)
    elif kind == "not-closed":
        pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        omega = KForm.two_form(4, dict(zip(pairs, draw(rational_vectors(len(pairs))))))
    elif kind == "not-invariant":
        omega = add(omega, ce_differential(g, KForm.one_form(4, draw(rational_vectors(4)))))
    return g, j, omega


@st.composite
def solved_derivations(draw):
    """(g, d), d a drawn combination of the basis derivation_space returns: on a random Lie algebra
    or a conjugated h_{2m+1}, or with BIG_RATIONALS coefficients on an h_{2m+1} moved by a
    diagonal_rescalings basis (large constants)."""
    kind = draw(st.sampled_from(["random", "heisenberg", "large"]))
    values = BIG_RATIONALS if kind == "large" else RATIONALS
    if kind == "random":
        g = random_jacobi_algebra(random.Random(draw(SEEDS)), draw(st.integers(1, 5)))
    else:
        g, _, _, _ = conjugated_heisenberg_sasakian(draw(st.integers(1, 2)), draw(SEEDS))
    if kind == "large":
        g = conjugate_algebra(g, *draw(diagonal_rescalings(g.dim)))
    _, basis = lf.derivation_space(g, [lf.Leibniz()])
    coeffs = draw(st.lists(values, min_size=len(basis), max_size=len(basis)))
    n = g.dim
    return g, tuple(
        tuple(sum((c * m[i][k] for c, m in zip(coeffs, basis)), Fraction(0)) for k in range(n)) for i in range(n)
    )


@st.composite
def derivation_inputs(draw):
    """(g, d) for is_derivation: a random map on a random algebra (Lie or not, so most pairs fail),
    the same on dimensions 1-2 or with BIG_RATIONALS constants and entries, or a solved_derivations
    map with a few entries perturbed."""
    kind = draw(st.sampled_from(["random", "small", "large", "perturbed"]))
    if kind == "perturbed":
        g, d = draw(solved_derivations())
        return g, _square(draw(perturbed([x for row in d for x in row])), g.dim)
    values = BIG_RATIONALS if kind == "large" else RATIONALS
    g = draw(antisymmetric_algebras(max_dim=2 if kind == "small" else 5, values=values))
    return g, tuple(draw(rational_vectors(g.dim, values)) for _ in range(g.dim))


def _fixing(draw, n, pivot):
    """(P, P^-1) for a random P that scales e_pivot and maps the other basis vectors among themselves."""
    q = random_invertible(random.Random(draw(SEEDS)), n - 1)
    rest = [i for i in range(n) if i != pivot]
    p = [[Fraction(0)] * n for _ in range(n)]
    p[pivot][pivot] = draw(RATIONALS.filter(bool))
    for a, i in enumerate(rest):
        for b, j in enumerate(rest):
            p[i][j] = q[a][b]
    p = tuple(map(tuple, p))
    return p, mat_inverse(p)


def _moved(draw, n, pivot):
    """_fixing, or a random basis: (P, P^-1)."""
    if draw(st.booleans()):
        return _fixing(draw, n, pivot)
    p = random_invertible(random.Random(draw(SEEDS)), n)
    return p, mat_inverse(p)


R2R2 = lf.LieAlgebra(4, {(0, 1): {1: 1}, (2, 3): {3: 1}})


def _frobenius_kahler(draw):
    """(algebra, Frobenius form, J, pivot of the principal element) of d4half, whose restriction to
    the contact ideal is Sasakian, or of aff(R) + aff(R), whose J moves the contact ideal."""
    if draw(st.booleans()):
        d4 = lf.builtin("d4half")
        return d4.algebra, d4.frobenius_form, d4.kahler_data[0], 3
    j = lf.matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    return R2R2, KForm.one_form(4, [0, 1, 0, 1]), j, 0


@st.composite
def frobenius_kahler_inputs(draw):
    """(g, f, k) from check_frobenius and check_kahler: a _frobenius_kahler pair in a basis that keeps
    the complement of the principal element's pivot (it stays an ideal), or in any random basis (the
    complement is mostly not an ideal)."""
    g, phi, j, pivot = _frobenius_kahler(draw)
    p, pinv = _moved(draw, g.dim, pivot)
    g = conjugate_algebra(g, p, pinv)
    f = lf.check_frobenius(g, conjugate_one_form(phi, p))[1]
    k = lf.check_kahler(g, conjugate_map(j, p, pinv), lf.kirillov_form(g, f.phi))[1]
    assert k is not None
    return g, f, k


@st.composite
def frobenius_inputs(draw):
    """(g, phi) for check_frobenius: a _frobenius_kahler form in a random basis, exact or with a few
    entries perturbed; a rational 1-form on a random algebra (Lie or not, odd or even dimension);
    a closed 1-form (zero Kirillov form) or the zero form; or a nonzero 1-form with a degenerate Kirillov
    form on a conjugated h_{2k+1} + R^r of even dimension."""
    kind = draw(st.sampled_from(["frobenius", "random", "closed", "zero", "degenerate"]))
    if kind == "degenerate":
        base = heisenberg_plus_abelian(draw(st.integers(0, 2)), draw(st.sampled_from([1, 3])))
        p = random_invertible(random.Random(draw(SEEDS)), base.dim)
        coords = draw(rational_vectors(base.dim).filter(any))
        return conjugate_algebra(base, p, mat_inverse(p)), conjugate_one_form(KForm.one_form(base.dim, coords), p)
    if kind == "frobenius":
        g, phi, _, pivot = _frobenius_kahler(draw)
        p, pinv = _moved(draw, g.dim, pivot)
        g, phi = conjugate_algebra(g, p, pinv), conjugate_one_form(phi, p)
        return g, KForm.one_form(g.dim, draw(perturbed([phi.coeff((i,)) for i in range(g.dim)])))
    g = draw(lie_or_not())
    if kind == "closed":
        return g, draw(closed_one_forms(g))
    if kind == "zero":
        return g, KForm.one_form(g.dim, [0] * g.dim)
    return g, KForm.one_form(g.dim, draw(rational_vectors(g.dim)))


@st.composite
def sasakian_reduction_inputs(draw):
    """(g, s) for sasakian_reduction: the Sasakian structure of a conjugated h_{2m+1} or of g5 (center
    spanned by the Reeb vector) or of g0 (center 0) in a random basis, bound by check_sasakian or
    built by hand; or the data of sasakian_inputs built by hand (mostly failing the axioms)."""
    kind = draw(st.sampled_from(["heisenberg", "g5", "g0", "broken"]))
    if kind == "broken":
        g, reeb, alpha, phi = draw(sasakian_inputs())
    elif kind == "heisenberg":
        g, reeb, alpha, phi = conjugated_heisenberg_sasakian(draw(st.integers(1, 3)), draw(SEEDS))
    else:
        b = lf.builtin(kind)
        (reeb, alpha, phi), n = b.sasakian_data, b.algebra.dim
        p = random_invertible(random.Random(draw(SEEDS)), n)
        pinv = mat_inverse(p)
        g = conjugate_algebra(b.algebra, p, pinv)
        reeb, alpha, phi = mat_vec(pinv, reeb), conjugate_one_form(alpha, p), conjugate_map(phi, p, pinv)
    bound = lf.check_sasakian(g, reeb, alpha, phi)[1]
    if bound is not None and draw(st.booleans()):
        return g, bound
    return g, lf.SasakianStructure(reeb, alpha, phi, identity(g.dim))
