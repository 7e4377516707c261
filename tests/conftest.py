"""Shared generators and independent oracles for the test suite.

Random Lie algebras are produced by iterated central and derivation
extensions starting from abelian algebras, so every sample satisfies the
Jacobi identity exactly. All sampling uses seeded random.Random for
reproducibility.

The conjugation helpers (conjugate_algebra, conjugate_map,
conjugate_one_form, conjugate_two_form) move their input to the basis
e'_i = P e_i on integers over one denominator (lieforge.linalg.int_matrix,
int_mul and int_apply, a form's KForm._ints, an algebra's brackets through
lieforge.algebra._bracket_ints), with one Fraction per output entry.
conjugate_algebra and conjugate_map read P^-1 from their ``pinv``, and the
form helpers invert nothing: every caller's P has passed linalg.det or
mat_inverse, which inverts by one elimination of [m | I]
(lieforge.linalg._eliminate). The Fraction versions they replaced are
tests/algebra_oracle.py's, and tests/test_algebra.py checks that both return
the same. bench/workloads.dense_heisenberg builds its dense inputs with
them: the benchmark loads this file by its path, with only src/ on the path,
so it imports lieforge alone at module level; the helpers that read forms
through tests/forms_oracle.py or linalg_oracle.py import them when they run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import lieforge as lf
from lieforge.algebra import _bracket_ints
from lieforge.forms import KForm
from lieforge.linalg import _eliminate, int_apply, int_matrix, int_mul, nullspace, vector_over

SCALARS = [Fraction(n) for n in (-2, -1, 0, 1, 2)] + [Fraction(1, 2), Fraction(-1, 2)]
NONZERO = [s for s in SCALARS if s != 0]

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def pair_basis(dim: int) -> list[tuple[int, int]]:
    return list(combinations(range(dim), 2))


def random_scalar(rng: random.Random) -> Fraction:
    return rng.choice(SCALARS)


def random_one_form(rng: random.Random, dim: int) -> KForm:
    return KForm.one_form(dim, [random_scalar(rng) for _ in range(dim)])


def random_two_form(rng: random.Random, dim: int) -> KForm:
    return KForm.two_form(dim, {p: random_scalar(rng) for p in pair_basis(dim)})


def random_kform(rng: random.Random, dim: int, degree: int) -> KForm:
    if degree == 0:
        return KForm.from_coeffs(dim, 0, {(): random_scalar(rng)})
    return KForm.from_coeffs(
        dim, degree, {idxs: random_scalar(rng) for idxs in combinations(range(dim), degree)}
    )


def random_matrix(rng: random.Random, dim: int):
    return tuple(tuple(random_scalar(rng) for _ in range(dim)) for _ in range(dim))


def d_two_form(g: lf.LieAlgebra, theta: KForm) -> dict[tuple[int, int, int], Fraction]:
    """The nonzero d(theta)(e_i, e_j, e_k), i < j < k, by the definition
    -theta([e_i, e_j], e_k) + theta([e_i, e_k], e_j) - theta([e_j, e_k], e_i), read off the bracket table."""
    from forms_oracle import as_matrix

    b = as_matrix(theta)
    table = dict(g.brackets)

    def term(i: int, j: int, k: int) -> Fraction:  # theta([e_i, e_j], e_k), i < j
        return sum((x * b[m][k] for m, x in table.get((i, j), ())), Fraction(0))

    out = {}
    for i, j, k in combinations(range(g.dim), 3):
        value = term(i, k, j) - term(i, j, k) - term(j, k, i)
        if value:
            out[(i, j, k)] = value
    return out


def closed_rows(g: lf.LieAlgebra, forms: list[KForm]) -> list[tuple[Fraction, ...]]:
    """One row per triple i < j < k: d(form)(e_i, e_j, e_k) for each form."""
    differentials = [d_two_form(g, f) for f in forms]
    return [tuple(d.get(t, Fraction(0)) for d in differentials) for t in combinations(range(g.dim), 3)]


def cocycle_basis(g: lf.LieAlgebra) -> list[KForm]:
    """Basis of the closed 2-forms on g."""
    pairs = pair_basis(g.dim)
    rows = closed_rows(g, [KForm.from_coeffs(g.dim, 2, {p: 1}) for p in pairs])
    basis = nullspace(rows, len(pairs))
    return [
        KForm.from_coeffs(g.dim, 2, {p: v for p, v in zip(pairs, vec) if v != 0}) for vec in basis
    ]


def random_cocycle(rng: random.Random, g: lf.LieAlgebra) -> KForm:
    from forms_oracle import add

    theta = KForm.zero(g.dim, 2)
    for form in cocycle_basis(g):
        theta = add(theta, form.scale(random_scalar(rng)))
    return theta


def random_derivation(rng: random.Random, g: lf.LieAlgebra):
    _, basis = lf.derivation_space(g, [lf.Leibniz()])
    out = [[Fraction(0)] * g.dim for _ in range(g.dim)]
    for m in basis:
        c = random_scalar(rng)
        if c == 0:
            continue
        for i in range(g.dim):
            for j in range(g.dim):
                out[i][j] += c * m[i][j]
    return tuple(tuple(row) for row in out)


def random_jacobi_algebra(rng: random.Random, dim: int) -> lf.LieAlgebra:
    """Random algebra of the requested dimension satisfying Jacobi exactly."""
    g = lf.LieAlgebra.abelian(rng.randint(1, max(1, min(2, dim))))
    while g.dim < dim:
        if rng.random() < 0.5:
            g = lf.central_extension(g, random_cocycle(rng, g)).algebra
        else:
            g = lf.derivation_extension(g, random_derivation(rng, g)).algebra
    return g


def heisenberg_plus_abelian(k: int, r: int = 0) -> lf.LieAlgebra:
    """h_{2k+1} + R^r on (x_1..x_k, y_1..y_k, z, a_1..a_r), [x_i, y_i] = z."""
    return lf.LieAlgebra(2 * k + 1 + r, {(i, k + i): {2 * k: 1} for i in range(k)})


def mat_inverse(m):
    """m^-1, or None when m is singular: with m = mi/d, row k of the reduced [mi | I]
    (linalg._eliminate) is row k of mi^-1 over the row's entry at column k."""
    mi, d = int_matrix(m)
    n = len(mi)
    work, pivots = _eliminate([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(mi)])
    if pivots != list(range(n)):
        return None
    return tuple(vector_over([d * x for x in row[n:]], row[k]) for k, row in enumerate(work))


def random_invertible(rng: random.Random, dim: int):
    from lieforge.linalg import det

    while True:
        p = random_matrix(rng, dim)
        if det(p) != 0:
            return p


def random_complex_structure(rng: random.Random, dim: int):
    """J with J^2 = -Id, conjugate of the standard block rotation."""
    assert dim % 2 == 0
    j0 = [[Fraction(0)] * dim for _ in range(dim)]
    for k in range(dim // 2):
        j0[2 * k][2 * k + 1] = Fraction(-1)
        j0[2 * k + 1][2 * k] = Fraction(1)
    j0 = tuple(tuple(r) for r in j0)
    p = random_invertible(rng, dim)
    return conjugate_map(j0, mat_inverse(p), p)  # P J0 P^-1


def invariant_closed_two_forms(g: lf.LieAlgebra, j) -> list[KForm]:
    """Basis of {omega : d(omega) = 0, omega(J.,J.) = omega}."""
    from forms_oracle import evaluate
    from linalg_oracle import column

    pairs = pair_basis(g.dim)
    base_forms = [KForm.from_coeffs(g.dim, 2, {p: 1}) for p in pairs]
    rows = closed_rows(g, base_forms)
    for a, b in pairs:
        ja, jb = column(j, a), column(j, b)
        rows.append(
            tuple(
                evaluate(f, (ja, jb)) - evaluate(f, (g.basis_vector(a), g.basis_vector(b)))
                for f in base_forms
            )
        )
    basis = nullspace(rows, len(pairs))
    return [
        KForm.from_coeffs(g.dim, 2, {p: v for p, v in zip(pairs, vec) if v != 0}) for vec in basis
    ]


def conjugate_algebra(g: lf.LieAlgebra, p, pinv) -> lf.LieAlgebra:
    """Structure constants in the basis e'_i = P e_i: [e'_i, e'_j] = P^-1 [P e_i, P e_j], labels kept.
    With P = pi/dp, P^-1 = qi/dq and D the algebra's denominator, _bracket_ints of columns i and j
    of pi is D dp^2 [P e_i, P e_j]."""
    n = g.dim
    (pi, dp), (qi, dq) = int_matrix(p), int_matrix(pinv)
    den, cols = dq * g._integer_terms[0] * dp * dp, list(zip(*pi))
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            image = int_apply(qi, _bracket_ints(g, cols[i], cols[j]))
            table[(i, j)] = [(k, Fraction(c, den)) for k, c in enumerate(image) if c]
    return lf.LieAlgebra(n, table, g.labels)


def conjugate_map(m, p, pinv):
    """P^-1 M P."""
    (mi, dm), (pi, dp), (qi, dq) = int_matrix(m), int_matrix(p), int_matrix(pinv)
    return tuple(vector_over(row, dq * dm * dp) for row in int_mul(qi, int_mul(mi, pi)))


def conjugate_one_form(alpha: KForm, p) -> KForm:
    """alpha'(x) = alpha(P x): coefficient i is alpha(P e_i), so coords transform by P transpose."""
    (a, da), (pi, dp) = alpha._ints, int_matrix(p)
    coeffs = [((i,), Fraction(c, da * dp)) for i, c in enumerate(int_apply(zip(*pi), a)) if c]
    return KForm(alpha.dim, 1, tuple(coeffs))


def conjugate_two_form(omega: KForm, p) -> KForm:
    """omega'(x, y) = omega(P x, P y): the skew matrix P^T omega P."""
    (a, da), (pi, dp), n = omega._ints, int_matrix(p), omega.dim
    t = int_mul(zip(*pi), int_mul(a, pi))
    coeffs = [((i, j), Fraction(t[i][j], da * dp * dp)) for i in range(n) for j in range(i + 1, n) if t[i][j]]
    return KForm(n, 2, tuple(coeffs))


def shuffle_wedge_eval(a: KForm, b: KForm, vectors) -> Fraction:
    """Independent wedge evaluation: the shuffle-sum definition."""
    from forms_oracle import evaluate

    p, q = a.degree, b.degree
    assert len(vectors) == p + q
    total = Fraction(0)
    for left in combinations(range(p + q), p):
        right = tuple(i for i in range(p + q) if i not in left)
        perm = left + right
        sign = permutation_sign(perm)
        total += sign * evaluate(a, [vectors[i] for i in left]) * evaluate(b, [vectors[i] for i in right])
    return total


def permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
