"""Shared generators and independent oracles for the test suite.

Random Lie algebras are produced by iterated central and derivation
extensions starting from abelian algebras, so every sample satisfies the
Jacobi identity exactly. All sampling uses seeded random.Random for
reproducibility.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import lieforge as lf
from lieforge.forms import KForm, ce_differential
from lieforge.linalg import identity, nullspace, solve_unique

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


def cocycle_basis(g: lf.LieAlgebra) -> list[KForm]:
    """Basis of the closed 2-forms on g."""
    pairs = pair_basis(g.dim)
    differentials = [ce_differential(g, KForm.from_coeffs(g.dim, 2, {p: 1})) for p in pairs]
    triples = list(combinations(range(g.dim), 3))
    rows = [tuple(d.coeff(t) for d in differentials) for t in triples]
    basis = nullspace(rows, len(pairs))
    return [
        KForm.from_coeffs(g.dim, 2, {p: v for p, v in zip(pairs, vec) if v != 0}) for vec in basis
    ]


def random_cocycle(rng: random.Random, g: lf.LieAlgebra) -> KForm:
    theta = KForm.zero(g.dim, 2)
    for form in cocycle_basis(g):
        theta = theta.add(form.scale(random_scalar(rng)))
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
    return lf.LieAlgebra.from_brackets(2 * k + 1 + r, {(i, k + i): {2 * k: 1} for i in range(k)})


def mat_inverse(m):
    n = len(m)
    cols = []
    basis = identity(n)
    for k in range(n):
        col = solve_unique(m, basis[k])
        if col is None:
            return None
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


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
    from lieforge.linalg import mat_mul

    return mat_mul(p, mat_mul(j0, mat_inverse(p)))


def invariant_closed_two_forms(g: lf.LieAlgebra, j) -> list[KForm]:
    """Basis of {omega : d(omega) = 0, omega(J.,J.) = omega}."""
    from lieforge.linalg import column

    pairs = pair_basis(g.dim)
    base_forms = [KForm.from_coeffs(g.dim, 2, {p: 1}) for p in pairs]
    rows = []
    differentials = [ce_differential(g, f) for f in base_forms]
    for t in combinations(range(g.dim), 3):
        rows.append(tuple(d.coeff(t) for d in differentials))
    for a, b in pairs:
        ja, jb = column(j, a), column(j, b)
        rows.append(
            tuple(
                f.evaluate((ja, jb)) - f.evaluate((g.basis_vector(a), g.basis_vector(b)))
                for f in base_forms
            )
        )
    basis = nullspace(rows, len(pairs))
    return [
        KForm.from_coeffs(g.dim, 2, {p: v for p, v in zip(pairs, vec) if v != 0}) for vec in basis
    ]


def conjugate_algebra(g: lf.LieAlgebra, p, pinv) -> lf.LieAlgebra:
    """Structure constants in the basis e'_i = P e_i."""
    from lieforge.algebra import bracket
    from lieforge.linalg import column, mat_vec

    brackets = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            v = mat_vec(pinv, bracket(g, column(p, i), column(p, j)))
            entries = {k: val for k, val in enumerate(v) if val}
            if entries:
                brackets[(i, j)] = entries
    return lf.LieAlgebra.from_brackets(g.dim, brackets)


def conjugate_map(m, p, pinv):
    from lieforge.linalg import mat_mul

    return mat_mul(pinv, mat_mul(m, p))


def conjugate_one_form(alpha: KForm, p) -> KForm:
    """alpha'(x) = alpha(P x), so coords transform by P transpose."""
    from lieforge.linalg import mat_vec, transpose

    coords = tuple(alpha.coeff((i,)) for i in range(alpha.dim))
    return KForm.one_form(alpha.dim, mat_vec(transpose(p), coords))


def conjugate_two_form(omega: KForm, p) -> KForm:
    """omega'(x, y) = omega(P x, P y)."""
    from lieforge.linalg import column

    entries = {}
    for a in range(omega.dim):
        for b in range(a + 1, omega.dim):
            entries[(a, b)] = omega.evaluate((column(p, a), column(p, b)))
    return KForm.two_form(omega.dim, entries)


def shuffle_wedge_eval(a: KForm, b: KForm, vectors) -> Fraction:
    """Independent wedge evaluation: the shuffle-sum definition."""
    p, q = a.degree, b.degree
    assert len(vectors) == p + q
    total = Fraction(0)
    for left in combinations(range(p + q), p):
        right = tuple(i for i in range(p + q) if i not in left)
        perm = left + right
        sign = permutation_sign(perm)
        total += sign * a.evaluate([vectors[i] for i in left]) * b.evaluate(
            [vectors[i] for i in right]
        )
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
