import copy
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import derivations_oracle
import lieforge as lf
import linalg_oracle as oracle
from lieforge import linalg
from lieforge.derivations import FormEigen, Leibniz, derivation_space
from lieforge.forms import KForm
from lieforge.linalg import (
    det,
    fmt_vector,
    matrix,
    nullspace,
    pack,
    positive_definite,
    scalar,
    slot_width,
    solve_affine,
    sub_pfaffians,
    unpack,
    vector,
)

from conftest import conjugate_algebra, conjugate_one_form, mat_inverse, random_matrix
from linalg_oracle import mat_vec
from strategies import conjugated_heisenberg_sasakian


def reduced(rows):
    """(nonzero rows, pivot columns) of the reduced echelon form, read off _eliminate's two passes:
    each reduced row over its entry at its pivot. nullspace and _inverse read the same rows."""
    work, pivots, _, _ = linalg._eliminate(rows)
    return tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in zip(work, pivots)), tuple(pivots)


def test_scalar_parsing():
    assert scalar("3/4") == Fraction(3, 4)
    assert scalar(-2) == Fraction(-2)
    assert scalar(Fraction(1, 3)) == Fraction(1, 3)


def test_scalar_rejects_floats_and_bools():
    import pytest

    with pytest.raises(TypeError):
        scalar(0.5)
    with pytest.raises(TypeError):
        scalar(True)


@pytest.mark.parametrize("bad", [0.1, 1.0, 0.0, "1/2", None])
def test_solvers_refuse_inexact_entries(bad):
    # a float has an integer ratio too, so it reached the eliminations as its binary expansion:
    # nullspace([[0.1, 1]], 2) gave (1, -3602879701896397/36028797018963968)
    for call in (
        lambda: nullspace([(bad, 1)], 2),
        lambda: solve_affine([(bad, 1)], [1]),
        lambda: solve_affine([(1, 0), (0, 1)], [1, bad]),
        lambda: solve_affine([(1, 0), (0, 1)], [0, bad]),  # a homogeneous system is no way round
        lambda: det(((1, 1), (bad, 1))),
        lambda: positive_definite(((1, 0), (0, bad))),
    ):
        with pytest.raises(TypeError, match="not an exact scalar"):
            call()
    assert nullspace([(Fraction(1, 10), 1)], 2) == ((1, Fraction(-1, 10)),)


def test_rref_simple():
    m = matrix([[2, 4], [1, 2]])
    red, pivots = reduced(m)
    assert red == matrix([[1, 2]])
    assert pivots == (0,)


def test_nullspace_canonical():
    # x0 = x1, canonical basis row (1, 1)
    basis = nullspace(matrix([[1, -1]]), 2)
    assert basis == matrix([[1, 1]])


def test_solve_affine_inconsistent():
    part, null = solve_affine(matrix([[1, 0], [1, 0]]), vector([1, 2]))
    assert part is None


def test_det_and_positive_definite():
    assert det(matrix([[1, 2], [3, 4]])) == -2
    ok, _ = positive_definite(matrix([[2, -1], [-1, 2]]))
    assert ok
    bad, minor = positive_definite(matrix([[1, 2], [2, 1]]))
    assert not bad and minor == 2


def test_solutions_satisfy_system():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(m))
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        rhs = mat_vec(rows, x)
        part, null = solve_affine(rows, rhs)
        assert part is not None
        assert mat_vec(rows, part) == rhs
        for v in null:
            assert mat_vec(rows, v) == (Fraction(0),) * m
        # rank-nullity
        _, pivots = reduced(rows)
        assert len(pivots) + len(null) == n
        assert oracle.in_span(null + (part,), x) or part == x or oracle.in_span(null, tuple(a - b for a, b in zip(x, part)))


def test_nullspace_of_random_matrix_annihilates():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        for v in nullspace(m, n):
            assert mat_vec(m, v) == (Fraction(0),) * n


def test_fmt_vector():
    labels = ("e1", "e2", "e3")
    assert fmt_vector(vector([1, 0, 0]), labels) == "e1"
    assert fmt_vector(vector([0, -1, "1/2"]), labels) == "-e2 + 1/2*e3"
    assert fmt_vector(vector([0, 0, 0]), labels) == "0"


FORMAT_COEFFICIENTS = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1), Fraction(-1, 2), Fraction(2, -3)]),
    st.integers(-(10**20), 10**20),
    st.integers(-(10**20), 10**20).map(Fraction),
    st.builds(Fraction, st.integers(-(10**6), -1), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(FORMAT_COEFFICIENTS, max_size=6))
def test_fmt_vector_matches_the_comparison_formatter(v):
    # 0, +-1, ints, integer-valued and negative Fractions, mixed: the same bytes as the formatter
    # that compared each coefficient with 0, 1 and -1
    labels = [f"e{i + 1}" for i in range(len(v))]
    assert fmt_vector(v, labels) == oracle.fmt_vector(v, labels)
    assert fmt_vector(tuple(map(Fraction, v)), labels) == oracle.fmt_vector(v, labels)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pack_matches_the_generator_sum(data):
    # signed entries up to the slot's extremes +-(2^(w-1) - 1), in any order, repeats and none included
    width = data.draw(st.integers(1, 130))
    top = (1 << (width - 1)) - 1
    value = st.one_of(st.sampled_from([top, -top, 0]), st.integers(-top, top))
    entries = data.draw(st.lists(st.tuples(st.integers(0, 12), value), max_size=14))
    assert pack(entries, width) == sum(x << (width * l) for l, x in entries)
    assert pack(iter(entries), width) == pack(entries, width)
    distinct = dict(entries)
    assert unpack(pack(distinct.items(), width), 13, width) == [distinct.get(l, 0) for l in range(13)]


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 7, 8, 255, 256, 2**64 - 1, 2**64, 10**40])
def test_packed_slots_at_the_bound(bound):
    # coordinates at +-bound, the largest magnitude slot_width(bound) allows, reached the way
    # the kernels reach them: as a sum of packed vectors and an integer multiple of one
    width = slot_width(bound)
    for v in ([bound] * 5, [-bound] * 5, [bound, -bound, 0, -bound, bound], [-bound, 1, -1, bound, 0]):
        if bound == 0 and any(v):
            continue
        half = [x // 2 for x in v]
        rest = [x - 2 * h for x, h in zip(v, half)]
        p = 2 * pack(enumerate(half), width) + pack(enumerate(rest), width)
        assert unpack(p, 5, width) == v
        assert unpack(pack([(3, bound)], width), 5, width) == [0, 0, 0, bound, 0]


# --- the integer kernel against the Fraction Gauss-Jordan oracle -------------
#
# Every comparison is tuple equality of Fractions, so the fast path must give
# the oracle's exact values, not just equivalent ones.

SMALL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2, 3]))
WIDE = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
ENTRIES = st.one_of(st.just(Fraction(0)), SMALL, WIDE)


@st.composite
def matrices(draw, max_rows=6, max_cols=6, square=False):
    """Random rows plus rows that are combinations of them, so rank varies."""
    ncols = draw(st.integers(1 if square else 0, max_cols))
    nrows = ncols if square else draw(st.integers(0, max_rows))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(SMALL), draw(SMALL)
            rows.append(tuple(ca * x + cb * y for x, y in zip(a, b)))
        else:
            rows.append(tuple(draw(ENTRIES) for _ in range(ncols)))
    return tuple(rows)


def with_rhs(rows, draw):
    """A consistent right-hand side (rows @ x) or an arbitrary one."""
    if draw(st.booleans()):
        x = tuple(draw(ENTRIES) for _ in range(len(rows[0]) if rows else 0))
        return mat_vec(rows, x)
    return tuple(draw(ENTRIES) for _ in rows)


EDGE_CASES = [
    (),
    ((),),
    matrix([[0, 0, 0]]),
    matrix([[0, 0], [0, 0], [0, 0]]),
    matrix([[0, "-7/3", 5, 0]]),
    matrix([[-2, 1], [1, "-1/999999"]]),
    matrix([["1/1000000", "-999999/1000000"], ["-3/7", "2/5"]]),
]


@pytest.mark.parametrize("rows", EDGE_CASES)
def test_edge_cases_match_oracle(rows):
    ncols = len(rows[0]) if rows else 0
    assert reduced(rows) == oracle.rref(rows)
    assert nullspace(rows, ncols) == oracle.nullspace(rows, ncols)
    rhs = tuple(Fraction(i + 1) for i in range(len(rows)))
    assert solve_affine(rows, rhs) == oracle.solve_affine(rows, rhs)
    if len(rows) == ncols:
        assert det(rows) == oracle.det(rows)
        assert positive_definite(rows) == oracle.positive_definite(rows)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_and_nullspace_match_oracle(rows):
    ncols = len(rows[0]) if rows else 0
    assert reduced(rows) == oracle.rref(rows)
    assert nullspace(rows, ncols) == oracle.nullspace(rows, ncols)


@pytest.mark.parametrize("rows", EDGE_CASES)
def test_homogeneous_edge_cases_match_oracle(rows):
    zeros = (Fraction(0),) * len(rows)
    assert solve_affine(rows, zeros) == oracle.solve_affine(rows, zeros)


@st.composite
def rank_deficient(draw, max_rows=10, max_cols=14):
    """Wide, tall or square rows of low rank: combinations of a few random rows,
    with repeated rows, zero rows and zero columns mixed in."""
    ncols = draw(st.integers(0, max_cols))
    nrows = draw(st.integers(1, max_rows))
    base = [tuple(draw(ENTRIES) for _ in range(ncols)) for _ in range(draw(st.integers(1, 4)))]
    zero_cols = set(draw(st.lists(st.integers(0, max(ncols - 1, 0)), max_size=3))) if ncols else set()
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["combination", "repeat", "zero", "random"]))
        if kind == "repeat" and rows:
            row = draw(st.sampled_from(rows))
        elif kind == "zero":
            row = (Fraction(0),) * ncols
        elif kind == "random":
            row = tuple(draw(ENTRIES) for _ in range(ncols))
        else:
            coeffs = [draw(SMALL) for _ in base]
            row = tuple(sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0)) for j in range(ncols))
        rows.append(tuple(Fraction(0) if j in zero_cols else x for j, x in enumerate(row)))
    return tuple(rows)


@settings(max_examples=150, deadline=None)
@given(rank_deficient())
def test_nullspace_and_homogeneous_solve_match_oracle_on_rank_deficient_rows(rows):
    ncols = len(rows[0])
    assert nullspace(rows, ncols) == oracle.nullspace(rows, ncols)
    zeros = (Fraction(0),) * len(rows)
    assert solve_affine(rows, zeros) == oracle.solve_affine(rows, zeros)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_affine_solve_matches_oracle_on_rank_deficient_rows(data):
    rows = data.draw(rank_deficient())
    rhs = with_rhs(rows, data.draw)
    assert solve_affine(rows, rhs) == oracle.solve_affine(rows, rhs)


@settings(max_examples=150, deadline=None)
@given(rank_deficient())
def test_both_passes_match_the_oracle_on_rank_deficient_rows(rows):
    # _eliminate's forward pass and its back pass against Fraction Gauss-Jordan, on the rows as drawn
    # (zero, repeated and dependent rows) and sorted so that rows with zeros in the first columns
    # come first, which makes the forward pass exchange them for the rows below
    exchanged = tuple(sorted(rows, key=lambda row: [x != 0 for x in row]))
    for system in (rows, exchanged):
        red, pivots = oracle.rref(system)
        assert reduced(system) == (red, pivots)
        assert tuple(linalg._eliminate(system, reduce=False)[1]) == pivots


def test_nullspace_rejects_rows_of_the_wrong_width():
    with pytest.raises(lf.DimensionMismatch):
        nullspace(matrix([[1, 2, 3]]), 2)
    with pytest.raises(lf.DimensionMismatch):
        nullspace(matrix([[1, 2], [3, 4, 5]]), 2)
    with pytest.raises(lf.DimensionMismatch):
        nullspace(((),), 1)


def test_eliminations_reject_misshapen_input():
    # ragged rows and non-square matrices are refused, as nullspace refuses rows of the wrong width
    with pytest.raises(lf.DimensionMismatch):
        solve_affine(matrix([[1, 2], [3]]), vector([1, 1]))
    with pytest.raises(lf.DimensionMismatch):
        solve_affine(matrix([[1, 2], [3]]), vector([0, 0]))
    with pytest.raises(lf.DimensionMismatch):
        det(matrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(lf.DimensionMismatch):
        det(matrix([[1, 2], [3]]))
    with pytest.raises(lf.DimensionMismatch):
        positive_definite(matrix([[2, 0, 0], [0, 2, 0]]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solvers_match_oracle(data):
    rows = data.draw(matrices())
    rhs = with_rhs(rows, data.draw)
    assert solve_affine(rows, rhs) == oracle.solve_affine(rows, rhs)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_det_matches_oracle(m):
    assert det(m) == oracle.det(m)


def ldu(lower, d, upper):
    """L diag(d) U. With L unit lower and U unit upper triangular, leading minor k is d_1 ... d_k,
    so the first zero or negative d_k fails minor k whatever follows; U = L^T makes it symmetric."""
    n = len(d)
    return tuple(
        tuple(sum((lower[i][t] * d[t] * upper[t][j] for t in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def unit_triangular(entries, lower):
    """The unit lower (or upper) triangular part of a square matrix of entries."""
    n = len(entries)
    return tuple(
        tuple(entries[i][j] if (j < i if lower else j > i) else Fraction(int(i == j)) for j in range(n))
        for i in range(n)
    )


def leading_minors_verdict(d):
    """The (ok, first failing minor) of L diag(d) U, read off the running products of d."""
    minor = Fraction(1)
    for k, x in enumerate(d, start=1):
        minor *= x
        if minor <= 0:
            return False, k
    return True, None


@settings(max_examples=200, deadline=None)
@given(matrices(square=True), st.integers(-3, 3), st.data())
def test_positive_definite_matches_oracle(m, shift, data):
    # M^T M + shift*I: positive definite, semidefinite or indefinite, with
    # negative and zero pivots at every position.
    n = len(m)
    gram = tuple(
        tuple(
            sum((m[k][i] * m[k][j] for k in range(n)), Fraction(0)) + (shift if i == j else 0)
            for j in range(n)
        )
        for i in range(n)
    )
    assert positive_definite(gram) == oracle.positive_definite(gram)
    assert positive_definite(m) == oracle.positive_definite(m)
    # L D L^T (the symmetric sweep) and L D U (the general one) from the entries of m, with a drawn
    # diagonal: positive, or with a zero or negative entry at any position
    diagonal_entries = st.one_of(st.sampled_from([1, 2, 0, -1]).map(Fraction), SMALL, WIDE)
    d = data.draw(st.lists(diagonal_entries, min_size=n, max_size=n))
    lower = unit_triangular(m, lower=True)
    for upper in (tuple(zip(*lower)), unit_triangular(m, lower=False)):
        a = ldu(lower, d, upper)
        assert positive_definite(a) == oracle.positive_definite(a) == leading_minors_verdict(d)
        if all(x.denominator == 1 for row in a for x in row):  # the integer rows _metric_checks passes
            assert positive_definite([[int(x) for x in row] for row in a]) == leading_minors_verdict(d)


@pytest.mark.parametrize("bad", [0, -1, Fraction(-2, 3)])
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_positive_definite_fails_at_each_pivot(n, bad):
    # a zero or negative d_k at each position k of L D L^T and of a non-symmetric L D U, over integer
    # and Fraction L: the sweep names minor k, as the oracle does; with every d_k positive, it passes
    rng = random.Random(n)
    for k in [None, *range(n)]:
        for den in (1, 3):
            entries = [[Fraction(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(n)] for _ in range(n)]
            lower = unit_triangular(entries, lower=True)
            d = [Fraction(rng.randint(1, 4)) for _ in range(n)]
            if k is not None:
                d[k] = Fraction(bad)
            expected = (True, None) if k is None else (False, k + 1)
            for upper in (tuple(zip(*lower)), unit_triangular(entries, lower=False)):
                a = ldu(lower, d, upper)
                assert positive_definite(a) == oracle.positive_definite(a) == expected
                if all(x.denominator == 1 for row in a for x in row):
                    assert positive_definite([[int(x) for x in row] for row in a]) == expected


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_positive_definite_matches_oracle_on_sasakian_metrics(m):
    # the metric check_sasakian decides on dense h7..h19, as Fractions and over one denominator, then
    # with its pivot at k = 0, n/2 or n - 1 brought to 0 and below: minor k + 1 fails there
    g, reeb, alpha, phi = conjugated_heisenberg_sasakian(m, 1)
    metric = lf.check_sasakian(g, reeb, alpha, phi)[1].metric
    n = len(metric)
    assert positive_definite(metric) == oracle.positive_definite(metric) == (True, None)
    assert positive_definite(linalg.int_matrix(metric)[0]) == (True, None)
    for k in (0, n // 2, n - 1):
        minor, previous = (oracle.det(tuple(row[:j] for row in metric[:j])) for j in (k + 1, k))
        pivot = minor / previous
        for drop in (pivot, 2 * pivot):
            a = tuple(tuple(x - drop if i == j == k else x for j, x in enumerate(row)) for i, row in enumerate(metric))
            assert positive_definite(a) == oracle.positive_definite(a) == (False, k + 1)


@st.composite
def dense_h5(draw):
    """h5 ([x1,y1] = [x2,y2] = z) in a random integer basis, with z* there."""
    p = tuple(tuple(Fraction(draw(st.integers(-2, 2))) for _ in range(5)) for _ in range(5))
    assume(oracle.det(p) != 0)
    h5 = lf.LieAlgebra(5, {(0, 2): {4: 1}, (1, 3): {4: 1}})
    g = conjugate_algebra(h5, p, mat_inverse(p))
    return g, conjugate_one_form(KForm.basis_one_form(5, 4), p)


@settings(max_examples=15, deadline=None)
@given(dense_h5(), st.booleans())
def test_dense_leibniz_systems_match_oracle(case, inconsistent):
    g, alpha = case
    rows, rhs = Leibniz().rows(g)
    assert nullspace(rows, 25) == oracle.nullspace(derivations_oracle._leibniz_rows(g)[0], 25)
    eigen_rows, eigen_rhs = FormEigen(alpha, Fraction(1)).rows(g)
    rows, rhs = rows + eigen_rows, rhs + eigen_rhs
    if inconsistent:  # a repeated equation with another right-hand side
        rows, rhs = rows + [rows[0]], rhs + [rhs[0] + 1]
    got = solve_affine(rows, rhs)
    assert got == oracle.solve_affine(rows, rhs)
    assert (got[0] is None) == inconsistent


# --- sub_pfaffians: the bordered Pfaffian as a linear form in the border -------

KERNEL_ENTRIES = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**40), 10**40))


def skew_ints(n, upper):
    """The n x n integer skew matrix whose strict upper triangle, row by row, is upper."""
    a = [[0] * n for _ in range(n)]
    entries = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = next(entries)
            a[j][i] = -a[i][j]
    return a


def bordered(a, u):
    """[[0, u], [-u^T, a]] as a Fraction matrix."""
    return matrix([[0] + list(u)] + [[-x] + list(row) for x, row in zip(u, a)])


def without(a, j):
    return [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(a) if r != j]


@st.composite
def odd_skew_ints(draw):
    """An odd-sized integer skew matrix of size 1-9, entries up to 10^40, with its first rows and
    columns zeroed (the pivot pair must move in: both indices exchanged) or its first pivot a_01
    zeroed (only the second index exchanged)."""
    n = draw(st.sampled_from([1, 3, 5, 7, 9]))
    size = n * (n - 1) // 2
    a = skew_ints(n, draw(st.lists(KERNEL_ENTRIES, min_size=size, max_size=size)))
    for i in range(min(n, draw(st.integers(0, 2)))):
        for j in range(n):
            a[i][j] = a[j][i] = 0
    if n > 1 and draw(st.booleans()):
        a[0][1] = a[1][0] = 0
    return a


def test_pfaffian_small_cases():
    # Pf([[0, r], [-r^T, m']]) = sub_pfaffians(m') . r, against the plain skew elimination
    def check(m_prime, r, expected):
        w = sub_pfaffians(m_prime)
        assert sum(x * y for x, y in zip(w, r)) == oracle.pfaffian(bordered(m_prime, r)) == expected

    # the empty matrix: w_0 of a 1 x 1 matrix is Pf(()) = 1
    assert sub_pfaffians([[0]]) == [1] == [oracle.pfaffian(())]
    check([[0]], [Fraction(3, 2)], Fraction(3, 2))
    # a14 a23 - a13 a24 + a12 a34 with a12 = 0: the skew elimination of the whole matrix needs an exchange
    check([[0, 3, 4], [-3, 0, 5], [-4, -5, 0]], [0, 1, 2], 2 * 3 - 1 * 4)
    check([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]], [0, 0, 0], 0)
    # Fraction entries in the border: a12 a34 - a13 a24 + a14 a23
    check([[0, 3, 4], [-3, 0, 5], [-4, -5, 0]], [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)], Fraction(21, 2))


@settings(max_examples=150, deadline=None)
@given(odd_skew_ints(), st.data())
def test_sub_pfaffians_are_the_bordered_pfaffian(a, data):
    n = len(a)
    w = sub_pfaffians(a)
    assert all(sum(x * y for x, y in zip(row, w)) == 0 for row in a)
    assert w == [(-1) ** j * oracle.pfaffian(matrix(without(a, j))) for j in range(n)]
    u = data.draw(st.lists(KERNEL_ENTRIES, min_size=n, max_size=n))
    pf = oracle.pfaffian(bordered(a, u))
    assert sum(x * y for x, y in zip(w, u)) == pf
    assert pf**2 == oracle.det(bordered(a, u))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sub_pfaffians_vanish_below_rank_n_minus_1(data):
    # a = C S C^T with S skew of even size r <= n - 3 has rank at most r < n - 1
    n = data.draw(st.sampled_from([3, 5, 7, 9]))
    r = data.draw(st.sampled_from(range(0, n - 2, 2)))
    s = skew_ints(r, data.draw(st.lists(KERNEL_ENTRIES, min_size=r * (r - 1) // 2, max_size=r * (r - 1) // 2)))
    c = [data.draw(st.lists(KERNEL_ENTRIES, min_size=r, max_size=r)) for _ in range(n)]
    cs = [[sum(x * s[k][l] for k, x in enumerate(row)) for l in range(r)] for row in c]
    a = [[sum(x * y for x, y in zip(left, right)) for right in c] for left in cs]
    assert sub_pfaffians(a) == [0] * n


def test_sub_pfaffians_small_cases():
    assert sub_pfaffians([[0]]) == [1]  # Pf([[0, u], [-u, 0]]) = u
    assert sub_pfaffians([[0, 2, 3], [-2, 0, 5], [-3, -5, 0]]) == [5, -3, 2]
    assert sub_pfaffians(skew_ints(5, [0] * 10)) == [0] * 5
    # row 0 is zero and a_12 = 0: the first pivot pair is (1, 3), so both of its indices are
    # exchanged; only w_0 = Pf(a without 0) = a_12 a_34 - a_13 a_24 + a_14 a_23 is nonzero
    a = skew_ints(5, [0, 0, 0, 0, 0, 2, 1, 3, 5, 7])
    assert sub_pfaffians(a) == [0 * 7 - 2 * 5 + 1 * 3, 0, 0, 0, 0]
    # a_01 = 0 with row 0 nonzero: only the second index is exchanged
    a = skew_ints(3, [0, 4, 6])
    assert sub_pfaffians(a) == [6, -4, 0]


# --- tall systems: rows selected mod p, eliminated exactly, checked ------------
#
# A system with at least twice as many rows as columns, and at least 8
# columns, is eliminated on the rows independent mod linalg._PRIME alone; every
# other row is then checked against the result, and the rows that fail it are
# eliminated too. These tests pin that path to the oracle and make it fall back.


def tall_rows(draw, ncols, nrows, scale=1):
    """nrows rows over ncols columns of low rank: combinations of a few random rows,
    with repeated rows, zero rows and zero columns mixed in, each entry times scale."""
    base = [tuple(draw(ENTRIES) for _ in range(ncols)) for _ in range(draw(st.integers(0, ncols)))]
    zero_cols = set(draw(st.lists(st.integers(0, ncols - 1), max_size=3)))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["combination", "combination", "repeat", "zero", "random"]))
        if kind == "repeat" and rows:
            row = draw(st.sampled_from(rows))
        elif kind == "zero" or (kind == "combination" and not base):
            row = (Fraction(0),) * ncols
        elif kind == "random":
            row = tuple(draw(ENTRIES) for _ in range(ncols))
        else:
            coeffs = [draw(SMALL) for _ in base]
            row = tuple(sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0)) for j in range(ncols))
        rows.append(tuple(Fraction(0) if j in zero_cols else scale * x for j, x in enumerate(row)))
    return tuple(rows)


@st.composite
def tall_systems(draw, scale=1):
    """(rows, rhs): at least 2*(ncols+1) rows over 8 to 11 columns, so that the
    homogeneous and the augmented system are both tall, with a consistent or an
    arbitrary right-hand side."""
    ncols = draw(st.integers(8, 11))
    rows = tall_rows(draw, ncols, draw(st.integers(2 * ncols + 2, 2 * ncols + 10)), scale)
    return rows, with_rhs(rows, draw)


def assert_solves_match_oracle(rows, rhs):
    ncols = len(rows[0])
    assert nullspace(rows, ncols) == oracle.nullspace(rows, ncols)
    zeros = (Fraction(0),) * len(rows)
    assert solve_affine(rows, zeros) == oracle.solve_affine(rows, zeros)
    assert solve_affine(rows, rhs) == oracle.solve_affine(rows, rhs)


@settings(max_examples=40, deadline=None)
@given(tall_systems())
def test_tall_systems_match_oracle(system):
    assert_solves_match_oracle(*system)


@pytest.fixture
def selections(monkeypatch):
    """The widths of the systems that took the mod-p row selection, in call order."""
    seen = []
    select = linalg._independent_mod_p

    def spy(ints, ncols):
        seen.append(ncols)
        return select(ints, ncols)

    monkeypatch.setattr(linalg, "_independent_mod_p", spy)
    return seen


@pytest.fixture
def fallbacks(monkeypatch):
    """The number of rows each failed check added back, in call order."""
    added = []
    unsatisfied = linalg._unsatisfied

    def spy(*args):
        failing = unsatisfied(*args)
        if failing:
            added.append(len(failing))
        return failing

    monkeypatch.setattr(linalg, "_unsatisfied", spy)
    return added


@pytest.mark.parametrize("prime", [2, 3])
@settings(max_examples=20, deadline=None)
@given(system=tall_systems())
def test_tall_systems_match_oracle_modulo_a_bad_prime(prime, system):
    # rank drops mod 2 and 3 are common: the rows a drop leaves out fail the check
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_PRIME", prime)
        assert_solves_match_oracle(*system)


@pytest.mark.parametrize("prime", [2, 3, linalg._PRIME])
def test_rows_that_vanish_mod_the_prime_take_the_fallback(prime, monkeypatch, fallbacks):
    # every entry a multiple of the prime: no row is kept, every nonzero row fails the check
    monkeypatch.setattr(linalg, "_PRIME", prime)
    rng = random.Random(prime)
    base = [[prime * rng.randint(-3, 3) for _ in range(9)] for _ in range(5)]
    coeffs = [[rng.randint(-2, 2) for _ in base] for _ in range(24)]
    rows = matrix([[sum(c * b[j] for c, b in zip(cs, base)) for j in range(9)] for cs in coeffs])
    rhs = mat_vec(rows, vector([rng.randint(-2, 2) for _ in range(9)]))
    assert_solves_match_oracle(rows, rhs)
    assert_solves_match_oracle(rows, vector([prime * i for i in range(24)]))
    assert fallbacks


def test_a_last_row_that_vanishes_mod_the_prime_is_caught_by_the_check(fallbacks):
    # rank 3 mod p and over Q, then one row independent over Q but 0 mod p
    rng = random.Random(11)
    base = [[rng.randint(-3, 3) for _ in range(9)] for _ in range(3)]
    coeffs = [[rng.randint(-2, 2) for _ in base] for _ in range(19)]
    rows = [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(9)] for cs in coeffs]
    rows.append([linalg._PRIME * rng.randint(1, 3) for _ in range(9)])
    assert len(linalg._independent_mod_p(rows, 9)) == 3
    assert_solves_match_oracle(matrix(rows), vector([0] * 19 + [1]))
    assert fallbacks


@settings(max_examples=15, deadline=None)
@given(tall_systems(scale=linalg._PRIME))
def test_tall_systems_of_multiples_of_the_prime_match_oracle(system):
    assert_solves_match_oracle(*system)


@pytest.mark.parametrize(
    "nrows, ncols, tall",
    [(16, 8, True), (15, 8, False), (40, 7, False), (2, 0, False)],
)
def test_the_shape_rule_picks_the_path(nrows, ncols, tall, selections):
    rng = random.Random(nrows * ncols)
    rows = matrix([[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)])
    assert nullspace(rows, ncols) == oracle.nullspace(rows, ncols)
    assert selections == ([ncols] if tall else [])


def test_contact_reeb_system_stays_on_direct_elimination(selections):
    # check_contact reads the Reeb vector off linalg.sub_pfaffians and solves no system at all
    g, _, alpha, _ = conjugated_heisenberg_sasakian(4, 1)
    report, structure = lf.check_contact(g, alpha)
    assert report.overall and structure is not None
    assert selections == []


@pytest.mark.parametrize("m", [2, 3])
def test_dense_leibniz_rows_keep_one_row_per_rank(m, selections, fallbacks):
    # dense h5 and h7: 50 rows of rank 10 and 147 of rank 21, selected without fallback
    g, _, _, _ = conjugated_heisenberg_sasakian(m, 7)
    rows, _ = Leibniz().rows(g)
    n = g.dim
    der = nullspace(rows, n * n)
    assert len(rows) == n * n * (n - 1) // 2
    assert len(der) == 2 * m * m + 3 * m + 1
    keep = linalg._independent_mod_p([r[::-1] for r in rows], n * n)
    assert len(keep) == n * n - len(der)
    assert selections == [n * n, n * n] and fallbacks == []


def selection_systems():
    """The Leibniz systems of conjugated h5, h7 and h9 and of g0 and g5, as the row selection
    sees them: integer rows with the columns reversed, as nullspace passes them."""
    algebras = [conjugated_heisenberg_sasakian(m, 1)[0] for m in (2, 3, 4)]
    algebras += [lf.builtin(name).algebra for name in ("g0", "g5")]
    return [([r[::-1] for r in Leibniz().rows(g)[0]], g.dim * g.dim) for g in algebras]


def augmented_selection_systems():
    """The Leibniz + FormEigen(alpha, 1) systems of conjugated h5 and h7 as solve_affine passes them
    to the selection: the right-hand side appended, the columns not reversed, denominators cleared."""
    systems = []
    for m in (2, 3):
        g, _, alpha, _ = conjugated_heisenberg_sasakian(m, 1)
        rows, rhs = Leibniz().rows(g)
        eigen_rows, eigen_rhs = FormEigen(alpha, Fraction(1)).rows(g)
        augmented = [tuple(r) + (b,) for r, b in zip(rows + eigen_rows, rhs + eigen_rhs)]
        systems.append(([linalg.clear_denominators(r)[0] for r in augmented], g.dim * g.dim + 1))
    return systems


def full_rank_system():
    """20 random rows over 9 columns, of rank 9: the selection stops once it has kept 9 rows."""
    rng = random.Random(9)
    return [[rng.randint(-3, 3) for _ in range(9)] for _ in range(20)], 9


def test_projected_selection_keeps_the_rows_of_the_echelon_selection():
    systems = selection_systems() + augmented_selection_systems() + [full_rank_system()]
    for rows, ncols in systems:
        assert linalg._independent_mod_p(rows, ncols) == oracle.independent_mod_p(rows, ncols, linalg._PRIME)
    rows, ncols = full_rank_system()
    assert len(linalg._independent_mod_p(rows, ncols)) == ncols


def test_the_selection_reduces_only_the_rows_it_keeps(monkeypatch):
    # each kept row is packed twice, once reduced and once scaled to 1 at its pivot; a row the
    # projection does not skip is always kept, so no other row is packed
    packs = []
    pack64 = linalg._pack64

    def spy(entries):
        packs.append(entries)
        return pack64(entries)

    monkeypatch.setattr(linalg, "_pack64", spy)
    for rows, ncols in selection_systems():
        packs.clear()
        keep = linalg._independent_mod_p(rows, ncols)
        assert len(packs) == 2 * len(keep)


def test_an_independent_row_with_projection_0_comes_back_through_the_check(fallbacks):
    # once rows e_0..e_3 are kept, the kernel vector z is 0 at columns 0..3 and _probe at the
    # rest, and a repeat of e_0 projects to 0; w = z_5 e_4 - z_4 e_5 is independent of the
    # kept rows, mod p too, but w . z = 0, so the selection skips it and the check finds it
    ncols = 9
    z = linalg._probe(ncols, linalg._PRIME)
    units = [[int(i == j) for j in range(ncols)] for i in range(4)]
    w = [0] * ncols
    w[4], w[5] = z[5], -z[4]
    rng = random.Random(5)
    spans = [[sum(c * u[j] for c, u in zip(cs, units)) for j in range(ncols)]
             for cs in ([rng.randint(-3, 3) for _ in units] for _ in range(14))]
    rows = units + [units[0], w] + spans
    assert linalg._independent_mod_p(rows, ncols) == [0, 1, 2, 3]
    assert oracle.independent_mod_p(rows, ncols, linalg._PRIME) == [0, 1, 2, 3, 5]
    reversed_rows = matrix([r[::-1] for r in rows])
    assert nullspace(reversed_rows, ncols) == oracle.nullspace(reversed_rows, ncols)
    assert fallbacks == [1]


# --- inhomogeneous solves: one forward pass and a back-substituted solution ---


def test_a_tall_affine_solve_runs_one_forward_pass_and_one_null_basis_elimination(monkeypatch, selections, fallbacks):
    # dense h7 Leibniz + FormEigen: 154 augmented rows of rank 28 over 50 columns. The kept rows get
    # the forward pass alone, and only their first 49 columns a full elimination, for the null basis
    g, _, alpha, _ = conjugated_heisenberg_sasakian(3, 1)
    rows, rhs = Leibniz().rows(g)
    eigen_rows, eigen_rhs = FormEigen(alpha, Fraction(1)).rows(g)
    rows, rhs = rows + eigen_rows, rhs + eigen_rhs
    calls = []
    eliminate = linalg._eliminate

    def spy(rows, reduce=True):
        calls.append((len(rows), len(rows[0]), reduce))
        return eliminate(rows, reduce)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    got = solve_affine(rows, rhs)
    assert calls == [(28, 50, False), (28, 49, True)]
    assert selections == [50] and fallbacks == []
    monkeypatch.undo()
    assert got == oracle.solve_affine(rows, rhs)


@st.composite
def inconsistent_systems(draw, tall):
    """A consistent system over 8 to 11 columns plus one of its rows again with another right-hand
    side: tall (at least twice as many rows as augmented columns) or eliminated whole."""
    ncols = draw(st.integers(8, 11))
    nrows = draw(st.integers(2 * ncols + 1, 2 * ncols + 9) if tall else st.integers(1, 2 * ncols - 2))
    rows = tall_rows(draw, ncols, nrows)
    rhs = mat_vec(rows, tuple(draw(ENTRIES) for _ in range(ncols)))
    i = draw(st.integers(0, nrows - 1))
    return rows + (rows[i],), rhs + (rhs[i] + 1,)


@pytest.mark.parametrize("prime", [2, 3, linalg._PRIME])
@pytest.mark.parametrize("tall", [True, False])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_inconsistent_systems_match_oracle(prime, tall, data):
    rows, rhs = data.draw(inconsistent_systems(tall))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_PRIME", prime)
        got = solve_affine(rows, rhs)
    assert got[0] is None
    assert got == oracle.solve_affine(rows, rhs)


# --- rows handed over: the library's own systems reach linalg._solve unchecked and uncopied ---
#
# derivation_space and center build new integer rows and hand them to _solve, which may drop
# their last column and reverse them in place; nullspace and solve_affine clear a copy first.


def dense_h5_eigen_system():
    """The Leibniz + FormEigen(alpha, 1) rows and right-hand sides of conjugated h5 at seed 1:
    55 rows over 25 columns, tall for the homogeneous and for the augmented system."""
    g, _, alpha, _ = conjugated_heisenberg_sasakian(2, 1)
    rows, rhs = Leibniz().rows(g)
    eigen_rows, eigen_rhs = FormEigen(alpha, 1).rows(g)
    return rows + eigen_rows, rhs + eigen_rhs


def test_derivation_space_answers_alike_on_repeated_calls():
    g, _, alpha, _ = conjugated_heisenberg_sasakian(2, 1)
    for constraints in ([Leibniz()], [Leibniz(), FormEigen(alpha, 1)]):
        assert derivation_space(g, constraints) == derivation_space(g, constraints)


def test_constraint_rows_are_new_lists_on_every_call():
    # derivation_space appends to and reverses the rows it is handed; a constraint that handed out
    # the same lists twice would answer the second call with the first call's consumed rows
    g, _, alpha, _ = conjugated_heisenberg_sasakian(2, 1)
    for constraint in (Leibniz(), FormEigen(alpha, 1)):
        before = copy.deepcopy(constraint.rows(g))
        derivation_space(g, [constraint])
        assert constraint.rows(g) == before


@pytest.mark.parametrize("tall", [True, False])
def test_public_solvers_leave_their_arguments_unchanged(tall, selections):
    if tall:
        rows, rhs = dense_h5_eigen_system()
    else:
        rows, rhs = [[1, Fraction(1, 2), 0], [2, 1, 3]], [Fraction(1, 3), 1]
    ncols = len(rows[0])
    zeros = [0] * len(rows)
    for call in (
        lambda: nullspace(rows, ncols),
        lambda: solve_affine(rows, rhs),
        lambda: solve_affine(rows, zeros),
    ):
        before = copy.deepcopy((rows, rhs, zeros))
        call()
        assert (rows, rhs, zeros) == before
    assert selections == ([ncols, ncols + 1, ncols] if tall else [])


@pytest.mark.parametrize("prime", [2, 3])
def test_derivation_space_takes_the_fallback_through_solve(prime, monkeypatch, fallbacks):
    # at seed 1 the dense h5 systems lose rank mod 2 and mod 3, so each check adds rows back
    g, _, alpha, _ = conjugated_heisenberg_sasakian(2, 1)
    monkeypatch.setattr(linalg, "_PRIME", prime)
    for constraints in ([Leibniz()], [Leibniz(), FormEigen(alpha, 1)]):
        seen = len(fallbacks)
        assert derivation_space(g, constraints) == derivations_oracle.derivation_space(g, constraints)
        assert len(fallbacks) > seen
