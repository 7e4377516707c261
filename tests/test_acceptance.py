"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every expected value is exact; there are no tolerances anywhere. The
randomized suites use fixed seeds, so reruns are bit-identical.
"""

import os
import random
import tempfile
import time
from fractions import Fraction

import lieforge as lf
from lieforge.cli import run
from lieforge.fileio import parse_algebra
from lieforge.forms import KForm
from lieforge.linalg import diagonal, identity, transpose, vec_scale, vec_sub
from lieforge.report import PreconditionError

from algebra_oracle import dense_c, nijenhuis
from conftest import (
    invariant_closed_two_forms,
    mat_inverse,
    random_complex_structure,
    random_invertible,
    random_jacobi_algebra,
    random_kform,
    random_matrix,
    random_one_form,
    random_two_form,
)
from forms_oracle import add, as_matrix, evaluate
from linalg_oracle import in_span, mat_mul
from structures_oracle import ce_differential


def announce(number: int, ok: bool) -> None:
    import conftest

    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def timed(limit_seconds: float):
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            assert self.elapsed < limit_seconds, f"runtime {self.elapsed:.2f}s over {limit_seconds}s"

    return _Timer()


def extract_algebra(text: str) -> str:
    lines = text.splitlines()
    start = lines.index("begin algebra") + 1
    end = lines.index("end algebra")
    return "\n".join(lines[start:end]) + "\n"


def test_acceptance_1_pipeline_golden():
    ok = False
    try:
        with timed(1.0):
            out, code = run(["extend", "derivation", "--builtin", "h3", "--map", "diag:1/2,1/2,1"])
            assert code == 0
            with tempfile.NamedTemporaryFile("w", suffix=".lf", delete=False) as f:
                f.write(extract_algebra(out))
                path = f.name
            try:
                out2, code2 = run(["solve", "principal", "--algebra", path, "--form", "e3"])
            finally:
                os.unlink(path)
            assert code2 == 0
            assert "note principal_element = e4" in out2
            out3, code3 = run(["check", "frobenius", "--builtin", "d4half"])
            assert code3 == 0
            out4, code4 = run(["check", "kahler", "--builtin", "d4half"])
            assert code4 == 0
            for i in range(4):
                assert f"note metric_row_e{i + 1} = e{i + 1}*" in out4
            d4 = lf.builtin("d4half")
            assert d4.kahler().metric == identity(4)
            dalpha = ce_differential(d4.algebra, KForm.basis_one_form(4, 2))
            e = d4.algebra.basis_vector
            assert evaluate(dalpha, (e(0), e(1))) == -1
            assert evaluate(dalpha, (e(2), e(3))) == 1
        ok = True
    finally:
        announce(1, ok)


def test_acceptance_2_sasakian_constructions():
    ok = False
    try:
        with timed(1.0):
            out, code = run(["construct", "fk-to-sasakian", "--builtin", "d4half", "--map", "E"])
            assert code == 0
            built = parse_algebra(extract_algebra(out))
            g0 = lf.builtin("g0")
            assert dense_c(built) == dense_c(g0.algebra)
            assert lf.center(built).dim == 0
            assert "overall pass" in out

            out2, code2 = run(
                ["extend", "reversed", "--builtin", "h3", "--form", "e3", "--map", "diag:1/2,1/2,1"]
            )
            assert code2 == 0
            built5 = parse_algebra(extract_algebra(out2))
            g5 = lf.builtin("g5")
            assert dense_c(built5) == dense_c(g5.algebra)
            assert in_span(lf.center(built5).rows, built5.basis_vector(4))
            out3, code3 = run(["check", "sasakian", "--builtin", "g5"])
            assert code3 == 0
        ok = True
    finally:
        announce(2, ok)


def _heisenberg_double_extension_instances(rng: random.Random, minimum: int):
    """Instance stream for the double-extension oracle equivalence.

    Base is the Heisenberg Sasakian algebra; theta ranges over its cocycle
    space (all 2-forms), D over diagonal derivations of the central
    extension with alpha(D z) != 0, and each instance carries its solved
    construction: the extension, its report, its structure and its params.
    """
    h3 = lf.builtin("h3")
    s = h3.sasakian()
    instances = []
    attempts = 0
    while len(instances) < minimum and attempts < 50 * minimum:
        attempts += 1
        style = rng.random()
        nz = lambda: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
        if style < 0.3:
            # positive family: theta = 0, D = diag(0, 0, 0, s)
            theta = KForm.zero(3, 2)
            d = diagonal([0, 0, 0, nz()])
        elif style < 0.65:
            # theta = 0, generic diagonal derivation
            d1, d2 = nz(), rng.choice([Fraction(0)]) if rng.random() < 0.3 else nz()
            if not isinstance(d2, Fraction):
                d2 = nz()
            d4 = nz()
            if d4 == d1 + d2:
                continue
            d = diagonal([d1, d2, d1 + d2, d4])
            theta = KForm.zero(3, 2)
        else:
            # nonzero cocycle; Leibniz constrains the z weight
            t13 = nz() if rng.random() < 0.8 else Fraction(0)
            t23 = nz() if rng.random() < 0.5 or t13 == 0 else Fraction(0)
            entries = {}
            if t13 != 0:
                entries[(0, 2)] = t13
            if t23 != 0:
                entries[(1, 2)] = t23
            theta = KForm.two_form(3, entries)
            if t13 != 0 and t23 != 0:
                d1 = d2 = nz()
            else:
                d1, d2 = nz(), nz()
            d3 = d1 + d2
            d4 = d1 + d3 if t13 != 0 else d2 + d3
            if d4 == 0 or d4 == d3:
                continue
            d = diagonal([d1, d2, d3, d4])
        central = lf.central_extension(h3.algebra, theta)
        if not lf.is_derivation(central.algebra, d).overall:
            continue
        try:
            result = lf.sasakian_double_extension(h3.algebra, s, theta, d)
        except PreconditionError:
            continue
        instances.append((s, theta, d, result))
    return instances


def test_acceptance_3_double_extension_oracle_equivalence():
    ok = False
    try:
        with timed(30.0):
            rng = random.Random(2024)
            h3 = lf.builtin("h3").algebra
            instances = _heisenberg_double_extension_instances(rng, 100)
            assert len(instances) >= 100
            passes = failures = 0
            for s, theta, d, (_, report, structure, params) in instances:
                conditions = lf.sasakian_double_extension_conditions(h3, s, theta, d)
                direct = structure is not None
                assert conditions.overall == direct == report.overall, (
                    theta.coeffs,
                    d,
                    params,
                    [(i.name, i.passed) for i in conditions.items],
                    [(i.name, i.passed) for i in report.items if not i.passed],
                )
                passes += direct
                failures += not direct
            assert passes >= 10 and failures >= 10
        ok = True
    finally:
        announce(3, ok)


def test_acceptance_4_torsion_transfer_identity():
    ok = False
    try:
        with timed(30.0):
            rng = random.Random(77)
            checked = 0
            non_integrable = 0
            for dim in (2, 4):
                for _ in range(60):
                    g = random_jacobi_algebra(rng, dim)
                    j = random_complex_structure(rng, dim)
                    basis = invariant_closed_two_forms(g, j)
                    omega = KForm.zero(dim, 2)
                    for form in basis:
                        omega = add(omega, form.scale(rng.choice([-2, -1, 0, 1, 2])))
                    ext = lf.central_extension(g, omega)
                    child = ext.algebra
                    zi = ext.central_index
                    xi = child.basis_vector(zi)
                    phi = tuple((*row, Fraction(0)) for row in j) + ((Fraction(0),) * child.dim,)
                    alpha = KForm.basis_one_form(child.dim, zi)
                    n_phi = nijenhuis(child, phi)
                    n_j = nijenhuis(g, j)
                    non_integrable += not n_j.is_zero()
                    da = as_matrix(ce_differential(child, alpha))
                    for a in range(child.dim):
                        for b in range(a + 1, child.dim):
                            base_part = (
                                n_j.value(a, b) + (Fraction(0),)
                                if a < g.dim and b < g.dim
                                else (Fraction(0),) * child.dim
                            )
                            residual = vec_sub(
                                vec_sub(n_phi.value(a, b), base_part),
                                vec_scale(-da[a][b], xi),
                            )
                            assert all(x == 0 for x in residual)
                    checked += 1
            assert checked >= 100
            assert non_integrable >= 10
        ok = True
    finally:
        announce(4, ok)


def test_acceptance_5_extension_iff_suite():
    ok = False
    try:
        with timed(30.0):
            rng = random.Random(4242)
            cocycle_true = cocycle_false = 0
            for _ in range(200):
                g = random_jacobi_algebra(rng, rng.randint(2, 5))
                theta = random_two_form(rng, g.dim)
                ext = lf.central_extension(g, theta, check=False)
                jac = lf.check_jacobi(ext.algebra).overall
                coc = lf.is_cocycle(g, theta).overall
                assert jac == coc
                cocycle_true += coc
                cocycle_false += not coc
            leibniz_true = leibniz_false = 0
            for _ in range(200):
                g = random_jacobi_algebra(rng, rng.randint(2, 5))
                m = random_matrix(rng, g.dim)
                ext = lf.derivation_extension(g, m, check=False)
                jac = lf.check_jacobi(ext.algebra).overall
                der = lf.is_derivation(g, m).overall
                assert jac == der
                leibniz_true += der
                leibniz_false += not der
            assert cocycle_true >= 5 and cocycle_false >= 5
            assert leibniz_true >= 5 and leibniz_false >= 5
        ok = True
    finally:
        announce(5, ok)


def _transported_flat_kahler(rng: random.Random, dim: int):
    """Flat Kahler data on an abelian algebra, conjugated by a random basis."""
    g = lf.LieAlgebra.abelian(dim)
    p = random_invertible(rng, dim)
    pinv = mat_inverse(p)
    j0 = [[Fraction(0)] * dim for _ in range(dim)]
    b0 = [[Fraction(0)] * dim for _ in range(dim)]
    for k in range(dim // 2):
        j0[2 * k][2 * k + 1] = Fraction(-1)
        j0[2 * k + 1][2 * k] = Fraction(1)
        b0[2 * k][2 * k + 1] = Fraction(1)
        b0[2 * k + 1][2 * k] = Fraction(-1)
    j = mat_mul(p, mat_mul(tuple(map(tuple, j0)), pinv))
    b = mat_mul(transpose(pinv), mat_mul(tuple(map(tuple, b0)), pinv))
    omega = KForm.two_form(dim, {(a, c): b[a][c] for a in range(dim) for c in range(a + 1, dim)})
    report, structure = lf.check_kahler(g, j, omega)
    assert structure is not None, tuple(it for it in report.items if not it.passed)
    return g, structure


def test_acceptance_6_round_trip():
    ok = False
    try:
        with timed(10.0):
            h3 = lf.builtin("h3")
            g5 = lf.builtin("g5")
            targets = [
                (h3.algebra, h3.sasakian()),
                (g5.algebra, g5.sasakian()),
            ]
            rng = random.Random(9001)
            for _ in range(20):
                dim = rng.choice([2, 4])
                base, kahler = _transported_flat_kahler(rng, dim)
                ext, _, sas = lf.kahler_to_sasakian_central(base, kahler)
                targets.append((ext.algebra, sas))
            for algebra, sas in targets:
                h, _, kah = lf.sasakian_reduction(algebra, sas)
                ext, _, _ = lf.kahler_to_sasakian_central(h, kah)
                assert dense_c(ext.algebra) == dense_c(algebra)
        ok = True
    finally:
        announce(6, ok)


def test_acceptance_7_no_go_suite():
    ok = False
    try:
        with timed(5.0):
            rng = random.Random(55)
            for name in ("h3", "g0"):
                b = lf.builtin(name)
                s = b.sasakian()
                thetas = [KForm.zero(b.algebra.dim, 2)]
                while len(thetas) < 11:
                    candidate = random_two_form(rng, b.algebra.dim)
                    if not candidate.is_zero():
                        thetas.append(candidate)
                for theta in thetas:
                    report = lf.kahler_extension_obstruction(b.algebra, s, theta)
                    assert report.overall, (name, theta.coeffs)
        ok = True
    finally:
        announce(7, ok)


def test_acceptance_8_calculus_invariants():
    ok = False
    try:
        with timed(30.0):
            rng = random.Random(613)
            for _ in range(100):
                g = random_jacobi_algebra(rng, rng.randint(1, 6))
                for degree in range(g.dim + 1):
                    form = random_kform(rng, g.dim, degree)
                    assert ce_differential(g, ce_differential(g, form)).is_zero()
                phi = random_one_form(rng, g.dim)
                assert lf.kirillov_form(g, phi) == ce_differential(g, phi).neg()
        ok = True
    finally:
        announce(8, ok)
