"""Seeded inputs, jobs and independent output oracles for each workload.

A workload is a list of jobs run one after another by a single client. Each
job is a zero-argument call into lieforge plus an oracle that says whether
its output is right. Calls look ``lieforge`` functions up when they run, so
the traced run sees its wrappers. Inputs are built here, during set-up, and
never inside a timed job.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFTEST = ROOT / "tests" / "conftest.py"
CORPUS = HERE / "corpus.json"


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[], object]
    # None when the output is right, otherwise the reason it is wrong.
    check: Callable[[object], str | None]


def digest(output: object) -> str:
    """Canonical bytes of a job's output: its repr is exact and deterministic."""
    return hashlib.sha256(repr(output).encode("utf-8")).hexdigest()


def _sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


# --- builtin-corpus and cli-process -----------------------------------------


def _expect(code: int, sha: str):
    def check(output) -> str | None:
        text, got = output
        if got != code:
            return f"exit code {got}, expected {code}"
        if _sha256(text) != sha:
            return "stdout digest differs from the stored one"
        return None

    return check


def corpus_entries(cli_process_only: bool = False) -> list[tuple[list[str], int, str]]:
    """(argv, expected exit code, expected stdout sha256) for every corpus run."""
    spec = json.loads(CORPUS.read_text(encoding="utf-8"))
    out = []
    for entry in spec["commands"]:
        if cli_process_only and not entry["cli_process"]:
            continue
        for mode, prefix in (("text", []), ("json", ["--output", "json"])):
            want = entry[mode]
            out.append((prefix + entry["argv"], want["code"], want["sha256"]))
    return out


def in_process_jobs(entries, rng: random.Random) -> list[Job]:
    import lieforge.cli as cli

    jobs = [
        Job(" ".join(argv), (lambda argv=argv: cli.run(list(argv))), _expect(code, sha))
        for argv, code, sha in entries
    ]
    rng.shuffle(jobs)
    return jobs


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def process_jobs(entries, rng: random.Random) -> list[Job]:
    """One fresh ``python -m lieforge.cli`` process per job."""
    env = child_env()

    def spawn(argv):
        done = subprocess.run(
            [sys.executable, "-m", "lieforge.cli", *argv],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=120,
            check=False,
        )
        return done.stdout, done.returncode

    jobs = [
        Job(" ".join(argv), (lambda argv=argv: spawn(argv)), _expect(code, sha))
        for argv, code, sha in entries
    ]
    rng.shuffle(jobs)
    return jobs


# --- dense Heisenberg algebras ----------------------------------------------


def load_helpers():
    """The conjugation helpers of the test suite, imported from tests/conftest.py."""
    spec = importlib.util.spec_from_file_location("lieforge_test_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _mat_vec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m)


@dataclass(frozen=True)
class Dense:
    """h_{2m+1} moved to the basis e'_i = P e_i."""

    m: int
    algebra: object
    alpha: object  # z* in the new basis: a contact form
    closed: object  # x1* in the new basis: closed, so never contact
    phi: object  # the standard Phi in the new basis
    reeb: tuple  # P^-1 z, checked against P at set-up

    @property
    def dim(self) -> int:
        return 2 * self.m + 1


def dense_heisenberg(helpers, rng: random.Random, m: int) -> Dense:
    """Heisenberg [x_k, y_k] = z on the basis (x_1..x_m, y_1..y_m, z), conjugated."""
    import lieforge as lf
    from lieforge.forms import KForm

    n = 2 * m + 1
    g = lf.LieAlgebra.from_brackets(n, {(k, m + k): {n - 1: 1} for k in range(m)})
    while True:
        p = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n))
        if lf.linalg.det(p) != 0:
            break
    pinv = helpers.mat_inverse(p)
    reeb = tuple(row[n - 1] for row in pinv)
    # Independent of lieforge: P (P^-1 z) must be z = e_{2m+1}.
    if _mat_vec(p, reeb) != tuple(Fraction(int(i == n - 1)) for i in range(n)):
        raise RuntimeError("mat_inverse returned a wrong inverse")
    phi = [[Fraction(0)] * n for _ in range(n)]
    for k in range(m):
        phi[m + k][k] = Fraction(1)  # Phi x_k = y_k
        phi[k][m + k] = Fraction(-1)  # Phi y_k = -x_k
    return Dense(
        m=m,
        algebra=helpers.conjugate_algebra(g, p, pinv),
        alpha=helpers.conjugate_one_form(KForm.basis_one_form(n, n - 1), p),
        closed=helpers.conjugate_one_form(KForm.basis_one_form(n, 0), p),
        phi=helpers.conjugate_map(tuple(map(tuple, phi)), p, pinv),
        reeb=reeb,
    )


# Bases drawn per pass, by m (dimension 2m+1): more bases where jobs are cheap,
# so a pass averages over several random bases at every size.
SOLVE_BASES = {2: 30, 3: 8}
VERIFY_BASES = {3: 4, 4: 3, 5: 3, 6: 3}


def dense_inputs(helpers, rng: random.Random, bases: dict[int, int]) -> list[Dense]:
    return [dense_heisenberg(helpers, rng, m) for m, count in bases.items() for _ in range(count)]


def _solve_jobs(d: Dense) -> list[Job]:
    import lieforge as lf

    m, n = d.m, d.dim
    der_dim = 2 * m * m + 3 * m + 1
    coords = tuple(d.alpha.coeff((i,)) for i in range(n))

    def check_der(out):
        particular, basis = out
        if particular is None or len(basis) != der_dim:
            return f"dim Der = {len(basis)}, expected {der_dim}"
        return None

    def check_eigen(out):
        particular, basis = out
        if particular is None:
            return "alpha o D = alpha reported inconsistent"
        if any(sum(coords[i] * particular[i][j] for i in range(n)) != coords[j] for j in range(n)):
            return "particular solution does not satisfy alpha o D = alpha"
        if len(basis) != der_dim - 2 * m - 1:
            return f"homogeneous dimension {len(basis)}, expected {der_dim - 2 * m - 1}"
        return None

    def check_center(sub):
        if sub.dim != 1:
            return f"center has dimension {sub.dim}, expected 1"
        row = sub.rows[0]
        if any(row[k] * d.reeb[l] != row[l] * d.reeb[k] for k in range(n) for l in range(n)):
            return "center is not spanned by P^-1 z"
        return None

    g, alpha = d.algebra, d.alpha
    tag = f"h{n}"
    return [
        Job(f"{tag} derivations", lambda: lf.derivation_space(g, [lf.Leibniz()]), check_der),
        Job(
            f"{tag} derivations alpha-eigen",
            lambda: lf.derivation_space(g, [lf.Leibniz(), lf.FormEigen(alpha, Fraction(1))]),
            check_eigen,
        ),
        Job(f"{tag} center", lambda: lf.center(g), check_center),
    ]


def _verify_jobs(d: Dense) -> list[Job]:
    import lieforge as lf

    g = d.algebra

    def check_jacobi(report):
        return None if report.overall else "Jacobi fails on a Lie algebra"

    def check_contact(out):
        report, structure = out
        if structure is None or not report.overall:
            return "contact form z* rejected"
        if structure.reeb != d.reeb:
            return "Reeb vector is not P^-1 z"
        return None

    def check_sasakian(out):
        report, structure = out
        return None if structure is not None and report.overall else "standard Sasakian structure rejected"

    def check_closed(out):
        report, structure = out
        return None if structure is None and not report.overall else "closed form x1* accepted as contact"

    tag = f"h{d.dim}"
    return [
        Job(f"{tag} jacobi", lambda: lf.check_jacobi(g), check_jacobi),
        Job(f"{tag} contact z*", lambda: lf.check_contact(g, d.alpha), check_contact),
        Job(f"{tag} sasakian", lambda: lf.check_sasakian(g, d.reeb, d.alpha, d.phi), check_sasakian),
        Job(f"{tag} contact x1* (must fail)", lambda: lf.check_contact(g, d.closed), check_closed),
    ]


# --- the workload table -----------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    import_module: str  # what a fresh process imports before the first job
    build: Callable[[random.Random, object], list[Job]]  # (rng, helpers) -> jobs, in run order
    replay: Callable[[random.Random, object], list[Job]] | None = None  # in-process twin for tracing


def _dense(bases, make):
    def build(rng, helpers):
        jobs = [job for d in dense_inputs(helpers, rng, bases) for job in make(d)]
        rng.shuffle(jobs)
        return jobs

    return build


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "builtin-corpus",
            "the README commands users type, on the sparse built-ins of dimension 3-7",
            "lieforge.cli",
            lambda rng, _: in_process_jobs(corpus_entries(), rng),
        ),
        Workload(
            "dense-solve",
            "derivation spaces and centers of dense h5/h7: n^2-column eliminations",
            "lieforge",
            _dense(SOLVE_BASES, _solve_jobs),
        ),
        Workload(
            "dense-verify",
            "Jacobi, contact and Sasakian checks on dense h7..h13: brackets and wedge powers",
            "lieforge",
            _dense(VERIFY_BASES, _verify_jobs),
        ),
        Workload(
            "cli-process",
            "a fresh python -m lieforge.cli process per command: interpreter start plus import",
            "lieforge.cli",
            lambda rng, _: process_jobs(corpus_entries(cli_process_only=True), rng),
            replay=lambda rng, _: in_process_jobs(corpus_entries(cli_process_only=True), rng),
        ),
    )
}
