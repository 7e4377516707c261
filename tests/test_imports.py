"""The import graph: ``import lieforge`` is lazy, and a CLI command loads only
the modules it runs.

Each check runs in a fresh interpreter, since this process has long since
imported every module. The child reports the modules that appeared in
``sys.modules`` after it started, so whatever the interpreter loads at start-up
does not count.
"""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import lieforge

SRC = Path(__file__).resolve().parents[1] / "src"

# What a fresh interpreter runs: ``code`` after recording the modules already
# loaded, then the lieforge modules and the stdlib json, dataclasses, inspect and
# argparse it loaded since, one line.
_CHILD = """
import sys
_before = set(sys.modules)
{code}
_shown = ("json", "dataclasses", "inspect", "argparse")
print(" ".join(sorted(m for m in set(sys.modules) - _before if m in _shown or m.startswith("lieforge"))))
"""

# ``python -m lieforge.cli ARGV`` in-process, its output swallowed; runpy runs
# the module as __main__, so lieforge.cli itself is not in sys.modules after.
_RUN_CLI = """
import contextlib, io, runpy
sys.argv = ["lieforge", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("lieforge.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
"""


def loaded_by(code: str, *argv: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(code=code), *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.split())


# The modules ``import lieforge.cli`` loads (the package and cli aside); every
# command needs them, to parse its input and render its report.
CLI_BASE = {f"lieforge.{m}" for m in ("algebra", "catalog", "fileio", "forms", "linalg", "report", "structures")}

# The six commands of the cli-process benchmark, each with the modules it
# imports on top of CLI_BASE.
COMMANDS = [
    (["check", "sasakian", "--builtin", "h3"], set()),
    (["builtin", "g0"], set()),
    (["solve", "derivations", "--builtin", "h3"], {"derivations"}),
    (
        ["extend", "double", "--builtin", "h3", "--two-form", "0", "--map", "diag:1/2,1/2,1,1"],
        {"derivations", "extensions"},
    ),
    (["construct", "sasakian-reduction", "--builtin", "g5"], {"derivations", "extensions", "theorems"}),
    (
        ["construct", "sasakian-double", "--builtin", "h3", "--two-form", "0", "--map", "diag:0,0,0,1"],
        {"derivations", "extensions", "theorems"},
    ),
]


def test_import_lieforge_loads_no_submodule():
    assert loaded_by("import lieforge") == {"lieforge"}


def test_import_cli_loads_neither_json_nor_the_constructions():
    assert loaded_by("import lieforge.cli") == {"lieforge", "lieforge.cli"} | CLI_BASE


def test_a_name_loads_only_its_home_module_and_what_that_needs():
    got = loaded_by("import lieforge\nlieforge.check_jacobi")
    assert got == {"lieforge", "lieforge.algebra", "lieforge.linalg", "lieforge.report"}


# Derivations, extensions and the Kirillov form build on forms and linalg, never on the
# structure checks: each name loads its home module and what that needs, without structures.
@pytest.mark.parametrize(
    "name, modules",
    [
        ("derivation_space", {"algebra", "derivations", "forms", "linalg", "report"}),
        ("central_extension", {"algebra", "derivations", "extensions", "forms", "linalg", "report"}),
        ("kirillov_form", {"algebra", "forms", "linalg", "report"}),
    ],
)
def test_constructions_load_no_structure_check(name, modules):
    assert loaded_by(f"import lieforge\nlieforge.{name}") == {"lieforge"} | {f"lieforge.{m}" for m in modules}


@pytest.mark.parametrize("argv, extra", COMMANDS, ids=[" ".join(argv[:2]) for argv, _ in COMMANDS])
def test_cli_command_loads_only_what_it_runs(argv, extra):
    assert loaded_by(_RUN_CLI, *argv) == {"lieforge"} | CLI_BASE | {f"lieforge.{m}" for m in extra}


def test_no_module_loads_dataclasses_or_inspect():
    # the records are report.Record, so no command pays for importing dataclasses and inspect
    every = "\n".join(f"import lieforge.{m}" for m in sorted(lieforge._SUBMODULES))
    got = loaded_by(f"from lieforge import *\n{every}")
    assert got == {"lieforge"} | {f"lieforge.{m}" for m in lieforge._SUBMODULES}


# --- the lazy package contract --------------------------------------------------

# Every public name of the package, by home module.
PUBLIC = {
    "algebra": "LieAlgebra Subspace center check_jacobi",
    "catalog": "BUILTINS Builtin builtin",
    "derivations": "Commute FormEigen Leibniz Sends derivation_space is_derivation",
    "extensions": "ExtensionResult central_extension derivation_extension double_extension is_cocycle "
    "lift_one_form reversed_double_extension",
    "forms": "KForm evaluation_sign kirillov_form radical",
    "linalg": "Matrix Scalar Vector matrix scalar vector",
    "report": "CheckItem CheckReport DimensionMismatch LieforgeError PreconditionError",
    "structures": "ContactStructure FrobeniusStructure KahlerStructure SasakianStructure check_contact "
    "check_frobenius check_kahler check_sasakian",
    "theorems": "DoubleExtensionParams contact_ideal_restriction extend_complex_structure "
    "frobenius_kahler_to_sasakian kahler_extension_obstruction kahler_to_sasakian_central "
    "sasakian_double_extension sasakian_double_extension_conditions sasakian_reduction "
    "sasakian_to_frobenius_kahler",
}
HOME = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_all_lists_every_public_name():
    assert sorted(lieforge.__all__) == sorted(HOME)


def test_public_names_are_their_home_modules_objects():
    wrong = [
        name for name, home in HOME.items() if getattr(lieforge, name) is not getattr(import_module(f"lieforge.{home}"), name)
    ]
    assert wrong == []
    assert set(HOME) <= set(dir(lieforge))


def test_submodules_are_attributes_and_listed():
    for module in list(PUBLIC) + ["cli", "fileio"]:
        assert getattr(lieforge, module) is sys.modules[f"lieforge.{module}"]
        assert module in dir(lieforge)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from lieforge import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(HOME)
    assert all(value is getattr(lieforge, name) for name, value in namespace.items())


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        lieforge.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from lieforge import no_such_name", {})


def test_submodule_resolves_after_a_bare_import():
    got = loaded_by("import lieforge\nassert lieforge.linalg.det(((1, 2), (3, 4))) == -2")
    assert got == {"lieforge", "lieforge.linalg", "lieforge.report"}


# --- the test helpers the benchmark loads -----------------------------------------


def test_conftest_loads_by_file_path_with_only_src_on_the_path(tmp_path):
    # the dense benchmark workloads load tests/conftest.py this way for its conjugation helpers,
    # so it may import lieforge alone, and only names that lieforge still has; each helper moves
    # its input to the basis e'_i = P e_i (the map is P^-1 J P for J e_1 = e_2, J e_2 = -e_1)
    code = f"""
import importlib.util
spec = importlib.util.spec_from_file_location("helpers", {str(Path(__file__).with_name("conftest.py"))!r})
helpers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(helpers)
import lieforge
p = ((2, 1, 0), (0, 1, 0), (1, 0, 1))
print(helpers.mat_inverse(p))
print(helpers.mat_inverse(((1, 2, 3), (2, 4, 6), (0, 0, 1))))
pinv = helpers.mat_inverse(p)
print(helpers.conjugate_algebra(lieforge.LieAlgebra(3, {{(0, 1): {{2: 1}}}}), p, pinv).brackets)
print(helpers.conjugate_map(((0, -1, 0), (1, 0, 0), (0, 0, 0)), p, pinv))
print(helpers.conjugate_one_form(lieforge.KForm.basis_one_form(3, 2), p).coeffs)
print(helpers.conjugate_two_form(lieforge.KForm.two_form(3, {{(0, 1): 1}}), p).coeffs)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    f = "Fraction"
    assert done.stdout.splitlines() == [
        f"(({f}(1, 2), {f}(-1, 2), {f}(0, 1)), ({f}(0, 1), {f}(1, 1), {f}(0, 1)), ({f}(-1, 2), {f}(1, 2), {f}(1, 1)))",
        "None",
        f"(((0, 1), ((2, {f}(2, 1)),)),)",  # [Pe_1, Pe_2] = 2 e_3 = 2 Pe_3
        f"(({f}(-1, 1), {f}(-1, 1), {f}(0, 1)), ({f}(2, 1), {f}(1, 1), {f}(0, 1)), ({f}(1, 1), {f}(1, 1), {f}(0, 1)))",
        f"(((0,), {f}(1, 1)), ((2,), {f}(1, 1)))",  # e_3* o P = e_1* + e_3*
        f"(((0, 1), {f}(2, 1)),)",
    ]


def test_benchmark_builds_its_dense_inputs_from_conftest(tmp_path):
    # bench/workloads.load_helpers loads tests/conftest.py by file path, in an interpreter with only
    # src/ and bench/ on the path; dense_heisenberg checks P (P^-1 z) = z itself, so an edit to conftest
    # that breaks the dense workloads' inputs fails here, and not only in the benchmark
    code = f"""
import random, sys
sys.path[:0] = [{str(SRC)!r}, {str(SRC.with_name("bench"))!r}]
import workloads
d = workloads.dense_heisenberg(workloads.load_helpers(), random.Random(1), 3)
print(d.dim, d.algebra.dim, len(d.reeb))
"""
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code], cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["7", "7", "7"]


# --- no dead imports or definitions ---------------------------------------------


def test_every_imported_name_is_used():
    """Each name a module binds by ``import`` or ``from ... import`` is read somewhere in that
    module, as a plain name, the root of an attribute or inside a quoted annotation."""
    import ast

    unused = []
    for path in sorted((SRC / "lieforge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                used.add(node.value)
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []


# The definitions of src/lieforge that no code there reaches, each with what keeps it.
UNREACHED_IN_SRC = {
    "cli.entry": "the console script of pyproject.toml",
    "algebra.LieAlgebra.from_brackets": "bench/workloads.dense_heisenberg calls it; ROADMAP item 7 deletes it",
    "linalg.det": "bench/workloads.dense_heisenberg calls it; ROADMAP item 7 deletes it",
    "algebra.LieAlgebra.abelian": "public constructor sugar, with no arithmetic",
    "report.CheckReport.item": "a public accessor the tests read, by the item's name",
}


def test_every_definition_is_used():
    """Each module-level function or class of src/lieforge is imported by another module, loaded by
    name in its own, named by a ``"module.name"`` string (the command tables of the CLI) or listed in
    ``lieforge.__all__``; each method's name is read somewhere in src as an attribute, or loaded
    as a plain name in its own class body (``Record._frozen`` is bound to ``__setattr__`` there).
    Dunders are Python's to call. The rest are exactly the names of UNREACHED_IN_SRC.

    The check goes by name, so a method whose name is also read as another attribute escapes it:
    a ``KForm.add`` would pass on the reads of ``set.add``."""
    import ast

    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted((SRC / "lieforge").glob("*.py"))}
    imported, strings, attributes, loaded = set(), set(), set(), {}
    for module, tree in trees.items():
        loaded[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded[module].add(node.id)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                continue
            name = node.name
            if not (name in imported or name in loaded[module] or f"{module}.{name}" in strings or name in lieforge.__all__):
                unused.append(f"{module}.{name}")
            body = node.body if isinstance(node, ast.ClassDef) else ()
            in_body = {
                n.id
                for stmt in body
                if not isinstance(stmt, ast.FunctionDef)
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for method in body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    if method.name not in attributes | in_body:
                        unused.append(f"{module}.{name}.{method.name}")
    assert sorted(unused) == sorted(UNREACHED_IN_SRC)
