"""The oldest Python the package supports (``requires-python >= 3.10``) parses
every source file: the library, its tests and its benchmark harness."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)


def test_every_source_file_parses_at_the_python_floor():
    files = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


@pytest.mark.parametrize(
    "source",
    [
        "try:\n    pass\nexcept* ValueError:\n    pass\n",  # exception groups, 3.11
        "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",  # PEP 695 generics, 3.12
    ],
    ids=["except-star", "pep-695"],
)
def test_the_floor_rejects_newer_syntax(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=FLOOR)
