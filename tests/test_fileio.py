import json
from fractions import Fraction
from pathlib import Path

import pytest

from lieforge import CheckItem, CheckReport, KForm, LieAlgebra, LieforgeError, builtin, cli
from lieforge.fileio import (
    ParseError,
    parse_algebra,
    parse_form_inline,
    parse_map_inline,
    parse_structure,
    parse_two_form_inline,
    parse_vector_inline,
    render_json,
    serialize_algebra,
)

import fileio_oracle
from algebra_oracle import dense_c

H3_TEXT = """lieforge/1 algebra
dim 3
basis e1 e2 e3
bracket 1 2 = 3:1
"""


def test_parse_algebra_round_trip():
    g = parse_algebra(H3_TEXT)
    assert dense_c(g) == dense_c(builtin("h3").algebra)
    assert serialize_algebra(g) == H3_TEXT
    assert dense_c(parse_algebra(serialize_algebra(builtin("g5").algebra))) == dense_c(builtin("g5").algebra)


def test_parse_algebra_comments_and_fractions():
    text = "lieforge/1 algebra\ndim 2\n# a comment\nbracket 1 2 = 1:-1/2\n"
    g = parse_algebra(text)
    assert dense_c(g)[0][1][0] == Fraction(-1, 2)


def test_parse_algebra_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_algebra("lieforge/1 algebra\ndim 3\nbracket 2 1 = 3:1\n")
    assert err.value.fieldname == "bracket"
    assert err.value.offset == len("lieforge/1 algebra\ndim 3\n")
    with pytest.raises(ParseError):
        parse_algebra("dim 3\n")
    with pytest.raises(ParseError) as err2:
        parse_algebra("lieforge/1 algebra\nbracket 1 2 = 3:1\n")
    assert "before dim" in str(err2.value)
    with pytest.raises(ParseError) as err3:
        parse_algebra("lieforge/1 algebra\ndim 2\nbracket 1 2 = 1:x\n")
    assert "bad rational" in str(err3.value)


def test_basis_errors_report_the_basis_line():
    head = "lieforge/1 algebra\ndim 3\n"
    with pytest.raises(ParseError) as err:
        parse_algebra(head + "basis a b\n")
    assert "label count" in str(err.value)
    assert (err.value.offset, err.value.fieldname) == (len(head), "basis")
    # the basis may come before dim; the count is checked once dim is known
    with pytest.raises(ParseError) as err:
        parse_algebra("lieforge/1 algebra\nbasis a b\ndim 3\n")
    assert (err.value.offset, err.value.fieldname) == (len("lieforge/1 algebra\n"), "basis")


def test_repeated_basis_labels_are_a_parse_error(tmp_path, capsys):
    from lieforge.cli import main

    head = "lieforge/1 algebra\ndim 3\n"
    with pytest.raises(ParseError) as err:
        parse_algebra(head + "basis a a b\nbracket 1 2 = 3:1\n")
    assert "'a' given twice" in str(err.value)
    assert (err.value.offset, err.value.fieldname) == (len(head), "basis")
    assert parse_algebra(head + "basis a A b\n").labels == ("a", "A", "b")
    path = tmp_path / "aab.lf"
    path.write_text(head + "basis a a b\n", encoding="utf-8")
    assert main(["check", "jacobi", "--algebra", str(path)]) == 2
    assert f"(byte {len(head)}, field 'basis')" in capsys.readouterr().err


@pytest.mark.parametrize(
    "head, bad",
    [
        ("lieforge/1 algebra\n# été, Kähler\n", "dim x\n"),
        ("lieforge/1 structure\n# φ ∘ J\nkind form\n", "values 0 1/0\n"),
    ],
    ids=["algebra", "structure"],
)
def test_parse_error_offsets_count_utf8_bytes(head, bad):
    # a non-ASCII comment before the bad line: the offset is where that line starts in the UTF-8 file
    # (the parser is looked up here, not held by the parameters, where the benchmark tracer would find it)
    parse = parse_algebra if "algebra" in head else (lambda text: parse_structure(text, "form", 2))
    with pytest.raises(ParseError) as err:
        parse(head + bad)
    assert err.value.offset == len(head.encode("utf-8")) > len(head)
    assert f"(byte {len(head.encode('utf-8'))}," in str(err.value)


# The command that reads each kind of file, its path as PATH.
FAULT_COMMANDS = {
    "algebra": ["check", "jacobi", "--algebra", "PATH"],
    "sasakian": ["check", "sasakian", "--builtin", "h3", "--structure", "PATH"],
    "two_form": ["check", "cocycle", "--builtin", "h3", "--two-form", "@PATH"],
}
ALGEBRA = "lieforge/1 algebra\n"  # 19 bytes
SASAKIAN = "lieforge/1 structure\nkind sasakian\n"  # 35 bytes
H3_XI_ALPHA = "xi = 0 0 1\nalpha = 0 0 1\n"

# case -> (file kind, file text, its error line); the line of a fault starts at the byte it names
FILE_FAULTS = {
    "empty document": ("algebra", "# a comment only\n", "empty document (byte 0, field 'header')"),
    "dim must be positive": ("algebra", ALGEBRA + "dim 0\n", "dim must be positive (byte 19, field 'dim')"),
    "bracket needs =": ("algebra", ALGEBRA + "dim 3\nbracket 1 2 3:1\n", "bracket needs '=' (byte 25, field 'bracket')"),
    "bracket needs two indices": (
        "algebra",
        ALGEBRA + "dim 3\nbracket 1 = 3:1\n",
        "bracket needs two indices (byte 25, field 'bracket')",
    ),
    "bad coefficient": (
        "algebra",
        ALGEBRA + "dim 3\nbracket 1 2 = 3\n",
        "bad coefficient '3', expected k:value (byte 25, field 'bracket')",
    ),
    "target index out of range": (
        "algebra",
        ALGEBRA + "dim 3\nbracket 1 2 = 4:1\n",
        "target index 4 out of range (byte 25, field 'bracket')",
    ),
    "unknown algebra field": ("algebra", ALGEBRA + "dim 3\nlabels a b c\n", "unknown field 'labels' (byte 25, field 'labels')"),
    "missing dim": ("algebra", ALGEBRA + "basis a b c\n", "missing dim (byte 0, field 'dim')"),
    "missing kind": ("sasakian", "lieforge/1 structure\n", "missing kind (byte 0, field 'kind')"),
    "unknown structure field": (
        "sasakian",
        SASAKIAN + "eta = 0 0 1\n",
        "unknown field 'eta' for kind sasakian (byte 35, field 'eta')",
    ),
    "bad line": ("sasakian", SASAKIAN + "xi 0 0 1\n", "bad line 'xi 0 0 1' (byte 35, field 'xi')"),
    "map needs rows": (
        "sasakian",
        SASAKIAN + H3_XI_ALPHA + "phi row 1 = 0 -1 0\nphi row 2 = 1 0 0\n",
        "map 'phi' needs rows 1..3 (byte 60, field 'phi')",
    ),
    "missing key": ("sasakian", SASAKIAN + H3_XI_ALPHA, "missing 'phi' for kind sasakian (byte 21, field 'phi')"),
    "map row needs =": (
        "sasakian",
        SASAKIAN + H3_XI_ALPHA + "phi row 1 0 -1 0\n",
        "map row needs 'row I = entries' (byte 60, field 'row')",
    ),
    "two-form entry needs =": (
        "two_form",
        "lieforge/1 structure\nkind two_form\nentry 1 2 1\n",
        "two-form entry needs 'entry I J = value' (byte 35, field 'entry')",
    ),
}


@pytest.mark.parametrize("case", sorted(FILE_FAULTS))
def test_file_fault_exits_2_naming_its_byte(case, tmp_path, capsys):
    kind, text, error = FILE_FAULTS[case]
    path = tmp_path / "input.lf"
    path.write_bytes(text.encode("utf-8"))
    assert cli.main([a.replace("PATH", str(path)) for a in FAULT_COMMANDS[kind]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {error}"]


def test_named_map_of_another_dimension_is_a_usage_error(capsys):
    # d4half's E acts on d4half, not on the 5-dimensional central extension that a double extension's map acts on
    assert cli.main(["extend", "double", "--builtin", "d4half", "--two-form", "0", "--map", "E"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: named map 'E' has wrong dimension in --map"]


def test_parse_structure_kinds():
    (form,) = parse_structure("lieforge/1 structure\nkind form\nvalues 0 0 1\n", "form", 3)
    assert form == KForm.basis_one_form(3, 2)
    (two,) = parse_structure("lieforge/1 structure\nkind two_form\nentry 1 2 = 1\nentry 3 4 = -1\n", "two_form", 4)
    assert two == KForm.two_form(4, {(0, 1): 1, (2, 3): -1})
    (mp,) = parse_structure("lieforge/1 structure\nkind map\nrow 1 = 0 -1\nrow 2 = 1 0\n", "map", 2)
    assert mp == ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    xi, alpha, phi = parse_structure(
        "lieforge/1 structure\nkind sasakian\nxi = 0 0 1\nalpha = 0 0 1\n"
        "phi row 1 = 0 -1 0\nphi row 2 = 1 0 0\nphi row 3 = 0 0 0\n",
        "sasakian",
        3,
    )
    assert (xi, alpha, phi) == builtin("h3").sasakian_data


def test_parse_structure_bad_kind():
    for kind in ("vectorsoup", "form"):
        with pytest.raises(ParseError) as err:
            parse_structure(f"lieforge/1 structure\nkind {kind}\n", "sasakian", 3)
        assert (err.value.offset, err.value.fieldname) == (len("lieforge/1 structure\n"), "kind")


def test_inline_forms():
    f = parse_form_inline("e3", 3)
    assert f == KForm.basis_one_form(3, 2)
    g = parse_form_inline("2e1-1/2e3", 3)
    assert g.coeff((0,)) == 2 and g.coeff((2,)) == Fraction(-1, 2)
    assert parse_form_inline("e3+e5", 5).coeff((4,)) == 1
    assert parse_form_inline("0", 3).is_zero()
    with pytest.raises(LieforgeError, match=r"^index e9 out of range in --form$"):
        parse_form_inline("e9", 3)


def test_inline_two_forms():
    w = parse_two_form_inline("e1^e2-e3^e4", 4)
    assert w.coeff((0, 1)) == 1 and w.coeff((2, 3)) == -1
    assert parse_two_form_inline("0", 4).is_zero()
    assert parse_two_form_inline("e2^e1", 2).coeff((0, 1)) == -1
    with pytest.raises(LieforgeError, match=r"^bad index pair 'e1\^e1' in --two-form$"):
        parse_two_form_inline("e1^e1", 3)


def test_inline_maps():
    d = parse_map_inline("diag:1/2,1/2,1", 3)
    assert d[0][0] == Fraction(1, 2) and d[2][2] == 1
    assert parse_map_inline("zero", 2) == ((0, 0), (0, 0))
    assert parse_map_inline("id", 2)[0][0] == 1
    e = parse_map_inline("E", 4, dict(builtin("d4half").maps))
    assert e[0][1] == 1
    with pytest.raises(LieforgeError, match=r"^expected 3 entries in --map$"):
        parse_map_inline("diag:1,2", 3)
    with pytest.raises(LieforgeError, match=r"^bad map spec 'spin' in --fix$"):
        parse_map_inline("spin", 3, flag="--fix")


def test_inline_vectors():
    assert parse_vector_inline("e2", 3) == (Fraction(0), Fraction(1), Fraction(0))
    assert parse_vector_inline("1,0,-1/2", 3) == (Fraction(1), Fraction(0), Fraction(-1, 2))
    assert parse_vector_inline("0", 2) == (Fraction(0), Fraction(0))


def test_round_trip_over_random_algebras():
    import random

    from conftest import random_jacobi_algebra

    rng = random.Random(47)
    for _ in range(25):
        g = random_jacobi_algebra(rng, rng.randint(1, 6))
        text = serialize_algebra(g)
        back = parse_algebra(text)
        assert dense_c(back) == dense_c(g) and back.dim == g.dim
        assert serialize_algebra(back) == text


# --- render_json, pinned to json.dumps(payload, indent=2) -------------------------

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus.json"


def test_render_json_is_json_dumps_on_every_corpus_report(monkeypatch):
    pairs = []

    def both(*args):
        pairs.append((render_json(*args), fileio_oracle.render_json(*args)))
        return pairs[-1][0]

    monkeypatch.setattr(cli, "render_json", both)
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))["commands"]
    for entry in entries:
        cli.run(["--output", "json", *entry["argv"]])
    assert len(pairs) == len(entries)
    assert [got for got, _ in pairs] == [want for _, want in pairs]


# what json.dumps escapes: a quote, a backslash, control characters, DEL, non-ASCII characters and
# an astral one (a surrogate pair); then all of them in one string, and the empty string
AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "∘", "\U0001d54a", 'a"b\\c\nd\te\x00f\x7fgé∘\U0001d54a', ""]
ABELIAN = LieAlgebra(2, {})
ODD_LABELS = LieAlgebra(3, {(0, 1): {2: Fraction(-1, 2)}, (0, 2): {1: 3}}, ("é", "∘\"", "\U0001d54a"))


@pytest.mark.parametrize(
    "command, report, sections, algebra",
    [
        (
            AWKWARD[-1],
            CheckReport(
                tuple(CheckItem(text, False, text) for text in AWKWARD) + (CheckItem("ok", True),),
                tuple((text, text) for text in AWKWARD),
            ),
            tuple((text, ((text, text), ("k", text))) for text in AWKWARD),
            None,
        ),
        ("empty", CheckReport(()), (), None),
        ("empty-section", CheckReport((CheckItem("x", True),)), (("nothing", ()),), None),
        ("abelian", CheckReport((CheckItem("x", True),), (("n", "v"),)), (), ABELIAN),
        ("odd labels", CheckReport((CheckItem("x", False, "w"),)), (("s", (("k", "v"),)),), ODD_LABELS),
        ("d4half", CheckReport(()), (), builtin("d4half").algebra),
    ],
    ids=["awkward-strings", "empty", "empty-section", "abelian", "odd-labels", "d4half"],
)
def test_render_json_is_json_dumps_on_hand_built_reports(command, report, sections, algebra):
    assert render_json(command, report, sections, algebra) == fileio_oracle.render_json(command, report, sections, algebra)


def test_render_json_is_json_dumps_on_any_text():
    from hypothesis import given, settings, strategies as st

    text = st.text(max_size=6)

    @settings(max_examples=200, deadline=None)
    @given(
        text,
        st.lists(st.tuples(text, st.booleans(), text), max_size=3),
        st.lists(st.tuples(text, text), max_size=3),
        st.lists(st.tuples(text, st.lists(st.tuples(text, text), max_size=3)), max_size=3),
    )
    def check_one(command, items, notes, sections):
        report = CheckReport(tuple(CheckItem(n, p, None if p else w) for n, p, w in items), tuple(notes))
        sections = tuple((name, tuple(pairs)) for name, pairs in sections)
        assert render_json(command, report, sections) == fileio_oracle.render_json(command, report, sections)

    check_one()
