from fractions import Fraction

import pytest

from lieforge import KForm, builtin
from lieforge.fileio import (
    ParseError,
    parse_algebra,
    parse_form_inline,
    parse_map_inline,
    parse_structure,
    parse_two_form_inline,
    parse_vector_inline,
    serialize_algebra,
)

H3_TEXT = """lieforge/1 algebra
dim 3
basis e1 e2 e3
bracket 1 2 = 3:1
"""


def test_parse_algebra_round_trip():
    g = parse_algebra(H3_TEXT)
    assert g.c == builtin("h3").algebra.c
    assert serialize_algebra(g) == H3_TEXT
    assert parse_algebra(serialize_algebra(builtin("g5").algebra)).c == builtin("g5").algebra.c


def test_parse_algebra_comments_and_fractions():
    text = "lieforge/1 algebra\ndim 2\n# a comment\nbracket 1 2 = 1:-1/2\n"
    g = parse_algebra(text)
    assert g.c[0][1][0] == Fraction(-1, 2)


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
    parse = parse_algebra if "algebra" in head else parse_structure
    with pytest.raises(ParseError) as err:
        parse(head + bad)
    assert err.value.offset == len(head.encode("utf-8")) > len(head)
    assert f"(byte {len(head.encode('utf-8'))}," in str(err.value)


def test_parse_structure_kinds():
    form = parse_structure("lieforge/1 structure\nkind form\nvalues 0 0 1\n")
    assert form.forms["values"] == (Fraction(0), Fraction(0), Fraction(1))
    two = parse_structure("lieforge/1 structure\nkind two_form\nentry 1 2 = 1\nentry 3 4 = -1\n")
    assert two.two_forms["values"] == {(0, 1): Fraction(1), (2, 3): Fraction(-1)}
    mp = parse_structure(
        "lieforge/1 structure\nkind map\nrow 1 = 0 -1\nrow 2 = 1 0\n"
    )
    assert mp.matrix_of("values", 2) == ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    sas = parse_structure(
        "lieforge/1 structure\nkind sasakian\nxi = 0 0 1\nalpha = 0 0 1\n"
        "phi row 1 = 0 -1 0\nphi row 2 = 1 0 0\nphi row 3 = 0 0 0\n"
    )
    assert sas.vectors["xi"] == (Fraction(0), Fraction(0), Fraction(1))
    assert sas.matrix_of("phi", 3)[0][1] == Fraction(-1)


def test_parse_structure_bad_kind():
    with pytest.raises(ParseError):
        parse_structure("lieforge/1 structure\nkind vectorsoup\n")


def test_inline_forms():
    f = parse_form_inline("e3", 3)
    assert f == KForm.basis_one_form(3, 2)
    g = parse_form_inline("2e1-1/2e3", 3)
    assert g.coeff((0,)) == 2 and g.coeff((2,)) == Fraction(-1, 2)
    assert parse_form_inline("e3+e5", 5).coeff((4,)) == 1
    assert parse_form_inline("0", 3).is_zero()
    with pytest.raises(ParseError):
        parse_form_inline("e9", 3)


def test_inline_two_forms():
    w = parse_two_form_inline("e1^e2-e3^e4", 4)
    assert w.coeff((0, 1)) == 1 and w.coeff((2, 3)) == -1
    assert parse_two_form_inline("0", 4).is_zero()
    assert parse_two_form_inline("e2^e1", 2).coeff((0, 1)) == -1
    with pytest.raises(ParseError):
        parse_two_form_inline("e1^e1", 3)


def test_inline_maps():
    d = parse_map_inline("diag:1/2,1/2,1", 3)
    assert d[0][0] == Fraction(1, 2) and d[2][2] == 1
    assert parse_map_inline("zero", 2) == ((0, 0), (0, 0))
    assert parse_map_inline("id", 2)[0][0] == 1
    e = parse_map_inline("E", 4, dict(builtin("d4half").maps))
    assert e[0][1] == 1
    with pytest.raises(ParseError):
        parse_map_inline("diag:1,2", 3)
    with pytest.raises(ParseError):
        parse_map_inline("spin", 3)


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
        assert back.c == g.c and back.dim == g.dim
        assert serialize_algebra(back) == text
