import hashlib
import importlib.util
import json
import random
import re
import shlex
import sys
from pathlib import Path

import pytest

import lieforge as lf
from lieforge import cli
from lieforge.cli import run
from lieforge.fileio import parse_algebra

import cli_oracle
from conftest import conjugate_algebra, conjugate_one_form, mat_inverse, random_invertible
from strategies import R2R2, conjugated_heisenberg_sasakian


def invoke(*argv):
    return run(list(argv))


def extract_algebra(text):
    lines = text.splitlines()
    start = lines.index("begin algebra") + 1
    end = lines.index("end algebra")
    return "\n".join(lines[start:end]) + "\n"


def test_check_sasakian_builtin_h3():
    out, code = invoke("check", "sasakian", "--builtin", "h3")
    assert code == 0
    assert "overall pass" in out


def test_check_contact_reports_reeb():
    out, code = invoke("check", "contact", "--builtin", "h3", "--form", "e3")
    assert code == 0
    assert "note reeb = e3" in out


def test_check_jacobi_failure_exit_code():
    import tempfile, os

    bad = "lieforge/1 algebra\ndim 3\nbracket 1 2 = 3:1\nbracket 1 3 = 1:1\n"
    with tempfile.NamedTemporaryFile("w", suffix=".lf", delete=False) as f:
        f.write(bad)
        path = f.name
    try:
        out, code = invoke("check", "jacobi", "--algebra", path)
        assert code == 1
        assert "item fail jacobi(e1,e2,e3)" in out
    finally:
        os.unlink(path)


def test_parse_error_exit_code_two(capsys):
    from lieforge.cli import main
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".lf", delete=False) as f:
        f.write("not a header\n")
        path = f.name
    try:
        code = main(["check", "jacobi", "--algebra", path])
        assert code == 2
        assert "byte 0" in capsys.readouterr().err
    finally:
        os.unlink(path)


def test_usage_error_exit_code_two(capsys):
    from lieforge.cli import main

    assert main(["check", "nonsense", "--builtin", "h3"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown check kind 'nonsense'")


def test_missing_input_is_usage_error(capsys):
    from lieforge.cli import main

    assert main(["check", "jacobi"]) == 2


def test_extend_derivation_builds_d4half():
    out, code = invoke("extend", "derivation", "--builtin", "h3", "--map", "diag:1/2,1/2,1")
    assert code == 0
    g = parse_algebra(extract_algebra(out))
    from lieforge import builtin

    assert g.c == builtin("d4half").algebra.c
    assert "note derivation_slot = e4" in out


def test_extend_central_zero_cocycle():
    out, code = invoke("extend", "central", "--builtin", "h3", "--two-form", "0")
    assert code == 0
    g = parse_algebra(extract_algebra(out))
    assert g.dim == 4
    assert "note central_element = e4" in out


def test_extend_reversed_builds_g5():
    out, code = invoke(
        "extend", "reversed", "--builtin", "h3", "--form", "e3", "--map", "diag:1/2,1/2,1"
    )
    assert code == 0
    g = parse_algebra(extract_algebra(out))
    from lieforge import builtin

    assert g.c == builtin("g5").algebra.c


def test_extend_force_bypasses_cocycle_check():
    out, code = invoke(
        "extend", "central", "--builtin", "d4half", "--two-form", "e1^e2", "--force"
    )
    assert code == 1  # the output algebra fails Jacobi, reported honestly
    assert "item fail jacobi" in out
    out2, code2 = invoke("extend", "central", "--builtin", "d4half", "--two-form", "e1^e2")
    assert code2 == 1
    assert "cocycle" in out2


def test_extend_double_with_dz_assembly():
    out, code = invoke(
        "extend",
        "double",
        "--builtin",
        "h3",
        "--two-form",
        "0",
        "--map",
        "diag:0,0,0",
        "--dz",
        "0,0,0:1",
    )
    assert code == 0
    g = parse_algebra(extract_algebra(out))
    assert g.dim == 5


def test_construct_fk_to_sasakian_g0():
    out, code = invoke("construct", "fk-to-sasakian", "--builtin", "d4half", "--map", "E")
    assert code == 0
    g = parse_algebra(extract_algebra(out))
    from lieforge import builtin

    assert g.c == builtin("g0").algebra.c
    assert "overall pass" in out


def test_construct_sasakian_to_fk_d4half():
    out, code = invoke(
        "construct", "sasakian-to-fk", "--builtin", "h3", "--map", "diag:1/2,1/2,1"
    )
    assert code == 0
    g = parse_algebra(extract_algebra(out))
    from lieforge import builtin

    assert g.c == builtin("d4half").algebra.c
    assert "note principal_element = e4" in out


def test_construct_sasakian_reduction_g5():
    out, code = invoke("construct", "sasakian-reduction", "--builtin", "g5")
    assert code == 0
    g = parse_algebra(extract_algebra(out))
    from lieforge import builtin

    assert g.c == builtin("d4half").algebra.c


def test_construct_sasakian_double():
    out, code = invoke(
        "construct",
        "sasakian-double",
        "--builtin",
        "h3",
        "--two-form",
        "0",
        "--map",
        "diag:0,0,0,1",
    )
    assert code == 0
    assert "overall pass" in out


def test_construct_contact_ideal():
    out, code = invoke("construct", "contact-ideal", "--builtin", "d4half")
    assert code == 0
    g = parse_algebra(extract_algebra(out))
    from lieforge import builtin

    assert g.c == builtin("h3").algebra.c


def test_construct_precondition_failure_exits_one():
    out, code = invoke(
        "construct", "sasakian-to-fk", "--builtin", "h3", "--map", "zero"
    )
    assert code == 1
    assert "item fail" in out


def test_solve_derivations_h3():
    out, code = invoke("solve", "derivations", "--builtin", "h3")
    assert code == 0
    assert "note basis_size = 6" in out


def test_solve_derivations_with_constraint():
    out, code = invoke(
        "solve", "derivations", "--builtin", "h3", "--fix", "alpha∘D=alpha:e3"
    )
    assert code == 0
    assert "section particular" in out


def test_solve_principal_d4half():
    out, code = invoke("solve", "principal", "--builtin", "d4half", "--form", "e3")
    assert code == 0
    assert "note principal_element = e4" in out


def test_solve_reeb():
    out, code = invoke("solve", "reeb", "--builtin", "h3", "--form", "e3")
    assert code == 0
    assert "note reeb = e3" in out


def test_builtin_command_lists_structures():
    out, code = invoke("builtin", "d4half")
    assert code == 0
    assert "section kahler" in out
    assert "note principal_element = e4" in out
    assert "begin algebra" in out


def test_builtin_unknown_name(capsys):
    from lieforge.cli import main

    assert main(["builtin", "nope"]) == 2
    assert "valid names" in capsys.readouterr().err


def test_output_determinism():
    a1 = invoke("check", "sasakian", "--builtin", "g0")
    a2 = invoke("check", "sasakian", "--builtin", "g0")
    assert a1 == a2
    b1 = invoke("construct", "sasakian-reduction", "--builtin", "g5")
    b2 = invoke("construct", "sasakian-reduction", "--builtin", "g5")
    assert b1 == b2


CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus.json"


def test_readme_commands_are_the_corpus():
    # every lieforge line of README's sh blocks is a corpus command, and each corpus command but
    # `builtin g0` and `builtin g5` is in README
    readme = (CORPUS.parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S) for line in block.splitlines()]
    documented = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("lieforge ")]
    corpus = [e["argv"] for e in json.loads(CORPUS.read_text(encoding="utf-8"))["commands"]]
    assert sorted(documented) == sorted(a for a in corpus if a not in (["builtin", "g0"], ["builtin", "g5"]))
    assert len(documented) == len(corpus) - 2


def test_readme_flag_table_is_the_command_table():
    # README's "command kind | flags it reads" table names each kind once, some rows naming two,
    # with the flags of its _COMMANDS row in the row's order
    readme = (CORPUS.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command kind | flags it reads |\n| --- | --- |\n")[1].split("\n\n")[0]
    documented = {}
    for line in table.splitlines():
        kinds, flags = line.strip("|").split("|")
        for kind in re.findall(r"`([^`]+)`", kinds):
            assert kind not in documented, kind
            documented[kind] = re.findall(r"--[a-z-]+", flags)
    declared = {
        f"{command} {kind}": [cli._option(flag) for flag in flags.split()]
        for command, (_, kinds) in cli._COMMANDS.items()
        for kind, (_, flags, _) in kinds.items()
    }
    assert documented == declared


def test_reused_parser_reproduces_first_runs(capsys):
    # every corpus command, then the same again in the same process after a usage error and an
    # appended --fix: each output and exit code is the first run's, so no run leaves state behind
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))["commands"]
    runs = [prefix + e["argv"] for e in entries for prefix in ([], ["--output", "json"])]
    first = [run(argv) for argv in runs]
    assert cli.main(["check", "nonsense", "--builtin", "h3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    fix = ["solve", "derivations", "--builtin", "h3", "--fix", "alpha∘D=alpha:e3"]
    assert run(fix) == first[runs.index(fix)]
    assert [run(argv) for argv in runs] == first
    # the first runs are the outputs frozen in the corpus
    frozen = [(e[mode]["code"], e[mode]["sha256"]) for e in entries for mode in ("text", "json")]
    assert [(code, hashlib.sha256(out.encode("utf-8")).hexdigest()) for out, code in first] == frozen


def test_json_output_mirrors_text():
    text, _ = invoke("check", "contact", "--builtin", "h3", "--form", "e3")
    blob, code = invoke("--output", "json", "check", "contact", "--builtin", "h3", "--form", "e3")
    assert code == 0
    doc = json.loads(blob)
    assert doc["format"] == "lieforge/1"
    assert doc["overall"] == "pass"
    names = [item["name"] for item in doc["items"]]
    assert "contact_top_form_nonzero" in names
    notes = {n["key"]: n["value"] for n in doc["notes"]}
    assert notes["reeb"] == "e3"


def test_wedge_convention_flag_changes_display_not_verdict():
    det_out, det_code = invoke("check", "contact", "--builtin", "h3", "--form", "e3")
    pap_out, pap_code = invoke(
        "--wedge-convention", "paper", "check", "contact", "--builtin", "h3", "--form", "e3"
    )
    assert det_code == pap_code == 0
    assert "note top_coefficient = -1" in det_out
    assert "note top_coefficient = 1" in pap_out
    assert ("overall pass" in det_out) and ("overall pass" in pap_out)


def test_json_embeds_algebra():
    blob, code = invoke(
        "--output", "json", "extend", "derivation", "--builtin", "h3", "--map", "diag:1/2,1/2,1"
    )
    doc = json.loads(blob)
    assert doc["algebra"]["dim"] == 4
    assert {"k": 3, "value": "1"} in doc["algebra"]["brackets"][0]["coeffs"]


FORM_FILE_BAD = "lieforge/1 structure\nkind form\nvalues 0 0 x\n"
MAP_FILE_BAD = "lieforge/1 structure\nkind map\nrow 1 = 1 0 1/0\nrow 2 = 0 1 0\nrow 3 = 0 0 1\n"


@pytest.mark.parametrize(
    "argv, file_text",
    [
        (["check", "derivation", "--builtin", "h3", "--map", "diag:1/0,1,1"], None),
        (["check", "contact", "--builtin", "h3", "--form", "1/0e3"], None),
        (["check", "contact", "--builtin", "h3", "--form", "@{path}"], FORM_FILE_BAD),
        (["check", "derivation", "--builtin", "h3", "--map", "@{path}"], MAP_FILE_BAD),
        (["extend", "central", "--builtin", "h3", "--two-form", "1/0e1^e2"], None),
        (["solve", "derivations", "--builtin", "h3", "--fix", "sends:1/0,0,0->e1"], None),
        (["solve", "derivations", "--builtin", "h3", "--fix", "alpha∘D=1/0:e3"], None),
        (["extend", "double", "--builtin", "h3", "--two-form", "0", "--map", "diag:0,0,0", "--dz", "0,0,0:x"], None),
        (
            ["construct", "sasakian-double", "--builtin", "h3", "--two-form", "0", "--map", "diag:0,0,0,1",
             "--w-scale", "1/0"],
            None,
        ),
    ],
    ids=["diag-map", "inline-form", "form-file", "map-file", "inline-two-form", "sends-vector",
         "eigen-factor", "dz-scale", "w-scale"],
)
def test_bad_rational_is_a_parse_error(argv, file_text, tmp_path, capsys):
    from lieforge.cli import main

    path = tmp_path / "bad.lf"
    if file_text is not None:
        path.write_text(file_text)
    assert main([a.format(path=path) for a in argv]) == 2
    assert "error: bad rational" in capsys.readouterr().err


ABELIAN2 = "lieforge/1 algebra\ndim 2\n"
SASAKIAN_H3 = (
    "lieforge/1 structure\nkind sasakian\nxi = 0 0 1\nalpha = 0 0 1\n"
    "phi row 1 = 0 -1 0\nphi row 2 = 1 0 0\nphi row 3 = 0 0 0\n"
)


@pytest.mark.parametrize(
    "argv, files, culprit",
    [
        (["check", "cocycle", "--builtin", "h3", "--two-form", "@{a}"],
         {"a": "lieforge/1 structure\nkind two_form\nentry 1 7 = 1\n"}, "entry 1 7"),
        (["check", "kahler", "--algebra", "{b}", "--structure", "{a}"],
         {"a": "lieforge/1 structure\nkind kahler\nj row 1 = 0 -1\nj row 2 = 1 0\nomega entry 1 5 = 1\n", "b": ABELIAN2},
         "omega entry 1 5"),
        (["check", "sasakian", "--builtin", "h3", "--structure", "{a}"],
         {"a": SASAKIAN_H3 + "phi row 3 = 0 0 0\n"}, "phi row 3"),
        (["check", "sasakian", "--builtin", "h3", "--structure", "{a}"],
         {"a": SASAKIAN_H3 + "xi = 0 0 1\n"}, "xi ="),
        (["check", "cocycle", "--builtin", "h3", "--two-form", "@{a}"],
         {"a": "lieforge/1 structure\nkind two_form\nentry 1 2 = 1\nentry 1 2 = 0\n"}, "entry 1 2"),
        (["check", "jacobi", "--algebra", "{a}"],
         {"a": "lieforge/1 algebra\ndim 3\nbracket 1 2 = 3:1\nbracket 1 2 = 3:2\n"}, "bracket 1 2"),
        (["check", "jacobi", "--algebra", "{a}"],
         {"a": "lieforge/1 algebra\ndim 3\nbracket 1 2 = 3:1 3:2\n"}, "bracket 1 2"),
        (["check", "jacobi", "--algebra", "{a}"],
         {"a": "lieforge/1 algebra\ndim 5\nbracket 4 5 = 1:1\ndim 3\n"}, "dim 3"),
        (["check", "sasakian", "--builtin", "h3", "--structure", "{a}"],
         {"a": SASAKIAN_H3.replace("xi = 0 0 1\n", "")}, None),
        (["check", "sasakian", "--builtin", "h3", "--structure", "{a}"],
         {"a": SASAKIAN_H3.replace("alpha = 0 0 1\n", "")}, None),
        (["construct", "sasakian-reduction", "--builtin", "g5", "--structure", "{a}"],
         {"a": SASAKIAN_H3.split("phi")[0]}, None),
        (["check", "contact", "--builtin", "h3", "--form", "@{a}"],
         {"a": "lieforge/1 structure\nkind form\n"}, None),
        (["check", "sasakian", "--builtin", "h3", "--structure", "{a}"],
         {"a": SASAKIAN_H3 + "foo = 1 2 3\n"}, "foo ="),
        (["check", "sasakian", "--builtin", "h3", "--structure", "{a}"],
         {"a": SASAKIAN_H3 + "bar row 1 = 1\n"}, "bar row"),
        # a value that does not fit the algebra's dimension is refused on its own line
        (["check", "sasakian", "--builtin", "h3", "--structure", "{a}"],
         {"a": SASAKIAN_H3.replace("xi = 0 0 1", "xi = 0 0 1 0")}, "xi ="),
        (["check", "sasakian", "--builtin", "h3", "--structure", "{a}"],
         {"a": SASAKIAN_H3.replace("alpha = 0 0 1", "alpha = 0 0")}, "alpha ="),
        (["check", "sasakian", "--builtin", "h3", "--structure", "{a}"],
         {"a": SASAKIAN_H3 + "phi row 4 = 0 0 0\n"}, "phi row 4"),
        (["check", "sasakian", "--builtin", "h3", "--structure", "{a}"],
         {"a": SASAKIAN_H3.replace("phi row 3", "phi row 0")}, "phi row 0"),
        (["check", "derivation", "--builtin", "h3", "--map", "@{a}"],
         {"a": "lieforge/1 structure\nkind map\nrow 1 = 1 0 0\nrow 2 = 0 1\nrow 3 = 0 0 1\n"}, "row 2"),
        (["check", "cocycle", "--builtin", "h3", "--two-form", "@{a}"],
         {"a": "lieforge/1 structure\nkind two_form\nentry 1 4 = 1\n"}, "entry 1 4"),
        (["check", "contact", "--builtin", "h3", "--form", "@{a}"],
         {"a": "lieforge/1 structure\nkind form\nvalues 0 1\n"}, "values"),
        (["check", "sasakian", "--builtin", "h3", "--structure", "{a}"],
         {"a": "lieforge/1 structure\nkind kahler\nj row 1 = 0 -1\nj row 2 = 1 0\n"}, "kind kahler"),
    ],
    ids=["two-form-index", "kahler-omega-index", "repeated-map-row", "repeated-field",
         "repeated-two-form-entry", "repeated-bracket", "repeated-bracket-target", "repeated-dim",
         "missing-xi", "missing-alpha", "missing-phi", "missing-values", "unknown-field", "unknown-map",
         "long-xi", "short-alpha", "phi-row-past-dim", "phi-row-zero", "short-map-row",
         "two-form-entry-past-dim", "short-form-values", "wrong-kind"],
)
def test_bad_structure_file_is_a_parse_error(argv, files, culprit, tmp_path, capsys):
    from lieforge.cli import main

    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.lf"
        paths[name].write_text(text)
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if culprit is not None:  # the error points at the repeated, undeclared or misfitting line
        assert f"(byte {files['a'].rindex(culprit)}," in err


def test_crlf_parse_error_counts_every_byte(tmp_path, capsys):
    from lieforge.cli import main

    path = tmp_path / "crlf.lf"
    path.write_bytes(b"lieforge/1 algebra\r\ndim 3\r\nbracket 2 1 = 3:1\r\n")
    assert main(["check", "jacobi", "--algebra", str(path)]) == 2
    assert "(byte 27," in capsys.readouterr().err  # the third line starts after two CRLF lines


@pytest.mark.parametrize(
    "argv, text",
    [
        (["check", "jacobi", "--algebra", "{path}"], "lieforge/1 algebra\ndim 3\nbracket 1 2 = 3:1\n"),
        (["check", "sasakian", "--builtin", "h3", "--structure", "{path}"], SASAKIAN_H3),
    ],
    ids=["algebra", "structure"],
)
def test_crlf_file_reads_like_lf(argv, text, tmp_path):
    (tmp_path / "lf").mkdir()
    (tmp_path / "crlf").mkdir()
    (tmp_path / "lf" / "f.lf").write_bytes(text.encode())
    (tmp_path / "crlf" / "f.lf").write_bytes(text.replace("\n", "\r\n").encode())
    lf_out = run([a.format(path=tmp_path / "lf" / "f.lf") for a in argv])
    assert lf_out[1] == 0
    assert run([a.format(path=tmp_path / "crlf" / "f.lf") for a in argv]) == lf_out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "kahler", "--builtin", "d4half", "--map", "E"],
        ["check", "kahler", "--builtin", "d4half", "--two-form", "e1^e2"],
        ["check", "sasakian", "--builtin", "h3", "--form", "e1"],
        ["check", "sasakian", "--builtin", "h3", "--xi", "e3", "--map", "id"],
        ["construct", "kahler-to-sasakian", "--builtin", "d4half", "--map", "E"],
        ["construct", "kahler-to-sasakian", "--builtin", "h3"],
    ],
    ids=["kahler-map", "kahler-two-form", "sasakian-form", "sasakian-xi-map", "construct-kahler-map",
         "construct-kahler-no-data"],
)
def test_partial_or_missing_source_is_a_usage_error(argv, capsys):
    from lieforge.cli import main

    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: need")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "jacobi", "--builtin", "h3", "--structure", "/nonexistent.lf", "--form", "e9"], "--form"),
        (["check", "contact", "--builtin", "h3", "--structure", "/nonexistent.lf"], "--structure"),
        (["check", "kahler", "--builtin", "d4half", "--form", "e1", "--xi", "e2"], "--form"),
        (["extend", "central", "--builtin", "h3", "--two-form", "0", "--dz", "1,2:3"], "--dz"),
        (["solve", "derivations", "--builtin", "h3", "--form", "e1"], "--form"),
        (["construct", "contact-ideal", "--builtin", "d4half", "--map", "E"], "--map"),
        (["construct", "sasakian-reduction", "--builtin", "g5", "--map", "E", "--two-form", "e1^e2"], "--two-form"),
        (["check", "jacobi", "--builtin", "h3", "--algebra", "/nonexistent.lf"], "--algebra"),
    ],
    ids=["jacobi-structure-form", "contact-structure", "kahler-form-xi", "central-dz", "derivations-form",
         "contact-ideal-map", "reduction-map-two-form", "builtin-and-algebra"],
)
def test_a_flag_the_kind_does_not_read_is_a_usage_error(argv, flag, capsys):
    # each of these once exited 0 with the flag ignored
    from lieforge.cli import main

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


@pytest.mark.parametrize(
    "argv, culprit, reason",
    [
        (["check", "sasakian", "--builtin", "h3", "--structure", "{dir}"], "--structure {dir}", "Is a directory"),
        (["check", "jacobi", "--algebra", "{utf16}"], "--algebra {utf16}", "can't decode byte 0xff"),
        (["check", "contact", "--builtin", "h3", "--form", "@{utf16}"], "--form {utf16}", "can't decode byte 0xff"),
    ],
    ids=["structure-directory", "algebra-undecodable", "form-file-undecodable"],
)
def test_unreadable_input_is_a_usage_error(argv, culprit, reason, tmp_path, capsys):
    from lieforge.cli import main

    utf16 = tmp_path / "h3-utf16.lf"
    utf16.write_bytes("lieforge/1 algebra\ndim 3\nbracket 1 2 = 3:1\n".encode("utf-16"))  # starts ff fe
    assert main([a.format(dir=tmp_path, utf16=utf16) for a in argv]) == 2
    err = capsys.readouterr().err
    # the message names the flag and the file it could not read
    assert err.startswith(f"error: cannot read {culprit.format(dir=tmp_path, utf16=utf16)}: ") and reason in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "contact", "--builtin", "h3", "--form", ""],
        ["check", "contact", "--builtin", "h3", "--form", "  "],
        ["check", "cocycle", "--builtin", "h3", "--two-form", ""],
        ["check", "sasakian", "--builtin", "h3", "--xi", "", "--form", "e3", "--map", "id"],
    ],
    ids=["form", "form-blank", "two-form", "xi"],
)
def test_empty_inline_spec_is_a_parse_error(argv, capsys):
    from lieforge.cli import main

    assert main(argv) == 2
    assert "error: empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["extend", "derivation", "--builtin", "h3"], "--map"),
        (["check", "kahler", "--builtin", "h3", "--form", "e3"], "--form"),
        (["check", "jacobi"], "--builtin"),
        (["check", "sasakian", "--builtin", "h3", "--xi", "e5", "--form", "e3", "--map", "id"], "--xi"),
        (["check", "sasakian", "--builtin", "h3", "--xi", "@xi.lf", "--form", "e3", "--map", "id"], "--xi"),
        (["check", "sasakian", "--builtin", "h3", "--xi", "1,0", "--form", "e3", "--map", "id"], "--xi"),
        (["check", "contact", "--builtin", "h3", "--form", "e9"], "--form"),
        (["check", "cocycle", "--builtin", "h3", "--two-form", "e1^e1"], "--two-form"),
        (["check", "derivation", "--builtin", "h3", "--map", "spin"], "--map"),
        (["check", "derivation", "--builtin", "h3", "--map", "diag:1,2"], "--map"),
        (["extend", "double", "--builtin", "h3", "--two-form", "0", "--map", "diag:0,0,0", "--dz", "0,0,0:x"], "--dz"),
        (["extend", "double", "--builtin", "h3", "--two-form", "0", "--map", "diag:0,0,0", "--dz", "0,0:1"], "--dz"),
        (["extend", "double", "--builtin", "h3", "--two-form", "0", "--map", "diag:0,0,0", "--dz", "0,0,0"], "--dz"),
        (
            ["construct", "sasakian-double", "--builtin", "h3", "--two-form", "0", "--map", "diag:0,0,0,1",
             "--w-scale", "x"],
            "--w-scale",
        ),
        (["solve", "derivations", "--builtin", "h3", "--fix", "alpha∘D=x:e3"], "--fix"),
        (["solve", "derivations", "--builtin", "h3", "--fix", "alpha∘D=2**alpha:e3"], "--fix"),
        (["solve", "derivations", "--builtin", "h3", "--fix", "alpha∘D=alpha:e9"], "--fix"),
        (["solve", "derivations", "--builtin", "h3", "--fix", "commute:@/nonexistent"], "--fix"),
        (["solve", "derivations", "--builtin", "h3", "--fix", "commute:spin"], "--fix"),
        (["solve", "derivations", "--builtin", "h3", "--fix", "sends:e1"], "--fix"),
        (["solve", "derivations", "--builtin", "h3", "--fix", "sends:e1->e5"], "--fix"),
        (["solve", "derivations", "--builtin", "h3", "--fix", "bogus"], "--fix"),
    ],
    ids=["need-map", "unread-form", "no-algebra", "xi-index", "xi-at-file", "xi-length", "form-index",
         "two-form-pair", "map-spec", "diag-length", "dz-scale", "dz-length", "dz-colon", "w-scale", "fix-factor",
         "fix-alpha-factor", "fix-form", "fix-map-file", "fix-map-spec", "fix-arrow", "fix-vector", "fix-unknown"],
)
def test_a_usage_error_names_its_flag_and_no_byte_offset(argv, flag, capsys):
    # only a fault inside a file has a byte offset; a fault in the command line names the flag given
    from lieforge.cli import main

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "(byte" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, inline, kind, body",
    [
        (["check", "contact", "--builtin", "h3", "--form"], "e3", "form", "values 0 0 1\n"),
        (["check", "cocycle", "--builtin", "h3", "--two-form"], "e1^e2", "two_form", "entry 1 2 = 1\n"),
        (
            ["check", "derivation", "--builtin", "h3", "--map"],
            "diag:1/2,1/2,1",
            "map",
            "row 1 = 1/2 0 0\nrow 2 = 0 1/2 0\nrow 3 = 0 0 1\n",
        ),
    ],
    ids=["form", "two-form", "map"],
)
def test_an_at_file_value_runs_like_its_inline_spelling(argv, inline, kind, body, tmp_path):
    path = tmp_path / f"{kind}.lf"
    path.write_text(f"lieforge/1 structure\nkind {kind}\n{body}", encoding="utf-8")
    out, code = run(argv + [f"@{path}"])
    assert (out, code) == run(argv + [inline])
    assert code == 0


def test_alpha_phi_witness_is_a_dual_vector():
    out, code = invoke("check", "sasakian", "--builtin", "h3", "--xi", "e3", "--form", "e3", "--map", "id")
    assert code == 1
    assert "item fail alpha_phi_vanishes | alpha(Phi e_j) = e3*\n" in out


def test_explicit_zero_inline_spec_is_zero():
    out, code = invoke("check", "contact", "--builtin", "h3", "--form", "0")
    assert code == 1 and "item fail contact_top_form_nonzero" in out
    out, code = invoke("check", "cocycle", "--builtin", "h3", "--two-form", "0")
    assert code == 0


NON_LIE = "lieforge/1 algebra\ndim 3\nbracket 1 2 = 3:1\nbracket 1 3 = 1:1\n"


def test_non_lie_algebra_file_is_refused(tmp_path):
    path = tmp_path / "bad.lf"
    path.write_text(NON_LIE)
    out, code = invoke("check", "contact", "--algebra", str(path), "--form", "e3")
    assert code == 1
    assert "item fail jacobi(e1,e2,e3)" in out
    assert "contact_top_form_nonzero" not in out


def test_jacobi_runs_once_per_file_algebra(tmp_path, monkeypatch):
    import lieforge.algebra
    import lieforge.cli as cli

    path = tmp_path / "h3.lf"
    path.write_text("lieforge/1 algebra\ndim 3\nbracket 1 2 = 3:1\n")
    calls = []
    original = cli.check_jacobi
    # cli calls it to refuse a file algebra, and check jacobi looks it up in its home module
    for module in (cli, lieforge.algebra):
        monkeypatch.setattr(module, "check_jacobi", lambda g: calls.append(g) or original(g))
    for argv, expected in [
        (["check", "jacobi", "--algebra", str(path)], 1),
        (["check", "contact", "--algebra", str(path), "--form", "e3"], 1),
        (["check", "contact", "--builtin", "h3", "--form", "e3"], 0),
    ]:
        calls.clear()
        assert invoke(*argv)[1] == 0
        assert len(calls) == expected, argv


# One check per input structure and one per output structure; sasakian-double
# proves its extension contact once, while solving the parameters, and the
# constructor reuses that build.
CONSTRUCT_CHECKS = [
    (["construct", "fk-to-sasakian", "--builtin", "d4half", "--map", "E"],
     {"check_frobenius": 1, "check_kahler": 1, "check_sasakian": 1}),
    (["construct", "sasakian-to-fk", "--builtin", "h3", "--map", "diag:1/2,1/2,1"],
     {"check_sasakian": 1, "check_frobenius": 1, "check_kahler": 1}),
    (["construct", "kahler-to-sasakian", "--builtin", "d4half"], {"check_kahler": 1, "check_sasakian": 1}),
    (["construct", "sasakian-reduction", "--builtin", "g5"], {"check_sasakian": 1, "check_kahler": 1}),
    (["construct", "sasakian-double", "--builtin", "h3", "--two-form", "0", "--map", "diag:0,0,0,1"],
     {"check_sasakian": 2, "check_contact": 1}),
    (["construct", "contact-ideal", "--builtin", "d4half"],
     {"check_frobenius": 1, "check_kahler": 1, "check_contact": 1, "check_sasakian": 1}),
]


@pytest.mark.parametrize("argv, expected", CONSTRUCT_CHECKS, ids=[c[0][1] for c in CONSTRUCT_CHECKS])
def test_construct_checks_each_structure_once(argv, expected, monkeypatch):
    import lieforge.catalog, lieforge.cli, lieforge.structures, lieforge.theorems
    from collections import Counter

    counts = Counter()
    for name in ("check_contact", "check_frobenius", "check_kahler", "check_sasakian"):
        original = getattr(lieforge.structures, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in (lieforge.structures, lieforge.catalog, lieforge.theorems, lieforge.cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    out, code = invoke(*argv)
    assert code == 0, out
    assert dict(counts) == expected


# (linalg._eliminate, linalg.sub_pfaffians) calls of each corpus command in text mode. Each matrix
# is eliminated once, and the contact and Frobenius checks eliminate nothing: check_contact reads
# its Pfaffian and Reeb vector, and a passing check_frobenius its principal element, off one skew
# elimination (sub_pfaffians); theorems.kernel_basis writes Ker(alpha) down; sasakian_reduction
# tests the center and reads coordinates against reduced bases. 25 and 9 in all.
ELIMINATIONS = {
    "check jacobi --builtin h3": (0, 0),
    "check cocycle --builtin h3 --two-form e1^e2": (0, 0),
    "check derivation --builtin h3 --map diag:1/2,1/2,1": (0, 0),
    "check contact --builtin h3 --form e3": (0, 1),
    "check frobenius --builtin d4half": (0, 1),
    "check kahler --builtin d4half": (1, 0),
    "check sasakian --builtin h3": (1, 0),
    "extend central --builtin h3 --two-form 0": (0, 0),
    "extend derivation --builtin h3 --map diag:1/2,1/2,1": (0, 0),
    "extend double --builtin h3 --two-form 0 --map diag:1/2,1/2,1,1": (0, 0),
    "extend double --builtin h3 --two-form 0 --map diag:0,0,0 --dz 0,0,0:1": (0, 0),
    "extend reversed --builtin h3 --form e3 --map diag:1/2,1/2,1": (1, 0),
    "construct fk-to-sasakian --builtin d4half --map E": (2, 1),
    "construct sasakian-to-fk --builtin h3 --map diag:1/2,1/2,1": (2, 1),
    "construct kahler-to-sasakian --builtin d4half": (2, 0),
    "construct sasakian-reduction --builtin g5": (3, 0),
    "construct sasakian-double --builtin h3 --two-form 0 --map diag:0,0,0,1": (2, 1),
    "construct contact-ideal --builtin d4half": (2, 2),
    "solve derivations --builtin h3": (1, 0),
    "solve derivations --builtin h3 --fix alpha∘D=alpha:e3": (2, 0),
    "solve reeb --builtin h3 --form e3": (0, 1),
    "solve principal --builtin d4half --form e3": (0, 1),
    "builtin h3": (2, 0),
    "builtin g0": (2, 0),
    "builtin g5": (2, 0),
}


def counting_kernels(monkeypatch):
    """Patch linalg._eliminate and every binding of linalg.sub_pfaffians to log their calls."""
    import lieforge.linalg

    calls = []
    eliminate, kernel = lieforge.linalg._eliminate, lieforge.linalg.sub_pfaffians
    monkeypatch.setattr(lieforge.linalg, "_eliminate", lambda *args, **kw: calls.append("eliminate") or eliminate(*args, **kw))
    for name, module in list(sys.modules.items()):
        if name.startswith("lieforge") and getattr(module, "sub_pfaffians", None) is kernel:
            monkeypatch.setattr(module, "sub_pfaffians", lambda *args: calls.append("sub_pfaffians") or kernel(*args))
    return calls


def test_corpus_elimination_budget(monkeypatch):
    calls = counting_kernels(monkeypatch)
    counts = {}
    for entry in json.loads(CORPUS.read_text(encoding="utf-8"))["commands"]:
        calls.clear()
        run(entry["argv"])
        counts[" ".join(entry["argv"])] = (calls.count("eliminate"), calls.count("sub_pfaffians"))
    assert counts == ELIMINATIONS


def test_constructions_make_no_fraction_products(monkeypatch):
    # theorems tests its conditions and forms its maps as integer products: over the construct commands of
    # the corpus, no Fraction mat_vec or mat_mul call comes from it
    import lieforge.linalg

    callers = []
    for name in ("mat_vec", "mat_mul"):
        original = getattr(lieforge.linalg, name)

        def counted(*args, _original=original):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("lieforge") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    counts = {}
    for entry in json.loads(CORPUS.read_text(encoding="utf-8"))["commands"]:
        if entry["argv"][0] == "construct":
            callers.clear()
            assert run(entry["argv"])[1] == 0
            counts[" ".join(entry["argv"])] = callers.count("lieforge.theorems")
    assert len(counts) == 6 and set(counts.values()) == {0}, counts


def test_corpus_runs_without_the_dense_tensor(monkeypatch):
    # every corpus command works from the bracket table and its integer terms alone: with the
    # dense tensor LieAlgebra.c made to raise, each run still gives its frozen output and exit code
    def no_dense_tensor(g):
        raise AssertionError("LieAlgebra.c was read")

    monkeypatch.setattr(lf.LieAlgebra, "c", property(no_dense_tensor))
    for entry in json.loads(CORPUS.read_text(encoding="utf-8"))["commands"]:
        for mode, prefix in (("text", []), ("json", ["--output", "json"])):
            out, code = run(prefix + entry["argv"])
            assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (
                entry[mode]["code"],
                entry[mode]["sha256"],
            ), entry["argv"]


def test_reduction_of_a_line_is_refused(tmp_path):
    # R with alpha = e1*, xi = e1 and Phi = 0 is Sasakian; its reduction is refused, with exit 1, not a traceback
    algebra, structure = tmp_path / "R.lf", tmp_path / "S.lf"
    algebra.write_text("lieforge/1 algebra\ndim 1\n", encoding="utf-8")
    structure.write_text("lieforge/1 structure\nkind sasakian\nxi = 1\nalpha = 1\nphi row 1 = 0\n", encoding="utf-8")
    files = ["--algebra", str(algebra), "--structure", str(structure)]
    assert invoke("check", "sasakian", *files)[1] == 0
    out, code = invoke("construct", "sasakian-reduction", *files)
    assert code == 1 and "item fail quotient_dimension_positive | dim = 1" in out


def _conjugated(g, phi, seed):
    p = random_invertible(random.Random(seed), g.dim)
    return conjugate_algebra(g, p, mat_inverse(p)), conjugate_one_form(phi, p)


H3R = lf.LieAlgebra.from_brackets(4, {(0, 1): {2: 1}})


@pytest.mark.parametrize("m", [1, 3, 6])
def test_a_passing_contact_check_eliminates_nothing(m, monkeypatch):
    # dense h_{2m+1} up to h13 with z*: one skew elimination gives the Pfaffian and the Reeb vector
    g, reeb, alpha, _ = conjugated_heisenberg_sasakian(m, 1)
    calls = counting_kernels(monkeypatch)
    report, structure = lf.check_contact(g, alpha)
    assert report.overall and structure.reeb == reeb
    assert calls == ["sub_pfaffians"]


@pytest.mark.parametrize(
    "g, phi, expected",
    [
        (lf.builtin("d4half").algebra, lf.builtin("d4half").frobenius_form, ["sub_pfaffians"]),
        (R2R2, lf.KForm.one_form(4, [0, 1, 0, 1]), ["sub_pfaffians"]),
        # degenerate Kirillov forms with phi != 0: one elimination of the Kirillov rows for the witness
        (lf.LieAlgebra.abelian(2), lf.KForm.basis_one_form(2, 0), ["sub_pfaffians", "eliminate"]),
        (lf.LieAlgebra.abelian(4), lf.KForm.basis_one_form(4, 0), ["sub_pfaffians", "eliminate"]),
        (H3R, lf.KForm.basis_one_form(4, 2), ["sub_pfaffians", "eliminate"]),
        (lf.builtin("h3").algebra, lf.KForm.basis_one_form(3, 2), ["eliminate"]),
    ],
    ids=["d4half", "aff-aff", "R2", "R4", "h3+R", "h3-odd"],
)
def test_frobenius_check_eliminates_only_to_name_a_radical_vector(g, phi, expected, monkeypatch):
    g, phi = _conjugated(g, phi, 7)
    calls = counting_kernels(monkeypatch)
    report, structure = lf.check_frobenius(g, phi)
    assert calls == expected
    assert report.overall == (structure is not None) == ("eliminate" not in expected)


def test_contact_ideal_brackets_each_pair_once(monkeypatch):
    # [x_P, e_b] for the 3 kept vectors, then ad(xi) on the 3-dimensional ideal: 6 columns of the
    # integer ad(x), each read off the bracket table, and no other integer bracket
    import lieforge.algebra
    import lieforge.theorems

    calls, adjoints = [], []
    original = lieforge.algebra._bracket_ints
    for name, module in list(sys.modules.items()):
        if name.startswith("lieforge") and getattr(module, "_bracket_ints", None) is original:
            monkeypatch.setattr(module, "_bracket_ints", lambda *args: calls.append(1) or original(*args))
    adjoint = lieforge.theorems._int_adjoint
    monkeypatch.setattr(lieforge.theorems, "_int_adjoint", lambda *a: adjoints.append(adjoint(*a)) or adjoints[-1])
    assert invoke("construct", "contact-ideal", "--builtin", "d4half")[1] == 0
    assert calls == [] and [len(m[0]) for m, _ in adjoints] == [3, 3]


@pytest.mark.parametrize(
    "argv, default",
    [
        # the restriction is h3 with alpha = e3*, which check contact prints as 1 under paper
        (["construct", "contact-ideal", "--builtin", "d4half"], "-1"),
        # the child has dimension 7, its base 5
        (["construct", "sasakian-double", "--builtin", "g5", "--two-form", "0", "--map", "diag:0,0,0,0,0,1"], "-6"),
        # solve reeb prints the top coefficient of check contact
        (["solve", "reeb", "--builtin", "h3", "--form", "e3"], "-1"),
    ],
    ids=["contact-ideal", "sasakian-double-g5", "solve-reeb"],
)
def test_wedge_convention_flips_construct_evaluations(argv, default):
    out, code = invoke(*argv)
    assert code == 0 and f"note top_coefficient = {default}" in out
    flipped = default[1:] if default.startswith("-") else f"-{default}"
    out, code = invoke("--wedge-convention", "paper", *argv)
    assert code == 0 and f"note top_coefficient = {flipped}" in out
    assert "note top_coefficient = 1\n" in invoke("--wedge-convention", "paper", "check", "contact", "--builtin", "h3", "--form", "e3")[0]


# the parameters of this double extension have delta = ad - bc = 0; with the solved w scale
# (no --w-scale) it passes and prints a top coefficient, which the paper convention flips
REFUSED_DOUBLE = ["construct", "sasakian-double", "--builtin", "h3", "--two-form", "0", "--map", "diag:0,0,0,1", "--w-scale", "0"]


def test_wedge_convention_leaves_a_refusal_as_it_is():
    out, code = invoke(*REFUSED_DOUBLE)
    assert code == 1 and "item fail params_delta_nonzero | delta = ad - bc = 0\n" in out
    assert invoke("--wedge-convention", "paper", *REFUSED_DOUBLE) == (out, code)


# a failing and a refused command of each family; {non_lie} is an algebra file that fails Jacobi
FAILING_AND_REFUSED = [
    ["check", "contact", "--builtin", "h3", "--form", "e1"],
    ["check", "contact", "--algebra", "{non_lie}", "--form", "e3"],
    ["extend", "central", "--builtin", "d4half", "--two-form", "e1^e2", "--force"],
    ["extend", "central", "--builtin", "d4half", "--two-form", "e1^e2"],
    ["construct", "sasakian-double", "--builtin", "h3", "--two-form", "0", "--map", "diag:0,0,0,1", "--w-scale", "-1"],
    REFUSED_DOUBLE,
    ["solve", "reeb", "--builtin", "g0", "--form", "e3"],
    ["solve", "principal", "--algebra", "{non_lie}", "--form", "e3"],
]


def test_exit_code_is_the_overall_verdict(tmp_path):
    # the exit code is 0 exactly when the text report ends "overall pass" and the JSON one has
    # overall "pass", for every corpus command and for the failing and refused commands
    (tmp_path / "non_lie.lf").write_text(NON_LIE)
    extra = [[a.format(non_lie=tmp_path / "non_lie.lf") for a in argv] for argv in FAILING_AND_REFUSED]
    corpus = [e["argv"] for e in json.loads(CORPUS.read_text(encoding="utf-8"))["commands"]]
    runs = []
    for argv in corpus + extra:
        text, code = run(argv)
        blob, json_code = run(["--output", "json", *argv])
        verdict = json.loads(blob)["overall"]
        assert code == json_code and text.endswith(f"\noverall {verdict}\n"), argv
        assert (code == 0) == (verdict == "pass") and code in (0, 1), argv
        runs.append((text, code))
    assert [code for _, code in runs[len(corpus) :]] == [1] * len(extra)
    # refused commands print the refusal's report, with no output algebra
    assert ["begin algebra" in text for text, _ in runs[len(corpus) :]] == [False, False, True, False, True, False, False, False]


def bench_tracing():
    """bench/tracing.py, loaded from its file (bench is not a package)."""
    spec = importlib.util.spec_from_file_location("lieforge_bench_tracing", CORPUS.with_name("tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reaches_the_renderers():
    # one command of each family loads derivations, extensions and theorems, whose bindings the
    # tracer has to find too; a JSON run under the tracer then records the renderer's span
    import lieforge.fileio

    tracing = bench_tracing()
    for argv in (
        ["check", "contact", "--builtin", "h3", "--form", "e3"],
        ["extend", "derivation", "--builtin", "h3", "--map", "diag:1/2,1/2,1"],
        ["construct", "sasakian-reduction", "--builtin", "g5"],
        ["solve", "derivations", "--builtin", "h3"],
        ["builtin", "h3"],
    ):
        assert cli.run(argv)[1] == 0
    original = lieforge.fileio.render_json
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out, code = cli.run(["--output", "json", "check", "contact", "--builtin", "h3", "--form", "e3"])
    finally:
        tracer.uninstall()
    assert code == 0 and json.loads(out)["overall"] == "pass"
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.run" and "fileio.render_json" in names and "structures.check_contact" in names
    assert lieforge.fileio.render_json is original


def test_tracer_stops_on_a_renderer_table(monkeypatch):
    # a module-level table that holds a renderer keeps an untraced binding: the tracer must refuse
    import lieforge.fileio

    tracing = bench_tracing()
    original = lieforge.fileio.render_text
    monkeypatch.setattr(cli, "_RENDERERS", {"text": original}, raising=False)
    with pytest.raises(tracing.IncompleteTrace, match="render_text"):
        tracing.Tracer().install()
    assert lieforge.fileio.render_text is original and cli.render_text is original


@pytest.mark.parametrize(
    "fixes, culprit",
    [
        (["sends:e1->e2", "sends:e1->e3"], "sends:e1->e3"),
        (["sends:e1->e2", "sends:e2->e2", "sends:e1->e3"], "sends:e1->e3"),
        (["sends:e3->e1", "sends:e1->e2"], "sends:e3->e1"),
        (["sends:e1->e2", "sends:e3->e1", "sends:e1->e3"], "sends:e3->e1"),
    ],
)
def test_inconsistent_fix_names_the_first_culprit(fixes, culprit):
    argv = ["solve", "derivations", "--builtin", "h3"] + [a for spec in fixes for a in ("--fix", spec)]
    out, code = invoke(*argv)
    assert code == 1
    assert f"item fail solution_exists | empty: inconsistent at constraint {culprit!r}\n" in out


@pytest.mark.parametrize(
    "factor, rational",
    [("alpha", "1"), ("-alpha", "-1"), ("+alpha", "1"), ("2*alpha", "2"), ("-1/2*alpha", "-1/2"), ("3alpha", "3")],
)
def test_fix_factor_is_a_rational_or_a_signed_multiple_of_alpha(factor, rational):
    # alpha∘D=F:FORM reads F as a rational or as a rational times alpha, the rational 1 when none is written
    solve = ["solve", "derivations", "--builtin", "h3", "--fix"]
    out, code = invoke(*solve, f"alpha∘D={factor}:e3")
    assert code == 0 and (out, code) == invoke(*solve, f"alpha∘D={rational}:e3")


FUZZ_FILES = {
    "h3": "lieforge/1 algebra\ndim 3\nbracket 1 2 = 3:1\n",
    "non_lie": NON_LIE,
    "sasakian": SASAKIAN_H3,
    "no_xi": SASAKIAN_H3.replace("xi = 0 0 1\n", ""),
    "unknown": SASAKIAN_H3 + "foo = 1 2 3\n",
    "short_xi": SASAKIAN_H3.replace("xi = 0 0 1", "xi = 0 1"),
    "kahler": "lieforge/1 structure\nkind kahler\nj row 1 = 0 -1 0 0\nj row 2 = 1 0 0 0\n"
    "j row 3 = 0 0 0 -1\nj row 4 = 0 0 1 0\nomega entry 1 2 = 1\nomega entry 3 4 = 1\n",
    "form": "lieforge/1 structure\nkind form\nvalues 0 0 1\n",
    "no_values": "lieforge/1 structure\nkind form\n",
    "two_form": "lieforge/1 structure\nkind two_form\nentry 1 2 = 1\nentry 2 9 = 1\n",
    "map": "lieforge/1 structure\nkind map\nrow 1 = 1 0 0\nrow 2 = 0 1 0\n",
    "params": "lieforge/1 structure\nkind params\na = 1\n",
    "garbage": "lieforge/1 structure\n\x00 = =\n",
}
FUZZ_VALUES = {
    "--form": ["e3", "e4", "2e1-1/2e3", "e9", "@{form}", "@{no_values}", "@{map}"],
    "--two-form": ["0", "e1^e2", "e1^e1", "@{two_form}", "@{params}"],
    "--map": ["E", "id", "zero", "diag:1/2,1/2,1", "diag:0,0,0,1", "spin", "@{map}", "@{sasakian}"],
    "--xi": ["e3", "0,0,1", "e5", "@{form}"],
    "--structure": ["{sasakian}", "{kahler}", "{no_xi}", "{unknown}", "{short_xi}", "{garbage}", "{absent}"],
    "--dz": ["0,0,0:1", "1,0:x", "nocolon"],
    "--w-scale": ["1", "-1", "0", "x"],
    "--fix": ["alpha∘D=alpha:e3", "commute:E", "sends:e1->e2", "bogus"],
}
FUZZ_COMMANDS = {
    "check": (["jacobi", "cocycle", "derivation", "contact", "frobenius", "kahler", "sasakian"],
              ["--form", "--two-form", "--map", "--xi", "--structure"]),
    "extend": (["central", "derivation", "double", "reversed"], ["--form", "--two-form", "--map", "--dz"]),
    "construct": (["fk-to-sasakian", "sasakian-to-fk", "kahler-to-sasakian", "sasakian-reduction",
                   "sasakian-double", "contact-ideal"],
                  ["--form", "--two-form", "--map", "--dz", "--structure", "--w-scale"]),
    "solve": (["derivations", "reeb", "principal"], ["--form", "--fix"]),
}


def test_cli_fuzz_exit_codes(tmp_path):
    """Any mix of commands, sources, inline specs and malformed files exits 0, 1 or 2."""
    from hypothesis import given, settings, strategies as st

    from lieforge.cli import main

    paths = {"absent": tmp_path / "absent.lf"}
    for name, text in FUZZ_FILES.items():
        paths[name] = tmp_path / f"{name}.lf"
        paths[name].write_text(text)
    sources = [["--builtin", name] for name in ("h3", "d4half", "g0", "g5")]
    sources += [["--algebra", "{h3}"], ["--algebra", "{non_lie}"], []]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def run_one(data):
        command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
        kinds, flags = FUZZ_COMMANDS[command]
        argv = [command, data.draw(st.sampled_from(kinds)), *data.draw(st.sampled_from(sources))]
        for flag in data.draw(st.lists(st.sampled_from(flags), unique=True, max_size=4)):
            argv += [flag, data.draw(st.sampled_from(FUZZ_VALUES[flag]))]
        assert main([a.format(**paths) for a in argv]) in (0, 1, 2), argv

    run_one()


# --- the parser: argv read from the command tables, pinned to the argparse parser it replaced ----


def parsed(argv):
    """``cli._parse_args``'s values as a dict, or None for a usage error, like ``cli_oracle.parse``."""
    try:
        return vars(cli._parse_args(argv))
    except lf.LieforgeError:
        return None


def assert_parses_as_argparse(argv):
    # argparse leaves out the flags no kind of the command reads; the table parser holds them at their defaults
    want, got = cli_oracle.parse(argv), parsed(argv)
    assert (want is None) == (got is None), (argv, want, got)
    if want is not None:
        assert {key: got[key] for key in want} == want, argv
        assert all(got[key] in (None, False, []) for key in got.keys() - want.keys()), argv


FUZZ_SOURCES = [["--builtin", name] for name in ("h3", "d4half", "g0", "g5", "nope")]
FUZZ_SOURCES += [["--algebra", "{h3}"], [], ["--builtin", "h3", "--algebra", "{h3}"]]


def test_parser_matches_argparse_on_the_corpus():
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))["commands"]
    prefixes = ([], ["--output", "json"], ["--wedge-convention", "paper"], ["--output=json", "--wedge-convention=paper"])
    for argv in (prefix + e["argv"] for e in entries for prefix in prefixes):
        assert parsed(argv) is not None, argv
        assert_parses_as_argparse(argv)


def test_parser_matches_argparse_on_every_fuzz_flag():
    # each command and kind (and one it lacks), each source, and no flag, each flag with each
    # fuzz value, or two flags at once
    argvs = [[], ["check"], ["nonsense"], ["builtin"], ["builtin", "h3"], ["builtin", "nope"], ["builtin", "h3", "g0"]]
    for command, (kinds, flags) in FUZZ_COMMANDS.items():
        for kind in kinds + ["bogus"]:
            for source in FUZZ_SOURCES:
                base = [command, kind, *source]
                argvs.append(base)
                argvs += [base + [flag, value] for flag in flags for value in FUZZ_VALUES[flag]]
                argvs += [base + [f, FUZZ_VALUES[f][0], g, FUZZ_VALUES[g][-1]] for i, f in enumerate(flags) for g in flags[i:]]
    for argv in argvs:
        assert_parses_as_argparse(argv)


def test_parser_matches_argparse_on_fuzz_command_lines():
    from hypothesis import given, settings, strategies as st

    globals_ = [[], ["--output", "json"], ["--wedge-convention", "paper"], ["--output", "xml"], ["--output"]]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check_one(data):
        command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
        kinds, flags = FUZZ_COMMANDS[command]
        argv = [*data.draw(st.sampled_from(globals_)), command, data.draw(st.sampled_from(kinds))]
        argv += data.draw(st.sampled_from(FUZZ_SOURCES))
        for flag in data.draw(st.lists(st.sampled_from(flags + ["--force"]), max_size=4)):
            argv += [flag] if flag == "--force" else [flag, data.draw(st.sampled_from(FUZZ_VALUES[flag]))]
        assert_parses_as_argparse(argv)

    check_one()


def test_parser_differs_from_argparse_only_as_documented():
    # argparse takes an abbreviated flag; the table parser refuses it
    abbreviated = ["check", "contact", "--buil", "h3", "--form", "e3"]
    assert cli_oracle.parse(abbreviated)["builtin"] == "h3" and parsed(abbreviated) is None
    # argparse refuses a value that starts with '-'; the table parser takes it
    negative = ["check", "contact", "--builtin", "h3", "--form", "-e3"]
    assert cli_oracle.parse(negative) is None and parsed(negative)["form"] == "-e3"
    out, code = run(negative)
    assert code == 0 and "note reeb = -e3" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "need a command"),
        (["nonsense", "h3"], "unknown command 'nonsense'"),
        (["check", "nonsense", "--builtin", "h3"], "unknown check kind 'nonsense'"),
        (["check"], "check needs a kind: jacobi, cocycle"),
        (["check", "jacobi", "--builtin", "nope"], "unknown builtin 'nope'; valid names: d4half, g0, g5, h3"),
        (["builtin", "nope"], "unknown builtin 'nope'; valid names: d4half, g0, g5, h3"),
        (["builtin"], "builtin needs a name: d4half, g0, g5, h3"),
        (["builtin", "h3", "g0"], "unknown word 'g0' after builtin h3"),
        (["builtin", "h3", "--builtin", "h3"], "unknown flag --builtin"),
        (["check", "jacobi", "--builtin", "h3", "--bogus", "1"], "unknown flag --bogus"),
        (["check", "jacobi", "--builtin=h3", "--bogus=1"], "unknown flag --bogus"),
        (["check", "contact", "--buil", "h3", "--form", "e3"], "unknown flag --buil"),
        (["check", "contact", "--builtin", "h3", "--form"], "--form needs a value"),
        (["check", "jacobi", "--builtin", "h3", "--output", "json"], "unknown flag --output (global flags go before"),
        (["--form", "e3", "check", "contact", "--builtin", "h3"], "unknown flag --form"),
        (["--output", "xml", "builtin", "h3"], "unknown --output 'xml'; valid names: text, json"),
        (["--out", "json", "builtin", "h3"], "unknown flag --out"),
        (["extend", "central", "--builtin", "h3", "--two-form", "0", "--force=yes"], "--force takes no value"),
        (["check", "jacobi", "--algebra", "x", "--builtin", "h3"], "--builtin and --algebra exclude each other"),
        (["check", "jacobi", "--builtin", "h3", "--fix", "bogus"], "check jacobi does not read --fix"),
        (["check", "sasakian", "--builtin", "h3", "--structure", ""], "cannot read --structure "),
        (["construct", "sasakian-double", "--builtin", "h3", "--two-form", "0", "--map", "diag:0,0,0,1",
          "--w-scale", ""], "bad rational '' in --w-scale"),
        (["check", "jacobi", "--algebra", ""], "cannot read --algebra "),
    ],
    ids=["no-command", "unknown-command", "unknown-kind", "no-kind", "unknown-builtin", "unknown-builtin-name",
         "builtin-no-name", "extra-word", "builtin-flag", "unknown-flag", "unknown-flag-equals", "abbreviated-flag",
         "missing-value", "global-after-command", "command-flag-before-command", "global-choice",
         "abbreviated-global", "force-value", "builtin-and-algebra", "unread-fix", "empty-structure",
         "empty-w-scale", "empty-algebra"],
)
def test_a_command_line_the_tables_do_not_declare_is_a_usage_error(argv, message, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1


def test_help_lists_every_command_and_the_global_flags(capsys):
    for argv in (["--help"], ["-h"], ["--output", "json", "-h"]):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: lieforge ")
        for command, (text, _) in cli._COMMANDS.items():
            assert re.search(rf"^  {command} +{re.escape(text)}$", out, re.M), command
        assert re.search(r"^  builtin +print a built-in algebra", out, re.M)
        assert "--output text|json" in out and "--wedge-convention determinant|paper" in out


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_command_help_lists_each_kind_and_the_flags_it_reads(command, capsys):
    _, kinds = cli._COMMANDS[command]
    for argv in ([command, "--help"], [command, "-h"], [command, next(iter(kinds)), "--builtin", "h3", "--help"]):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: lieforge {command} KIND")
        for kind, (_, flags, _) in kinds.items():
            spelled = " ".join(f"--{flag.replace('_', '-')}" for flag in flags.split()) or "(none)"
            assert re.search(rf"^  {kind} +{re.escape(spelled)}$", out, re.M), kind
        read = {flag for _, flags, _ in kinds.values() for flag in flags.split()}
        for flag, flag_help in cli._FLAGS.items():
            listed = re.search(rf"^  --{flag.replace('_', '-')} +{re.escape(flag_help)}$", out, re.M)
            assert bool(listed) == (flag in read), flag


def test_every_function_the_tables_name_is_public_in_its_home_module():
    # a typo in a row fails here rather than when its command runs
    named = [function for _, kinds in cli._COMMANDS.values() for _, _, function in kinds.values() if function]
    checks = [source.check for source in cli._SOURCES.values()]
    assert len(named) == 14 and len(checks) == 4
    for path in named + checks:
        module, name = path.split(".")
        assert name in lf.__all__ and lf._HOME[name] == module, path


def test_builtin_help_lists_the_names(capsys):
    assert cli.main(["builtin", "--help"]) == 0
    assert capsys.readouterr().out.endswith("names: d4half, g0, g5, h3\n")
