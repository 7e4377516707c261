"""Command line front end.

Exit codes: 0 when the overall verdict passes, 1 when it fails or a
precondition rejects the input, 2 on usage or parse errors. Output is
deterministic byte for byte for identical invocations.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import LieAlgebra, center, check_jacobi
from .catalog import BUILTINS, Builtin, builtin
from .derivations import Commute, FormEigen, Leibniz, Sends, derivation_space, is_derivation
from .extensions import (
    ExtensionResult,
    central_extension,
    derivation_extension,
    double_extension,
    is_cocycle,
    reversed_double_extension,
)
from .fileio import (
    ParseError,
    ReportDocument,
    _scalar_at,
    parse_algebra,
    parse_form_inline,
    parse_map_inline,
    parse_structure,
    parse_two_form_inline,
    parse_vector_inline,
    render_json,
    render_text,
)
from .forms import KForm, evaluation_sign
from .linalg import Matrix, Vector, fmt_scalar, fmt_vector, scalar
from .report import CheckItem, LieforgeError, PreconditionError, fail
from .structures import (
    KahlerStructure,
    SasakianStructure,
    check_contact,
    check_frobenius,
    check_kahler,
    check_sasakian,
    one_form_coords,
)
from .theorems import (
    contact_ideal_restriction,
    frobenius_kahler_to_sasakian,
    kahler_to_sasakian_central,
    sasakian_double_extension,
    sasakian_reduction,
    sasakian_to_frobenius_kahler,
    solve_double_extension_params,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieforge",
        description="Exact-arithmetic Lie algebra extensions and geometric structure checks.",
    )
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument(
        "--wedge-convention",
        choices=("determinant", "paper"),
        default="determinant",
        help="sign convention for printed form evaluations; never changes verdicts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--builtin", choices=sorted(BUILTINS))
        p.add_argument("--algebra", help="path to a lieforge/1 algebra file")

    p = sub.add_parser("check", help="verify an axiom system")
    p.add_argument("kind", choices=("jacobi", "cocycle", "derivation", "contact", "frobenius", "kahler", "sasakian"))
    add_source(p)
    p.add_argument("--form", help="1-form, inline (e3, e3+e5, 2e1-1/2e3) or @file")
    p.add_argument("--two-form", help="2-form, inline (0, e1^e2-e3^e4) or @file")
    p.add_argument("--map", help="linear map: diag:.., zero, id, named builtin map, or @file")
    p.add_argument("--xi", help="vector, inline (e3 or 0,0,1)")
    p.add_argument("--structure", help="path to a structure file (kind sasakian or kahler)")

    p = sub.add_parser("extend", help="build an extension")
    p.add_argument("kind", choices=("central", "derivation", "double", "reversed"))
    add_source(p)
    p.add_argument("--form", help="1-form for reversed extensions")
    p.add_argument("--two-form", help="2-cocycle for central/double extensions")
    p.add_argument("--map", help="derivation; for double extensions it acts on the central extension")
    p.add_argument("--dz", help="assemble the double-extension map: 'w1,..,wn:s' appends D(z)=w+sz")
    p.add_argument("--force", action="store_true", help="skip precondition enforcement")

    p = sub.add_parser("construct", help="theorem-level constructions with re-verification")
    p.add_argument(
        "kind",
        choices=(
            "fk-to-sasakian",
            "sasakian-to-fk",
            "kahler-to-sasakian",
            "sasakian-reduction",
            "sasakian-double",
            "contact-ideal",
        ),
    )
    add_source(p)
    p.add_argument("--form", help="1-form when the source structure is not built in")
    p.add_argument("--two-form", help="2-cocycle for sasakian-double")
    p.add_argument("--map", help="derivation input")
    p.add_argument("--dz", help="assemble the (n+1)-map as for extend double")
    p.add_argument("--structure", help="structure file with the source data")
    p.add_argument("--w-scale", help="scale c of the w vector for sasakian-double (default: solved sign)")

    p = sub.add_parser("solve", help="linear solves: derivation spaces, Reeb, principal element")
    p.add_argument("kind", choices=("derivations", "reeb", "principal"))
    add_source(p)
    p.add_argument("--form", help="1-form input for reeb/principal")
    p.add_argument(
        "--fix",
        action="append",
        default=[],
        help="extra derivation constraint: 'alpha∘D=alpha:e3', 'alpha∘D=0:e3', 'commute:MAP', 'sends:V->W'",
    )

    p = sub.add_parser("builtin", help="print a built-in algebra and its structures")
    p.add_argument("name")

    return parser


def _read_algebra(args) -> tuple[LieAlgebra, Builtin | None]:
    if getattr(args, "builtin", None):
        b = builtin(args.builtin)
        return b.algebra, b
    if getattr(args, "algebra", None):
        text = Path(args.algebra).read_text()
        return parse_algebra(text), None
    raise ParseError("need --builtin or --algebra", 0, "algebra")


def _load_algebra(args) -> tuple[LieAlgebra, Builtin | None]:
    """The input algebra; one read from a file is refused with its report unless it is Lie."""
    g, b = _read_algebra(args)
    if b is None:
        report = check_jacobi(g)
        if not report.overall:
            raise PreconditionError("algebra fails the Jacobi identity", report)
    return g, b


def _need(value, flag: str):
    """``value``, or the usage error for the missing ``--flag``."""
    if value is None:
        raise ParseError(f"need --{flag}", 0, flag)
    return value


def _named_maps(b: Builtin | None) -> dict[str, Matrix]:
    return dict(b.maps) if b is not None else {}


def _get_form(spec: str | None, g: LieAlgebra) -> KForm | None:
    if spec is None:
        return None
    if spec.startswith("@"):
        parsed = parse_structure(Path(spec[1:]).read_text())
        if parsed.kind != "form":
            raise ParseError("expected a structure file of kind form", 0, "form")
        return KForm.one_form(g.dim, parsed.forms["values"])
    return parse_form_inline(spec, g.dim)


def _get_two_form(spec: str | None, g: LieAlgebra, dim: int | None = None) -> KForm | None:
    if spec is None:
        return None
    dim = dim if dim is not None else g.dim
    if spec.startswith("@"):
        parsed = parse_structure(Path(spec[1:]).read_text())
        if parsed.kind != "two_form":
            raise ParseError("expected a structure file of kind two_form", 0, "two-form")
        return parsed.two_form_of("values", dim)
    return parse_two_form_inline(spec, dim)


def _get_map(spec: str | None, dim: int, b: Builtin | None) -> Matrix | None:
    if spec is None:
        return None
    if spec.startswith("@"):
        parsed = parse_structure(Path(spec[1:]).read_text())
        if parsed.kind != "map":
            raise ParseError("expected a structure file of kind map", 0, "map")
        return parsed.matrix_of("values", dim)
    return parse_map_inline(spec, dim, _named_maps(b))


def _assemble_dz(base: Matrix, dz_spec: str) -> Matrix:
    """Append D(z) = w + s z to an n-dim map, z-row zero on the base."""
    w_str, colon, s_str = dz_spec.partition(":")
    if not colon:
        raise ParseError("--dz needs 'w1,..,wn:s'", 0, "dz")
    n = len(base)
    w = parse_vector_inline(w_str, n)
    s = _scalar_at(s_str, 0, "dz")
    rows = [tuple(base[i]) + (w[i],) for i in range(n)]
    rows.append((Fraction(0),) * n + (s,))
    return tuple(rows)


def _extension_map(args, g: LieAlgebra, b: Builtin | None, on_central: bool) -> Matrix:
    dim = g.dim + 1 if on_central else g.dim
    spec = _need(args.map, "map")
    if on_central and args.dz is not None:
        return _assemble_dz(_get_map(spec, g.dim, b), args.dz)
    return _get_map(spec, dim, b)


def _sasakian_file(path: str, g: LieAlgebra) -> tuple[Vector, KForm, Matrix]:
    """(reeb, alpha, phi) from a structure file of kind sasakian."""
    parsed = parse_structure(Path(path).read_text())
    if parsed.kind != "sasakian":
        raise ParseError("expected a structure file of kind sasakian", 0, "structure")
    return parsed.vectors["xi"], KForm.one_form(g.dim, parsed.forms["alpha"]), parsed.matrix_of("phi", g.dim)


def _sasakian_input(args, g: LieAlgebra, b: Builtin | None) -> tuple[Vector, KForm, Matrix]:
    """(reeb, alpha, phi) for check sasakian: --structure, --xi/--form/--map or the builtin's."""
    if args.structure:
        return _sasakian_file(args.structure, g)
    if args.xi:
        if not (args.form and args.map):
            raise ParseError("file-free sasakian input needs --xi, --form and --map", 0, "structure")
        return parse_vector_inline(args.xi, g.dim), _get_form(args.form, g), _get_map(args.map, g.dim, b)
    if b is None or b.sasakian_data is None:
        raise ParseError("need --structure or --xi/--form/--map", 0, "structure")
    return b.sasakian_data


def _frobenius_source(args, g: LieAlgebra, b: Builtin | None):
    """Frobenius data for construct commands; an explicit --form wins."""
    phi_form = _get_form(args.form, g)
    if phi_form is None and b is not None:
        phi_form = b.frobenius_form
    if phi_form is None:
        raise ParseError("need --form for the Frobenius data", 0, "form")
    rep, frob = check_frobenius(g, phi_form)
    if frob is None:
        raise PreconditionError("input is not Frobenius", rep)
    return frob


def _construct_sasakian_source(args, g: LieAlgebra, b: Builtin | None) -> SasakianStructure:
    """Checked Sasakian data for construct commands; --map stays free for the derivation."""
    if args.structure:
        report, structure = check_sasakian(g, *_sasakian_file(args.structure, g))
        if structure is None:
            raise PreconditionError("supplied data fails the Sasakian axioms", report)
        return structure
    if b is not None and b.sasakian_data is not None:
        return b.sasakian()
    raise ParseError("need --structure (kind sasakian) or a builtin with Sasakian data", 0, "structure")


def _kahler_input(args, g: LieAlgebra, b: Builtin | None) -> tuple[Matrix, KForm] | None:
    """(J, omega) from --structure or from --map with --two-form; None when neither is given."""
    if args.structure:
        parsed = parse_structure(Path(args.structure).read_text())
        if parsed.kind != "kahler":
            raise ParseError("expected a structure file of kind kahler", 0, "structure")
        return parsed.matrix_of("j", g.dim), parsed.two_form_of("omega", g.dim)
    if args.map and args.two_form:
        return _get_map(args.map, g.dim, b), _get_two_form(args.two_form, g)
    return None


def _construct_kahler_source(args, g: LieAlgebra, b: Builtin | None) -> KahlerStructure:
    """Checked Kahler data for construct commands: the given data, else the builtin's."""
    data = _kahler_input(args, g, b)
    if data is not None:
        report, structure = check_kahler(g, *data)
        if structure is None:
            raise PreconditionError("supplied data fails the Kahler axioms", report)
        return structure
    if b is not None:
        return b.kahler()
    raise ParseError("need --structure or --map/--two-form for the Kahler data", 0, "structure")


def _structure_sections(g: LieAlgebra, structure) -> tuple[tuple[str, tuple[tuple[str, str], ...]], ...]:
    star = tuple(f"{l}*" for l in g.labels)
    if isinstance(structure, SasakianStructure):
        fields = [
            ("xi", fmt_vector(structure.reeb, g.labels)),
            ("alpha", fmt_vector(one_form_coords(structure.alpha), star)),
        ]
        for j in range(g.dim):
            col = tuple(structure.phi[i][j] for i in range(g.dim))
            fields.append((f"phi({g.labels[j]})", fmt_vector(col, g.labels)))
        return (("sasakian", tuple(fields)),)
    if isinstance(structure, KahlerStructure):
        fields = [("omega", structure.omega.describe(g.labels))]
        for j in range(g.dim):
            col = tuple(structure.j[i][j] for i in range(g.dim))
            fields.append((f"J({g.labels[j]})", fmt_vector(col, g.labels)))
        return (("kahler", tuple(fields)),)
    return ()


def _extension_notes(ext: ExtensionResult) -> tuple[tuple[str, str], ...]:
    labels = ext.algebra.labels
    notes = []
    if ext.central_index is not None:
        notes.append(("central_element", labels[ext.central_index]))
    if ext.derivation_index is not None:
        notes.append(("derivation_slot", labels[ext.derivation_index]))
    return tuple(notes)


_FIX_EIGEN = re.compile(r"^alpha\s*(?:∘|o|\.)\s*D\s*=\s*(.+):(.+)$")


def _parse_fix(spec: str, g: LieAlgebra, b: Builtin | None):
    m = _FIX_EIGEN.match(spec.strip())
    if m:
        lam_str, form_str = m.group(1).strip(), m.group(2).strip()
        if lam_str == "alpha":
            lam = Fraction(1)
        elif lam_str.endswith("*alpha"):
            lam = _scalar_at(lam_str[: -len("*alpha")], 0, "fix")
        else:
            lam = _scalar_at(lam_str, 0, "fix")
        return FormEigen(parse_form_inline(form_str, g.dim), lam)
    if spec.startswith("commute:"):
        return Commute(_get_map(spec[len("commute:") :], g.dim, b))
    if spec.startswith("sends:"):
        v_str, arrow, w_str = spec[len("sends:") :].partition("->")
        if not arrow:
            raise ParseError("sends constraint needs 'sends:V->W'", 0, "fix")
        return Sends(parse_vector_inline(v_str, g.dim), parse_vector_inline(w_str, g.dim))
    raise ParseError(f"bad constraint {spec!r}", 0, "fix")


def _cmd_check(args) -> tuple[ReportDocument, int]:
    # check jacobi reports a failing Jacobi identity itself, so it reads the bare algebra
    g, b = _read_algebra(args) if args.kind == "jacobi" else _load_algebra(args)
    command = f"check {args.kind}"
    if args.kind == "jacobi":
        report = check_jacobi(g)
    elif args.kind == "cocycle":
        report = is_cocycle(g, _need(_get_two_form(args.two_form, g), "two-form"))
    elif args.kind == "derivation":
        report = is_derivation(g, _need(_get_map(args.map, g.dim, b), "map"))
    elif args.kind == "contact":
        alpha = _get_form(args.form, g)
        if alpha is None and b is not None and b.sasakian_data is not None:
            alpha = b.sasakian_data[1]
        report, _ = check_contact(g, _need(alpha, "form"))
    elif args.kind == "frobenius":
        phi = _get_form(args.form, g)
        if phi is None and b is not None and b.frobenius_form is not None:
            phi = b.frobenius_form
        report, _ = check_frobenius(g, _need(phi, "form"))
    elif args.kind == "kahler":
        data = _kahler_input(args, g, b)
        if data is None:
            if b is None or b.kahler_data is None:
                raise ParseError("need --structure or --map/--two-form", 0, "structure")
            data = b.kahler_data
        report, _ = check_kahler(g, *data)
    else:  # sasakian
        report, _ = check_sasakian(g, *_sasakian_input(args, g, b))
    doc = _adjust_evaluations(ReportDocument.from_report(command, report), g.dim, args.wedge_convention)
    return doc, 0 if report.overall else 1


def _cmd_extend(args) -> tuple[ReportDocument, int]:
    g, b = _load_algebra(args)
    command = f"extend {args.kind}"
    check = not args.force
    if args.kind == "central":
        ext = central_extension(g, _need(_get_two_form(args.two_form, g), "two-form"), check=check)
    elif args.kind == "derivation":
        ext = derivation_extension(g, _need(_get_map(args.map, g.dim, b), "map"), check=check)
    elif args.kind == "double":
        theta = _need(_get_two_form(args.two_form, g), "two-form")
        d = _extension_map(args, g, b, on_central=True)
        ext = double_extension(g, theta, d, check=check)
    else:  # reversed
        alpha = _need(_get_form(args.form, g), "form")
        d = _need(_get_map(args.map, g.dim, b), "map")
        ext = reversed_double_extension(g, alpha, d, check=check)
    report = check_jacobi(ext.algebra)
    doc = ReportDocument.from_report(
        command, report.with_notes(*_extension_notes(ext)), algebra=ext.algebra
    )
    return doc, 0 if report.overall else 1


def _cmd_construct(args) -> tuple[ReportDocument, int]:
    g, b = _load_algebra(args)
    command = f"construct {args.kind}"
    if args.kind == "fk-to-sasakian":
        frob = _frobenius_source(args, g, b)
        kahler = _construct_kahler_source(args, g, b) if args.structure else (b.kahler() if b else None)
        if kahler is None:
            raise ParseError("need Kahler data", 0, "structure")
        d = _need(_get_map(args.map, g.dim, b), "map")
        ext, report, structure = frobenius_kahler_to_sasakian(g, frob, kahler, d)
        sections = _structure_sections(ext.algebra, structure) if structure else ()
        doc = ReportDocument.from_report(
            command, report.with_notes(*_extension_notes(ext)), algebra=ext.algebra, sections=sections
        )
        return doc, 0 if report.overall else 1
    if args.kind == "sasakian-to-fk":
        s = _construct_sasakian_source(args, g, b)
        d = _need(_get_map(args.map, g.dim, b), "map")
        ext, report, frob, kahler = sasakian_to_frobenius_kahler(g, s, d)
        sections = _structure_sections(ext.algebra, kahler) if kahler else ()
        notes = _extension_notes(ext)
        if frob is not None:
            notes += (("principal_element", fmt_vector(frob.principal, ext.algebra.labels)),)
        doc = ReportDocument.from_report(command, report.with_notes(*notes), algebra=ext.algebra, sections=sections)
        return doc, 0 if report.overall else 1
    if args.kind == "kahler-to-sasakian":
        ext, report, structure = kahler_to_sasakian_central(g, _construct_kahler_source(args, g, b))
        doc = ReportDocument.from_report(
            command,
            report.with_notes(*_extension_notes(ext)),
            algebra=ext.algebra,
            sections=_structure_sections(ext.algebra, structure),
        )
        return doc, 0 if report.overall else 1
    if args.kind == "sasakian-reduction":
        s = _construct_sasakian_source(args, g, b)
        h, report, structure = sasakian_reduction(g, s)
        doc = ReportDocument.from_report(
            command, report, algebra=h, sections=_structure_sections(h, structure)
        )
        return doc, 0 if report.overall else 1
    if args.kind == "sasakian-double":
        s = _construct_sasakian_source(args, g, b)
        theta = _need(_get_two_form(args.two_form, g), "two-form")
        d = _extension_map(args, g, b, on_central=True)
        c = _scalar_at(args.w_scale, 0, "w-scale") if args.w_scale else None
        params = solve_double_extension_params(g, s, theta, d, c)
        ext, report, structure = sasakian_double_extension(g, s, theta, d, params)
        notes = _extension_notes(ext) + (
            ("params", f"a={fmt_scalar(params.a)} b={fmt_scalar(params.b)} c={fmt_scalar(params.c)} d={fmt_scalar(params.d)}"),
            ("params_u", fmt_vector(params.u, g.labels)),
        )
        sections = _structure_sections(ext.algebra, structure) if structure else ()
        doc = ReportDocument.from_report(command, report.with_notes(*notes), algebra=ext.algebra, sections=sections)
        return doc, 0 if report.overall else 1
    # contact-ideal
    frob = _frobenius_source(args, g, b)
    kahler = _construct_kahler_source(args, g, b) if args.structure else (b.kahler() if b else None)
    if kahler is None:
        raise ParseError("need Kahler data", 0, "structure")
    h, report, structure = contact_ideal_restriction(g, frob, kahler)
    sections = _structure_sections(h, structure) if structure else ()
    doc = ReportDocument.from_report(command, report, algebra=h, sections=sections)
    return doc, 0 if report.overall else 1


def _cmd_solve(args) -> tuple[ReportDocument, int]:
    g, b = _load_algebra(args)
    command = f"solve {args.kind}"
    star = tuple(f"{l}*" for l in g.labels)
    if args.kind == "derivations":
        constraints = [Leibniz()] + [_parse_fix(spec, g, b) for spec in args.fix]
        particular, basis = derivation_space(g, constraints)
        sections = []
        if particular is None:
            culprit = "leibniz"
            for idx in range(1, len(constraints) + 1):
                if derivation_space(g, constraints[:idx])[0] is None:
                    culprit = args.fix[idx - 2] if idx >= 2 else "leibniz"
                    break
            doc = ReportDocument(
                command,
                overall=False,
                items=(fail("solution_exists", f"empty: inconsistent at constraint {culprit!r}"),),
            )
            return doc, 1
        rows = tuple((f"row {g.labels[i]}", fmt_vector(particular[i], star)) for i in range(g.dim))
        sections.append(("particular", rows))
        for idx, m in enumerate(basis, start=1):
            rows = tuple((f"row {g.labels[i]}", fmt_vector(m[i], star)) for i in range(g.dim))
            sections.append((f"basis_{idx}", rows))
        doc = ReportDocument(
            command,
            overall=True,
            items=(CheckItem("solution_exists", True),),
            notes=(("basis_size", str(len(basis))),),
            sections=tuple(sections),
        )
        return doc, 0
    if args.kind == "reeb":
        alpha = _get_form(args.form, g)
        if alpha is None and b is not None and b.sasakian_data is not None:
            alpha = b.sasakian_data[1]
        report, contact = check_contact(g, _need(alpha, "form"))
        doc = _adjust_evaluations(ReportDocument.from_report(command, report), g.dim, args.wedge_convention)
        return doc, 0 if contact is not None else 1
    # principal
    phi = _get_form(args.form, g)
    if phi is None and b is not None and b.frobenius_form is not None:
        phi = b.frobenius_form
    report, frob = check_frobenius(g, _need(phi, "form"))
    doc = ReportDocument.from_report(command, report)
    return doc, 0 if frob is not None else 1


def _cmd_builtin(args) -> tuple[ReportDocument, int]:
    if args.name not in BUILTINS:
        raise ParseError(
            f"unknown builtin {args.name!r}; valid names: {', '.join(sorted(BUILTINS))}", 0, "builtin"
        )
    b = builtin(args.name)
    g = b.algebra
    sections = []
    if b.sasakian_data is not None:
        sections.extend(_structure_sections(g, b.sasakian()))
    if b.kahler_data is not None:
        sections.extend(_structure_sections(g, b.kahler()))
    notes = []
    if b.frobenius_form is not None:
        frob = b.frobenius()
        star = tuple(f"{l}*" for l in g.labels)
        notes.append(("frobenius_form", fmt_vector(one_form_coords(frob.phi), star)))
        notes.append(("principal_element", fmt_vector(frob.principal, g.labels)))
    for name, _ in b.maps:
        notes.append(("named_map", name))
    z = center(g)
    notes.append(("center", z.describe(g.labels)))
    doc = ReportDocument(
        f"builtin {args.name}",
        overall=True,
        items=(CheckItem("builtin_known", True),),
        notes=tuple(notes),
        sections=tuple(sections),
        algebra=g,
    )
    return doc, 0


def _adjust_evaluations(doc: ReportDocument, dim: int, convention: str) -> ReportDocument:
    """Flip printed top-form evaluations under the --wedge-convention flag.

    Only the displayed value changes; the nonvanishing verdict is
    sign-invariant.
    """
    sign = evaluation_sign(dim, convention)
    if sign == 1:
        return doc
    notes = tuple(
        (key, fmt_scalar(sign * scalar(value))) if key == "top_coefficient" else (key, value)
        for key, value in doc.notes
    )
    return ReportDocument(doc.command, doc.overall, doc.items, notes, doc.sections, doc.algebra)


def run(argv: list[str]) -> tuple[str, int]:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "extend": _cmd_extend,
        "construct": _cmd_construct,
        "solve": _cmd_solve,
        "builtin": _cmd_builtin,
    }
    try:
        doc, code = handlers[args.command](args)
    except PreconditionError as exc:
        doc = ReportDocument.from_report(f"{args.command} {getattr(args, 'kind', '')}".strip(), exc.report)
        rendered = render_json(doc) if args.output == "json" else render_text(doc)
        return rendered, 1
    rendered = render_json(doc) if args.output == "json" else render_text(doc)
    return rendered, code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else argv
    try:
        rendered, code = run(argv)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LieforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(rendered)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
