"""Command line front end.

Every structure input comes from the ``_SOURCES`` table through one resolver:
the --structure file, else the source's complete set of inline flags, else
the builtin's data. Some but not all of the inline flags is a usage error.

Exit codes: 0 when the overall verdict passes, 1 when it fails or a
precondition rejects the input, 2 on usage or parse errors. Output is
deterministic byte for byte for identical invocations.

The argparse parser is built once per process, on the first ``run``, and
every later ``run`` in the process parses with that same parser.

Importing this module loads ``algebra``, ``catalog``, ``fileio``, ``forms``,
``linalg``, ``report`` and ``structures``: enough for ``check`` jacobi,
contact, frobenius, kahler and sasakian, ``solve reeb``/``principal`` and
``builtin``. The other modules are imported by the commands that run them:

* ``derivations``: ``check derivation`` and ``solve derivations``;
* ``extensions`` (which imports ``derivations``): ``check cocycle`` and
  every ``extend``;
* ``theorems`` (which imports both): every ``construct``.

``json`` is imported only to render ``--output json``.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

from .algebra import LieAlgebra, center, check_jacobi
from .catalog import BUILTINS, Builtin, builtin
from .fileio import (
    STRUCTURE_KEYS,
    ParsedStructure,
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
from .forms import evaluation_sign
from .linalg import Matrix, fmt_scalar, fmt_vector, scalar, transpose
from .report import CheckItem, LieforgeError, PreconditionError, fail, require
from .structures import (
    KahlerStructure,
    SasakianStructure,
    check_contact,
    check_frobenius,
    check_kahler,
    check_sasakian,
    one_form_coords,
)

if TYPE_CHECKING:
    from .extensions import ExtensionResult


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    ``parse_args`` leaves the parser as it was: each call fills a fresh
    Namespace, and ``append`` copies the ``--fix`` default before it appends.
    """
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
        return parse_algebra(_read_file(args.algebra, "algebra")), None
    raise ParseError("need --builtin or --algebra", 0, "algebra")


def _load_algebra(args) -> tuple[LieAlgebra, Builtin | None]:
    """The input algebra; one read from a file is refused with its report unless it is Lie."""
    g, b = _read_algebra(args)
    if b is None:
        require("algebra fails the Jacobi identity", check_jacobi(g))
    return g, b


def _read_file(path: str, flag: str) -> str:
    """The UTF-8 text of the file given to ``--flag``; a file that cannot be
    read or decoded is a usage error that names the flag and the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LieforgeError(f"cannot read --{flag.replace('_', '-')} {path}: {exc}") from exc


def _structure_file(path: str, kind: str, flag: str) -> ParsedStructure:
    parsed = parse_structure(_read_file(path, flag))
    if parsed.kind != kind:
        raise ParseError(f"expected a structure file of kind {kind}", 0, kind)
    return parsed


def _value(spec: str | None, flag: str, dim: int, b: Builtin | None):
    """The vector (xi), 1-form, two-form or map ``spec`` spells for ``--flag``, inline
    or as @file of the structure kind named like the flag; None when absent."""
    if spec is None:
        return None
    if spec.startswith("@") and flag in STRUCTURE_KEYS:
        return _structure_file(spec[1:], flag, flag).value("values", dim)
    if flag == "xi":
        return parse_vector_inline(spec, dim)
    if flag == "form":
        return parse_form_inline(spec, dim)
    if flag == "two_form":
        return parse_two_form_inline(spec, dim)
    return parse_map_inline(spec, dim, dict(b.maps) if b is not None else {})


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


def _required(args, flag: str, dim: int, b: Builtin | None):
    """The value of ``--flag``, or the usage error for its absence."""
    value = _value(getattr(args, flag), flag, dim, b)
    if value is None:
        raise ParseError(f"need --{flag.replace('_', '-')}", 0, flag)
    return value


def _extension_map(args, g: LieAlgebra, b: Builtin | None) -> Matrix:
    """The map of a double extension: --map on the central extension, or --map on g completed by --dz."""
    if args.dz is None:
        return _required(args, "map", g.dim + 1, b)
    return _assemble_dz(_required(args, "map", g.dim, b), args.dz)


@dataclass(frozen=True)
class _Source:
    """A structure input: its --structure file keys (none when it has no
    file), the inline flags that spell the same values, the builtin's data
    and the check, given in the argument order of the check."""

    keys: tuple[str, ...]
    flags: tuple[str, ...]
    builtin: Callable[[Builtin], tuple | None]
    check: Callable  # looked up at call time, so a rebound module name is used


_SOURCES = {
    "sasakian": _Source(
        ("xi", "alpha", "phi"), ("xi", "form", "map"),
        lambda b: b.sasakian_data, lambda g, *d: check_sasakian(g, *d),
    ),
    "kahler": _Source(
        ("j", "omega"), ("map", "two_form"),
        lambda b: b.kahler_data, lambda g, *d: check_kahler(g, *d),
    ),
    "contact": _Source(
        (), ("form",),
        lambda b: b.sasakian_data and b.sasakian_data[1:2], lambda g, *d: check_contact(g, *d),
    ),
    "frobenius": _Source(
        (), ("form",),
        lambda b: b.frobenius_form and (b.frobenius_form,), lambda g, *d: check_frobenius(g, *d),
    ),
}

# The sources each command reads, in order, and whether the command's inline
# flags spell the source out. In the construct commands that take a
# derivation, --map is that derivation; construct has no --xi.
_COMMAND_SOURCES: dict[str, tuple[tuple[str, bool], ...]] = {
    "check contact": (("contact", True),),
    "check frobenius": (("frobenius", True),),
    "check kahler": (("kahler", True),),
    "check sasakian": (("sasakian", True),),
    "solve reeb": (("contact", True),),
    "solve principal": (("frobenius", True),),
    "construct fk-to-sasakian": (("frobenius", True), ("kahler", False)),
    "construct sasakian-to-fk": (("sasakian", False),),
    "construct kahler-to-sasakian": (("kahler", True),),
    "construct sasakian-reduction": (("sasakian", False),),
    "construct sasakian-double": (("sasakian", False),),
    "construct contact-ideal": (("frobenius", True), ("kahler", False)),
}


def _resolve(args, g: LieAlgebra, b: Builtin | None, name: str, inline: bool) -> tuple:
    """The data of source ``name``: the --structure file, else the complete
    set of inline flags, else the builtin's data. Some but not all of the
    inline flags, or no data at all, is a usage error."""
    source = _SOURCES[name]
    path = getattr(args, "structure", None)
    if source.keys and path:
        parsed = _structure_file(path, name, "structure")
        return tuple(parsed.value(key, g.dim) for key in source.keys)
    spelled = "/".join(f"--{flag.replace('_', '-')}" for flag in source.flags)
    given = [flag for flag in source.flags if getattr(args, flag, None) is not None] if inline else []
    if given and len(given) < len(source.flags):
        raise ParseError(f"need all of {spelled} for inline {name} input", 0, name)
    if given:
        return tuple(_value(getattr(args, flag), flag, g.dim, b) for flag in source.flags)
    data = source.builtin(b) if b is not None else None
    if data is None:
        ways = [f"--structure (kind {name})"] if source.keys else []
        ways += [spelled] if inline else []
        raise ParseError(f"need {name} data from {' or '.join(ways + ['a builtin that has it'])}", 0, name)
    return data


def _checked_sources(args, g: LieAlgebra, b: Builtin | None):
    """(report, structure or None) for each source of the command, each read and checked in turn."""
    for name, inline in _COMMAND_SOURCES[f"{args.command} {args.kind}"]:
        yield _SOURCES[name].check(g, *_resolve(args, g, b, name, inline))


def _structure_sections(g: LieAlgebra, structure) -> tuple[tuple[str, tuple[tuple[str, str], ...]], ...]:
    star = tuple(f"{l}*" for l in g.labels)
    if isinstance(structure, SasakianStructure):
        fields = [
            ("xi", fmt_vector(structure.reeb, g.labels)),
            ("alpha", fmt_vector(one_form_coords(structure.alpha), star)),
        ]
        fields += [(f"phi({l})", fmt_vector(col, g.labels)) for l, col in zip(g.labels, transpose(structure.phi))]
        return (("sasakian", tuple(fields)),)
    if isinstance(structure, KahlerStructure):
        fields = [("omega", structure.omega.describe(g.labels))]
        fields += [(f"J({l})", fmt_vector(col, g.labels)) for l, col in zip(g.labels, transpose(structure.j))]
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
    from .derivations import Commute, FormEigen, Sends

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
        return Commute(_value(spec[len("commute:") :], "map", g.dim, b))
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
        from .extensions import is_cocycle

        report = is_cocycle(g, _required(args, "two_form", g.dim, b))
    elif args.kind == "derivation":
        from .derivations import is_derivation

        report = is_derivation(g, _required(args, "map", g.dim, b))
    else:  # contact, frobenius, kahler, sasakian
        ((report, _),) = _checked_sources(args, g, b)
    doc = _adjust_evaluations(ReportDocument.from_report(command, report), g.dim, args.wedge_convention)
    return doc, 0 if report.overall else 1


def _cmd_extend(args) -> tuple[ReportDocument, int]:
    from .extensions import central_extension, derivation_extension, double_extension, reversed_double_extension

    g, b = _load_algebra(args)
    command = f"extend {args.kind}"
    check = not args.force
    if args.kind == "central":
        ext = central_extension(g, _required(args, "two_form", g.dim, b), check=check)
    elif args.kind == "derivation":
        ext = derivation_extension(g, _required(args, "map", g.dim, b), check=check)
    elif args.kind == "double":
        theta = _required(args, "two_form", g.dim, b)
        d = _extension_map(args, g, b)
        ext = double_extension(g, theta, d, check=check)
    else:  # reversed
        alpha = _required(args, "form", g.dim, b)
        d = _required(args, "map", g.dim, b)
        ext = reversed_double_extension(g, alpha, d, check=check)
    report = check_jacobi(ext.algebra)
    doc = ReportDocument.from_report(
        command, report.with_notes(*_extension_notes(ext)), algebra=ext.algebra
    )
    return doc, 0 if report.overall else 1


def _cmd_construct(args) -> tuple[ReportDocument, int]:
    from .extensions import ExtensionResult
    from .theorems import (
        contact_ideal_restriction,
        frobenius_kahler_to_sasakian,
        kahler_to_sasakian_central,
        sasakian_double_extension,
        sasakian_reduction,
        sasakian_to_frobenius_kahler,
        solve_double_extension_params,
    )

    g, b = _load_algebra(args)
    sources = []  # each theorem takes them after g, in table order
    for report, structure in _checked_sources(args, g, b):
        require("input fails its axioms", report)
        sources.append(structure)
    notes = ()
    if args.kind == "fk-to-sasakian":
        d = _required(args, "map", g.dim, b)
        result, report, structure = frobenius_kahler_to_sasakian(g, *sources, d)
    elif args.kind == "sasakian-to-fk":
        d = _required(args, "map", g.dim, b)
        result, report, frob, structure = sasakian_to_frobenius_kahler(g, *sources, d)
        if frob is not None:
            notes = (("principal_element", fmt_vector(frob.principal, result.algebra.labels)),)
    elif args.kind == "kahler-to-sasakian":
        result, report, structure = kahler_to_sasakian_central(g, *sources)
    elif args.kind == "sasakian-reduction":
        result, report, structure = sasakian_reduction(g, *sources)
    elif args.kind == "sasakian-double":
        theta = _required(args, "two_form", g.dim, b)
        d = _extension_map(args, g, b)
        c = _scalar_at(args.w_scale, 0, "w-scale") if args.w_scale else None
        params = solve_double_extension_params(g, *sources, theta, d, c)
        result, report, structure = sasakian_double_extension(g, *sources, theta, d, params)
        notes = (
            ("params", f"a={fmt_scalar(params.a)} b={fmt_scalar(params.b)} c={fmt_scalar(params.c)} d={fmt_scalar(params.d)}"),
            ("params_u", fmt_vector(params.u, g.labels)),
        )
    else:  # contact-ideal
        result, report, structure = contact_ideal_restriction(g, *sources)
    if isinstance(result, ExtensionResult):
        notes = _extension_notes(result) + notes
        result = result.algebra
    doc = ReportDocument.from_report(
        f"construct {args.kind}",
        report.with_notes(*notes),
        algebra=result,
        sections=_structure_sections(result, structure),
    )
    return _adjust_evaluations(doc, result.dim, args.wedge_convention), 0 if report.overall else 1


def _cmd_solve(args) -> tuple[ReportDocument, int]:
    g, b = _load_algebra(args)
    command = f"solve {args.kind}"
    star = tuple(f"{l}*" for l in g.labels)
    if args.kind == "derivations":
        from .derivations import Leibniz, derivation_space

        constraints = [Leibniz()] + [_parse_fix(spec, g, b) for spec in args.fix]
        particular, basis = derivation_space(g, constraints)
        sections = []
        if particular is None:
            # Leibniz alone is homogeneous: the culprit is the first --fix whose prefix is inconsistent
            inconsistent = (derivation_space(g, constraints[:idx])[0] is None for idx in range(2, len(constraints)))
            culprit = next((spec for spec, bad in zip(args.fix, inconsistent) if bad), args.fix[-1])
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
    # reeb and principal: the contact or Frobenius form, checked
    ((report, structure),) = _checked_sources(args, g, b)
    doc = _adjust_evaluations(ReportDocument.from_report(command, report), g.dim, args.wedge_convention)
    return doc, 0 if structure is not None else 1


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
    args = _build_parser().parse_args(argv)
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
        command = f"{args.command} {getattr(args, 'kind', '')}".strip()
        doc, code = ReportDocument.from_report(command, exc.report), 1
    rendered = render_json(doc) if args.output == "json" else render_text(doc)
    return rendered, code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else argv
    try:
        rendered, code = run(argv)
    # ParseError and an input file that cannot be read (see _read_file) are LieforgeErrors
    except LieforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(rendered)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
