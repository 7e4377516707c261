"""Command line front end.

``_COMMANDS`` declares, once per command kind, the structure sources the
kind reads and the flags it reads. ``_parse_args`` reads argv straight from
it and from ``_FLAGS``, and ``-h``/``--help`` prints help built from the same
tables. Flags are spelled exactly (an abbreviation is a usage error), as
``--flag value`` or ``--flag=value``, and a value may start with ``-``
(``--form -e3``). A flag the kind does not read, and ``--builtin`` with
``--algebra``, are usage errors. Every structure input comes from the
``_SOURCES`` table through one resolver: the --structure file, else the
source's complete set of inline flags, else the builtin's data. Some but not
all of the inline flags is a usage error. Structure files are parsed at the
algebra's dimension, so a value that does not fit is refused at its line.

Each ``_cmd_*`` handler returns the command's ``CheckReport`` with the
sections and the output algebra to print; ``run`` alone renders it, a
refused precondition as its report, and sets the exit code: 0 when the
report passes, 1 when it fails or a precondition rejects the input. Usage
and parse errors exit 2 from ``main``, with one ``error:`` line: a usage
error, a bad inline value included, names its flag, and only a fault in a
file has a byte offset. Output is deterministic byte for byte for identical
invocations.

Importing this module loads ``algebra``, ``catalog``, ``fileio``, ``forms``,
``linalg``, ``report`` and ``structures``; a kind loads, when it runs, the module
its ``_COMMANDS`` row names, and ``json`` is imported only to render ``--output json``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .algebra import LieAlgebra, center, check_jacobi
from .catalog import BUILTINS, Builtin, builtin
from .fileio import (
    STRUCTURE_KEYS,
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
from .forms import evaluation_sign, one_form_coords
from .linalg import Matrix, fmt_dual, fmt_scalar, fmt_vector, scalar, transpose
from .report import CheckReport, LieforgeError, PreconditionError, Record, fail, ok, require
from .structures import KahlerStructure, SasakianStructure

if TYPE_CHECKING:
    from .extensions import ExtensionResult


# Each command's kinds: the structure sources the kind reads, in order (see
# ``_SOURCES``), the flags it reads, and the ``module.name`` of the lieforge
# function it runs, empty where the kind only checks its sources. A flag the
# kind does not read is a usage error; a source takes its inline flags only
# where the kind reads all of them, so in the constructions that take a
# derivation --map is that derivation. The function takes the algebra, then the
# checked sources, then the values ``_values`` reads, in flag order. The tables
# hold strings only and ``_library`` looks a function up when the command runs,
# so that a function rebound in its module (as bench/tracing.py does) is the one
# called and a command loads only the modules it runs.
_COMMANDS: dict[str, tuple[str, dict[str, tuple[str, str, str]]]] = {
    "check": ("verify an axiom system", {
        "jacobi": ("", "", "algebra.check_jacobi"),
        "cocycle": ("", "two_form", "extensions.is_cocycle"),
        "derivation": ("", "map", "derivations.is_derivation"),
        "contact": ("contact", "form", ""),
        "frobenius": ("frobenius", "form", ""),
        "kahler": ("kahler", "map two_form structure", ""),
        "sasakian": ("sasakian", "xi form map structure", ""),
    }),
    "extend": ("build an extension", {
        "central": ("", "two_form force", "extensions.central_extension"),
        "derivation": ("", "map force", "extensions.derivation_extension"),
        "double": ("", "two_form map dz force", "extensions.double_extension"),
        "reversed": ("", "form map force", "extensions.reversed_double_extension"),
    }),
    "construct": ("theorem-level constructions with re-verification", {
        "fk-to-sasakian": ("frobenius kahler", "form map structure", "theorems.frobenius_kahler_to_sasakian"),
        "sasakian-to-fk": ("sasakian", "map structure", "theorems.sasakian_to_frobenius_kahler"),
        "kahler-to-sasakian": ("kahler", "map two_form structure", "theorems.kahler_to_sasakian_central"),
        "sasakian-reduction": ("sasakian", "structure", "theorems.sasakian_reduction"),
        "sasakian-double": ("sasakian", "two_form map dz structure w_scale", "theorems.sasakian_double_extension"),
        "contact-ideal": ("frobenius kahler", "form structure", "theorems.contact_ideal_restriction"),
    }),
    "solve": ("linear solves: derivation spaces, Reeb, principal element", {
        "derivations": ("", "fix", "derivations.derivation_space"),
        "reeb": ("contact", "form", ""),
        "principal": ("frobenius", "form", ""),
    }),
}

_FLAGS = {
    "form": "1-form, inline (e3, e3+e5, 2e1-1/2e3) or @file",
    "two_form": "2-form, inline (0, e1^e2-e3^e4) or @file",
    "map": "linear map (the derivation where the kind takes one): diag:.., zero, id, named builtin map, or @file",
    "xi": "vector, inline (e3 or 0,0,1)",
    "dz": "complete --map to the double extension's: 'w1,..,wn:s' appends D(z)=w+sz",
    "structure": "path to a structure file with the source data (kind sasakian or kahler)",
    "w_scale": "scale c of the w vector for sasakian-double (default: solved sign)",
    "force": "skip precondition enforcement",
    "fix": "extra derivation constraint: 'alpha∘D=F:FORM' with F a rational (0, 1/2), alpha, -alpha or a multiple "
    "such as 2*alpha; 'commute:MAP', 'sends:V->W'",
}
# The flags given before the command, each with its values, default first, and its help.
_GLOBALS = {
    "output": (("text", "json"), "report format"),
    "wedge_convention": (("determinant", "paper"), "sign convention for printed form evaluations; never changes verdicts"),
}
_BUILTIN_HELP = "print a built-in algebra and its structures"


def _option(flag: str) -> str:
    return f"--{flag.replace('_', '-')}"


# Every flag by its exact spelling: before the command the global flags, after it the algebra
# sources and the flags of ``_FLAGS``. ``builtin NAME`` takes no flag.
_GLOBAL_OPTIONS = {_option(flag): flag for flag in _GLOBALS}
_COMMAND_OPTIONS = {_option(flag): flag for flag in ("builtin", "algebra", *_FLAGS)}


def _choose(value: str, choices, what: str) -> str:
    if value not in choices:
        raise LieforgeError(f"unknown {what} {value!r}; valid names: {', '.join(choices)}")
    return value


def _parse_args(argv: list[str]) -> SimpleNamespace | str:
    """The values of the command line, or the help text that -h/--help asks for.

    Global flags come first, then the command, then its kind (a built-in's name for
    ``builtin``) and its flags in any order, each spelled exactly, as --flag value or
    --flag=value; the value may start with '-'. --force is a switch, every --fix is kept, and
    a repeated flag keeps its last value. Anything else is a usage error: a word or flag the
    tables do not declare, a missing value, --builtin with --algebra, and a flag the kind does
    not read."""
    args = dict.fromkeys(("command", "kind", "name", "builtin", "algebra", *_FLAGS))
    args.update({flag: choices[0] for flag, (choices, _) in _GLOBALS.items()}, force=False, fix=[])
    positional = []
    words = iter(argv)
    for word in words:
        command = args["command"]
        if word in ("-h", "--help"):
            return _help(command)
        if not word.startswith("-"):
            if command is None:
                args["command"] = _choose(word, (*_COMMANDS, "builtin"), "command")
            else:
                positional.append(word)
            continue
        option, eq, value = word.partition("=")
        options = _GLOBAL_OPTIONS if command is None else {} if command == "builtin" else _COMMAND_OPTIONS
        flag = options.get(option)
        if flag is None:
            hint = " (global flags go before the command)" if option in _GLOBAL_OPTIONS else ""
            raise LieforgeError(f"unknown flag {option}{hint}")
        if flag == "force":
            if eq:
                raise LieforgeError("--force takes no value")
            args["force"] = True
            continue
        if not eq:
            value = next(words, None)
            if value is None:
                raise LieforgeError(f"{option} needs a value")
        if flag == "fix":
            args["fix"].append(value)
        else:
            args[flag] = value
    for flag, (choices, _) in _GLOBALS.items():
        _choose(args[flag], choices, _option(flag))
    command = args["command"]
    if command is None:
        raise LieforgeError(f"need a command: {', '.join((*_COMMANDS, 'builtin'))}")
    if command == "builtin":
        slot, what, choices = "name", "builtin", sorted(BUILTINS)
    else:
        slot, what, choices = "kind", f"{command} kind", tuple(_COMMANDS[command][1])
    if not positional:
        raise LieforgeError(f"{command} needs a {slot}: {', '.join(choices)}")
    if len(positional) > 1:
        raise LieforgeError(f"unknown word {positional[1]!r} after {command} {positional[0]}")
    args[slot] = _choose(positional[0], choices, what)
    if command != "builtin":
        if args["builtin"] is not None:
            _choose(args["builtin"], sorted(BUILTINS), "builtin")
            if args["algebra"] is not None:
                raise LieforgeError("--builtin and --algebra exclude each other")
        reads = _COMMANDS[command][1][args["kind"]][1].split()
        unread = [flag for flag in _FLAGS if flag not in reads and args[flag] not in (None, False, [])]
        if unread:
            raise LieforgeError(f"{command} {args['kind']} does not read {_option(unread[0])}")
    return SimpleNamespace(**args)


def _help(command: str | None) -> str:
    """The help of ``command``, or of the program when it is None, from the tables the parser reads."""
    if command is None:
        lines = [
            "usage: lieforge [--output text|json] [--wedge-convention determinant|paper] COMMAND ...",
            "",
            "Exact-arithmetic Lie algebra extensions and geometric structure checks.",
            "",
            "commands (lieforge COMMAND --help lists each one's kinds and flags):",
            *(f"  {name:<10} {text}" for name, (text, _) in _COMMANDS.items()),
            f"  {'builtin':<10} {_BUILTIN_HELP}",
            "",
            "global flags, before the command:",
            *(f"  {_option(flag)} {'|'.join(choices)}: {text}" for flag, (choices, text) in _GLOBALS.items()),
        ]
    elif command == "builtin":
        lines = ["usage: lieforge builtin NAME", "", _BUILTIN_HELP, "", f"names: {', '.join(sorted(BUILTINS))}"]
    else:
        text, kinds = _COMMANDS[command]
        read = {flag for _, flags, _ in kinds.values() for flag in flags.split()}
        lines = [
            f"usage: lieforge {command} KIND (--builtin NAME | --algebra FILE) [flags]",
            "",
            text,
            "",
            "kinds, with the flags each reads:",
            *(f"  {kind:<20} {' '.join(map(_option, row[1].split())) or '(none)'}" for kind, row in kinds.items()),
            "",
            "flags:",
            f"  {'--builtin':<12} built-in algebra: {', '.join(sorted(BUILTINS))}",
            f"  {'--algebra':<12} path to a lieforge/1 algebra file",
            *(f"  {_option(flag):<12} {flag_help}" for flag, flag_help in _FLAGS.items() if flag in read),
        ]
    return "\n".join(lines) + "\n"


def _read_algebra(args) -> tuple[LieAlgebra, Builtin | None]:
    if args.builtin is not None:
        b = builtin(args.builtin)
        return b.algebra, b
    if args.algebra is not None:
        return parse_algebra(_read_file(args.algebra, "--algebra")), None
    raise LieforgeError("need --builtin or --algebra")


def _load_algebra(args) -> tuple[LieAlgebra, Builtin | None]:
    """The input algebra; one read from a file is refused with its report unless it is Lie."""
    g, b = _read_algebra(args)
    if b is None:
        require("algebra fails the Jacobi identity", check_jacobi(g))
    return g, b


def _read_file(path: str, option: str) -> str:
    """The UTF-8 text of the file given to ``option``, CRLF kept for byte offsets; a file
    that cannot be read or decoded is a usage error that names the option and the path."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LieforgeError(f"cannot read {option} {path}: {exc}") from exc


def _value(spec: str, flag: str, dim: int, b: Builtin | None, option: str | None = None):
    """The vector (xi), 1-form, two-form or map ``spec`` spells, inline or as @file of the
    structure kind named like ``flag``, for ``option`` (``--flag`` by default)."""
    option = option or _option(flag)
    if spec.startswith("@") and flag in STRUCTURE_KEYS:
        (value,) = parse_structure(_read_file(spec[1:], option), flag, dim)
        return value
    if flag == "xi":
        return parse_vector_inline(spec, dim, option)
    if flag == "form":
        return parse_form_inline(spec, dim, option)
    if flag == "two_form":
        return parse_two_form_inline(spec, dim, option)
    return parse_map_inline(spec, dim, dict(b.maps) if b is not None else {}, option)


def _assemble_dz(base: Matrix, dz_spec: str) -> Matrix:
    """Append D(z) = w + s z to an n-dim map, z-row zero on the base."""
    w_str, colon, s_str = dz_spec.partition(":")
    if not colon:
        raise LieforgeError("--dz needs 'w1,..,wn:s'")
    n = len(base)
    w = parse_vector_inline(w_str, n, "--dz")
    s = _scalar_at(s_str, None, "--dz")
    rows = [tuple(base[i]) + (w[i],) for i in range(n)]
    rows.append((Fraction(0),) * n + (s,))
    return tuple(rows)


def _required(args, flag: str, dim: int, b: Builtin | None):
    """The value of ``--flag``, or the usage error for its absence."""
    spec = getattr(args, flag)
    if spec is None:
        raise LieforgeError(f"need {_option(flag)}")
    return _value(spec, flag, dim, b)


def _library(path: str):
    """The lieforge function ``module.name``, looked up in its module now (see ``_COMMANDS``)."""
    module, name = path.split(".")
    return getattr(import_module(f"lieforge.{module}"), name)


def _row(args) -> tuple[str, str, str]:
    return _COMMANDS[args.command][1][args.kind]


class _Source(Record):
    """A structure input: the inline flags that spell its values, the
    builtin's data, and the ``module.name`` of its check (see ``_library``),
    given in the argument order of the check. A source with
    ``STRUCTURE_KEYS`` of its name is also read from --structure."""

    _fields = ("flags", "builtin", "check")


_SOURCES = {
    "sasakian": _Source(("xi", "form", "map"), lambda b: b.sasakian_data, "structures.check_sasakian"),
    "kahler": _Source(("map", "two_form"), lambda b: b.kahler_data, "structures.check_kahler"),
    "contact": _Source(("form",), lambda b: b.sasakian_data and b.sasakian_data[1:2], "structures.check_contact"),
    "frobenius": _Source(
        ("form",), lambda b: b.frobenius_form and (b.frobenius_form,), "structures.check_frobenius"
    ),
}


def _resolve(args, g: LieAlgebra, b: Builtin | None, name: str, inline: bool) -> tuple:
    """The data of source ``name``: the --structure file, else the complete
    set of inline flags, else the builtin's data. Some but not all of the
    inline flags, or no data at all, is a usage error."""
    source = _SOURCES[name]
    if name in STRUCTURE_KEYS and args.structure is not None:
        return parse_structure(_read_file(args.structure, "--structure"), name, g.dim)
    spelled = "/".join(_option(flag) for flag in source.flags)
    given = [flag for flag in source.flags if getattr(args, flag) is not None] if inline else []
    if given and len(given) < len(source.flags):
        raise LieforgeError(f"need all of {spelled} for inline {name} input")
    if given:
        return tuple(_value(getattr(args, flag), flag, g.dim, b) for flag in source.flags)
    data = source.builtin(b) if b is not None else None
    if data is None:
        ways = [f"--structure (kind {name})"] if name in STRUCTURE_KEYS else []
        ways += [spelled] if inline else []
        raise LieforgeError(f"need {name} data from {' or '.join(ways + ['a builtin that has it'])}")
    return data


def _sources(args) -> list[tuple[str, bool]]:
    """Each source of the kind, with whether it takes its inline flags (the kind reads all of them)."""
    names, reads, _ = (field.split() for field in _row(args))
    return [(name, all(flag in reads for flag in _SOURCES[name].flags)) for name in names]


def _checked_sources(args, g: LieAlgebra, b: Builtin | None):
    """(report, structure or None) for each source of the command, each read and checked in turn."""
    for name, inline in _sources(args):
        yield _library(_SOURCES[name].check)(g, *_resolve(args, g, b, name, inline))


def _values(args, g: LieAlgebra, b: Builtin | None) -> list:
    """The values the kind's function takes after its sources, in flag order: each --form,
    --two-form and --map that no source reads inline, and --w-scale, None when absent. Where the
    kind reads --dz, --map is a double extension's map: on the central extension, or on g
    completed by --dz."""
    reads = _row(args)[1].split()
    inline = {flag for name, takes in _sources(args) if takes for flag in _SOURCES[name].flags}
    values = []
    for flag in reads:
        if flag == "w_scale":
            values.append(None if args.w_scale is None else _scalar_at(args.w_scale, None, "--w-scale"))
        elif flag == "map" and "dz" in reads:
            d = _required(args, "map", g.dim + (args.dz is None), b)
            values.append(d if args.dz is None else _assemble_dz(d, args.dz))
        elif flag in ("form", "two_form", "map") and flag not in inline:
            values.append(_required(args, flag, g.dim, b))
    return values


def _structure_sections(g: LieAlgebra, structure) -> tuple[tuple[str, tuple[tuple[str, str], ...]], ...]:
    if isinstance(structure, SasakianStructure):
        fields = [
            ("xi", fmt_vector(structure.reeb, g.labels)),
            ("alpha", fmt_dual(one_form_coords(structure.alpha), g.labels)),
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


def _fix_factor(text: str) -> Fraction:
    """The factor of 'alpha∘D=F:FORM': F is a rational, or alpha times one (alpha, -alpha, 2*alpha, 1/2alpha)."""
    head = text.removesuffix("alpha")
    if head in ("", "+", "-"):
        head += "1"
    return _scalar_at(head.removesuffix("*") if head != text else text, None, "--fix")


def _constraints(args, g: LieAlgebra, b: Builtin | None) -> list:
    """The Leibniz rule, then the constraint each --fix spells."""
    from .derivations import Commute, FormEigen, Leibniz, Sends

    constraints = [Leibniz()]
    for spec in args.fix:
        m = _FIX_EIGEN.match(spec.strip())
        if m:
            lam_str, form_str = m.group(1).strip(), m.group(2).strip()
            constraints.append(FormEigen(parse_form_inline(form_str, g.dim, "--fix"), _fix_factor(lam_str)))
        elif spec.startswith("commute:"):
            constraints.append(Commute(_value(spec[len("commute:") :], "map", g.dim, b, "--fix")))
        elif spec.startswith("sends:"):
            v_str, arrow, w_str = spec[len("sends:") :].partition("->")
            if not arrow:
                raise LieforgeError("--fix sends constraint needs 'sends:V->W'")
            constraints.append(
                Sends(parse_vector_inline(v_str, g.dim, "--fix"), parse_vector_inline(w_str, g.dim, "--fix"))
            )
        else:
            raise LieforgeError(f"bad --fix constraint {spec!r}")
    return constraints


def _cmd_check(args) -> tuple[CheckReport, tuple, LieAlgebra | None]:
    """Also runs ``solve reeb`` and ``solve principal``, whose report is their checked source's."""
    # check jacobi reports a failing Jacobi identity itself, so it reads the bare algebra
    g, b = _read_algebra(args) if args.kind == "jacobi" else _load_algebra(args)
    function = _row(args)[2]
    if function:
        report = _library(function)(g, *_values(args, g, b))
    else:  # a kind that only checks its one source
        ((report, _),) = _checked_sources(args, g, b)
    return _adjust_evaluations(report, g.dim, args.wedge_convention), (), None


def _cmd_extend(args) -> tuple[CheckReport, tuple, LieAlgebra | None]:
    g, b = _load_algebra(args)
    ext = _library(_row(args)[2])(g, *_values(args, g, b), check=not args.force)
    return check_jacobi(ext.algebra).with_notes(*_extension_notes(ext)), (), ext.algebra


def _cmd_construct(args) -> tuple[CheckReport, tuple, LieAlgebra | None]:
    g, b = _load_algebra(args)
    sources = []
    for report, structure in _checked_sources(args, g, b):
        require("input fails its axioms", report)
        sources.append(structure)
    built = _library(_row(args)[2])(g, *sources, *_values(args, g, b))
    notes = ()
    if args.kind == "sasakian-to-fk":
        result, report, frob, structure = built
        if frob is not None:
            notes = (("principal_element", fmt_vector(frob.principal, result.algebra.labels)),)
    elif args.kind == "sasakian-double":
        result, report, structure, params = built
        notes = (
            ("params", f"a={fmt_scalar(params.a)} b={fmt_scalar(params.b)} c={fmt_scalar(params.c)} d={fmt_scalar(params.d)}"),
            ("params_u", fmt_vector(params.u, g.labels)),
        )
    else:
        result, report, structure = built
    if not isinstance(result, LieAlgebra):  # an ExtensionResult
        notes = _extension_notes(result) + notes
        result = result.algebra
    report = _adjust_evaluations(report.with_notes(*notes), result.dim, args.wedge_convention)
    return report, _structure_sections(result, structure), result


def _cmd_solve(args) -> tuple[CheckReport, tuple, LieAlgebra | None]:
    function = _row(args)[2]
    if not function:  # reeb and principal: the contact or Frobenius form, checked
        return _cmd_check(args)
    g, b = _load_algebra(args)
    derivation_space = _library(function)
    constraints = _constraints(args, g, b)
    particular, basis = derivation_space(g, constraints)
    if particular is None:
        # Leibniz alone is homogeneous: the culprit is the first --fix whose prefix is inconsistent
        inconsistent = (derivation_space(g, constraints[:idx])[0] is None for idx in range(2, len(constraints)))
        culprit = next((spec for spec, bad in zip(args.fix, inconsistent) if bad), args.fix[-1])
        return CheckReport((fail("solution_exists", f"empty: inconsistent at constraint {culprit!r}"),)), (), None
    matrices = [("particular", particular)] + [(f"basis_{idx}", m) for idx, m in enumerate(basis, start=1)]
    sections = tuple(
        (name, tuple((f"row {l}", fmt_dual(row, g.labels)) for l, row in zip(g.labels, m))) for name, m in matrices
    )
    return CheckReport((ok("solution_exists"),), (("basis_size", str(len(basis))),)), sections, None


def _cmd_builtin(args) -> tuple[CheckReport, tuple, LieAlgebra | None]:
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
        notes.append(("frobenius_form", fmt_dual(one_form_coords(frob.phi), g.labels)))
        notes.append(("principal_element", fmt_vector(frob.principal, g.labels)))
    for name, _ in b.maps:
        notes.append(("named_map", name))
    z = center(g)
    notes.append(("center", z.describe(g.labels)))
    return CheckReport((ok("builtin_known"),), tuple(notes)), tuple(sections), g


def _adjust_evaluations(report: CheckReport, dim: int, convention: str) -> CheckReport:
    """Flip printed top-form evaluations under the --wedge-convention flag.

    Only the displayed value changes; the nonvanishing verdict is
    sign-invariant.
    """
    sign = evaluation_sign(dim, convention)
    if sign == 1:
        return report
    notes = tuple(
        (key, fmt_scalar(sign * scalar(value))) if key == "top_coefficient" else (key, value)
        for key, value in report.notes
    )
    return CheckReport(report.items, notes)


def run(argv: list[str]) -> tuple[str, int]:
    """The rendered report of the command line and its exit code, 0 exactly when the report passes;
    the help text and 0 for -h/--help.

    A refused precondition is rendered as its report. Usage and parse errors propagate."""
    args = _parse_args(argv)
    if isinstance(args, str):
        return args, 0
    handlers = {
        "check": _cmd_check,
        "extend": _cmd_extend,
        "construct": _cmd_construct,
        "solve": _cmd_solve,
        "builtin": _cmd_builtin,
    }
    command = f"{args.command} {args.kind or args.name}"
    try:
        report, sections, algebra = handlers[args.command](args)
    except PreconditionError as exc:
        report, sections, algebra = exc.report, (), None
    render = render_json if args.output == "json" else render_text
    return render(command, report, sections, algebra), 0 if report.overall else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else argv
    try:
        rendered, code = run(argv)
    # usage errors, file faults (fileio.ParseError) and unreadable files (see _read_file) are LieforgeErrors
    except LieforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(rendered)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
