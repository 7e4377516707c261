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

import re
import sys
from fractions import Fraction
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
from .linalg import Matrix, fmt_scalar, fmt_vector, scalar, transpose
from .report import CheckReport, LieforgeError, PreconditionError, Record, fail, ok, require
from .structures import (
    KahlerStructure,
    SasakianStructure,
    check_contact,
    check_frobenius,
    check_kahler,
    check_sasakian,
)

if TYPE_CHECKING:
    from .extensions import ExtensionResult


# Each command's kinds: the structure sources the kind reads, in order (see
# ``_SOURCES``), and the flags it reads. A flag the kind does not read is a
# usage error; a source takes its inline flags only where the kind reads all
# of them, so in the constructions that take a derivation --map is that
# derivation. The tables hold strings only, so that a parser or check rebound
# in its module (as bench/tracing.py does) is the one called.
_COMMANDS: dict[str, tuple[str, dict[str, tuple[str, str]]]] = {
    "check": ("verify an axiom system", {
        "jacobi": ("", ""),
        "cocycle": ("", "two_form"),
        "derivation": ("", "map"),
        "contact": ("contact", "form"),
        "frobenius": ("frobenius", "form"),
        "kahler": ("kahler", "map two_form structure"),
        "sasakian": ("sasakian", "xi form map structure"),
    }),
    "extend": ("build an extension", {
        "central": ("", "two_form force"),
        "derivation": ("", "map force"),
        "double": ("", "two_form map dz force"),
        "reversed": ("", "form map force"),
    }),
    "construct": ("theorem-level constructions with re-verification", {
        "fk-to-sasakian": ("frobenius kahler", "form map structure"),
        "sasakian-to-fk": ("sasakian", "map structure"),
        "kahler-to-sasakian": ("kahler", "map two_form structure"),
        "sasakian-reduction": ("sasakian", "structure"),
        "sasakian-double": ("sasakian", "two_form map dz structure w_scale"),
        "contact-ideal": ("frobenius kahler", "form structure"),
    }),
    "solve": ("linear solves: derivation spaces, Reeb, principal element", {
        "derivations": ("", "fix"),
        "reeb": ("contact", "form"),
        "principal": ("frobenius", "form"),
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
    "fix": "extra derivation constraint: 'alpha∘D=alpha:e3', 'alpha∘D=0:e3', 'commute:MAP', 'sends:V->W'",
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
        read = {flag for _, flags in kinds.values() for flag in flags.split()}
        lines = [
            f"usage: lieforge {command} KIND (--builtin NAME | --algebra FILE) [flags]",
            "",
            text,
            "",
            "kinds, with the flags each reads:",
            *(f"  {kind:<20} {' '.join(map(_option, flags.split())) or '(none)'}" for kind, (_, flags) in kinds.items()),
            "",
            "flags:",
            f"  {'--builtin':<12} built-in algebra: {', '.join(sorted(BUILTINS))}",
            f"  {'--algebra':<12} path to a lieforge/1 algebra file",
            *(f"  {_option(flag):<12} {flag_help}" for flag, flag_help in _FLAGS.items() if flag in read),
        ]
    return "\n".join(lines) + "\n"


def _read_algebra(args) -> tuple[LieAlgebra, Builtin | None]:
    if args.builtin:
        b = builtin(args.builtin)
        return b.algebra, b
    if args.algebra:
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


def _value(spec: str | None, flag: str, dim: int, b: Builtin | None, option: str | None = None):
    """The vector (xi), 1-form, two-form or map ``spec`` spells, inline or as @file of the
    structure kind named like ``flag``, for ``option`` (``--flag`` by default); None when absent."""
    if spec is None:
        return None
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
    value = _value(getattr(args, flag), flag, dim, b)
    if value is None:
        raise LieforgeError(f"need {_option(flag)}")
    return value


def _extension_map(args, g: LieAlgebra, b: Builtin | None) -> Matrix:
    """The map of a double extension: --map on the central extension, or --map on g completed by --dz."""
    if args.dz is None:
        return _required(args, "map", g.dim + 1, b)
    return _assemble_dz(_required(args, "map", g.dim, b), args.dz)


class _Source(Record):
    """A structure input: the inline flags that spell its values, the
    builtin's data and the check, given in the argument order of the check.
    A source with ``STRUCTURE_KEYS`` of its name is also read from --structure.
    The check looks its function up at call time, so a rebound module name is used."""

    _fields = ("flags", "builtin", "check")


_SOURCES = {
    "sasakian": _Source(("xi", "form", "map"), lambda b: b.sasakian_data, lambda g, *d: check_sasakian(g, *d)),
    "kahler": _Source(("map", "two_form"), lambda b: b.kahler_data, lambda g, *d: check_kahler(g, *d)),
    "contact": _Source(
        ("form",), lambda b: b.sasakian_data and b.sasakian_data[1:2], lambda g, *d: check_contact(g, *d)
    ),
    "frobenius": _Source(
        ("form",), lambda b: b.frobenius_form and (b.frobenius_form,), lambda g, *d: check_frobenius(g, *d)
    ),
}


def _resolve(args, g: LieAlgebra, b: Builtin | None, name: str, inline: bool) -> tuple:
    """The data of source ``name``: the --structure file, else the complete
    set of inline flags, else the builtin's data. Some but not all of the
    inline flags, or no data at all, is a usage error."""
    source = _SOURCES[name]
    if name in STRUCTURE_KEYS and args.structure:
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


def _checked_sources(args, g: LieAlgebra, b: Builtin | None):
    """(report, structure or None) for each source of the command, each read and checked in turn."""
    names, reads = (field.split() for field in _COMMANDS[args.command][1][args.kind])
    for name in names:
        inline = all(flag in reads for flag in _SOURCES[name].flags)
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
            lam = _scalar_at(lam_str[: -len("*alpha")], None, "--fix")
        else:
            lam = _scalar_at(lam_str, None, "--fix")
        return FormEigen(parse_form_inline(form_str, g.dim, "--fix"), lam)
    if spec.startswith("commute:"):
        return Commute(_value(spec[len("commute:") :], "map", g.dim, b, "--fix"))
    if spec.startswith("sends:"):
        v_str, arrow, w_str = spec[len("sends:") :].partition("->")
        if not arrow:
            raise LieforgeError("--fix sends constraint needs 'sends:V->W'")
        return Sends(parse_vector_inline(v_str, g.dim, "--fix"), parse_vector_inline(w_str, g.dim, "--fix"))
    raise LieforgeError(f"bad --fix constraint {spec!r}")


def _cmd_check(args) -> tuple[CheckReport, tuple, LieAlgebra | None]:
    """Also runs ``solve reeb`` and ``solve principal``, whose report is their checked source's."""
    # check jacobi reports a failing Jacobi identity itself, so it reads the bare algebra
    g, b = _read_algebra(args) if args.kind == "jacobi" else _load_algebra(args)
    if args.kind == "jacobi":
        report = check_jacobi(g)
    elif args.kind == "cocycle":
        from .extensions import is_cocycle

        report = is_cocycle(g, _required(args, "two_form", g.dim, b))
    elif args.kind == "derivation":
        from .derivations import is_derivation

        report = is_derivation(g, _required(args, "map", g.dim, b))
    else:  # contact, frobenius, kahler, sasakian; solve reeb and principal
        ((report, _),) = _checked_sources(args, g, b)
    return _adjust_evaluations(report, g.dim, args.wedge_convention), (), None


def _cmd_extend(args) -> tuple[CheckReport, tuple, LieAlgebra | None]:
    from .extensions import central_extension, derivation_extension, double_extension, reversed_double_extension

    g, b = _load_algebra(args)
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
    return check_jacobi(ext.algebra).with_notes(*_extension_notes(ext)), (), ext.algebra


def _cmd_construct(args) -> tuple[CheckReport, tuple, LieAlgebra | None]:
    from .extensions import ExtensionResult
    from .theorems import (
        contact_ideal_restriction,
        frobenius_kahler_to_sasakian,
        kahler_to_sasakian_central,
        sasakian_double_extension,
        sasakian_reduction,
        sasakian_to_frobenius_kahler,
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
        c = _scalar_at(args.w_scale, None, "--w-scale") if args.w_scale else None
        result, report, structure, params = sasakian_double_extension(g, *sources, theta, d, c)
        notes = (
            ("params", f"a={fmt_scalar(params.a)} b={fmt_scalar(params.b)} c={fmt_scalar(params.c)} d={fmt_scalar(params.d)}"),
            ("params_u", fmt_vector(params.u, g.labels)),
        )
    else:  # contact-ideal
        result, report, structure = contact_ideal_restriction(g, *sources)
    if isinstance(result, ExtensionResult):
        notes = _extension_notes(result) + notes
        result = result.algebra
    report = _adjust_evaluations(report.with_notes(*notes), result.dim, args.wedge_convention)
    return report, _structure_sections(result, structure), result


def _cmd_solve(args) -> tuple[CheckReport, tuple, LieAlgebra | None]:
    if args.kind != "derivations":  # reeb and principal: the contact or Frobenius form, checked
        return _cmd_check(args)
    g, b = _load_algebra(args)
    from .derivations import Leibniz, derivation_space

    constraints = [Leibniz()] + [_parse_fix(spec, g, b) for spec in args.fix]
    particular, basis = derivation_space(g, constraints)
    if particular is None:
        # Leibniz alone is homogeneous: the culprit is the first --fix whose prefix is inconsistent
        inconsistent = (derivation_space(g, constraints[:idx])[0] is None for idx in range(2, len(constraints)))
        culprit = next((spec for spec, bad in zip(args.fix, inconsistent) if bad), args.fix[-1])
        return CheckReport((fail("solution_exists", f"empty: inconsistent at constraint {culprit!r}"),)), (), None
    star = tuple(f"{l}*" for l in g.labels)
    matrices = [("particular", particular)] + [(f"basis_{idx}", m) for idx, m in enumerate(basis, start=1)]
    sections = tuple(
        (name, tuple((f"row {l}", fmt_vector(row, star)) for l, row in zip(g.labels, m))) for name, m in matrices
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
        star = tuple(f"{l}*" for l in g.labels)
        notes.append(("frobenius_form", fmt_vector(one_form_coords(frob.phi), star)))
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
