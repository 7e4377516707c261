"""The lieforge/1 line-oriented text formats and inline argument parsers.

Algebra files:

    lieforge/1 algebra
    dim 3
    basis e1 e2 e3
    bracket 1 2 = 3:1

Structure files declare one object per file:

    lieforge/1 structure        lieforge/1 structure
    kind form                   kind sasakian
    values 0 0 1                xi = 0 0 1
                                alpha = 0 0 1
    kind two_form               phi row 1 = 0 -1 0
    entry 1 2 = 1               phi row 2 = 1 0 0
                                phi row 3 = 0 0 0
    kind map                    kind kahler
    row 1 = 0 -1                j row 1 = ...
    row 2 = 1 0                 omega entry 1 2 = 1

Indices are 1-based in files and reports; rationals are "p" or "p/q".
Each structure kind declares its keys (``STRUCTURE_KEYS``): a key the kind
does not declare, or a declared key that is missing, is a parse error; a
two-form key may be left out and is then zero. A key may appear once per
file: a repeated field, map row, two-form entry or bracket is a parse
error. Parse errors carry the byte offset of the offending line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LieAlgebra
from .forms import KForm
from .linalg import Matrix, Vector, fmt_scalar, scalar, vector
from .report import CheckItem, CheckReport, LieforgeError

FORMAT_TAG = "lieforge/1"


class ParseError(LieforgeError):
    def __init__(self, message: str, offset: int, fieldname: str):
        super().__init__(f"{message} (byte {offset}, field {fieldname!r})")
        self.offset = offset
        self.fieldname = fieldname


@dataclass
class _Lines:
    """Lines with byte offsets, comments and blanks stripped."""

    entries: list[tuple[int, str]]

    @classmethod
    def split(cls, text: str) -> "_Lines":
        entries = []
        offset = 0
        for raw in text.splitlines(keepends=True):
            line = raw.split("#", 1)[0].strip()
            if line:
                entries.append((offset, line))
            offset += len(raw)
        return cls(entries)


def _expect_header(lines: _Lines, kind: str) -> list[tuple[int, str]]:
    if not lines.entries:
        raise ParseError("empty document", 0, "header")
    offset, first = lines.entries[0]
    if first != f"{FORMAT_TAG} {kind}":
        raise ParseError(f"expected header '{FORMAT_TAG} {kind}'", offset, "header")
    return lines.entries[1:]


def _scalar_at(token: str, offset: int, fieldname: str) -> Fraction:
    try:
        return scalar(token)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ParseError(f"bad rational {token!r}", offset, fieldname)


def _vector_at(tokens: list[str], offset: int, fieldname: str) -> Vector:
    return tuple(_scalar_at(t, offset, fieldname) for t in tokens)


def _int_at(token: str, offset: int, fieldname: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad integer {token!r}", offset, fieldname)


def parse_algebra(text: str) -> LieAlgebra:
    body = _expect_header(_Lines.split(text), "algebra")
    dim: int | None = None
    labels: tuple[str, ...] | None = None
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    assigned: set[str] = set()
    for offset, line in body:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in ("dim", "basis"):
            _assign_once(assigned, key, offset)
        if key == "dim":
            dim = _int_at(rest, offset, "dim")
            if dim <= 0:
                raise ParseError("dim must be positive", offset, "dim")
        elif key == "basis":
            labels = tuple(rest.split())
        elif key == "bracket":
            if dim is None:
                raise ParseError("bracket before dim", offset, "bracket")
            head, eq, coeffs = rest.partition("=")
            if not eq:
                raise ParseError("bracket needs '='", offset, "bracket")
            parts = head.split()
            if len(parts) != 2:
                raise ParseError("bracket needs two indices", offset, "bracket")
            i = _int_at(parts[0], offset, "bracket") - 1
            j = _int_at(parts[1], offset, "bracket") - 1
            if not 0 <= i < j < dim:
                raise ParseError("bracket indices must satisfy 1 <= i < j <= dim", offset, "bracket")
            if (i, j) in brackets:
                raise ParseError(f"bracket {i + 1} {j + 1} given twice", offset, "bracket")
            entry: dict[int, Fraction] = {}
            for chunk in coeffs.split():
                k_str, colon, val = chunk.partition(":")
                if not colon:
                    raise ParseError(f"bad coefficient {chunk!r}, expected k:value", offset, "bracket")
                k = _int_at(k_str, offset, "bracket") - 1
                if not 0 <= k < dim:
                    raise ParseError(f"target index {k + 1} out of range", offset, "bracket")
                if k in entry:
                    raise ParseError(f"target index {k + 1} given twice", offset, "bracket")
                entry[k] = _scalar_at(val, offset, "bracket")
            brackets[(i, j)] = entry
        else:
            raise ParseError(f"unknown field {key!r}", offset, key)
    if dim is None:
        raise ParseError("missing dim", 0, "dim")
    if labels is not None and len(labels) != dim:
        raise ParseError("basis label count does not match dim", 0, "basis")
    return LieAlgebra.from_brackets(dim, brackets, labels)


def serialize_algebra(g: LieAlgebra) -> str:
    lines = [f"{FORMAT_TAG} algebra", f"dim {g.dim}", "basis " + " ".join(g.labels)]
    for (i, j), entries in sorted(g.sparse_brackets().items()):
        coeffs = " ".join(f"{k + 1}:{fmt_scalar(v)}" for k, v in sorted(entries.items()))
        lines.append(f"bracket {i + 1} {j + 1} = {coeffs}")
    return "\n".join(lines) + "\n"


# The keys each structure kind declares, with the type of each value. A form,
# two_form or map file holds one object, named "values".
STRUCTURE_KEYS: dict[str, dict[str, str]] = {
    "form": {"values": "form"},
    "two_form": {"values": "two_form"},
    "map": {"values": "map"},
    "sasakian": {"xi": "vector", "alpha": "form", "phi": "map"},
    "kahler": {"j": "map", "omega": "two_form"},
}


@dataclass
class ParsedStructure:
    kind: str
    vectors: dict[str, Vector] = field(default_factory=dict)
    forms: dict[str, Vector] = field(default_factory=dict)  # 1-form coefficient lists
    two_forms: dict[str, dict[tuple[int, int], Fraction]] = field(default_factory=dict)
    maps: dict[str, dict[int, Vector]] = field(default_factory=dict)  # rows by index

    def matrix_of(self, name: str, dim: int) -> Matrix:
        rows = self.maps.get(name, {})
        if sorted(rows) != list(range(dim)):
            raise ParseError(f"map {name!r} needs rows 1..{dim}", 0, name)
        if any(len(r) != dim for r in rows.values()):
            raise ParseError(f"map {name!r} rows must have {dim} entries", 0, name)
        return tuple(rows[i] for i in range(dim))

    def two_form_of(self, name: str, dim: int) -> KForm:
        """The two-form ``name`` on a dim-dimensional algebra; absent entries are 0."""
        entries = self.two_forms.get(name, {})
        bad = next((ij for ij in entries if ij[1] >= dim), None)
        if bad is not None:
            raise ParseError(f"two-form {name!r} entry {bad[0] + 1} {bad[1] + 1} exceeds dim {dim}", 0, name)
        return KForm.two_form(dim, entries)

    def value(self, name: str, dim: int) -> Vector | KForm | Matrix:
        """The declared key ``name`` as its type says, on a dim-dimensional algebra."""
        value_kind = STRUCTURE_KEYS[self.kind][name]
        if value_kind == "vector":
            return self.vectors[name]
        if value_kind == "form":
            return KForm.one_form(dim, self.forms[name])
        if value_kind == "map":
            return self.matrix_of(name, dim)
        return self.two_form_of(name, dim)


def parse_structure(text: str) -> ParsedStructure:
    body = _expect_header(_Lines.split(text), "structure")
    if not body:
        raise ParseError("missing kind", 0, "kind")
    offset, first = body[0]
    key, _, kind = first.partition(" ")
    kind = kind.strip()
    if key != "kind" or kind not in STRUCTURE_KEYS:
        raise ParseError(f"expected 'kind' in {tuple(STRUCTURE_KEYS)}", offset, "kind")
    keys = STRUCTURE_KEYS[kind]
    out = ParsedStructure(kind)
    assigned: set[str] = set()  # names given by a "values" or "name = ..." line
    for offset, line in body[1:]:
        tokens = line.split()
        if "values" in keys:  # the one object's lines: 'values v..', 'row I = ..', 'entry I J = v'
            name, marker, rest = "values", "=" if tokens[0] == "values" else tokens[0], tokens[1:]
        else:
            name, marker, rest = tokens[0], (tokens[1:2] or [""])[0], tokens[2:]
        value_kind = keys.get(name)
        if value_kind is None:
            raise ParseError(f"unknown field {name!r} for kind {kind}", offset, name)
        if value_kind == "map" and marker == "row":
            _parse_map_row(out.maps.setdefault(name, {}), rest, offset)
        elif value_kind == "two_form" and marker == "entry":
            _parse_two_form_entry(out.two_forms.setdefault(name, {}), rest, offset)
        elif value_kind in ("vector", "form") and marker == "=":
            _assign_once(assigned, name, offset)
            (out.vectors if value_kind == "vector" else out.forms)[name] = _vector_at(rest, offset, name)
        else:
            raise ParseError(f"bad line {line!r}", offset, name)
    for name, value_kind in keys.items():
        if value_kind != "two_form" and name not in assigned and name not in out.maps:
            raise ParseError(f"missing {name!r} for kind {kind}", 0, name)
    return out


def _assign_once(assigned: set[str], name: str, offset: int) -> None:
    if name in assigned:
        raise ParseError(f"{name!r} given twice", offset, name)
    assigned.add(name)


def _parse_map_row(rows: dict[int, Vector], tokens: list[str], offset: int) -> None:
    if len(tokens) < 3 or tokens[1] != "=":
        raise ParseError("map row needs 'row I = entries'", offset, "row")
    idx = _int_at(tokens[0], offset, "row") - 1
    if idx in rows:
        raise ParseError(f"row {idx + 1} given twice", offset, "row")
    rows[idx] = _vector_at(tokens[2:], offset, "row")


def _parse_two_form_entry(entries: dict[tuple[int, int], Fraction], tokens: list[str], offset: int) -> None:
    if len(tokens) != 4 or tokens[2] != "=":
        raise ParseError("two-form entry needs 'entry I J = value'", offset, "entry")
    i = _int_at(tokens[0], offset, "entry") - 1
    j = _int_at(tokens[1], offset, "entry") - 1
    if not 0 <= i < j:
        raise ParseError("two-form entry needs i < j", offset, "entry")
    if (i, j) in entries:
        raise ParseError(f"entry {i + 1} {j + 1} given twice", offset, "entry")
    entries[(i, j)] = _scalar_at(tokens[3], offset, "entry")


# ---------------------------------------------------------------------------
# inline argument syntax for the command line

_TERM = re.compile(r"([+-]?)\s*([0-9][0-9/]*)?\s*\*?\s*e([0-9]+)$")
_TWO_TERM = re.compile(r"([+-]?)\s*([0-9][0-9/]*)?\s*\*?\s*e([0-9]+)\^e([0-9]+)$")


def _split_terms(spec: str, fieldname: str) -> list[str]:
    """The signed terms of an inline spec; an empty spec is an error, zero is spelled "0"."""
    terms = [t for t in re.split(r"(?=[+-])", spec.replace(" ", "")) if t]
    if not terms:
        raise ParseError(f"empty {fieldname} spec; write 0 for zero", 0, fieldname)
    return terms


def parse_form_inline(spec: str, dim: int) -> KForm:
    """1-form syntax: "e3", "e3+e5", "2e1-1/2e3", "0"."""
    if spec.strip() == "0":
        return KForm.zero(dim, 1)
    coords = [Fraction(0)] * dim
    for term in _split_terms(spec, "form"):
        m = _TERM.match(term)
        if not m:
            raise ParseError(f"bad 1-form term {term!r}", 0, "form")
        sign = -1 if m.group(1) == "-" else 1
        coef = _scalar_at(m.group(2), 0, "form") if m.group(2) else Fraction(1)
        idx = int(m.group(3)) - 1
        if not 0 <= idx < dim:
            raise ParseError(f"index e{idx + 1} out of range", 0, "form")
        coords[idx] += sign * coef
    return KForm.one_form(dim, coords)


def parse_two_form_inline(spec: str, dim: int) -> KForm:
    """2-form syntax: "0", "e1^e2", "e1^e2-e3^e4", "1/2e1^e3"."""
    if spec.strip() == "0":
        return KForm.zero(dim, 2)
    entries: dict[tuple[int, int], Fraction] = {}
    for term in _split_terms(spec, "two-form"):
        m = _TWO_TERM.match(term)
        if not m:
            raise ParseError(f"bad 2-form term {term!r}", 0, "two-form")
        sign = -1 if m.group(1) == "-" else 1
        coef = _scalar_at(m.group(2), 0, "two-form") if m.group(2) else Fraction(1)
        i = int(m.group(3)) - 1
        j = int(m.group(4)) - 1
        if not (0 <= i < dim and 0 <= j < dim and i != j):
            raise ParseError(f"bad index pair in {term!r}", 0, "two-form")
        value = sign * coef
        if i > j:
            i, j = j, i
            value = -value
        entries[(i, j)] = entries.get((i, j), Fraction(0)) + value
    return KForm.two_form(dim, entries)


def parse_map_inline(spec: str, dim: int, named: dict[str, Matrix] | None = None) -> Matrix:
    """Map syntax: "diag:1/2,1/2,1", "zero", "id", or a named builtin map."""
    spec = spec.strip()
    if named and spec in named:
        m = named[spec]
        if len(m) != dim:
            raise ParseError(f"named map {spec!r} has wrong dimension", 0, "map")
        return m
    if spec == "zero":
        from .linalg import zero_matrix

        return zero_matrix(dim)
    if spec == "id":
        from .linalg import identity

        return identity(dim)
    if spec.startswith("diag:"):
        entries = spec[len("diag:") :].split(",")
        if len(entries) != dim:
            raise ParseError(f"diag needs {dim} entries", 0, "map")
        from .linalg import diagonal

        return diagonal(_vector_at(entries, 0, "map"))
    raise ParseError(f"bad map spec {spec!r}", 0, "map")


def parse_vector_inline(spec: str, dim: int) -> Vector:
    """Vector syntax: "e2", "1,0,0", "0"."""
    spec = spec.strip()
    if spec == "0":
        return vector([0] * dim)
    if "," in spec:
        entries = spec.split(",")
        if len(entries) != dim:
            raise ParseError(f"vector needs {dim} entries", 0, "vector")
        return _vector_at(entries, 0, "vector")
    form = parse_form_inline(spec, dim)
    return tuple(form.coeff((i,)) for i in range(dim))


# ---------------------------------------------------------------------------
# report documents

@dataclass
class ReportDocument:
    command: str
    overall: bool | None = None
    items: tuple[CheckItem, ...] = ()
    notes: tuple[tuple[str, str], ...] = ()
    sections: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()
    algebra: LieAlgebra | None = None

    @classmethod
    def from_report(cls, command: str, report: CheckReport, **kwargs) -> "ReportDocument":
        return cls(command, report.overall, report.items, report.notes, **kwargs)


def render_text(doc: ReportDocument) -> str:
    lines = [f"{FORMAT_TAG} report", f"command {doc.command}"]
    for item in doc.items:
        verdict = "pass" if item.passed else "fail"
        suffix = f" | {item.witness}" if item.witness else ""
        lines.append(f"item {verdict} {item.name}{suffix}")
    for key, value in doc.notes:
        lines.append(f"note {key} = {value}")
    for name, pairs in doc.sections:
        lines.append(f"section {name}")
        for key, value in pairs:
            lines.append(f"  {key} = {value}")
    if doc.algebra is not None:
        lines.append("begin algebra")
        lines.append(serialize_algebra(doc.algebra).rstrip("\n"))
        lines.append("end algebra")
    if doc.overall is not None:
        lines.append(f"overall {'pass' if doc.overall else 'fail'}")
    return "\n".join(lines) + "\n"


def algebra_as_json(g: LieAlgebra) -> dict:
    return {
        "dim": g.dim,
        "basis": list(g.labels),
        "brackets": [
            {
                "i": i + 1,
                "j": j + 1,
                "coeffs": [{"k": k + 1, "value": fmt_scalar(v)} for k, v in sorted(entries.items())],
            }
            for (i, j), entries in sorted(g.sparse_brackets().items())
        ],
    }


def render_json(doc: ReportDocument) -> str:
    import json  # only --output json needs it, so a text-mode process never loads it

    payload = {
        "format": FORMAT_TAG,
        "command": doc.command,
        "items": [
            {"name": it.name, "verdict": "pass" if it.passed else "fail", "witness": it.witness}
            for it in doc.items
        ],
        "notes": [{"key": k, "value": v} for k, v in doc.notes],
        "sections": [
            {"name": name, "fields": [{"key": k, "value": v} for k, v in pairs]}
            for name, pairs in doc.sections
        ],
        "algebra": algebra_as_json(doc.algebra) if doc.algebra is not None else None,
        "overall": None if doc.overall is None else ("pass" if doc.overall else "fail"),
    }
    return json.dumps(payload, indent=2) + "\n"
