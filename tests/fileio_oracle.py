"""Reference oracle for ``lieforge.fileio.render_json``: the report as a
payload of dicts and lists, written by ``json.dumps(payload, indent=2)``.

With an indent, ``json.dumps`` runs its pure-Python encoder, so the renderer
writes the same document itself; tests/test_fileio.py asks for the same bytes
on every corpus report and on hand-built reports.
"""

from __future__ import annotations

import json

from lieforge.algebra import LieAlgebra
from lieforge.fileio import FORMAT_TAG
from lieforge.linalg import fmt_scalar
from lieforge.report import CheckReport


def algebra_as_json(g: LieAlgebra) -> dict:
    return {
        "dim": g.dim,
        "basis": list(g.labels),
        "brackets": [
            {
                "i": i + 1,
                "j": j + 1,
                "coeffs": [{"k": k + 1, "value": fmt_scalar(v)} for k, v in entries],
            }
            for (i, j), entries in g.brackets
        ],
    }


def render_json(command: str, report: CheckReport, sections: tuple = (), algebra: LieAlgebra | None = None) -> str:
    payload = {
        "format": FORMAT_TAG,
        "command": command,
        "items": [
            {"name": it.name, "verdict": "pass" if it.passed else "fail", "witness": it.witness}
            for it in report.items
        ],
        "notes": [{"key": k, "value": v} for k, v in report.notes],
        "sections": [
            {"name": name, "fields": [{"key": k, "value": v} for k, v in pairs]}
            for name, pairs in sections
        ],
        "algebra": algebra_as_json(algebra) if algebra is not None else None,
        "overall": "pass" if report.overall else "fail",
    }
    return json.dumps(payload, indent=2) + "\n"
