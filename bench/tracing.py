"""Layer spans for the traced benchmark run, taken from outside lieforge.

``Tracer.install`` rebinds the layer functions listed in ``LAYERS`` to
timing wrappers, in every ``lieforge`` module that holds them (modules bind
names with ``from .linalg import rref``, so one function can sit in several
module dictionaries). Each call records a span ``[name, start_ns, end_ns,
parent index, job id]`` in memory; ``summarize`` turns a pass's spans into
per-function call counts and self times (span time minus the time of its
child spans). Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import gc
import sys
import time
import types
from collections import defaultdict

# Layer boundaries: the public functions wrapped in each module. Element-wise
# helpers (vec_add, scalar, fmt_vector, passed, ...) stay unwrapped, so their
# time counts as self time of the layer function that calls them. A name a
# later version of the program drops is reported as missing and reads 0.
THEOREMS = (
    "sasakian_reduction",
    "kahler_to_sasakian_central",
    "kahler_extension_obstruction",
    "extend_complex_structure",
    "solve_double_extension_params",
    "sasakian_double_extension_conditions",
    "sasakian_double_extension",
    "frobenius_kahler_to_sasakian",
    "sasakian_to_frobenius_kahler",
    "contact_ideal_restriction",
)
EXTENSIONS = (
    "is_cocycle",
    "central_extension",
    "derivation_extension",
    "double_extension",
    "reversed_double_extension",
)
CHECKS = ("check_contact", "check_frobenius", "check_kahler", "check_sasakian")
PARSERS = (
    "parse_algebra",
    "parse_structure",
    "parse_form_inline",
    "parse_two_form_inline",
    "parse_map_inline",
    "parse_vector_inline",
)
RENDERERS = ("render_text", "render_json")
LAYERS = {
    "linalg": (
        "rref",
        "nullspace",
        "solve_affine",
        "solve_unique",
        "in_span",
        "det",
        "positive_definite",
        "mat_mul",
    ),
    "algebra": ("bracket", "adjoint", "check_jacobi", "center"),
    "forms": ("wedge", "wedge_power", "ce_differential", "radical", "top_contact_test"),
    "derivations": ("is_derivation", "derivation_space", "map_in_family"),
    "extensions": EXTENSIONS,
    "structures": CHECKS
    + ("kirillov_form", "principal_element", "nijenhuis", "kahler_metric", "sasakian_metric"),
    "theorems": THEOREMS,
    "fileio": PARSERS + RENDERERS + ("serialize_algebra",),
    "cli": ("run",),
}
SOLVES = ("linalg.solve_affine", "linalg.nullspace")


def _count_rref(counts, args, result):
    rows = args[0]
    counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_wedge(counts, args, result):
    a, b = args[0], args[1]
    if a.degree + b.degree <= a.dim:
        counts["forms.wedge.pairs"] += len(a.coeffs) * len(b.coeffs)
    counts["forms.wedge.terms"] += len(result.coeffs)


def _count_bytes(counts, args, result):
    counts["fileio.bytes_out"] += len(result.encode("utf-8"))


COUNTERS = {
    "linalg.rref": _count_rref,
    "forms.wedge": _count_wedge,
    "fileio.render_text": _count_bytes,
    "fileio.render_json": _count_bytes,
}


class IncompleteTrace(RuntimeError):
    """A wrapped function is still reachable through an untraced binding."""


def _lieforge_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items()) if n == "lieforge" or n.startswith("lieforge.")]


class Tracer:
    """Span recorder for one traced pass; install, run jobs, uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._cells: set[int] = set()

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__name__ = traced.__qualname__ = fn.__name__
        self._cells.update(id(c) for c in traced.__closure__)
        return traced

    def install(self) -> None:
        self._check_complete(self._rebind())

    def _rebind(self) -> list:
        wrappers: dict[int, tuple[object, object]] = {}
        for short, names in LAYERS.items():
            mod = sys.modules.get(f"lieforge.{short}")
            if mod is None:  # not imported by this workload
                continue
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    self.missing.append(f"{short}.{name}")
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for mod in _lieforge_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return [fn for fn, _ in wrappers.values()]

    def _check_complete(self, originals) -> None:
        """Fail when anything but a non-lieforge module still holds an original.

        Module dictionaries of lieforge, module-level tables, class
        attributes, default arguments and partials all show up as referrers
        of the original function object, so a binding the rebinding loop
        missed cannot go unnoticed.
        """
        module_dicts = {id(vars(m)): m for m in list(sys.modules.values()) if m is not None}
        lieforge_modules = _lieforge_modules()
        ours = self._cells | {id(entry) for entry in self._patched} | {id(originals)}
        gc.collect()
        for fn in originals:
            for ref in gc.get_referrers(fn):
                if id(ref) in ours or isinstance(ref, types.FrameType):
                    continue
                holder = module_dicts.get(id(ref))
                if holder is not None and holder not in lieforge_modules:
                    continue
                where = holder.__name__ if holder is not None else type(ref).__name__
                self.uninstall()
                raise IncompleteTrace(
                    f"{fn.__module__}.{fn.__name__} is still reachable untraced through {where}"
                )

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def summarize(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Calls and self time per wrapped function, plus the derived counters.

    Spans are appended when a call starts, so a parent always precedes its
    children and one forward pass settles the solve nesting.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    under_solve = [False] * len(spans)
    outer_solves = rref_in_solves = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_ns"] += end - start - child_ns[i]
        inside = parent >= 0 and under_solve[parent]
        under_solve[i] = inside or name in SOLVES
        if name in SOLVES and not inside:
            outer_solves += 1
        if name == "linalg.rref" and inside:
            rref_in_solves += 1
    out.update(counts)
    out["linalg.outer_solves"] = outer_solves
    out["linalg.rref_in_solves"] = rref_in_solves
    return dict(out)
