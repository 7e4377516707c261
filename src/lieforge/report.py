"""Per-axiom verdict reports, the item helpers shared by all verifiers, and their ``Record`` base."""

from __future__ import annotations

from collections.abc import Callable


class Record:
    """A frozen value over the fields named in ``_fields``: equality (within one class), hash and
    repr ``Name(field=value, ...)`` by the fields, and ``AttributeError`` on assigning or deleting.
    The fields are given by position, then by name; a field left out takes its value in
    ``_defaults``, which maps some of the last fields to their defaults (never mutated). The
    fields live in the instance ``__dict__``, beside any ``cached_property`` values."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        if named or len(values) != len(fields):
            try:
                values += tuple(named.pop(f) if f in named else self._defaults[f] for f in fields[len(values) :])
            except KeyError:  # a field with no value
                values = ()
            if named or len(values) != len(fields):
                raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)})")
        self.__dict__.update(zip(fields, values))

    def _values(self) -> tuple:
        return tuple([self.__dict__[f] for f in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={self.__dict__[f]!r}' for f in self._fields)})"

    def _frozen(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign or delete {name!r}: {type(self).__name__} is frozen")

    __setattr__ = __delattr__ = _frozen


class CheckItem(Record):
    _fields = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: str | None = None) -> None:
        if not passed and witness is None:
            raise ValueError(f"failed item {name!r} needs a witness")
        self.__dict__.update(name=name, passed=passed, witness=witness)


class CheckReport(Record):
    """Verdict list; overall passes iff every item passes.

    ``notes`` carry informational exact values (metrics, solved vectors)
    that do not participate in the verdict.
    """

    _fields = ("items", "notes")

    def __init__(self, items: tuple[CheckItem, ...], notes: tuple[tuple[str, str], ...] = ()) -> None:
        self.__dict__.update(items=items, notes=notes)

    @property
    def overall(self) -> bool:
        return all(item.passed for item in self.items)

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def with_notes(self, *extra: tuple[str, str]) -> "CheckReport":
        return CheckReport(self.items, self.notes + tuple(extra))

    def prefixed(self, prefix: str) -> tuple[CheckItem, ...]:
        """The items renamed ``prefix + name``, for merging into a larger report."""
        return tuple(CheckItem(prefix + it.name, it.passed, it.witness) for it in self.items)


def ok(name: str) -> CheckItem:
    return CheckItem(name, True)


def fail(name: str, witness: str) -> CheckItem:
    return CheckItem(name, False, witness)


def passed(name: str, condition: bool, witness: str) -> CheckItem:
    return CheckItem(name, condition, None if condition else witness)


def first_failure(name: str, hit, witness: Callable[..., str]) -> CheckItem:
    """The item ``name`` of a search for a first failing vector or pair: it passes when ``hit``
    is None and otherwise fails with ``witness(hit)``, so a passing item formats nothing."""
    return CheckItem(name, hit is None, None if hit is None else witness(hit))


class LieforgeError(ValueError):
    """Base error for the package."""


class DimensionMismatch(LieforgeError):
    pass


class PreconditionError(LieforgeError):
    """Raised when a constructor's precondition fails; carries the evidence."""

    def __init__(self, message: str, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report if report is not None else CheckReport((fail("precondition", message),))


def require(message: str, report: CheckReport) -> None:
    """Raises ``PreconditionError(message, report)`` unless ``report`` passes."""
    if not report.overall:
        raise PreconditionError(message, report)


def refusal(message: str, name: str, witness: str) -> PreconditionError:
    """The error of a construction refused on one failing item, ``name`` with its ``witness``."""
    return PreconditionError(message, CheckReport((fail(name, witness),)))
