"""Per-axiom verdict reports shared by all verifiers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    witness: str | None = None

    def __post_init__(self) -> None:
        if not self.passed and self.witness is None:
            raise ValueError(f"failed item {self.name!r} needs a witness")


@dataclass(frozen=True)
class CheckReport:
    """Verdict list; overall passes iff every item passes.

    ``notes`` carry informational exact values (metrics, solved vectors)
    that do not participate in the verdict.
    """

    items: tuple[CheckItem, ...]
    notes: tuple[tuple[str, str], ...] = ()

    @property
    def overall(self) -> bool:
        return all(item.passed for item in self.items)

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def failures(self) -> tuple[CheckItem, ...]:
        return tuple(it for it in self.items if not it.passed)

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
