"""Violation reports shared by every validator, plus the exception hierarchy.

Validators never raise on a broken axiom: they return a report whose
violations carry the rule that failed and the identifiers witnessing the
failure, as named tuples ordered by rule, then witness, then message.
Exceptions are reserved for inputs that are not even well-formed enough to
check; the structure types refuse those when they are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern
from typing import NamedTuple


class GroupoidError(Exception):
    """Base for structural problems with an input (not axiom violations)."""


class MalformedStructure(GroupoidError):
    """A structure map is not total or references an undeclared identifier."""


class MalformedTable(MalformedStructure):
    """A group table is not total over its declared element set."""


class UnknownObject(GroupoidError):
    pass


class UnknownArrow(GroupoidError):
    pass


class EmptySet(GroupoidError):
    pass


class InvalidGroup(GroupoidError):
    pass


class InvalidInput(GroupoidError):
    pass


class NonCommutativeGroup(GroupoidError):
    """Raised with a witness pair when a commutative group is required."""

    def __init__(self, message: str, witness: tuple[str, str] | None = None):
        super().__init__(message)
        self.witness = witness


class NotComposable(GroupoidError):
    pass


class DomainMismatch(GroupoidError):
    pass


class NotSubset(GroupoidError):
    pass


class InternalCheckFailed(GroupoidError):
    """A consequence that must hold for every valid input failed.

    Either the input breaks a precondition it was claimed to satisfy, or this
    library has a bug; both deserve a loud stop rather than a quiet report.
    """


class Violation(NamedTuple):
    """One broken rule together with the identifiers that witness it."""

    rule: str
    witness: tuple[str, ...]
    message: str


class Note(NamedTuple):
    """A non-failure remark: a skipped or not-applicable check, or an info line."""

    rule: str
    status: str  # "skipped" | "not-applicable" | "info"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Deterministically ordered outcome of one validator run."""

    violations: tuple[Violation, ...] = ()
    notes: tuple[Note, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violations

    def by_rule(self, rule: str) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.rule == rule)

    def rules(self) -> tuple[str, ...]:
        """Distinct violated rules, in report (sorted) order."""
        return tuple(dict.fromkeys(v.rule for v in self.violations))

    def require(self, exc_type: type[GroupoidError], what: str) -> None:
        """Raise exc_type naming the first violation, if there is one."""
        if self.violations:
            first = self.violations[0]
            raise exc_type(f"{what}: {first.rule} at {','.join(first.witness)}")

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {"rule": r, "witness": list(w), "message": m}
                for r, w, m in self.violations
            ],
            "notes": [n._asdict() for n in self.notes],
        }


class ReportBuilder:
    """Accumulates violations and notes; ``build`` emits them sorted."""

    def __init__(self) -> None:
        self._violations: list[Violation] = []
        self._notes: list[Note] = []

    def violation(self, rule: str, witness, message: str) -> None:
        self._violations.append(Violation(rule, tuple(map(str, witness)), message))

    def note(self, rule: str, status: str, message: str) -> None:
        self._notes.append(Note(rule, status, message))

    def absorb(self, report: ValidationReport, prefix: str = "") -> None:
        """Add a report's own immutable entries, or copies renamed under ``prefix``."""
        violations, notes = report.violations, report.notes
        if prefix:  # a renamed rule is one shared string, not one per violation
            violations = [Violation(intern(prefix + r), w, m) for r, w, m in violations]
            notes = [Note(prefix + r, s, m) for r, s, m in notes]
        self._violations += violations
        self._notes += notes

    def build(self) -> ValidationReport:
        return ValidationReport(
            tuple(sorted(self._violations)), tuple(sorted(self._notes))
        )
