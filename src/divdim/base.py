"""Shared error types and check results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# Attached to every numeric output that evaluates an asymptotic formula.
O1_DROPPED_NOTE = "asymptotic formula, o(1) dropped"


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


class PreconditionError(DomainError):
    """A hypothesis required by a construction does not hold."""


class ResourceLimitError(RuntimeError):
    """A work or memory guard would be exceeded; nothing was partially built."""


class RetryBudgetError(RuntimeError):
    """A randomized construction failed verification on every retry."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decidable check, with a witness when it fails.

    Truthiness follows ``ok`` so verdicts can be asserted directly.
    ``note`` distinguishes exhaustive results from sampled ones.
    """

    ok: bool
    witness: Any = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.ok
