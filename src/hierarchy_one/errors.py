"""Shared exception types and resource budgets."""

from __future__ import annotations

import os

DEFAULT_STATE_BUDGET = 1 << 16
DEFAULT_ELEMENT_BUDGET = 20000
DEFAULT_GROUP_NODE_BUDGET = 2_000_000
BUDGET_ENV_VAR = "HIERARCHY_ONE_BUDGET"


class BudgetError(RuntimeError):
    """A construction exceeded its state/element/node budget."""


class PatternError(ValueError):
    """Pattern text could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AlphabetError(ValueError):
    """Operands disagree on, or stray outside, the declared alphabet."""


class UsageError(ValueError):
    """A request combines options that the decision procedures do not support."""


def positive_budget(value: int | None, source: str) -> int | None:
    """`value` if it is None or a usable budget; UsageError naming `source` if not."""
    if value is not None and value <= 0:
        raise UsageError(f"{source} must be positive, got {value}")
    return value


def budget_from_env(default: int) -> int:
    """Resolve a budget: HIERARCHY_ONE_BUDGET overrides `default` when set."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    return positive_budget(value, BUDGET_ENV_VAR)
