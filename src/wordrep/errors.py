"""Exception types shared across the package."""

from __future__ import annotations


class InputError(ValueError):
    """Caller handed us something malformed: bad vertex ids, a non-edge,
    an unmet precondition, an unparseable graph. CLI maps this to exit 2."""


class BudgetExceeded(RuntimeError):
    """A bounded search ran out of its node budget before reaching a
    conclusion. CLI maps this to exit 3."""


class InternalError(RuntimeError):
    """An internal invariant broke: a construction or search produced a
    result its own checks reject. CLI maps this to exit 4."""
