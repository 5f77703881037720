"""Shared exception types and the one enumeration budget of a run.

Every exhaustive routine calls ``charge`` with its steps when it does its
work (cached work is not charged again), against the limit of the innermost
``with budget(limit):`` block, or ``DEFAULT_BUDGET`` outside any."""

from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_BUDGET = 10**8
_LIMIT = ContextVar("budget", default=DEFAULT_BUDGET)


@contextmanager
def budget(limit: int):
    """Charge every step taken inside the block against ``limit``."""
    token = _LIMIT.set(limit)
    try:
        yield
    finally:
        _LIMIT.reset(token)


def charge(steps: int, what: str):
    """Refuse the ``steps`` of ``what`` past the current budget."""
    if steps > (limit := _LIMIT.get()):
        raise BudgetError(steps, limit, what)


class ParameterError(ValueError):
    """Invalid construction parameters (composite characteristic, bad N, ...)."""


class MixedFieldError(TypeError):
    """Operands or arguments belong to incompatible fields."""


class ZeroFormError(ValueError):
    """A quadratic form that is identically zero (rank 0) was supplied."""


class BudgetError(RuntimeError):
    """An exhaustive enumeration would exceed the run's budget."""

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        self.required = required
        self.budget = budget
        super().__init__(
            f"{what} needs {required} steps, exceeding the budget of {budget}"
        )


class ConfigError(ValueError):
    """Malformed experiment configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config field '{path}': {message}")
