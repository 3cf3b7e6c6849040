"""The one work budget below every layer: RACE_LAB_BUDGET, default 1e8."""

import os

DEFAULT_BUDGET = 100_000_000


class BudgetExceededError(ValueError):
    pass


def sieve_budget() -> int:
    env = os.environ.get("RACE_LAB_BUDGET")
    return int(float(env)) if env else DEFAULT_BUDGET


def check_budget(amount: float, what: str) -> None:
    """Refuse `what`, of size amount, when amount passes the budget."""
    budget = sieve_budget()
    if amount > budget:
        raise BudgetExceededError(
            f"{what} exceeds budget {budget} (RACE_LAB_BUDGET)")
