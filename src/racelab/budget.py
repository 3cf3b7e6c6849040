"""What every layer shares: the one work budget, RACE_LAB_BUDGET (default
1e8), and the base of the slotted record classes."""

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


class Record:
    """A slotted record: equal to a record of its own class whose `_fields`
    are equal, unhashable, and shown as Name(field=value, ...)."""

    __slots__ = ()
    _fields: tuple = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"


class FrozenRecord(Record):
    """A Record whose slots are set once, by `_init`, and never assigned:
    hashed as the tuple of its `_fields`."""

    __slots__ = ()

    def _init(self, *values) -> None:
        set_slot = object.__setattr__
        for name, value in zip(self.__slots__, values):
            set_slot(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._key())

    def __setstate__(self, state) -> None:  # for pickle and copy
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
