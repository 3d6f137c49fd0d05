"""Exception types shared across the package."""

from __future__ import annotations

import time
from typing import Optional


class BinwordsError(Exception):
    """Base class for package-specific errors."""


class InvalidInputError(BinwordsError, ValueError):
    """A word, letter, alphabet, or parameter lies outside its documented domain."""


class UnsupportedOrderError(InvalidInputError):
    """Requested signature order exceeds words.MAX_ORDER, the package's fixed cap."""


class MorphismParseError(InvalidInputError):
    """Morphism rule string is malformed."""


class NotProlongableError(InvalidInputError):
    """Fixed-point generation was requested for a letter the morphism cannot be iterated on."""


class NotPrefixCodeError(InvalidInputError):
    """Decoding requires the image set to be a prefix code."""


class BudgetExceededError(BinwordsError):
    """A configured node or wall-clock budget ran out."""


class Budget:
    """The wall-clock and work-unit budget of one scan, search or check.

    units counts the work done so far.  A unit cap aborts at exactly the
    same point on every run; the clock is read about once per
    _CLOCK_STRIDE units, so a deadline overrun is bounded by that much work.
    """

    __slots__ = ("label", "units", "_max_units", "_deadline", "_next_read")
    _CLOCK_STRIDE = 1024  # work units between two reads of the clock

    def __init__(
        self, label: str, budget_ms: Optional[int] = None, max_units: Optional[int] = None
    ) -> None:
        if any(v is not None and type(v) is not int for v in (budget_ms, max_units)):
            raise InvalidInputError(f"{label} budgets take ints, not {budget_ms!r}, {max_units!r}")
        if budget_ms is not None and budget_ms <= 0:
            raise BudgetExceededError(f"budget of {budget_ms} ms leaves no time to {label}")
        self.label = label
        self.units = 0
        self._max_units = max_units
        self._deadline = 0.0 if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self._next_read = float("inf") if budget_ms is None else self._CLOCK_STRIDE

    def fits(self, units: int) -> bool:
        """Whether units more stay within the unit cap; the clock is not read."""
        return self._max_units is None or self.units + units <= self._max_units

    def tick(self, units: int = 1) -> None:
        """Count units of work; raise BudgetExceededError if they do not fit."""
        if self._max_units is not None and self.units + units > self._max_units:
            raise BudgetExceededError(
                f"{self.label} ran out of its {self._max_units}-unit budget"
            )
        self.units += units
        if self.units >= self._next_read:
            self._next_read = self.units + self._CLOCK_STRIDE
            if time.monotonic() > self._deadline:
                raise BudgetExceededError(f"{self.label} wall-clock budget exhausted")
