"""Saturating counters and counter tables.

Almost every structure in a branch predictor is a small saturating counter:
2-bit bimodal counters, 3-bit TAGE prediction counters, 6-bit GEHL weights,
the 4-bit ``USE_ALT_ON_NA`` counter, the 8-bit allocation-throttle counter…
This module provides a scalar :class:`SaturatingCounter` for the singleton
counters, a list-backed table for the large arrays (a plain list of
ints reads and writes faster per entry than a numpy array, which is what
the per-branch predictor loops do), and the O-GEHL threshold fitter the
neural predictors and the statistical corrector share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "clamp",
    "saturating_update",
    "SaturatingCounter",
    "SignedCounterTable",
    "adapt_threshold",
]


def clamp(value: int, lo: int, hi: int) -> int:
    """Clamp ``value`` into the inclusive range ``[lo, hi]``.

    >>> clamp(9, 0, 7)
    7
    """
    if lo > hi:
        raise ValueError(f"invalid clamp range [{lo}, {hi}]")
    return max(lo, min(hi, value))


def saturating_update(value: int, taken: bool, lo: int, hi: int) -> int:
    """Increment ``value`` when ``taken`` else decrement, saturating at the bounds.

    This is the canonical update of every prediction counter in the paper.

    >>> saturating_update(3, True, -4, 3)
    3
    >>> saturating_update(-4, False, -4, 3)
    -4
    """
    return clamp(value + (1 if taken else -1), lo, hi)


@dataclass
class SaturatingCounter:
    """A single saturating up/down counter.

    Parameters
    ----------
    bits:
        Counter width in bits.
    signed:
        When true the range is ``[-2**(bits-1), 2**(bits-1) - 1]`` and the
        *sign* carries the prediction (negative means not-taken).  When
        false the range is ``[0, 2**bits - 1]`` and the *MSB* carries the
        prediction.
    value:
        Initial value; defaults to the weakest not-taken state (0 for
        unsigned counters, -1 for signed counters).
    """

    bits: int
    signed: bool = True
    value: int = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("counter needs at least one bit")
        if self.signed:
            self.lo = -(1 << (self.bits - 1))
            self.hi = (1 << (self.bits - 1)) - 1
        else:
            self.lo = 0
            self.hi = (1 << self.bits) - 1
        if self.value is None:
            self.value = -1 if self.signed else 0
        self.value = clamp(self.value, self.lo, self.hi)

    @property
    def taken(self) -> bool:
        """Prediction carried by the counter (sign or MSB)."""
        if self.signed:
            return self.value >= 0
        return self.value >= (1 << (self.bits - 1))

    @property
    def is_weak(self) -> bool:
        """True when the counter sits in one of its two central states."""
        if self.signed:
            return self.value in (-1, 0)
        mid = 1 << (self.bits - 1)
        return self.value in (mid - 1, mid)

    def update(self, taken: bool) -> bool:
        """Push the counter toward ``taken``; return True if the value changed."""
        new = saturating_update(self.value, taken, self.lo, self.hi)
        changed = new != self.value
        self.value = new
        return changed

    def increment(self) -> bool:
        """Increment with saturation; return True if the value changed."""
        return self.update(True)

    def decrement(self) -> bool:
        """Decrement with saturation; return True if the value changed."""
        return self.update(False)

    def set(self, value: int) -> None:
        """Force the counter to ``value`` (clamped to the legal range)."""
        self.value = clamp(value, self.lo, self.hi)

    def centered(self) -> int:
        """Return ``2 * value + 1``, the "centered" value used by GEHL-style adders."""
        return 2 * self.value + 1


def adapt_threshold(counter: SaturatingCounter, threshold: int, up: bool) -> int:
    """O-GEHL dynamic threshold fitting; returns the new threshold.

    ``counter`` (7 bits, signed) steps up on ``up`` and down otherwise; the
    threshold moves one step the same way (never below 1) only when the
    counter saturates, which then restarts at 0 — a low-pass filter on the
    adaptation.  Mirrors ``adapt_threshold`` in ``backends/native/kernel.c``.
    """
    counter.update(up)
    if counter.value != (counter.hi if up else counter.lo):
        return threshold
    counter.set(0)
    return threshold + 1 if up else max(1, threshold - 1)


class SignedCounterTable:
    """A table of signed saturating counters backed by a list.

    Used for GEHL/SC weight tables and TAGE prediction counters.  Counters
    of width ``bits`` range over ``[-2**(bits-1), 2**(bits-1) - 1]``.
    """

    def __init__(self, entries: int, bits: int, initial: int = 0) -> None:
        if entries <= 0:
            raise ValueError("table needs a positive number of entries")
        if bits < 1:
            raise ValueError("counter needs at least one bit")
        self.entries = entries
        self.bits = bits
        self.lo = -(1 << (bits - 1))
        self.hi = (1 << (bits - 1)) - 1
        self._values = [clamp(initial, self.lo, self.hi)] * entries

    def __len__(self) -> int:
        return self.entries

    def __getitem__(self, index: int) -> int:
        return self._values[index]

    def __setitem__(self, index: int, value: int) -> None:
        self._values[index] = clamp(int(value), self.lo, self.hi)

    def update(self, index: int, taken: bool) -> bool:
        """Saturating update of one entry; returns True when the entry changed."""
        old = self._values[index]
        new = min(old + 1, self.hi) if taken else max(old - 1, self.lo)
        self._values[index] = new
        return new != old

    def taken(self, index: int) -> bool:
        """Prediction of one entry (sign bit)."""
        return self._values[index] >= 0

    def centered(self, index: int) -> int:
        """Centered value ``2 * ctr + 1`` of one entry."""
        return 2 * self._values[index] + 1

    def is_weak(self, index: int) -> bool:
        """True when the entry sits in one of the two central states."""
        return self._values[index] in (-1, 0)

    @property
    def storage_bits(self) -> int:
        """Total number of storage bits held by the table."""
        return self.entries * self.bits
