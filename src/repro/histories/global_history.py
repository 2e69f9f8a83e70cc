"""Speculative global branch history and path history.

The global history register records the directions of the most recent
conditional branches.  It is updated *speculatively* at prediction time and
must be repaired when a misprediction is discovered.  The paper (Section
5.1) notes that repair is straightforward when the history is held in a
circular buffer with a head pointer: restoring the head pointer and
re-writing the mispredicted bit is enough.  This module implements exactly
that structure, together with the short "path history" of low-order PC bits
that TAGE mixes into its index functions.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["GlobalHistoryRegister", "PathHistory"]


class GlobalHistoryRegister:
    """Circular-buffer global direction history with checkpoint/repair.

    Parameters
    ----------
    capacity:
        Number of history bits retained.  Must be at least as large as the
        longest history length any predictor component observes; the
        reference TAGE predictor uses up to 2000 bits so the default is
        sized with margin.

    Notes
    -----
    ``bit(i)`` returns the direction of the ``i``-th most recent branch
    (``i = 0`` is the most recent).  ``checkpoint()`` / ``restore()`` allow
    the pipeline model to repair the speculative history on a
    misprediction, mimicking the hardware head-pointer repair.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("history capacity must be positive")
        self.capacity = capacity
        self._buffer = bytearray(capacity)
        self._head = 0  # position of the most recent bit
        self._count = 0  # number of bits pushed so far (saturates at capacity)

    def push(self, taken: bool) -> None:
        """Speculatively append one branch outcome (most recent first)."""
        self._head = (self._head + 1) % self.capacity
        self._buffer[self._head] = 1 if taken else 0
        if self._count < self.capacity:
            self._count += 1

    def bit(self, index: int) -> int:
        """Return the direction of the ``index``-th most recent branch (0 or 1)."""
        if index < 0:
            raise IndexError("history index must be non-negative")
        if index >= self.capacity:
            raise IndexError(f"history index {index} exceeds capacity {self.capacity}")
        return self._buffer[(self._head - index) % self.capacity]

    def bits(self, ages: Iterable[int]) -> list[int]:
        """Directions of the branches ``ages`` back (0 = most recent), in order.

        Every age must be below :attr:`capacity`; ages beyond the recorded
        history read as 0, like :meth:`bit` on an empty register.
        """
        buffer, head, count = self._buffer, self._head, self._count
        # ``head - age`` is at least ``-capacity``: a negative position
        # wraps around the circular buffer by itself.
        return [buffer[head - age] if age < count else 0 for age in ages]

    def value(self, length: int) -> int:
        """Pack the ``length`` most recent history bits into an integer.

        Bit 0 of the result is the most recent branch direction.  This is a
        convenience for predictors (gshare, GEHL) that hash a bounded
        history window; TAGE uses the incrementally folded histories in
        :mod:`repro.histories.folded` instead.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        length = min(length, self.capacity)
        packed = 0
        for i in range(length):
            packed |= self.bit(i) << i
        return packed

    def checkpoint(self) -> tuple[int, int]:
        """Snapshot the history state (head pointer and fill count)."""
        return self._head, self._count

    def restore(self, snapshot: tuple[int, int], corrected_outcome: bool | None = None) -> None:
        """Restore a snapshot taken *before* the mispredicted branch was pushed.

        Parameters
        ----------
        snapshot:
            The value returned by :meth:`checkpoint`.
        corrected_outcome:
            When given, the mispredicted branch is re-pushed with its
            corrected direction, exactly as the hardware repair described
            in Section 5.1 does.
        """
        self._head, self._count = snapshot
        if corrected_outcome is not None:
            self.push(corrected_outcome)

    def __len__(self) -> int:
        return self._count


class PathHistory:
    """Short path history made of low-order PC bits of recent branches.

    TAGE mixes a few path-history bits into its index functions to
    disambiguate branches that share the same direction history.  Published
    TAGE code keeps 16 to 32 bits of path history built from one low-order
    address bit per branch; we follow that convention.
    """

    def __init__(self, width: int = 32, bits_per_branch: int = 1) -> None:
        if width < 1:
            raise ValueError("path history width must be positive")
        if bits_per_branch < 1 or bits_per_branch > width:
            raise ValueError("bits_per_branch must be in [1, width]")
        self.width = width
        self.bits_per_branch = bits_per_branch
        self._value = 0

    @property
    def value(self) -> int:
        """Current packed path history."""
        return self._value

    def push(self, pc: int) -> None:
        """Shift in ``bits_per_branch`` low-order bits of ``pc``."""
        low = pc & ((1 << self.bits_per_branch) - 1)
        self._value = ((self._value << self.bits_per_branch) | low) & ((1 << self.width) - 1)

    def checkpoint(self) -> int:
        """Snapshot the packed path history."""
        return self._value

    def restore(self, snapshot: int) -> None:
        """Restore a snapshot taken by :meth:`checkpoint`."""
        self._value = snapshot
