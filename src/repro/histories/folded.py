"""Incrementally folded (compressed) branch histories.

A TAGE table indexed with a 640-bit history cannot XOR all 640 bits at
prediction time; instead the hardware maintains, per table, a small
"circular shift register" (CSR) that always equals the XOR-fold of the most
recent ``history_length`` bits down to ``compressed_length`` bits.  On every
new branch the CSR is updated in O(1) by inserting the incoming bit and
removing the outgoing one.  This module provides that structure; GEHL and
FTL keep one per table, and :class:`~repro.core.tage.TAGEPredictor` runs
the same update rule inline over plain int lists (an index fold and two
tag folds per table, as the released TAGE simulators do).
"""

from __future__ import annotations

from repro.common.bits import mask
from repro.histories.global_history import GlobalHistoryRegister

__all__ = ["FoldedHistory"]


class FoldedHistory:
    """A compressed history register tracking an XOR fold incrementally.

    Parameters
    ----------
    history_length:
        Number of global-history bits folded.
    compressed_length:
        Width of the fold in bits.

    The invariant maintained is that :attr:`value` always equals
    :meth:`recompute` applied to the source history — the property-based
    tests exercise exactly this equivalence.
    """

    def __init__(self, history_length: int, compressed_length: int) -> None:
        if history_length < 1:
            raise ValueError("history_length must be positive")
        if compressed_length < 1:
            raise ValueError("compressed_length must be positive")
        self.history_length = history_length
        self.compressed_length = compressed_length
        self.outpoint = history_length % compressed_length
        self.value = 0

    def update(self, inserted_bit: int, dropped_bit: int) -> None:
        """Rotate the fold: insert the newest history bit, remove the oldest.

        Parameters
        ----------
        inserted_bit:
            Direction (0/1) of the branch entering the history window.
        dropped_bit:
            Direction (0/1) of the branch leaving the window, i.e. the bit
            that was ``history_length`` branches ago *before* this update.
        """
        self.value = (self.value << 1) | (inserted_bit & 1)
        self.value ^= (dropped_bit & 1) << self.outpoint
        self.value ^= self.value >> self.compressed_length
        self.value &= mask(self.compressed_length)

    def recompute(self, history: GlobalHistoryRegister) -> int:
        """Recompute the fold from scratch from ``history`` (reference model).

        The incremental update is XOR-linear: a history bit of age ``i``
        (``i = 0`` is the most recent branch) has been rotated left ``i``
        times since it was inserted at position 0, so it contributes at bit
        position ``i mod compressed_length``.  Bits older than
        ``history_length`` have been cancelled out by the dropped-bit XOR.
        The incremental :meth:`update` must always agree with this direct
        computation; the property-based tests check the equivalence.
        """
        folded = 0
        window = min(self.history_length, len(history))
        for i in range(window):
            folded ^= history.bit(i) << (i % self.compressed_length)
        return folded

    def checkpoint(self) -> int:
        """Snapshot the fold value."""
        return self.value

    def restore(self, snapshot: int) -> None:
        """Restore a snapshot taken by :meth:`checkpoint`."""
        self.value = snapshot
