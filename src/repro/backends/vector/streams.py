"""Precomputed per-branch streams shared by the numpy kernels.

Trace-driven simulation updates every history structure with *resolved*
outcomes, so each one is a pure function of the trace prefix — its whole
per-branch value stream can be computed up front with array passes:

* **packed history windows** (:func:`pack_stream`): a sliding window of
  the most recent bits packed into an integer, exactly what
  :meth:`~repro.histories.global_history.GlobalHistoryRegister.value`
  holds.  One convolution per window width.
* **folded (CSR) histories** (:func:`folded_stream`): the incremental
  fold recurrence of :class:`~repro.histories.folded.FoldedHistory` is
  XOR-linear, so the fold before branch ``t`` is the XOR of the window's
  outcome bits, each at its age modulo ``clen``.  Parking each outcome
  at a bit fixed by its position makes that window a prefix-XOR
  difference and the fold one rotation of it: ``O(T)`` array work per
  (history length, compressed length) pair, independent of ``clen``.

A :class:`StreamCache` memoises the streams per trace within one backend
call, so a fig9-style sweep shares one fold pass per distinct (length,
width) pair however many configuration variants read it.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import mask
from repro.hardware.access_counter import AccessProfile
from repro.traces.trace import Trace

__all__ = [
    "StreamCache",
    "TraceStreams",
    "folded_stream",
    "make_profile",
    "pack_stream",
    "plain_int",
]


def plain_int(value) -> int | None:
    """``value`` as an int, or None (bools are not ints here)."""
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


def make_profile(
    measured: int,
    mispredictions: int,
    retire_reads: int,
    entry_reads: int,
    writes: int,
    write_accesses: int | None = None,
) -> AccessProfile:
    """An :class:`AccessProfile` over the measured region of one lane.

    ``writes`` is the effective entry-write count; single-table kernels
    leave ``write_accesses`` implied (one entry per branch, so they are
    equal), multi-table kernels pass the branch-level count separately.
    """
    return AccessProfile(
        branches=measured,
        mispredictions=mispredictions,
        fetch_reads=measured,
        retire_reads=retire_reads,
        entry_writes=writes,
        write_accesses=writes if write_accesses is None else write_accesses,
        entry_reads=entry_reads,
        allocations=0,
    )


def pack_stream(bits: np.ndarray, width: int) -> np.ndarray:
    """Packed sliding window of ``bits`` before each branch.

    ``out[t]`` holds ``bits[t-1 .. t-width]`` with the most recent in bit
    position 0 — the value a shift register fed one bit per branch shows
    when branch ``t`` predicts (missing early history reads as 0, like
    the zeroed power-on buffer).
    """
    total = bits.size
    values = np.zeros(total, dtype=np.int64)
    if width == 0 or total < 2:
        return values
    weights = np.int64(1) << np.arange(width, dtype=np.int64)
    # convolve[k] = sum_i bits[k-i] * 2**i, so out[t] = convolve[t-1].
    values[1:] = np.convolve(bits, weights)[: total - 1]
    return values


def folded_stream(outcomes: np.ndarray, history_length: int, compressed_length: int) -> np.ndarray:
    """The :class:`~repro.histories.folded.FoldedHistory` value before each branch.

    ``out[t]`` equals the CSR state after feeding ``outcomes[:t]`` through
    the incremental update — equivalently ``recompute`` over the last
    ``min(history_length, t)`` outcomes: outcome ``m`` sits at bit
    ``(t - 1 - m) mod clen``.  Parking every outcome at the fixed bit
    ``(-m) mod clen`` turns the window into a prefix-XOR difference, and
    rotating that left by ``(t - 1) mod clen`` moves each outcome to its
    bit — a constant number of array passes whatever the width.
    """
    total = outcomes.size
    out = np.zeros(total, dtype=np.int64)
    if total < 2:
        return out
    clen = compressed_length
    # Branch t = m + 1 sees outcomes (m - history_length, m].
    m = np.arange(total - 1, dtype=np.int64)
    prefix = np.bitwise_xor.accumulate(outcomes[:-1].astype(np.int64) << (-m % clen))
    before = m - history_length
    window = (prefix ^ np.where(before >= 0, prefix[np.maximum(before, 0)], 0)).astype(np.uint64)
    rotation = (m % clen).astype(np.uint64)
    rotated = (window << rotation) | (window >> (np.uint64(clen) - rotation))
    out[1:] = rotated & np.uint64(mask(clen))
    return out


class TraceStreams:
    """A trace's columns plus memoised derived streams."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.outcomes = trace.taken.astype(np.int64)
        self._history_packs: dict[int, np.ndarray] = {}
        self._folds: dict[tuple[int, int], np.ndarray] = {}

    def history_pack(self, length: int) -> np.ndarray:
        """Packed global-history window of ``length`` outcome bits."""
        pack = self._history_packs.get(length)
        if pack is None:
            pack = self._history_packs[length] = pack_stream(self.outcomes, length)
        return pack

    def fold(self, history_length: int, compressed_length: int) -> np.ndarray:
        """Folded-history stream for one (length, width) pair."""
        key = (history_length, compressed_length)
        fold = self._folds.get(key)
        if fold is None:
            fold = self._folds[key] = folded_stream(
                self.outcomes, history_length, compressed_length
            )
        return fold


class StreamCache:
    """Per-call memo of :class:`TraceStreams`, keyed by trace identity."""

    def __init__(self) -> None:
        self._streams: dict[int, TraceStreams] = {}

    def for_trace(self, trace: Trace) -> TraceStreams:
        streams = self._streams.get(id(trace))
        if streams is None:
            streams = self._streams[id(trace)] = TraceStreams(trace)
        return streams
