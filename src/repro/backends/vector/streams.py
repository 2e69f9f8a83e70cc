"""Precomputed per-branch history streams for the numpy scan kernel.

Trace-driven simulation updates the global history with *resolved*
outcomes, so its whole per-branch value stream is a pure function of the
trace prefix and can be computed up front: :func:`pack_stream` gives the
sliding window of the most recent bits packed into an integer, exactly
what :meth:`~repro.histories.global_history.GlobalHistoryRegister.value`
holds (one convolution per window width).

A :class:`StreamCache` memoises the streams per trace within one backend
call, so a fig9-style sweep shares one pass per distinct window width
however many configuration variants read it.
"""

from __future__ import annotations

import numpy as np

from repro.traces.trace import Trace

__all__ = [
    "StreamCache",
    "TraceStreams",
    "pack_stream",
    "plain_int",
]


def plain_int(value) -> int | None:
    """``value`` as an int, or None (bools are not ints here)."""
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


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


class TraceStreams:
    """A trace's columns plus memoised derived streams."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.outcomes = trace.taken.astype(np.int64)
        self._history_packs: dict[int, np.ndarray] = {}

    def history_pack(self, length: int) -> np.ndarray:
        """Packed global-history window of ``length`` outcome bits."""
        pack = self._history_packs.get(length)
        if pack is None:
            pack = self._history_packs[length] = pack_stream(self.outcomes, length)
        return pack


class StreamCache:
    """Per-call memo of :class:`TraceStreams`, keyed by trace identity."""

    def __init__(self) -> None:
        self._streams: dict[int, TraceStreams] = {}

    def for_trace(self, trace: Trace) -> TraceStreams:
        streams = self._streams.get(id(trace))
        if streams is None:
            streams = self._streams[id(trace)] = TraceStreams(trace)
        return streams
