"""The immediate-update scan kernel for the two-bit table families (bimodal, gshare).

Under the oracle of scenario [I] a branch's update lands before the next
branch predicts, so per table entry the counter evolves through a chain
of saturating ±1 steps.  The kernel sorts branches by table index
(stable, so time order survives within each group) and runs a *segmented
prefix composition* over the per-branch 4-state transition maps — a
Hillis–Steele scan, ``log2(T)`` vectorised passes — which yields every
branch's pre-update counter without a Python loop.  gshare's index stream
is itself precomputable: trace-driven simulation pushes resolved
directions, so the global history at branch ``t`` is a function of the
outcome bits alone
(:meth:`~repro.backends.vector.streams.TraceStreams.history_pack`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.vector.streams import TraceStreams, plain_int
from repro.hardware.access_counter import AccessProfile
from repro.predictors.registry import PredictorSpec

__all__ = ["TableKernel", "index_stream", "kernel_for", "run_immediate"]

#: Saturating 2-bit counter transitions: state → state after taken / not-taken.
_INC = np.array([1, 2, 3, 3], dtype=np.uint8)
_DEC = np.array([0, 0, 1, 2], dtype=np.uint8)

#: Power-on counter state shared by both families: weakly taken.
_INIT = 2


@dataclass(frozen=True)
class TableKernel:
    """One supported configuration: a single 2-bit counter table.

    ``history_length == 0`` means PC-indexed (bimodal); otherwise the
    index XORs in that many packed global-history bits (gshare).
    """

    name: str
    entries: int
    history_length: int


def kernel_for(spec: PredictorSpec) -> TableKernel | None:
    """The table kernel for ``spec``, or None when the config needs interp.

    Deliberately conservative: any unknown key, non-integer value or
    out-of-range parameter returns None, so malformed specs fail in the
    interpreter's factory with today's error messages instead of inside a
    kernel.
    """
    config = spec.config
    if spec.kind == "bimodal":
        if not set(config) <= {"entries", "hysteresis_sharing"}:
            return None
        entries = plain_int(config.get("entries", 4096))
        if entries is None or entries <= 0 or entries & (entries - 1):
            return None
        if config.get("hysteresis_sharing", 1) != 1:
            return None  # shared hysteresis couples neighbouring entries
        return TableKernel(name=f"bimodal-{entries}", entries=entries, history_length=0)
    if spec.kind == "gshare":
        if not set(config) <= {"log2_entries", "history_length"}:
            return None
        log2_entries = plain_int(config.get("log2_entries", 18))
        if log2_entries is None or not 2 <= log2_entries <= 26:
            return None
        history = config.get("history_length")
        history = log2_entries if history is None else plain_int(history)
        if history is None or not 0 <= history <= log2_entries:
            return None
        entries = 1 << log2_entries
        return TableKernel(
            name=f"gshare-{entries * 2 // 1024}Kbits", entries=entries, history_length=history
        )
    return None


def index_stream(kernel: TableKernel, streams: TraceStreams) -> np.ndarray:
    """The table index stream for one kernel (history packs memoised per trace)."""
    base = streams.trace.pcs >> 2
    if kernel.history_length:
        base = base ^ streams.history_pack(kernel.history_length)
    return base & (kernel.entries - 1)


def run_immediate(
    kernel: TableKernel, idx: np.ndarray, taken: np.ndarray, warmup: int
) -> tuple[int, AccessProfile]:
    """Scenario [I] for one kernel: the segmented prefix-composition scan.

    Returns (mispredictions, access profile) over the measured region.
    """
    total = idx.size
    if total == 0:
        return 0, AccessProfile()
    order = np.argsort(idx, kind="stable")
    sorted_taken = taken[order]
    segment_start = np.empty(total, dtype=np.bool_)
    segment_start[0] = True
    sorted_idx = idx[order]
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=segment_start[1:])
    segment = np.cumsum(segment_start)

    # comp[j] is the 4-state map composing this segment's transitions up
    # to (and including) j; doubling offsets keep composed ranges
    # contiguous, the segment-id guard clamps them at group boundaries.
    comp = np.where(sorted_taken[:, None], _INC[None, :], _DEC[None, :])
    offset = 1
    while offset < total:
        joinable = segment[offset:] == segment[:-offset]
        merged = np.take_along_axis(comp[offset:], comp[:-offset], axis=1)
        comp[offset:][joinable] = merged[joinable]
        offset <<= 1

    after = comp[:, _INIT]
    before_sorted = np.empty(total, dtype=np.uint8)
    before_sorted[0] = _INIT
    np.copyto(
        before_sorted[1:],
        np.where(segment_start[1:], np.uint8(_INIT), after[:-1]),
    )
    before = np.empty(total, dtype=np.uint8)
    before[order] = before_sorted

    mispredicted = (before >= 2) != taken
    updated = np.where(taken, _INC[before], _DEC[before])
    wrote = updated != before
    measured = total - warmup
    mispredictions = int(mispredicted[warmup:].sum())
    writes = int(wrote[warmup:].sum())
    return mispredictions, AccessProfile(
        branches=measured,
        mispredictions=mispredictions,
        fetch_reads=measured,
        retire_reads=0,  # the oracle charges no retire-time read access...
        entry_writes=writes,
        write_accesses=writes,  # (one entry per branch)
        entry_reads=measured,  # ...but its update does re-read the entry
    )
