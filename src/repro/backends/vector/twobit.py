"""Kernels for the single-table 2-bit-counter families (bimodal, gshare).

Two kernels cover the four update scenarios:

**Immediate-update scan kernel** (scenario [I]).  Under the oracle a
branch's update lands before the next branch predicts, so per table entry
the counter evolves through a chain of saturating ±1 steps.  The kernel
sorts branches by table index (stable, so time order survives within each
group) and runs a *segmented prefix composition* over the per-branch
4-state transition maps — a Hillis–Steele scan, ``log2(T)`` vectorised
passes — which yields every branch's pre-update counter without a Python
loop.  gshare's index stream is itself precomputable: trace-driven
simulation pushes resolved directions, so the global history at branch
``t`` is a function of the outcome bits alone
(:meth:`~repro.backends.vector.streams.TraceStreams.history_pack`).

**Delayed lockstep kernel** (scenarios [A]/[B]/[C]).  Retire-time updates
interleave with younger fetches, so the time loop stays — but it runs
*once for the whole group*: N lanes — (configuration, trace) pairs, so a
fig9-style config sweep and a fig10-style multi-trace batch ride the same
kernel — advance in lockstep, each step doing the fetch read, the
in-flight bookkeeping and the retire-time update as length-N array
operations over one flat concatenated table.  Traces of different lengths
are padded to the longest lane and masked: inactive lanes neither touch
their tables nor overwrite the ring-buffer slots their own drain still
needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.vector.streams import TraceStreams, make_profile, plain_int
from repro.hardware.access_counter import AccessProfile
from repro.pipeline.config import PipelineConfig
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec

__all__ = ["TableKernel", "TwobitLane", "index_stream", "kernel_for", "run_delayed_lanes", "run_immediate"]

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
        return 0, make_profile(0, 0, 0, 0, 0)
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
    return mispredictions, make_profile(
        measured,
        mispredictions,
        retire_reads=0,  # the oracle charges no retire-time read access...
        entry_reads=measured,  # ...but its update does re-read the entry
        writes=int(wrote[warmup:].sum()),
    )


@dataclass(frozen=True)
class TwobitLane:
    """One (configuration, trace) pair advancing through the lockstep loop."""

    kernel: TableKernel
    idx: np.ndarray  # per-branch table index, local to this lane's table
    taken: np.ndarray
    warmup: int


def run_delayed_lanes(
    lanes: list[TwobitLane], scenario: UpdateScenario, config: PipelineConfig
) -> list[tuple[int, AccessProfile]]:
    """Scenarios [A]/[B]/[C]: one time loop advancing all lanes in lockstep.

    Per lane the engine's fetch→retire interleaving is reproduced exactly:
    branch ``t`` retires right after branch ``t + retire_delay`` fetches,
    the in-flight window drains at end-of-trace, and the retire-time read
    policy follows the scenario (for [C] per lane, since mispredictions
    differ across variants).  Lanes shorter than the longest trace fall
    idle under the ``active`` mask and drain from ring slots their later
    (masked-out) steps never clobbered.
    """
    count = len(lanes)
    lengths = np.array([lane.taken.size for lane in lanes], dtype=np.int64)
    longest = int(lengths.max()) if count else 0
    shortest = int(lengths.min()) if count else 0
    warmups = np.array([lane.warmup for lane in lanes], dtype=np.int64)
    max_warmup = int(warmups.max()) if count else 0
    offsets = np.cumsum([0] + [lane.kernel.entries for lane in lanes])[:-1]
    tables = np.concatenate(
        [np.full(lane.kernel.entries, _INIT, dtype=np.int8) for lane in lanes]
    )
    idx2d = np.empty((count, longest), dtype=np.int64)
    taken2d = np.zeros((count, longest), dtype=np.bool_)
    for n, lane in enumerate(lanes):
        size = lane.taken.size
        idx2d[n, :size] = lane.idx + offsets[n]
        idx2d[n, size:] = offsets[n]  # valid but masked-out padding
        taken2d[n, :size] = lane.taken
    # ±1 update direction per (lane, branch): one add+clip instead of
    # branching on the outcome inside the hot loop.
    steps2d = np.where(taken2d, 1, -1).astype(np.int8)

    retire_delay = config.retire_delay
    reread_always = scenario is UpdateScenario.REREAD_AT_RETIRE
    reread_never = scenario is UpdateScenario.FETCH_READ_ONLY

    # Ring buffers over the in-flight window: the fetch-time counter
    # snapshot and misprediction flag of the last `retire_delay` branches.
    ring = retire_delay + 1
    snapshots = np.zeros((ring, count), dtype=np.int8)
    mispredicted_ring = np.zeros((ring, count), dtype=np.bool_)
    lane_ids = np.arange(count)

    mispredictions = np.zeros(count, dtype=np.int64)
    retire_reads = np.zeros(count, dtype=np.int64)
    entry_reads = np.zeros(count, dtype=np.int64)
    writes = np.zeros(count, dtype=np.int64)

    def retire_uniform(branch: int) -> None:
        """Retire step while every lane is still live: scalar indices only."""
        nonlocal retire_reads, entry_reads, writes
        columns = idx2d[:, branch]
        current = tables[columns]
        slot = branch % ring
        if reread_always:
            used = current
        elif reread_never:
            used = snapshots[slot]
        else:
            used = np.where(mispredicted_ring[slot], current, snapshots[slot])
        updated = np.clip(used + steps2d[:, branch], 0, 3)
        wrote = updated != current
        tables[columns] = updated
        if branch >= max_warmup:
            if reread_always:
                retire_reads += 1
                entry_reads += 1
            elif not reread_never:
                reread = mispredicted_ring[slot]
                retire_reads += reread
                entry_reads += reread
            writes += wrote
        else:
            measured = branch >= warmups
            if reread_always:
                retire_reads += measured
                entry_reads += measured
            elif not reread_never:
                reread = mispredicted_ring[slot] & measured
                retire_reads += reread
                entry_reads += reread
            writes += wrote & measured

    def retire(branches: np.ndarray, live: np.ndarray) -> None:
        """Retire step with idle lanes: per-lane branch indices, masked."""
        nonlocal retire_reads, entry_reads, writes
        anchored = np.maximum(branches, 0)
        columns = idx2d[lane_ids, anchored]
        current = tables[columns]
        slots = anchored % ring
        mispredicted = mispredicted_ring[slots, lane_ids]
        if reread_always:
            used = current
        elif reread_never:
            used = snapshots[slots, lane_ids]
        else:
            used = np.where(mispredicted, current, snapshots[slots, lane_ids])
        updated = np.clip(used + steps2d[lane_ids, anchored], 0, 3)
        wrote = updated != current
        tables[columns[live]] = updated[live]
        measured = live & (branches >= warmups)
        if reread_always:
            retire_reads += measured
            entry_reads += measured
        elif not reread_never:
            reread = mispredicted & measured
            retire_reads += reread
            entry_reads += reread
        writes += wrote & measured

    for t in range(longest):
        slot = t % ring
        if t < shortest:
            current = tables[idx2d[:, t]]
            snapshots[slot] = current
            mispredicted = (current >= 2) != taken2d[:, t]
            mispredicted_ring[slot] = mispredicted
            if t >= max_warmup:
                mispredictions += mispredicted
            else:
                mispredictions += mispredicted & (t >= warmups)
        else:
            active = t < lengths
            current = tables[idx2d[:, t]]
            np.copyto(snapshots[slot], current, where=active)
            mispredicted = (current >= 2) != taken2d[:, t]
            np.copyto(mispredicted_ring[slot], mispredicted, where=active)
            mispredictions += mispredicted & active & (t >= warmups)
        behind = t - retire_delay
        if 0 <= behind < shortest:
            retire_uniform(behind)
        elif behind >= 0:
            retire(np.full(count, behind, dtype=np.int64), behind < lengths)
    drained_up_to = longest - retire_delay
    for d in range(retire_delay):
        branches = lengths - retire_delay + d
        live = (branches >= 0) & (branches >= drained_up_to)
        if live.any():
            retire(branches, live)

    return [
        (
            int(mispredictions[n]),
            make_profile(
                int(lengths[n] - warmups[n]),
                int(mispredictions[n]),
                retire_reads=int(retire_reads[n]),
                entry_reads=int(entry_reads[n]),
                writes=int(writes[n]),
            ),
        )
        for n in range(count)
    ]
