"""The immediate-update scan kernel for the two-bit table families (bimodal, gshare).

Under the oracle of scenario [I] a branch's update lands before the next
branch predicts, so per table entry the counter evolves through a chain
of saturating ±1 steps.  The kernel sorts branches by table index
(stable, so time order survives within each group) and runs a
*segmented prefix composition* over the per-branch transition maps.
INC and DEC compose into just 17 maps on the 4 counter states, so each
position holds one uint8 code and two maps compose through a 17×17
table lookup.  The scan doubles its offset each pass (Hillis–Steele) but
works only on active positions: a position retires once its composed
range reaches its segment start, or once its map is one of the 4
constant maps (composing anything earlier into a constant map leaves it
unchanged).  Each retired code is the whole prefix, so it yields the
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
_INC = (1, 2, 3, 3)
_DEC = (0, 0, 1, 2)

#: Power-on counter state shared by both families: weakly taken.
_INIT = 2


def _compose(later: tuple[int, ...], earlier: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(later[state] for state in earlier)


def _transition_maps() -> list[tuple[int, ...]]:
    """The 17 maps on the 4 counter states that INC and DEC compose into."""
    maps = [_INC, _DEC]
    for earlier in maps:  # grows while it is walked: a closure by BFS
        for later in (_INC, _DEC):
            if _compose(later, earlier) not in maps:
                maps.append(_compose(later, earlier))
    return maps


_MAPS = _transition_maps()
#: ``_COMPOSE[later, earlier]`` is the code of ``later ∘ earlier``.
_COMPOSE = np.array(
    [[_MAPS.index(_compose(later, earlier)) for earlier in _MAPS] for later in _MAPS],
    dtype=np.uint8,
)
#: Constant maps absorb everything composed before them.
_CONSTANT = np.array([len(set(m)) == 1 for m in _MAPS])
#: Counter state each map sends the power-on state to.
_FROM_INIT = np.array([m[_INIT] for m in _MAPS], dtype=np.uint8)
_INC_CODE, _DEC_CODE = 0, 1


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


def _segments(idx: np.ndarray) -> tuple[np.ndarray, ...]:
    """Branches stably sorted by table index, split into per-index segments.

    Returns ``order`` (sorted position -> time position), the
    segment-start mask, and the sorted positions that have earlier
    transitions in their segment (``active``), with how many (``reach``).
    """
    total = idx.size
    # One plain sort of (index, position) keys: an order of magnitude
    # faster than numpy's stable argsort.
    shift = total.bit_length()
    positions = np.arange(total)
    keys = idx.astype(np.int64, copy=False) << shift
    keys |= positions
    keys.sort()
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    segment_start = np.empty(total, dtype=np.bool_)
    segment_start[0] = True
    np.not_equal(keys[1:], keys[:-1], out=segment_start[1:])
    start = np.where(segment_start, positions, 0)
    np.maximum.accumulate(start, out=start)
    active = positions[~segment_start]
    return order, segment_start, active, active - start[active]


def run_immediate(
    kernel: TableKernel, idx: np.ndarray, taken: np.ndarray, warmup: int
) -> tuple[int, AccessProfile]:
    """Scenario [I] for one kernel: the segmented prefix-composition scan.

    ``idx`` holds each branch's table index, ``0 <= idx < kernel.entries``.
    Returns (mispredictions, access profile) over the measured region.
    """
    total = idx.size
    if total == 0:
        return 0, AccessProfile()
    order, segment_start, active, reach = _segments(idx)

    # comp[j] is the code of the map composing this segment's transitions
    # over a range ending at j.  Before the pass at ``offset`` an active
    # position's range is its last ``offset`` transitions; a position
    # retires once the range reaches its segment start or the map goes
    # constant, either way holding its whole prefix from then on.
    comp = np.where(taken[order], np.uint8(_INC_CODE), np.uint8(_DEC_CODE))
    offset = 1
    while active.size:
        merged = _COMPOSE[comp[active], comp[active - offset]]
        comp[active] = merged
        offset <<= 1
        keep = (reach >= offset) & ~_CONSTANT[merged]
        active = active[keep]
        reach = reach[keep]

    before_sorted = np.full(total, _INIT, dtype=np.uint8)
    carried = ~segment_start[1:]
    before_sorted[1:][carried] = _FROM_INIT[comp[:-1][carried]]
    before = np.empty(total, dtype=np.uint8)
    before[order] = before_sorted

    mispredicted = (before >= 2) != taken
    # A write is silent only when the counter is already saturated that way.
    wrote = np.where(taken, before != 3, before != 0)
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
