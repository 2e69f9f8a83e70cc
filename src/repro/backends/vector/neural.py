"""Lockstep kernels for the neural predictor families (perceptron, GEHL).

Neural prediction is a dot product over weight tables — per step a pure
array operation — but the threshold-gated update writes back into the
same tables, so the time loop stays.  Like the two-bit delayed kernel the
loop runs *once for all lanes*: N (configuration, trace) pairs advance in
lockstep, each step doing the fetch-time dot product, the in-flight
bookkeeping and the retire-time training as array operations.  Traces of
different lengths are padded to the longest lane and masked.

Two facts make the fetch side fully precomputable:

* the global history a neural predictor dots against is the resolved
  outcome stream, so the per-branch ±1 sign matrix is a gather over the
  trace's outcome column (perceptron), and
* GEHL's folded-history table indices are XOR-linear in the outcome
  bits, so every table's index stream comes out of
  :func:`~repro.backends.vector.streams.folded_stream` before the loop
  starts.

The update reproduces the interpreter bit for bit: the threshold gate
(``<=`` for perceptron, strict ``<`` for GEHL), training from current
weights (perceptron) vs the scenario's reread-or-snapshot counter choice
(GEHL), per-entry silent-write elimination, and O-GEHL's saturating
threshold-counter adaptation — including on warmup branches, which train
state but are never accounted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.vector.streams import TraceStreams, make_profile, plain_int
from repro.common.bits import mask
from repro.hardware.access_counter import AccessProfile
from repro.pipeline.config import PipelineConfig
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.gehl import GEHLConfig
from repro.predictors.registry import PredictorSpec

__all__ = [
    "GEHLKernel",
    "GEHLLane",
    "PerceptronKernel",
    "PerceptronLane",
    "gehl_kernel_for",
    "perceptron_kernel_for",
    "run_gehl_lanes",
    "run_perceptron_lanes",
]

#: Feasibility cap on per-lane weight/counter storage (entries per lane).
_MAX_LANE_ENTRIES = 1 << 22


@dataclass(frozen=True)
class PerceptronKernel:
    """One supported perceptron configuration."""

    name: str
    log2_rows: int
    rows: int
    history_length: int
    weight_bits: int
    threshold: int


def perceptron_kernel_for(spec: PredictorSpec) -> PerceptronKernel | None:
    """The perceptron kernel for ``spec``, or None when the config needs interp."""
    if spec.kind != "perceptron":
        return None
    config = spec.config
    if not set(config) <= {"log2_rows", "history_length", "weight_bits"}:
        return None
    log2_rows = plain_int(config.get("log2_rows", 10))
    history_length = plain_int(config.get("history_length", 32))
    weight_bits = plain_int(config.get("weight_bits", 8))
    if log2_rows is None or not 1 <= log2_rows <= 20:
        return None
    if history_length is None or history_length < 1:
        return None
    if weight_bits is None or not 2 <= weight_bits <= 32:
        return None
    rows = 1 << log2_rows
    if history_length > 1024 or rows * (history_length + 1) > _MAX_LANE_ENTRIES:
        return None  # keep the padded weight matrix bounded
    return PerceptronKernel(
        name=f"perceptron-{rows}x{history_length}",
        log2_rows=log2_rows,
        rows=rows,
        history_length=history_length,
        weight_bits=weight_bits,
        threshold=int(1.93 * history_length + 14),
    )


@dataclass(frozen=True)
class PerceptronLane:
    """One (configuration, trace) pair for the perceptron lockstep loop."""

    kernel: PerceptronKernel
    streams: TraceStreams
    warmup: int


def run_perceptron_lanes(
    lanes: list[PerceptronLane], scenario: UpdateScenario, config: PipelineConfig
) -> list[tuple[int, AccessProfile]]:
    """All four scenarios for the perceptron family, lanes in lockstep.

    Scenario [I] is the zero-delay degenerate case (a branch retires in
    the step it fetches); the delayed scenarios run the
    ``config.retire_delay`` in-flight window.  The training step always
    reads the *current* weights (the interpreter's update does too — the
    reread flag only decides whether an entry read is charged), and the
    fetch-time history snapshot is regathered from the outcome signs, so
    only the dot-product totals ride the ring buffer.
    """
    count = len(lanes)
    lengths = np.array([lane.streams.outcomes.size for lane in lanes], dtype=np.int64)
    longest = int(lengths.max()) if count else 0
    warmups = np.array([lane.warmup for lane in lanes], dtype=np.int64)
    columns = max(lane.kernel.history_length for lane in lanes)
    col_ids = np.arange(columns, dtype=np.int64)
    history_lengths = np.array([lane.kernel.history_length for lane in lanes], dtype=np.int64)
    #: padded weight columns beyond a lane's history length stay zero and
    #: masked, so they never contribute to totals nor get trained.
    col_live = col_ids[None, :] < history_lengths[:, None]
    thresholds = np.array([lane.kernel.threshold for lane in lanes], dtype=np.int64)
    lows = np.array(
        [-(1 << (lane.kernel.weight_bits - 1)) for lane in lanes], dtype=np.int64
    )[:, None]
    highs = np.array(
        [(1 << (lane.kernel.weight_bits - 1)) - 1 for lane in lanes], dtype=np.int64
    )[:, None]

    row_offsets = np.cumsum([0] + [lane.kernel.rows for lane in lanes])[:-1]
    weights = np.zeros((int(row_offsets[-1]) + lanes[-1].kernel.rows, columns + 1), np.int64)
    rows2d = np.empty((count, longest), dtype=np.int64)
    signs2d = np.full((count, longest), -1, dtype=np.int64)
    taken2d = np.zeros((count, longest), dtype=np.bool_)
    for n, lane in enumerate(lanes):
        size = lane.streams.outcomes.size
        pcs = lane.streams.trace.pcs
        log2_rows = lane.kernel.log2_rows
        rows = ((pcs >> 2) ^ (pcs >> (2 + log2_rows))) & mask(log2_rows)
        rows2d[n, :size] = rows + row_offsets[n]
        rows2d[n, size:] = row_offsets[n]  # valid but masked-out padding
        signs2d[n, :size] = 2 * lane.streams.outcomes - 1
        taken2d[n, :size] = lane.streams.trace.taken

    immediate = scenario is UpdateScenario.IMMEDIATE
    retire_delay = 0 if immediate else config.retire_delay
    reread_always = immediate or scenario is UpdateScenario.REREAD_AT_RETIRE
    reread_never = scenario is UpdateScenario.FETCH_READ_ONLY
    charge_retire_read = scenario is not UpdateScenario.IMMEDIATE and not reread_never

    ring = retire_delay + 1
    totals_ring = np.zeros((ring, count), dtype=np.int64)
    lane_ids = np.arange(count)

    mispredictions = np.zeros(count, dtype=np.int64)
    retire_reads = np.zeros(count, dtype=np.int64)
    entry_reads = np.zeros(count, dtype=np.int64)
    entry_writes = np.zeros(count, dtype=np.int64)

    def history_signs(branches: np.ndarray) -> np.ndarray:
        """The fetch-time ±1 history snapshot of each lane's branch.

        Unresolved ages (before the trace start) read 0 in the history
        register, which the perceptron treats as "not taken": sign -1.
        """
        ages = branches[:, None] - 1 - col_ids[None, :]
        valid = ages >= 0
        return np.where(valid, signs2d[lane_ids[:, None], np.maximum(ages, 0)], -1)

    def retire(branches: np.ndarray, live: np.ndarray) -> None:
        nonlocal retire_reads, entry_reads, entry_writes
        anchored = np.maximum(branches, 0)
        slots = anchored % ring
        totals = totals_ring[slots, lane_ids]
        taken = taken2d[lane_ids, anchored]
        mispredicted = (totals >= 0) != taken
        trains = live & (mispredicted | (np.abs(totals) <= thresholds))
        rows = rows2d[lane_ids, anchored]
        current = weights[rows]
        signs = history_signs(anchored)
        direction = np.where(taken, 1, -1)[:, None]
        updated = np.empty_like(current)
        np.clip(current[:, 0:1] + direction, lows, highs, out=updated[:, 0:1])
        np.clip(
            current[:, 1:] + direction * np.where(col_live, signs, 0),
            lows,
            highs,
            out=updated[:, 1:],
        )
        changed = np.any(updated != current, axis=1)
        weights[rows[trains]] = updated[trains]
        measured = live & (branches >= warmups)
        if charge_retire_read:
            retire_reads += measured if reread_always else (mispredicted & measured)
        if reread_always:
            entry_reads += trains & measured
        elif not reread_never:
            entry_reads += trains & mispredicted & measured
        entry_writes += trains & changed & measured

    for t in range(longest):
        active = t < lengths
        current = weights[rows2d[:, t]]
        signs = history_signs(np.full(count, t, dtype=np.int64))
        totals = current[:, 0] + np.sum(current[:, 1:] * signs, axis=1)
        slot = t % ring
        np.copyto(totals_ring[slot], totals, where=active)
        mispredictions += ((totals >= 0) != taken2d[:, t]) & active & (t >= warmups)
        behind = t - retire_delay
        if behind >= 0:
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
                writes=int(entry_writes[n]),
            ),
        )
        for n in range(count)
    ]


@dataclass(frozen=True)
class GEHLKernel:
    """One supported GEHL configuration."""

    name: str
    config: GEHLConfig


def gehl_kernel_for(spec: PredictorSpec) -> GEHLKernel | None:
    """The GEHL kernel for ``spec``, or None when the config needs interp."""
    if spec.kind != "gehl":
        return None
    raw = spec.config
    if not set(raw) <= {
        "num_tables",
        "log2_entries",
        "counter_bits",
        "min_history",
        "max_history",
        "initial_threshold",
    }:
        return None
    for key, value in raw.items():
        if key == "initial_threshold" and value is None:
            continue
        if plain_int(value) is None:
            return None
    try:
        config = GEHLConfig(**raw) if raw else GEHLConfig()
    except (TypeError, ValueError):
        return None
    if config.counter_bits > 16 or config.max_history > 65536:
        return None
    if config.num_tables * (1 << config.log2_entries) > _MAX_LANE_ENTRIES:
        return None
    return GEHLKernel(name=f"gehl-{config.storage_bits // 1024}Kbits", config=config)


@dataclass(frozen=True)
class GEHLLane:
    """One (configuration, trace) pair for the GEHL lockstep loop."""

    kernel: GEHLKernel
    streams: TraceStreams
    warmup: int


def _gehl_index_streams(kernel: GEHLKernel, streams: TraceStreams) -> list[np.ndarray]:
    """Per-table index streams, from the memoised folded-history streams."""
    config = kernel.config
    width = config.log2_entries
    pcs = streams.trace.pcs
    pc_hash = (pcs >> 2) ^ (pcs >> (2 + width))
    indices = [pc_hash & mask(width)]
    for table in range(1, config.num_tables):
        fold = streams.fold(config.history_lengths[table], width)
        shift = width - table % width or 1
        indices.append((pc_hash ^ fold ^ (fold >> shift)) & mask(width))
    return indices


def run_gehl_lanes(
    lanes: list[GEHLLane], scenario: UpdateScenario, config: PipelineConfig
) -> list[tuple[int, AccessProfile]]:
    """All four scenarios for the GEHL family, lanes in lockstep.

    The flat axis is (lane, table): every lane's tables concatenate into
    one counter array with disjoint offsets, per-lane sums come from
    ``np.add.reduceat`` over the contiguous lane segments, and the
    scenario's counter choice (reread vs fetch snapshot) follows the
    interpreter per lane — including [C], where the reread decision is
    each lane's own fetch-time misprediction.
    """
    count = len(lanes)
    lengths = np.array([lane.streams.outcomes.size for lane in lanes], dtype=np.int64)
    longest = int(lengths.max()) if count else 0
    warmups = np.array([lane.warmup for lane in lanes], dtype=np.int64)
    table_counts = np.array([lane.kernel.config.num_tables for lane in lanes], dtype=np.int64)
    lane_starts = np.cumsum([0] + list(table_counts))[:-1]
    flat_count = int(table_counts.sum())
    lane_of_flat = np.repeat(np.arange(count), table_counts)

    entry_offsets = np.cumsum(
        [0] + [c.num_tables * (1 << c.log2_entries) for c in (l.kernel.config for l in lanes)]
    )
    tables = np.zeros(int(entry_offsets[-1]), dtype=np.int64)
    lows_flat = np.repeat(
        np.array([-(1 << (l.kernel.config.counter_bits - 1)) for l in lanes], np.int64),
        table_counts,
    )
    highs_flat = np.repeat(
        np.array([(1 << (l.kernel.config.counter_bits - 1)) - 1 for l in lanes], np.int64),
        table_counts,
    )
    thresholds = np.array(
        [
            l.kernel.config.initial_threshold
            if l.kernel.config.initial_threshold is not None
            else l.kernel.config.num_tables
            for l in lanes
        ],
        dtype=np.int64,
    )
    threshold_counters = np.zeros(count, dtype=np.int64)

    flat_idx = np.empty((flat_count, longest), dtype=np.int64)
    taken2d = np.zeros((count, longest), dtype=np.bool_)
    k = 0
    for n, lane in enumerate(lanes):
        size = lane.streams.outcomes.size
        taken2d[n, :size] = lane.streams.trace.taken
        entries = 1 << lane.kernel.config.log2_entries
        for table, idx in enumerate(_gehl_index_streams(lane.kernel, lane.streams)):
            offset = int(entry_offsets[n]) + table * entries
            flat_idx[k, :size] = idx + offset
            flat_idx[k, size:] = offset  # valid but masked-out padding
            k += 1

    immediate = scenario is UpdateScenario.IMMEDIATE
    retire_delay = 0 if immediate else config.retire_delay
    reread_always = immediate or scenario is UpdateScenario.REREAD_AT_RETIRE
    reread_never = scenario is UpdateScenario.FETCH_READ_ONLY
    charge_retire_read = scenario is not UpdateScenario.IMMEDIATE and not reread_never

    ring = retire_delay + 1
    snapshot_ring = np.zeros((ring, flat_count), dtype=np.int64)
    totals_ring = np.zeros((ring, count), dtype=np.int64)
    lane_ids = np.arange(count)
    flat_ids = np.arange(flat_count)

    mispredictions = np.zeros(count, dtype=np.int64)
    retire_reads = np.zeros(count, dtype=np.int64)
    entry_reads = np.zeros(count, dtype=np.int64)
    entry_writes = np.zeros(count, dtype=np.int64)
    write_accesses = np.zeros(count, dtype=np.int64)

    def retire(branches: np.ndarray, live: np.ndarray) -> None:
        nonlocal thresholds, threshold_counters
        nonlocal retire_reads, entry_reads, entry_writes, write_accesses
        anchored = np.maximum(branches, 0)
        slots = anchored % ring
        totals = totals_ring[slots, lane_ids]
        taken = taken2d[lane_ids, anchored]
        mispredicted = (totals >= 0) != taken
        trains = live & (mispredicted | (np.abs(totals) < thresholds))

        columns = flat_idx[flat_ids, anchored[lane_of_flat]]
        current = tables[columns]
        if reread_always:
            used = current
        elif reread_never:
            used = snapshot_ring[slots[lane_of_flat], flat_ids]
        else:
            used = np.where(
                mispredicted[lane_of_flat], current, snapshot_ring[slots[lane_of_flat], flat_ids]
            )
        step = np.where(taken, 1, -1)[lane_of_flat]
        updated = np.clip(used + step, lows_flat, highs_flat)
        writes = trains[lane_of_flat] & (updated != current)
        tables[columns[writes]] = updated[writes]

        measured = live & (branches >= warmups)
        if charge_retire_read:
            retire_reads += measured if reread_always else (mispredicted & measured)
        if reread_always:
            entry_reads += table_counts * (trains & measured)
        elif not reread_never:
            entry_reads += table_counts * (trains & mispredicted & measured)
        written = np.add.reduceat(
            (writes & measured[lane_of_flat]).astype(np.int64), lane_starts
        )
        entry_writes += written
        write_accesses += written > 0

        # O-GEHL threshold adaptation runs whenever the update does —
        # warmup branches included (it is predictor state, not accounting).
        deltas = np.where(mispredicted, 1, -1)
        bumped = np.clip(threshold_counters + deltas, -64, 63)
        raise_threshold = trains & mispredicted & (bumped == 63)
        lower_threshold = trains & ~mispredicted & (bumped == -64)
        thresholds = np.where(
            raise_threshold,
            thresholds + 1,
            np.where(lower_threshold, np.maximum(1, thresholds - 1), thresholds),
        )
        threshold_counters = np.where(
            trains, np.where(raise_threshold | lower_threshold, 0, bumped), threshold_counters
        )

    for t in range(longest):
        active = t < lengths
        counters = tables[flat_idx[:, t]]
        totals = np.add.reduceat(2 * counters + 1, lane_starts)
        slot = t % ring
        np.copyto(snapshot_ring[slot], counters, where=active[lane_of_flat])
        np.copyto(totals_ring[slot], totals, where=active)
        mispredictions += ((totals >= 0) != taken2d[:, t]) & active & (t >= warmups)
        behind = t - retire_delay
        if behind >= 0:
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
                writes=int(entry_writes[n]),
                write_accesses=int(write_accesses[n]),
            ),
        )
        for n in range(count)
    ]
