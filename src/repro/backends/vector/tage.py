"""TAGE folded-index precompute: stream the index/tag pipeline, keep the engine.

TAGE's serial parts — provider selection, USE_ALT_ON_NA, non-consecutive
allocation with the global useful-bit reset — are genuinely sequential,
but everything the per-branch Python loop spends most of its time on is
not: the three folded-history CSRs per tagged table, the path-history
fold and the index/tag hashes are all pure functions of the resolved
trace prefix.  This kernel precomputes the per-branch index and tag
stream of every tagged table in a handful of array passes
(:func:`~repro.backends.vector.streams.folded_stream` — one prefix-XOR
pass per distinct (history length, width) pair, shared across tables and
lanes via the per-trace memo) and then runs the *real*
:class:`~repro.core.tage.TAGEPredictor` through the real
:class:`~repro.pipeline.engine.SimulationEngine` with its one index/tag
method (``_keys``) and the fold bookkeeping replaced by stream lookups.

Because prediction, update, allocation and accounting are the unmodified
interpreter code paths, bit-identity across every scenario (including
allocation order and useful-bit resets) is structural, not re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.vector.streams import TraceStreams, fold_bits_stream, plain_int
from repro.common.bits import mask
from repro.core.config import TAGEConfig, make_reference_tage_config
from repro.core.tage import TAGEPredictor
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.metrics import SimulationResult
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.base import PredictionInfo
from repro.predictors.registry import PredictorSpec

__all__ = ["TAGEKernel", "TAGELane", "run_tage_lanes", "tage_kernel_for"]


@dataclass(frozen=True)
class TAGEKernel:
    """One supported TAGE configuration (plain ``tage`` specs only)."""

    config: TAGEConfig


def tage_kernel_for(spec: PredictorSpec) -> TAGEKernel | None:
    """The TAGE stream kernel for ``spec``, or None when the config needs interp.

    Mirrors the registry factory's config handling exactly — any spec the
    factory would reject returns None so the interpreter raises today's
    error messages — then gates on what the stream precompute assumes.
    """
    if spec.kind != "tage":
        return None
    raw = spec.config
    try:
        if not raw:
            config = make_reference_tage_config()
        elif "config" in raw:
            if set(raw) != {"config"}:
                return None  # mixed config object + generate keys: factory error
            config = raw["config"]
        else:
            config = TAGEConfig.generate(**raw)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        return None  # the factory will raise its own error on the interp path
    if not isinstance(config, TAGEConfig):
        return None
    if not 1 <= config.path_history_bits <= 62:
        return None
    for length in config.history_lengths:
        if plain_int(length) is None or not 1 <= length <= 100_000:
            return None
    return TAGEKernel(config=config)


class _StreamTAGE(TAGEPredictor):
    """A TAGEPredictor fed precomputed per-branch index/tag streams.

    ``_keys`` becomes a lookup at the current row and ``update_history``
    only advances the row — the live fold, history and path registers stay
    untouched (and unread).  Every other code path (prediction
    combination, update, allocation, accounting) is the inherited
    reference implementation.
    """

    def __init__(self, config: TAGEConfig, index_stream: tuple, tag_stream: tuple) -> None:
        super().__init__(config)
        # Row-major: branch b's per-table keys are entries
        # [b * num_tables, (b + 1) * num_tables); a tuple slice is the
        # (indices, tags) pair _keys returns, with no copy to convert.
        self._index_stream = index_stream
        self._tag_stream = tag_stream
        self._row = 0

    def _keys(self, pc: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        start = self._row
        stop = start + self.num_tables
        return self._index_stream[start:stop], self._tag_stream[start:stop]

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        self._row += self.num_tables


def _key_streams(kernel: TAGEKernel, streams: TraceStreams) -> tuple[tuple, tuple]:
    """Row-major per-branch index and tag streams for one (config, trace) lane."""
    config = kernel.config
    pcs = streams.trace.pcs
    path = streams.path_pack(config.path_history_bits)
    index_streams = []
    tag_streams = []
    for table in range(config.num_tagged_tables):
        width = config.table_log2_entries[table]
        tag_width = config.tag_widths[table]
        length = config.history_lengths[table]
        index_fold = streams.fold(length, width)
        path_length = min(length, config.path_history_bits)
        path_fold = fold_bits_stream(path & np.int64(mask(path_length)), path_length, width)
        rotation = table % width
        if rotation:
            path_fold = ((path_fold << rotation) | (path_fold >> (width - rotation))) & mask(
                width
            )
        pc_hash = (pcs >> 2) ^ (pcs >> (2 + width)) ^ (pcs >> (2 + 2 * width))
        index_streams.append((pc_hash ^ index_fold ^ path_fold) & mask(width))
        tag_fold_1 = streams.fold(length, tag_width)
        tag_fold_2 = streams.fold(length, max(1, tag_width - 1))
        tag_streams.append(((pcs >> 2) ^ tag_fold_1 ^ (tag_fold_2 << 1)) & mask(tag_width))
    return (
        tuple(np.stack(index_streams, axis=1).ravel().tolist()),
        tuple(np.stack(tag_streams, axis=1).ravel().tolist()),
    )


@dataclass(frozen=True)
class TAGELane:
    """One (configuration, trace) pair for the TAGE stream path."""

    kernel: TAGEKernel
    streams: TraceStreams
    warmup: int


def run_tage_lanes(
    lanes: list[TAGELane], scenario: UpdateScenario, config: PipelineConfig
) -> list[SimulationResult]:
    """Run each lane through the real engine on a stream-fed predictor.

    Allocation is serial state, so lanes run one after another — the win
    is per lane (the fold/index/tag pipeline leaves the inner loop), plus
    the fold streams shared across lanes reading the same trace.
    """
    results = []
    for lane in lanes:
        predictor = _StreamTAGE(lane.kernel.config, *_key_streams(lane.kernel, lane.streams))
        engine = SimulationEngine(predictor, scenario, config)
        results.append(engine.run(lane.streams.trace))
    return results
