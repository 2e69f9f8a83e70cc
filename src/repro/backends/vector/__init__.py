"""The ``numpy`` backend: the two-bit table scan under scenario [I].

Under the oracle update of scenario [I] a bimodal or gshare run is a
pure function of the trace's numpy columns
(:class:`repro.traces.trace.Trace`): gshare's history window is the
resolved outcome stream (:mod:`repro.backends.vector.streams`), and each
table entry's counter evolves through a chain of saturating steps that
:mod:`~repro.backends.vector.twobit` evaluates as one segmented prefix
scan per (spec, trace) pair over codes of the 17 composed transition
maps, retiring each position as soon as its prefix is known (its range
reaches the segment start, or its map is constant) — no per-branch loop
at all.

When the scan runs is decided by the routing rule in
:func:`repro.pipeline.parallel._route`, not by a selection.
:meth:`NumpyBackend.supports` declines everything else — the delayed
scenarios [A]/[B]/[C], shared-hysteresis bimodal, every other kind.

The scan reproduces the engine's accounting exactly — mispredictions,
fetch reads, *effective* (non-silent) writes, warmup replay for sharded
traces — so results are prediction-bit-identical to
:class:`~repro.pipeline.engine.SimulationEngine` and cache-compatible
with it.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends.vector import twobit
from repro.backends.vector.streams import StreamCache
from repro.pipeline.config import PipelineConfig
from repro.pipeline.metrics import SimulationResult
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec, backend_support
from repro.traces.trace import Trace

__all__ = ["NumpyBackend"]


class NumpyBackend:
    """The [I] prefix-scan kernel for bimodal and gshare tables."""

    name = "numpy"

    def supports(
        self, spec: PredictorSpec, scenario: UpdateScenario, config: PipelineConfig
    ) -> bool:
        return (
            scenario is UpdateScenario.IMMEDIATE
            and "numpy" in backend_support(spec.kind)
            and twobit.kernel_for(spec) is not None
        )

    def run_tasks(
        self,
        tasks: Sequence[tuple[PredictorSpec, Trace]],
        scenario: UpdateScenario,
        config: PipelineConfig,
    ) -> list[SimulationResult]:
        results = []
        cache = StreamCache()
        for spec, trace in tasks:
            kernel = twobit.kernel_for(spec)
            if kernel is None or scenario is not UpdateScenario.IMMEDIATE:
                raise ValueError(
                    f"spec {spec!r} is not supported by the numpy backend under "
                    f"{scenario.label}; schedulers must check supports() and fall back"
                )
            warmup = trace.warmup_count
            idx = twobit.index_stream(kernel, cache.for_trace(trace))
            mispredictions, profile = twobit.run_immediate(kernel, idx, trace.taken, warmup)
            measured = len(trace) - warmup
            instructions = int(trace.preceding[warmup:].sum()) + measured
            results.append(SimulationResult(
                trace.source_name or trace.name, kernel.name, measured, instructions,
                mispredictions, config.misprediction_penalty, profile, scenario.label, 0,
                trace.window, warmup,
            ))
        return results
