"""The ``numpy`` backend: batched array kernels for whole predictor families.

The staged engine steps every branch through Python; for the predictor
families below the same semantics are expressible as array programs over
the trace's numpy columns (:class:`repro.traces.trace.Trace`), with all
history-derived streams (packed windows, folded CSR values) precomputed
by :mod:`repro.backends.vector.streams` — trace-driven
simulation updates histories with *resolved* outcomes, so they are pure
functions of the trace prefix.

Kernel families (one module each):

* :mod:`~repro.backends.vector.twobit` — bimodal/gshare: a segmented
  prefix-composition scan for scenario [I] and a multi-lane delayed
  lockstep loop for [A]/[B]/[C];
* :mod:`~repro.backends.vector.neural` — perceptron/GEHL: fetch-time dot
  products as array ops, threshold-gated training in the same lockstep
  loop, all four scenarios.

TAGE has no kernel here: the ``native`` backend runs the whole TAGE
family in C, and a ``numpy`` TAGE request falls back to it.

Batching covers **two axes at once**: a lane is a (configuration, trace)
pair, so a fig9-style sweep (one trace × N configs) and a fig10-style
suite run (N traces × one config) ride the same kernels —
:meth:`NumpyBackend.run_tasks` accepts arbitrary (spec, trace) pairs,
pads traces to the longest lane and masks the rest.

Every kernel reproduces the engine's accounting exactly — mispredictions,
fetch/retire reads, *effective* (non-silent) writes, warmup replay for
sharded traces — so results are prediction-bit-identical to
:class:`~repro.pipeline.engine.SimulationEngine` and cache-compatible
with it.  :meth:`NumpyBackend.supports` gates on the registry's backend
capability tags plus the config details the kernels assume; anything else
(shared-hysteresis bimodal, exotic configs) takes the scheduler's
default route.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends.base import Backend
from repro.backends.vector import neural, twobit
from repro.obs import span
from repro.backends.vector.streams import StreamCache, TraceStreams
from repro.pipeline.config import PipelineConfig
from repro.pipeline.metrics import SimulationResult
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec, backend_support
from repro.traces.trace import Trace

__all__ = ["NumpyBackend"]

#: Registry kinds with a kernel family here, and their probe.
_PROBES = {
    "bimodal": twobit.kernel_for,
    "gshare": twobit.kernel_for,
    "perceptron": neural.perceptron_kernel_for,
    "gehl": neural.gehl_kernel_for,
}

#: Kinds sharing the two-bit table kernels.
_TWOBIT_KINDS = frozenset({"bimodal", "gshare"})


def _kernel_for(spec: PredictorSpec):
    probe = _PROBES.get(spec.kind)
    return None if probe is None else probe(spec)


def _twobit_lane(kernel, streams: TraceStreams, warmup: int) -> twobit.TwobitLane:
    return twobit.TwobitLane(
        kernel, twobit.index_stream(kernel, streams), streams.trace.taken, warmup
    )


#: family -> (lane constructor, lockstep runner over a batch of lanes).
_LOCKSTEP = {
    "twobit": (_twobit_lane, twobit.run_delayed_lanes),
    "perceptron": (neural.PerceptronLane, neural.run_perceptron_lanes),
    "gehl": (neural.GEHLLane, neural.run_gehl_lanes),
}


class NumpyBackend(Backend):
    """Vectorised batch execution for the two-bit table and neural families."""

    name = "numpy"

    def supports(
        self, spec: PredictorSpec, scenario: UpdateScenario, config: PipelineConfig
    ) -> bool:
        return "numpy" in backend_support(spec.kind) and _kernel_for(spec) is not None

    def batches_traces(self, scenario: UpdateScenario, config: PipelineConfig) -> bool:
        # Lanes are (config, trace) pairs: one kernel group may span traces.
        return True

    def min_group_size(
        self, specs: Sequence[PredictorSpec], scenario: UpdateScenario, config: PipelineConfig
    ) -> int:
        # The scan kernel vectorises the time axis, so it wins even for a
        # single run; the lockstep kernels only amortise their per-step
        # array-op overhead across a batch — a lone delayed run is faster
        # (and parallelises) on the interp pool path.
        if scenario is UpdateScenario.IMMEDIATE and any(
            spec.kind in _TWOBIT_KINDS for spec in specs
        ):
            return 1
        return 2

    def run_tasks(
        self,
        tasks: Sequence[tuple[PredictorSpec, Trace]],
        scenario: UpdateScenario,
        config: PipelineConfig,
    ) -> list[SimulationResult]:
        results: list[SimulationResult | None] = [None] * len(tasks)
        cache = StreamCache()
        lanes: dict[str, list] = {"twobit": [], "perceptron": [], "gehl": []}
        with span("backend.streams", backend=self.name, tasks=len(tasks)):
            for position, (spec, trace) in enumerate(tasks):
                kernel = _kernel_for(spec)
                if kernel is None:
                    raise ValueError(
                        f"spec {spec!r} is not supported by the numpy backend; "
                        "schedulers must check supports() and fall back"
                    )
                warmup = trace.warmup_count
                family = "twobit" if spec.kind in _TWOBIT_KINDS else spec.kind
                lanes[family].append((position, kernel, cache.for_trace(trace), warmup))

        if scenario is UpdateScenario.IMMEDIATE:
            # Two-bit tables under [I] take the per-lane scan kernel.
            for position, kernel, streams, warmup in lanes.pop("twobit"):
                idx = twobit.index_stream(kernel, streams)
                outcome = twobit.run_immediate(kernel, idx, streams.trace.taken, warmup)
                results[position] = self._result(kernel.name, streams, warmup, config,
                                                 scenario, outcome)
        for family, members in lanes.items():
            if not members:
                continue
            make_lane, run_lanes = _LOCKSTEP[family]
            batch = [make_lane(kernel, streams, warmup) for _, kernel, streams, warmup in members]
            for (position, kernel, streams, warmup), outcome in zip(
                members, run_lanes(batch, scenario, config)
            ):
                results[position] = self._result(kernel.name, streams, warmup, config,
                                                 scenario, outcome)
        return results

    @staticmethod
    def _result(name, streams, warmup, config, scenario, outcome) -> SimulationResult:
        """The result of one lane: ``outcome`` is (mispredictions, profile)."""
        trace = streams.trace
        measured = len(trace) - warmup
        instructions = int(trace.preceding[warmup:].sum()) + measured
        return SimulationResult(
            trace.source_name or trace.name, name, measured, instructions, outcome[0],
            config.misprediction_penalty, outcome[1], scenario.label, 0, trace.window, warmup,
        )
