"""The ``numpy`` backend: batched array kernels for whole predictor families.

The staged engine steps every branch through Python; for the predictor
families below the same semantics are expressible as array programs over
the trace's numpy columns (:class:`repro.traces.trace.Trace`), with all
history-derived streams (packed windows, folded CSR values, path folds)
precomputed by :mod:`repro.backends.vector.streams` — trace-driven
simulation updates histories with *resolved* outcomes, so they are pure
functions of the trace prefix.

Kernel families (one module each):

* :mod:`~repro.backends.vector.twobit` — bimodal/gshare: a segmented
  prefix-composition scan for scenario [I] and a multi-lane delayed
  lockstep loop for [A]/[B]/[C];
* :mod:`~repro.backends.vector.neural` — perceptron/GEHL: fetch-time dot
  products as array ops, threshold-gated training in the same lockstep
  loop, all four scenarios;
* :mod:`~repro.backends.vector.tage` — TAGE: the folded index/tag
  pipeline precomputed into per-branch streams feeding the *real*
  predictor through the real engine (allocation stays serial).

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
(loop/SC composites, shared-hysteresis bimodal, exotic configs) stays on
the interpreter.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends.base import Backend
from repro.backends.vector import neural, tage, twobit
from repro.obs import span
from repro.backends.vector.streams import StreamCache, TraceStreams
from repro.hardware.access_counter import AccessProfile
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
    "tage": tage.tage_kernel_for,
}

#: Kinds sharing the two-bit table kernels.
_TWOBIT_KINDS = frozenset({"bimodal", "gshare"})


def _kernel_for(spec: PredictorSpec):
    probe = _PROBES.get(spec.kind)
    return None if probe is None else probe(spec)


class NumpyBackend(Backend):
    """Vectorised batch execution for the table, neural and TAGE families."""

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
        # The scan kernel vectorises the time axis and the TAGE stream
        # path vectorises the fold/index pipeline, so both win even for a
        # single run; the lockstep kernels only amortise their per-step
        # array-op overhead across a batch — a lone delayed run is faster
        # (and parallelises) on the interp pool path.
        if any(spec.kind == "tage" for spec in specs):
            return 1
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
        lanes: dict[str, list] = {"twobit": [], "perceptron": [], "gehl": [], "tage": []}
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

        for position, kernel, streams, warmup in lanes["twobit"]:
            if scenario is UpdateScenario.IMMEDIATE:
                idx = twobit.index_stream(kernel, streams)
                outcome = twobit.run_immediate(kernel, idx, streams.trace.taken, warmup)
                results[position] = self._result(
                    kernel.name, streams, warmup, scenario, config, outcome
                )
        if lanes["twobit"] and scenario is not UpdateScenario.IMMEDIATE:
            batch = [
                twobit.TwobitLane(
                    kernel, twobit.index_stream(kernel, streams), streams.trace.taken, warmup
                )
                for _, kernel, streams, warmup in lanes["twobit"]
            ]
            for (position, kernel, streams, warmup), outcome in zip(
                lanes["twobit"], twobit.run_delayed_lanes(batch, scenario, config)
            ):
                results[position] = self._result(
                    kernel.name, streams, warmup, scenario, config, outcome
                )

        if lanes["perceptron"]:
            batch = [
                neural.PerceptronLane(kernel, streams, warmup)
                for _, kernel, streams, warmup in lanes["perceptron"]
            ]
            for (position, kernel, streams, warmup), outcome in zip(
                lanes["perceptron"], neural.run_perceptron_lanes(batch, scenario, config)
            ):
                results[position] = self._result(
                    kernel.name, streams, warmup, scenario, config, outcome
                )

        if lanes["gehl"]:
            batch = [
                neural.GEHLLane(kernel, streams, warmup)
                for _, kernel, streams, warmup in lanes["gehl"]
            ]
            for (position, kernel, streams, warmup), outcome in zip(
                lanes["gehl"], neural.run_gehl_lanes(batch, scenario, config)
            ):
                results[position] = self._result(
                    kernel.name, streams, warmup, scenario, config, outcome
                )

        if lanes["tage"]:
            batch = [
                tage.TAGELane(kernel, streams, warmup)
                for _, kernel, streams, warmup in lanes["tage"]
            ]
            for (position, _, _, _), result in zip(
                lanes["tage"], tage.run_tage_lanes(batch, scenario, config)
            ):
                results[position] = result

        return results

    def run_group(
        self,
        specs: Sequence[PredictorSpec],
        trace: Trace,
        scenario: UpdateScenario,
        config: PipelineConfig,
    ) -> list[SimulationResult]:
        return self.run_tasks([(spec, trace) for spec in specs], scenario, config)

    @staticmethod
    def _result(
        name: str,
        streams: TraceStreams,
        warmup: int,
        scenario: UpdateScenario,
        config: PipelineConfig,
        outcome: tuple[int, AccessProfile],
    ) -> SimulationResult:
        trace = streams.trace
        mispredictions, profile = outcome
        measured = len(trace) - warmup
        instructions = int(trace.preceding[warmup:].sum()) + measured
        return SimulationResult(
            trace_name=trace.source_name or trace.name,
            predictor_name=name,
            branches=measured,
            instructions=instructions,
            mispredictions=mispredictions,
            misprediction_penalty=config.misprediction_penalty,
            accesses=profile,
            scenario=scenario.label,
            ium_overrides=0,
            window=trace.window,
            warmup_branches=warmup,
        )
