"""The reference backend: the staged per-branch simulation engine.

Supports every registered predictor kind, every update scenario and every
pipeline configuration — it *is* the semantics the other backends must
reproduce bit for bit.  ``run_tasks`` simply drives one
:class:`~repro.pipeline.engine.SimulationEngine` per task, each from a
freshly built power-on-state predictor, exactly like the pool workers in
:mod:`repro.pipeline.parallel` do.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends.base import Backend
from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.metrics import SimulationResult
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec
from repro.traces.trace import Trace

__all__ = ["InterpBackend"]


class InterpBackend(Backend):
    """Per-branch staged interpretation (fetch → execute → retire)."""

    name = "interp"

    def supports(
        self, spec: PredictorSpec, scenario: UpdateScenario, config: PipelineConfig
    ) -> bool:
        return True

    def run_tasks(
        self,
        tasks: Sequence[tuple[PredictorSpec, Trace]],
        scenario: UpdateScenario,
        config: PipelineConfig,
    ) -> list[SimulationResult]:
        return [
            SimulationEngine(spec.build(), scenario, config).run(trace) for spec, trace in tasks
        ]
