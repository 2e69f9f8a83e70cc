"""Compatibility wrappers over the staged simulation engine.

Historically this module held two near-duplicate per-branch loops; both
are now thin entry points into
:class:`~repro.pipeline.engine.SimulationEngine`, which models fetch →
execute → retire explicitly with the immediate-update oracle as the
degenerate zero-delay case:

* :func:`simulate` — oracle immediate update (the paper's scenario [I]):
  every branch is predicted, then its tables are updated right away.  This
  is the mode used for pure-accuracy comparisons (Figures 9 and 10 and the
  Section 5/6 accuracy numbers, which the paper runs under scenario [A]
  whose gap to [I] is small).
* :func:`simulate_delayed` — the in-flight-window model: a branch's tables
  are only updated after ``retire_delay`` younger branches have been
  fetched, its outcome becomes visible to the IUM after ``execute_delay``
  younger branches, and the retire-time read policy follows the selected
  :class:`~repro.pipeline.scenarios.UpdateScenario`.

Both run one predictor over one trace.  Everything larger — a suite, a
sweep, a batch of requests, in-process or over a worker pool — goes
through :class:`~repro.api.runner.Runner`.
"""

from __future__ import annotations

from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.metrics import SimulationResult
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.base import Predictor
from repro.traces.trace import Trace

__all__ = ["simulate", "simulate_delayed"]


def simulate(
    predictor: Predictor,
    trace: Trace,
    config: PipelineConfig | None = None,
) -> SimulationResult:
    """Simulate ``predictor`` over ``trace`` with oracle immediate update.

    Every branch is predicted, the speculative histories are advanced, and
    the tables are updated immediately (scenario [I]).  Returns the
    accuracy and access metrics of the run.
    """
    return SimulationEngine(predictor, UpdateScenario.IMMEDIATE, config).run(trace)


def simulate_delayed(
    predictor: Predictor,
    trace: Trace,
    scenario: UpdateScenario = UpdateScenario.REREAD_AT_RETIRE,
    config: PipelineConfig | None = None,
) -> SimulationResult:
    """Simulate ``predictor`` over ``trace`` with retire-time table updates.

    The in-flight window holds up to ``config.retire_delay`` branches: a
    branch executes (its outcome becomes visible to the IUM through
    :meth:`~repro.predictors.base.Predictor.notify_execute`) once
    ``config.execute_delay`` younger branches have been fetched, and
    retires — triggering the table update under the chosen ``scenario`` —
    once ``config.retire_delay`` younger branches have been fetched.

    Scenario [I] is accepted for convenience and runs the engine in its
    zero-delay oracle configuration, exactly like :func:`simulate`.
    """
    return SimulationEngine(predictor, scenario, config).run(trace)

