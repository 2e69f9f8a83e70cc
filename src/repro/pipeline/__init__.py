"""Pipeline layer: the staged simulation engine and the paper's scenarios.

On real hardware the predictor tables are updated when a branch retires,
many cycles after the prediction was made.  This subpackage models that
with one staged machine and the scheduler built on top of it:

* :class:`~repro.pipeline.engine.SimulationEngine` — **the** simulation
  core: an explicit fetch → execute → retire loop over the in-flight
  branch window.  The oracle immediate update of scenario [I] is the
  degenerate zero-delay configuration (window depth zero, update from
  fresh values at fetch), so every scenario shares one code path; it
  runs one predictor over one trace,
* :func:`~repro.pipeline.parallel.run_scheduled` — the scheduling pass
  behind :class:`~repro.api.runner.Runner`: (spec, trace, scenario,
  config) tasks routed to the kernels (:mod:`repro.backends`) or the
  engine by one rule (:func:`~repro.pipeline.parallel._route`), with
  an opt-in on-disk :class:`~repro.pipeline.parallel.SuiteCache`,
* :class:`~repro.pipeline.scenarios.UpdateScenario` — the four update
  policies compared in Section 4.1.2 ([I] oracle immediate update, [A]
  re-read at retire, [B] fetch-time read only, [C] re-read only on
  mispredictions),
* :class:`~repro.pipeline.config.PipelineConfig` — the in-flight window
  model (how many branches separate fetch, execute and retire) and the
  misprediction penalty used by the MPPKI metric,
* :class:`~repro.pipeline.metrics.SimulationResult` and
  :class:`~repro.pipeline.metrics.SuiteResult` — accuracy and access
  metrics, including MPKI and the CBP-3 MPPKI.
"""

from repro.pipeline.config import PipelineConfig
from repro.pipeline.engine import SimulationEngine
from repro.pipeline.metrics import SimulationResult, SuiteResult
from repro.pipeline.parallel import SuiteCache, run_scheduled
from repro.pipeline.scenarios import UpdateScenario

__all__ = [
    "PipelineConfig",
    "SimulationEngine",
    "SimulationResult",
    "SuiteCache",
    "SuiteResult",
    "UpdateScenario",
    "run_scheduled",
]
