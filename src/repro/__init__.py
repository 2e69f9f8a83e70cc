"""repro — a reproduction of "A New Case for the TAGE Branch Predictor".

This package re-implements, in pure Python, the complete system evaluated in
Andre Seznec's MICRO 2011 paper:

* the TAGE conditional branch predictor and its reference 64 KB
  configuration (:mod:`repro.core.tage`),
* the side predictors introduced or used by the paper — the Immediate
  Update Mimicker, the loop predictor, the global-history Statistical
  Corrector and the local-history Statistical Corrector
  (:mod:`repro.core`),
* the composed ISL-TAGE and TAGE-LSC predictors,
* the baseline predictors used for comparison (gshare, GEHL, perceptron,
  piecewise-linear / SNAP-like, fused FTL-like) in
  :mod:`repro.predictors`,
* a trace substrate replacing the CBP-3 trace distribution
  (:mod:`repro.traces`),
* a pipeline model with delayed (retire-time) predictor update and the
  paper's update scenarios [I]/[A]/[B]/[C] (:mod:`repro.pipeline`),
* the hardware cost models: predictor-access accounting, 4-way bank
  interleaving with single-port arrays, and a CACTI-like area/energy
  model (:mod:`repro.hardware`),
* experiment drivers that regenerate every table and figure of the
  paper's evaluation (:mod:`repro.analysis`),
* the serializable run API and the ``repro`` CLI (:mod:`repro.api`):
  :class:`~repro.api.request.RunRequest` /
  :class:`~repro.api.runner.Runner` /
  :class:`~repro.api.config.RunnerConfig`, also reachable as
  ``python -m repro``.

Quickstart
----------

>>> from repro import SimulationEngine, make_reference_tage
>>> from repro.traces import generate_suite
>>> trace = generate_suite(categories=["INT"], traces_per_category=1,
...                        branches_per_trace=20_000, seed=7)[0]
>>> result = SimulationEngine(make_reference_tage()).run(trace)
>>> result.mispredictions > 0
True
"""

from repro.api import Runner, RunnerConfig, RunRequest
from repro.core import (
    ISLTAGEPredictor,
    LoopPredictor,
    LTAGEPredictor,
    StatisticalCorrector,
    TAGEConfig,
    TAGELSCPredictor,
    TAGEPredictor,
    make_reference_tage,
    make_reference_tage_config,
)
from repro.pipeline import (
    PipelineConfig,
    SimulationEngine,
    SimulationResult,
    UpdateScenario,
)
from repro.predictors import (
    BimodalPredictor,
    GEHLPredictor,
    GSharePredictor,
    PerceptronPredictor,
    Predictor,
    PredictorSpec,
)
from repro.traces import Trace, generate_suite

__version__ = "1.0.0"

__all__ = [
    "BimodalPredictor",
    "GEHLPredictor",
    "GSharePredictor",
    "ISLTAGEPredictor",
    "LTAGEPredictor",
    "LoopPredictor",
    "PerceptronPredictor",
    "PipelineConfig",
    "Predictor",
    "PredictorSpec",
    "RunRequest",
    "Runner",
    "RunnerConfig",
    "SimulationEngine",
    "SimulationResult",
    "StatisticalCorrector",
    "TAGEConfig",
    "TAGELSCPredictor",
    "TAGEPredictor",
    "Trace",
    "UpdateScenario",
    "generate_suite",
    "make_reference_tage",
    "make_reference_tage_config",
    "__version__",
]
