"""Baseline conditional branch predictors and the predictor registry.

These are the predictors the paper compares TAGE against, plus the
building blocks the side predictors reuse:

* :class:`~repro.predictors.bimodal.BimodalPredictor` — PC-indexed 2-bit
  counters with optional shared hysteresis (also TAGE's base component),
* :class:`~repro.predictors.gshare.GSharePredictor` — the first-generation
  global-history predictor used in Section 4,
* :class:`~repro.predictors.perceptron.PerceptronPredictor` — the original
  neural predictor,
* :class:`~repro.predictors.gehl.GEHLPredictor` — the GEometric History
  Length predictor (global or local history), representative of
  neural-inspired predictors in Section 4 and the basis of the Statistical
  Corrector,
* :class:`~repro.predictors.snap.SNAPPredictor` — a scaled neural /
  piecewise-linear predictor standing in for OH-SNAP (Section 6.3),
* :class:`~repro.predictors.ftl.FTLPredictor` — a fused global+local GEHL
  predictor standing in for FTL++ (Section 6.3),
* :class:`~repro.predictors.static.AlwaysTakenPredictor` /
  :class:`~repro.predictors.static.AlwaysNotTakenPredictor` — trivial
  references used in tests and sanity checks.

All predictors implement the :class:`~repro.predictors.base.Predictor`
interface, whose prediction/update split models the fetch-time read and
retire-time update of a real pipeline (see :mod:`repro.pipeline`).

:mod:`repro.predictors.registry` maps string names plus config dicts to
factories for every predictor in the package (including the composed
TAGE-family predictors of :mod:`repro.core`); a
:class:`~repro.predictors.registry.PredictorSpec` is the picklable unit
the runner's worker pool and result caches work with.
"""

from repro.predictors.base import PredictionInfo, Predictor, UpdateStats
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.ftl import FTLPredictor
from repro.predictors.gehl import GEHLPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.registry import PredictorSpec, create, spec_of
from repro.predictors.snap import SNAPPredictor
from repro.predictors.static import AlwaysNotTakenPredictor, AlwaysTakenPredictor

__all__ = [
    "AlwaysNotTakenPredictor",
    "AlwaysTakenPredictor",
    "BimodalPredictor",
    "FTLPredictor",
    "GEHLPredictor",
    "GSharePredictor",
    "PerceptronPredictor",
    "PredictionInfo",
    "Predictor",
    "PredictorSpec",
    "SNAPPredictor",
    "UpdateStats",
    "create",
    "spec_of",
]
