"""Interface-contract tests run against every predictor in the package.

Every predictor must honour the predict / update_history / update protocol,
report a positive storage budget (except the static baselines), and
learn *something* on an easy workload.
"""

import pytest

from repro.core.composed import ISLTAGEPredictor, LTAGEPredictor, TAGELSCPredictor
from repro.core.tage import TAGEPredictor
from repro.pipeline.engine import SimulationEngine
from repro.predictors.base import PredictionInfo, UpdateStats
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.ftl import FTLPredictor
from repro.predictors.gehl import GEHLConfig, GEHLPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.snap import SNAPPredictor
from repro.predictors.static import AlwaysNotTakenPredictor, AlwaysTakenPredictor

# Small configurations keep the contract tests fast while exercising the
# same code paths as the full-size predictors.
PREDICTOR_FACTORIES = {
    "bimodal": lambda: BimodalPredictor(entries=1024, hysteresis_sharing=4),
    "gshare": lambda: GSharePredictor(log2_entries=12),
    "perceptron": lambda: PerceptronPredictor(log2_rows=8, history_length=16),
    "gehl": lambda: GEHLPredictor(GEHLConfig(num_tables=6, log2_entries=9, max_history=200)),
    "snap": lambda: SNAPPredictor(history_length=16, log2_entries=8),
    "ftl": lambda: FTLPredictor(),
    "tage": lambda: TAGEPredictor(),
    "l-tage": lambda: LTAGEPredictor(),
    "isl-tage": lambda: ISLTAGEPredictor(),
    "tage-lsc": lambda: TAGELSCPredictor(),
    "always-taken": lambda: AlwaysTakenPredictor(),
    "always-not-taken": lambda: AlwaysNotTakenPredictor(),
}

LEARNING_PREDICTORS = [
    name for name in PREDICTOR_FACTORIES if not name.startswith("always")
]


@pytest.fixture(params=sorted(PREDICTOR_FACTORIES), name="predictor")
def predictor_fixture(request):
    return PREDICTOR_FACTORIES[request.param]()


class TestPredictorContract:
    def test_predict_returns_prediction_info(self, predictor):
        info = predictor.predict(0x4000)
        assert isinstance(info, PredictionInfo)
        assert isinstance(info.taken, bool)

    def test_update_accepts_its_own_info(self, predictor):
        info = predictor.predict(0x4000)
        predictor.update_history(0x4000, True, info)
        stats = predictor.update(0x4000, True, info, reread=True)
        assert isinstance(stats, UpdateStats)
        assert stats.entry_writes >= 0

    def test_update_without_reread(self, predictor):
        info = predictor.predict(0x4100)
        predictor.update_history(0x4100, False, info)
        stats = predictor.update(0x4100, False, info, reread=False)
        assert isinstance(stats, UpdateStats)

    def test_notify_execute_is_harmless(self, predictor):
        info = predictor.predict(0x4200)
        predictor.notify_execute(0x4200, True, info)

    def test_storage_report_consistency(self, predictor):
        report = predictor.storage_report()
        assert report.total_bits == predictor.storage_bits
        assert report.total_bits >= 0

    def test_repr_mentions_name(self, predictor):
        assert predictor.name.split("-")[0].split()[0] in repr(predictor).lower()


@pytest.mark.parametrize("name", LEARNING_PREDICTORS)
def test_learns_a_strongly_biased_branch(name, biased_trace):
    """Every learning predictor must end up close to the bias floor on a
    workload made only of biased branches (no structure to exploit)."""
    predictor = PREDICTOR_FACTORIES[name]()
    result = SimulationEngine(predictor).run(biased_trace)
    # The trace mixes a 0.95 branch (2/3 weight) and a 0.7 branch (1/3):
    # the achievable floor is ~13%; anything under 25% shows real learning.
    assert result.mispredictions / result.branches < 0.25, name


@pytest.mark.parametrize("name", LEARNING_PREDICTORS)
def test_wrong_info_type_rejected(name):
    """Predictors with table state must refuse a foreign PredictionInfo."""
    predictor = PREDICTOR_FACTORIES[name]()
    if isinstance(predictor, (AlwaysTakenPredictor, AlwaysNotTakenPredictor)):
        pytest.skip("static predictors accept anything")
    with pytest.raises(TypeError):
        predictor.update(0x4000, True, PredictionInfo(taken=True))


def test_static_predictors_have_zero_storage():
    assert AlwaysTakenPredictor().storage_bits == 0
    assert AlwaysNotTakenPredictor().storage_bits == 0
