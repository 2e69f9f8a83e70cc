"""RunRequest serialization: lossless JSON round trip for every registry kind."""

import json
import pickle

import pytest

from repro.api import Runner, RunRequest
from repro.pipeline.config import PipelineConfig
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors.registry import PredictorSpec, available

#: Small but non-trivial: every behaviour class appears, so each predictor
#: family actually learns something during the round-trip check.
TINY_REF = "synthetic:mixed?length=200&seed=9"


def _round_trip(request: RunRequest) -> RunRequest:
    return RunRequest.from_dict(json.loads(json.dumps(request.to_dict())))


class TestRoundTrip:
    @pytest.mark.parametrize("kind", available())
    def test_every_registry_kind_round_trips(self, kind):
        request = RunRequest(
            PredictorSpec(kind), TINY_REF, scenario="A",
            pipeline={"retire_delay": 8, "execute_delay": 2},
        )
        clone = _round_trip(request)
        assert clone == request
        assert clone.to_dict() == request.to_dict()

    @pytest.mark.parametrize("kind", available())
    def test_round_trip_reproduces_byte_identical_results(self, kind):
        runner = Runner()
        request = RunRequest(PredictorSpec(kind), TINY_REF)
        original = runner.run(request)
        replayed = runner.run(_round_trip(request))
        assert pickle.dumps(original) == pickle.dumps(replayed)

    def test_config_dict_survives(self):
        request = RunRequest(
            PredictorSpec("gshare", {"log2_entries": 12}), TINY_REF
        )
        clone = _round_trip(request)
        assert clone.predictor.config == {"log2_entries": 12}

    def test_scenario_and_pipeline_survive(self):
        request = RunRequest(
            "tage", TINY_REF, scenario="[C]",
            pipeline=PipelineConfig(retire_delay=10, execute_delay=3,
                                    misprediction_penalty=15),
        )
        clone = _round_trip(request)
        assert clone.scenario is UpdateScenario.REREAD_ON_MISPREDICTION
        assert clone.pipeline == request.pipeline


class TestCoercionAndValidation:
    def test_kind_string_and_scenario_forms(self):
        request = RunRequest("gshare", TINY_REF, scenario="REREAD_AT_RETIRE")
        assert request.predictor == PredictorSpec("gshare")
        assert request.scenario is UpdateScenario.REREAD_AT_RETIRE

    def test_invalid_trace_ref_fails_at_construction(self):
        with pytest.raises(ValueError, match="must start with"):
            RunRequest("gshare", "not-a-ref")

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown update scenario"):
            RunRequest("gshare", TINY_REF, scenario="Z")

    def test_non_json_config_raises_on_to_dict(self):
        from repro.core.config import make_reference_tage_config

        request = RunRequest(
            PredictorSpec("tage", {"config": make_reference_tage_config()}), TINY_REF
        )
        with pytest.raises(ValueError, match="not JSON-serializable"):
            request.to_dict()

    def test_from_dict_rejects_unknown_keys_and_versions(self):
        payload = RunRequest("gshare", TINY_REF).to_dict()
        with pytest.raises(ValueError, match="unknown keys"):
            RunRequest.from_dict({**payload, "extra": 1})
        with pytest.raises(ValueError, match="unsupported run request version"):
            RunRequest.from_dict({**payload, "version": 99})
        with pytest.raises(ValueError, match="missing 'trace'"):
            RunRequest.from_dict({"predictor": {"kind": "gshare"}})

    def test_unknown_pipeline_keys_rejected_with_value_error(self):
        with pytest.raises(ValueError, match="pipeline entry has unknown keys"):
            RunRequest("gshare", TINY_REF, pipeline={"retire_delay": 8, "bogus": 1})

    def test_from_json_round_trip(self):
        request = RunRequest("bimodal", TINY_REF)
        assert RunRequest.from_json(request.to_json()) == request

    def test_requests_are_hashable(self):
        a = RunRequest("gshare", TINY_REF)
        b = RunRequest("gshare", TINY_REF)
        assert len({a, b}) == 1


def test_value_types_carry_no_instance_dict():
    """Requests, specs and pipeline configs are slotted, and a spec with
    no config keeps no dict, so a client holding many requests pays for
    their fields only."""
    request = RunRequest("tage", TINY_REF)
    for value in (request, request.predictor, request.pipeline):
        assert not hasattr(value, "__dict__")
    assert request.predictor._raw is None
    assert request.predictor.config == {}
