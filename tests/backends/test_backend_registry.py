"""Backend names, kernel singletons and predictor capability tags."""

from __future__ import annotations

import pytest

from repro.backends import BACKENDS, NativeBackend, NumpyBackend, get_backend
from repro.pipeline.config import PipelineConfig
from repro.pipeline.scenarios import UpdateScenario
from repro.predictors import registry
from repro.predictors.registry import PredictorSpec, backend_support


class TestRegistry:
    def test_builtins_are_registered(self):
        assert BACKENDS == ("interp", "native", "numpy")

    def test_backends_are_singletons(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert isinstance(get_backend("native"), NativeBackend)
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_unknown_backend_raises(self):
        """Only the kernels are objects; ``interp`` is the engine itself."""
        for name in ("cuda", "interp"):
            with pytest.raises(KeyError, match="unknown kernel backend"):
                get_backend(name)


class TestCapabilityTags:
    def test_kernelised_families_are_tagged_for_numpy(self):
        for kind in ("bimodal", "gshare"):
            assert backend_support(kind) == frozenset({"interp", "numpy", "native"})
        for kind in ("always-taken", "always-not-taken", "perceptron", "gehl", "tage", "l-tage",
                     "isl-tage", "tage-lsc", "augmented-tage", "scaled-tage", "scaled-tage-lsc"):
            assert backend_support(kind) == frozenset({"interp", "native"})

    def test_other_kinds_are_interp_only(self):
        for kind in ("snap", "ftl"):
            assert backend_support(kind) == frozenset({"interp"})

    def test_unknown_kind_probes_empty(self):
        assert backend_support("not-a-kind") == frozenset()

    def test_reregistering_a_kind_clears_its_tags(self):
        """A replacement factory must never be fed to a kernel written
        for the original implementation."""
        original = registry._REGISTRY["gshare"]
        original_tags = registry._BACKEND_SUPPORT["gshare"]
        try:
            registry.register("gshare", original, description="replaced")
            assert backend_support("gshare") == frozenset({"interp"})
            assert not get_backend("numpy").supports(
                PredictorSpec("gshare", {"log2_entries": 10}),
                UpdateScenario.IMMEDIATE,
                PipelineConfig(),
            )
        finally:
            registry._REGISTRY["gshare"] = original
            registry._BACKEND_SUPPORT["gshare"] = original_tags

    def test_interp_supports_everything(self):
        for kind in registry.available():
            assert "interp" in backend_support(kind)
