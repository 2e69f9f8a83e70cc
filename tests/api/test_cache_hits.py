"""A warm request is answered from the result cache without generating a trace.

The runner plans from trace handles and keeps a per-reference manifest of
trace names and lengths in the cache directory, so a fresh runner can key
every task of a request — whole runs, warmup shards, exact-mode runs and
``#shard=`` references — without resolving the reference.  These tests
warm the cache, make the generators raise, and require byte-identical
payloads with no ``trace.resolve`` span; a missing or corrupt manifest
must fall back to resolving and give the same payload.
"""

import json
import os

import pytest

import repro.traces.refs
from repro.api import Runner, RunnerConfig, RunRequest, suite_payload
from repro.obs import SpanRecorder, bind_trace_id, drain_spans, set_tracer
from repro.traces.refs import parse_trace_ref

REF = "synthetic:mixed?length=5000&seed=21"

#: case -> (request, RunnerConfig overrides)
CASES = {
    "whole": (RunRequest("gshare", REF), {}),
    "auto-sharded": (RunRequest("gshare", REF), {"auto_shard_branches": 2000}),
    "exact": (RunRequest("gshare", REF, sharding={"shards": 3, "mode": "exact"}), {}),
    "shard-ref": (RunRequest("gshare", REF + "#shard=1/3&warmup=200"), {}),
}


@pytest.fixture(autouse=True)
def recorded_spans():
    previous = set_tracer(SpanRecorder(sample_rate=1.0))
    yield
    set_tracer(previous)


def _payload(config: RunnerConfig, request: RunRequest) -> tuple[str, list[str]]:
    """The request's payload as bytes-comparable JSON, and the spans' names."""
    drain_spans()
    with bind_trace_id("tr-cache-hit"):
        with Runner(config) as runner:
            (result,) = runner.run_batch([request])
    names = [record["name"] for record in drain_spans()]
    return json.dumps(suite_payload(request, result), sort_keys=True), names


def _forbid_generation(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a warm request generated a trace")

    monkeypatch.setattr(repro.traces.refs, "generate_trace", refuse)
    monkeypatch.setattr(repro.traces.refs, "generate_workload", refuse)


def _manifest_paths(directory) -> list[str]:
    return sorted(str(path) for path in directory.glob("*.manifest"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_hit_never_generates(case, tmp_path, monkeypatch):
    request, overrides = CASES[case]
    config = RunnerConfig(cache_dir=str(tmp_path), workers=1, **overrides)
    cold, cold_spans = _payload(config, request)
    assert "trace.resolve" in cold_spans

    _forbid_generation(monkeypatch)
    warm, warm_spans = _payload(config, request)
    assert warm == cold
    assert "trace.resolve" not in warm_spans
    assert "pool.task" not in warm_spans and "pool.shard" not in warm_spans


def test_whole_and_shard_refs_share_one_manifest(tmp_path):
    config = RunnerConfig(cache_dir=str(tmp_path), workers=1)
    _payload(config, CASES["shard-ref"][0])
    _payload(config, CASES["whole"][0])
    assert len(_manifest_paths(tmp_path)) == 1


@pytest.mark.parametrize("damage", ["missing", "corrupt", "malformed", "mismatched"])
def test_a_bad_manifest_falls_back_to_resolving(damage, tmp_path):
    request, overrides = CASES["auto-sharded"]
    config = RunnerConfig(cache_dir=str(tmp_path), workers=1, **overrides)
    cold, _ = _payload(config, request)
    (manifest,) = _manifest_paths(tmp_path)
    if damage == "missing":
        os.remove(manifest)
    elif damage == "corrupt":
        with open(manifest, "wb") as handle:
            handle.write(b"\x00not json")
    else:
        entry = ["x", -1] if damage == "malformed" else ["synthetic:other", 10**6]
        with open(manifest, "w") as handle:
            json.dump({"ref": parse_trace_ref(REF).base, "traces": [entry]}, handle)

    again, spans = _payload(config, request)
    assert again == cold
    assert "trace.resolve" in spans
    # Resolving rewrote a good manifest: the next run is generation-free.
    assert "trace.resolve" not in _payload(config, request)[1]


def test_manifests_count_against_the_bound_but_not_as_entries(tmp_path):
    from repro.pipeline.parallel import SuiteCache

    config = RunnerConfig(cache_dir=str(tmp_path), workers=1)
    _payload(config, CASES["whole"][0])
    cache = SuiteCache(str(tmp_path))
    assert cache.stats()["entries"] == 1
    assert len(_manifest_paths(tmp_path)) == 1
    assert cache.prune(max_bytes=0)["removed"] == 2
    assert _manifest_paths(tmp_path) == []


def test_without_a_cache_the_runner_resolves_once_per_reference(tmp_path):
    config = RunnerConfig(cache_dir=None, workers=1, auto_shard_branches=2000)
    requests = [RunRequest("gshare", REF), RunRequest("bimodal", REF)]
    drain_spans()
    with bind_trace_id("tr-no-cache"):
        Runner(config).run_batch(requests)
    names = [record["name"] for record in drain_spans()]
    assert names.count("trace.resolve") == 1


def test_a_stale_manifest_is_named_and_rewritten(tmp_path):
    """A manifest whose length the generators no longer produce (a generator
    change without a GENERATOR_VERSION bump) fails loudly on the first miss."""
    config = RunnerConfig(cache_dir=str(tmp_path), workers=1, auto_shard_branches=2000)
    cold, _ = _payload(config, RunRequest("gshare", REF))
    (manifest,) = _manifest_paths(tmp_path)
    with open(manifest) as handle:
        document = json.load(handle)
    document["traces"][0][1] += 7
    with open(manifest, "w") as handle:
        json.dump(document, handle)

    with pytest.raises(RuntimeError, match="GENERATOR_VERSION"):
        _payload(config, RunRequest("bimodal", REF))
    _payload(config, RunRequest("bimodal", REF))  # planned from the rewritten manifest
    warm, spans = _payload(config, RunRequest("gshare", REF))
    assert warm == cold and "trace.resolve" not in spans
