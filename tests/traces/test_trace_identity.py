"""Trace identities and handles: cheap stand-ins for content digests.

A resolved trace's identity keys its cached results, so it must separate
everything a cached result is labelled with (trace name, shard window and
warmup) and agree with the handles planned from names and lengths alone.
"""

from dataclasses import replace

import pytest

from repro.pipeline.parallel import trace_fingerprint
from repro.traces import (
    GENERATOR_VERSION,
    TraceHandle,
    plan_shards,
    resolve_trace_ref,
    shard_handle,
    shard_trace,
    trace_handles,
)

BASE = "synthetic:loop?length=900&seed=4"


def _lengths(ref: str) -> list[tuple[str, int]]:
    return [(trace.name, len(trace)) for trace in resolve_trace_ref(ref)]


@pytest.mark.parametrize("ref", [
    BASE,
    "suite:MM?branches=200&count=3",
    "hard:all?branches=150",
    BASE + "#shard=2/3&warmup=40",
    "suite:INT03?branches=500#shard=0/2",
])
def test_handles_from_lengths_match_the_resolved_traces(ref):
    base = ref.partition("#")[0]
    assert trace_handles(ref, _lengths(base)) == [
        TraceHandle.of(trace) for trace in resolve_trace_ref(ref)
    ]


def test_identity_is_the_fingerprint_and_skips_the_records():
    (trace,) = resolve_trace_ref(BASE)
    assert trace.identity and trace_fingerprint(trace) == trace.identity
    trace.pcs = trace.pcs[:0]  # the fingerprint never looks at the columns
    assert trace_fingerprint(trace) == trace.identity


def test_equivalent_spellings_share_an_identity():
    (a,) = resolve_trace_ref("synthetic:loop?seed=4&length=900")
    (b,) = resolve_trace_ref(BASE)
    assert a.identity == b.identity


def test_every_trace_and_shard_has_its_own_identity():
    traces = resolve_trace_ref("suite:MM?branches=200&count=3")
    (whole,) = resolve_trace_ref(BASE)
    traces.append(whole)
    for count in (2, 3):
        for warmup in (0, 40):
            traces += [shard_trace(whole, window)
                       for window in plan_shards(len(whole), count, warmup)]
    # The first shard never warms up, so some plans repeat a shard exactly;
    # identities must be distinct exactly where (name, window) differ.
    labels = {(trace.name, trace.window): trace.identity for trace in traces}
    assert len(set(labels.values())) == len(labels) == len(traces) - 2


def test_identity_depends_on_the_generator_version(monkeypatch):
    import repro.traces.refs as refs

    (before,) = resolve_trace_ref(BASE)
    monkeypatch.setattr(refs, "GENERATOR_VERSION", GENERATOR_VERSION + 1)
    (after,) = resolve_trace_ref(BASE)
    assert before.identity != after.identity


def test_traces_without_a_reference_use_a_memoised_content_digest():
    (resolved,) = resolve_trace_ref(BASE)
    live = replace(resolved, identity="")
    assert trace_fingerprint(live) == resolved.content_digest()
    assert TraceHandle.of(live).identity == live.content_digest()
    live.name = "renamed"  # the memo follows the name
    assert trace_fingerprint(live) != resolved.content_digest()
    # Shards of such a trace are content-hashed too.
    shard = shard_trace(live, plan_shards(len(live), 2)[1])
    assert shard.identity == "" and trace_fingerprint(shard) == shard.content_digest()


def test_shard_handles_reject_what_shard_trace_rejects():
    handle = trace_handles(BASE, _lengths(BASE))[0]
    (window,) = plan_shards(handle.length + 1, 1)
    with pytest.raises(ValueError, match="exceeds"):
        shard_handle(handle, window)
    shard = shard_handle(handle, plan_shards(handle.length, 2)[0])
    with pytest.raises(ValueError, match="already a shard"):
        shard_handle(shard, plan_shards(shard.length, 2)[0])
