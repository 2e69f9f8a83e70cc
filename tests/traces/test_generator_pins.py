"""Pinned generator output: what keeps reference-keyed cache hits honest.

A trace resolved from a reference is keyed in the result cache by its
identity — a hash of ``GENERATOR_VERSION``, the canonical reference and
the trace name — never by its records.  A generator change that moves a
single branch would therefore serve stale cached results, unless
``GENERATOR_VERSION`` is bumped with it.  These content digests (name plus
the full pc/taken/preceding stream, the same digest used for traces with
no identity) pin one short reference per scheme, every synthetic
generator, one shard fragment and four long references; any drift fails
here until the version is bumped and the table re-pinned.
"""

import pytest

from repro.traces.refs import GENERATOR_VERSION, GENERATORS, resolve_trace_ref

#: The generator version the digests below were taken at.
PINNED_VERSION = 1

#: ref -> [(trace name, length, content digest)] in resolution order.
PINS = {
    "suite:all?branches=150&count=3&seed=5": [
        ("CLIENT01", 152, "0b7aa5e0487697cf6ae1a85e5591b957"),
        ("CLIENT02", 150, "b90886efe6881b9993fb638ee061b93e"),
        ("CLIENT03", 157, "8afbdd265977cb55642c126f6642964e"),
        ("INT01", 156, "096b329959519a5843099b02a18f07d2"),
        ("INT02", 150, "d121e996d1ff0d3e64e3bebccb5be501"),
        ("INT03", 151, "6619131ee0174781704ae4287b8acc05"),
        ("MM01", 151, "c9c1bd7b7644e9907996baa8c8e72f9c"),
        ("MM02", 184, "89b7b6035cce709d57fbafe37c829361"),
        ("MM03", 154, "56b6f5f3f729da7e600dc2814a5ba94b"),
        ("SERVER01", 150, "8f6e9fa95c4e10b6d9f066e314ffd664"),
        ("SERVER02", 154, "2e9786d921d43aca0b55ccb88f406f4e"),
        ("SERVER03", 153, "522059026436f104f4d85b20a71d3c0f"),
        ("WS01", 150, "8675d8061deb5e5620718a6d2c8c52c1"),
        ("WS02", 150, "a4867bbc7916091e5aa5fdee24f2757a"),
        ("WS03", 160, "c4d531f65cacbdbf28da3efc44941217"),
    ],
    "hard:all?branches=200": [
        ("CLIENT02", 200, "9efd7d71773f76db1aec1b94d6346273"),
        ("INT01", 202, "2f4594ab61dada192dccc7effbd8351c"),
        ("INT02", 200, "e1f49d28efb58ff8227a6cd67afbffb3"),
        ("MM05", 202, "bea7fa11cc1af12cc3ccb5b98d96f1e3"),
        ("MM07", 200, "6cb72b6331a4b6516c86e832a5a7c475"),
        ("WS03", 200, "0335471d7490faa0c497708211b8f5b3"),
        ("WS04", 200, "aecc2a126377fa791d68e15de5bfe9d1"),
    ],
    "synthetic:biased?length=200&seed=3": [
        ("synthetic:biased?length=200&seed=3", 200, "e2ea9fafe7a1f1dd2774244efc9868f9"),
    ],
    "synthetic:correlated?length=200&seed=3": [
        ("synthetic:correlated?length=200&seed=3", 200, "c65e51d5e3b0f091881c7be7f2c0bce3"),
    ],
    "synthetic:local-pattern?length=200&seed=3": [
        ("synthetic:local-pattern?length=200&seed=3", 200, "70b1be940ae9d4961da0f10ac8e9742a"),
    ],
    "synthetic:loop?length=200&seed=3": [
        ("synthetic:loop?length=200&seed=3", 200, "db748c9034cdde7923177a838794d248"),
    ],
    "synthetic:mixed?length=200&seed=3": [
        ("synthetic:mixed?length=200&seed=3", 200, "8bef0ef9f39c84eca36edc7e0b2adf40"),
    ],
    "synthetic:pointer-chase?length=200&seed=3": [
        ("synthetic:pointer-chase?length=200&seed=3", 200, "40052ddfef215560328930e932e0861c"),
    ],
    # Long enough to reach what the short pins cannot: the 4096-pattern
    # variants of CLIENT02, many skeleton passes, the pointer-chase biases.
    "hard:CLIENT02?branches=100000": [
        ("CLIENT02", 100000, "6d4b07cefbc4d39d6ea73f9573621af8"),
    ],
    "suite:INT01?branches=200000": [
        ("INT01", 200000, "4db751c10269d58f4feb954105f08551"),
    ],
    "synthetic:pointer-chase?length=100000&seed=3": [
        ("synthetic:pointer-chase?length=100000&seed=3", 100000,
         "b66afdaa1ac46394b585f46c48ac87d6"),
    ],
    "synthetic:mixed?length=400000&seed=7": [
        ("synthetic:mixed?length=400000&seed=7", 400016, "d51781c065fdc3c9be85e7108bbbf46d"),
    ],
    "synthetic:mixed?length=600&seed=3#shard=1/3&warmup=50": [
        (
            "synthetic:mixed?length=600&seed=3#shard=1/3&warmup=50",
            251,
            "d9136fe045870b4fb8b7ee7b71552ce9",
        ),
    ],
}

BUMP = (
    "generator output changed for {ref!r}: bump GENERATOR_VERSION in "
    "src/repro/traces/refs.py (cached results are keyed by it, not by the "
    "records) and re-pin PINS and PINNED_VERSION in this file"
)


def test_pins_are_for_the_current_generator_version():
    assert GENERATOR_VERSION == PINNED_VERSION, (
        f"GENERATOR_VERSION is {GENERATOR_VERSION} but these pins were taken at "
        f"{PINNED_VERSION}: re-pin PINS from the new generators and update PINNED_VERSION"
    )


def test_every_synthetic_generator_is_pinned():
    pinned = {ref.split(":", 1)[1].split("?", 1)[0] for ref in PINS if ref.startswith("synthetic:")}
    assert pinned == set(GENERATORS)


@pytest.mark.parametrize("ref", sorted(PINS))
def test_generator_output_is_pinned(ref):
    resolved = [(t.name, len(t), t.content_digest()) for t in resolve_trace_ref(ref)]
    assert resolved == PINS[ref], BUMP.format(ref=ref)
