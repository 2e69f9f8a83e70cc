"""Shared low-level building blocks used across the predictor implementations.

The module groups the small hardware-flavoured primitives that every branch
predictor in this package is built from:

* saturating counters, both as scalar helpers and as a list-backed table
  of signed counters (:mod:`repro.common.counters`),
* bit-manipulation helpers used by index/tag hash functions
  (:mod:`repro.common.bits`),
* storage accounting helpers used to size predictors against a bit budget
  (:mod:`repro.common.storage`).
"""

from repro.common.bits import bit_select, fold_bits, mask, mix_hash
from repro.common.counters import (
    SaturatingCounter,
    SignedCounterTable,
    clamp,
    saturating_update,
)
from repro.common.storage import StorageItem, StorageReport

__all__ = [
    "SaturatingCounter",
    "SignedCounterTable",
    "StorageItem",
    "StorageReport",
    "bit_select",
    "clamp",
    "fold_bits",
    "mask",
    "mix_hash",
    "saturating_update",
]
