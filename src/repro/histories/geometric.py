"""Geometric history-length series.

The TAGE and GEHL families index their component tables with history
lengths that form a geometric series,

    L(i) = int(alpha**(i-1) * L(1) + 0.5),

so that most of the storage observes short histories while a few tables
capture correlation with branches hundreds or thousands of branches in the
past (Section 3 of the paper).  The reference TAGE predictor uses the
(6, 2000) series over 12 tagged tables; Section 6.2 evaluates (3, 300),
(4, 1000), (8, 5000), (6, 1000) and (6, 500) variants.
"""

from __future__ import annotations

__all__ = ["geometric_series"]


def geometric_series(min_length: int, max_length: int, count: int) -> list[int]:
    """Return ``count`` history lengths growing geometrically.

    Parameters
    ----------
    min_length:
        History length of the first (shortest) tagged table, ``L(1)``.
    max_length:
        History length of the last (longest) tagged table, ``L(count)``.
    count:
        Number of tagged tables.

    Returns
    -------
    list[int]
        Monotonically non-decreasing history lengths.  Adjacent duplicates
        produced by rounding at small lengths are nudged apart so that each
        table observes a distinct history length, matching the behaviour of
        the released TAGE simulators.

    >>> geometric_series(6, 2000, 12)[0]
    6
    >>> geometric_series(6, 2000, 12)[-1]
    2000
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if min_length < 1:
        raise ValueError("min_length must be at least 1")
    if max_length < min_length:
        raise ValueError("max_length must be >= min_length")
    if count == 1:
        return [min_length]

    alpha = (max_length / min_length) ** (1.0 / (count - 1))
    lengths = [int(alpha ** i * min_length + 0.5) for i in range(count)]
    lengths[0] = min_length
    lengths[-1] = max_length

    # Rounding can collapse the shortest lengths onto each other (e.g. a
    # (3, 300) series over many tables); keep them strictly increasing.
    for i in range(1, count):
        if lengths[i] <= lengths[i - 1]:
            lengths[i] = lengths[i - 1] + 1
    if lengths[-1] < max_length:
        lengths[-1] = max_length
    return lengths


def validate_series(lengths: list[int]) -> None:
    """Raise ``ValueError`` unless ``lengths`` is a valid increasing series."""
    if not lengths:
        raise ValueError("history series must not be empty")
    if any(length < 1 for length in lengths):
        raise ValueError("history lengths must be positive")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"history lengths must be strictly increasing, got {lengths}")

