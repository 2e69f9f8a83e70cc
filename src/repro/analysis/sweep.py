"""Predictor-size scaling helpers for the Figure 9 sweep.

Figure 9 scales TAGE and TAGE-LSC from 128 Kbits to 32 Mbits "just by
scaling the sizes of all the components by a power of two".  These helpers
produce the scaled configurations/predictors for a given power-of-two
factor relative to the reference (~512 Kbit-class) predictor.

They are also exposed through the predictor registry as the
``scaled-tage`` and ``scaled-tage-lsc`` kinds (config key
``log2_factor``), so sweeps can be described as picklable specs and fanned
out with :meth:`~repro.api.runner.Runner.run_suites`::

    PredictorSpec("scaled-tage-lsc", {"log2_factor": 2})
"""

from __future__ import annotations

from repro.core.composed import TAGELSCPredictor
from repro.core.config import TAGEConfig, make_reference_tage_config
from repro.core.statistical_corrector import StatisticalCorrectorConfig
from repro.core.tage import TAGEPredictor
from repro.predictors.registry import PredictorSpec

__all__ = [
    "fig9_specs",
    "scaled_spec",
    "scaled_tage",
    "scaled_tage_config",
    "scaled_tage_lsc",
]


def scaled_tage_config(log2_factor: int) -> TAGEConfig:
    """Reference TAGE configuration scaled by ``2**log2_factor``."""
    return make_reference_tage_config().scaled(log2_factor)


def scaled_tage(log2_factor: int) -> TAGEPredictor:
    """A TAGE predictor scaled by ``2**log2_factor`` from the reference."""
    return TAGEPredictor(scaled_tage_config(log2_factor))


def scaled_tage_lsc(log2_factor: int) -> TAGELSCPredictor:
    """A TAGE-LSC predictor scaled by ``2**log2_factor`` from the reference.

    Both the TAGE component and the local corrector tables are scaled, as
    Figure 9 does ("scaling the sizes of all the components").
    """
    lsc_log2_entries = max(4, 10 + log2_factor)
    lsc_config = StatisticalCorrectorConfig(
        history_lengths=(0, 4, 10, 17, 31),
        log2_entries=lsc_log2_entries,
        counter_bits=6,
    )
    local_history_entries = max(16, 64 * (2 ** max(0, log2_factor)))
    return TAGELSCPredictor(
        config=scaled_tage_config(log2_factor),
        lsc_config=lsc_config,
        local_history_entries=local_history_entries,
    )


def scaled_spec(kind: str, log2_factor: int) -> PredictorSpec:
    """The registry spec of a scaled predictor: pure data, pool- and JSON-safe.

    ``kind`` is ``"tage"`` or ``"tage-lsc"``; the returned spec names the
    corresponding ``scaled-*`` registry kind, so sweeps travel through the
    run API (:class:`~repro.api.request.RunRequest`) and the parallel
    scheduler without holding live predictors.
    """
    if kind not in ("tage", "tage-lsc"):
        raise ValueError(f"scaled_spec supports 'tage' and 'tage-lsc', got {kind!r}")
    registered = "scaled-tage" if kind == "tage" else "scaled-tage-lsc"
    return PredictorSpec(registered, {"log2_factor": log2_factor})


def fig9_specs(
    log2_factors: list[int],
) -> list[tuple[int, PredictorSpec, PredictorSpec]]:
    """(factor, TAGE spec, TAGE-LSC spec) for every Figure 9 scale point."""
    return [
        (factor, scaled_spec("tage", factor), scaled_spec("tage-lsc", factor))
        for factor in log2_factors
    ]
