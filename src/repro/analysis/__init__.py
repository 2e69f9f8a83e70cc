"""Experiment drivers regenerating the paper's tables and figures.

Each experiment of the paper's evaluation (``repro list experiments``
names them all) has a driver function in :mod:`repro.analysis.experiments` that
takes a list of traces, runs the required simulations and returns a
structured result with a ``to_table()`` rendering.  The benchmark harness
under ``benchmarks/`` is a thin wrapper over these drivers; they can also
be called directly from notebooks or scripts.
"""

from repro.analysis.experiments import (
    ExperimentTable,
    run_access_counts,
    run_bank_interleaving,
    run_cost_effective,
    run_fig9_size_sweep,
    run_fig10_hard_traces,
    run_history_robustness,
    run_ium_recovery,
    run_side_predictor_stack,
    run_suite_characteristics,
    run_update_scenarios,
)
from repro.analysis.reporting import format_table
from repro.analysis.sweep import scaled_tage_config, scaled_tage_lsc

__all__ = [
    "ExperimentTable",
    "format_table",
    "run_access_counts",
    "run_bank_interleaving",
    "run_cost_effective",
    "run_fig9_size_sweep",
    "run_fig10_hard_traces",
    "run_history_robustness",
    "run_ium_recovery",
    "run_side_predictor_stack",
    "run_suite_characteristics",
    "run_update_scenarios",
    "scaled_tage_config",
    "scaled_tage_lsc",
]
