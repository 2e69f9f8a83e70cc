"""Compose a custom TAGE-based predictor and a custom workload.

Shows the extension points of the library:

* dimension a TAGE predictor from high-level knobs (``TAGEConfig.generate``),
* attach any subset of the paper's side predictors through the
  ``"augmented-tage"`` registry kind (a thin front over
  :class:`repro.core.AugmentedTAGE`; the resulting specs are picklable
  and ready for :class:`repro.api.Runner`'s worker pool),
* describe a workload explicitly with the synthetic behaviour classes and
  check which behaviours each predictor variant captures.

Run with::

    python examples/build_a_custom_predictor.py
"""

from __future__ import annotations

from collections import defaultdict

from repro.core import LoopPredictor, TAGEConfig
from repro.core.statistical_corrector import LocalStatisticalCorrector
from repro.predictors.registry import create
from repro.traces.synthetic import (
    BiasedBranch,
    GloballyCorrelatedBranch,
    LocalPatternBranch,
    LoopBranch,
    WorkloadSpec,
    generate_workload,
)


def per_site_mispredictions(predictor, trace) -> dict[str, tuple[int, int]]:
    """Simulate and return (occurrences, mispredictions) per behaviour label."""
    stats: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for record in trace:
        info = predictor.predict(record.pc)
        stats[record.site][0] += 1
        stats[record.site][1] += int(info.taken != record.taken)
        predictor.update_history(record.pc, record.taken, info)
        predictor.update(record.pc, record.taken, info)
    return {site: (count, wrong) for site, (count, wrong) in stats.items()}


def main() -> None:
    # A small 8-component TAGE sized for a ~128 Kbit budget.
    config = TAGEConfig.generate(
        num_tagged_tables=7, min_history=5, max_history=400,
        base_log2_entries=10, bimodal_log2_entries=13,
    )
    print(config.describe())

    variants = {
        "tage only": create("augmented-tage", config=config, use_ium=False, name="tage"),
        "tage + loop": create("augmented-tage", config=config, use_ium=False,
                              loop_predictor=LoopPredictor(), name="tage+loop"),
        "tage + lsc": create("augmented-tage", config=config, use_ium=False,
                             local_corrector=LocalStatisticalCorrector(),
                             name="tage+lsc"),
    }

    # A workload with one representative of each behaviour class.
    spec = WorkloadSpec()
    spec.add(LoopBranch(0x1000, iterations=19, body_branches=2, body_bias=0.85), weight=2.0)
    spec.add(BiasedBranch(0x2000, 0.92), weight=3.0)
    spec.add(BiasedBranch(0x3000, 0.65), weight=2.0)
    spec.add(GloballyCorrelatedBranch(0x4000, source_pc=0x3000), weight=2.0)
    spec.add(LocalPatternBranch(0x5000, (True, True, False, True, False, False)), weight=2.0)
    trace = generate_workload(spec, 20_000, seed=7, name="custom")
    print("\nworkload:", trace.summary())

    for name, predictor in variants.items():
        breakdown = per_site_mispredictions(predictor, trace)
        print(f"\n{name}  ({predictor.storage_bits / 1024:.0f} Kbits)")
        for site, (count, wrong) in sorted(breakdown.items()):
            print(f"  {site:<16} {count:>6} branches  {100 * wrong / count:5.1f}% mispredicted")


if __name__ == "__main__":
    main()
