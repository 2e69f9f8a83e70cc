"""Compare a pytest-benchmark JSON run against a committed baseline.

CI machines differ in speed from whatever produced the baseline, so a
naive per-benchmark time comparison would flag an entire slow runner as
a regression.  The check is *machine-normalized* and *per-bench*:

* Every time is divided by the time of ``bench_machine_calibration.py``
  in the same run, a fixed workload that imports nothing from ``repro``.
  A change that speeds up many benches therefore cannot make the benches
  it never touched look slower, as normalizing by the median over all
  benches would.
* Each bench has its own *noise band*: the max/min spread of its
  normalized time over repeated baseline runs, stored with the baseline.
  A bench fails when its normalized time exceeds the baseline median by
  more than ``min(--max-ratio, BAND_MARGIN * band)``.  So no limit is
  looser than ``--max-ratio`` (default 2.0), and a quiet bench gets a
  tighter one, down to 1.5x.

Usage::

    python benchmarks/check_regression.py benchmarks/BENCH_baseline.json BENCH_current.json

Exit status 1 on regression or when either side lacks the calibration
bench, 0 otherwise (including when the files share no other benchmark —
a renamed suite is not a perf regression).  Regenerate the baseline from
three or more repeated runs of the quick-mode benches::

    for i in 1 2 3; do
        PYTHONPATH=src REPRO_BENCH_BRANCHES=500 python -m pytest benchmarks/bench_*.py \
            -q --benchmark-json=run$i.json
    done
    python benchmarks/check_regression.py --make-baseline benchmarks/BENCH_baseline.json \
        run1.json run2.json run3.json
"""

from __future__ import annotations

import argparse
import json
import statistics

CALIBRATION = "benchmarks/bench_machine_calibration.py::test_bench_machine_calibration"
#: A bench's limit is this many times its noise band (capped at --max-ratio):
#: a few baseline runs understate the spread a CI runner sees.
BAND_MARGIN = 1.5


def load_times(path: str) -> dict[str, float]:
    """``{fullname: median seconds}`` from a pytest-benchmark JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    times = {}
    for bench in payload.get("benchmarks", []):
        median = bench.get("stats", {}).get("median")
        if median:
            times[bench["fullname"]] = median
    return times


def normalized(times: dict[str, float]) -> dict[str, float] | None:
    """Every bench's time over the calibration bench's, or None without it."""
    calibration = times.get(CALIBRATION)
    if not calibration:
        return None
    return {name: t / calibration for name, t in times.items() if name != CALIBRATION}


def make_baseline(out: str, runs: list[str]) -> int:
    """Write the baseline: per bench, its median normalized time and spread over ``runs``."""
    times = [normalized(load_times(run)) for run in runs]
    if None in times:
        print(f"every run needs {CALIBRATION}")
        return 1
    common = sorted(set.intersection(*(set(run) for run in times)))
    benchmarks = {}
    for name in common:
        samples = [run[name] for run in times]
        benchmarks[name] = {
            "relative": statistics.median(samples),
            "band": round(max(samples) / min(samples), 3),
        }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"runs": len(runs), "benchmarks": benchmarks}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out}: {len(common)} benchmarks over {len(runs)} runs")
    return 0


def check(baseline_path: str, current_path: str, max_ratio: float) -> int:
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)["benchmarks"]
    current = normalized(load_times(current_path))
    if current is None:
        print(f"FAIL: {current_path} has no {CALIBRATION} to normalize by")
        return 1
    common = sorted(set(baseline) & set(current))
    new = sorted(set(current) - set(baseline))
    gone = sorted(set(baseline) - set(current))
    if new:
        print(f"note: {len(new)} benchmark(s) not in the baseline (regenerate it): "
              + ", ".join(new[:5]) + ("…" if len(new) > 5 else ""))
    if gone:
        print(f"note: {len(gone)} baseline benchmark(s) missing from this run: "
              + ", ".join(gone[:5]) + ("…" if len(gone) > 5 else ""))
    if not common:
        print("no common benchmarks between baseline and current run; nothing to compare")
        return 0

    ratios = {name: current[name] / baseline[name]["relative"] for name in common}
    limits = {name: min(max_ratio, BAND_MARGIN * baseline[name]["band"]) for name in common}
    print(f"{len(common)} benchmarks normalized by the calibration bench, "
          f"per-benchmark limits {min(limits.values()):.2f}-{max(limits.values()):.2f}x")

    offenders = [name for name in common if ratios[name] > limits[name]]
    worst = max(common, key=lambda name: ratios[name] / limits[name])
    for name in sorted(set(offenders) | {worst}):
        marker = "REGRESSION" if name in offenders else "ok"
        print(f"  {marker:>10}  {ratios[name]:6.2f}x (limit {limits[name]:.2f}x)  {name}")

    if offenders:
        print(f"FAIL: {len(offenders)} benchmark(s) slowed beyond their noise band")
        return 1
    print("perf check passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON (written by --make-baseline)")
    parser.add_argument("current", nargs="+",
                        help="this run's BENCH_*.json (with --make-baseline: the repeated runs)")
    parser.add_argument("--make-baseline", action="store_true",
                        help="write BASELINE from the repeated runs instead of checking")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="the loosest per-benchmark limit on the normalized "
                             "slowdown (default 2.0)")
    args = parser.parse_args(argv)
    if args.make_baseline:
        return make_baseline(args.baseline, args.current)
    if len(args.current) != 1:
        parser.error("checking takes exactly one current run")
    return check(args.baseline, args.current[0], args.max_ratio)


if __name__ == "__main__":
    raise SystemExit(main())
