"""The benchmark regression checker: calibration factor and per-bench noise bands."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"
_SPEC = importlib.util.spec_from_file_location("check_regression", _PATH)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)

CAL = check_regression.CALIBRATION


def _run(path: Path, times: dict[str, float]) -> str:
    benchmarks = [{"fullname": name, "stats": {"median": t}} for name, t in times.items()]
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return str(path)


@pytest.fixture
def baseline(tmp_path):
    """Three runs: ``quiet`` never moves, ``noisy`` spreads 1.5x."""
    runs = [
        _run(tmp_path / f"run{i}.json", {CAL: 0.1, "quiet": 1.0, "noisy": noisy,
                                          "fast-a": 1.0, "fast-b": 1.0})
        for i, noisy in enumerate((1.0, 1.5, 1.2))
    ]
    out = str(tmp_path / "baseline.json")
    check_regression.main(["--make-baseline", out, *runs])
    return out


def _check(tmp_path, baseline, times) -> int:
    return check_regression.main([baseline, _run(tmp_path / "current.json", times)])


def test_baseline_stores_median_and_spread(baseline):
    benchmarks = json.loads(Path(baseline).read_text())["benchmarks"]
    assert benchmarks["noisy"] == {"relative": pytest.approx(12.0), "band": 1.5}
    assert benchmarks["quiet"] == {"relative": pytest.approx(10.0), "band": 1.0}
    assert CAL not in benchmarks


def test_speeding_up_most_benches_does_not_flag_the_rest(tmp_path, baseline):
    # Normalised by the median over benches, "quiet" would read 4x slower.
    times = {CAL: 0.1, "quiet": 1.0, "noisy": 0.3, "fast-a": 0.25, "fast-b": 0.25}
    assert _check(tmp_path, baseline, times) == 0


def test_a_slower_machine_is_not_a_regression(tmp_path, baseline):
    times = {CAL: 0.3, "quiet": 3.0, "noisy": 3.6, "fast-a": 3.0, "fast-b": 3.0}
    assert _check(tmp_path, baseline, times) == 0


def test_a_quiet_bench_gets_a_tight_limit(tmp_path, baseline, capsys):
    times = {CAL: 0.1, "quiet": 1.6, "noisy": 1.2, "fast-a": 1.0, "fast-b": 1.0}
    assert _check(tmp_path, baseline, times) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_a_noisy_bench_is_capped_at_twice_the_machine_factor(tmp_path, baseline):
    # band 1.5 * BAND_MARGIN 1.5 = 2.25, capped at --max-ratio 2.0.
    ok = {CAL: 0.1, "quiet": 1.0, "noisy": 1.2 * 1.9, "fast-a": 1.0, "fast-b": 1.0}
    assert _check(tmp_path, baseline, ok) == 0
    slow = dict(ok, noisy=1.2 * 2.1)
    assert _check(tmp_path, baseline, slow) == 1


def test_a_run_without_the_calibration_bench_fails(tmp_path, baseline):
    times = {"quiet": 1.0, "noisy": 1.2, "fast-a": 1.0, "fast-b": 1.0}
    assert _check(tmp_path, baseline, times) == 1
