"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload paper-composites --seed 1 --seconds 20 --trace 0

or every workload, printing each named metric with its unit::

    python3 perfbench/run.py --all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` first runs the same workload untraced in a child process,
then again with span timers around every layer's public entry points; it
reports the per-layer metrics, prints the per-layer self-time table, the
tracing overhead, and writes the spans as a Chrome/Perfetto trace under
``.perfbench_out/``.

Every run checks its results: payload invariants, cross-path parity
(cache hit vs fresh run; service and fleet payloads vs
``suite_payload(Runner.run_batch(...))``), and at the baseline seed the
golden digests in ``perfbench/golden.json``.  A wrong result counts as a
failed operation and makes the run exit non-zero.  ``--write-golden``
records the digest instead.

``setup_s`` is the median of several set-ups: this process's own and
``SETUP_PROBES`` more, each in a fresh child process that imports repro,
builds the workload, serves its first request and tears it down.  Half
the probes run before the measured window and half after it, so the
samples span the whole run.

``hostspeed.HostSpeed`` probes how fast the host runs from the first
set-up to the end of the run (see that module).  Each set-up is reported
at reference host speed, scaled by the slowdown during it, and so are
the timings a workload lists in ``SCALED``: a throughput by the slowdown
over the measured window, a latency by the slowdown during its
operation.  The human-readable lines print them as measured too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOAD_NAMES = ("paper-composites", "long-trace", "serve-mixed", "fleet-small-jobs")
#: Set-ups timed in fresh processes per untraced run, besides the run's own.
SETUP_PROBES = 4


def tree_rss_bytes(root_pid: int, excluded: set[int]) -> int:
    """Resident bytes of ``root_pid`` plus its live descendants not in ``excluded``."""
    total = 0
    frontier = [root_pid]
    while frontier:
        pid = frontier.pop()
        if pid in excluded:
            continue
        try:
            with open(f"/proc/{pid}/statm", "rb") as handle:
                total += int(handle.read().split()[1])
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children", "rb") as handle:
                    frontier.extend(int(child) for child in handle.read().split())
        except OSError:
            continue  # the process exited between listing and reading
    return total * os.sysconf("SC_PAGE_SIZE")


class RssSampler(threading.Thread):
    """Peak resident memory of this process tree, sampled every 100 ms.

    ``RUSAGE_CHILDREN`` only covers children that have exited, so live
    pool workers are read from ``/proc`` instead.
    """

    def __init__(self, excluded: set[int]) -> None:
        super().__init__(daemon=True)
        self.peak = 0
        #: The benchmark's own helper processes, which are not counted.
        self.excluded = excluded
        self._stop_event = threading.Event()

    def sample(self) -> None:
        self.peak = max(self.peak, tree_rss_bytes(os.getpid(), self.excluded))

    def run(self) -> None:
        while not self._stop_event.wait(0.1):
            self.sample()

    def stop(self) -> float:
        self._stop_event.set()
        self.join()
        self.sample()
        return self.peak / 2**20


def last_json_line(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError(f"no JSON result in child output:\n{text[-2000:]}")


def child(args: list[str], timeout: float) -> dict:
    """Run this script in a fresh process; returns its JSON result."""
    completed = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                               cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if completed.returncode != 0:
        raise RuntimeError(f"child {args} exited {completed.returncode}:\n"
                           f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}")
    return last_json_line(completed.stdout)


def load_golden() -> dict:
    if not os.path.exists(GOLDEN):
        return {"seed": None, "digests": {}}
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def setup_probe(name: str, seed: int, tmpdir: str) -> None:
    """Child-process mode: time import + set-up, then tear down."""
    start = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tmpdir)
    workload.setup()
    end = time.perf_counter()
    workload.teardown()
    print(json.dumps({"start": start, "end": end}))


def op_spread(name: str) -> float:
    """IQR/median of ``op_p50_s`` over the recorded steadiness runs."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as handle:
        steadiness = json.load(handle)["steadiness"]["workloads"]
    return steadiness[name]["metrics"]["op_p50_s"]["spread"]


def check_golden(workload, seed: int, write: bool) -> None:
    golden = load_golden()
    found = workload.golden_digest()
    if write:
        if found is None:
            workload.fail("golden: the run did not reach the digested operations")
            return
        golden["seed"] = seed
        golden["digests"][workload.name] = found
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"golden digest for {workload.name} at seed {seed}: {found}")
        return
    expected = golden["digests"].get(workload.name)
    if seed != golden["seed"] or expected is None:
        return
    if found != expected:
        workload.fail(f"golden: digest {found} != committed {expected}")


def probe_setups(opts, count: int) -> list[tuple[float, float]]:
    """``(start, end)`` perf_counter times of ``count`` fresh-process set-ups."""
    if opts.trace or opts.untraced_child:
        return []
    spans = []
    for _ in range(count):
        result = child(["--setup-probe", "--workload", opts.workload, "--seed", str(opts.seed)],
                       timeout=60)
        spans.append((result["start"], result["end"]))
    return spans


def run_workload(opts) -> int:
    if opts.trace:
        untraced = child(["--workload", opts.workload, "--seed", str(opts.seed),
                          "--seconds", str(opts.seconds), "--trace", "0",
                          "--untraced-child"], timeout=170)
    host = HostSpeed().start()
    sampler = RssSampler({proc.pid for proc in host.procs})
    tmpdir = os.path.join(ROOT, ".perfbench_tmp", f"{opts.workload}-{os.getpid()}")
    try:
        os.makedirs(tmpdir, exist_ok=True)
        setups = probe_setups(opts, SETUP_PROBES // 2)
        sampler.start()
        start = time.perf_counter()
        recorder = None
        if opts.trace:
            import tracing

            recorder = tracing.install(f"{opts.workload}-{opts.seed}-{os.getpid()}")
        from timer import set_recorder
        from workloads import WORKLOADS

        workload = WORKLOADS[opts.workload](opts.seed, tmpdir)
        workload.setup()
        setups.append((start, time.perf_counter()))
        opened = time.perf_counter()
        try:
            workload.measure(opts.seconds)
        finally:
            workload.window = (opened, time.perf_counter())
            set_recorder(None)  # tear-down and result checks are not traced
            traced_until = time.time()
            rss_peak_mib = sampler.stop()
            workload.teardown()
        setups += probe_setups(opts, SETUP_PROBES + 1 - len(setups))
        workload.verify()
        check_golden(workload, opts.seed, opts.write_golden)
        host.stop()
    finally:
        host.close()
        if sampler.is_alive():
            sampler.stop()
        shutil.rmtree(tmpdir, ignore_errors=True)

    slowdown = host.slowdown(*workload.window)
    measured = workload.end_to_end()
    e2e = workload.end_to_end(host)
    units = {"setup_s": "s", "sim_branches_per_s": "1/s", "op_p50_s": "s",
             "rss_peak_mib": "MiB"}
    values = {"setup_s": statistics.median((end - start) / host.slowdown(start, end)
                                           for start, end in setups),
              **e2e, "rss_peak_mib": rss_peak_mib}
    attempted = max(workload.attempted, 1)
    print(f"== {opts.workload} seed={opts.seed} seconds={opts.seconds} trace={opts.trace}")
    named = {name: (values[name], unit) for name, unit in units.items()}
    named["host_slowdown"] = (slowdown, "ratio")
    named["setup_s.as_measured"] = (statistics.median(end - start for start, end in setups), "s")
    named.update({f"{name}.as_measured": (measured[name], units[name])
                  for name in workload.SCALED})
    named.update(workload.detail())
    named["error_rate"] = (workload.failed / attempted, "ratio")
    for name, (value, unit) in named.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    for error in workload.errors[:20]:
        print(f"  ERROR {error}")
    if len(workload.errors) > 20:
        print(f"  ... and {len(workload.errors) - 20} more errors")

    if opts.trace:
        import tracing
        from repro.obs import to_chrome_trace

        per_layer = tracing.layer_metrics(recorder, workload.documents, workload.refused,
                                          workload.observed_at)
        per_layer["trace.wall_s"] = workload.wall
        baseline = untraced["metrics"]["op_p50_s"]["value"]
        per_layer["trace.overhead_ratio"] = (
            e2e["op_p50_s"] / baseline - 1.0 if baseline > 0 else 0.0)
        per_layer["trace.timer_s"] = tracing.timer_cost(recorder)
        print(tracing.self_time_table(recorder, traced_until))
        print(f"tracing overhead: op_p50_s {e2e['op_p50_s']:.6g} s traced vs "
              f"{baseline:.6g} s untraced ({per_layer['trace.overhead_ratio']:+.1%}); "
              f"untraced runs of this workload spread {op_spread(opts.workload):.0%} "
              f"(IQR/median), so a smaller difference is noise")
        print(f"timer cost: {per_layer['trace.timer_s']:.3f} s over {workload.wall:.3f} s "
              f"({len(recorder.spans)} spans, including the ipc timers' re-pickling)")
        out = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"{opts.workload}-{opts.seed}.trace.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(to_chrome_trace(recorder.spans), handle)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in per_layer.items()}
    else:
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    correct = not workload.errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(opts) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(opts.seed), "--seconds", str(opts.seconds),
             "--trace", str(opts.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        if completed.returncode != 0:
            print(completed.stderr[-2000:], file=sys.stderr)
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # The untraced twin of a traced run: no set-up probes.
    parser.add_argument("--untraced-child", action="store_true", help=argparse.SUPPRESS)
    opts = parser.parse_args()
    if not opts.all and opts.workload is None:
        parser.error("give --workload or --all")

    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [source, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [source, *filter(None, [os.environ.get("PYTHONPATH")])])

    if opts.all:
        return run_all(opts)
    if opts.setup_probe:
        tmpdir = os.path.join(ROOT, ".perfbench_tmp", f"probe-{os.getpid()}")
        try:
            setup_probe(opts.workload, opts.seed, tmpdir)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        return 0
    return run_workload(opts)


if __name__ == "__main__":
    sys.exit(main())
