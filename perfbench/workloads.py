"""The four benchmark workloads.

Each workload drives repro only through its public API and derives every
input (trace seeds, request mix, arrival schedule) from the workload seed,
so the program under test receives nothing but the generated requests.

* ``paper-composites`` — the paper's own experiment: TAGE, ISL-TAGE and
  TAGE-LSC under immediate [I] and realistic delayed [C] update over two
  ``hard:`` traces, one ``Runner.run_batch`` with an ephemeral two-worker
  pool per batch (a fresh ``repro run``).  The interp engine does nearly
  all the work; trace plumbing is a few percent.
* ``long-trace`` — gshare and bimodal on the numpy backend plus gshare on
  interp over a fresh 400k-branch trace per pass (above the 200k auto-shard
  threshold, so the interp run fans out as warmup shards), then the interp
  request re-run by fresh runners against the now-warm result cache.
  Trace generation, fingerprinting, cache and pickling dominate.
* ``serve-mixed`` — the HTTP service with priority lanes: an open-loop
  interactive stream of short gshare/bimodal runs at a fixed rate plus a
  closed-loop batch stream keeping one 20k-branch ISL-TAGE/TAGE-LSC job in
  flight.  Its operation latency is the interactive request's, timed from
  its due time; the batch job latency is reported beside it.
* ``fleet-small-jobs`` — a file-broker service drained by two in-process
  fleet workers, each simulating in its own one-process pool; two
  closed-loop clients keep one tiny job in flight each.

``op_p50_s`` is the median latency of each workload's operation: a batch,
a cache-hit re-run, an interactive request, a fleet job.  ``SCALED``
names the end-to-end timings that are CPU-bound and so are reported at
reference host speed: not the serve-mixed throughput, which the fixed
arrival rate sets, nor the fleet job latency, which the broker poll
period sets.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time

from repro.api import Runner, RunnerConfig, RunRequest, suite_payload
from repro.distrib import FileBroker, FleetWorker
from repro.predictors import PredictorSpec
from repro.service import (
    QueueFullError,
    ServiceClient,
    ServiceClientError,
    SimulationService,
    make_server,
)

from timer import timed

#: Synthetic generators the small jobs draw from.
GENERATORS = ("biased", "loop", "local-pattern", "pointer-chase", "correlated", "mixed")

#: Payload fields the golden digest pins.
DIGEST_FIELDS = ("predictor", "trace", "scenario", "branches", "instructions",
                 "mispredictions", "per_trace")


def derive(seed: int, *labels) -> int:
    """A stable 31-bit seed for one input, derived from the workload seed."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def digest(payloads: list[dict]) -> str:
    reduced = [{field: payload[field] for field in DIGEST_FIELDS} for payload in payloads]
    return hashlib.sha256(canonical(reduced).encode()).hexdigest()


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Workload:
    """Shared bookkeeping: operations, latencies, payloads, failures."""

    name = ""
    #: Leading operations per stream that the golden digest covers.
    golden_ops: dict[str, int] = {}
    #: Latency charged to a failed or refused operation (it misses any limit).
    timeout = 60.0
    #: End-to-end timings reported at reference host speed.
    SCALED: tuple[str, ...] = ("sim_branches_per_s", "op_p50_s")

    def __init__(self, seed: int, tmpdir: str) -> None:
        self.seed = seed
        self.tmpdir = tmpdir
        self.attempted = 0
        self.failed = 0
        self.branches = 0
        self.latencies: list[float] = []
        #: perf_counter time each operation in ``latencies`` ended.
        self.op_ends: list[float] = []
        self.errors: list[str] = []
        #: (stream, index) -> result payloads, for digests and parity checks.
        self.payloads: dict[tuple[str, int], list[dict]] = {}
        #: (stream, index) -> the requests that produced them.
        self.requests: dict[tuple[str, int], list[RunRequest]] = {}
        self.documents: list[dict] = []
        self.refused = 0
        self.observed_at: dict[str, float] = {}
        self.wall = 0.0
        #: perf_counter times the measured window opened and closed; the
        #: driver sets them around ``measure``.
        self.window = (0.0, 0.0)
        self._lock = threading.RLock()

    # -- lifecycle -------------------------------------------------------
    def setup(self) -> None:
        """Construct everything; returns once the first request is served."""

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop every thread and process the workload started."""

    # -- bookkeeping -----------------------------------------------------
    def fail(self, message: str) -> None:
        """Count one failed or wrong operation and keep its message."""
        with self._lock:
            self.failed += 1
            self.errors.append(f"{self.name} {message}")

    def record(self, key: tuple[str, int], requests: list[RunRequest],
               payloads: list[dict] | None, latency: float, error: str | None = None,
               latency_sample: bool = True, simulated: bool = True) -> None:
        with self._lock:
            self.attempted += 1
            if payloads is None:
                latency = self.timeout
                self.fail(f"{key}: {error}")
            else:
                if simulated:
                    self.branches += sum(payload["branches"] for payload in payloads)
                self.payloads[key] = payloads
                self.requests[key] = requests
            if latency_sample:
                self.latencies.append(latency)
                self.op_ends.append(time.perf_counter())

    def guarded(self, name: str, target, *args) -> threading.Thread:
        """A client thread whose unexpected failure fails the run."""
        def run() -> None:
            try:
                target(*args)
            except Exception as error:  # noqa: BLE001 - reported as a wrong run
                self.fail(f"client thread died: {error!r}")
        return threading.Thread(target=run, name=name)

    def golden_digest(self) -> str | None:
        """Digest of the leading operations' payloads; None if any is missing."""
        ordered: list[dict] = []
        for stream, count in sorted(self.golden_ops.items()):
            for index in range(count):
                if (stream, index) not in self.payloads:
                    return None
                ordered.extend(self.payloads[(stream, index)])
        return digest(ordered)

    def check_against_runner(self) -> None:
        """Cross-path parity: every payload must equal a local ``run_batch``."""
        distinct: dict[str, RunRequest] = {}
        for requests in self.requests.values():
            for request in requests:
                distinct.setdefault(request.to_json(sort_keys=True), request)
        batch = list(distinct.values())
        results = Runner(RunnerConfig(workers=2)).run_batch(batch)
        expected = {key: canonical(suite_payload(request, result))
                    for key, request, result in zip(distinct, batch, results)}
        for key, requests in self.requests.items():
            for request, payload in zip(requests, self.payloads[key]):
                wanted = expected[request.to_json(sort_keys=True)]
                if canonical(payload) != wanted:
                    wanted = json.loads(wanted)
                    differing = {field: (payload.get(field), wanted.get(field))
                                 for field in sorted({*payload, *wanted})
                                 if payload.get(field) != wanted.get(field)}
                    self.fail(f"{key}: payload differs from suite_payload(Runner.run_batch) "
                              f"for {request.to_json(sort_keys=True)}: "
                              f"(got, expected) by field {differing}")

    def verify(self) -> None:
        """Count every wrong result as a failed operation."""
        for key, payloads in self.payloads.items():
            for payload in payloads:
                if not (0 <= payload["mispredictions"] <= payload["branches"]
                        <= payload["instructions"]):
                    self.fail(f"{key}: implausible counts {payload}")

    # -- metrics ---------------------------------------------------------
    def throughput(self) -> float:
        """Simulated branches per second of the measured window."""
        return self.branches / self.wall if self.wall > 0 else 0.0

    def end_to_end(self, host=None) -> dict[str, float]:
        """The gated timings; those in ``SCALED`` at reference speed if the
        window's ``hostspeed.HostSpeed`` is given, else as measured."""
        rate, latencies = self.throughput(), self.latencies
        if host is not None and "sim_branches_per_s" in self.SCALED:
            rate *= host.slowdown(*self.window)
        if host is not None and "op_p50_s" in self.SCALED:
            latencies = [latency / host.slowdown(end - latency, end)
                         for latency, end in zip(self.latencies, self.op_ends)]
        return {"sim_branches_per_s": rate, "op_p50_s": percentile(latencies, 0.50)}

    def detail(self) -> dict[str, tuple[float, str]]:
        """The workload's own named metrics, with units."""
        return {}


class PaperComposites(Workload):
    name = "paper-composites"
    golden_ops = {"batch": 1}
    KINDS = ("tage", "isl-tage", "tage-lsc")
    SCENARIOS = ("I", "C")
    TRACES = ("INT01", "MM05")
    BRANCHES = 2000

    def batch(self, index: int) -> list[RunRequest]:
        seed = derive(self.seed, "batch", index)
        return [RunRequest(kind, f"hard:{trace}?branches={self.BRANCHES}&seed={seed}",
                           scenario=scenario)
                for kind in self.KINDS for scenario in self.SCENARIOS for trace in self.TRACES]

    def setup(self) -> None:
        self.config = RunnerConfig(workers=2)
        self.runner = Runner(self.config)

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        index = 0
        runner = self.runner
        while time.perf_counter() - start < seconds:
            requests = self.batch(index)
            began = time.perf_counter()
            try:
                with timed("bench.batch", "driver"):
                    results = runner.run_batch(requests)
                    payloads = [suite_payload(r, s) for r, s in zip(requests, results)]
            except Exception as error:  # noqa: BLE001 - a failed batch is counted, not fatal
                self.record(("batch", index), requests, None, 0.0, repr(error))
            else:
                self.record(("batch", index), requests, payloads, time.perf_counter() - began)
            index += 1
            runner = Runner(self.config)  # the next batch is a fresh ``repro run``
        self.wall = time.perf_counter() - start

    def verify(self) -> None:
        super().verify()
        for key, payloads in self.payloads.items():
            for payload in payloads:
                # Generators finish their last behaviour chunk, so a trace
                # may run a few branches past the requested length.
                if payload["branches"] < self.BRANCHES or payload["traces"] != 1:
                    self.fail(f"{key}: wrong branch count {payload}")


class LongTrace(Workload):
    name = "long-trace"
    golden_ops = {"pass": 1}
    BRANCHES = 400_000
    #: Cache-hit re-runs per pass.
    RERUNS = 3

    def batch(self, index: int) -> list[RunRequest]:
        # One fresh trace per pass.  The ``mixed`` generator has a fixed
        # behaviour mix, so its generation cost barely moves with the seed
        # (about 6%); a suite trace draws its mix from the seed (35%).
        ref = f"synthetic:mixed?length={self.BRANCHES}&seed={derive(self.seed, 'pass', index)}"
        # The interp gshare uses a smaller table than the default: with the
        # same spec its shard tasks would deduplicate into the numpy ones.
        return [RunRequest("gshare", ref, backend="numpy"),
                RunRequest("bimodal", ref, backend="numpy"),
                RunRequest(PredictorSpec("gshare", {"log2_entries": 14}), ref)]

    def setup(self) -> None:
        self.config = RunnerConfig(workers=2, cache_dir=os.path.join(self.tmpdir, "cache"))
        self.runner = Runner(self.config)
        self.cache_hits = 0
        self.cache_lookups = 0
        #: (began, ended) perf_counter times of every simulating pass.
        self.pass_spans: list[tuple[float, float]] = []

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        index = 0
        runner = self.runner
        del self.runner  # each pass is a fresh ``repro run``; drop its traces after
        while time.perf_counter() - start < seconds:
            requests = self.batch(index)
            began = time.perf_counter()
            try:
                with timed("bench.pass", "driver"):
                    results = runner.run_batch(requests)
                    payloads = [suite_payload(r, s) for r, s in zip(requests, results)]
            except Exception as error:  # noqa: BLE001 - a failed pass is counted, not fatal
                self.record(("pass", index), requests, None, 0.0, repr(error), False)
                index += 1
                continue
            self.pass_spans.append((began, time.perf_counter()))
            self.record(("pass", index), requests, payloads, 0.0, latency_sample=False)
            # New ``repro run`` invocations of each interp request: every
            # result is cached now, so these time trace plumbing and lookups.
            for repeat in range(self.RERUNS):
                self.rerun(requests[2], (f"rerun{repeat}", index))
            index += 1
            runner = Runner(self.config)
        self.wall = time.perf_counter() - start

    def rerun(self, request: RunRequest, key: tuple[str, int]) -> None:
        rerun = Runner(self.config)
        began = time.perf_counter()
        try:
            with timed("bench.cache_hit", "driver"):
                hit = suite_payload(request, rerun.run_batch([request])[0])
        except Exception as error:  # noqa: BLE001
            self.record(key, [request], None, 0.0, repr(error))
            return
        self.record(key, [request], [hit], time.perf_counter() - began, simulated=False)
        self.cache_hits += rerun.cache.hits
        self.cache_lookups += rerun.cache.hits + rerun.cache.misses

    def throughput(self) -> float:
        # Throughput of the simulating passes; the re-runs simulate nothing.
        busy = sum(ended - began for began, ended in self.pass_spans)
        return self.branches / busy if busy else 0.0

    def end_to_end(self, host=None) -> dict[str, float]:
        metrics = super().end_to_end(host)
        if host is not None:
            # Each pass at the slowdown during it, not the window's: the
            # re-runs take about half the window.
            busy = sum((ended - began) / host.slowdown(began, ended)
                       for began, ended in self.pass_spans)
            metrics["sim_branches_per_s"] = self.branches / busy if busy else 0.0
        return metrics

    def verify(self) -> None:
        super().verify()
        for (stream, index), payloads in self.payloads.items():
            if stream.startswith("rerun"):
                if canonical(payloads[0]) != canonical(self.payloads[("pass", index)][2]):
                    self.fail(f"pass {index}: cache hit differs from "
                              f"the fresh run of {payloads[0]['trace']}")
                continue
            for payload in payloads:
                if payload["traces"] != 1 or payload["branches"] < self.BRANCHES:
                    self.fail(f"pass {index}: wrong trace shape")

    def detail(self) -> dict[str, tuple[float, str]]:
        return {"cache_hit_s": (percentile(self.latencies, 0.5), "s"),
                "cache_hit_ratio": (self.cache_hits / self.cache_lookups
                                    if self.cache_lookups else 0.0, "ratio")}


def _small_request(rng: random.Random, length: int) -> RunRequest:
    kind = rng.choice(("gshare", "bimodal"))
    generator = rng.choice(GENERATORS)
    return RunRequest(kind, f"synthetic:{generator}?length={length}&seed={rng.randrange(2**31)}")


class ServeMixed(Workload):
    name = "serve-mixed"
    golden_ops = {"batch": 2, "interactive": 20}
    timeout = 30.0
    SCALED = ("op_p50_s",)
    #: Interactive arrivals per second: about half of what the interactive
    #: lane sustains on its own (52/s closed-loop on a 2-vCPU Xeon host).
    RATE = 26.0
    INTERACTIVE_BRANCHES = 1000
    BATCH_BRANCHES = 20_000
    #: Lane cut: interactive requests fall under it, batch jobs above it.
    SMALL_JOB_BRANCHES = 10_000

    def batch_job(self) -> list[RunRequest]:
        """ISL-TAGE and TAGE-LSC over one hard trace; every batch job is alike."""
        ref = f"hard:INT02?branches={self.BATCH_BRANCHES // 2}&seed={derive(self.seed, 'batch')}"
        return [RunRequest("isl-tage", ref), RunRequest("tage-lsc", ref)]

    def schedule(self, seconds: float) -> list[tuple[float, RunRequest]]:
        """Arrivals every ``1 / RATE`` seconds over ``seconds``, fully seeded."""
        rng = random.Random(derive(self.seed, "interactive"))
        return [(index / self.RATE, _small_request(rng, self.INTERACTIVE_BRANCHES))
                for index in range(round(self.RATE * seconds))]

    def setup(self) -> None:
        self.service = SimulationService(
            runner=Runner(RunnerConfig(workers=1), persistent=True),
            interactive_runner=Runner(RunnerConfig(workers=1), persistent=True),
            small_job_branches=self.SMALL_JOB_BRANCHES,
        ).start()
        self.server = make_server(self.service)
        self.thread = threading.Thread(target=self.server.serve_forever, name="http-server",
                                       daemon=True)
        self.thread.start()
        host, port = self.server.server_address
        self.client = ServiceClient(f"http://{host}:{port}", timeout=self.timeout)
        # One request served per lane, so both lanes' pools are up.
        for request in (RunRequest("gshare", "synthetic:biased?length=200"),
                        RunRequest("bimodal", f"synthetic:biased?length={self.SMALL_JOB_BRANCHES + 1}")):
            document = self.client.submit(request, wait=True, timeout=self.timeout)
            if document["status"] != "done":
                raise RuntimeError(f"warm-up job ended {document['status']}")
        self.lateness: list[float] = []
        self.batch_latencies: list[float] = []
        self.batch_share = 0.0
        self.batch_branches = 0.0

    def _submit(self, requests: list[RunRequest],
                lane: str) -> tuple[list[dict] | None, str | None]:
        try:
            document = self.client.submit(requests, wait=True, timeout=self.timeout)
        except ServiceClientError as error:
            if error.status in (429, 503):
                with self._lock:
                    self.refused += 1
            return None, f"HTTP {error.status}: {error}"
        except OSError as error:  # a socket timeout: the request missed its limit
            return None, repr(error)
        with self._lock:
            # Documents do not name their lane; the stream decides it.
            self.documents.append({**document, "lane": lane})
        if document["status"] != "done":
            return None, f"job ended {document['status']}: {document.get('error')}"
        return document["results"], None

    def _interactive(self, start: float, arrivals) -> None:
        for index, (offset, request) in enumerate(arrivals):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.lateness.append(time.perf_counter() - due)
            with timed("bench.interactive", "driver"):
                payloads, error = self._submit([request], "interactive")
            # Timed from the due time: a stall delays every later arrival.
            self.record(("interactive", index), [request], payloads,
                        time.perf_counter() - due, error)

    def _batch(self, start: float, seconds: float) -> None:
        index = 0
        while time.perf_counter() - start < seconds:
            requests = self.batch_job()
            began = time.perf_counter()
            with timed("bench.batch", "driver"):
                payloads, error = self._submit(requests, "batch")
            self.record(("batch", index), requests, payloads, 0.0, error,
                        latency_sample=False)
            if payloads is not None:
                with self._lock:
                    self.batch_latencies.append(time.perf_counter() - began)
                # The share of this job that ran inside the window: the
                # last job overruns it, and counting it whole or not at all
                # would make throughput jump by a whole job between runs.
                ended = time.perf_counter()
                inside = min(ended, start + seconds) - began
                self.batch_share += inside / (ended - began)
                self.batch_branches += (sum(payload["branches"] for payload in payloads)
                                        * inside / (ended - began))
            index += 1

    def measure(self, seconds: float) -> None:
        arrivals = self.schedule(seconds)
        start = time.perf_counter()
        threads = [self.guarded("client-interactive", self._interactive, start, arrivals),
                   self.guarded("client-batch", self._batch, start, seconds)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall = time.perf_counter() - start
        self.seconds = seconds

    def throughput(self) -> float:
        interactive = sum(payloads[0]["branches"] for (stream, _), payloads
                          in self.payloads.items() if stream == "interactive")
        return (interactive + self.batch_branches) / self.seconds

    def teardown(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.service.close()

    def verify(self) -> None:
        super().verify()
        self.check_against_runner()

    def detail(self) -> dict[str, tuple[float, str]]:
        interactive = len([key for key in self.requests if key[0] == "interactive"])
        return {
            "interactive_p50_s": (percentile(self.latencies, 0.50), "s"),
            "interactive_p95_s": (percentile(self.latencies, 0.95), "s"),
            "interactive_arrivals": (len(self.latencies), "count"),
            "batch_p50_s": (percentile(self.batch_latencies, 0.50), "s"),
            "interactive_done": (interactive, "count"),
            "batch_jobs_per_s": (self.batch_share / self.seconds, "1/s"),
            "generator_late_p50_s": (percentile(self.lateness, 0.50), "s"),
            "generator_late_max_s": (max(self.lateness, default=0.0), "s"),
            "refused": (self.refused, "count"),
        }


class FleetSmallJobs(Workload):
    name = "fleet-small-jobs"
    golden_ops = {"client0": 20, "client1": 20}
    timeout = 30.0
    SCALED = ()
    BRANCHES = 300
    #: Broker poll period of the service watcher and of each worker, s.
    POLL = 0.02

    def job_request(self, client: int, index: int) -> RunRequest:
        return _small_request(random.Random(derive(self.seed, "job", client, index)),
                              self.BRANCHES)

    def setup(self) -> None:
        broker = FileBroker(os.path.join(self.tmpdir, "broker"))
        self.service = SimulationService(broker=broker, broker_poll=self.POLL).start()
        # Each worker simulates in its own pool process, as a ``repro worker``
        # process would.  Two in-process runners on the serial path share
        # one process-wide predictor cache, and two threads running the
        # same predictor spec at once corrupt each other's results.
        warm_up = RunRequest("gshare", "synthetic:biased?length=200")
        self.runners = [Runner(RunnerConfig(workers=1), persistent=True) for _ in (1, 2)]
        for runner in self.runners:
            runner.run_batch([warm_up])
        self.workers = [FleetWorker(broker, runner=runner, worker_id=f"bench-w{index}",
                                    poll_interval=self.POLL)
                        for index, runner in enumerate(self.runners, 1)]
        self.threads = [threading.Thread(target=worker.run, name=worker.worker_id)
                        for worker in self.workers]
        for thread in self.threads:
            thread.start()
        job = self.service.submit([warm_up])
        if self.service.wait(job.id, timeout=self.timeout)["status"] != "done":
            raise RuntimeError("warm-up job did not finish")

    def _observed(self, job_id: str) -> None:
        self.observed_at[job_id] = time.time()

    def _client(self, client: int, start: float, seconds: float) -> None:
        index = 0
        stream = f"client{client}"
        pause = random.Random(derive(self.seed, "pause", client))
        while time.perf_counter() - start < seconds:
            request = self.job_request(client, index)
            # A short seeded pause de-phases the client from the broker
            # pollers; without it the closed loop locks onto their period
            # and the median latency lands on a different poll tick per run.
            time.sleep(pause.uniform(0.0, self.POLL))
            began = time.perf_counter()
            with timed("bench.job", "driver"):
                try:
                    job = self.service.submit([request])
                except QueueFullError as error:
                    with self._lock:
                        self.refused += 1
                    self.record((stream, index), [request], None, 0.0, repr(error))
                    index += 1
                    continue
                self.service.subscribe(job.id, lambda job_id=job.id: self._observed(job_id))
                document = self.service.wait(job.id, timeout=self.timeout)
            with self._lock:
                self.documents.append({**document, "lane": "default"})
            if document["status"] == "done":
                self.record((stream, index), [request], document["results"],
                            time.perf_counter() - began)
            else:
                self.record((stream, index), [request], None, 0.0,
                            f"job ended {document['status']}: {document.get('error')}")
            index += 1

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        clients = [self.guarded(f"client{client}", self._client, client, start, seconds)
                   for client in (0, 1)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        self.wall = time.perf_counter() - start

    def teardown(self) -> None:
        for worker in self.workers:
            worker.request_stop()
        for thread in self.threads:
            thread.join()
        for runner in self.runners:
            runner.close()
        self.service.close()

    def verify(self) -> None:
        super().verify()
        self.check_against_runner()

    def detail(self) -> dict[str, tuple[float, str]]:
        return {
            "job_p50_s": (percentile(self.latencies, 0.50), "s"),
            "job_p90_s": (percentile(self.latencies, 0.90), "s"),
            "jobs_per_s": ((self.attempted - self.failed) / self.wall if self.wall else 0.0,
                           "1/s"),
        }


WORKLOADS = {workload.name: workload
             for workload in (PaperComposites, LongTrace, ServeMixed, FleetSmallJobs)}
