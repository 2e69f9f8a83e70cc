"""``repro`` — the command-line front end over the run API.

Every sub-command is a thin shell over the same objects Python callers
use (:class:`~repro.api.request.RunRequest`,
:class:`~repro.api.runner.Runner`, the predictor registry, trace
references and the named experiments)::

    repro run tage-lsc --trace hard:MM05 --scenario A --workers 4 --json
    repro run tage --trace "suite:INT01?branches=400000" --shards 4 --workers 4
    repro run --request saved-request.json
    repro suite --predictor gshare --trace suite:INT --backend interp
    repro experiment fig10 --branches 3000
    repro list predictors|traces|experiments
    repro cache stats|clear|prune
    repro serve --port 8321 --workers auto
    repro serve --broker /shared/broker --store-dir /shared/results
    repro worker --broker /shared/broker --workers 4
    repro fleet --url http://127.0.0.1:8321
    repro top --url http://127.0.0.1:8321 [--metrics] [--watch 2]
    repro submit tage --url http://127.0.0.1:8321 --trace hard:MM05 --json
    repro trace show <trace-id> --url http://127.0.0.1:8321
    repro trace export <trace-id> --format chrome -o trace.json
    repro cancel job-3-0a1b2c3d --url http://127.0.0.1:8321

Defaults for workers and caching come from the ``REPRO_SUITE_*``
environment (one parser: :meth:`~repro.api.config.RunnerConfig.from_env`);
``--workers`` / ``--cache-dir`` / ``--cache-version`` override per
invocation.  ``--json`` switches any sub-command to machine-readable
output.  Also invocable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Any, Sequence

from repro.api.config import (
    RunnerConfig,
    parse_backend,
    parse_cache_max_mb,
    parse_workers,
)
from repro.api.experiments import available_experiments, find_experiment
from repro.api.request import RunRequest
from repro.api.results import suite_payload
from repro.api.runner import Runner, using_runner
from repro.backends import live_backends
from repro.obs import (
    JsonFormatter,
    bind_trace_id,
    configure_logging,
    drain_spans,
    get_logger,
    get_metrics,
    log_event,
    new_trace_id,
    valid_trace_id,
)
from repro.pipeline.config import PipelineConfig
from repro.pipeline.parallel import SuiteCache
from repro.predictors.registry import PredictorSpec, backend_support, describe
from repro.traces.refs import parse_trace_ref, trace_ref_catalogue
from repro.traces.sharding import DEFAULT_WARMUP, SHARD_MODES, ShardingPolicy

__all__ = ["main"]

_DEFAULT_RUN_TRACE = "suite:INT01?branches=5000"

#: Distinguishes "--workers auto" (None) from "--workers not given".
_UNSET = object()


class CLIError(Exception):
    """A user-facing command-line error (exit code 2)."""


def _parse_workers(value: str) -> int | None:
    try:
        return parse_workers(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_cache_max_mb(value: str) -> float:
    try:
        return parse_cache_max_mb(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_backend(value: str) -> str:
    try:
        return parse_backend(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_trace_id(value: str) -> str:
    # Rejected rather than sanitised: a silently rewritten id would
    # never match the caller's grep.
    if not valid_trace_id(value):
        raise argparse.ArgumentTypeError(
            f"invalid trace id {value!r} (1-80 chars of [A-Za-z0-9._:-])"
        )
    return value


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("execution")
    group.add_argument("--workers", type=_parse_workers, default=_UNSET, metavar="N",
                       help="native kernel threads and interp worker processes "
                            "(or 'auto' = cpu count); "
                            "default: REPRO_SUITE_WORKERS or 1")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache directory; default: REPRO_SUITE_CACHE")
    group.add_argument("--cache-version", default=None, metavar="LABEL",
                       help="cache key label; default: REPRO_SUITE_CACHE_VERSION")
    group.add_argument("--cache-max-mb", type=_parse_cache_max_mb, default=None, metavar="MB",
                       help="size bound for the result cache (LRU eviction); "
                            "default: REPRO_SUITE_CACHE_MAX_MB")
    group.add_argument("--backend", type=_parse_backend, default=None, metavar="NAME",
                       help="execution backend (interp, numpy or native; bit-identical "
                            "results; interp pins the reference engine, numpy and native "
                            "mean the default route, see repro.pipeline.parallel._route); "
                            "overrides REPRO_SUITE_BACKEND and request backends")


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("pipeline model")
    group.add_argument("--retire-delay", type=int, default=None, metavar="N",
                       help="in-flight branches before retire (default 24)")
    group.add_argument("--execute-delay", type=int, default=None, metavar="N",
                       help="in-flight branches before execute (default 6)")
    group.add_argument("--penalty", type=int, default=None, metavar="CYCLES",
                       help="misprediction penalty for MPPKI (default 20)")


def _add_shard_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("trace sharding")
    group.add_argument("--shards", type=int, default=None, metavar="N",
                       help="split each trace into N warmup+measure shards "
                            "(0 derives N from the trace length; 1 disables "
                            "sharding even past the auto-shard threshold)")
    group.add_argument("--warmup", type=int, default=None, metavar="K",
                       help=f"warmup branches replayed before each measured "
                            f"window (default {DEFAULT_WARMUP})")
    group.add_argument("--shard-mode", choices=list(SHARD_MODES), default=None,
                       help="warmup: independent approximate shards (fast); "
                            "exact: each trace runs whole (bit-identical to "
                            "the unsharded run)")


def _sharding_policy(args: argparse.Namespace) -> ShardingPolicy | None:
    """The policy the shard flags describe, or None when none were given."""
    if args.shards is None and args.warmup is None and args.shard_mode is None:
        return None
    return ShardingPolicy(
        shards=args.shards if args.shards is not None else 0,
        warmup=args.warmup if args.warmup is not None else DEFAULT_WARMUP,
        mode=args.shard_mode or "warmup",
    )


def _runner_config(args: argparse.Namespace) -> RunnerConfig:
    """Environment defaults overridden by the command-line flags."""
    config = RunnerConfig.from_env()
    if getattr(args, "workers", _UNSET) is not _UNSET:
        config = dataclasses.replace(config, workers=args.workers)
    if getattr(args, "cache_dir", None) is not None:
        config = dataclasses.replace(config, cache_dir=args.cache_dir or None)
    if getattr(args, "cache_version", None) is not None:
        config = dataclasses.replace(config, cache_version=args.cache_version)
    if getattr(args, "cache_max_mb", None) is not None:
        config = dataclasses.replace(config, cache_max_mb=args.cache_max_mb)
    if getattr(args, "backend", None) is not None:
        # Forced: an explicit flag wins over request-level backends too
        # (the documented env < request < CLI precedence).
        config = dataclasses.replace(config, backend=args.backend, backend_forced=True)
    return config


def _pipeline(args: argparse.Namespace) -> PipelineConfig:
    defaults = PipelineConfig()
    return PipelineConfig(
        retire_delay=args.retire_delay if args.retire_delay is not None else defaults.retire_delay,
        execute_delay=(args.execute_delay if args.execute_delay is not None
                       else defaults.execute_delay),
        misprediction_penalty=(args.penalty if args.penalty is not None
                               else defaults.misprediction_penalty),
    )


def _load_config_json(text: str | None, context: str) -> dict:
    if not text:
        return {}
    try:
        config = json.loads(text)
    except json.JSONDecodeError as error:
        raise CLIError(f"{context}: invalid JSON config ({error})") from None
    if not isinstance(config, dict):
        raise CLIError(f"{context}: config must be a JSON object, got {type(config).__name__}")
    return config


#: One rendering for CLI and service alike (see :mod:`repro.api.results`).
_suite_payload = suite_payload


def _print_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def _snapshot_sum(snapshot: dict, name: str) -> float:
    """Total across all label sets (histograms: the _sum series)."""
    record = snapshot.get(name)
    if not record:
        return 0.0
    if record["kind"] == "histogram":
        return sum(entry[1] for entry in record["values"].values())
    return float(sum(record["values"].values()))


def _snapshot_by_label(snapshot: dict, name: str) -> dict[str, int]:
    """Per-label-value totals of a counter, as the integer counts they are."""
    record = snapshot.get(name) or {"values": {}}
    return {
        ",".join(json.loads(encoded)) or "_": int(value)
        for encoded, value in record["values"].items()
    }


def _batch_timings(snapshot: dict, wall_seconds: float) -> dict[str, Any]:
    """The ``--timings`` fallback when tracing is sampled off: the same
    section shape, from the (global, cumulative) metrics snapshot."""
    return {
        "wall_seconds": round(wall_seconds, 6),
        "plan_seconds": round(_snapshot_sum(snapshot, "repro_runner_plan_seconds"), 6),
        "resolve_seconds": None,  # only spans time trace generation
        "kernel_seconds": round(_snapshot_sum(snapshot, "repro_backend_kernel_seconds"), 6),
        "pool_task_seconds": round(_snapshot_sum(snapshot, "repro_pool_task_seconds"), 6),
        "scheduled": _snapshot_by_label(snapshot, "repro_sched_tasks_total"),
        "generated": _snapshot_by_label(snapshot, "repro_trace_generated_branches_total"),
        "cache": _snapshot_by_label(snapshot, "repro_cache_lookups_total"),
        "breakdown": {},
    }


def _span_timings(spans: list[dict], snapshot: dict,
                  wall_seconds: float) -> dict[str, Any]:
    """The ``repro run --timings`` section, from this run's own span tree.

    Spans carry the request's trace id, so the numbers attribute to THIS
    invocation even when the process has run other batches — the metrics
    registry (still used for the scheduled and generated counts) cannot
    say that.
    """
    by_name: dict[str, float] = {}
    cache: dict[str, int] = {}
    for record in spans:
        by_name[record["name"]] = by_name.get(record["name"], 0.0) + record["duration"]
        if record["name"] == "cache.lookup":
            outcome = str(record.get("attrs", {}).get("outcome", "_"))
            cache[outcome] = cache.get(outcome, 0) + 1
    return {
        "wall_seconds": round(wall_seconds, 6),
        "plan_seconds": round(by_name.get("runner.plan", 0.0), 6),
        "resolve_seconds": round(by_name.get("trace.resolve", 0.0), 6),
        "kernel_seconds": round(by_name.get("backend.kernel", 0.0), 6),
        "pool_task_seconds": round(by_name.get("pool.task", 0.0), 6),
        "scheduled": _snapshot_by_label(snapshot, "repro_sched_tasks_total"),
        "generated": _snapshot_by_label(snapshot, "repro_trace_generated_branches_total"),
        "cache": cache,
        "spans": len(spans),
        "breakdown": {name: round(seconds, 6) for name, seconds in sorted(by_name.items())},
    }


def _format_table(headers: list[str], rows: list[list]) -> str:
    from repro.analysis.reporting import format_table

    return format_table(headers, rows)


# ---------------------------------------------------------------------------
# Sub-commands
# ---------------------------------------------------------------------------


def _build_requests(args: argparse.Namespace, context: str) -> list[RunRequest]:
    """Requests from ``run``/``submit``-style arguments (kind or --request)."""
    if bool(args.request) == bool(args.kind):
        raise CLIError(f"{context}: give either a predictor kind or --request FILE (not both)")
    if args.request:
        # The file IS the request; silently overriding parts of it would
        # let the user attribute one run's numbers to another's settings.
        # (`run --request --backend` stays legal: there --backend is an
        # execution option of the local runner, like --workers; `submit`
        # has no local runner, so its --backend edits the request.)
        conflicting = [
            flag for flag, given in [
                ("--config", args.config is not None),
                ("--trace", bool(args.trace)),
                ("--scenario", args.scenario is not None),
                ("--retire-delay", args.retire_delay is not None),
                ("--execute-delay", args.execute_delay is not None),
                ("--penalty", args.penalty is not None),
                ("--shards", args.shards is not None),
                ("--warmup", args.warmup is not None),
                ("--shard-mode", args.shard_mode is not None),
                ("--backend", context == "submit" and args.backend is not None),
            ] if given
        ]
        if conflicting:
            raise CLIError(
                f"{context}: {', '.join(conflicting)} cannot be combined with --request; "
                "edit the request file instead"
            )
        try:
            with open(args.request, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise CLIError(
                f"{context}: cannot read request file {args.request!r}: {error}"
            ) from None
        # --dump-request writes a single object for one trace and a list for
        # several; accept both so every dump replays.
        entries = payload if isinstance(payload, list) else [payload]
        return [RunRequest.from_dict(entry) for entry in entries]
    spec = PredictorSpec(args.kind, _load_config_json(args.config, context))
    refs = args.trace or [_DEFAULT_RUN_TRACE]
    pipeline = _pipeline(args)
    scenario = args.scenario if args.scenario is not None else "I"
    sharding = _sharding_policy(args)
    backend = args.backend if context == "submit" else None
    return [RunRequest(spec, ref, scenario, pipeline, sharding, backend) for ref in refs]


def _print_result_payloads(payloads: list[dict]) -> None:
    """One object for one request, a list for several (the run/submit shape)."""
    _print_json(payloads[0] if len(payloads) == 1 else payloads)


def _cmd_run(args: argparse.Namespace) -> int:
    requests = _build_requests(args, "run")

    if args.dump_request:
        payloads = [request.to_dict() for request in requests]
        _print_result_payloads(payloads)
        return 0

    with bind_trace_id(new_trace_id()) as trace_id:
        started = time.perf_counter()
        with Runner(_runner_config(args)) as runner:
            results = runner.run_batch(requests)
        wall_seconds = time.perf_counter() - started
        run_spans = [
            record for record in drain_spans()
            if record["trace_id"] == trace_id
        ]
    payloads = [_suite_payload(request, result) for request, result in zip(requests, results)]
    if args.timings:
        # Opt-in wrapper: the default --json shape stays byte-identical
        # with service/fleet results, which CI diffs against this output.
        # Numbers come from this request's own span tree; the metrics
        # fallback only fires when tracing is sampled off.
        if run_spans:
            timings = _span_timings(run_spans, get_metrics().snapshot(), wall_seconds)
        else:
            timings = _batch_timings(get_metrics().snapshot(), wall_seconds)
        if args.json:
            _print_json({
                "trace_id": trace_id,
                "results": payloads[0] if len(payloads) == 1 else payloads,
                "timings": timings,
            })
        else:
            for request, result in zip(requests, results):
                print(f"{request.trace} {request.scenario.label}: {result.summary()}")
            resolve = timings["resolve_seconds"]
            resolve_text = "-" if resolve is None else f"{resolve:.3f}s"
            print(f"trace_id {trace_id}: wall {timings['wall_seconds']:.3f}s, "
                  f"plan {timings['plan_seconds']:.3f}s, resolve {resolve_text}, "
                  f"kernel {timings['kernel_seconds']:.3f}s, "
                  f"pool {timings['pool_task_seconds']:.3f}s")
            scheduled = ", ".join(f"{k}={v}" for k, v in sorted(timings["scheduled"].items()))
            cache = ", ".join(f"{k}={v}" for k, v in sorted(timings["cache"].items()))
            generated = ", ".join(f"{k}={v}" for k, v in sorted(timings["generated"].items()))
            print(f"scheduled: {scheduled or '-'}; cache: {cache or '-'}; "
                  f"generated: {generated or '-'}")
    elif args.json:
        _print_result_payloads(payloads)
    else:
        for request, result in zip(requests, results):
            print(f"{request.trace} {request.scenario.label}: {result.summary()}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    specs = []
    for entry in args.predictor:
        kind, sep, config_text = entry.partition("=")
        config = _load_config_json(config_text if sep else None, f"suite: predictor {kind!r}")
        specs.append(PredictorSpec(kind, config))
    with Runner(_runner_config(args)) as runner:
        pairs = runner.run_product(specs, args.trace, args.scenario, _pipeline(args))
    payloads = [_suite_payload(request, result) for request, result in pairs]
    if args.json:
        _print_json(payloads)
    else:
        rows = [
            [p["predictor"], p["trace"], f"[{p['scenario']}]",
             p["mppki"], p["mpki"], p["mispredictions"]]
            for p in payloads
        ]
        print(_format_table(
            ["predictor", "trace", "scenario", "mppki", "mpki", "mispredictions"], rows
        ))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        experiment = find_experiment(args.name)
    except KeyError as error:
        raise CLIError(str(error.args[0])) from None
    runner = Runner(_runner_config(args))
    if args.trace:
        explicit = [flag for flag, given in
                    [("--branches", args.branches is not None),
                     ("--seed", args.seed is not None)] if given]
        if explicit:
            raise CLIError(
                f"experiment: {', '.join(explicit)} only shape the default suite; "
                "with --trace, put branches/seed in the reference "
                "(e.g. 'hard:all?branches=3000&seed=7')"
            )
        refs = args.trace
    else:
        branches = args.branches if args.branches is not None else 3000
        seed = args.seed if args.seed is not None else 2011
        refs = [f"suite:all?branches={branches}&seed={seed}"]
    traces = [trace for ref in refs for trace in runner.resolve(ref)]
    with runner, using_runner(runner):
        table = experiment.run(traces)
    if args.json:
        _print_json({
            "experiment": table.experiment,
            "name": experiment.name,
            "headers": table.headers,
            "rows": table.rows,
            "paper_reference": table.paper_reference,
            "traces": [trace.name for trace in traces],
        })
    else:
        print(table.to_table())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if args.what == "predictors":
        live = set(live_backends())
        rows = [
            [kind, ", ".join(sorted(backend_support(kind) & live)), description]
            for kind, description in describe()
        ]
        if args.json:
            _print_json([
                {"kind": kind, "backends": backends.split(", "), "description": text}
                for kind, backends, text in rows
            ])
        else:
            print(_format_table(["kind", "backends", "description"], rows))
    elif args.what == "traces":
        rows = trace_ref_catalogue()
        if args.json:
            _print_json([{"pattern": pattern, "description": text} for pattern, text in rows])
        else:
            print(_format_table(["trace reference", "description"], [list(r) for r in rows]))
    else:
        experiments = available_experiments()
        if args.json:
            _print_json([
                {"name": e.name, "aliases": list(e.aliases), "description": e.description}
                for e in experiments
            ])
        else:
            rows = [[e.name, ", ".join(e.aliases), e.description] for e in experiments]
            print(_format_table(["name", "aliases", "description"], rows))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    config = _runner_config(args)
    if not config.cache_dir:
        raise CLIError("cache: no cache directory (set --cache-dir or REPRO_SUITE_CACHE)")
    cache = SuiteCache(
        config.cache_dir,
        cache_version=config.cache_version,
        max_bytes=config.cache_max_bytes,
    )
    if args.action == "stats":
        stats = cache.stats()
        del stats["hits"], stats["misses"]  # meaningless for a fresh handle
        if args.json:
            _print_json(stats)
        else:
            bound = (f" (bound {stats['max_bytes']} bytes)"
                     if stats["max_bytes"] is not None else "")
            print(f"cache {stats['directory']}: {stats['entries']} entries, "
                  f"{stats['bytes']} bytes{bound}")
    elif args.action == "prune":
        if cache.max_bytes is None:
            raise CLIError(
                "cache prune: no size bound (set --cache-max-mb or REPRO_SUITE_CACHE_MAX_MB)"
            )
        summary = cache.prune()
        if args.json:
            _print_json({"directory": config.cache_dir, **summary})
        else:
            print(f"cache {config.cache_dir}: evicted {summary['removed']} entries "
                  f"({summary['reclaimed_bytes']} bytes), "
                  f"{summary['remaining_bytes']} bytes remain")
    else:
        removed = cache.clear()
        if args.json:
            _print_json({"directory": config.cache_dir, "removed": removed})
        else:
            print(f"cache {config.cache_dir}: removed {removed} entries")
    return 0


def _banner(message: str, **fields: Any) -> None:
    """A long-running command's status line: print, or log when JSON is on.

    ``serve`` and ``worker`` redirect their output to log files that CI
    (and any log shipper) parses line by line; a bare ``print`` would be
    the one non-JSON line in the stream.
    """
    import logging

    handlers = logging.getLogger("repro").handlers
    if any(isinstance(handler.formatter, JsonFormatter) for handler in handlers):
        log_event(get_logger("cli"), logging.INFO, message, **fields)
    else:
        tail = " ".join(f"{key}={value}" for key, value in fields.items())
        print(f"{message} {tail}".rstrip(), flush=True)


def _install_drain_handlers(stop: "threading.Event") -> None:
    """SIGTERM/SIGINT set the drain flag instead of killing the process.

    Signal handlers only install from the main thread; tests driving the
    commands from worker threads simply keep the default behavior.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return

    def _drain(signum: int, frame: Any) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)


def _broker_spec(args: argparse.Namespace) -> str | None:
    return getattr(args, "broker", None) or os.environ.get("REPRO_BROKER") or None


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.service import (
        ClientQuota,
        DiskResultStore,
        QuotaPolicy,
        SimulationService,
        TokenAuth,
        is_loopback_host,
        make_server,
    )
    from repro.service.core import DEFAULT_SMALL_JOB_BRANCHES

    try:
        auth = TokenAuth.from_sources(token_file=args.token_file)
    except (OSError, ValueError) as error:
        raise CLIError(f"serve: {error}") from None
    if auth is None and not is_loopback_host(args.host):
        raise CLIError(
            f"serve: refusing to bind non-loopback address {args.host!r} "
            "without authentication; configure tokens via REPRO_SERVICE_TOKENS "
            "or --token-file"
        )
    quota = None
    if args.rate is not None or args.max_client_jobs is not None:
        try:
            quota = ClientQuota(QuotaPolicy(
                rate=args.rate, burst=args.burst,
                max_client_jobs=args.max_client_jobs))
        except ValueError as error:
            raise CLIError(f"serve: {error}") from None
    small_job_branches = args.small_job_branches
    if small_job_branches is None and args.lanes:
        small_job_branches = DEFAULT_SMALL_JOB_BRANCHES

    store = DiskResultStore(args.store_dir) if args.store_dir else None
    spec = _broker_spec(args)
    if spec:
        from repro.distrib import connect_broker

        broker = connect_broker(spec)
        service = SimulationService(store=store, queue_size=args.queue_size,
                                    broker=broker, quota=quota,
                                    small_job_branches=small_job_branches)
        mode = f"broker={broker.describe()}"
    else:
        runner = Runner(_runner_config(args), persistent=True)
        service = SimulationService(runner=runner, store=store,
                                    queue_size=args.queue_size, quota=quota,
                                    small_job_branches=small_job_branches)
        workers = runner.config.workers
        mode = f"workers={'auto' if workers is None else workers}"
    open_metrics = args.open_metrics or (
        os.environ.get("REPRO_SERVICE_OPEN_METRICS", "").lower()
        in ("1", "true", "yes", "on"))
    server = make_server(service, host=args.host, port=args.port,
                         quiet=not args.verbose, auth=auth,
                         open_metrics=open_metrics)
    stop = threading.Event()
    _install_drain_handlers(stop)
    with service:
        recovered = service.recover()
        if recovered:
            _banner(f"recovered {recovered} queued job(s) from the store")
        _banner(f"repro service listening on {server.url}",
                mode=mode, queue=args.queue_size,
                lanes=",".join(service.lanes),
                auth="token" if auth is not None else "open",
                metrics="open" if open_metrics else "auth")
        # serve_forever runs on a helper thread so the main thread can
        # take SIGTERM/SIGINT and drain gracefully: stop accepting (new
        # submits answer 503 + Connection: close), park still-queued
        # jobs in the store for the next process, finish running jobs,
        # then return 0.
        pump = threading.Thread(target=server.serve_forever,
                                name="repro-serve-http", daemon=True)
        pump.start()
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass  # no handler installed (non-main thread): same drain path
        _banner("draining: finishing in-flight jobs, then exiting")
        parked = service.drain()
        if parked:
            _banner(f"parked {parked} queued job(s) for the next process")
        server.shutdown()
        pump.join()
        server.server_close()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distrib import FleetWorker, connect_broker

    spec = _broker_spec(args)
    if not spec:
        raise CLIError("worker: --broker (or REPRO_BROKER) is required")
    policy: dict[str, Any] = {}
    if args.visibility is not None:
        policy["visibility"] = args.visibility
    broker = connect_broker(spec, **policy)
    runner = Runner(_runner_config(args), persistent=True)
    worker = FleetWorker(broker, runner=runner, worker_id=args.id,
                         poll_interval=args.poll)

    class _Drain:
        """Event-shaped adapter: a signal drains the worker loop."""

        @staticmethod
        def set() -> None:
            worker.request_stop()

    _install_drain_handlers(_Drain())  # type: ignore[arg-type]
    _banner(f"repro worker {worker.worker_id} leasing from {broker.describe()}",
            poll=worker.poll_interval, visibility=broker.visibility)
    try:
        processed = worker.run(max_jobs=args.max_jobs)
    finally:
        broker.close()
    _banner(f"worker {worker.worker_id}: processed {processed} job(s)")
    return 0


def _add_token_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--token", default=None, metavar="TOKEN",
                        help="bearer token for authenticated services "
                             "(default: REPRO_SERVICE_TOKEN)")


def _service_client(args: argparse.Namespace) -> "Any":
    from repro.service import ServiceClient

    token = args.token or os.environ.get("REPRO_SERVICE_TOKEN") or None
    return ServiceClient(args.url, token=token)


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.broker:
        from repro.distrib import connect_broker

        broker = connect_broker(args.broker)
        try:
            fleet = broker.stats()
        finally:
            broker.close()
    else:
        from repro.service import ServiceClientError

        try:
            fleet = _service_client(args).fleet()
        except ServiceClientError as error:
            raise CLIError(f"fleet: {error}") from None
    if args.json:
        _print_json(fleet)
        return 0
    jobs = fleet.get("jobs", {})
    states = ", ".join(f"{state}={count}" for state, count in sorted(jobs.items()))
    print(f"broker {fleet.get('broker', '?')}: {states}")
    workers = fleet.get("workers", [])
    if not workers:
        print("no workers registered")
    else:
        rows = []
        for worker in workers:
            capabilities = worker.get("capabilities", {})
            backends = ",".join(capabilities.get("backends", [])) or "-"
            rows.append([
                worker.get("id", "?"),
                "yes" if worker.get("alive") else "NO",
                f"{worker.get('heartbeat_age', 0.0):.1f}s",
                worker.get("completed", 0),
                worker.get("failed", 0),
                backends,
                capabilities.get("cores", "-"),
            ])
        print(_format_table(
            ["worker", "alive", "heartbeat", "done", "failed", "backends", "cores"],
            rows,
        ))
    _print_dead_letters(fleet.get("dead_letters"))
    return 0


def _print_dead_letters(dead: Any) -> None:
    """The per-job last-error lines under ``repro fleet`` / ``repro top``."""
    if not dead:
        return
    print("dead letters:")
    for row in dead:
        print(f"  {row.get('id', '?')} (attempts {row.get('attempts', '?')}): "
              f"{row.get('error') or 'no error recorded'}")


def _cmd_top(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if args.watch is None:
        return _top_once(args, client)
    if args.watch <= 0:
        raise CLIError("top: --watch interval must be positive")
    try:
        while True:
            if sys.stdout.isatty():
                # Clear + home, like watch(1); a piped stream instead
                # gets stanzas separated by a timestamp line.
                print("\x1b[2J\x1b[H", end="")
            else:
                print(f"--- {time.strftime('%H:%M:%S')}", flush=True)
            code = _top_once(args, client)
            if code != 0:
                return code
            time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0


def _top_once(args: argparse.Namespace, client: "Any") -> int:
    from repro.service import ServiceClientError

    try:
        if args.metrics:
            text = client.metrics()
            print(text, end="" if text.endswith("\n") else "\n")
            return 0
        stats = client.stats()
    except ServiceClientError as error:
        raise CLIError(f"top: {error}") from None
    if args.json:
        _print_json(stats)
        return 0
    queue = stats.get("queue", {})
    jobs = stats.get("jobs", {})
    dispatcher = stats.get("dispatcher", {})
    print(f"service {client.base_url}: mode={stats.get('mode', '?')}, "
          f"up {stats.get('uptime_seconds', 0.0):.0f}s")
    print(f"queue {queue.get('depth', 0)}/{queue.get('capacity', '?')}, "
          f"dispatcher utilization {dispatcher.get('utilization', 0.0):.1%}")
    print("jobs: " + ", ".join(
        f"{state}={count}" for state, count in sorted(jobs.items())))
    pool = stats.get("pool")
    if pool:
        print("pool: " + ", ".join(f"{key}={value}" for key, value in sorted(pool.items())))
    cache = stats.get("result_cache")
    if cache:
        print(f"cache: {cache.get('entries', 0)} entries, "
              f"{cache.get('bytes', 0)} bytes, "
              f"hit rate {cache.get('hit_rate', 0.0):.1%}")
    fleet = stats.get("fleet")
    if fleet:
        if "error" in fleet and "jobs" not in fleet:
            print(f"fleet: unavailable ({fleet['error']})")
        else:
            broker_jobs = fleet.get("jobs", {})
            states = ", ".join(f"{state}={count}"
                               for state, count in sorted(broker_jobs.items()))
            print(f"fleet {fleet.get('broker', '?')}: {states}; "
                  f"{fleet.get('workers_alive', 0)}/{len(fleet.get('workers', []))} "
                  f"workers alive")
            _print_dead_letters(fleet.get("dead_letters"))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClientError
    from repro.service.protocol import TERMINAL_STATUSES

    requests = _build_requests(args, "submit")
    client = _service_client(args)
    # Minted client-side (unless --trace-id pins it) so the submitting
    # process can grep its own logs by the same id the service echoes.
    trace_id = args.trace_id or new_trace_id()
    try:
        if args.no_wait:
            document = client.submit(requests, trace_id=trace_id)
        elif args.sync:
            document = client.submit(requests, wait=True, timeout=args.timeout,
                                     trace_id=trace_id)
        else:
            document = client.run(requests, timeout=args.timeout,
                                  trace_id=trace_id)
    except ServiceClientError as error:
        raise CLIError(f"submit: {error}") from None

    status = document["status"]
    if args.no_wait or status not in TERMINAL_STATUSES:
        # Not terminal (or not awaited): print the job document so the
        # caller can poll GET /v2/runs/<id> themselves.
        _print_json(document)
        return 0 if args.no_wait else 3
    if status == "failed":
        print(f"repro: submit: job {document['id']} failed: {document['error']}",
              file=sys.stderr)
        return 1
    if status == "cancelled":
        # Another client DELETEd the job while we were waiting on it:
        # terminal, but there are no results to print.
        print(f"repro: submit: job {document['id']} was cancelled", file=sys.stderr)
        return 1
    payloads = document["results"]
    if args.json:
        # Same shape as `repro run --json`: one object for one request.
        _print_result_payloads(payloads if document["batch"] else [payloads[0]])
    else:
        for payload in payloads:
            print(f"{payload['trace']} [{payload['scenario']}]: {payload['predictor']}, "
                  f"{payload['mispredictions']}/{payload['branches']} mispredictions, "
                  f"MPKI {payload['mpki']:.2f}, MPPKI {payload['mppki']:.1f}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render_critical_path, render_waterfall, to_chrome_trace
    from repro.service import ServiceClientError

    client = _service_client(args)
    try:
        document = client.trace(args.trace_id)
    except ServiceClientError as error:
        raise CLIError(f"trace: {error}") from None
    spans = document.get("spans") or []
    if args.action == "show":
        if args.json:
            _print_json(document)
            return 0
        processes = {record.get("pid") for record in spans}
        print(f"trace {document['trace_id']}: {document['span_count']} span(s) "
              f"across {len(processes)} process(es)")
        print()
        print(render_waterfall(spans))
        print()
        print(render_critical_path(spans))  # the * rows above, telescoped
        return 0
    # export
    if args.format == "chrome":
        payload: Any = to_chrome_trace(spans)
    else:
        payload = document
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(spans)} span(s) to {args.output} "
              f"({args.format} format)")
    else:
        print(text)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service import ServiceClientError

    client = _service_client(args)
    try:
        document = client.cancel(args.job_id)
    except ServiceClientError as error:
        raise CLIError(f"cancel: {error}") from None
    if args.json:
        _print_json(document)
    else:
        print(f"job {document['id']}: {document['status']}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Registry-driven branch-predictor simulation runner "
                    "(a reproduction of Seznec's MICRO 2011 TAGE paper).",
    )
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        choices=["debug", "info", "warning", "error", "critical"],
                        help="logging level for the repro logger "
                             "(default: REPRO_LOG, else warning)")
    parser.add_argument("--log-json", action="store_true", default=None,
                        help="emit one JSON object per log line "
                             "(default: REPRO_LOG_JSON)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    run = sub.add_parser(
        "run", help="run one predictor over a trace reference",
        description="Run one predictor spec over one or more trace references. "
                    f"Default trace: {_DEFAULT_RUN_TRACE}",
    )
    run.add_argument("kind", nargs="?", help="registered predictor kind (see 'repro list predictors')")
    run.add_argument("--config", metavar="JSON", help="predictor config as a JSON object")
    run.add_argument("--trace", action="append", metavar="REF",
                     help="trace reference (repeatable; see 'repro list traces')")
    run.add_argument("--scenario", default=None, metavar="I|A|B|C",
                     help="update scenario (default I, immediate)")
    run.add_argument("--request", metavar="FILE",
                     help="load a serialized RunRequest JSON instead of building one")
    run.add_argument("--dump-request", action="store_true",
                     help="print the request JSON and exit without simulating")
    run.add_argument("--json", action="store_true", help="machine-readable output")
    run.add_argument("--timings", action="store_true",
                     help="append a trace_id + timings section (plan/resolve/"
                          "kernel/pool seconds, per-span breakdown, cache hits) "
                          "after the results")
    _add_pipeline_options(run)
    _add_shard_options(run)
    _add_runner_options(run)
    run.set_defaults(func=_cmd_run)

    suite = sub.add_parser(
        "suite", help="run a predictors x traces x scenarios cross-product",
        description="Run every combination of the given predictors, trace references "
                    "and scenarios, with all (spec, trace) pairs interleaved into one "
                    "process pool.",
    )
    suite.add_argument("--predictor", action="append", required=True, metavar="KIND[=JSON]",
                       help="predictor kind, optionally with a JSON config (repeatable)")
    suite.add_argument("--trace", action="append", required=True, metavar="REF",
                       help="trace reference (repeatable)")
    suite.add_argument("--scenario", action="append", default=None, metavar="I|A|B|C",
                       help="update scenario (repeatable; default I)")
    suite.add_argument("--json", action="store_true", help="machine-readable output")
    _add_pipeline_options(suite)
    _add_runner_options(suite)
    suite.set_defaults(func=_cmd_suite)

    experiment = sub.add_parser(
        "experiment", help="run a named experiment of the paper's evaluation",
        description="Run one of the paper's experiments (see 'repro list experiments'). "
                    "Without --trace, the full CBP-like suite is generated with the "
                    "given --branches/--seed.",
    )
    experiment.add_argument("name", help="experiment name or alias, e.g. fig10 or e11")
    experiment.add_argument("--trace", action="append", metavar="REF",
                            help="trace reference (repeatable; traces are concatenated)")
    experiment.add_argument("--branches", type=int, default=None, metavar="N",
                            help="branches per generated trace for the default suite "
                                 "(default 3000; not combinable with --trace)")
    experiment.add_argument("--seed", type=int, default=None, metavar="S",
                            help="suite seed for the default suite "
                                 "(default 2011; not combinable with --trace)")
    experiment.add_argument("--json", action="store_true", help="machine-readable output")
    _add_runner_options(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    lister = sub.add_parser(
        "list", help="list predictors, trace references or experiments",
    )
    lister.add_argument("what", choices=["predictors", "traces", "experiments"])
    lister.add_argument("--json", action="store_true", help="machine-readable output")
    lister.set_defaults(func=_cmd_list)

    cache = sub.add_parser(
        "cache", help="inspect, prune or clear the on-disk result cache",
        description="stats/clear operate on the whole directory: cache keys are "
                    "hashes, so entries cannot be filtered by version label after "
                    "the fact (bump REPRO_SUITE_CACHE_VERSION to invalidate a "
                    "shared cache without deleting it).  prune evicts "
                    "least-recently-used entries until the directory fits the "
                    "configured size bound.",
    )
    cache.add_argument("action", choices=["stats", "clear", "prune"])
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory; default: REPRO_SUITE_CACHE")
    cache.add_argument("--cache-max-mb", type=_parse_cache_max_mb, default=None, metavar="MB",
                       help="size bound for prune; default: REPRO_SUITE_CACHE_MAX_MB")
    cache.add_argument("--json", action="store_true", help="machine-readable output")
    cache.set_defaults(func=_cmd_cache)

    serve = sub.add_parser(
        "serve", help="run the HTTP simulation service",
        description="Serve the v2 HTTP API (POST/GET /v2/runs, /v2/capabilities, "
                    "/v2/healthz, /v2/stats, /v2/metrics; /v1 answers 410) "
                    "over a bounded job queue and a persistent warm worker "
                    "pool.  SIGTERM/Ctrl-C drain gracefully: new "
                    "submits answer 503, running jobs finish, still-queued jobs "
                    "are parked in the store for the next process.",
    )
    serve.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                       help="bind address (default 127.0.0.1; non-loopback "
                            "binds require tokens)")
    serve.add_argument("--port", type=int, default=8321, metavar="PORT",
                       help="bind port (default 8321; 0 picks a free port)")
    serve.add_argument("--queue-size", type=int, default=64, metavar="N",
                       help="pending-job bound; a full queue answers 503 (default 64)")
    serve.add_argument("--store-dir", default=None, metavar="DIR",
                       help="persist job documents as JSON files here "
                            "(default: in-memory only; share it between "
                            "front ends in broker mode)")
    serve.add_argument("--broker", default=None, metavar="SPEC",
                       help="dispatch jobs to a worker fleet instead of "
                            "executing in-process: a shared directory path "
                            "(default: REPRO_BROKER, else in-process "
                            "execution)")
    serve.add_argument("--token-file", default=None, metavar="FILE",
                       help="bearer tokens, one 'client=token' (or bare token) "
                            "per line; overrides REPRO_SERVICE_TOKENS")
    serve.add_argument("--lanes", action="store_true",
                       help="split dispatch into interactive + batch priority "
                            "lanes (small jobs never queue behind big batches)")
    serve.add_argument("--small-job-branches", type=int, default=None, metavar="N",
                       help="estimated-branch threshold below which a job takes "
                            "the interactive lane (implies --lanes; default "
                            "200000 with --lanes)")
    serve.add_argument("--rate", type=float, default=None, metavar="R",
                       help="per-client submit rate limit, submissions/second "
                            "(token bucket; over-limit answers 429)")
    serve.add_argument("--burst", type=int, default=10, metavar="N",
                       help="token-bucket burst size for --rate (default 10)")
    serve.add_argument("--max-client-jobs", type=int, default=None, metavar="N",
                       help="max queued+running jobs per client; over-cap "
                            "answers 429")
    serve.add_argument("--open-metrics", action="store_true",
                       help="serve GET /v2/metrics without "
                            "bearer auth (for Prometheus scrapers; exposes "
                            "operational counters — never results — to "
                            "anyone who can reach the port; default: "
                            "REPRO_SERVICE_OPEN_METRICS)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    _add_runner_options(serve)
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker", help="run one fleet worker against a broker",
        description="Lease jobs from a repro.distrib broker, execute them on a "
                    "local warm runner and post results back (heartbeats extend "
                    "the lease while a batch runs).  SIGTERM/SIGINT drain "
                    "gracefully: the in-flight job finishes, then the worker "
                    "deregisters and exits.",
    )
    worker.add_argument("--broker", default=None, metavar="SPEC",
                        help="broker spec: a shared directory path "
                             "(default: REPRO_BROKER)")
    worker.add_argument("--id", default=None, metavar="NAME",
                        help="worker id shown in 'repro fleet' "
                             "(default: <host>-<pid>-<hex>)")
    worker.add_argument("--poll", type=float, default=0.2, metavar="S",
                        help="idle polling interval in seconds (default 0.2)")
    worker.add_argument("--visibility", type=float, default=None, metavar="S",
                        help="lease visibility timeout override in seconds "
                             "(default: the broker's, 30)")
    worker.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="exit after processing N jobs (default: run forever)")
    _add_runner_options(worker)
    worker.set_defaults(func=_cmd_worker)

    fleet = sub.add_parser(
        "fleet", help="show broker queue depth and worker liveness",
        description="Render the fleet section of GET /v2/stats — job counts per "
                    "broker state plus one row per registered worker (liveness, "
                    "heartbeat age, jobs completed/failed, capability tags).  "
                    "--broker reads the broker directly, without a front end.",
    )
    fleet.add_argument("--url", default="http://127.0.0.1:8321", metavar="URL",
                       help="service base URL (default http://127.0.0.1:8321)")
    fleet.add_argument("--broker", default=None, metavar="SPEC",
                       help="read this broker directly instead of asking a "
                            "front end")
    _add_token_option(fleet)
    fleet.add_argument("--json", action="store_true", help="machine-readable output")
    fleet.set_defaults(func=_cmd_fleet)

    submit = sub.add_parser(
        "submit", help="submit a run to a repro service over HTTP",
        description="Build the same request(s) as 'repro run' but execute them on "
                    "a running service.  By default the job is submitted "
                    "asynchronously and polled to completion; --json then prints "
                    "exactly what 'repro run --json' would.",
    )
    submit.add_argument("kind", nargs="?",
                        help="registered predictor kind (see 'repro list predictors')")
    submit.add_argument("--url", default="http://127.0.0.1:8321", metavar="URL",
                        help="service base URL (default http://127.0.0.1:8321)")
    submit.add_argument("--config", metavar="JSON", help="predictor config as a JSON object")
    submit.add_argument("--trace", action="append", metavar="REF",
                        help="trace reference (repeatable)")
    submit.add_argument("--scenario", default=None, metavar="I|A|B|C",
                        help="update scenario (default I, immediate)")
    submit.add_argument("--request", metavar="FILE",
                        help="load a serialized RunRequest JSON instead of building one")
    submit.add_argument("--sync", action="store_true",
                        help="use POST /v2/runs?wait=1 instead of submit-then-poll")
    submit.add_argument("--no-wait", action="store_true",
                        help="submit and print the job document without waiting")
    submit.add_argument("--timeout", type=float, default=120.0, metavar="S",
                        help="seconds to wait for completion (default 120)")
    submit.add_argument("--backend", type=_parse_backend, default=None, metavar="NAME",
                        help="execution backend requested from the service "
                             "(rides the submitted request)")
    submit.add_argument("--trace-id", type=_parse_trace_id, default=None, metavar="ID",
                        help="trace id to follow the job through service and "
                             "worker logs (default: minted client-side)")
    _add_token_option(submit)
    submit.add_argument("--json", action="store_true", help="machine-readable output")
    _add_pipeline_options(submit)
    _add_shard_options(submit)
    submit.set_defaults(func=_cmd_submit)

    top = sub.add_parser(
        "top", help="show a running service's queue, jobs and fleet at a glance",
        description="Render GET /v2/stats as a short operator summary: queue "
                    "depth, job counters, dispatcher and lane utilization, pool "
                    "and cache health, plus the broker fleet and its dead "
                    "letters in broker mode.  --metrics dumps the raw "
                    "Prometheus text from GET /v2/metrics instead.",
    )
    top.add_argument("--url", default="http://127.0.0.1:8321", metavar="URL",
                     help="service base URL (default http://127.0.0.1:8321)")
    top.add_argument("--metrics", action="store_true",
                     help="print the raw /v2/metrics exposition and exit")
    top.add_argument("--watch", type=float, default=None, metavar="S",
                     help="refresh every S seconds until Ctrl-C "
                          "(clears the screen on a terminal)")
    _add_token_option(top)
    top.add_argument("--json", action="store_true", help="machine-readable output")
    top.set_defaults(func=_cmd_top)

    tracer = sub.add_parser(
        "trace", help="inspect one request's distributed span tree",
        description="Fetch GET /v2/traces/<id> from a running service and "
                    "render the stitched span tree — one tree per trace id "
                    "even when the job crossed serve, broker and N fleet "
                    "workers.  'show' prints a terminal waterfall plus the "
                    "critical path; 'export --format chrome' writes "
                    "Trace-Event JSON loadable in Perfetto / "
                    "chrome://tracing.",
    )
    trace_actions = tracer.add_subparsers(dest="action", required=True,
                                          metavar="ACTION")
    trace_show = trace_actions.add_parser(
        "show", help="terminal waterfall and critical-path breakdown")
    trace_show.add_argument("trace_id", type=_parse_trace_id,
                            help="trace id (X-Trace-Id / --trace-id / the "
                                 "job document's trace_id)")
    trace_show.add_argument("--url", default="http://127.0.0.1:8321", metavar="URL",
                            help="service base URL (default http://127.0.0.1:8321)")
    _add_token_option(trace_show)
    trace_show.add_argument("--json", action="store_true",
                            help="print the raw trace document instead")
    trace_show.set_defaults(func=_cmd_trace)
    trace_export = trace_actions.add_parser(
        "export", help="export the trace (chrome trace-event or raw JSON)")
    trace_export.add_argument("trace_id", type=_parse_trace_id,
                              help="trace id to export")
    trace_export.add_argument("--format", choices=["chrome", "json"],
                              default="chrome",
                              help="chrome: Trace-Event JSON for Perfetto / "
                                   "chrome://tracing (default); json: the "
                                   "raw /v2/traces document")
    trace_export.add_argument("-o", "--output", default=None, metavar="FILE",
                              help="write here instead of stdout")
    trace_export.add_argument("--url", default="http://127.0.0.1:8321", metavar="URL",
                              help="service base URL (default http://127.0.0.1:8321)")
    _add_token_option(trace_export)
    trace_export.set_defaults(func=_cmd_trace)

    cancel = sub.add_parser(
        "cancel", help="cancel a queued job on a repro service",
        description="DELETE /v2/runs/<id>: queued jobs cancel; running or "
                    "finished jobs answer 409 (a running batch executes to "
                    "completion).",
    )
    cancel.add_argument("job_id", help="job id returned by 'repro submit'")
    cancel.add_argument("--url", default="http://127.0.0.1:8321", metavar="URL",
                        help="service base URL (default http://127.0.0.1:8321)")
    _add_token_option(cancel)
    cancel.add_argument("--json", action="store_true", help="machine-readable output")
    cancel.set_defaults(func=_cmd_cancel)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro`` console script and ``python -m repro``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        configure_logging(level=args.log_level, json_mode=args.log_json)
        if args.command == "suite" and not args.scenario:
            args.scenario = ["I"]
        if getattr(args, "trace", None):
            for ref in args.trace:
                parse_trace_ref(ref)
        return args.func(args)
    except CLIError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Pools and services shut down on the way out (context managers);
        # 130 is the conventional SIGINT exit status.
        print("repro: interrupted", file=sys.stderr)
        return 130
    except (ValueError, KeyError, TypeError) as error:
        # TypeError covers predictor factories rejecting config keys, e.g.
        # --config '{"bogus": 1}' reaching TAGEConfig(**config).  Set
        # REPRO_DEBUG=1 to get the full traceback instead of the one-liner
        # (e.g. when a long suite run dies mid-flight).
        if os.environ.get("REPRO_DEBUG"):
            raise
        message = error.args[0] if error.args else error
        print(f"repro: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
