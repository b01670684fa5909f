"""Command-line interface for the PoE reproduction.

Subcommands::

    python -m repro.cli build   [--tracks ...] [--fast]   # train artifacts
    python -m repro.cli tables  [--fast] [--out FILE]     # paper vs measured
    python -m repro.cli query   --track T --tasks a,b     # serve one query
    python -m repro.cli serve-bench [--mode closed|open]  # gateway load test
    python -m repro.cli cluster-bench --shards 4          # sharded-pool load test
    python -m repro.cli cluster-bench --networked         # shards in worker processes
    python -m repro.cli cluster-bench --networked --replicas 2 --chaos  # failover drill
    python -m repro.cli shard-serve --port 7070           # host one shard over TCP
    python -m repro.cli predict-bench --heads 8           # fused-inference bench
    python -m repro.cli autotune-bench                    # self-tuning vs static budgets
    python -m repro.cli scrape  [--networked]             # Prometheus text scrape
    python -m repro.cli top     [--networked]             # live telemetry dashboard
    python -m repro.cli trace-dump --file trace.jsonl     # render recorded span trees
    python -m repro.cli info                              # registry overview

The bench subcommands accept ``--trace FILE`` (JSONL span log, readable
by ``trace-dump``) and ``--slow-ms T`` (slow-query log at ``FILE.slow``);
``predict-bench --profile-ops`` prints the per-op profiling arena.

The CLI is a thin veneer over :mod:`repro.eval` so scripted and interactive
use share one code path.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from .eval import ArtifactStore, get_track, render_table
from .models import EXPERIMENT_ARCHS, PAPER_ARCHS

__all__ = ["main"]

DEFAULT_TRACKS = "synth-cifar,synth-tiny"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tracks", default=DEFAULT_TRACKS, help="comma-separated tracks")
    parser.add_argument("--fast", action="store_true", help="reduced budgets")
    parser.add_argument("--root", default=None, help="artifact store root")


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record request spans to this JSONL file (read with trace-dump)",
    )
    parser.add_argument(
        "--slow-ms", type=float, default=None, metavar="T",
        help="with --trace: log full span trees of requests slower than T ms "
        "to FILE.slow",
    )


def _enable_tracing(args: argparse.Namespace):
    """Light the process tracer per ``--trace``/``--slow-ms``; return the writer."""
    if not getattr(args, "trace", None):
        return None
    from .obs import TRACER, JsonlTraceWriter, SlowQueryLog

    writer = JsonlTraceWriter(args.trace)
    slow_log = None
    if args.slow_ms is not None:
        slow_log = SlowQueryLog(args.trace + ".slow", threshold_s=args.slow_ms / 1000.0)
    TRACER.enable(writer=writer, slow_log=slow_log, service="cli")
    return writer


def _finish_tracing(args: argparse.Namespace, writer) -> None:
    if writer is None:
        return
    from .obs import TRACER

    writer.close()
    print(f"\ntrace: {len(TRACER.collector)} span(s) recorded -> {args.trace}")
    if args.slow_ms is not None:
        slow = TRACER._slow_log
        count = slow.count if slow is not None else 0
        print(
            f"trace: {count} slow quer{'y' if count == 1 else 'ies'} "
            f"(> {args.slow_ms:g} ms) -> {args.trace}.slow"
        )


def cmd_build(args: argparse.Namespace) -> int:
    from .eval.runner import build_all

    build_all(args.tracks.split(","), fast=args.fast or None, root=args.root)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from .eval.claims import render_tracks

    text = render_tracks(args.tracks.split(","), fast=args.fast or None, root=args.root)
    print(text)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .serving import ServingGateway

    store = ArtifactStore(args.root)
    track = get_track(args.track, fast=args.fast or None)
    pool = store.pool(track)
    tasks = args.tasks.split(",")
    with ServingGateway(pool) as gateway:
        start = time.perf_counter()
        model = gateway.get_model(tasks)
        ms = 1000 * (time.perf_counter() - start)
    print(f"query {'+'.join(tasks)} served in {ms:.2f} ms")
    print(f"  architecture : {model.network.arch_name()}")
    print(f"  parameters   : {model.num_params():,}")
    print(f"  classes      : {', '.join(model.class_names)}")
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Load-test the serving gateway and print latency/cache statistics."""
    from .serving import (
        GatewayConfig,
        ServingGateway,
        ZipfianWorkload,
        build_demo_pool,
        run_closed_loop,
        run_open_loop,
    )

    from .core.server import TRANSPORTS

    transports = tuple(args.transports.split(","))
    unknown = [t for t in transports if t not in TRANSPORTS]
    if unknown:
        print(f"error: unknown transport(s) {unknown}; choose from {', '.join(TRANSPORTS)}")
        return 2

    writer = _enable_tracing(args)
    if args.track == "micro":
        print("building self-contained micro pool (seconds)...")
        pool, _ = build_demo_pool(num_tasks=args.micro_tasks, seed=args.seed)
    else:
        store = ArtifactStore(args.root)
        track = get_track(args.track, fast=args.fast or None)
        pool = store.pool(track)

    config = GatewayConfig(
        max_workers=args.workers,
        model_cache_bytes=0 if args.no_cache else args.model_cache_mb << 20,
        payload_cache_bytes=0 if args.no_cache else args.payload_cache_mb << 20,
    )
    workload = ZipfianWorkload(
        pool.expert_names(),
        max_query_size=min(args.max_tasks, len(pool.expert_names())),
        skew=args.skew,
        universe_size=args.universe,
        transports=transports,
        seed=args.seed,
    )
    with ServingGateway(pool, config) as gateway:
        if args.mode == "closed":
            report = run_closed_loop(
                gateway,
                workload,
                clients=args.clients,
                requests_per_client=args.requests,
                seed=args.seed,
            )
        else:
            report = run_open_loop(
                gateway,
                workload,
                rate_qps=args.rate,
                duration_seconds=args.duration,
                seed=args.seed,
            )
        print()
        print(report.render())
        print()
        print(gateway.render_stats())
        print()
        print(_codec_comparison(gateway, workload))
    _finish_tracing(args, writer)
    return 0


def _codec_comparison(gateway, workload) -> str:
    """Bytes, first-encode and warm-assemble cost per transport, one hot query.

    Measures :func:`repro.core.serialize_task_model` directly (no caches):
    once with no segment store — every segment encoded and compressed —
    and then over a store the first call warmed, which is what a payload
    miss costs in steady state.
    """
    from .core.pool import SegmentStore
    from .core.server import TRANSPORTS, serialize_task_model

    tasks, _ = workload.sample(1, seed=5)[0]
    model = gateway.get_model(tasks)
    store, repeats, rows = SegmentStore(), 200, []
    for transport in TRANSPORTS:
        args = (model.network, model.task, gateway.pool.config, transport)
        start = time.perf_counter()
        payload = serialize_task_model(*args)
        first = time.perf_counter() - start
        serialize_task_model(*args, store=store)
        start = time.perf_counter()
        for _ in range(repeats):
            serialize_task_model(*args, store=store)
        warm = (time.perf_counter() - start) / repeats
        rows.append([transport, f"{len(payload):,}", f"{1e3 * first:.2f}", f"{1e6 * warm:.1f}"])
    return render_table(
        ["Transport", "Bytes", "First encode ms", "Warm assemble us"],
        rows,
        title=f"Payload codecs for query {'+'.join(tasks)}",
    )


def cmd_cluster_bench(args: argparse.Namespace) -> int:
    """Load-test a sharded cluster and print per-shard/fan-out statistics.

    With ``--networked``, shards run as forked worker processes behind the
    ``repro.net`` socket protocol; the command then also verifies a clean
    worker shutdown — no leaked processes, exit code 0 — and can append a
    JSON summary for CI artifacts via ``--out``.
    """
    from .cluster import ClusterConfig, ClusterGateway
    from .core.server import TRANSPORTS
    from .serving import ZipfianWorkload, build_demo_pool, run_closed_loop, run_open_loop

    transports = tuple(args.transports.split(","))
    unknown = [t for t in transports if t not in TRANSPORTS]
    if unknown:
        print(f"error: unknown transport(s) {unknown}; choose from {', '.join(TRANSPORTS)}")
        return 2
    if args.replicas > 1 and not args.networked:
        print("error: --replicas > 1 requires --networked (in-process shards have no replicas)")
        return 2
    if args.chaos and not args.networked:
        print("error: --chaos requires --networked")
        return 2
    if args.chaos and args.replicas < 2:
        print("error: --chaos needs --replicas >= 2 so siblings absorb the kill")
        return 2

    journal_writer = None
    if args.journal:
        from .obs import JOURNAL, RotatingJsonlWriter

        journal_writer = RotatingJsonlWriter(args.journal)
        JOURNAL.reset()
        JOURNAL.enable(writer=journal_writer, service="cli")

    writer = _enable_tracing(args)
    print("building self-contained micro pool (seconds)...")
    pool, _ = build_demo_pool(num_tasks=args.micro_tasks, seed=args.seed)
    config = ClusterConfig(
        num_shards=args.shards,
        replication=args.replication,
        workers_per_shard=args.workers_per_shard,
        replicas_per_shard=args.replicas,
        shard_model_cache_bytes=0 if args.no_cache else args.model_cache_mb << 20,
        shard_payload_cache_bytes=0 if args.no_cache else args.payload_cache_mb << 20,
        composite_model_cache_bytes=0 if args.no_cache else args.model_cache_mb << 20,
        composite_payload_cache_bytes=0 if args.no_cache else args.payload_cache_mb << 20,
    )
    workload = ZipfianWorkload(
        pool.expert_names(),
        max_query_size=min(args.max_tasks, len(pool.expert_names())),
        skew=args.skew,
        universe_size=args.universe,
        transports=transports,
        seed=args.seed,
    )
    networked = None
    if args.networked:
        from .net import NetworkedCluster

        networked = NetworkedCluster(pool, config)
        cluster = networked.gateway
    else:
        cluster = ClusterGateway(pool, config)
    chaos = None
    chaos_thread = None
    chaos_outcome: dict = {}
    reshard_thread = None
    reshard_outcome: dict = {}
    try:
        if getattr(args, "reshard_to", None):
            import threading

            def _reshard_mid_bench() -> None:
                time.sleep(args.reshard_delay)
                try:
                    report = cluster.reshard(args.reshard_to)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    reshard_outcome["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    reshard_outcome["epoch"] = report.epoch
                    reshard_outcome["moved"] = len(report.moved)

            reshard_thread = threading.Thread(
                target=_reshard_mid_bench, name="bench-reshard", daemon=True
            )
            reshard_thread.start()
        if args.chaos:
            import random as random_mod
            import threading

            from .net import ChaosMonkey

            chaos = ChaosMonkey(networked.fleet, random_mod.Random(args.seed))

            def _unleash() -> None:
                time.sleep(args.chaos_delay)
                handle = chaos.kill_one()
                if handle is not None:
                    chaos_outcome["killed"] = [
                        handle.shard_id,
                        handle.replica_id,
                    ]
                    # generous deadline: on a small saturated runner the
                    # respawned fork competes with the bench for CPU
                    chaos_outcome["respawned"] = chaos.wait_respawned(
                        handle, timeout=60.0
                    )

            chaos_thread = threading.Thread(
                target=_unleash, name="chaos-monkey", daemon=True
            )
            chaos_thread.start()
        if args.mode == "closed":
            report = run_closed_loop(
                cluster,
                workload,
                clients=args.clients,
                requests_per_client=args.requests,
                seed=args.seed,
                via_submit=args.networked,
            )
        else:
            report = run_open_loop(
                cluster,
                workload,
                rate_qps=args.rate,
                duration_seconds=args.duration,
                seed=args.seed,
            )
        if chaos_thread is not None:
            # cover chaos_delay + the kill + the full respawn deadline
            chaos_thread.join(timeout=args.chaos_delay + 90.0)
        if reshard_thread is not None:
            reshard_thread.join(timeout=args.reshard_delay + 120.0)
        print()
        print(report.render())
        print()
        print(cluster.render_stats())
        fanout = cluster.metrics.fanout_histogram()
        snapshot = cluster.unified_snapshot()
    finally:
        if networked is not None:
            networked.close()
        else:
            cluster.close()

    if networked is not None:
        leaked = networked.fleet.leaked_processes()
        exit_codes = [h.process.exitcode for h in networked.fleet.workers]
        if leaked or any(code != 0 for code in exit_codes):
            print(
                f"error: unclean worker shutdown (leaked={len(leaked)}, "
                f"exit codes={exit_codes})"
            )
            return 1
        print(f"\nworkers exited cleanly (exit codes {exit_codes}, no leaks)")

    if args.journal:
        from .obs import JOURNAL

        print(f"journal: {len(JOURNAL)} event(s) -> {args.journal}")
        JOURNAL.disable()

    if getattr(args, "reshard_to", None):
        if "error" in reshard_outcome:
            print(f"error: mid-bench reshard failed: {reshard_outcome['error']}")
            return 1
        if "epoch" not in reshard_outcome:
            print("error: mid-bench reshard never completed")
            return 1
        print(
            f"reshard: {args.shards} -> {args.reshard_to} shards mid-bench "
            f"(epoch {reshard_outcome['epoch']}, "
            f"{reshard_outcome['moved']} expert(s) moved, "
            f"{report.errors} client-visible errors)"
        )

    if chaos is not None:
        if not chaos.kills:
            print("error: chaos monkey found no live worker to kill")
            return 1
        if not chaos_outcome.get("respawned"):
            print(f"error: killed worker {chaos_outcome.get('killed')} never respawned")
            return 1
        shard_id, replica_id = chaos_outcome["killed"]
        print(
            f"chaos: killed shard {shard_id} replica {replica_id} mid-bench; "
            f"supervisor respawned it ({report.errors} client-visible errors)"
        )

    if args.out:
        from .serving import append_benchmark_record, run_metadata

        append_benchmark_record(
            args.out,
            {
                "bench": "cluster",
                "networked": bool(args.networked),
                "shards": args.shards,
                "mode": args.mode,
                "requests": report.requests,
                "errors": report.errors,
                "throughput_qps": report.throughput_qps,
                "latency": report.latency,
                "payload_hit_rate": report.payload_hit_rate,
                "fanout": {str(k): v for k, v in fanout.items()},
                "snapshot": snapshot,
                "meta": run_metadata(
                    replicas_per_shard=args.replicas,
                    hedge_enabled=bool(args.networked) and args.replicas > 1,
                    chaos=bool(args.chaos),
                    chaos_kills=[list(k) for k in chaos.kills] if chaos else [],
                    reshard_to=getattr(args, "reshard_to", None),
                    # 1-core runners serialize the worker processes, so
                    # throughput comparisons against multi-core entries are
                    # noise — flag the entry instead of suppressing it
                    **(
                        {"skip_reason": "single-core runner: parallel shard "
                         "throughput not meaningful"}
                        if (os.cpu_count() or 1) < 2
                        else {}
                    ),
                ),
            },
            label=args.label,
        )
        print(f"appended run to {args.out}")
    _finish_tracing(args, writer)
    return 0 if report.errors == 0 else 1


def cmd_reshard(args: argparse.Namespace) -> int:
    """Grow/shrink a live cluster online and prove answers never change.

    Builds the self-contained micro pool, deploys it (in-process by
    default, forked worker processes with ``--networked``), snapshots
    every task's served payload, then reshards to ``--to`` shards while
    closed-loop driver threads keep querying.  Exits nonzero if any
    request failed during the move or any post-reshard payload differs
    from its pre-reshard bytes.
    """
    import threading

    from .cluster import ClusterConfig, ClusterGateway
    from .serving import build_demo_pool

    if args.journal:
        from .obs import JOURNAL, RotatingJsonlWriter

        JOURNAL.reset()
        JOURNAL.enable(writer=RotatingJsonlWriter(args.journal), service="cli")

    print("building self-contained micro pool (seconds)...", file=sys.stderr)
    pool, _data = build_demo_pool(num_tasks=args.micro_tasks, seed=args.seed)
    replicas = args.replicas if args.networked else 1
    config = ClusterConfig(
        num_shards=args.shards, workers_per_shard=2, replicas_per_shard=replicas
    )
    networked = None
    if args.networked:
        from .net import NetworkedCluster

        networked = NetworkedCluster(pool, config)
        cluster = networked.gateway
    else:
        cluster = ClusterGateway(pool, config)

    names = sorted(pool.expert_names())
    errors: List[str] = []
    stop = threading.Event()

    def drive(worker_id: int) -> None:
        i = worker_id
        while not stop.is_set():
            try:
                cluster.serve((names[i % len(names)],))
            except Exception as exc:  # noqa: BLE001 - tallied below
                if not stop.is_set():
                    errors.append(f"{type(exc).__name__}: {exc}")
            i += 1

    try:
        baseline = {name: cluster.serve((name,)).payload for name in names}
        threads = [
            threading.Thread(target=drive, args=(i,), daemon=True)
            for i in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        start = time.perf_counter()
        report = cluster.reshard(args.to)
        elapsed = time.perf_counter() - start
        time.sleep(0.2)  # let in-flight retries settle before stopping
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        mismatched = [
            name
            for name in names
            if cluster.serve((name,)).payload != baseline[name]
        ]
    finally:
        stop.set()
        if networked is not None:
            networked.close()
        else:
            cluster.close()

    print(
        f"reshard {args.shards} -> {args.to}: epoch {report.epoch}, "
        f"{len(report.moved)} expert(s) moved, {report.installs} install(s), "
        f"{report.drops} drop(s), {report.migrated_bytes} payload byte(s) "
        f"in {elapsed:.2f}s"
    )
    if errors:
        print(f"error: {len(errors)} request(s) failed mid-reshard: {errors[:3]}")
        return 1
    if mismatched:
        print(f"error: payload mismatch after reshard for {mismatched}")
        return 1
    print(f"all {len(names)} task payloads bit-identical; zero client-visible errors")
    if args.journal:
        from .obs import JOURNAL

        print(f"journal: {len(JOURNAL)} event(s) -> {args.journal}")
        JOURNAL.disable()
    return 0


def cmd_shard_serve(args: argparse.Namespace) -> int:
    """Host one PoolShard over TCP (the repro.net wire protocol).

    Builds the deterministic micro pool (same ``--micro-tasks``/``--seed``
    on every host gives every shard the same weights) and serves the
    requested task subset until the process is interrupted or a client
    sends DRAIN.
    """
    from .cluster import PoolShard
    from .net import ShardServer
    from .serving import GatewayConfig, build_demo_pool

    print("building self-contained micro pool (seconds)...")
    pool, _ = build_demo_pool(num_tasks=args.micro_tasks, seed=args.seed)
    names = sorted(pool.expert_names())
    tasks = args.tasks.split(",") if args.tasks else names
    unknown = [t for t in tasks if t not in names]
    if unknown:
        print(f"error: unknown task(s) {unknown}; available: {names}")
        return 2
    shard = PoolShard(
        args.shard_id, pool, tasks, GatewayConfig(max_workers=args.workers)
    )
    server = ShardServer(
        shard, host=args.host, port=args.port, request_workers=args.workers
    )
    host, port = server.start()
    # flush=True: the address line must reach pipes immediately, so
    # supervisors (and the tests) can connect without waiting on a buffer
    print(f"shard {args.shard_id} serving {len(tasks)} task(s) on {host}:{port}", flush=True)
    print("tasks: " + ", ".join(tasks), flush=True)
    print("waiting for requests (Ctrl-C or a DRAIN frame stops the server)", flush=True)
    try:
        server.wait_drained()
    except KeyboardInterrupt:
        print("\ninterrupt: draining")
        server.drain()
    server.close()
    # print the unified metrics snapshot before releasing the shard, so a
    # supervisor capturing stdout gets the final counters alongside DRAIN
    import json

    snap = shard.gateway.metrics.snapshot()
    print("final metrics snapshot:")
    print(json.dumps(snap, sort_keys=True))
    shard.close()
    print("drained cleanly")
    return 0


def cmd_predict_bench(args: argparse.Namespace) -> int:
    """Benchmark the fused prediction fast path; append to the trajectory."""
    from .serving import (
        append_benchmark_record,
        build_demo_pool,
        run_predict_benchmark,
    )

    if args.heads > args.micro_tasks:
        print(
            f"error: --heads {args.heads} exceeds --micro-tasks {args.micro_tasks}"
        )
        return 2
    writer = _enable_tracing(args)
    if args.profile_ops:
        from .obs import ARENA

        ARENA.enable()
    print("building self-contained micro pool (seconds)...")
    pool, data = build_demo_pool(num_tasks=args.micro_tasks, seed=args.seed)
    record = run_predict_benchmark(
        pool,
        data.test.images,
        n_heads=args.heads,
        batch_size=args.batch,
        reps=args.reps,
    )
    from .serving import predict_report_rows

    rows, title = predict_report_rows(record)
    print()
    print(render_table(["Path", "ms/call", "speedup"], rows, title=title))
    if args.profile_ops:
        from .obs import ARENA

        print()
        print(ARENA.render())
    _finish_tracing(args, writer)
    doc = append_benchmark_record(args.out, record, label=args.label)
    print(f"\nappended run {len(doc['runs'])} to {args.out}")
    if not record["allclose"]:
        print(
            "error: fused execution diverged from the reference path "
            f"(heads max abs diff {record['max_abs_diff']:.2e}, "
            f"trunk max abs diff {record['trunk']['max_abs_diff']:.2e})"
        )
        return 1
    # sanity gate: the compiled trunk must beat the autograd trunk (the
    # absolute-milliseconds gate lives in bench_predict_throughput.py)
    trunk_speedup = record["trunk"]["speedup"]
    if trunk_speedup <= 1.0:
        print(f"error: compiled trunk slower than autograd ({trunk_speedup:.2f}x)")
        return 1
    return 0


def cmd_autotune_bench(args: argparse.Namespace) -> int:
    """Self-tuning controller vs static budgets on a shifting workload."""
    from .control import run_self_tuning_benchmark, verify_report
    from .serving import append_benchmark_record, build_demo_pool, run_metadata

    print("building self-contained micro pool (seconds)...")
    pool, _data = build_demo_pool(num_tasks=args.micro_tasks, seed=args.seed)
    report = run_self_tuning_benchmark(
        pool,
        requests=args.requests,
        hot_size=args.hot_size,
        budget_payloads=args.budget_payloads,
        tick_every=args.tick_every,
        seed=args.seed,
    )
    print()
    print(report.render())
    relaxed = bool(os.environ.get("REPRO_BENCH_RELAX"))
    if args.out:
        doc = append_benchmark_record(
            args.out,
            {
                "bench": "self_tuning",
                **report.to_dict(),
                "meta": run_metadata(),
            },
            label=args.label,
        )
        print(f"\nappended run {len(doc['runs'])} to {args.out}")
    try:
        verify_report(report, relaxed=relaxed)
    except AssertionError as failure:
        print(f"error: {failure}")
        return 1
    print(
        f"controller beats static budgets: hit rate "
        f"{report.tuned.payload_hit_rate:.1%} vs "
        f"{report.static.payload_hit_rate:.1%}, qps {report.qps_ratio:.2f}x"
    )
    return 0


def cmd_trace_dump(args: argparse.Namespace) -> int:
    """Render the span trees recorded in a JSONL trace log."""
    from .obs import build_trace_tree, format_trace, load_jsonl_spans, select_traces

    spans = load_jsonl_spans(args.file)
    if not spans:
        print(f"no spans in {args.file}")
        return 1
    trees = build_trace_tree(spans)
    selected = select_traces(trees, trace_id=args.trace_id, limit=args.limit)
    for _trace_id, ordered in selected:
        print(format_trace(ordered))
        print()
    print(f"{len(selected)} trace(s) shown ({len(spans)} spans in {args.file})")
    return 0


def _cross_shard_query(cluster, names: List[str]) -> List[str]:
    """A task pair spanning two shards (first pair when single-sharded)."""
    first_on_shard = {}
    for name in names:
        first_on_shard.setdefault(cluster.router.shard_for(name), name)
    picks = sorted(first_on_shard.values())
    if len(picks) >= 2:
        return [picks[0], picks[1]]
    return names[: min(2, len(names))]


def cmd_scrape(args: argparse.Namespace) -> int:
    """Drive demo traffic through a cluster and emit a Prometheus scrape.

    Exercises every documented stage — ``submit`` serves for queue/total,
    a cross-shard serve for fetch/assemble/serialize, predictions for the
    ``predict_*`` family — then renders the cluster's **unified snapshot**
    (front-end metrics merged with every shard's, remote or in-process)
    as Prometheus text exposition.  CI parses the output back and asserts
    each documented stage is present.

    Status lines go to stderr so stdout stays a clean exposition when
    ``--out`` is omitted.
    """
    from .cluster import ClusterConfig, ClusterGateway
    from .obs import render_prometheus
    from .serving import build_demo_pool

    writer = _enable_tracing(args)
    print("building self-contained micro pool (seconds)...", file=sys.stderr)
    pool, data = build_demo_pool(num_tasks=args.micro_tasks, seed=args.seed)
    names = sorted(pool.expert_names())
    config = ClusterConfig(num_shards=args.shards, workers_per_shard=2)
    networked = None
    if args.networked:
        from .net import NetworkedCluster

        networked = NetworkedCluster(pool, config)
        cluster = networked.gateway
    else:
        cluster = ClusterGateway(pool, config)
    images = data.test.images[:8]
    try:
        cross = _cross_shard_query(cluster, names)
        for i in range(args.requests):
            single = [names[i % len(names)]]
            cluster.submit(single).result()
            cluster.serve(cross)
            cluster.predict(images, single)
            cluster.predict(images, cross)
        snapshot = cluster.unified_snapshot()
    finally:
        if networked is not None:
            networked.close()
        else:
            cluster.close()
    text = render_prometheus(snapshot)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote scrape to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    _finish_tracing(args, writer)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live telemetry dashboard against a demo cluster (``repro top``).

    Builds the self-contained micro pool, deploys it as an in-process or
    networked cluster, drives background closed-loop traffic, and renders
    per-shard health, rolling rates, sparkline histories, and the recent
    event tail once per poll interval.  ``--frames N`` renders N frames
    then exits (headless CI uses ``--frames 1 --plain``); the default
    runs until Ctrl-C.  Exits nonzero if a finite run collected no
    telemetry — a frame of nothing is a failure, not a dashboard.
    """
    import threading

    from .cluster import ClusterConfig, ClusterGateway
    from .obs import (
        CLEAR_SCREEN,
        JOURNAL,
        HealthPolicy,
        HealthScorer,
        RotatingJsonlWriter,
        TelemetryPoller,
        render_dashboard,
    )
    from .serving import build_demo_pool

    journal_writer = RotatingJsonlWriter(args.journal) if args.journal else None
    JOURNAL.reset()
    JOURNAL.enable(writer=journal_writer, service="cli")

    print("building self-contained micro pool (seconds)...", file=sys.stderr)
    pool, data = build_demo_pool(num_tasks=args.micro_tasks, seed=args.seed)
    names = sorted(pool.expert_names())
    replicas = args.replicas if args.networked else 1
    config = ClusterConfig(
        num_shards=args.shards, workers_per_shard=2, replicas_per_shard=replicas
    )
    networked = None
    if args.networked:
        from .net import NetworkedCluster

        networked = NetworkedCluster(pool, config)
        cluster = networked.gateway
    else:
        cluster = ClusterGateway(pool, config)
    images = data.test.images[:4]
    stop = threading.Event()

    def drive(worker_id: int) -> None:
        cross = _cross_shard_query(cluster, names)
        i = worker_id
        while not stop.is_set():
            single = [names[i % len(names)]]
            try:
                cluster.serve(single)
                cluster.predict(images, single)
                if i % 5 == 0:
                    cluster.serve(cross)
            except Exception:
                if stop.is_set():
                    break  # shutdown races are not traffic errors
            i += 1

    poller = TelemetryPoller.for_gateway(cluster, interval_s=args.interval)
    scorer = HealthScorer(
        poller.store,
        JOURNAL,
        HealthPolicy(latency_slo_s=args.slo_ms / 1000.0),
    )
    threads = [
        threading.Thread(target=drive, args=(i,), daemon=True)
        for i in range(args.clients)
    ]
    rendered = 0
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + args.duration if args.duration else None
        while True:
            time.sleep(args.interval)
            poller.poll_once()
            frame = render_dashboard(
                poller.store,
                scorer,
                JOURNAL,
                sources=sorted(poller.sources),
                title="repro top" + (" (networked)" if args.networked else ""),
            )
            if args.plain:
                print(frame)
            else:
                print(CLEAR_SCREEN + frame, end="", flush=True)
            rendered += 1
            if args.frames and rendered >= args.frames:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        if networked is not None:
            networked.close()
        else:
            cluster.close()
    series = len(poller.store)
    events = len(JOURNAL)
    summary = (
        f"top: rendered {rendered} frame(s), {len(poller.sources)} source(s), "
        f"{series} series, {events} journal event(s)"
    )
    if args.journal:
        summary += f" -> {args.journal}"
    print(summary, file=sys.stderr)
    JOURNAL.disable()
    return 0 if series else 1


def cmd_info(args: argparse.Namespace) -> int:
    rows = [[name, cfg.name, str(cfg.num_classes), f"{cfg.image_size}px"]
            for name, cfg in PAPER_ARCHS.items()]
    print(render_table(["Registry", "Arch", "Classes", "Input"], rows,
                       title="Paper-scale architectures (Table 1 fidelity)"))
    rows = [[name, cfg.name, str(cfg.num_classes), f"{cfg.image_size}px"]
            for name, cfg in EXPERIMENT_ARCHS.items()]
    print(render_table(["Registry", "Arch", "Classes", "Input"], rows,
                       title="\nExperiment-scale architectures"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="train/cache all experiment artifacts")
    _add_common(p_build)
    p_build.set_defaults(fn=cmd_build)

    p_tables = sub.add_parser("tables", help="paper vs measured, with every claim's verdict")
    _add_common(p_tables)
    p_tables.add_argument("--out", default=None, help="also write the markdown here")
    p_tables.set_defaults(fn=cmd_tables)

    p_query = sub.add_parser("query", help="serve one composite-task query")
    p_query.add_argument("--track", default="synth-cifar")
    p_query.add_argument("--tasks", required=True, help="comma-separated primitive tasks")
    p_query.add_argument("--fast", action="store_true")
    p_query.add_argument("--root", default=None)
    p_query.set_defaults(fn=cmd_query)

    p_bench = sub.add_parser(
        "serve-bench", help="load-test the serving gateway (Zipfian workload)"
    )
    p_bench.add_argument(
        "--track",
        default="micro",
        help="'micro' builds a tiny pool inline; otherwise an artifact-store track",
    )
    p_bench.add_argument("--fast", action="store_true")
    p_bench.add_argument("--root", default=None)
    p_bench.add_argument("--mode", choices=("closed", "open"), default="closed")
    p_bench.add_argument("--clients", type=int, default=8, help="closed-loop client threads")
    p_bench.add_argument("--requests", type=int, default=100, help="requests per client")
    p_bench.add_argument("--rate", type=float, default=200.0, help="open-loop offered qps")
    p_bench.add_argument("--duration", type=float, default=2.0, help="open-loop seconds")
    p_bench.add_argument("--workers", type=int, default=4, help="gateway worker threads")
    p_bench.add_argument("--skew", type=float, default=1.1, help="Zipf skew exponent")
    p_bench.add_argument("--max-tasks", type=int, default=3, help="max primitives per query")
    p_bench.add_argument("--universe", type=int, default=32, help="distinct queries in workload")
    p_bench.add_argument("--transports", default="float32", help="comma-separated transports")
    p_bench.add_argument("--model-cache-mb", type=int, default=128)
    p_bench.add_argument("--payload-cache-mb", type=int, default=128)
    p_bench.add_argument("--no-cache", action="store_true", help="disable both cache tiers")
    p_bench.add_argument("--micro-tasks", type=int, default=5, help="tasks in the micro pool")
    p_bench.add_argument("--seed", type=int, default=0)
    _add_trace_flags(p_bench)
    p_bench.set_defaults(fn=cmd_serve_bench)

    p_cluster = sub.add_parser(
        "cluster-bench", help="load-test a sharded pool cluster (Zipfian workload)"
    )
    p_cluster.add_argument("--shards", type=int, default=4, help="number of pool shards")
    p_cluster.add_argument("--replication", type=int, default=1, help="copies per expert")
    p_cluster.add_argument(
        "--replicas", type=int, default=1,
        help="worker replicas per shard slot (needs --networked for >1; "
        "enables failover + hedged reads)",
    )
    p_cluster.add_argument("--workers-per-shard", type=int, default=2)
    p_cluster.add_argument("--mode", choices=("closed", "open"), default="closed")
    p_cluster.add_argument("--clients", type=int, default=8, help="closed-loop client threads")
    p_cluster.add_argument("--requests", type=int, default=100, help="requests per client")
    p_cluster.add_argument("--rate", type=float, default=200.0, help="open-loop offered qps")
    p_cluster.add_argument("--duration", type=float, default=2.0, help="open-loop seconds")
    p_cluster.add_argument("--skew", type=float, default=1.1, help="Zipf skew exponent")
    p_cluster.add_argument("--max-tasks", type=int, default=3, help="max primitives per query")
    p_cluster.add_argument("--universe", type=int, default=32, help="distinct queries in workload")
    p_cluster.add_argument("--transports", default="float32", help="comma-separated transports")
    p_cluster.add_argument("--model-cache-mb", type=int, default=64)
    p_cluster.add_argument("--payload-cache-mb", type=int, default=64)
    p_cluster.add_argument("--no-cache", action="store_true", help="disable every cache tier")
    p_cluster.add_argument("--micro-tasks", type=int, default=8, help="tasks in the micro pool")
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument(
        "--networked",
        action="store_true",
        help="run each shard in a forked worker process behind repro.net sockets",
    )
    p_cluster.add_argument(
        "--chaos",
        action="store_true",
        help="SIGKILL a random worker mid-bench and require a clean respawn "
        "(needs --networked and --replicas >= 2)",
    )
    p_cluster.add_argument(
        "--chaos-delay", type=float, default=0.5,
        help="seconds into the bench before the chaos kill fires",
    )
    p_cluster.add_argument(
        "--reshard-to", type=int, default=None, metavar="N",
        help="grow/shrink the cluster to N shards ONLINE mid-bench "
        "(two-phase epoch-fenced migration; requests must keep succeeding)",
    )
    p_cluster.add_argument(
        "--reshard-delay", type=float, default=1.0,
        help="seconds into the bench before the online reshard fires",
    )
    p_cluster.add_argument(
        "--journal", default=None, metavar="FILE",
        help="persist journal events (worker_death/worker_respawn/...) to "
        "this JSONL file",
    )
    p_cluster.add_argument(
        "--out", default=None, help="append a JSON summary record to this path"
    )
    p_cluster.add_argument("--label", default="cli", help="label stored with --out records")
    _add_trace_flags(p_cluster)
    p_cluster.set_defaults(fn=cmd_cluster_bench)

    p_reshard = sub.add_parser(
        "reshard",
        help="grow/shrink a live demo cluster online (two-phase epoch-fenced "
        "migration) and verify bit-identical answers",
    )
    p_reshard.add_argument("--shards", type=int, default=2, help="initial shard count")
    p_reshard.add_argument("--to", type=int, required=True, help="target shard count")
    p_reshard.add_argument(
        "--networked",
        action="store_true",
        help="run shards as forked worker processes (spawn/drain slots online)",
    )
    p_reshard.add_argument(
        "--replicas", type=int, default=1,
        help="worker replicas per shard slot (networked only)",
    )
    p_reshard.add_argument("--clients", type=int, default=4, help="driver threads during the move")
    p_reshard.add_argument("--micro-tasks", type=int, default=8, help="tasks in the micro pool")
    p_reshard.add_argument("--seed", type=int, default=0)
    p_reshard.add_argument(
        "--journal", default=None, metavar="FILE",
        help="persist journal events (reshard/mutation_applied/...) to this JSONL file",
    )
    p_reshard.set_defaults(fn=cmd_reshard)

    p_shard = sub.add_parser(
        "shard-serve", help="host one pool shard over TCP (repro.net protocol)"
    )
    p_shard.add_argument("--host", default="127.0.0.1")
    p_shard.add_argument("--port", type=int, default=0, help="0 picks an ephemeral port")
    p_shard.add_argument("--shard-id", type=int, default=0)
    p_shard.add_argument(
        "--tasks", default=None, help="comma-separated task subset (default: all)"
    )
    p_shard.add_argument("--workers", type=int, default=2, help="request worker threads")
    p_shard.add_argument("--micro-tasks", type=int, default=8, help="tasks in the micro pool")
    p_shard.add_argument("--seed", type=int, default=0)
    p_shard.set_defaults(fn=cmd_shard_serve)

    p_predict = sub.add_parser(
        "predict-bench", help="benchmark the fused prediction fast path"
    )
    p_predict.add_argument("--heads", type=int, default=8, help="n(Q): experts per query")
    p_predict.add_argument("--batch", type=int, default=64, help="images per prediction")
    p_predict.add_argument("--reps", type=int, default=30, help="timing repetitions (median)")
    p_predict.add_argument("--micro-tasks", type=int, default=8, help="tasks in the micro pool")
    p_predict.add_argument("--seed", type=int, default=13)
    p_predict.add_argument(
        "--out", default="BENCH_predict.json", help="JSON trajectory to append to"
    )
    p_predict.add_argument("--label", default="cli", help="label stored with this run")
    p_predict.add_argument(
        "--profile-ops",
        action="store_true",
        help="enable the per-op profiling arena and print its table",
    )
    _add_trace_flags(p_predict)
    p_predict.set_defaults(fn=cmd_predict_bench)

    p_autotune = sub.add_parser(
        "autotune-bench",
        help="self-tuning cache controller vs static budgets (shifting workload)",
    )
    p_autotune.add_argument("--micro-tasks", type=int, default=8, help="tasks in the micro pool")
    p_autotune.add_argument("--requests", type=int, default=600, help="trace length")
    p_autotune.add_argument("--hot-size", type=int, default=8, help="hot composites per phase")
    p_autotune.add_argument(
        "--budget-payloads", type=int, default=6,
        help="payload cache budget, in measured payloads (deliberately < hot size)",
    )
    p_autotune.add_argument("--tick-every", type=int, default=25, help="requests per controller tick")
    p_autotune.add_argument("--seed", type=int, default=0)
    p_autotune.add_argument(
        "--out", default="BENCH_self_tuning.json", help="JSON trajectory to append to"
    )
    p_autotune.add_argument("--label", default="cli", help="label stored with this run")
    p_autotune.set_defaults(fn=cmd_autotune_bench)

    p_trace = sub.add_parser(
        "trace-dump", help="render span trees from a JSONL trace log"
    )
    p_trace.add_argument("--file", required=True, help="JSONL trace log (from --trace)")
    p_trace.add_argument("--trace-id", default=None, help="show only this trace")
    p_trace.add_argument("--limit", type=int, default=0, help="max traces to show (0 = all)")
    p_trace.set_defaults(fn=cmd_trace_dump)

    p_scrape = sub.add_parser(
        "scrape", help="drive demo traffic and emit a Prometheus metrics scrape"
    )
    p_scrape.add_argument("--shards", type=int, default=2, help="number of pool shards")
    p_scrape.add_argument("--micro-tasks", type=int, default=6, help="tasks in the micro pool")
    p_scrape.add_argument("--requests", type=int, default=3, help="traffic rounds to drive")
    p_scrape.add_argument("--seed", type=int, default=0)
    p_scrape.add_argument(
        "--networked",
        action="store_true",
        help="run each shard in a forked worker process behind repro.net sockets",
    )
    p_scrape.add_argument("--out", default=None, help="write exposition here (default stdout)")
    _add_trace_flags(p_scrape)
    p_scrape.set_defaults(fn=cmd_scrape)

    p_top = sub.add_parser(
        "top", help="live telemetry dashboard over a demo cluster"
    )
    p_top.add_argument("--shards", type=int, default=2, help="number of pool shards")
    p_top.add_argument("--micro-tasks", type=int, default=6, help="tasks in the micro pool")
    p_top.add_argument("--seed", type=int, default=0)
    p_top.add_argument(
        "--networked",
        action="store_true",
        help="run each shard in a forked worker process behind repro.net sockets",
    )
    p_top.add_argument(
        "--replicas", type=int, default=1,
        help="worker replicas per shard slot (ignored without --networked)",
    )
    p_top.add_argument("--clients", type=int, default=2, help="background traffic threads")
    p_top.add_argument("--interval", type=float, default=1.0, help="poll/render interval (s)")
    p_top.add_argument(
        "--frames", type=int, default=0,
        help="render N frames then exit (0 = run until Ctrl-C / --duration)",
    )
    p_top.add_argument(
        "--duration", type=float, default=0.0, help="stop after this many seconds"
    )
    p_top.add_argument(
        "--plain",
        action="store_true",
        help="print frames sequentially without ANSI clear-screen (headless/CI)",
    )
    p_top.add_argument(
        "--slo-ms", type=float, default=250.0,
        help="latency objective (p95 of 'total') health scores burn against",
    )
    p_top.add_argument(
        "--journal", default=None, metavar="FILE",
        help="persist journal events to this JSONL file (size-rotated)",
    )
    p_top.set_defaults(fn=cmd_top)

    p_info = sub.add_parser("info", help="architecture registry overview")
    p_info.set_defaults(fn=cmd_info)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
