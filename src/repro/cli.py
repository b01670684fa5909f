"""Command-line interface for the PoE reproduction.

Subcommands::

    python -m repro.cli build   [--tracks ...] [--fast]   # train artifacts
    python -m repro.cli tables  [--fast] [--out FILE]     # paper vs measured
    python -m repro.cli query   --track T --tasks a,b     # serve one query
    python -m repro.cli reshard --to 3 [--networked]      # online reshard under load
    python -m repro.cli shard-serve --port 7070           # host one shard over TCP
    python -m repro.cli autotune-bench                    # self-tuning vs static budgets
    python -m repro.cli scrape  [--networked]             # Prometheus text scrape
    python -m repro.cli top     [--networked]             # live telemetry dashboard
    python -m repro.cli trace-dump --file trace.jsonl     # render recorded span trees
    python -m repro.cli info                              # registry overview

``scrape`` accepts ``--trace FILE`` (JSONL span log, readable by
``trace-dump``) and ``--slow-ms T`` (slow-query log at ``FILE.slow``).
The request-path benchmark is ``benchmarks/harness/run.py``.

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
        # ``stop`` is read only between requests and the cluster stays open
        # until every client thread has joined, so every failure is a real one
        i = worker_id
        while not stop.is_set():
            try:
                cluster.serve((names[i % len(names)],))
            except Exception as exc:  # noqa: BLE001 - tallied below
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


def cmd_autotune_bench(args: argparse.Namespace) -> int:
    """Self-tuning controller vs static budgets on a shifting workload."""
    from .control import (
        append_benchmark_record,
        run_metadata,
        run_self_tuning_benchmark,
        verify_report,
    )
    from .serving import build_demo_pool

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
