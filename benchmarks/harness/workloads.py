"""The four workloads: what is started, how it is driven, what is checked,
and :func:`measure`, which does all of it once for one workload.

Every loop is closed: the client sends its next op only after the previous
answer arrived and was checked.  One driver process, one client thread, at
most two shard worker processes — sized for a 2-core box that is a small
share of a busy host.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import ClusterConfig
from repro.core import TaskSpecificModel, serialize_task_model
from repro.net import NetworkedCluster
from repro.serving import GatewayConfig, ServingGateway, build_demo_pool

import opgen
import spans as tracing
from stats import percentile, samples_beyond

WORKLOADS = {
    "serve_cold_inproc": "every serve pays canonicalize, consolidate and serialize in process; the caches and the network do nothing",
    "serve_hot_net": "every serve crosses the socket and hits a shard payload cache: framing, socket and client bookkeeping dominate",
    "predict_cold_inproc": "every predict is a never-seen image batch: digest, trunk-cache miss, fused trunk and head bank, caches only written",
    "mixed_zipf_net": "70/30 serve/predict over sharded composites with payload caches under byte pressure: hits, misses and evictions mixed",
}

#: ``(name, unit, better, bound)`` — the gated numbers, one set per workload.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

#: ``(name, unit, better)`` — diagnostics from the traced replay, never gated.
PER_LAYER = (
    ("loadgen.run_throughput_ops_s", "ops/s", "higher"),
    ("loadgen.run_latency_p50_ms", "ms", "lower"),
    ("loadgen.run_latency_p95_ms", "ms", "lower"),
    ("loadgen.latency_p99_ms", "ms", "lower"),
    ("loadgen.latency_max_ms", "ms", "lower"),
    ("loadgen.gen_overhead_us", "us", "lower"),
    ("loadgen.trace_overhead_pct", "%", "lower"),
    ("serving.canonicalize_us", "us", "lower"),
    ("serving.gateway_self_us", "us", "lower"),
    ("serving.cache_get_us", "us", "lower"),
    ("serving.cache_put_us", "us", "lower"),
    ("serving.cache_evictions", "1/op", "lower"),
    ("serving.coalesced", "1/op", "higher"),
    ("serving.payload_cache.hit_ratio", "ratio", "higher"),
    ("serving.model_cache.hit_ratio", "ratio", "higher"),
    ("serving.trunk_cache.hit_ratio", "ratio", "higher"),
    ("serving.result_cache.hit_ratio", "ratio", "higher"),
    ("core.consolidate_us", "us", "lower"),
    ("core.consolidate_calls", "1/op", "lower"),
    ("core.serialize_us", "us", "lower"),
    ("core.serialize_calls", "1/op", "lower"),
    ("core.payload_kb_p50", "KiB", "lower"),
    ("core.deserialize_heads_us", "us", "lower"),
    ("core.digest_us", "us", "lower"),
    ("core.trunk_cache_self_us", "us", "lower"),
    ("cluster.plan_us", "us", "lower"),
    ("cluster.gateway_self_us", "us", "lower"),
    ("cluster.fanout_mean", "shards", "lower"),
    ("cluster.cross_shard_share", "ratio", "lower"),
    ("cluster.fetch_heads_us", "us", "lower"),
    ("cluster.remote_head_cache.hit_ratio", "ratio", "higher"),
    ("net.requests_per_op", "1/op", "lower"),
    ("net.encode_us", "us", "lower"),
    ("net.decode_us", "us", "lower"),
    ("net.remote_wait_us", "us", "lower"),
    ("net.wire_kb_per_op", "KiB/op", "lower"),
    ("net.retries", "1/op", "lower"),
    ("net.hedges", "1/op", "lower"),
    ("nn.trunk_ms", "ms", "lower"),
    ("nn.trunk_calls", "1/op", "lower"),
    ("nn.trunk_images_per_call", "images", "higher"),
    ("models.head_bank_ms", "ms", "lower"),
    ("models.head_bank_calls", "1/op", "lower"),
    ("models.heads_per_call", "heads", "higher"),
    ("obs.span_noop_ns", "ns", "lower"),
    ("waterfall.attributed_us", "us", "lower"),
    ("waterfall.unattributed_us", "us", "lower"),
    ("waterfall.unattributed_share", "ratio", "lower"),
)

#: Per-call self-time metrics: ``metric -> (span name prefix, nanoseconds per unit)``.
_SELF_TIME_METRICS = {
    "serving.canonicalize_us": ("serving.canonicalize", 1e3),
    "serving.gateway_self_us": ("serving.gateway", 1e3),
    "serving.cache_get_us": ("serving.cache_get", 1e3),
    "serving.cache_put_us": ("serving.cache_put", 1e3),
    "core.consolidate_us": ("core.consolidate", 1e3),
    "core.serialize_us": ("core.serialize", 1e3),
    "core.deserialize_heads_us": ("core.deserialize_heads", 1e3),
    "core.digest_us": ("core.digest", 1e3),
    "core.trunk_cache_self_us": ("core.trunk_cache", 1e3),
    "cluster.plan_us": ("cluster.plan", 1e3),
    "cluster.gateway_self_us": ("cluster.gateway", 1e3),
    "nn.trunk_ms": ("nn.trunk", 1e6),
    "models.head_bank_ms": ("models.head_bank", 1e6),
}
_CALLS_PER_OP_METRICS = {
    "core.consolidate_calls": "core.consolidate",
    "core.serialize_calls": "core.serialize",
    "nn.trunk_calls": "nn.trunk",
    "models.head_bank_calls": "models.head_bank",
}

POOL_RECIPE = dict(num_tasks=8, train_per_class=20, epochs=4, seed=13)
#: The timed phase is cut into this many equal slices of time and the gated
#: throughput and latencies are those of the calmest slice.  Other tenants of
#: the host slow this box down by 10-40 % in spells of a second to a minute;
#: they only ever add time, so the best slice is what repeats from run to run,
#: while figures over the whole run move with the neighbours.  The count is
#: fixed so that taking the best of it biases every commit alike.
WINDOWS = 16
#: A predict op whose id is a multiple of this keeps its answer for the
#: reference check; at most ``PREDICT_CHECKS`` of those are then verified.
PREDICT_SAMPLE_STRIDE = 4
PREDICT_CHECKS = 200
#: A differing class id is tolerated only where the reference itself is a coin flip.
TOP2_GAP_TOLERANCE = 1e-4


def build_pool():
    """``(pool, image shape, seconds)`` — the one demo pool every workload uses."""
    start = perf_counter()
    pool, data = build_demo_pool(**POOL_RECIPE)
    return pool, tuple(data.test.images.shape[1:]), perf_counter() - start


# ----------------------------------------------------------------------
# The system under test
# ----------------------------------------------------------------------
class System:
    """One started gateway (in process) or fleet plus front end (networked)."""

    def __init__(self, pool, workload: str) -> None:
        self.cluster: Optional[NetworkedCluster] = None
        self.leaked = 0
        self._affinity = None
        if workload == "serve_cold_inproc":
            self.gateway = ServingGateway(
                pool, GatewayConfig(model_cache_bytes=0, payload_cache_bytes=0)
            )
        elif workload == "predict_cold_inproc":
            self.gateway = ServingGateway(pool, GatewayConfig())
        else:
            if workload == "serve_hot_net":
                config = ClusterConfig(
                    num_shards=2,
                    replicas_per_shard=1,
                    composite_model_cache_bytes=0,
                    composite_payload_cache_bytes=0,
                )
            else:
                config = ClusterConfig(
                    num_shards=2,
                    replicas_per_shard=1,
                    shard_payload_cache_bytes=4 << 20,
                    composite_payload_cache_bytes=4 << 20,
                )
            # The client and the shard workers take turns: one waits on the
            # socket while the other works.  Spread over two virtual CPUs each
            # hand-over wakes an idle CPU, which costs as much as the op itself
            # and varies with the host's load; on one CPU it is a context
            # switch.  Threads and workers started from here on inherit this.
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {max(self._affinity)})
            try:
                self.cluster = NetworkedCluster(pool, config)
            except BaseException:
                os.sched_setaffinity(0, self._affinity)
                raise
            self.gateway = self.cluster.gateway

    def close(self) -> None:
        """Stop everything that was started; a worker that survives is killed and counted."""
        if self.cluster is None:
            self.gateway.close()
            return
        try:
            self.cluster.close()
        finally:
            os.sched_setaffinity(0, self._affinity)
            leaked = self.cluster.fleet.leaked_processes()
            self.leaked = len(leaked)
            for process in leaked:
                process.kill()
                process.join(timeout=10.0)

    def process_ids(self) -> List[int]:
        pids = [os.getpid()]
        if self.cluster is not None:
            pids += [handle.process.pid for handle in self.cluster.fleet.workers]
        return pids

    def counters(self) -> Dict[str, object]:
        """Program-side counts read at the layer boundaries (deltas are taken by the caller)."""
        metrics = self.gateway.metrics
        snapshot: Dict[str, object] = {
            "cache": self.gateway.cache_stats(),
            "coalesced": metrics.counter("coalesced"),
        }
        if self.cluster is not None:
            snapshot["fanout"] = metrics.fanout_histogram()
            for counter in ("net_bytes_tx", "net_bytes_rx", "net_retries", "hedge_fired"):
                snapshot[counter] = metrics.counter(counter)
        return snapshot


def peak_rss_mib(pids: List[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                status = fh.read()
        except FileNotFoundError:  # a worker that died: its ops already count as failed
            continue
        total_kib += int(status.split("VmHWM:")[1].split()[0])
    return total_kib / 1024.0


# ----------------------------------------------------------------------
# Driving and checking
# ----------------------------------------------------------------------
@dataclass
class ClientLog:
    """What one client thread saw."""

    started: float = 0.0
    finished: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Latency and completion time of every *correct* op, in op order.
    latencies: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    busy: float = 0.0
    payload_bytes: List[int] = field(default_factory=list)
    #: ``(index into latencies, query id, image window start, class ids)``.
    predictions: List[Tuple[int, int, int, np.ndarray]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def reference_payloads(pool, plan: opgen.OpPlan) -> Dict[Tuple[int, int], bytes]:
    """What the plain single pool serialises for every ``(query, transport)`` in the plan."""
    serves = plan.kinds == opgen.SERVE
    pairs = np.unique(np.stack([plan.query_ids[serves], plan.args[serves]], axis=1), axis=0)
    references = {}
    for query_id, transport_id in pairs.tolist():
        network, composite = pool.consolidate(list(plan.canonical[query_id]))
        references[(query_id, transport_id)] = serialize_task_model(
            network, composite, pool.config, opgen.TRANSPORTS[transport_id]
        )
    return references


def _client(
    system: System,
    plan: opgen.OpPlan,
    ops,
    references: Optional[Dict[Tuple[int, int], bytes]],
    barrier: threading.Barrier,
    seconds: Optional[float],
    limit: Optional[int],
    recorder: Optional[tracing.SpanRecorder],
    log: ClientLog,
) -> None:
    # looked up here, after any patching, so the traced replay goes through the wrappers
    serve, predict = system.gateway.serve, system.gateway.predict
    thread_log = None
    if recorder is not None:
        thread_log = recorder.attach_thread()
        serve = recorder.wrap(tracing.OP_SPAN, serve)
        predict = recorder.wrap(tracing.OP_SPAN, predict)
    queries, canonical, transports = plan.queries, plan.canonical, opgen.TRANSPORTS
    barrier.wait()
    log.started = log.finished = perf_counter()
    deadline = None if seconds is None else log.started + seconds
    while limit != 0:  # a run that outpaces its plan starts the plan over
        for op_id, kind, query_id, arg in ops():
            began = perf_counter()
            if (deadline is not None and began >= deadline) or log.attempted == limit:
                log.finished = began
                return
            if thread_log is not None:
                thread_log.op = op_id
            log.attempted += 1
            try:
                if kind == opgen.SERVE:
                    response = serve(queries[query_id], transports[arg])
                    ended = perf_counter()
                    correct = response.tasks == canonical[query_id] and (
                        references is None or response.payload == references[(query_id, arg)]
                    )
                    size = response.payload_bytes
                else:
                    response = predict(plan.image_window(arg), queries[query_id])
                    ended = perf_counter()
                    correct = (
                        response.tasks == canonical[query_id]
                        and len(response.class_ids) == plan.batch
                    )
                    size = 0
                    if correct and op_id % PREDICT_SAMPLE_STRIDE == 0:
                        log.predictions.append(
                            (len(log.latencies), query_id, arg, np.array(response.class_ids))
                        )
            except Exception as error:  # a refused or crashed op is a failed op, not the end of the run
                ended = perf_counter()
                correct = False
                if len(log.errors) < 5:
                    log.errors.append(f"op {op_id}: {type(error).__name__}: {error}")
            log.busy += ended - began
            if correct:
                log.latencies.append(ended - began)
                log.ends.append(ended)
                if size:
                    log.payload_bytes.append(size)
            else:
                log.failed += 1
                if not log.errors:
                    log.errors.append(f"op {op_id}: wrong answer")


def drive(
    system: System,
    plan: opgen.OpPlan,
    *,
    warmup: bool = False,
    references: Optional[Dict[Tuple[int, int], bytes]] = None,
    seconds: Optional[float] = None,
    limits: Optional[List[int]] = None,
    recorder: Optional[tracing.SpanRecorder] = None,
) -> List[ClientLog]:
    """Run the plan's clients to completion: the warm-up prefix once, or the
    timed ops for ``seconds`` or up to ``limits[client]`` ops each."""
    logs = [ClientLog() for _ in range(plan.clients)]
    barrier = threading.Barrier(plan.clients)
    threads = []
    for client, log in enumerate(logs):
        if warmup:
            ops = lambda client=client: plan.warmup_ops(client)
            limit = len(list(plan.warmup_ops(client)))
        else:
            ops = lambda client=client: plan.timed_ops(client)
            limit = None if limits is None else limits[client]
        threads.append(
            threading.Thread(
                target=_client,
                args=(system, plan, ops, references, barrier, seconds, limit, recorder, log),
                name=f"bench-client-{client}",
            )
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return logs


def verify_predictions(pool, plan: opgen.OpPlan, logs: List[ClientLog], seed: int) -> int:
    """Hold a seeded sample of predict answers against the autograd reference.

    A wrong answer turns its op into a failed one: its latency sample is
    withdrawn.  Returns how many answers were checked.
    """
    candidates = [
        (client, entry) for client, log in enumerate(logs) for entry in log.predictions
    ]
    chosen = random.Random(seed).sample(candidates, min(PREDICT_CHECKS, len(candidates)))
    models: Dict[int, TaskSpecificModel] = {}
    withdrawn: Dict[int, List[int]] = {}
    for client, (position, query_id, start, class_ids) in chosen:
        model = models.get(query_id)
        if model is None:
            model = models[query_id] = TaskSpecificModel(
                *pool.consolidate(list(plan.canonical[query_id]))
            )
        logits = model.logits(plan.image_window(start))
        expected = model.classes[logits.argmax(axis=1)]
        top2 = np.sort(logits, axis=1)[:, -2:]
        decided = (top2[:, 1] - top2[:, 0]) >= TOP2_GAP_TOLERANCE
        if np.any((class_ids != expected) & decided):
            withdrawn.setdefault(client, []).append(position)
    for client, positions in withdrawn.items():
        log = logs[client]
        for position in sorted(positions, reverse=True):
            del log.latencies[position], log.ends[position]
        log.failed += len(positions)
        log.errors.append(f"{len(positions)} predictions differ from the autograd reference")
    return len(chosen)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def window_latencies(logs: List[ClientLog]) -> Tuple[List[List[float]], float]:
    """``(windows, width)``: the correct ops' latencies, sorted, by the one of
    :data:`WINDOWS` equal slices of the timed phase each op ended in (slices
    without a correct op are left out), and the width of a slice in seconds."""
    started = min(log.started for log in logs)
    width = (max(log.finished for log in logs) - started) / WINDOWS
    windows: List[List[float]] = [[] for _ in range(WINDOWS)]
    for log in logs:
        for ended, latency in zip(log.ends, log.latencies):
            windows[min(int((ended - started) / width), WINDOWS - 1)].append(latency)
    return [sorted(window) for window in windows if window], width


def end_to_end_metrics(
    logs: List[ClientLog], setup_s: float, rss_mib: float
) -> Dict[str, Optional[float]]:
    """The gated numbers: throughput and latencies of the calmest window, each
    figure's own best; a run without a single correct op has no latency to report."""
    windows, width = window_latencies(logs)
    return {
        "setup_s": setup_s,
        "throughput_ops_s": max(map(len, windows), default=0) / width,
        "latency_p50_ms": min(percentile(w, 0.50) for w in windows) * 1e3 if windows else None,
        "latency_p95_ms": min(percentile(w, 0.95) for w in windows) * 1e3 if windows else None,
        "peak_rss_mb": rss_mib,
    }


def _hit_ratio(before, after) -> float:
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return hits / lookups if lookups else 0.0


def span_noop_ns(iterations: int = 200_000) -> float:
    """Cost of one disabled ``TRACER.span()`` — what the program pays for its
    own tracing hooks while they are off, as they are in both phases."""
    from repro.obs import TRACER

    if TRACER.enabled:
        raise RuntimeError("the program's tracer must stay off during the benchmark")
    span = TRACER.span
    start = perf_counter()
    for _ in range(iterations):
        with span("bench.noop"):
            pass
    with_span = perf_counter() - start
    start = perf_counter()
    for _ in range(iterations):
        pass
    return (with_span - (perf_counter() - start)) / iterations * 1e9


def per_layer_metrics(
    untraced_logs: List[ClientLog],
    replay_logs: List[ClientLog],
    replay_limits: List[int],
    totals: Dict[str, tracing.LayerTotals],
    gaps: List[str],
    before: Dict[str, object],
    after: Dict[str, object],
) -> Tuple[Dict[str, Optional[float]], Dict[str, float]]:
    """``(metrics, waterfall)``: every :data:`PER_LAYER` metric (``None`` where
    an entry point no longer resolves) and each layer's self time per op."""
    metrics: Dict[str, Optional[float]] = {}
    ops = totals[tracing.OP_SPAN].calls

    def layer(prefix: str) -> tracing.LayerTotals:
        """Totals over ``prefix`` and every span name below it."""
        parts = [t for name, t in totals.items() if (name + ".").startswith(prefix + ".")]
        return tracing.LayerTotals(*map(sum, zip(*parts))) if parts else tracing.LayerTotals(0, 0, 0, 0)

    def per(prefix: str, amount: float, count: float) -> Optional[float]:
        """``amount / count``; 0 where the layer never ran, ``None`` where it cannot be traced."""
        if any((gap + ".").startswith(prefix + ".") for gap in gaps):
            return None
        return amount / count if count else 0.0

    def delta(counter: str) -> float:
        return after.get(counter, 0) - before.get(counter, 0)

    # loadgen: the untraced phase as a whole, neighbours' spells included (the
    # gated figures are its calmest window), and what driving and tracing cost
    untraced = sorted(latency for log in untraced_logs for latency in log.latencies)
    wall = max(log.finished for log in untraced_logs) - min(log.started for log in untraced_logs)
    metrics["loadgen.run_throughput_ops_s"] = len(untraced) / wall
    metrics["loadgen.run_latency_p50_ms"] = percentile(untraced, 0.50) * 1e3
    metrics["loadgen.run_latency_p95_ms"] = percentile(untraced, 0.95) * 1e3
    metrics["loadgen.latency_p99_ms"] = percentile(untraced, 0.99) * 1e3
    metrics["loadgen.latency_max_ms"] = untraced[-1] * 1e3
    attempted = sum(log.attempted for log in untraced_logs)
    outside = sum(log.finished - log.started - log.busy for log in untraced_logs)
    metrics["loadgen.gen_overhead_us"] = outside / attempted * 1e6
    # the same ops, untraced then traced: how long each took to get through them
    untraced_wall = max(
        log.ends[limit - 1] - log.started for log, limit in zip(untraced_logs, replay_limits)
    )
    traced_wall = max(log.finished for log in replay_logs) - min(log.started for log in replay_logs)
    metrics["loadgen.trace_overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0

    # spans: self time per call, calls per op, work per call
    for name, (prefix, nanos_per_unit) in _SELF_TIME_METRICS.items():
        total = layer(prefix)
        metrics[name] = per(prefix, total.self_ns / nanos_per_unit, total.calls)
    for name, prefix in _CALLS_PER_OP_METRICS.items():
        metrics[name] = per(prefix, layer(prefix).calls, ops)
    trunk, bank = layer("nn.trunk"), layer("models.head_bank")
    metrics["nn.trunk_images_per_call"] = per("nn.trunk", trunk.work, trunk.calls)
    metrics["models.heads_per_call"] = per("models.head_bank", bank.work, bank.calls)
    # net: per remote request, as the front end sees it
    requests, fetch = layer("net.remote").calls, layer("net.remote.fetch_heads")
    metrics["net.requests_per_op"] = per("net.remote", requests, ops)
    for name, prefix in (
        ("net.encode_us", "net.encode"),
        ("net.decode_us", "net.decode"),
        ("net.remote_wait_us", "net.remote"),
    ):
        metrics[name] = per(prefix, layer(prefix).self_ns / 1e3, requests)
    metrics["cluster.fetch_heads_us"] = per("net.remote.fetch_heads", fetch.inclusive_ns / 1e3, fetch.calls)

    # counts the program keeps at its own boundaries
    cache_before, cache_after = before["cache"], after["cache"]
    for tier in ("payload", "model", "trunk", "result"):
        metrics[f"serving.{tier}_cache.hit_ratio"] = _hit_ratio(cache_before[tier], cache_after[tier])
    metrics["cluster.remote_head_cache.hit_ratio"] = (
        _hit_ratio(cache_before["remote_heads"], cache_after["remote_heads"])
        if "remote_heads" in cache_after
        else 0.0
    )
    # composite_* tiers are already merged into "model" and "payload"
    tiers = [tier for tier in cache_after if not tier.startswith("composite_")]
    metrics["serving.cache_evictions"] = (
        sum(cache_after[tier].evictions - cache_before[tier].evictions for tier in tiers) / ops
    )
    metrics["serving.coalesced"] = delta("coalesced") / ops
    fanout = {
        shards: count - before.get("fanout", {}).get(shards, 0)
        for shards, count in after.get("fanout", {}).items()
    }
    planned = sum(fanout.values())
    metrics["cluster.fanout_mean"] = (
        sum(shards * count for shards, count in fanout.items()) / planned if planned else 0.0
    )
    metrics["cluster.cross_shard_share"] = (
        sum(count for shards, count in fanout.items() if shards > 1) / planned if planned else 0.0
    )
    metrics["net.wire_kb_per_op"] = (delta("net_bytes_tx") + delta("net_bytes_rx")) / 1024.0 / ops
    metrics["net.retries"] = delta("net_retries") / ops
    metrics["net.hedges"] = delta("hedge_fired") / ops
    sizes = sorted(size for log in replay_logs for size in log.payload_bytes)
    metrics["core.payload_kb_p50"] = percentile(sizes, 0.5) / 1024.0 if sizes else 0.0
    metrics["obs.span_noop_ns"] = span_noop_ns()

    # waterfall: every op span's duration is the sum of the self times under it
    waterfall = {
        name: total.self_ns / ops / 1e3 for name, total in totals.items() if name != tracing.OP_SPAN
    }
    traced_latency_us = totals[tracing.OP_SPAN].inclusive_ns / ops / 1e3
    attributed = sum(waterfall.values())
    metrics["waterfall.attributed_us"] = attributed
    metrics["waterfall.unattributed_us"] = traced_latency_us - attributed
    metrics["waterfall.unattributed_share"] = (traced_latency_us - attributed) / traced_latency_us
    return metrics, waterfall


# ----------------------------------------------------------------------
# One measurement
# ----------------------------------------------------------------------
def _set_up(pool, workload: str, plan: opgen.OpPlan) -> Tuple[System, float]:
    """Start the system and run the warm-up prefix; ``(system, seconds)``."""
    started = perf_counter()
    system = System(pool, workload)
    try:
        drive(system, plan, warmup=True)
    except BaseException:
        system.close()
        raise
    return system, perf_counter() - started


def measure(workload, seed, seconds, *, trace, setups, pool=None, span_sink=None, say=print):
    """Set up, drive and check one workload; with ``trace`` also replay it traced.

    ``pool`` is a ``build_pool()`` result to share between workloads;
    ``setups`` is how many complete set-ups ``setup_s`` is the median of.
    """
    pool, image_shape, build_s = pool or build_pool()
    plan = opgen.build_plan(workload, seed, pool.expert_names(), image_shape)
    plan_digest = plan.digest()
    system, start_s = _set_up(pool, workload, plan)
    setup_samples = [build_s + start_s]
    say(f"[{workload}] set up in {setup_samples[0]:.2f} s ({plan.clients} client(s), plan {plan_digest})")
    try:
        references = reference_payloads(pool, plan)
        logs = drive(system, plan, references=references, seconds=seconds)
        rss_mib = peak_rss_mib(system.process_ids())
    finally:
        system.close()
    leaked = system.leaked
    # the further set-ups come after the measurement: the measured system then
    # always runs in a process that has built exactly one pool, so memory and
    # allocator state are the same on every run
    for _ in range(setups - 1):
        fresh_pool, _shape, build_s = build_pool()
        rehearsal, start_s = _set_up(fresh_pool, workload, plan)
        rehearsal.close()
        setup_samples.append(build_s + start_s)
    checked = verify_predictions(pool, plan, logs, seed)
    counted = logs
    result = {
        "clients": plan.clients,
        "plan_digest": plan_digest,
        "predictions_checked": checked,
        "samples_beyond_p95": samples_beyond(sum(len(log.latencies) for log in logs) // WINDOWS, 0.95),
        "setup_samples_s": setup_samples,
        "end_to_end": end_to_end_metrics(logs, statistics.median(setup_samples), rss_mib),
    }

    if trace:
        limits = [max(1, log.attempted // 4) for log in logs]
        recorder = tracing.SpanRecorder()
        system = System(pool, workload)
        try:
            # workers are forked before the wrappers go in: they run unpatched
            drive(system, plan, warmup=True)
            before = system.counters()
            with tracing.Patcher(recorder).install() as patcher:
                replay = drive(system, plan, references=references, limits=limits, recorder=recorder)
            after = system.counters()
        finally:
            system.close()
        leaked += system.leaked
        counted = logs + replay
        result["per_layer"], result["waterfall"] = per_layer_metrics(
            logs, replay, limits, tracing.aggregate(recorder), patcher.gaps, before, after
        )
        result["trace_gaps"] = sorted(set(patcher.gaps))
        result["traced_ops"] = sum(log.attempted for log in replay)
        if span_sink is not None:
            recorder.write_jsonl(span_sink, workload)

    attempted = sum(log.attempted for log in counted)
    failed = sum(log.failed for log in counted)
    result.update(
        attempted=attempted,
        succeeded=attempted - failed,
        failed=failed,
        failed_share=failed / attempted if attempted else 1.0,
        errors=[error for log in counted for error in log.errors],
        leaked_processes=leaked,
        correct=failed == 0 and attempted > 0 and leaked == 0,
    )
    return result
