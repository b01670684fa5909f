"""Cluster scaling: sustained qps from 1 to N shards under Zipfian load.

Reports how sustained qps moves from 1 to 4 shards under a **fixed
per-shard envelope** (cache bytes and worker threads per shard) on one
Zipfian workload.  What scales out with the shard count is **aggregate
cache capacity** — each shard caches its own slice of the workload (and
the front end sizes its composite tiers per shard), so a working set that
thrashes one shard's budget fits the cluster's.  Since a payload miss
stopped compressing (segments are encoded once per expert, see
``repro.core.server``) a miss costs about as much as the cross-shard
bookkeeping a hit on a bigger cluster pays: the 4-vs-1 ratio now reads
0.9-1.3x run to run (it was ~4.5x while a miss cost 5-30 ms), so it is
reported, and gated only by a not-collapsed floor.

The benchmark drives ``ClusterGateway.submit`` (closed loop,
``via_submit``) so measured concurrency is the cluster's capacity, not
the load generator's thread count.  Correctness rides along: a
cross-shard query's payload must rebuild to predictions **bit-identical**
to single-pool ``consolidate()``.

Self-contained: builds a micro pool inline (~seconds).  Run with::

    pytest benchmarks/bench_cluster_scaling.py -q -s

Gates: zero errors, the 0.5x floor, and bit-identical cross-shard payloads.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterGateway
from repro.core import deserialize_task_model
from repro.distill import batched_forward
from repro.eval import render_table
from repro.serving import ZipfianWorkload, build_demo_pool, run_closed_loop

SHARD_COUNTS = (1, 2, 4)
#: Fixed per-shard envelope: the point of the benchmark is that capacity
#: scales out, so each shard's budget must NOT grow as shards are removed.
PER_SHARD_CACHE_BYTES = 512 << 10
WORKERS_PER_SHARD = 2
CLIENTS = 8
REQUESTS_PER_CLIENT = 75


@pytest.fixture(scope="module")
def cluster_pool():
    pool, data = build_demo_pool(
        num_tasks=8, train_per_class=20, epochs=4, seed=13
    )
    return pool, data


@pytest.fixture(scope="module")
def workload(cluster_pool):
    pool, _ = cluster_pool
    return ZipfianWorkload(
        pool.expert_names(),
        max_query_size=3,
        skew=1.1,
        universe_size=32,
        seed=5,
    )


def _config(num_shards: int) -> ClusterConfig:
    return ClusterConfig(
        num_shards=num_shards,
        workers_per_shard=WORKERS_PER_SHARD,
        shard_model_cache_bytes=PER_SHARD_CACHE_BYTES,
        shard_payload_cache_bytes=PER_SHARD_CACHE_BYTES,
        # the front end fronts N shards, so its composite tiers are sized
        # per shard too (a networked deployment would distribute them)
        composite_model_cache_bytes=PER_SHARD_CACHE_BYTES * num_shards,
        composite_payload_cache_bytes=PER_SHARD_CACHE_BYTES * num_shards,
    )


def _drive(pool, workload, num_shards: int):
    with ClusterGateway(pool, _config(num_shards)) as cluster:
        # steady state: prime every distinct query once, then measure
        for tasks in workload.queries:
            cluster.serve(tasks)
        for shard in cluster.shards:
            shard.gateway.payload_cache.reset_stats()
            shard.gateway.model_cache.reset_stats()
        cluster.payload_cache.reset_stats()
        cluster.model_cache.reset_stats()
        report = run_closed_loop(
            cluster,
            workload,
            clients=CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            seed=31,
            via_submit=True,
        )
        fanout = cluster.metrics.fanout_histogram()
    return report, fanout


def _mean_fanout(fanout) -> float:
    total = sum(fanout.values())
    return sum(k * v for k, v in fanout.items()) / total if total else 0.0


def test_cluster_scaling(cluster_pool, workload, emit):
    """Sustained qps at 4 shards vs. 1 shard (reported; floor: not collapsed)."""
    pool, _ = cluster_pool
    results = {n: _drive(pool, workload, n) for n in SHARD_COUNTS}
    speedup = (
        results[4][0].throughput_qps / results[1][0].throughput_qps
    )
    rows = []
    for n in SHARD_COUNTS:
        report, fanout = results[n]
        rows.append(
            [
                str(n),
                f"{report.throughput_qps:,.0f}",
                f"{1e3 * report.latency['p50']:.3f}",
                f"{1e3 * report.latency['p99']:.3f}",
                f"{report.payload_hit_rate:.1%}",
                f"{_mean_fanout(fanout):.2f}",
            ]
        )
    rows.append(["4 vs 1", f"{speedup:.1f}x", "", "", "", ""])
    emit(
        "cluster_scaling",
        render_table(
            ["Shards", "qps", "p50 ms", "p99 ms", "payload hits", "mean fan-out"],
            rows,
            title=(
                "Cluster scaling: fixed per-shard envelope "
                f"({PER_SHARD_CACHE_BYTES >> 10} KiB/tier, "
                f"{WORKERS_PER_SHARD} workers), Zipfian skew=1.1"
            ),
        ),
    )
    assert all(report.errors == 0 for report, _ in results.values())
    assert speedup > 0.5, f"sharded serving collapsed ({speedup:.2f}x of one shard)"


def test_cross_shard_matches_single_pool_bit_exact(cluster_pool):
    """A served cross-shard composite == single-pool consolidate, bit-for-bit."""
    pool, data = cluster_pool
    with ClusterGateway(pool, _config(4)) as cluster:
        names = sorted(pool.expert_names())
        # pick tasks whose primaries live on different shards
        first = names[0]
        partner = next(
            n for n in names[1:] if cluster.shards_of(n)[0] != cluster.shards_of(first)[0]
        )
        query = (first, partner)
        response = cluster.serve(query)
        assert cluster.metrics.counter("cross_shard") >= 1
        rebuilt = deserialize_task_model(response.payload)
    network, _ = pool.consolidate(list(query))
    x = data.test.images[:32]
    assert np.array_equal(rebuilt.logits(x), batched_forward(network, x))


def test_cluster_serve_kernel(benchmark, cluster_pool, workload):
    """Timed kernel: one warm cached serve through the cluster front end."""
    pool, _ = cluster_pool
    with ClusterGateway(pool, _config(4)) as cluster:
        tasks, transport = workload.sample(1, seed=41)[0]
        cluster.serve(tasks, transport)
        benchmark(lambda: cluster.serve(tasks, transport))
