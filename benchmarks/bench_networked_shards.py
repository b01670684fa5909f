"""Networked shards: multiprocess workers vs. in-process shards under load.

Puts each shard in its own **forked worker process** behind the
``repro.net`` socket protocol and drives the identical workload through
the in-process cluster and the networked cluster.  Both arms run with the
cache tiers disabled and drive ``submit`` in a closed loop, so measured
concurrency is the cluster's capacity.

This file used to gate ">= 1.5x multiprocess vs. in-process on >= 4
cores", on the premise that consolidate + serialize is Python-heavy work
that cannot overlap under one GIL.  A payload miss no longer compresses
anything (segments are encoded once per expert, see
``repro.core.server``), so with caches off a request is mostly socket
hops and head rebuilds and the in-process arm wins; the ratio is recorded
into ``BENCH_networked.json`` as a measurement.  What gates is
correctness — the networked cluster's payloads **bit-identical** to the
in-process cluster's, zero errors, no leaked worker — plus a floor that
catches a broken transport (an order-of-magnitude collapse).

Self-contained: builds a micro pool inline (~seconds).  Run with::

    pytest benchmarks/bench_networked_shards.py -q -s
"""

import os

import pytest

from repro.cluster import ClusterConfig, ClusterGateway
from repro.eval import render_table
from repro.net import NetworkedCluster
from repro.serving import (
    ZipfianWorkload,
    append_benchmark_record,
    build_demo_pool,
    run_closed_loop,
    run_metadata,
)

NUM_SHARDS = 4
WORKERS_PER_SHARD = 2
CLIENTS = 6
REQUESTS_PER_CLIENT = 25
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_networked.json")


@pytest.fixture(scope="module")
def net_bench_pool():
    return build_demo_pool(num_tasks=8, train_per_class=20, epochs=4, seed=13)


@pytest.fixture(scope="module")
def workload(net_bench_pool):
    pool, _ = net_bench_pool
    return ZipfianWorkload(
        pool.expert_names(),
        max_query_size=2,
        skew=1.1,
        universe_size=24,
        seed=5,
    )


def _config() -> ClusterConfig:
    # caches OFF in both arms: every request pays fetch + assemble + join
    return ClusterConfig(
        num_shards=NUM_SHARDS,
        workers_per_shard=WORKERS_PER_SHARD,
        shard_model_cache_bytes=0,
        shard_payload_cache_bytes=0,
        composite_model_cache_bytes=0,
        composite_payload_cache_bytes=0,
        remote_head_cache_bytes=0,
        result_cache_bytes=0,
    )


def _drive(gateway, workload):
    return run_closed_loop(
        gateway,
        workload,
        clients=CLIENTS,
        requests_per_client=REQUESTS_PER_CLIENT,
        seed=31,
        via_submit=True,
    )


def test_networked_vs_in_process(net_bench_pool, workload, emit):
    """Aggregate qps of worker processes vs. in-process shards (recorded)."""
    pool, _ = net_bench_pool
    with ClusterGateway(pool, _config()) as cluster:
        in_process = _drive(cluster, workload)
    with NetworkedCluster(
        pool, _config(), connections_per_shard=WORKERS_PER_SHARD * 2
    ) as deployment:
        networked = _drive(deployment.gateway, workload)
        net_requests = deployment.gateway.metrics.counter("net_requests")
    assert deployment.fleet.leaked_processes() == []

    speedup = networked.throughput_qps / in_process.throughput_qps
    rows = [
        [
            label,
            f"{report.throughput_qps:,.0f}",
            f"{1e3 * report.latency['p50']:.2f}",
            f"{1e3 * report.latency['p99']:.2f}",
            f"{ratio:.2f}x",
        ]
        for label, report, ratio in (
            ("in-process shards", in_process, 1.0),
            ("worker processes", networked, speedup),
        )
    ]
    emit(
        "networked_shards",
        render_table(
            ["Backend", "qps", "p50 ms", "p99 ms", "vs in-process"],
            rows,
            title=(
                f"Networked shards: {NUM_SHARDS} shards, caches off, "
                f"closed loop ({CLIENTS}x{REQUESTS_PER_CLIENT} via submit), "
                f"{os.cpu_count()} core(s)"
            ),
        ),
    )
    append_benchmark_record(
        os.path.normpath(OUT_PATH),
        {
            "bench": "networked_shards",
            "shards": NUM_SHARDS,
            "cpus": os.cpu_count(),
            "in_process_qps": in_process.throughput_qps,
            "networked_qps": networked.throughput_qps,
            "speedup": speedup,
            "net_requests": net_requests,
            "meta": run_metadata(
                replicas_per_shard=_config().replicas_per_shard,
                hedge_enabled=_config().replicas_per_shard > 1,
                chaos=False,
            ),
        },
        label="bench",
    )

    for report in (in_process, networked):
        assert report.errors == 0
    # the socket hop costs, but an order-of-magnitude collapse means the
    # transport is broken
    assert speedup > 0.2, f"networked serving collapsed ({speedup:.2f}x)"


def test_networked_payloads_bit_identical(net_bench_pool):
    """Same query, both backends: payload bytes must match exactly."""
    pool, _ = net_bench_pool
    config = ClusterConfig(num_shards=NUM_SHARDS, workers_per_shard=WORKERS_PER_SHARD)
    with ClusterGateway(pool, config) as cluster:
        names = sorted(pool.expert_names())
        first = names[0]
        partner = next(
            n for n in names[1:] if cluster.shards_of(n)[0] != cluster.shards_of(first)[0]
        )
        query = (first, partner)
        local_cross = cluster.serve(query).payload
        local_single = cluster.serve((first,)).payload
    with NetworkedCluster(pool, config) as deployment:
        assert deployment.gateway.serve(query).payload == local_cross
        assert deployment.gateway.serve((first,)).payload == local_single
    assert deployment.fleet.leaked_processes() == []


def test_networked_serve_kernel(benchmark, net_bench_pool, workload):
    """Timed kernel: one warm single-shard serve through a worker process."""
    pool, _ = net_bench_pool
    config = ClusterConfig(num_shards=NUM_SHARDS, workers_per_shard=WORKERS_PER_SHARD)
    with NetworkedCluster(pool, config) as deployment:
        tasks, transport = workload.sample(1, seed=41)[0]
        deployment.gateway.serve(tasks, transport)
        benchmark(lambda: deployment.gateway.serve(tasks, transport))
