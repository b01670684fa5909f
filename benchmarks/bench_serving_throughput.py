"""Serving throughput: queries/sec and tail latency vs. cache budget.

Reports what the model+payload caches buy under a Zipfian (skewed)
workload — a hit skips canonical-model assembly and the payload join; a
miss no longer compresses anything (segments are encoded once per expert,
see ``repro.core.server``), so the ratio is a measurement, not a gate: the
only wall-clock assertion is that the caches do not make serving slower.
Also reports how tail latency responds as the payload-cache byte budget
shrinks (evictions bite progressively, hottest queries stay fast).

Self-contained: builds a micro pool inline (~seconds), no artifact store
required.  Run with::

    pytest benchmarks/bench_serving_throughput.py -q -s
"""

import pytest

from repro.serving import (
    GatewayConfig,
    ServingGateway,
    ZipfianWorkload,
    build_demo_pool,
    run_closed_loop,
)
from repro.eval import render_table

CLIENTS = 6
REQUESTS_PER_CLIENT = 60


@pytest.fixture(scope="module")
def serving_pool():
    pool, _ = build_demo_pool(num_tasks=5, train_per_class=25, epochs=5, seed=11)
    return pool


@pytest.fixture(scope="module")
def workload(serving_pool):
    return ZipfianWorkload(
        serving_pool.expert_names(),
        max_query_size=3,
        skew=1.1,
        universe_size=24,
        seed=3,
    )


def _drive(pool, workload, model_bytes, payload_bytes, warmup=True):
    config = GatewayConfig(
        max_workers=CLIENTS, model_cache_bytes=model_bytes, payload_cache_bytes=payload_bytes
    )
    with ServingGateway(pool, config) as gateway:
        if warmup:
            # steady state: prime whatever fits the budget, then measure
            for tasks, transport in workload.sample(60, seed=17):
                gateway.serve(tasks, transport)
            gateway.payload_cache.reset_stats()
            gateway.model_cache.reset_stats()
        report = run_closed_loop(
            gateway,
            workload,
            clients=CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            seed=29,
        )
    return report


def test_caches_speed_up_serving(serving_pool, workload, emit):
    """Sustained qps with the cache tiers on vs. off (reported; floor: not slower)."""
    cached = _drive(serving_pool, workload, 128 << 20, 128 << 20)
    uncached = _drive(serving_pool, workload, 0, 0, warmup=False)
    speedup = cached.throughput_qps / uncached.throughput_qps
    rows = [
        [
            name,
            f"{r.throughput_qps:,.0f}",
            f"{1e3 * r.latency['p50']:.3f}",
            f"{1e3 * r.latency['p95']:.3f}",
            f"{1e3 * r.latency['p99']:.3f}",
            f"{r.payload_hit_rate:.1%}",
        ]
        for name, r in (("caches on", cached), ("caches off", uncached))
    ]
    rows.append(["speedup", f"{speedup:.1f}x", "", "", "", ""])
    emit(
        "serving_throughput",
        render_table(
            ["Config", "qps", "p50 ms", "p95 ms", "p99 ms", "payload hits"],
            rows,
            title="Serving throughput: cache tiers on vs. off (Zipfian, skew=1.1)",
        ),
    )
    assert cached.errors == 0 and uncached.errors == 0
    assert speedup > 1.0, f"caches made serving slower ({speedup:.2f}x)"


def test_tail_latency_vs_cache_budget(serving_pool, workload, emit):
    """Tail latency degrades gracefully as the payload budget shrinks."""
    budgets = [128 << 20, 1 << 20, 256 << 10, 0]
    rows = []
    by_budget = {}
    for budget in budgets:
        report = _drive(serving_pool, workload, 128 << 20, budget)
        by_budget[budget] = report
        rows.append(
            [
                f"{budget >> 10} KiB" if budget else "off",
                f"{report.throughput_qps:,.0f}",
                f"{1e3 * report.latency['p50']:.3f}",
                f"{1e3 * report.latency['p99']:.3f}",
                f"{report.payload_hit_rate:.1%}",
            ]
        )
    emit(
        "serving_budget_sweep",
        render_table(
            ["Payload budget", "qps", "p50 ms", "p99 ms", "hit rate"],
            rows,
            title="Tail latency vs. payload-cache byte budget",
        ),
    )
    # more budget never hurts sustained throughput (generous 2x slack for noise)
    assert by_budget[128 << 20].throughput_qps >= by_budget[0].throughput_qps
    assert by_budget[128 << 20].payload_hit_rate >= by_budget[256 << 10].payload_hit_rate


def test_serve_kernel(benchmark, serving_pool, workload):
    """Timed kernel: one warm cached serve through the full gateway path."""
    with ServingGateway(serving_pool) as gateway:
        tasks, transport = workload.sample(1, seed=41)[0]
        gateway.serve(tasks, transport)
        benchmark(lambda: gateway.serve(tasks, transport))
