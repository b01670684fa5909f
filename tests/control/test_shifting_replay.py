"""The controller's end-to-end gate: a shifting-Zipf replay, tuned vs static.

One seeded trace (:func:`~.sim.shifting_zipf_trace`: a Zipf-weighted hot
set of 8 pairs polluted by cold one-offs, rotating to a disjoint set at
the midpoint) is served twice through :class:`~.sim.SimHarness` under the
same payload budget of 6 entries: once with plain LRU tiers, once with a
:class:`~repro.control.CacheController` ticked every 25 requests.  The
controller must win on counts alone (:func:`~.sim.verify_report`): a
higher payload hit rate, and fewer payload builds in all (misses plus
prefetches) than LRU pays in misses, each build being a snapshot +
serialize a client or a tick paid.

The rebuild cost the controller weighs enters through ``perf_counter``.
Here a scripted clock moves only while the serializer takes a segment
(one millisecond each), so a build costs its segment count and every
count below is bit-reproducible.
"""

from time import perf_counter

import pytest

from repro.control import ControllerConfig
from repro.serving.gateway import GatewayConfig

from .sim import (
    ArmReport,
    FakeClock,
    ReplayReport,
    SimHarness,
    shifting_zipf_trace,
    verify_report,
)

BUDGET_PAYLOADS = 6
TICK_EVERY = 25
TUNED = ControllerConfig(
    popularity_halflife_s=2.5,
    prefetch_limit=4,
    # a cold one-off scores ~1.0 right after its single hit; this floor
    # keeps such noise out of the prefetch plan
    prefetch_min_score=1.2,
)


@pytest.fixture()
def segment_clock(monkeypatch):
    import repro.core.server as core_server

    clock = FakeClock()
    real_segment = core_server._segment

    def priced_segment(store, key, module, transport):
        clock.advance(1e-3)
        return real_segment(store, key, module, transport)

    monkeypatch.setattr(core_server, "_segment", priced_segment)
    for module in ("repro.core.server", "repro.serving.gateway"):
        monkeypatch.setattr(f"{module}.perf_counter", clock)
    return clock


def _replay(pool, trace, config, *, static):
    label = "static-lru" if static else "self-tuned"
    with SimHarness(
        pool, gateway_config=config, controller_config=TUNED, static=static
    ) as sim:
        start = perf_counter()
        sim.run(trace, tick_every=TICK_EVERY)
        elapsed = perf_counter() - start
        stats = sim.payload_stats()
        return ArmReport(
            label=label,
            requests=len(trace),
            hit_rate=stats.hit_rate,
            misses=stats.misses,
            score_evictions=stats.score_evictions,
            rejections=stats.rejections,
            prefetch_builds=sim.counter("prefetch_builds"),
            prefetch_hits=sim.counter("prefetch_hits"),
            elapsed_s=elapsed,
        )


def _replay_both_arms(pool):
    trace = shifting_zipf_trace(pool.expert_names(), seed=0)
    # the budget fits 6.5 entries by what the tier charges one: its
    # container head (the segments are the pool's, shared by every entry)
    with SimHarness(pool, static=True) as probe:
        probe.serve(*trace[0])
        entry_bytes = probe.payload_stats().current_bytes
    budget = BUDGET_PAYLOADS * entry_bytes + entry_bytes // 2
    config = GatewayConfig(max_workers=1, payload_cache_bytes=budget)
    return ReplayReport(
        static=_replay(pool, trace, config, static=True),
        tuned=_replay(pool, trace, config, static=False),
    )


def test_controller_beats_static_lru_on_a_shifting_zipf_replay(
    shifting_pool, segment_clock
):
    report = _replay_both_arms(shifting_pool)
    print(report.render())  # shown on failure; the qps ratio is never gated
    assert _replay_both_arms(shifting_pool) == report  # counts only
    verify_report(report)
