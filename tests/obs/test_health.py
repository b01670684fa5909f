"""Health scoring: breach-fraction estimation, burn rate, state machine."""

from __future__ import annotations

import pytest

from repro.obs import (
    EventJournal,
    HealthPolicy,
    HealthScorer,
    TimelineStore,
    estimate_breach_fraction,
)

QUANTILES = {"p50": 0.010, "p95": 0.100, "p99": 0.500}


class TestBreachFraction:
    def test_no_data_means_no_breach(self):
        assert estimate_breach_fraction({}, 0.25) == 0.0
        assert estimate_breach_fraction({"p95": 0.0}, 0.25) == 0.0

    def test_slo_beyond_p99_is_clean(self):
        assert estimate_breach_fraction(QUANTILES, 1.0) == 0.0
        # exactly at p99: the tracked tail fraction
        assert estimate_breach_fraction(QUANTILES, 0.500) == pytest.approx(0.01)

    def test_interpolates_between_quantile_points(self):
        # halfway between p95 (5%) and p99 (1%) latencies -> 3%
        assert estimate_breach_fraction(QUANTILES, 0.300) == pytest.approx(0.03)
        # at p95 exactly
        assert estimate_breach_fraction(QUANTILES, 0.100) == pytest.approx(0.05)
        # at p50 exactly
        assert estimate_breach_fraction(QUANTILES, 0.010) == pytest.approx(0.5)

    def test_saturates_toward_one_below_p50(self):
        half = estimate_breach_fraction(QUANTILES, 0.005)
        assert 0.5 < half < 1.0
        nearly_all = estimate_breach_fraction(QUANTILES, 1e-6)
        assert nearly_all == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_the_objective(self):
        slos = [1e-4, 1e-3, 5e-3, 0.010, 0.050, 0.100, 0.300, 0.500, 1.0]
        fracs = [estimate_breach_fraction(QUANTILES, s) for s in slos]
        assert fracs == sorted(fracs, reverse=True)

    def test_partial_quantiles_still_estimate(self):
        assert estimate_breach_fraction({"p95": 0.1}, 0.2) == 0.0
        assert estimate_breach_fraction({"p95": 0.1}, 0.1) == pytest.approx(0.05)


class TestHealthPolicy:
    def test_error_budget_follows_quantile(self):
        assert HealthPolicy().error_budget == pytest.approx(0.05)
        assert HealthPolicy(objective_quantile=0.99).error_budget == pytest.approx(0.01)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            HealthPolicy(latency_slo_s=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(objective_quantile=1.0)


def _store_with(source, up=1.0, p50=0.001, p95=0.002, p99=0.003, qps=10.0, errors=0.0):
    store = TimelineStore()
    for t in (1.0, 2.0):
        store.record(f"{source}.up", t, up)
        store.record(f"{source}.stage.total.p50", t, p50)
        store.record(f"{source}.stage.total.p95", t, p95)
        store.record(f"{source}.stage.total.p99", t, p99)
        store.record(f"{source}.qps", t, qps)
        store.record(f"{source}.rate.errors", t, errors)
    return store


class TestHealthScorer:
    def _scorer(self, store, **policy):
        return HealthScorer(store, EventJournal(), HealthPolicy(**policy))

    def test_never_polled_is_unreachable(self):
        scorer = self._scorer(TimelineStore())
        verdict = scorer.score("shard0")
        assert verdict["state"] == "unreachable"
        assert "never polled" in verdict["reasons"]

    def test_failed_poll_is_unreachable(self):
        store = _store_with("shard0", up=0.0)
        verdict = self._scorer(store).score("shard0")
        assert verdict["state"] == "unreachable"
        assert "last poll failed" in verdict["reasons"]

    def test_fast_shard_is_healthy(self):
        store = _store_with("shard0")
        verdict = self._scorer(store, latency_slo_s=0.25).score("shard0")
        assert verdict["state"] == "healthy"
        assert verdict["reasons"] == []
        assert verdict["burn_rate"] == 0.0
        assert verdict["qps"] == pytest.approx(10.0)

    def test_slow_shard_burns_and_degrades(self):
        # p95 at 4x the objective: well over half of traffic breaches
        store = _store_with("shard0", p50=0.5, p95=1.0, p99=2.0)
        scorer = self._scorer(store, latency_slo_s=0.25)
        assert scorer.burn_rate("shard0") > 1.0
        verdict = scorer.score("shard0")
        assert verdict["state"] == "degraded"
        assert any("SLO burn" in r for r in verdict["reasons"])

    def test_the_objective_decides_the_verdict(self):
        # one series: its p95 of 100 ms keeps a 250 ms objective (burn 0.7)
        # and breaks a 20 ms one (burn ~9)
        store = _store_with("shard0", p50=0.01, p95=0.1, p99=0.5)
        loose = self._scorer(store, latency_slo_s=0.25).score("shard0")
        tight = self._scorer(store, latency_slo_s=0.02).score("shard0")
        assert loose["state"] == "healthy"
        assert tight["state"] == "degraded"
        assert tight["burn_rate"] > 1.0 > loose["burn_rate"]

    def test_error_share_degrades(self):
        store = _store_with("shard0", errors=2.0, qps=10.0)  # 20% errors
        verdict = self._scorer(store, latency_slo_s=0.25).score("shard0")
        assert verdict["state"] == "degraded"
        assert any("error rate" in r for r in verdict["reasons"])
        assert verdict["error_rate"] == pytest.approx(0.2)

    def test_no_traffic_has_zero_error_rate(self):
        store = _store_with("shard0", qps=0.0, errors=0.0)
        assert self._scorer(store).error_rate("shard0") == 0.0

    def test_score_all_discovers_sources_from_up_series(self):
        store = _store_with("shard0")
        store.record("shard1.up", 1.0, 0.0)
        verdicts = self._scorer(store).score_all()
        assert set(verdicts) == {"shard0", "shard1"}
        assert verdicts["shard0"]["state"] == "healthy"
        assert verdicts["shard1"]["state"] == "unreachable"

    def test_verdicts_are_json_safe(self):
        import json

        store = _store_with("shard0", p95=1.0)
        verdicts = self._scorer(store, latency_slo_s=0.01).score_all()
        assert json.loads(json.dumps(verdicts)) == verdicts
