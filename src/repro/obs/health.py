"""Shard health scoring: windows + journal → healthy/degraded/unreachable.

The :class:`HealthScorer` is the decision layer on top of the timeline:
it reads a source's recent series out of a
:class:`~repro.obs.timeline.TimelineStore` and classifies it —

* ``unreachable`` — the latest ``<source>.up`` sample is 0 (the poller
  could not collect a snapshot), or no poll has landed at all;
* ``degraded`` — the SLO burn rate over the window is ≥
  :data:`BURN_THRESHOLD`, or the error-rate share of traffic reaches
  :data:`MAX_ERROR_RATE`;
* ``healthy`` — otherwise.

**Burn rate** follows the SRE convention: the fraction of requests
estimated to breach the latency objective, divided by the error budget
the objective allows.  A burn rate of 1.0 consumes the budget exactly as
fast as allowed; sustained > 1.0 means the SLO will be violated.  The
breach fraction is estimated from the quantile gauges the poller already
tracks (we do not have per-request data): if p50 breaches the objective
at least half of traffic is slow, if only p99 breaches it is ~1 %, with
linear interpolation between the known quantile points.

The scorer is pure — it never touches the network; feed it the store a
:class:`~repro.obs.timeline.TelemetryPoller` maintains and the shared
journal, and it returns plain dicts that are JSON-safe by construction
(the dashboard renders them, and ``merge_snapshots`` passes a
``"health"`` table through untouched).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .journal import JOURNAL, EventJournal
from .timeline import TimelineStore

__all__ = ["HealthPolicy", "HealthScorer", "estimate_breach_fraction"]

#: The stage whose latency the objective covers: the whole request.
SLO_STAGE = "total"
#: Mean burn rate over the window at/above which a source is degraded:
#: the error budget is being spent faster than the objective allows.
BURN_THRESHOLD = 1.0
#: Errors-per-request share at/above which a source is degraded.
MAX_ERROR_RATE = 0.05

#: Known quantile gauge points, highest quantile first.
_QUANTILE_POINTS: Tuple[Tuple[str, float], ...] = (
    ("p99", 0.99),
    ("p95", 0.95),
    ("p50", 0.50),
)


@dataclass(frozen=True)
class HealthPolicy:
    """The latency objective a deployment scores against."""

    #: Latency objective in seconds: ``objective_quantile`` of requests
    #: (of the :data:`SLO_STAGE` stage) should finish within this.
    latency_slo_s: float = 0.25
    #: Quantile the objective targets (0.95 → 5 % error budget).
    objective_quantile: float = 0.95

    def __post_init__(self) -> None:
        if self.latency_slo_s <= 0:
            raise ValueError("latency_slo_s must be positive")
        if not 0.0 < self.objective_quantile < 1.0:
            raise ValueError("objective_quantile must be in (0, 1)")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective_quantile


def estimate_breach_fraction(
    quantiles: Dict[str, float], slo_s: float
) -> float:
    """Estimate the fraction of requests slower than ``slo_s``.

    ``quantiles`` holds the latency gauges we have (``p50``/``p95``/``p99``).
    The estimate interpolates between known quantile points: if the SLO
    sits between the p95 and p99 latencies, the breach fraction lies
    between 5 % and 1 %, placed linearly by where the SLO falls.  Above
    the p99 latency the estimate decays toward zero; below the p50 it
    saturates toward one.
    """
    points: List[Tuple[float, float]] = []  # (latency, breach_fraction)
    for key, q in _QUANTILE_POINTS:
        value = quantiles.get(key)
        if value is not None and value > 0:
            points.append((float(value), 1.0 - q))
    if not points:
        return 0.0
    points.sort()  # ascending latency → descending breach fraction
    if slo_s >= points[-1][0]:
        # objective beyond the worst tracked quantile: at most that tail
        return 0.0 if slo_s > points[-1][0] else points[-1][1]
    if slo_s <= points[0][0]:
        # objective below the fastest tracked quantile: interpolate toward
        # "everything breaches" as the objective approaches zero
        lo_lat, lo_frac = points[0]
        return 1.0 - (slo_s / lo_lat) * (1.0 - lo_frac)
    for (lo_lat, lo_frac), (hi_lat, hi_frac) in zip(points, points[1:]):
        if lo_lat <= slo_s <= hi_lat:
            if hi_lat == lo_lat:
                return lo_frac
            pos = (slo_s - lo_lat) / (hi_lat - lo_lat)
            return lo_frac + (hi_frac - lo_frac) * pos
    return 0.0  # pragma: no cover - covered by the boundary branches


class HealthScorer:
    """Classify telemetry sources from their windowed series + journal."""

    def __init__(
        self,
        store: TimelineStore,
        journal: Optional[EventJournal] = None,
        policy: Optional[HealthPolicy] = None,
    ) -> None:
        self.store = store
        self.journal = journal if journal is not None else JOURNAL
        self.policy = policy if policy is not None else HealthPolicy()

    # ------------------------------------------------------------------
    def burn_rate(self, source: str) -> float:
        """Mean SLO burn rate for ``source`` over its window."""
        policy = self.policy
        p50s = self.store.values(f"{source}.stage.{SLO_STAGE}.p50")
        p95s = self.store.values(f"{source}.stage.{SLO_STAGE}.p95")
        p99s = self.store.values(f"{source}.stage.{SLO_STAGE}.p99")
        n = max(len(p50s), len(p95s), len(p99s))
        if n == 0:
            return 0.0
        total = 0.0
        for i in range(n):
            quantiles = {}
            if i < len(p50s):
                quantiles["p50"] = p50s[i]
            if i < len(p95s):
                quantiles["p95"] = p95s[i]
            if i < len(p99s):
                quantiles["p99"] = p99s[i]
            total += estimate_breach_fraction(quantiles, policy.latency_slo_s)
        return (total / n) / policy.error_budget

    def error_rate(self, source: str) -> float:
        """Errors per request over the window (0 with no traffic)."""
        errors = sum(self.store.values(f"{source}.rate.errors"))
        requests = sum(self.store.values(f"{source}.qps"))
        if requests <= 0:
            return 0.0
        return errors / requests

    # ------------------------------------------------------------------
    def score(self, source: str) -> Dict[str, object]:
        """One source's health verdict as a JSON-safe dict."""
        up = self.store.last(f"{source}.up")
        reasons: List[str] = []
        if up is None:
            state = "unreachable"
            reasons.append("never polled")
        elif up < 1.0:
            state = "unreachable"
            reasons.append("last poll failed")
        else:
            state = "healthy"
        burn = self.burn_rate(source)
        err = self.error_rate(source)
        if state == "healthy":
            if burn >= BURN_THRESHOLD:
                state = "degraded"
                reasons.append(
                    f"SLO burn {burn:.2f}x over "
                    f"{self.policy.latency_slo_s * 1e3:.0f}ms "
                    f"p{self.policy.objective_quantile * 100:.0f} objective"
                )
            if err >= MAX_ERROR_RATE:
                state = "degraded"
                reasons.append(f"error rate {err:.1%}")
            open_breakers = self.store.last(f"{source}.breakers.open")
            if open_breakers:
                state = "degraded"
                reasons.append(
                    f"{open_breakers:.0f} replica breaker(s) not closed"
                )
            epoch_skew = self.store.last(f"{source}.epoch.skew")
            if epoch_skew:
                state = "degraded"
                reasons.append(
                    f"topology epoch skew {epoch_skew:.0f} across replicas "
                    "(a replica missed a mutation broadcast)"
                )
        return {
            "state": state,
            "burn_rate": round(burn, 4),
            "error_rate": round(err, 4),
            "qps": round(self.store.last(f"{source}.qps") or 0.0, 3),
            "p95": self.store.last(f"{source}.stage.{SLO_STAGE}.p95") or 0.0,
            "reasons": reasons,
        }

    def score_all(
        self, sources: Optional[Sequence[str]] = None
    ) -> Dict[str, Dict[str, object]]:
        """Verdicts for every source (derived from ``*.up`` series by default)."""
        if sources is None:
            sources = [
                name[: -len(".up")]
                for name in self.store.names()
                if name.endswith(".up")
            ]
        return {source: self.score(source) for source in sources}
