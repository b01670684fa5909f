"""Deterministic simulation harness for the self-tuning control plane.

Every moving part of the control loop takes an injected clock, so the
whole stack — gateway (or cluster), :class:`repro.control.CacheController`,
and :class:`repro.obs.timeline.TelemetryPoller` — can be stepped
synchronously from a single :class:`FakeClock`.  Nothing here sleeps and
no background thread runs: a test *is* the scheduler.  ``serve`` advances
simulated time by one fixed ``dt`` per request, and ``run`` interleaves
controller ticks and telemetry polls at fixed request strides, recording
every :class:`~repro.control.TickReport` and poll diff for assertions.
:func:`shifting_zipf_trace` is the seeded workload the controller's
end-to-end gate (``test_shifting_replay.py``) replays, and
:func:`verify_report` is that gate, over a :class:`ReplayReport` of the
static and tuned arms.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control import CacheController, ControllerConfig, TickReport
from repro.obs.timeline import TelemetryPoller
from repro.serving.gateway import GatewayConfig, ServingGateway

__all__ = [
    "ArmReport",
    "FakeClock",
    "ReplayReport",
    "SimHarness",
    "shifting_zipf_trace",
    "verify_report",
]


class FakeClock:
    """Explicitly-advanced monotonic clock shared by every sim component."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("simulated time cannot go backwards")
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def shifting_zipf_trace(
    task_names: Sequence[str],
    *,
    requests: int = 600,
    hot_size: int = 8,
    hot_fraction: float = 0.75,
    seed: int = 0,
) -> List[Tuple[Tuple[str, ...], str]]:
    """A seeded shifting-Zipf trace of ``(names, "float32")`` requests.

    ``hot_fraction`` of the requests draw Zipf-weighted (skew 1.1) from a
    hot set of ``hot_size`` task pairs, which rotates to a disjoint set at
    the midpoint (``requests // 2``).  The rest cycle a large pool of cold
    composites (singles, pairs, triples), so each cold query is a
    near-certain cache miss with or without a controller.
    """
    if requests < 2:
        raise ValueError("requests must be >= 2")
    names = sorted(task_names)
    pairs = list(itertools.combinations(names, 2))
    if len(pairs) < 2 * hot_size:
        raise ValueError(
            f"need >= {2 * hot_size} task pairs for two disjoint hot sets, "
            f"got {len(pairs)} from {len(names)} tasks"
        )
    rng = random.Random(seed)
    rng.shuffle(pairs)
    hot_a = pairs[:hot_size]
    hot_b = pairs[hot_size : 2 * hot_size]
    cold_pool = (
        [(name,) for name in names]
        + pairs[2 * hot_size :]
        + list(itertools.combinations(names, 3))
    )
    rng.shuffle(cold_pool)
    cold = itertools.cycle(cold_pool)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(hot_size)]
    trace: List[Tuple[Tuple[str, ...], str]] = []
    for i in range(requests):
        hot = hot_a if i < requests // 2 else hot_b
        if rng.random() < hot_fraction:
            query = rng.choices(hot, weights=weights)[0]
        else:
            query = next(cold)
        trace.append((tuple(query), "float32"))
    return trace



@dataclass(frozen=True)
class ArmReport:
    """One replay arm's payload-tier counts (and, for the record, its time).

    ``elapsed_s`` is wall clock: reported, never gated, and left out of
    equality so two replays compare on their counts alone.
    """

    label: str
    requests: int
    hit_rate: float
    misses: int
    score_evictions: int
    rejections: int
    prefetch_builds: int
    prefetch_hits: int
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def builds(self) -> int:
        """Payloads built in all: a client's miss or a tick's prefetch."""
        return self.misses + self.prefetch_builds

    @property
    def qps(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s else 0.0


@dataclass(frozen=True)
class ReplayReport:
    """The static (plain LRU) and tuned (controller) arms of one replay."""

    static: ArmReport
    tuned: ArmReport

    @property
    def hit_rate_gain(self) -> float:
        """Absolute payload hit-rate advantage of the controller arm."""
        return self.tuned.hit_rate - self.static.hit_rate

    @property
    def qps_ratio(self) -> float:
        return self.tuned.qps / self.static.qps if self.static.qps else 0.0

    def render(self) -> str:
        header = "arm         |      qps | hit_rate | miss | score |  rej | pbuild |  phit"
        lines = [header, "-" * len(header)]
        for arm in (self.static, self.tuned):
            lines.append(
                f"{arm.label:<12}| {arm.qps:8.1f} | {arm.hit_rate:8.1%} | "
                f"{arm.misses:4d} | {arm.score_evictions:5d} | {arm.rejections:4d} | "
                f"{arm.prefetch_builds:6d} | {arm.prefetch_hits:5d}"
            )
        lines.append(
            f"gain={self.hit_rate_gain:+.1%} qps_ratio={self.qps_ratio:.2f}x "
            f"builds={self.tuned.builds} vs {self.static.builds}"
        )
        return "\n".join(lines)


def verify_report(report: ReplayReport) -> None:
    """The controller's gate, on counts alone.

    The tuned arm must serve a strictly higher payload hit rate, must have
    acted (prefetched, served a prefetch, and evicted or refused by score),
    and must build fewer payloads in all than the static arm misses.  The
    wall-clock qps ratio is reported and never gated: both arms together
    run in well under a second, where it reads noise.
    """
    static, tuned = report.static, report.tuned
    assert tuned.hit_rate > static.hit_rate, (
        f"controller hit rate {tuned.hit_rate:.1%} must beat static {static.hit_rate:.1%}"
    )
    assert tuned.prefetch_builds > 0, "controller never prefetched"
    assert tuned.prefetch_hits > 0, "no prefetched payload was ever served"
    assert tuned.score_evictions + tuned.rejections > 0, (
        "score hook never influenced eviction/admission"
    )
    assert tuned.builds < static.builds, (
        f"controller built {tuned.misses} + {tuned.prefetch_builds} payloads, "
        f"static {static.builds}"
    )

class SimHarness:
    """One gateway + controller + poller stepped on one fake clock.

    Parameters
    ----------
    pool:
        The trained pool to serve.
    gateway_config:
        Defaults to a single-worker gateway (deterministic build order).
    controller_config:
        Defaults to a 2.5 sim-second popularity half-life (50 requests at
        the default ``dt``).
    static:
        Serve with no controller attached: plain LRU tiers, and ``run``
        takes no ticks.  The baseline arm of a controller comparison.
    dt:
        Simulated seconds each ``serve``/``predict`` advances the clock.
    """

    def __init__(
        self,
        pool,
        *,
        gateway_config: Optional[GatewayConfig] = None,
        controller_config: Optional[ControllerConfig] = None,
        dt: float = 0.05,
        seed: int = 0,
        static: bool = False,
    ) -> None:
        self.clock = FakeClock()
        self.dt = dt
        self.controller: Optional[CacheController] = None
        if not static:
            self.controller = CacheController(
                controller_config or ControllerConfig(popularity_halflife_s=2.5),
                clock=self.clock,
                seed=seed,
            )
        self.gateway = ServingGateway(
            pool,
            gateway_config or GatewayConfig(max_workers=1),
            controller=self.controller,
        )
        self.poller = TelemetryPoller.for_gateway(self.gateway, clock=self.clock)
        self.reports: List[TickReport] = []
        self.polls: List[Dict[str, Dict[str, float]]] = []

    # ------------------------------------------------------------------
    def serve(self, names: Sequence[str], transport: str = "float32"):
        """Advance one ``dt`` and serve one request."""
        self.clock.advance(self.dt)
        return self.gateway.serve(names, transport)

    def tick(self) -> TickReport:
        """One synchronous control-loop step (recorded in ``reports``)."""
        report = self.controller.tick()
        self.reports.append(report)
        return report

    def poll(self) -> Dict[str, Dict[str, float]]:
        """One synchronous telemetry sweep (recorded in ``polls``).

        Advances a minimal step first so consecutive polls never see a
        zero-elapsed diff window.
        """
        self.clock.advance(self.dt)
        produced = self.poller.poll_once()
        self.polls.append(produced)
        return produced

    def run(
        self,
        trace: Sequence[Tuple[Sequence[str], str]],
        *,
        tick_every: int = 25,
        poll_every: int = 0,
    ) -> List[TickReport]:
        """Drive a ``[(names, transport), ...]`` trace through the loop.

        Ticks the controller (if any) every ``tick_every`` requests and (when
        ``poll_every`` > 0) polls telemetry every ``poll_every`` requests,
        exactly as a deployed stack would — minus the threads.
        """
        started = len(self.reports)
        for i, (names, transport) in enumerate(trace):
            self.serve(names, transport)
            if self.controller is not None and tick_every and (i + 1) % tick_every == 0:
                self.tick()
            if poll_every and (i + 1) % poll_every == 0:
                self.poll()
        return self.reports[started:]

    # ------------------------------------------------------------------
    def payload_stats(self):
        return self.gateway.payload_cache.stats()

    def counter(self, name: str) -> int:
        return self.gateway.metrics.counter(name)

    def close(self) -> None:
        self.gateway.close()

    def __enter__(self) -> "SimHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
