"""The :class:`CacheController`: one policy loop over many mechanisms.

Signals in
----------
* **Popularity** — every served/predicted query records its canonical
  composite and each member task into injectable-clock
  :class:`~repro.serving.metrics.PopularityEWMA` estimators, so "hot"
  always means *recently* hot (the decay is the aging term classic GDSF
  gets from its L-clock).
* **Rebuild cost** — the gateways time each composite build
  (consolidate/assemble + serialize) and each remote-head fetch round
  trip and feed the samples into per-key :class:`CostEWMA` smoothers.
* **Fan-out** — the cluster's per-query shard fan-out histogram, read as
  a delta per tick.

Actions out
-----------
* **Eviction/admission bias** — ``attach_gateway``/``attach_cluster``
  install per-tier ``evict_score`` hooks on every
  :class:`~repro.serving.cache.ByteBudgetLRU`: under budget pressure the
  entry with the lowest ``popularity x rebuild_cost / size`` score goes
  first, and a new entry that scores below everything resident is not
  admitted at all.
* **Prefetch** — each :meth:`CacheController.tick` re-serializes the
  hottest composites missing from the payload cache (bounded per tick),
  so rotation of the hot set repopulates the cache *before* the next
  request pays the build.
* **Replication** — when the mean fan-out since the last tick exceeds a
  threshold, the hottest task gains one placement copy via
  :meth:`~repro.cluster.router.ShardRouter.replicate` + ``rebalance()``,
  shrinking future fan-out without operator action.

Everything is driven through an injected clock and a seeded RNG, so the
whole loop is step-able in-process: tests call :meth:`tick` directly
(``tests/control/sim.py``), production uses :meth:`start`'s background
thread.  Lock discipline: score hooks run under the *cache* lock and take
the controller lock inside; the controller therefore never calls into a
cache while holding its own lock (decisions are computed under the lock,
actions run outside it).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..obs.journal import JOURNAL
from ..serving.canonical import payload_key
from ..serving.metrics import PopularityEWMA

__all__ = ["CacheController", "ControllerConfig", "CostEWMA", "TickReport"]


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the self-tuning loop (see docs/self-tuning.md)."""

    #: Popularity decay half-life for both composites and tasks; "hot"
    #: means hot within roughly this window.
    popularity_halflife_s: float = 30.0
    #: EMA weight of each new cost sample in :class:`CostEWMA`.
    cost_smoothing: float = 0.5
    #: Max payload builds one tick may issue.
    prefetch_limit: int = 4
    #: Composite popularity score below which prefetch is not worth a build.
    prefetch_min_score: float = 0.5
    #: Mean per-query shard fan-out (since the previous tick) above which
    #: the controller replicates a hot task.
    replicate_fanout_threshold: float = 1.25
    #: Task popularity floor for replication candidates.
    replicate_min_score: float = 1.0
    #: Ceiling on per-task placement copies the controller will install.
    replicate_max_copies: int = 2
    #: Minimum seconds between replication actions (each one triggers a
    #: cluster rebalance — cheap, but not free).
    replicate_cooldown_s: float = 10.0

    def __post_init__(self) -> None:
        if self.popularity_halflife_s <= 0:
            raise ValueError("popularity_halflife_s must be positive")
        if not 0.0 < self.cost_smoothing <= 1.0:
            raise ValueError("cost_smoothing must be in (0, 1]")
        if self.prefetch_limit < 0:
            raise ValueError("prefetch_limit must be >= 0")
        if self.replicate_max_copies < 1:
            raise ValueError("replicate_max_copies must be >= 1")
        if self.replicate_cooldown_s < 0:
            raise ValueError("replicate_cooldown_s must be >= 0")


class CostEWMA:
    """Per-key exponentially smoothed ``(seconds, bytes)`` cost samples.

    Keys never observed fall back to the fleet-wide smoothed mean, so a
    cold composite is scored with a *typical* rebuild cost instead of
    zero (which would make it free to evict the moment it lands).  Not
    thread-safe on its own; the controller records under its lock.
    """

    def __init__(self, alpha: float = 0.5) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        # key -> [smoothed seconds, smoothed bytes]
        self._costs: Dict[Hashable, List[float]] = {}
        self._default = [0.0, 0.0]
        self._observed = 0

    def observe(self, key: Hashable, seconds: float, nbytes: float) -> None:
        a = self.alpha
        entry = self._costs.get(key)
        if entry is None:
            self._costs[key] = [float(seconds), float(nbytes)]
        else:
            entry[0] += a * (seconds - entry[0])
            entry[1] += a * (nbytes - entry[1])
        if self._observed == 0:
            self._default = [float(seconds), float(nbytes)]
        else:
            self._default[0] += a * (seconds - self._default[0])
            self._default[1] += a * (nbytes - self._default[1])
        self._observed += 1

    def seconds(self, key: Hashable) -> float:
        return self._costs.get(key, self._default)[0]

    def nbytes(self, key: Hashable) -> float:
        return self._costs.get(key, self._default)[1]

    def __len__(self) -> int:
        return len(self._costs)


@dataclass(frozen=True)
class TickReport:
    """What one control-loop step observed and did."""

    #: Composites whose payloads were built into the cache this tick.
    prefetched: Tuple[Tuple[str, ...], ...]
    #: ``(task, new copy count)`` replication actions applied this tick.
    replicated: Tuple[Tuple[str, int], ...]
    #: Mean per-query shard fan-out since the previous tick (0.0 when no
    #: cross-gateway traffic, or when no cluster is attached).
    mean_fanout: float

    @property
    def acted(self) -> bool:
        return bool(self.prefetched or self.replicated)


class CacheController:
    """Self-tuning policy over gateway/cluster caches and shard placement.

    Attach exactly one serving target (:meth:`attach_gateway` or
    :meth:`attach_cluster` — usually via the target's ``controller=``
    constructor argument, which calls these for you).  The target feeds
    signals in (:meth:`record_request`, :meth:`record_build_cost`,
    :meth:`record_wire_cost`); :meth:`tick` turns them into actions.
    """

    def __init__(
        self,
        config: Optional[ControllerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        seed: int = 0,
    ) -> None:
        self.config = config or ControllerConfig()
        self._clock = clock
        #: Seeded RNG: the only nondeterminism the controller is allowed,
        #: used solely to jitter the background loop interval (tests step
        #: :meth:`tick` directly and never see it).
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        half = self.config.popularity_halflife_s
        # composite (canonical names tuple) and per-task popularity;
        # PopularityEWMA accepts any hashable key
        self._queries = PopularityEWMA(half, clock=clock)
        self._tasks = PopularityEWMA(half, clock=clock)
        self._build = CostEWMA(self.config.cost_smoothing)  # names -> build cost
        self._wire = CostEWMA(self.config.cost_smoothing)  # task -> fetch cost
        # last transport each composite was requested with (prefetch target)
        self._transports: Dict[Tuple[str, ...], str] = {}
        self._prefetched: set = set()
        self._gateway = None
        self._cluster = None
        self._last_fanout: Dict[int, int] = {}
        self._last_replication_t: Optional[float] = None
        self._replication_unsupported = False
        self.ticks = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_gateway(self, gateway) -> None:
        """Install eviction-score hooks on a :class:`ServingGateway`'s tiers."""
        self._gateway = gateway
        gateway.model_cache.evict_score = self._score_model_key
        gateway.payload_cache.evict_score = self._score_payload_key
        gateway.result_cache.evict_score = self._score_result_key

    def attach_cluster(self, cluster) -> None:
        """Install eviction-score hooks on a :class:`ClusterGateway`'s tiers."""
        self._cluster = cluster
        cluster.model_cache.evict_score = self._score_model_key
        cluster.payload_cache.evict_score = self._score_payload_key
        cluster.result_cache.evict_score = self._score_result_key
        cluster.remote_head_cache.evict_score = self._score_remote_head_key

    # ------------------------------------------------------------------
    # Signals in (called by the attached gateway/cluster)
    # ------------------------------------------------------------------
    def record_request(
        self, names: Tuple[str, ...], transport: Optional[str] = None
    ) -> None:
        """One query for canonical ``names`` (transport None = prediction)."""
        with self._lock:
            self._queries.record([names])
            self._tasks.record(names)
            if transport is not None:
                self._transports[names] = transport

    def record_build_cost(
        self, names: Tuple[str, ...], seconds: float, nbytes: int
    ) -> None:
        """One measured composite build: snapshot (or gather) + serialize."""
        with self._lock:
            self._build.observe(names, seconds, nbytes)

    def record_wire_cost(
        self, tasks: List[str], seconds: float, nbytes: int
    ) -> None:
        """One remote-head fetch round trip, amortized over its tasks."""
        if not tasks:
            return
        share_s = seconds / len(tasks)
        share_b = nbytes / len(tasks)
        with self._lock:
            for task in tasks:
                self._wire.observe(task, share_s, share_b)

    # ------------------------------------------------------------------
    # Scores (called from ByteBudgetLRU eviction, under the cache lock)
    # ------------------------------------------------------------------
    def composite_score(self, names: Tuple[str, ...], boost: float = 0.0) -> float:
        """GDSF-style ``popularity x rebuild_seconds / size`` for a composite.

        The EWMA decay supplies the aging term, so a formerly-hot entry's
        score falls toward zero on its own.  Never-requested entries score
        0.0 and are evicted first.  ``boost`` adds that many anticipated
        hits to the popularity term — the prefetch loop scores candidates
        with ``boost=1.0`` to ask "would this beat the floor at its *next*
        request?" (a candidate below the floor now can never cross it by
        decay alone, since every score decays at the same rate).
        """
        with self._lock:
            pop = self._queries.score(names)
            cost = self._build.seconds(names)
            size = self._build.nbytes(names)
        return (pop + boost) * cost / max(size, 1.0)

    def task_score(self, task: str) -> float:
        """Per-task popularity weighted by measured wire cost."""
        with self._lock:
            return self._tasks.score(task) * (1.0 + self._wire.seconds(task))

    def _score_model_key(self, key) -> float:
        return self.composite_score(key[0])  # (names, versions)

    def _score_payload_key(self, key) -> float:
        return self.composite_score(key[0])  # (names, transport, versions)

    def _score_result_key(self, key) -> float:
        # (digest, names, versions); results are cheap to rebuild (one
        # heads pass), so popularity alone ranks them
        with self._lock:
            return self._queries.score(key[1])

    def _score_remote_head_key(self, key) -> float:
        return self.task_score(key[0])  # (task, version)

    # ------------------------------------------------------------------
    # Prefetch bookkeeping
    # ------------------------------------------------------------------
    def was_prefetched(self, key: Hashable) -> bool:
        """Whether a payload-cache key was populated by the prefetch loop.

        Non-destructive: the serving paths consult this on every payload
        hit to count ``prefetch_hits``.
        """
        with self._lock:
            return key in self._prefetched

    def _note_prefetched(self, key: Hashable) -> None:
        with self._lock:
            if len(self._prefetched) > 4096:  # bounded: marks, not history
                self._prefetched.clear()
            self._prefetched.add(key)

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def tick(self) -> TickReport:
        """One synchronous control step: prefetch, then maybe replicate.

        Deterministic given the injected clock and recorded signals; safe
        to call from any thread, and never raises on behalf of an
        individual failed action.
        """
        target = self._cluster if self._cluster is not None else self._gateway
        with self._lock:
            self.ticks += 1
            plan = self._prefetch_plan_locked()
        prefetched: List[Tuple[str, ...]] = []
        if target is not None and plan:
            cache = getattr(target, "payload_cache", None)
            floor = self._prefetch_floor(target)
            for names, transport in plan:
                if len(prefetched) >= self.config.prefetch_limit:
                    break
                # the key the target's payload tier looks up right now
                key = payload_key(names, transport, target.pool.versions(names))
                if cache is not None and cache.contains(key):
                    continue  # already resident: nothing to warm
                if self.composite_score(names, boost=1.0) <= floor:
                    continue  # would be admission-denied even at its next
                    # hit: building it now is pure waste
                # model the request this prefetch is front-running, so the
                # admission hook scores the payload as it will score when
                # it is next hit (otherwise the hooks we installed would
                # deny our own warm-up build)
                with self._lock:
                    self._queries.record([names])
                try:
                    built = target.prefetch(names, transport)
                except Exception:
                    continue  # e.g. task dropped since it was recorded
                if built:
                    self._note_prefetched(key)
                    prefetched.append(names)
                    floor = self._prefetch_floor(target)
        replicated, mean_fanout = self._maybe_replicate()
        report = TickReport(tuple(prefetched), tuple(replicated), mean_fanout)
        if report.acted and JOURNAL.enabled:
            JOURNAL.emit(
                "autotune",
                prefetched=[list(names) for names in report.prefetched],
                replicated=[
                    {"task": task, "copies": copies}
                    for task, copies in report.replicated
                ],
                mean_fanout=round(mean_fanout, 3),
            )
        return report

    def _prefetch_floor(self, target) -> float:
        """Score a prefetched payload must beat to be worth building.

        0.0 while the target's payload cache still has room; once full,
        the lowest resident score — a build below it would be denied
        admission (or evicted straight back out) by the very hooks this
        controller installed, so the serialize work would be pure waste.
        For a cluster the floor comes from the front end's payload tier,
        which every composite's prefetch warms.
        Reads cache state without holding the controller lock.
        """
        cache = getattr(target, "payload_cache", None)
        if cache is None:
            return 0.0
        stats = cache.stats()
        if stats.budget_bytes == 0:
            return float("inf")  # tier disabled: never build for it
        if stats.current_entries == 0:
            return 0.0
        typical = stats.current_bytes / stats.current_entries
        if stats.current_bytes + typical <= stats.budget_bytes:
            return 0.0  # room for another typical payload
        return min(self._score_payload_key(key) for key in cache.keys())

    def _prefetch_plan_locked(self) -> List[Tuple[Tuple[str, ...], str]]:
        """Hot ``(composite, transport)`` pairs worth warming, hottest first
        (lock held)."""
        cfg = self.config
        plan: List[Tuple[Tuple[str, ...], str]] = []
        for names, score in self._queries.top(max(cfg.prefetch_limit, 1) * 4):
            if score < cfg.prefetch_min_score:
                break  # top() is sorted: everything below is colder
            transport = self._transports.get(names)
            if transport is None:
                continue  # prediction-only traffic: nothing to serialize
            plan.append((names, transport))
        return plan

    def _maybe_replicate(self) -> Tuple[Tuple[Tuple[str, int], ...], float]:
        cluster = self._cluster
        if cluster is None:
            return (), 0.0
        cfg = self.config
        hist = cluster.metrics.fanout_histogram()
        with self._lock:
            delta = {
                fanout: count - self._last_fanout.get(fanout, 0)
                for fanout, count in hist.items()
            }
            self._last_fanout = hist
            total = sum(count for count in delta.values() if count > 0)
            weighted = sum(
                fanout * count for fanout, count in delta.items() if count > 0
            )
            mean_fanout = weighted / total if total else 0.0
            now = self._clock()
            in_cooldown = (
                self._last_replication_t is not None
                and now - self._last_replication_t < cfg.replicate_cooldown_s
            )
            if (
                self._replication_unsupported
                or in_cooldown
                or mean_fanout < cfg.replicate_fanout_threshold
            ):
                return (), mean_fanout
            candidate: Optional[Tuple[str, int]] = None
            for task, score in self._tasks.top(16):
                if score < cfg.replicate_min_score:
                    break
                copies = cluster.router.replication_for(task)
                if copies < min(cfg.replicate_max_copies, cluster.router.num_shards):
                    candidate = (task, copies)
                    break  # one action per tick keeps rebalances cheap
        if candidate is None:
            return (), mean_fanout
        task, copies = candidate
        router = cluster.router
        try:
            router.replicate(task, copies + 1)
            cluster.rebalance()
        except Exception as error:
            router.replicate(task, copies)  # roll the override back
            if type(error).__name__ == "RemoteOperationUnsupported":
                # the fleet can't take mutation frames; don't retry forever
                with self._lock:
                    self._replication_unsupported = True
            return (), mean_fanout
        with self._lock:
            self._last_replication_t = now
        cluster.metrics.increment("autotune_replications")
        return ((task, copies + 1),), mean_fanout

    # ------------------------------------------------------------------
    # Background loop (production; tests drive tick() directly)
    # ------------------------------------------------------------------
    def start(self, interval_s: float = 1.0) -> None:
        """Run :meth:`tick` on a daemon thread every ~``interval_s``."""
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, args=(interval_s,), name="repro-autotune", daemon=True
        )
        self._thread.start()

    def _run(self, interval_s: float) -> None:
        while True:
            # +/-10% seeded jitter: many controllers on one box shouldn't
            # rebalance in lockstep
            wait = interval_s * (0.9 + 0.2 * self._rng.random())
            if self._stop.wait(wait):
                return
            try:
                self.tick()
            except Exception:  # pragma: no cover - belt and braces
                pass  # one bad tick must not kill the loop

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def hot_queries(self, n: int = 10) -> List[Tuple[Tuple[str, ...], float]]:
        """The ``n`` hottest composites as ``(names, score)``."""
        with self._lock:
            return self._queries.top(n)

    def hot_tasks(self, n: int = 10) -> List[Tuple[str, float]]:
        """The ``n`` hottest primitive tasks as ``(task, score)``."""
        with self._lock:
            return self._tasks.top(n)

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe controller gauges for dashboards and tests."""
        with self._lock:
            return {
                "ticks": self.ticks,
                "tracked_queries": len(self._queries),
                "tracked_tasks": len(self._tasks),
                "build_costs": len(self._build),
                "wire_costs": len(self._wire),
                "prefetched_keys": len(self._prefetched),
                "replication_unsupported": self._replication_unsupported,
                "hot_queries": [
                    {"tasks": list(names), "score": round(score, 6)}
                    for names, score in self._queries.top(5)
                ],
                "hot_tasks": [
                    {"task": task, "score": round(score, 6)}
                    for task, score in self._tasks.top(5)
                ],
            }

    def __enter__(self) -> "CacheController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
