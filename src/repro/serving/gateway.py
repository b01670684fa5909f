"""The serving gateway: canonicalize → coalesce → cache → snapshot → serialize.

:class:`ServingGateway` is the concurrent front door of the model-delivery
service (paper Fig. 1b at production traffic).  A request travels through
four stages, each one metered:

1. **canonicalize** — the query's task names are sorted/deduplicated
   (:func:`repro.serving.canonical.canonical_tasks`) so every permutation
   of the same composite task shares one identity.  Served payloads lay
   their heads out in this canonical order and advertise it via
   :attr:`GatewayResponse.tasks`; predictions are global class ids either
   way, so clients are order-agnostic.
2. **payload cache** — a byte-budgeted LRU keyed on ``(canonical tasks,
   transport, versions)`` returns repeated shipments without rebuilding
   them.  An entry is the payload unjoined — its container head plus the
   pool's own encoded segments — and is charged only the head.  A key is
   kept from its second sighting (:class:`~repro.serving.cache.Doorkeeper`),
   so one-off composites never displace repeated ones.  With no budget
   the tier is skipped outright (no key, no flight).
3. **single flight** — concurrent duplicate requests (same key, versions
   included) coalesce onto one in-flight build; followers block on the
   leader's result instead of serializing the same payload N times.
4. **build** — a :class:`~repro.core.pool.PoolSnapshot` of the queried
   modules (the library and one head per task, by reference, with their
   versions: no network is built) and a container head in front of the
   pool's encoded segments (``pool.segments``: nothing is compressed or
   joined on the request path).  The model tier is not on this path: it
   holds consolidated :class:`~repro.core.query.TaskSpecificModel`\\ s
   for :meth:`ServingGateway.predict` and :meth:`ServingGateway.get_model`.

**One staleness rule.**  Every tier stores what it builds under the
versions of the snapshot it built it from, and looks up under the pool's
current versions (:meth:`~repro.core.pool.PoolOfExperts.versions`).  A
served artifact is a pure function of its tasks, transport and versions,
so an entry certifies itself: one built before a re-extraction, detach or
library swap can never match a lookup after it, and ages out of its LRU
inside the tier's budget.  Nothing is dropped on a pool update, and the
gateway registers no listener on the pool.

``serve()`` runs the pipeline inline on the caller's thread (single-flight
still applies across threads); ``submit()`` dispatches onto a worker pool
and additionally records queue-wait latency, for open-loop load.

Besides *model delivery*, the gateway also runs **prediction serving**
(paper Fig. 1b's realtime querying taken to its conclusion):
``predict()`` routes images + task set through the fused inference fast
path — a prediction-result cache (fully repeated requests skip all
compute), a content-addressed trunk-feature cache (the library is frozen,
so features are reusable across every ``M(Q)``) whose miss path runs the
**compiled** eval-mode trunk (:class:`~repro.nn.fused.FusedTrunk`, no
autograd), then one batched pass over all expert heads
(:class:`~repro.models.FusedHeadBank`) — with per-stage metrics
(``predict_trunk_fused`` / ``predict_heads`` / ``predict_argmax``).
Both content-keyed tiers keep an entry only from an image batch's second
sighting on (:meth:`~repro.core.features.TrunkFeatureCache.admit`), so
never-repeated traffic computes and answers but stores nothing.

**Public entry points.**  Model delivery: :meth:`ServingGateway.serve`
(inline) and :meth:`ServingGateway.submit` (worker pool + queue-wait
telemetry).  Prediction: :meth:`ServingGateway.predict` (inline fused
path; concurrent callers share the tiers, not a batch).  Consolidation
without serving: :meth:`ServingGateway.get_model`.  Operations:
``cache_stats()`` / ``render_stats()`` and ``close()`` (the gateway is a
context manager).

**One pipeline.**  Every request is *accounting* (``with _Request(...)``
around the tier work, closed by ``_served`` / ``_predicted``) around *tier work*
(``_payload_tiers`` / ``_predict_tiers``), and the tier work has one
seam: ``_snapshot``, how the modules for canonical names are selected.
:class:`repro.cluster.ClusterGateway` runs its cross-shard tier as an
instance of this class with that seam rebound, and opens the same
accounting around its routing, so there is no second copy of either to
drift.

**Thread safety.**  Every public method may be called from any number of
threads concurrently.  Cache tiers are individually locked
(:class:`~repro.serving.cache.ByteBudgetLRU` /
:class:`~repro.core.features.TrunkFeatureCache`); duplicate concurrent
builds coalesce through :class:`SingleFlight`; the worker pool is made
once under ``_executor_lock``.  A pool mutation may
run concurrently with any of it: a build reads modules and versions in
one locked :meth:`~repro.core.pool.PoolOfExperts.snapshot`, so what it
stores is keyed by what it holds.  Mutations must go through
``PoolOfExperts``' install methods (which take that lock), never by
poking ``pool.experts`` directly.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Hashable, NamedTuple, Optional, Tuple, TypeVar

import numpy as np

from ..core.features import TrunkFeatureCache, array_digest, fused_trunk_features
from ..core.pool import PoolOfExperts, PoolSnapshot
from ..core.query import TaskSpecificModel
from ..core.server import TRANSPORTS, serialize_task_model, share_segments
from ..obs.trace import TRACER
from .canonical import TaskQuery, canonical_tasks
from .cache import ByteBudgetLRU, CacheStats, Doorkeeper
from .metrics import ServingMetrics

__all__ = [
    "GatewayConfig",
    "GatewayResponse",
    "PredictionResponse",
    "Served",
    "ServingGateway",
    "SingleFlight",
]

T = TypeVar("T")
#: Budget of the content-addressed trunk-feature cache a gateway makes
#: when none is passed in; a cluster shares one of this size.
TRUNK_CACHE_BYTES = 64 << 20
#: Stands in for ``_snapshot`` on one build (a cluster hands its plan / fetched heads down).
Seam = Optional[Callable[[Tuple[str, ...]], PoolSnapshot]]
#: Answers a payload-tier miss elsewhere: a cluster relays ``(names, transport)`` to a shard,
#: which answers a :class:`GatewayResponse` (in process) or a :class:`Served` (over a socket).
Relay = Optional[Callable[[Tuple[str, ...], str], "GatewayResponse | Served"]]
#: ``(versions, payload parts or None)``: one serve's payload-tier lookup
#: (:meth:`ServingGateway.lookup`).
Found = Tuple[Tuple[int, ...], Optional[Tuple[bytes, ...]]]


class Served(NamedTuple):
    """What the tier work of one serve answers: the payload and what the
    tiers did, without the query the requester already knows.

    The gateway accounting for the request wraps it into its one
    :class:`GatewayResponse`; a remote shard client returns it as it is.
    """

    parts: Tuple[bytes, ...]
    payload_cache_hit: bool
    coalesced: bool
    versions: Optional[Tuple[int, ...]]

    @property
    def payload(self) -> bytes:
        return b"".join(self.parts)


def run_trunk_forward(trunk, images, metrics) -> "np.ndarray":
    """One shared-trunk forward for prediction serving, metered per mode.

    The trunk-feature cache's miss path: runs the compiled eval-mode
    program (:func:`~repro.core.features.fused_trunk_features`) and records
    it under the ``predict_trunk_fused`` stage; a trunk the compiler cannot
    lower falls back to the autograd engine under the legacy
    ``predict_trunk`` stage plus a ``fused_trunk_fallback`` counter, so the
    two execution modes stay separable in every metrics report.
    """
    start = perf_counter()
    features, used_fused = fused_trunk_features(trunk, images)
    elapsed = perf_counter() - start
    if used_fused:
        metrics.observe("predict_trunk_fused", elapsed)
        stage_name = "predict_trunk_fused"
    else:
        metrics.increment("fused_trunk_fallback")
        metrics.observe("predict_trunk", elapsed)
        stage_name = "predict_trunk"
    if TRACER.enabled:
        TRACER.record_stage(stage_name, elapsed)
    return features


@dataclass(frozen=True)
class GatewayConfig:
    """Operating envelope of a :class:`ServingGateway`."""

    max_workers: int = 4
    model_cache_bytes: int = 128 << 20
    payload_cache_bytes: int = 128 << 20
    #: Budget of the prediction-result (logits) cache, keyed on
    #: ``(image digest, canonical tasks, versions)`` — a fully
    #: repeated request skips even the fused heads (0 disables).
    result_cache_bytes: int = 8 << 20

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")


@dataclass(frozen=True)
class GatewayResponse:
    """One served query: payload bytes plus service telemetry.

    ``tasks`` is the canonical task order — the payload's head/logit layout.
    ``parts`` is the payload as it was served: a container head plus the
    pool's own segment objects when it was assembled (or hit) here, one
    view into the frame's receive buffer when it arrived over a socket.
    :attr:`payload` joins them into ``bytes`` on first read.
    """

    parts: Tuple[bytes, ...]
    tasks: Tuple[str, ...]
    transport: str
    queue_seconds: float
    service_seconds: float
    payload_cache_hit: bool
    coalesced: bool
    #: The versions of the modules the payload was built from (each task's,
    #: then the library's): its snapshot's on a build, its key's on a hit.
    #: A cluster front end keeps a payload relayed from a shard under these.
    versions: Optional[Tuple[int, ...]] = None

    @property
    def payload(self) -> bytes:
        """The payload bytes: ``parts`` joined once, then kept."""
        joined = self.__dict__.get("_joined")
        if joined is None:
            # two racing first reads both join; they get the same bytes
            joined = b"".join(self.parts)
            object.__setattr__(self, "_joined", joined)
        return joined

    @property
    def payload_bytes(self) -> int:
        return sum(map(len, self.parts))


def _relayed(response) -> Served:
    """What a response another gateway answered reports to the tier work."""
    if isinstance(response, Served):
        return response
    return Served(
        response.parts, response.payload_cache_hit, response.coalesced, response.versions
    )


@dataclass(frozen=True)
class PredictionResponse:
    """One served prediction request: global class ids plus telemetry.

    ``class_ids`` are *global* hierarchy ids (the unified-logit argmax
    mapped through the composite's class table), so clients are agnostic
    to head order.  ``trunk_cache_hit`` is True when its features came out
    of the content-addressed cache without running the trunk at all.
    """

    class_ids: np.ndarray
    tasks: Tuple[str, ...]
    batch_size: int
    service_seconds: float
    model_cache_hit: bool
    trunk_cache_hit: bool
    #: True when the whole answer came from the prediction-result cache —
    #: neither the trunk nor the fused heads ran for this request.
    result_cache_hit: bool = False


class _Request:
    """One request's accounting: ``with`` it around the tier work, then hand
    it to the gateway's ``_served`` / ``_predicted``.

    Construction checks the transport (None for a prediction: nothing
    ships), observes the queue wait and bumps ``counter``; entering opens
    the span and canonicalizes the task names; leaving on an exception
    counts ``errors``.  A plain class, not a generator: this runs per request.
    """

    __slots__ = ("gateway", "names", "transport", "start", "queue_seconds", "span", "_scope")

    def __init__(self, gateway, span_name, counter, tasks, transport, enqueued_at) -> None:
        if transport is not None and transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
        # ``names`` holds the query as given until __enter__ canonicalizes it
        self.gateway, self.names, self.transport = gateway, tasks, transport
        self.start = perf_counter()
        self.queue_seconds = 0.0
        if enqueued_at is not None:
            self.queue_seconds = self.start - enqueued_at
            gateway.metrics.observe("queue", self.queue_seconds)
        gateway.metrics.increment(counter)
        self._scope = TRACER.span(span_name)

    def __enter__(self) -> "_Request":
        self.span = self._scope.__enter__()
        try:
            self.names = canonical_tasks(self.names)
            self.span.tag("tasks", len(self.names))
            if self.transport is not None:
                self.span.tag("transport", self.transport)
        except BaseException as error:
            self.__exit__(type(error), error, error.__traceback__)
            raise
        return self

    def __exit__(self, exc_type, exc, traceback):
        if exc_type is not None:
            self.gateway.metrics.increment("errors")
        return self._scope.__exit__(exc_type, exc, traceback)


class _Inflight:
    """Result slot for one coalesced build (leader sets, followers wait)."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value: object = None
        self._error: Optional[BaseException] = None

    def set_result(self, value: object) -> None:
        self._value = value
        self._done.set()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def wait(self) -> object:
        self._done.wait()
        if self._error is not None:
            raise self._error
        return self._value


class SingleFlight:
    """Deduplicate concurrent builds per key (shared by gateway and cluster).

    ``run(key, build)`` executes ``build`` once per key across concurrent
    callers and returns ``(value, coalesced)`` — ``coalesced`` is True for
    callers that waited on another thread's in-flight build.  Errors
    propagate to the leader *and* every follower of that flight.
    """

    def __init__(self) -> None:
        self._gate = threading.Lock()
        self._inflight: Dict[Hashable, _Inflight] = {}

    def run(self, key: Hashable, build: Callable[[], T]) -> Tuple[T, bool]:
        with self._gate:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = _Inflight()
        if not leader:
            return flight.wait(), True  # type: ignore[return-value]
        try:
            value = build()
        except BaseException as error:
            flight.set_exception(error)
            raise
        else:
            flight.set_result(value)
            return value, False
        finally:
            with self._gate:
                self._inflight.pop(key, None)


class ServingGateway:
    """Concurrent serving front door over a :class:`~repro.core.pool.PoolOfExperts`."""

    def __init__(
        self,
        pool: PoolOfExperts,
        config: Optional[GatewayConfig] = None,
        metrics: Optional[ServingMetrics] = None,
        trunk_cache: Optional[TrunkFeatureCache] = None,
    ) -> None:
        self.pool = pool
        self.config = config or GatewayConfig()
        self.metrics = metrics or ServingMetrics()
        self.model_cache = ByteBudgetLRU(self.config.model_cache_bytes, name="model")
        self.payload_cache = ByteBudgetLRU(self.config.payload_cache_bytes, name="payload")
        self._payload_doorkeeper = Doorkeeper(self.payload_cache)
        # trunk features depend only on the frozen library (keyed on its
        # version, never on expert versions); pass a shared instance to pool
        # hit rates across gateways over one library
        # explicit None check: an empty cache is falsy (len() == 0), and a
        # shared instance usually arrives empty
        self.trunk_cache = (
            trunk_cache if trunk_cache is not None else TrunkFeatureCache(TRUNK_CACHE_BYTES)
        )
        # fully-materialized answers: logits keyed (digest, tasks, versions)
        self.result_cache = ByteBudgetLRU(self.config.result_cache_bytes, name="result")
        self._flights = SingleFlight()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def available_tasks(self) -> Tuple[str, ...]:
        return self.pool.expert_names()

    def serve(
        self, tasks: TaskQuery, transport: str = "float32", found: Optional[Found] = None
    ) -> GatewayResponse:
        """Serve one query on the calling thread (blocking).

        ``found`` is this query's :meth:`lookup` when the caller already
        made it: the serve then makes none of its own.
        """
        return self._serve(tasks, transport, None, found)

    def lookup(self, names: Tuple[str, ...], transport: str) -> Optional[Found]:
        """The payload-tier lookup of one serve of canonical ``names``, at
        the pool's current versions: ``(versions, parts or None)``, or None
        when the tier has no budget.

        Counted as the serve's one hit or miss, whichever thread makes it:
        a shard worker's reader thread looks up here and answers a hit
        itself, then hands the result to :meth:`serve`.
        """
        if not self.payload_cache.budget_bytes:
            return None
        versions = self.pool.versions(names)
        return versions, self.payload_cache.get((names, transport, versions))

    def submit(self, tasks: TaskQuery, transport: str = "float32") -> "Future[GatewayResponse]":
        """Dispatch one query onto the worker pool; returns a future.

        The queue-wait between submission and a worker picking the request
        up is recorded in the ``queue`` stage and on the response.
        """
        enqueued_at = perf_counter()
        return self._ensure_executor().submit(self._serve, tasks, transport, enqueued_at)

    def get_model(self, tasks: TaskQuery) -> TaskSpecificModel:
        """The consolidated model for ``tasks``, in canonical task order."""
        return self._model_for(canonical_tasks(tasks))[0]

    def predict(self, images: np.ndarray, tasks: TaskQuery) -> PredictionResponse:
        """Run prediction through the fused fast path, on the calling thread.

        Pipeline: cached answer (result tier) → consolidated model (model
        tier) → trunk features (content-addressed cache, else one forward
        of the model's own trunk) →
        fused multi-head pass → argmax mapped to global class ids.
        """
        images = np.asarray(images, dtype=np.float32)
        with _Request(self, "gateway.predict", "predictions", tasks, None, None) as request:
            tiers = self._predict_tiers(images, request.names)
            return self._predicted(request, images, *tiers)

    def cache_stats(self) -> Dict[str, CacheStats]:
        return {
            "model": self.model_cache.stats(),
            "payload": self.payload_cache.stats(),
            "trunk": self.trunk_cache.stats(),
            "result": self.result_cache.stats(),
        }

    def render_stats(self) -> str:
        return self.metrics.render(cache_stats=self.cache_stats())

    def close(self) -> None:
        with self._executor_lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Per-request accounting — the one copy.  A ClusterGateway opens the
    # same scope around its own routing and closes it through the same
    # responders.
    # ------------------------------------------------------------------
    def _served(
        self,
        request: _Request,
        parts: Tuple[bytes, ...],
        payload_hit: bool,
        coalesced: bool,
        versions: Optional[Tuple[int, ...]],
    ) -> GatewayResponse:
        """Close one serve's accounting into its response."""
        request.span.tag("payload_cache_hit", payload_hit)
        service_seconds = perf_counter() - request.start
        self.metrics.observe("total", service_seconds)
        return GatewayResponse(
            parts, request.names, request.transport, request.queue_seconds,
            service_seconds, payload_hit, coalesced, versions,
        )

    def _predicted(
        self,
        request: _Request,
        images: np.ndarray,
        class_ids: np.ndarray,
        model_hit: bool,
        trunk_hit: bool,
        result_hit: bool,
    ) -> PredictionResponse:
        """Close one prediction's accounting into its response."""
        batch_size = int(images.shape[0])
        request.span.tag("batch", batch_size)
        request.span.tag("result_cache_hit", result_hit)
        request.span.tag("trunk_cache_hit", trunk_hit)
        request.span.tag("model_cache_hit", model_hit)
        service_seconds = perf_counter() - request.start
        self.metrics.observe("predict_total", service_seconds)
        return PredictionResponse(
            class_ids=class_ids,
            tasks=request.names,
            batch_size=batch_size,
            service_seconds=service_seconds,
            model_cache_hit=model_hit,
            trunk_cache_hit=trunk_hit,
            result_cache_hit=result_hit,
        )

    def _serve(
        self,
        tasks: TaskQuery,
        transport: str,
        enqueued_at: Optional[float],
        found: Optional[Found] = None,
    ) -> GatewayResponse:
        with _Request(self, "gateway.serve", "requests", tasks, transport, enqueued_at) as request:
            return self._served(
                request, *self._payload_tiers(request.names, transport, found=found)
            )

    # ------------------------------------------------------------------
    # Tier work: payload tier at the current versions → single flight →
    # pool snapshot → serialize (or a relay) → build cost → put under the
    # snapshot's versions
    # ------------------------------------------------------------------
    def _payload_tiers(
        self,
        names: Tuple[str, ...],
        transport: str,
        snapshot: Seam = None,
        relay: Relay = None,
        found: Optional[Found] = None,
    ) -> Served:
        """One serve's tier work: a payload-tier hit at the pool's current
        versions (``found``, when the caller already looked), else one fill
        per key across concurrent callers.

        ``relay`` answers a miss instead of a build here (a cluster's
        single-shard plan).  A tier with no budget is a pass-through: no
        key, no flight.
        """
        if not self.payload_cache.budget_bytes:
            if relay is not None:
                served = _relayed(relay(names, transport))
            else:
                served = self._build_payload(names, transport, snapshot)
        else:
            versions, parts = found or self.lookup(names, transport)
            key = (names, transport, versions)  # payload_key's shape: names are canonical
            if parts is not None:
                return Served(parts, True, False, versions)
            served, coalesced = self._flights.run(
                key, lambda: self._fill(names, transport, snapshot, relay)
            )
            if coalesced:
                served = served._replace(coalesced=True)
        if served.coalesced:
            self.metrics.increment("coalesced")
        return served

    def _fill(
        self,
        names: Tuple[str, ...],
        transport: str,
        snapshot: Seam = None,
        relay: Relay = None,
    ) -> Served:
        """One payload-tier miss, built here or relayed, put under the
        versions of the modules it was built from if the tier's doorkeeper
        admits it.

        An entry is charged only what it alone holds: a built one its
        container head (the segments are the store's, which is bounded on
        its own), a relayed one whatever of it
        :func:`~repro.core.server.share_segments` could not replace by this
        pool's own segments.  A relayed answer that names no versions
        certifies nothing and is not kept.
        """
        if relay is None:
            served = self._build_payload(names, transport, snapshot)
            owned = len(served.parts[0])
        else:
            served = _relayed(relay(names, transport))
            if served.versions is None:
                return served
            parts, owned = share_segments(served.parts, self.pool, names, transport)
            served = served._replace(parts=parts)
        key = (names, transport, served.versions)
        self._payload_doorkeeper.put(
            key, served.parts, owned, self._payload_doorkeeper.admit(key)
        )
        return served

    def _build_payload(
        self, names: Tuple[str, ...], transport: str, snapshot: Seam = None
    ) -> Served:
        """Snapshot the pool and serialize: a build, neither a hit nor coalesced."""
        taken = (snapshot or self._snapshot)(names)
        with self.metrics.stage("serialize"):
            parts = serialize_task_model(
                taken, taken.composite, self.pool.config, transport, self.pool.segments,
                as_parts=True,
            )
        return Served(parts, False, False, taken.versions)

    def _model_for(
        self, names: Tuple[str, ...], snapshot: Seam = None
    ) -> Tuple[TaskSpecificModel, bool, Tuple[int, ...]]:
        """``(model, model_hit, versions)`` for ``names``: a model-tier hit
        at the pool's current versions, else one snapshot wrapped per key
        across concurrent callers and put under its own versions.  A tier
        with no budget is a pass-through: no key, no flight."""

        def wrap() -> Tuple[TaskSpecificModel, Tuple[int, ...]]:
            taken = (snapshot or self._snapshot)(names)
            return TaskSpecificModel(taken.assemble(), taken.composite), taken.versions

        if not self.model_cache.budget_bytes:
            built, versions = wrap()
            return built, False, versions
        versions = self.pool.versions(names)
        model = self.model_cache.get((names, versions))
        if model is not None:
            return model, True, versions

        def build() -> Tuple[TaskSpecificModel, Tuple[int, ...]]:
            built, versions = wrap()
            self.model_cache.put((names, versions), built, built.cache_nbytes())
            return built, versions

        (built, versions), _ = self._flights.run(("model", names, versions), build)
        return built, False, versions

    def _snapshot(self, names: Tuple[str, ...]) -> PoolSnapshot:
        """The pipeline's one seam: the pool modules ``names`` select, with
        their versions.

        Out of ``self.pool`` here; a :class:`~repro.cluster.ClusterGateway`
        rebinds this on its front tier to gather the heads across shards,
        each at the version its holder reports.
        """
        return self.pool.snapshot(names)

    # ------------------------------------------------------------------
    # Prediction fast path
    # ------------------------------------------------------------------
    def _predict_tiers(
        self, images: np.ndarray, names: Tuple[str, ...], snapshot: Seam = None
    ) -> Tuple[np.ndarray, bool, bool, bool]:
        """``(class_ids, model_hit, trunk_hit, result_hit)`` for one prediction.

        The result tier is looked up first, under ``(image digest, canonical
        tasks, the pool's current versions)``: a hit touches no other tier.
        A miss takes the batch's one admission verdict before the trunk
        tier stores anything, and both content-keyed stores follow it.
        """
        key = digest = admitted = None
        if self.result_cache.budget_bytes:
            digest = array_digest(images)
            current = self.pool.versions(names)
            key = (digest, names, current)
            cached = self.result_cache.get(key)
            if cached is not None:
                self.metrics.increment("predict_result_hits")
                _logits, ids = cached
                return ids, False, False, True
            admitted = self.trunk_cache.admit((current[-1], digest))
        model, model_hit, versions = self._model_for(names, snapshot)
        # the miss path runs the snapshot's own trunk, *compiled*
        trunk = model.network.trunk
        features, trunk_hit = self.trunk_cache.get_or_compute(
            images,
            lambda batch: run_trunk_forward(trunk, batch, self.metrics),
            versions[-1],
            digest,
            admitted,
        )
        with self.metrics.stage("predict_heads"):
            logits = model.logits_from_features(features)
        with self.metrics.stage("predict_argmax"):
            ids = model.classes[logits.argmax(axis=1)]
        if key is not None and not admitted:
            self.result_cache.refuse()
        elif key is not None:
            # (logits, class ids) under the model's versions: a hit needs no model
            self.result_cache.put(
                (digest, names, versions), (logits, ids), int(logits.nbytes + ids.nbytes)
            )
        return ids, model_hit, trunk_hit, False

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ThreadPoolExecutor:
        # _closed is checked under the same lock that creates the executor so
        # a submit racing with close() cannot spawn an orphaned pool.
        with self._executor_lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.config.max_workers,
                    thread_name_prefix="poe-serve",
                )
            return self._executor

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ServingGateway(tasks={len(self.available_tasks())}, "
            f"workers={self.config.max_workers})"
        )
