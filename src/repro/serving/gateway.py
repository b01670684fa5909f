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
   pool's own encoded segments — and is charged only the head.  With no
   budget the tier is skipped outright (no key, no flight).
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
``submit_predict()`` adds cross-request micro-batching: concurrent small
prediction requests coalesce so the shared trunk runs **once** per drain
over the union of their images, whatever composite each request asked
for; drains are capped at :data:`MAX_BATCH_IMAGES` and sized by an adaptive
window (grow under load, shrink when idle).

**Public entry points.**  Model delivery: :meth:`ServingGateway.serve`
(inline) and :meth:`ServingGateway.submit` (worker pool + queue-wait
telemetry).  Prediction: :meth:`ServingGateway.predict` (inline fused
path) and :meth:`ServingGateway.submit_predict` (micro-batched).
Consolidation without serving: :meth:`ServingGateway.get_model`.
Operations: ``cache_stats()`` / ``render_stats()`` / the
:attr:`predict_window` probe, and ``close()`` (the gateway is a context
manager).

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
builds coalesce through :class:`SingleFlight`; the micro-batch queue and
adaptive window are guarded by ``_predict_lock``.  A pool mutation may
run concurrently with any of it: a build reads modules and versions in
one locked :meth:`~repro.core.pool.PoolOfExperts.snapshot`, so what it
stores is keyed by what it holds.  Mutations must go through
``PoolOfExperts``' install methods (which take that lock), never by
poking ``pool.experts`` directly.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Deque, Dict, Hashable, List, NamedTuple, Optional, Tuple, TypeVar

import numpy as np

from ..core.features import TrunkFeatureCache, array_digest, fused_trunk_features
from ..core.pool import PoolOfExperts, PoolSnapshot
from ..core.query import TaskSpecificModel
from ..core.server import TRANSPORTS, serialize_task_model, share_segments
from ..obs.trace import TRACER
from .canonical import TaskQuery, canonical_tasks
from .cache import ByteBudgetLRU, CacheStats
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
#: Hard cap on images per ``submit_predict`` micro-batch drain; bounds
#: the worst-case latency one drain can add to a small request.
MAX_BATCH_IMAGES = 2048
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
    #: Floor of the adaptive drain window (the window starts here, doubles
    #: while drains leave a backlog up to :data:`MAX_BATCH_IMAGES`, and
    #: halves back when drains run light).
    min_batch_images: int = 64

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if not 1 <= self.min_batch_images <= MAX_BATCH_IMAGES:
            raise ValueError(f"min_batch_images must be within [1, {MAX_BATCH_IMAGES}]")


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
    to head order.  ``coalesced`` is True when the request shared a
    micro-batched trunk forward with other concurrent requests;
    ``trunk_cache_hit`` when its features came out of the content-addressed
    cache without running the trunk at all.
    """

    class_ids: np.ndarray
    tasks: Tuple[str, ...]
    batch_size: int
    queue_seconds: float
    service_seconds: float
    model_cache_hit: bool
    trunk_cache_hit: bool
    coalesced: bool
    #: True when the whole answer came from the prediction-result cache —
    #: neither the trunk nor the fused heads ran for this request.
    result_cache_hit: bool = False


class _Request:
    """One request's accounting: ``with`` it around the tier work, then hand
    it to the gateway's ``_served`` / ``_predicted``.

    Construction checks the transport (None for a prediction: nothing
    ships), observes the queue wait and bumps ``counter``; entering opens
    the span, canonicalizes the task names and feeds their popularity to
    the metrics and the controller; leaving on an exception counts
    ``errors``.  A plain class, not a generator: this runs per request.
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
            self.gateway._record_popularity(self.names, self.transport)
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


@dataclass
class _PendingPrediction:
    """One enqueued ``submit_predict`` request awaiting a micro-batch drain."""

    images: np.ndarray
    names: Tuple[str, ...]
    future: "Future[PredictionResponse]"
    enqueued_at: float = field(default_factory=perf_counter)


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
        controller=None,
    ) -> None:
        self.pool = pool
        self.config = config or GatewayConfig()
        self.metrics = metrics or ServingMetrics()
        #: Optional repro.control.CacheController: when attached it biases
        #: eviction in every tier, learns build costs, and prefetches hot
        #: payloads through :meth:`prefetch`.
        self.controller = controller
        self.model_cache = ByteBudgetLRU(self.config.model_cache_bytes, name="model")
        self.payload_cache = ByteBudgetLRU(self.config.payload_cache_bytes, name="payload")
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
        self._predict_lock = threading.Lock()
        # deque: window-bounded drains pop from the head while submitters
        # append to the tail — O(1) each, under the same hot lock
        self._pending_predictions: Deque[_PendingPrediction] = deque()
        # adaptive micro-batch window (images per drain), bounded by
        # [min_batch_images, MAX_BATCH_IMAGES]; guarded by _predict_lock
        self._predict_window = self.config.min_batch_images
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False
        if controller is not None:
            controller.attach_gateway(self)

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

    def prefetch(
        self, tasks: TaskQuery, transport: str = "float32", relay: Relay = None
    ) -> bool:
        """Warm the payload cache for ``tasks`` without serving a request.

        The self-tuning controller's actuator: fills the payload tier
        exactly like a served miss would — single flight, versioned key
        and all, through ``relay`` when a cluster hands one down — but
        counts under ``prefetch_builds``/the ``prefetch`` stage instead of
        ``requests``, so prefetch traffic stays separable in every
        snapshot.  Returns True when a payload was built, False when one
        was already resident.
        """
        names = canonical_tasks(tasks)
        key = (names, transport, self.pool.versions(names))
        if self.payload_cache.contains(key):
            return False
        with self.metrics.stage("prefetch"):
            self._flights.run(key, lambda: self._fill(names, transport, relay=relay))
        self.metrics.increment("prefetch_builds")
        return True

    def predict(self, images: np.ndarray, tasks: TaskQuery) -> PredictionResponse:
        """Run prediction through the fused fast path, on the calling thread.

        Pipeline: cached answer (result tier) → consolidated model (model
        tier) → trunk features (content-addressed cache, else one forward
        of the model's own trunk) →
        fused multi-head pass → argmax mapped to global class ids.
        """
        return self._predict_one(
            np.asarray(images, dtype=np.float32), tasks, enqueued_at=None
        )

    def submit_predict(
        self, images: np.ndarray, tasks: TaskQuery
    ) -> "Future[PredictionResponse]":
        """Dispatch a prediction onto the worker pool, micro-batched.

        Concurrent requests enqueue and are drained together by whichever
        worker runs first: the drain runs the shared trunk **once** over
        the union of all uncached images (every composite shares the
        frozen library), then each request's fused heads on its own slice.
        """
        names = canonical_tasks(tasks)
        item = _PendingPrediction(
            np.asarray(images, dtype=np.float32), names, Future()
        )
        executor = self._ensure_executor()
        with self._predict_lock:
            self._pending_predictions.append(item)
        try:
            executor.submit(self._drain_predictions)
        except BaseException:
            # close() raced us between the append and the dispatch: take the
            # item back out so it isn't orphaned with an unresolved future
            with self._predict_lock:
                try:
                    self._pending_predictions.remove(item)
                except ValueError:
                    pass  # a concurrent drain (or close) already took it
            raise
        return item.future

    def cache_stats(self) -> Dict[str, CacheStats]:
        return {
            "model": self.model_cache.stats(),
            "payload": self.payload_cache.stats(),
            "trunk": self.trunk_cache.stats(),
            "result": self.result_cache.stats(),
        }

    @property
    def predict_window(self) -> int:
        """Current adaptive micro-batch window, in images per drain."""
        with self._predict_lock:
            return self._predict_window

    def render_stats(self) -> str:
        return self.metrics.render(cache_stats=self.cache_stats())

    def close(self) -> None:
        with self._executor_lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        # a submit_predict that raced close() may have enqueued after the
        # last drain ran; fail its future instead of leaving it hanging
        with self._predict_lock:
            leftovers = list(self._pending_predictions)
            self._pending_predictions = deque()
        for item in leftovers:
            item.future.set_exception(RuntimeError("gateway is closed"))

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Per-request accounting — the one copy.  A ClusterGateway opens the
    # same scope around its own routing and closes it through the same
    # responders.
    # ------------------------------------------------------------------
    def _record_popularity(
        self, names: Tuple[str, ...], transport: Optional[str] = None
    ) -> None:
        """Both popularity signals of one request (no transport: a prediction)."""
        self.metrics.record_tasks(names)
        if self.controller is not None:
            self.controller.record_request(names, transport)

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
        coalesced: bool,
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
            queue_seconds=request.queue_seconds,
            service_seconds=service_seconds,
            model_cache_hit=model_hit,
            trunk_cache_hit=trunk_hit,
            coalesced=coalesced,
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
                if self.controller is not None:
                    self._note_payload_hit(key)
                return Served(parts, True, False, versions)
            served, coalesced = self._flights.run(
                key, lambda: self._fill(names, transport, snapshot, relay)
            )
            if coalesced:
                served = served._replace(coalesced=True)
        if served.coalesced:
            self.metrics.increment("coalesced")
        return served

    def _note_payload_hit(self, key: Hashable) -> None:
        """With a controller: a payload hit is its prefetch loop's if it put the entry there."""
        if self.controller.was_prefetched(key):
            self.metrics.increment("prefetch_hits")

    def _fill(
        self,
        names: Tuple[str, ...],
        transport: str,
        snapshot: Seam = None,
        relay: Relay = None,
    ) -> Served:
        """One payload-tier miss, built here or relayed, put under the
        versions of the modules it was built from.

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
        self.payload_cache.put((names, transport, served.versions), served.parts, owned)
        return served

    def _build_payload(
        self, names: Tuple[str, ...], transport: str, snapshot: Seam = None
    ) -> Served:
        """Snapshot the pool and serialize: a build, neither a hit nor coalesced."""
        build_start = perf_counter()
        taken = (snapshot or self._snapshot)(names)
        store = self.pool.segments
        encoded = store.encode_seconds
        with self.metrics.stage("serialize"):
            parts = serialize_task_model(
                taken, taken.composite, self.pool.config, transport, store, as_parts=True
            )
        if self.controller is not None:
            # measured snapshot+serialize cost: the rebuild price the
            # eviction scores weigh against popularity — so less what this
            # build spent encoding a segment for the first time, which the
            # store keeps and no rebuild pays again (the total is shared: a
            # concurrent build's encode can make this one sample read low)
            once = store.encode_seconds - encoded
            self.controller.record_build_cost(
                names, max(perf_counter() - build_start - once, 0.0), sum(map(len, parts))
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
    def _result_key(
        self, names: Tuple[str, ...], digest: str
    ) -> Optional[Tuple[str, Tuple[str, ...], object]]:
        """Result-cache lookup key for one request, or None when the tier is
        off: ``(image digest, canonical tasks, the pool's current versions)``.
        """
        if self.result_cache.budget_bytes == 0:
            return None
        return (digest, names, self.pool.versions(names))

    def _predict_one(
        self,
        images: np.ndarray,
        tasks: TaskQuery,
        enqueued_at: Optional[float],
        features: Optional[Tuple[int, np.ndarray]] = None,
        trunk_hit: bool = False,
        coalesced: bool = False,
        digest: Optional[str] = None,
        admitted: Optional[bool] = None,
    ) -> PredictionResponse:
        with _Request(self, "gateway.predict", "predictions", tasks, None, enqueued_at) as request:
            return self._predicted(
                request,
                images,
                coalesced,
                *self._predict_tiers(
                    images, request.names, features, trunk_hit, digest, admitted=admitted
                ),
            )

    def _predict_tiers(
        self,
        images: np.ndarray,
        names: Tuple[str, ...],
        features: Optional[Tuple[int, np.ndarray]] = None,
        trunk_hit: bool = False,
        digest: Optional[str] = None,
        snapshot: Seam = None,
        admitted: Optional[bool] = None,
    ) -> Tuple[np.ndarray, bool, bool, bool]:
        """``(class_ids, model_hit, trunk_hit, result_hit)`` for one prediction.

        ``features`` is ``(library version, feature map)`` when a drain
        already ran the trunk; they are used only if the model's snapshot
        holds that library.  ``admitted`` is the request's admission
        verdict when a drain already took it; both content-keyed stores
        follow it.
        """
        # result lookup FIRST, at the current versions: a hit touches no
        # other tier at all
        key = None
        if self.result_cache.budget_bytes:
            if digest is None:
                digest = array_digest(images)
            key = self._result_key(names, digest)
            cached = self.result_cache.get(key)
            if cached is not None:
                self.metrics.increment("predict_result_hits")
                _logits, ids = cached
                return ids, False, trunk_hit, True
            if admitted is None:
                # this request's one sighting, taken before the trunk store
                admitted = self.trunk_cache.admit((key[2][-1], digest))
        model, model_hit, versions = self._model_for(names, snapshot)
        library = versions[-1]
        if features is not None and features[0] == library:
            features = features[1]
        else:
            # the miss path runs the snapshot's own trunk, *compiled*
            trunk = model.network.trunk
            features, trunk_hit = self.trunk_cache.get_or_compute(
                images,
                lambda batch: run_trunk_forward(trunk, batch, self.metrics),
                library,
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

    def _take_drain_batch(self) -> Tuple[List[_PendingPrediction], int]:
        """Pop one window-bounded micro-batch off the pending queue (FIFO).

        The adaptive window bounds the images a single drain may gather
        (worst-case added latency for the requests inside it); a lone
        oversized request is still taken whole — it cannot be split.
        Leftover requests stay queued and are picked up by the drain tasks
        their own submissions scheduled.  The window doubles (up to
        :data:`MAX_BATCH_IMAGES`) when a drain leaves a backlog and halves
        (down to ``min_batch_images``) when a drain runs at under half the
        window — batch more under load, less when idle.
        """
        with self._predict_lock:
            window = self._predict_window
            batch: List[_PendingPrediction] = []
            total = 0
            while self._pending_predictions:
                size = int(self._pending_predictions[0].images.shape[0])
                if batch and total + size > window:
                    break
                batch.append(self._pending_predictions.popleft())
                total += size
            if self._pending_predictions:
                self._predict_window = min(window * 2, MAX_BATCH_IMAGES)
            elif batch and total <= window // 2:
                self._predict_window = max(window // 2, self.config.min_batch_images)
        return batch, total

    def _drain_predictions(self) -> None:
        """Serve pending predictions in one window-bounded micro-batch.

        Whichever worker runs first takes up to one adaptive window's worth
        of the queue: requests with cached answers resolve from the result
        cache, requests with cached features from the trunk cache, and the
        rest are concatenated (per image geometry) and pushed through
        **one** compiled-trunk forward, then each request runs its own
        fused heads on its slice.  Every request schedules a drain task, so
        leftovers beyond the window are served by later tasks; workers that
        find the queue empty return immediately.
        """
        batch, total_images = self._take_drain_batch()
        if not batch:
            return
        coalesced = len(batch) > 1
        self.metrics.increment("predict_batches")
        # drain size telemetry (unit: images, not seconds)
        self.metrics.observe("predict_drain_images", float(total_images))
        if coalesced:
            self.metrics.increment("predict_coalesced", len(batch) - 1)

        # id(item) -> ((library version, features)|None, trunk_hit, digest,
        # admitted) | error
        resolved: Dict[int, object] = {}
        # dedupe by content digest: byte-identical request batches share
        # one representative in the stacked forward (and one cache entry)
        by_digest: Dict[str, List[_PendingPrediction]] = {}
        (library,) = self.pool.versions(())
        for item in batch:
            digest = array_digest(item.images)
            key = self._result_key(item.names, digest)
            # stats-neutral peek: _predict_one does the counted lookup (or,
            # if the entry is evicted meanwhile, recomputes) — no trunk work
            if key is not None and self.result_cache.contains(key):
                resolved[id(item)] = (None, False, digest, None)
                continue
            cached = self.trunk_cache.get((library, digest))
            if cached is not None:
                # resident, so admitted
                resolved[id(item)] = ((library, cached), True, digest, True)
            else:
                by_digest.setdefault(digest, []).append(item)
        groups: Dict[Tuple[int, ...], List[str]] = {}
        for digest, items in by_digest.items():
            groups.setdefault(items[0].images.shape[1:], []).append(digest)
        for digests in groups.values():
            stacked = np.concatenate(
                [by_digest[d][0].images for d in digests], axis=0
            )
            try:
                trunk, library = self.pool.library_snapshot()
                features = run_trunk_forward(trunk, stacked, self.metrics)
            except BaseException as error:
                for digest in digests:
                    for item in by_digest[digest]:
                        resolved[id(item)] = error
                continue
            offset = 0
            for digest in digests:
                sharers = by_digest[digest]
                count = sharers[0].images.shape[0]
                chunk = features[offset : offset + count]
                if len(digests) > 1:
                    # own the rows, in their physical layout: a slice would
                    # pin the whole stacked forward behind a cache entry
                    # charged for its own bytes only
                    chunk = chunk.copy(order="K")
                offset += count
                # byte-identical requests in one drain are one sighting
                admitted = self.trunk_cache.admit((library, digest))
                self.trunk_cache.put((library, digest), chunk, admitted)
                for item in sharers:
                    resolved[id(item)] = ((library, chunk), False, digest, admitted)

        for item in batch:
            entry = resolved[id(item)]
            if isinstance(entry, BaseException):
                # the shared trunk forward failed: account these requests
                # the same way the inline path would (queue + counters)
                self.metrics.observe("queue", perf_counter() - item.enqueued_at)
                self.metrics.increment("predictions")
                self.metrics.increment("errors")
                item.future.set_exception(entry)
                continue
            try:
                item_features, trunk_hit, digest, admitted = entry
                response = self._predict_one(
                    item.images,
                    item.names,
                    item.enqueued_at,
                    features=item_features,
                    trunk_hit=trunk_hit,
                    coalesced=coalesced,
                    digest=digest,
                    admitted=admitted,
                )
            except BaseException as error:
                item.future.set_exception(error)
            else:
                item.future.set_result(response)

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
