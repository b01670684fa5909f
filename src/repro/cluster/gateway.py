"""The cluster front end: route → (fetch + snapshot across shards) → serve.

:class:`ClusterGateway` scales the serving tier horizontally.  Experts are
partitioned across N :class:`~repro.cluster.shard.PoolShard`\\ s by a
:class:`~repro.cluster.router.ShardRouter`.  Every served query runs
through the *front tier*: one :class:`~repro.serving.ServingGateway` over
the parent pool (its payload/model/result tiers, single flight, versioned
keys, doorkeeper).  A payload-tier miss is answered one of two ways:

* **single-shard relay** — the router's plan touches one shard, which
  serves the query through its own gateway (caches, coalescing,
  metrics) exactly as a standalone deployment would; the front tier
  keeps the answer, its segments shared with the parent pool's, under
  the versions the shard reports for it.
* **cross-shard snapshot** — the plan spans shards, and the front
  tier's snapshot step is this class's — take every group's expert
  heads from the remote-head tier, else fetch them from their shard as
  serialized payloads (the UniPool view: any expert is reachable the
  same way wherever it is placed), rebuild them, and select them over
  the shared library in canonical task order: one
  :class:`~repro.core.pool.PoolSnapshot` holding each head at the version
  its shard reports, serialized as it is for a payload and assembled
  into a :class:`~repro.models.BranchedSpecialistNet` only for a model.

What is written here is what only a cluster has: placement and planning,
the single-shard relay, the replan-once rule, the remote-head tier and
the mutations.  Accounting, tiers and responses are ``ServingGateway``'s.

Because head payloads use a float-exact transport, a cross-shard composite
is **bit-identical** to single-pool :meth:`~repro.core.PoolOfExperts
.consolidate` — sharding changes where work happens, never the answer.

Every tier, shard-local and cluster-level, follows the serving gateway's
one staleness rule: an entry is stored under the versions of the modules
it was built from and looked up under the pool's current ones, so nothing
is dropped on an update.  The cluster registers one listener on the source
pool, to resync the shards: when an expert is re-extracted (version bump),
the holding shards install the serialized new head at the pool's version.
:meth:`rebalance` migrates experts to the router's current placement
(after :meth:`~ShardRouter.pin` / :meth:`~ShardRouter.replicate` changes);
a migrated head keeps its version and its bytes, so every entry stays
valid.

**Public entry points.**  Model delivery: :meth:`ClusterGateway.serve`
(blocking) and :meth:`ClusterGateway.submit` (cluster worker pool).
Prediction: :meth:`ClusterGateway.predict` (blocking; a single-shard
plan runs on the owning shard).  Consolidation without serving:
:meth:`ClusterGateway.get_model`.  Operations: :meth:`rebalance`,
:meth:`cache_stats`, :meth:`render_stats`, :meth:`close` (also a context
manager).

**Shard backends.**  The constructor's ``shard_factory`` decides where
shards live: the default builds in-process
:class:`~repro.cluster.shard.PoolShard`\\ s; wiring it to
:meth:`repro.net.server.ShardWorkerFleet.shard_factory` puts each shard
in a forked worker process behind a socket
(:class:`~repro.net.client.RemoteShardClient`).  Both have the same calls
with the same return shapes, and this class never asks which one it
holds: every mutation is serialized once and sent as the same
``install_heads`` / ``drop_heads`` / ``push_library`` call to every shard,
every head a cross-shard build needs is fetched, and every stats read is
one ``stats()`` or ``cache_stats()`` per shard.  Errors raised while a
shard executes a request carry a ``[shard N]`` prefix so a failure inside
a remote worker is attributable from the front end.

**Thread safety.**  All public methods are safe to call from any number
of threads: cache tiers are individually locked
(:class:`~repro.serving.cache.ByteBudgetLRU`), placement reads/writes
take ``_placement_lock``, and the front tier brings ``ServingGateway``'s
single flight and versioned keys.  Mutating entry points (:meth:`rebalance`,
:meth:`reshard`, a pool re-extraction firing ``_on_expert_update``) may
run concurrently with serving: readers see the old or the new placement,
never a torn one.  Placement changes run as a **two-phase plan** —
prepare installs on every destination, then a commit that bumps the
topology epoch and drops from the sources — so a crash between phases
leaves only duplicated heads, never missing ones (see
``docs/resharding.md``).  Remote workers that did not negotiate the
``"mutations"`` feature make mutation attempts raise
:class:`~repro.net.client.RemoteOperationUnsupported`, and a pool update
that cannot reach every shard poisons the gateway.
"""

from __future__ import annotations

import itertools
import secrets
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.features import TrunkFeatureCache
from ..core.pool import LIBRARY_TASK, PoolOfExperts, PoolSnapshot
from ..core.query import TaskSpecificModel
from ..core.server import (
    deserialize_expert_heads,
    serialize_expert_heads,
    serialize_library_state,
)
from ..models import WRNHead, frozen_param_count
from ..obs.journal import JOURNAL
from ..serving.cache import BYTES_PER_PARAM, ByteBudgetLRU, CacheStats, merge_cache_stats
from ..serving.canonical import TaskQuery, canonical_tasks
from ..serving.gateway import (
    TRUNK_CACHE_BYTES,
    GatewayConfig,
    GatewayResponse,
    PredictionResponse,
    ServingGateway,
    _Request,
)
from ..serving.metrics import merge_snapshots
from .metrics import ClusterMetrics
from .router import ShardRouter, plan_groups
from .shard import PoolShard

__all__ = ["ClusterConfig", "ClusterGateway", "RebalanceReport"]

#: Wire codec for cross-shard head fetches, migrations and library
#: pushes.  It must be float-exact (``float32`` or ``raw+zlib``, never
#: ``uint8``) so a cross-shard composite matches a single pool bit-for-bit.
_FETCH_TRANSPORT = "raw+zlib"
#: Request threads of each shard gateway; the cluster's own ``submit``
#: pool runs this many per shard.
WORKERS_PER_SHARD = 2
#: Shard id → the task group it answers for one query.
Plan = Dict[int, Tuple[str, ...]]


def _tag_shard_error(error: BaseException, shard_id: int) -> BaseException:
    """Prefix ``[shard N]`` onto an exception raised while a shard served.

    Keeps the exception *type* (the replan-and-retry contract dispatches
    on ``KeyError``), mutating only the message — once shards are remote
    processes, a failure report without the shard id is unactionable.
    Already-tagged errors (a RemoteShardClient prefixes server-side
    failures itself) pass through unchanged.
    """
    tag = f"[shard {shard_id}]"
    if error.args and isinstance(error.args[0], str):
        if not error.args[0].startswith("[shard "):
            error.args = (f"{tag} {error.args[0]}",) + error.args[1:]
    else:
        error.args = (tag,) + tuple(error.args)
    return error


@dataclass(frozen=True)
class ClusterConfig:
    """Operating envelope of a :class:`ClusterGateway`."""

    num_shards: int = 4
    #: Process-level worker replicas per shard slot (networked fleets):
    #: >1 lets a read fail over to a sibling replica.  In-process
    #: clusters ignore it — a thread crash takes the whole process with
    #: it anyway.
    replicas_per_shard: int = 1
    #: Every shard gateway's model and payload tiers.
    shard_model_cache_bytes: int = 64 << 20
    shard_payload_cache_bytes: int = 64 << 20
    #: The front end's model tier (cross-shard ``predict`` / ``get_model``).
    composite_model_cache_bytes: int = 64 << 20
    #: The front end's payload tier: every composite, single-shard ones
    #: (relayed from their shard on a miss) and cross-shard ones (built
    #: here).  An entry is charged its container head plus any segment
    #: that is not the parent pool's own; 0 makes the tier a pass-through.
    composite_payload_cache_bytes: int = 64 << 20
    #: Version-keyed LRU of deserialized remote heads, so cross-shard
    #: composites stop refetching the same expert payload per build.
    remote_head_cache_bytes: int = 32 << 20

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be >= 1")

    def shard_gateway_config(self) -> GatewayConfig:
        return GatewayConfig(
            max_workers=WORKERS_PER_SHARD,
            model_cache_bytes=self.shard_model_cache_bytes,
            payload_cache_bytes=self.shard_payload_cache_bytes,
        )


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one :meth:`ClusterGateway.rebalance` run."""

    #: ``(task, old shard ids, new shard ids)`` for every task that moved.
    moved: Tuple[Tuple[str, Tuple[int, ...], Tuple[int, ...]], ...]
    installs: int
    drops: int
    #: Serialized payload bytes shipped shard-to-shard for the migrations
    #: (in the float-exact ``raw+zlib`` codec).
    migrated_bytes: int = 0
    #: Topology epoch the commit phase installed (0 when nothing moved —
    #: a no-op plan never bumps the fence).
    epoch: int = 0


class ClusterGateway:
    """Sharded serving front end over one :class:`PoolOfExperts`."""

    def __init__(
        self,
        pool: PoolOfExperts,
        config: Optional[ClusterConfig] = None,
        router: Optional[ShardRouter] = None,
        metrics: Optional[ClusterMetrics] = None,
        shard_factory=None,
    ) -> None:
        self.pool = pool
        self.config = config or ClusterConfig()
        self.router = router or ShardRouter(
            self.config.num_shards, replicas_per_shard=self.config.replicas_per_shard
        )
        if self.router.num_shards != self.config.num_shards:
            raise ValueError(
                f"router has {self.router.num_shards} shards, "
                f"config says {self.config.num_shards}"
            )
        self.metrics = metrics or ClusterMetrics()
        self._placement_lock = threading.Lock()
        self._placement: Dict[str, Tuple[int, ...]] = {
            name: self.router.shards_for(name) for name in pool.expert_names()
        }
        # shard contents are the placement map inverted (empty shards stay:
        # a shard with no experts is still serving capacity)
        assignment: Dict[int, List[str]] = {
            shard_id: [] for shard_id in range(self.config.num_shards)
        }
        for name in sorted(self._placement):
            for shard_id in self._placement[name]:
                assignment[shard_id].append(name)
        # one shared trunk-feature cache: every shard view runs the same
        # frozen library, so features are reusable cluster-wide
        self.trunk_cache = TrunkFeatureCache(TRUNK_CACHE_BYTES)
        # shard_factory(shard_id, task_names, gateway_config, trunk_cache)
        # decides the backend: in-process PoolShards by default, or remote
        # worker processes via repro.net's ShardWorkerFleet.shard_factory.
        if shard_factory is None:
            def shard_factory(shard_id, task_names, gateway_config, trunk_cache):
                return PoolShard(
                    shard_id, pool, task_names, gateway_config, trunk_cache=trunk_cache
                )

        # kept so reshard() can spawn shards for grown slots through the
        # same backend (in-process or a fleet's networked factory)
        self._shard_factory = shard_factory
        self.shards: List[PoolShard] = [
            shard_factory(
                shard_id,
                tuple(assignment[shard_id]),
                self.config.shard_gateway_config(),
                self.trunk_cache,
            )
            for shard_id in range(self.config.num_shards)
        ]
        #: Set to the mutated task name when a pool update could not reach
        #: every shard; every serving entry point refuses from then on.
        self._remote_stale: Optional[str] = None
        #: Topology epoch: bumped by every committed rebalance/reshard and
        #: carried on every mutation frame so a worker can fence out frames
        #: from superseded plans.
        self._epoch = 0
        #: Attached ShardWorkerFleet (networked deployments) — lets
        #: reshard() spawn and retire worker slots; see attach_fleet().
        self._fleet = None
        self._mutation_seq = itertools.count(1)
        # The cross-shard tier is ServingGateway's pipeline over the parent
        # pool — accounting, payload/model/result tiers, single flight,
        # versioned keys, doorkeeper — with one step rebound: a composite's
        # snapshot holds heads gathered across shards.  It shares this
        # front end's metrics and trunk cache and is entered below its
        # public serve()/predict(), so each request is counted once, here.
        self._front = ServingGateway(
            pool,
            GatewayConfig(
                model_cache_bytes=self.config.composite_model_cache_bytes,
                payload_cache_bytes=self.config.composite_payload_cache_bytes,
            ),
            metrics=self.metrics,
            trunk_cache=self.trunk_cache,
        )
        self._front._snapshot = self._snapshot
        self.model_cache = self._front.model_cache
        self.payload_cache = self._front.payload_cache
        #: Cross-shard prediction answers, keyed (digest, tasks, versions) —
        #: single-shard predictions use the owning shard gateway's tier.
        self.result_cache = self._front.result_cache
        # deserialized remote heads, keyed (task, version): a version bump
        # can never hit a stale entry
        self.remote_head_cache = ByteBudgetLRU(self.config.remote_head_cache_bytes)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False
        self._listener = self._on_expert_update
        pool.add_listener(self._listener)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def available_tasks(self) -> Tuple[str, ...]:
        with self._placement_lock:
            return tuple(sorted(self._placement))

    def shards_of(self, task: str) -> Tuple[int, ...]:
        """Which shards currently hold ``task`` (primary first)."""
        with self._placement_lock:
            return self._placement[task]

    @property
    def epoch(self) -> int:
        """The committed topology epoch (0 until the first rebalance)."""
        return self._epoch

    def attach_fleet(self, fleet) -> None:
        """Wire the worker fleet so :meth:`reshard` can grow/shrink slots.

        Called by :class:`~repro.net.server.NetworkedCluster`.  Without a
        fleet, a retired shard is only closed.
        """
        self._fleet = fleet

    def _mutation_id(self, kind: str) -> str:
        """A unique id for one mutation frame (dedup key on the workers)."""
        return f"{kind}-{next(self._mutation_seq)}-{secrets.token_hex(4)}"

    def _lagging_shards(self) -> List[int]:
        """Shards without the mutation frames (a remote worker whose
        feature negotiation said no, or that predates the protocol)."""
        return [shard.shard_id for shard in self.shards if not shard.supports_mutations]

    def _require_mutation_capable(self, operation: str) -> None:
        """Raise the typed capability error if any shard lags."""
        lagging = self._lagging_shards()
        if lagging:
            from ..net.client import RemoteOperationUnsupported

            raise RemoteOperationUnsupported(
                f"{operation} needs the mutation frames (INSTALL_HEADS/"
                f"DROP_HEADS) on every remote shard, but shard(s) "
                f"{lagging} did not negotiate the 'mutations' feature — "
                "upgrade the workers or authenticate with the fleet's "
                "shared token in HELLO"
            )

    def serve(self, tasks: TaskQuery, transport: str = "float32") -> GatewayResponse:
        """Serve one query on the calling thread (blocking)."""
        return self._serve(tasks, transport, enqueued_at=None)

    def submit(
        self, tasks: TaskQuery, transport: str = "float32"
    ) -> "Future[GatewayResponse]":
        """Dispatch one query onto the cluster worker pool.

        The pool is sized :data:`WORKERS_PER_SHARD` ``* num_shards`` —
        serving capacity grows with the cluster.
        """
        enqueued_at = perf_counter()
        return self._ensure_executor().submit(self._serve, tasks, transport, enqueued_at)

    def get_model(self, tasks: TaskQuery) -> TaskSpecificModel:
        """The consolidated model, canonical order: a front-tier entry
        assembled from the heads the plan gathers."""
        names = canonical_tasks(tasks)
        snapshot = partial(self._snapshot, plan=self._plan(names))
        return self._front._model_for(names, snapshot)[0]

    def predict(self, images: np.ndarray, tasks: TaskQuery) -> PredictionResponse:
        """Prediction through the fused fast path, routed like :meth:`serve`.

        Single-shard plans delegate to the owning shard's gateway
        (model/trunk caches, fused heads); cross-shard plans predict at
        the front tier over the composite model (remote-head cache +
        fetch).  Trunk features come from the one cluster-wide
        content-addressed cache either way.
        """
        images = np.asarray(images, dtype=np.float32)
        with _Request(
            self._front, "cluster.predict", "predictions", tasks, None, None
        ) as request:
            request.span.tag("batch", int(images.shape[0]))
            return self._replanning(
                request.names, lambda: self._predict_planned(request, images)
            )

    def _predict_planned(self, request, images: np.ndarray) -> PredictionResponse:
        plan = self._route(request.names)
        if len(plan) > 1:
            front = self._front
            tiers = front._predict_tiers(
                images, request.names, snapshot=partial(self._snapshot, plan=plan)
            )
            return front._predicted(request, images, *tiers)
        (shard_id,) = plan
        self.metrics.record_shard_requests((shard_id,))
        try:
            response = self.shards[shard_id].predict(images, request.names)
        except BaseException as error:
            raise _tag_shard_error(error, shard_id)
        self.metrics.observe("predict_total", perf_counter() - request.start)
        return response

    def cache_stats(self) -> Dict[str, CacheStats]:
        """Aggregated tiers (``model``/``payload``) plus the cluster tiers:
        one ``cache_stats()`` per shard (a STATS round trip when the shard
        is remote)."""
        return self._merge_cache_stats([shard.cache_stats() for shard in self.shards])

    def _merge_cache_stats(self, shard_stats) -> Dict[str, CacheStats]:
        """Aggregate already-collected per-shard tiers with the cluster's."""
        composite_model = self.model_cache.stats()
        composite_payload = self.payload_cache.stats()
        # a shard reports a trunk tier only when it owns one: an in-process
        # shard sharing this cluster's trunk cache reports none, so that
        # cache counts once
        trunk_parts = [self.trunk_cache.stats()]
        trunk_parts += [stats["trunk"] for stats in shard_stats if "trunk" in stats]
        return {
            "model": merge_cache_stats(
                [s["model"] for s in shard_stats] + [composite_model]
            ),
            "payload": merge_cache_stats(
                [s["payload"] for s in shard_stats] + [composite_payload]
            ),
            "composite_model": composite_model,
            "composite_payload": composite_payload,
            "trunk": merge_cache_stats(trunk_parts),
            "remote_heads": self.remote_head_cache.stats(),
            "result": merge_cache_stats(
                [s["result"] for s in shard_stats] + [self.result_cache.stats()]
            ),
        }

    def unified_snapshot(self) -> Dict[str, object]:
        """One merged unified-schema snapshot for the whole deployment.

        Combines the cluster front end's own metrics with every shard's
        ``stats()`` (a STATS round trip per remote shard) via
        :func:`~repro.serving.metrics.merge_snapshots` — the scrape
        exporter consumes this for networked and local clusters alike.
        """
        parts = [self.metrics.snapshot(include_histograms=True)]
        merged = merge_snapshots(parts + [shard.stats() for shard in self.shards])
        # front-end state attaches *after* the merge (merge_snapshots drops
        # keys it doesn't know): the committed epoch, breaker states, and the
        # client-observed epoch acks (skew across replicas of one shard = a
        # mutation only partially landed — the health scorer flags it)
        merged["epoch"] = self._epoch
        tables: Dict[str, Dict[str, Dict[str, object]]] = {"breakers": {}, "epochs": {}}
        for shard in self.shards:
            for key, observed in (
                ("breakers", shard.breaker_states()),
                ("epochs", shard.replica_epochs()),
            ):
                if observed:
                    tables[key][str(shard.shard_id)] = {
                        str(replica): value for replica, value in observed.items()
                    }
        merged.update((key, table) for key, table in tables.items() if table)
        return merged

    def render_stats(self) -> str:
        # collect each shard's tiers ONCE (a STATS round trip per remote
        # shard) and reuse them for both the merged view and the per-shard
        # table, instead of paying a second sweep inside render()
        shard_stats = [shard.cache_stats() for shard in self.shards]
        return self.metrics.render(
            shards=self.shards,
            cache_stats=self._merge_cache_stats(shard_stats),
            shard_cache_stats=shard_stats,
        )

    def close(self) -> None:
        self.pool.remove_listener(self._listener)
        with self._executor_lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self._front.close()
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ClusterGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Routing: what a cluster adds around the front tier's pipeline
    # ------------------------------------------------------------------
    def _serve(
        self, tasks: TaskQuery, transport: str, enqueued_at: Optional[float]
    ) -> GatewayResponse:
        with _Request(
            self._front, "cluster.serve", "requests", tasks, transport, enqueued_at
        ) as request:
            return self._replanning(request.names, lambda: self._serve_planned(request))

    def _replanning(self, names: Tuple[str, ...], attempt):
        """Run ``attempt`` (plan, then serve or predict); once more if its
        plan went stale — the replan-once rule of every entry path.

        A rebalance can drop an expert from the shard a concurrent plan
        chose between planning and serving: the shard's ``KeyError`` is
        worth one fresh plan while every task is still placed somewhere.
        A reshard can also *retire* the planned shard outright: a
        transport-level failure replans iff the topology epoch moved since
        the attempt planned (otherwise it is a real outage and the same
        plan cannot do better).
        """
        epoch = self._epoch
        try:
            return attempt()
        except KeyError:
            with self._placement_lock:
                stale = all(name in self._placement for name in names)
            if not stale:
                raise
        except (ConnectionError, OSError, RuntimeError, IndexError):
            if self._epoch == epoch:
                raise
        self.metrics.increment("plan_retries")
        return attempt()

    def _route(self, names: Tuple[str, ...]) -> Plan:
        """Plan ``names`` and record how far the request fans out."""
        plan = self._plan(names)
        self.metrics.record_fanout(len(plan))
        if len(plan) > 1:
            self.metrics.increment("cross_shard")
        return plan

    def _serve_planned(self, request) -> GatewayResponse:
        """Every plan goes through the front tier's payload tier (after
        routing, so the remote-staleness refusal comes first): a miss is
        snapshotted across shards, or relayed to the one shard that owns
        the whole query."""
        plan = self._route(request.names)
        names, transport, front = request.names, request.transport, self._front
        if len(plan) > 1:
            snapshot = partial(self._snapshot, plan=plan)
            return front._served(request, *front._payload_tiers(names, transport, snapshot))
        (shard_id,) = plan
        relay = partial(self._relay, shard_id)
        return front._served(request, *front._payload_tiers(names, transport, relay=relay))

    def _relay(self, shard_id: int, names: Tuple[str, ...], transport: str):
        """A single-shard plan's payload-tier miss: its shard serves it."""
        # per-shard traffic counts requests that actually reach a shard
        # (front-tier hits and coalesced followers touch none)
        self.metrics.record_shard_requests((shard_id,))
        try:
            return self.shards[shard_id].serve(names, transport)
        except BaseException as error:
            raise _tag_shard_error(error, shard_id)

    def _check_remote_stale(self) -> None:
        """Refuse to serve once the pool diverged from its shards.

        Set by the pool listener when a pool mutation could not be
        pushed into every shard; failing at the serving
        boundary (instead of raising from inside the listener loop, which
        would skip later listeners) keeps every other gateway on the pool
        consistent while making this one loudly unusable.
        """
        stale = self._remote_stale
        if stale is not None:
            raise RuntimeError(
                f"pool update for {stale!r} could not propagate to every "
                "shard; this gateway refuses to serve potentially "
                "inconsistent answers — restart the worker fleet to recover "
                "(see docs/fault-tolerance.md)"
            )

    def _plan(self, names: Tuple[str, ...]) -> Plan:
        """Per-shard task groups from the *current* placement (not the
        router's — between a ``pin()`` and the ``rebalance()`` that applies
        it, the placement map is what matches shard contents).

        Every serving path plans through here, which makes it the one
        choke point for the remote-staleness refusal."""
        self._check_remote_stale()
        with self._placement_lock:
            try:
                candidates = {name: self._placement[name] for name in names}
            except KeyError as error:
                raise KeyError(
                    f"no expert extracted for primitive task {error.args[0]!r}; "
                    f"available: {sorted(self._placement)}"
                ) from None
        return plan_groups(candidates)

    # ------------------------------------------------------------------
    # The front tier's snapshot step
    # ------------------------------------------------------------------
    def _snapshot(self, names: Tuple[str, ...], plan: Optional[Plan] = None) -> PoolSnapshot:
        """Plan → gather the heads across shards → one snapshot over the
        shared library (what the front tier serializes on a payload miss
        and wraps on a model-tier miss).

        A composite-cache hit touches no shard; a build asks every shard
        in the plan.  A request hands its routed ``plan`` down.  Each head
        is held at the version its holder reports (see
        :meth:`_gather_heads`), so a build from a shard that has not yet
        applied an update is stored under the versions it really holds.
        """
        if plan is None:
            plan = self._plan(names)
        self.metrics.record_shard_requests(list(plan))
        with self.metrics.stage("fetch"):
            heads = self._gather_heads(plan)
        with self.metrics.stage("assemble"):
            composite = self.pool.hierarchy.composite(names)
            trunk, library = self.pool.library_snapshot()
            selected = [heads[name] for name in names]
            return PoolSnapshot(
                trunk,
                names,
                tuple(head for head, _ in selected),
                composite,
                tuple(version for _, version in selected) + (library,),
            )

    def _gather_heads(self, plan: Plan) -> Dict[str, Tuple[WRNHead, int]]:
        """Collect every planned expert head with its version.

        Each group comes out of the remote-head LRU at the pool's current
        version, else a ``fetch_heads`` round trip to its shard in the
        float-exact ``raw+zlib`` codec.  The LRU is keyed ``(task,
        version)``: a version bump can never hit a stale entry, so repeat
        cross-shard builds skip the refetch without staleness risk.  A
        fetched head is held (and kept in the LRU) at the version its shard
        reports for it.
        """
        heads: Dict[str, Tuple[WRNHead, int]] = {}
        for shard_id, group in plan.items():
            missing: List[str] = []
            for name, version in zip(group, self.pool.versions(group)):
                head = self.remote_head_cache.get((name, version))
                if head is None:
                    missing.append(name)
                    continue
                self.metrics.increment("remote_head_hits")
                heads[name] = (head, version)
            if not missing:
                continue
            try:
                raw = self.shards[shard_id].fetch_heads(missing, _FETCH_TRANSPORT)
            except BaseException as error:
                raise _tag_shard_error(error, shard_id)
            self.metrics.increment("remote_fetches")
            self.metrics.increment("remote_fetch_bytes", len(raw))
            for name, remote in deserialize_expert_heads(raw).items():
                head = remote.head.eval()  # held like a pool module: eval from here on
                heads[name] = (head, remote.version)
                self.remote_head_cache.put(
                    (name, remote.version), head, frozen_param_count(head) * BYTES_PER_PARAM
                )
        return heads

    # ------------------------------------------------------------------
    # Pool updates + rebalance
    # ------------------------------------------------------------------
    def _on_expert_update(self, name: str, version: int) -> None:
        """Source pool re-extracted (or removed) an expert: resync shards.

        A change that cannot reach every shard — one lacks the mutation
        frames, or a push raised after its retries — POISONS the gateway
        instead, without raising here: an exception from inside the pool's
        listener loop would skip every listener registered after this one.
        The next serving call fails loudly instead (see
        _check_remote_stale); restart the fleet to recover.
        """
        poisoned = bool(self._lagging_shards())
        if not poisoned:
            try:
                self._resync_shards(name)
            except Exception:
                poisoned = True
        self.metrics.increment("invalidations")
        if poisoned:
            self.metrics.increment("remote_updates_unapplied")
            self._remote_stale = name

    def _resync_shards(self, name: str) -> None:
        """Push one pool update to the shards that hold (or should hold) it.

        The change is serialized once and sent to each shard as a fenced
        frame at the *current* epoch (the placement didn't move, so no
        bump — a worker's fence admits epoch >= its own); each shard
        installs it at the version the payload carries.
        """
        epoch = self._epoch
        if name == LIBRARY_TASK:
            # the trunk changed: every shard repoints at the new library
            payload = serialize_library_state(
                self.pool, _FETCH_TRANSPORT, store=self.pool.segments
            )
            for shard in self.shards:
                shard.push_library(payload, epoch=epoch, mutation_id=self._mutation_id("library"))
                self.metrics.increment("remote_updates_pushed")
            return
        present = name in self.pool.experts
        with self._placement_lock:
            placed = self._placement.get(name)
            if present and placed is None:
                # brand-new expert: place it per the router
                placed = self.router.shards_for(name)
                self._placement[name] = placed
            elif not present and placed is not None:
                del self._placement[name]
        if present:
            payload = serialize_expert_heads(
                self.pool, (name,), _FETCH_TRANSPORT, store=self.pool.segments
            )
        for shard_id in placed or ():
            shard = self.shards[shard_id]
            if present:
                shard.install_heads(payload, epoch=epoch, mutation_id=self._mutation_id("install"))
            else:
                shard.drop_heads([name], epoch=epoch, mutation_id=self._mutation_id("drop"))
            self.metrics.increment("remote_updates_pushed")

    def _serialize_migration_heads(self, names: Tuple[str, ...]) -> bytes:
        """Bulk-serialize ``names`` off the parent pool for a migration.

        This is the shard-to-shard wire boundary: one float-exact payload
        (``raw+zlib``) per (source, destination) route, joined from the
        parent pool's already-encoded head segments, that the destination
        receives verbatim as an ``install_heads`` payload.  The codec is
        float-exact, so a migrated expert answers bit-identically to the
        original.  Migrated payload bytes are counted in
        :class:`ClusterMetrics` (``migrated_bytes``/``expert_migrations``).
        """
        payload = serialize_expert_heads(
            self.pool, names, _FETCH_TRANSPORT, store=self.pool.segments
        )
        self.metrics.increment("migrated_bytes", len(payload))
        self.metrics.increment("expert_migrations", len(names))
        # one payload per (source, destination) route — the bulk property
        self.metrics.increment("migration_payloads")
        return payload

    def _plan_moves(
        self,
        target: Dict[str, Tuple[int, ...]],
        born: Set[int],
    ) -> Tuple[
        List[Tuple[str, Tuple[int, ...], Tuple[int, ...], Optional[int]]],
        Dict[Tuple[Optional[int], int], List[str]],
    ]:
        """Diff the live placement against ``target`` into per-expert move
        plans and bulk (source, destination) transfer routes.

        Destinations in ``born`` (shards spawned this reshard already
        holding their full task set — construction is an implicit install)
        are excluded from the transfer routes but still appear in the
        plans, so the report and the placement repoint stay complete.
        """
        with self._placement_lock:
            old_placement = dict(self._placement)
        plans: List[Tuple[str, Tuple[int, ...], Tuple[int, ...], Optional[int]]] = []
        transfers: Dict[Tuple[Optional[int], int], List[str]] = {}
        for name in sorted(target):
            old = old_placement.get(name, ())
            new = target[name]
            if set(old) == set(new):
                with self._placement_lock:
                    self._placement[name] = new
                continue
            source = old[0] if old else None
            plans.append((name, old, new, source))
            for shard_id in new:
                if shard_id not in old and shard_id not in born:
                    transfers.setdefault((source, shard_id), []).append(name)
        return plans, transfers

    def _apply_two_phase(
        self,
        plans: List[Tuple[str, Tuple[int, ...], Tuple[int, ...], Optional[int]]],
        transfers: Dict[Tuple[Optional[int], int], List[str]],
        retiring: Set[int] = frozenset(),
        force_epoch: bool = False,
    ) -> Tuple[List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]], int, int, int, int]:
        """Execute a migration plan as prepare → commit.

        **Prepare** serializes each route once and installs on every
        destination at ``epoch + 1``.  A crash here leaves extra head
        copies on destinations — harmless duplicates; the placement map
        still points at the sources, and a retry re-installs idempotently.

        **Commit** bumps the gateway epoch, repoints the placement, drops
        from the sources in per-shard batches, and fences every untouched
        shard forward with an empty ``DROP_HEADS`` so a frame from
        a superseded plan can never land anywhere in the fleet.  Shards in
        ``retiring`` are skipped for drops and fences — they close right
        after commit.

        A migrated head keeps its version and its bytes (the codec is
        float-exact), so no cache entry anywhere needs to go.

        Returns ``(moved, installs, drops, migrated_bytes, epoch)`` with
        ``epoch`` 0 when nothing committed.
        """
        moved: List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]] = []
        installs = drops = migrated_bytes = 0
        if not plans and not force_epoch:
            return moved, installs, drops, migrated_bytes, 0
        next_epoch = self._epoch + 1
        # ---- prepare -------------------------------------------------
        for (_source, dest), names in transfers.items():
            payload = self._serialize_migration_heads(tuple(names))
            migrated_bytes += len(payload)
            self.shards[dest].install_heads(
                payload, epoch=next_epoch, mutation_id=self._mutation_id("install")
            )
            installs += len(names)
        # ---- commit --------------------------------------------------
        self._epoch = next_epoch
        drop_batches: Dict[int, List[str]] = {}
        for name, old, new, _source in plans:
            moved.append((name, old, new))
            # destinations were installed above, so repointing before the
            # drops means a concurrent plan sees either the old home
            # (still serving) or the new one (already installed), never a
            # shard that no longer holds the expert
            with self._placement_lock:
                self._placement[name] = new
            for shard_id in old:
                if shard_id not in new and shard_id not in retiring:
                    drop_batches.setdefault(shard_id, []).append(name)
        for shard_id in sorted(drop_batches):
            names = drop_batches[shard_id]
            self.shards[shard_id].drop_heads(
                names, epoch=next_epoch, mutation_id=self._mutation_id("drop")
            )
            drops += len(names)
        touched = {route[1] for route in transfers} | set(drop_batches)
        for shard in self.shards:
            if shard.shard_id not in touched and shard.shard_id not in retiring:
                shard.drop_heads(
                    [], epoch=next_epoch, mutation_id=self._mutation_id("fence")
                )
        return moved, installs, drops, migrated_bytes, next_epoch

    def _sync_fleet_assignment(self) -> None:
        """Push the committed placement into the fleet's respawn specs.

        A worker that dies after a rebalance/reshard must fork with its
        *current* task set, or the supervisor would resurrect the pre-move
        placement.
        """
        if self._fleet is None:
            return
        assignment: Dict[int, List[str]] = {
            shard.shard_id: [] for shard in self.shards
        }
        with self._placement_lock:
            for name in sorted(self._placement):
                for shard_id in self._placement[name]:
                    if shard_id in assignment:
                        assignment[shard_id].append(name)
        for shard_id, names in assignment.items():
            self._fleet.update_assignment(shard_id, tuple(names))

    def rebalance(self, router: Optional[ShardRouter] = None) -> RebalanceReport:
        """Migrate experts to the router's current placement.

        Call after mutating the router (``pin``/``replicate``) or pass a
        replacement router (same shard count).  Experts ship shard-to-shard
        as bulk serialized head payloads in the float-exact
        ``raw+zlib`` codec (one payload per source/destination pair),
        so answers never change: a moved expert keeps its version, and
        every cache entry built from it stays valid.

        Every shard receives the same ``install_heads``/``drop_heads``
        calls under the two-phase epoch fence (see :meth:`_apply_two_phase`
        and ``docs/resharding.md``); remote workers that did not negotiate
        the mutation frames raise
        :class:`~repro.net.client.RemoteOperationUnsupported`.
        """
        self._require_mutation_capable("rebalance()")
        if router is not None:
            if router.num_shards != len(self.shards):
                raise ValueError(
                    f"replacement router has {router.num_shards} shards, "
                    f"cluster has {len(self.shards)}"
                )
            self.router = router
        target = {
            name: self.router.shards_for(name)
            for name in self.pool.expert_names()
        }
        plans, transfers = self._plan_moves(target, born=set())
        moved, installs, drops, migrated_bytes, epoch = self._apply_two_phase(plans, transfers)
        self._sync_fleet_assignment()
        if moved:
            self.metrics.increment("rebalances")
            if JOURNAL.enabled:
                JOURNAL.emit(
                    "rebalance",
                    moved=len(moved),
                    installs=installs,
                    drops=drops,
                    migrated_bytes=migrated_bytes,
                    epoch=epoch,
                )
        return RebalanceReport(
            moved=tuple(moved),
            installs=installs,
            drops=drops,
            migrated_bytes=migrated_bytes,
            epoch=epoch,
        )

    def reshard(self, new_num_shards: int) -> RebalanceReport:
        """Grow or shrink the cluster to ``new_num_shards`` shards online.

        Rendezvous routing keeps movement minimal: only experts whose
        hash ranking changes between shard counts move.  Growth spawns the
        new slots through the stored ``shard_factory`` *already holding*
        their full target task set (construction is an implicit bulk
        install), then runs the same two-phase plan as :meth:`rebalance`
        among the pre-existing shards.  Shrink migrates every expert off
        the retiring tail slots first, commits, then drains and retires
        them — in-flight requests planned on a retiring shard complete
        (the server drains before exit) or replan via the epoch-gated
        retry in :meth:`_serve`.

        A networked cluster retires a worker slot through its attached
        fleet (:meth:`attach_fleet`); any other shard is closed.
        """
        if new_num_shards < 1:
            raise ValueError("new_num_shards must be >= 1")
        old_n = len(self.shards)
        if new_num_shards == old_n:
            return RebalanceReport(moved=(), installs=0, drops=0)
        self._require_mutation_capable("reshard()")
        new_replication = min(self.router.replication, new_num_shards)
        new_router = ShardRouter(
            new_num_shards,
            replication=new_replication,
            replicas_per_shard=self.config.replicas_per_shard,
        )
        for task, shard_id in self.router.pins.items():
            if shard_id < new_num_shards:
                new_router.pin(task, shard_id)
        for task in self.pool.expert_names():
            per_task = self.router.replication_for(task)
            if per_task != self.router.replication:
                new_router.replicate(task, min(per_task, new_num_shards))
        target = {
            name: new_router.shards_for(name) for name in self.pool.expert_names()
        }
        born: Set[int] = set(range(old_n, new_num_shards))
        retiring: Set[int] = set(range(new_num_shards, old_n))
        if born:
            assignment: Dict[int, List[str]] = {sid: [] for sid in sorted(born)}
            for name in sorted(target):
                for shard_id in target[name]:
                    if shard_id in assignment:
                        assignment[shard_id].append(name)
            for shard_id in sorted(born):
                self.shards.append(
                    self._shard_factory(
                        shard_id,
                        tuple(assignment[shard_id]),
                        self.config.shard_gateway_config(),
                        self.trunk_cache,
                    )
                )
        plans, transfers = self._plan_moves(target, born=born)
        # a reshard always commits an epoch, even when no expert moved —
        # the *shape* of the cluster changed, and stale frames addressed
        # at the old shape must fence out
        moved, installs, drops, migrated_bytes, epoch = self._apply_two_phase(
            plans, transfers, retiring=retiring, force_epoch=True
        )
        self.router = new_router
        self.config = replace(self.config, num_shards=new_num_shards)
        # retiring slots are the tail, so popping from the end keeps
        # self.shards index-aligned with shard ids throughout
        for shard_id in sorted(retiring, reverse=True):
            shard = self.shards.pop(shard_id)
            if self._fleet is not None:
                self._fleet.retire_shard(shard_id)
            else:
                shard.close()
        self._sync_fleet_assignment()
        self.metrics.increment("reshards")
        if JOURNAL.enabled:
            JOURNAL.emit(
                "reshard",
                old_shards=old_n,
                new_shards=new_num_shards,
                moved=len(moved),
                installs=installs,
                drops=drops,
                migrated_bytes=migrated_bytes,
                epoch=epoch,
            )
        return RebalanceReport(
            moved=tuple(moved),
            installs=installs,
            drops=drops,
            migrated_bytes=migrated_bytes,
            epoch=epoch,
        )

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._closed:
                raise RuntimeError("cluster gateway is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=WORKERS_PER_SHARD * len(self.shards),
                    thread_name_prefix="poe-cluster",
                )
            return self._executor

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ClusterGateway(shards={len(self.shards)}, "
            f"tasks={len(self.available_tasks())}, "
            f"replication={self.router.replication})"
        )
