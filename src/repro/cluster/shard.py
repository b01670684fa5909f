"""One shard of a sharded pool: an expert subset behind its own gateway.

A :class:`PoolShard` is the unit of horizontal scale: it wraps a *view*
pool (:meth:`repro.core.PoolOfExperts.subset` — shared library, a slice of
the expert heads) and a private :class:`~repro.serving.ServingGateway`
with its own caches, worker budget and metrics.  Single-shard queries are
served entirely inside the shard; cross-shard queries fetch this shard's
heads as a serialized payload (:meth:`fetch_heads`) — the same wire
boundary a networked deployment would cross.

This class is also the reference implementation of the **shard backend
surface** :class:`~repro.cluster.gateway.ClusterGateway` consumes —
``task_names``/``holds``, ``serve``/``predict``/``get_model``,
``fetch_heads``, ``cache_stats`` and ``local_snapshot`` —
which :class:`repro.net.client.RemoteShardClient` mirrors over a socket
(its ``serve`` answers a :class:`~repro.serving.gateway.Served`: no query).
A gateway built with a networked ``shard_factory`` runs the same code
paths against worker processes; :meth:`local_snapshot` returning a real
snapshot (vs. ``None`` remotely) is the home-shard fast path.

Expert migration (rebalance) and re-extraction flow through
:meth:`install_expert` / :meth:`drop_expert` / :meth:`refresh_library`,
which install into the view pool at the parent's versions.  The shard
gateway's tiers key on the view's versions, so a refreshed expert's old
entries can never answer again; a migrated one keeps its version and its
bytes, so its entries stay valid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..core.features import TrunkFeatureCache
from ..core.pool import PoolOfExperts, PoolSnapshot
from ..core.server import serialize_expert_heads
from ..models import WRNHead
from ..serving.cache import CacheStats
from ..serving.gateway import (
    Found,
    GatewayConfig,
    GatewayResponse,
    PredictionResponse,
    ServingGateway,
)
from ..serving.metrics import ServingMetrics

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from ..core.query import TaskSpecificModel
    from ..serving.canonical import TaskQuery

__all__ = ["PoolShard"]


class PoolShard:
    """An expert subset of the pool plus its private serving gateway."""

    def __init__(
        self,
        shard_id: int,
        parent: PoolOfExperts,
        task_names: Iterable[str],
        gateway_config: Optional[GatewayConfig] = None,
        trunk_cache: Optional[TrunkFeatureCache] = None,
    ) -> None:
        self.shard_id = shard_id
        self.parent = parent
        self.pool = parent.subset(task_names)
        # every shard view shares the parent's frozen library, so the
        # cluster hands all shards one trunk-feature cache: features
        # computed for a query on one shard serve predictions on any other
        self.gateway = ServingGateway(
            self.pool, gateway_config, metrics=ServingMetrics(), trunk_cache=trunk_cache
        )

    # ------------------------------------------------------------------
    def task_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.pool.experts))

    def holds(self, task: str) -> bool:
        return task in self.pool.experts

    def fetch_heads(self, names: Iterable[str], transport: str = "raw+zlib") -> bytes:
        """Serialize this shard's heads for a remote consolidation.

        This is the cross-shard wire boundary: the consolidating shard gets
        bytes, not object references, exactly as it would over a network.
        """
        payload = serialize_expert_heads(
            self.pool, tuple(names), transport, store=self.pool.segments
        )
        self.gateway.metrics.increment("head_fetches")
        return payload

    def local_snapshot(self, names: Iterable[str]) -> PoolSnapshot:
        """In-process head references with their versions (``None`` on a
        remote shard client).

        The cluster's composite builder uses this as its home-shard fast
        path: local references need no serialization round trip.
        """
        return self.pool.snapshot(tuple(names))

    def is_remote(self) -> bool:
        """Capability probe: does reaching this shard cross a socket?"""
        return False

    # ------------------------------------------------------------------
    # Serving surface (delegated to the private gateway)
    # ------------------------------------------------------------------
    def serve(
        self, tasks: "TaskQuery", transport: str = "float32", found: Optional[Found] = None
    ) -> GatewayResponse:
        """Serve one model-delivery query entirely inside this shard.

        The response carries the versions of the entry that answered (its
        snapshot's, or its key's on a hit): a front end keeps the relayed
        payload under them.  ``found`` is the payload-tier lookup a worker's
        reader thread already made (:meth:`ServingGateway.lookup`).
        """
        return self.gateway.serve(tasks, transport, found)

    def predict(self, images: "np.ndarray", tasks: "TaskQuery") -> PredictionResponse:
        """Run one prediction through this shard's fused fast path."""
        return self.gateway.predict(images, tasks)

    def get_model(self, tasks: "TaskQuery") -> "TaskSpecificModel":
        """The consolidated model for ``tasks`` from this shard's caches."""
        return self.gateway.get_model(tasks)

    def cache_stats(self) -> Dict[str, CacheStats]:
        """This shard's cache tiers (model/payload/trunk/result)."""
        return self.gateway.cache_stats()

    # ------------------------------------------------------------------
    # Membership changes (rebalance / re-extraction)
    # ------------------------------------------------------------------
    def install_expert(self, name: str, head: WRNHead, version: int) -> None:
        """Place (or refresh) one expert on this shard at ``version``."""
        self.pool.attach_expert(name, head, version)

    def drop_expert(self, name: str) -> None:
        """Remove one expert from this shard (its version bumps)."""
        self.pool.detach_expert(name)

    def refresh_library(self, library, library_student, version: int) -> None:
        """Repoint the view at a re-extracted library trunk, at ``version``."""
        self.pool.install_library(library, library_student, version)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.gateway.close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"PoolShard(id={self.shard_id}, tasks={self.task_names()})"
