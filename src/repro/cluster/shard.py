"""One shard of a sharded pool: an expert subset behind its own gateway.

A :class:`PoolShard` is the unit of horizontal scale: it wraps a *view*
pool (:meth:`repro.core.PoolOfExperts.subset` — shared library, a slice of
the expert heads) and a private :class:`~repro.serving.ServingGateway`
with its own caches, worker budget and metrics.  Single-shard queries are
served entirely inside the shard; cross-shard queries fetch this shard's
heads as a serialized payload (:meth:`fetch_heads`).

This class is the **shard surface** :class:`~repro.cluster.gateway.ClusterGateway`
drives, and :class:`repro.net.client.RemoteShardClient` has the same calls
with the same signatures and return shapes over a socket: ``task_names``,
``serve`` / ``predict``, ``fetch_heads``, ``cache_stats`` / ``stats``,
``supports_mutations`` and the three mutations.  So the gateway never asks
where a shard lives.

Every mutation arrives as bytes, exactly as a worker receives it:
:meth:`install_heads` takes ``serialize_expert_heads`` output,
:meth:`drop_heads` names, :meth:`push_library` ``serialize_library_state``
output.  A worker's :class:`~repro.net.server.ShardServer` fences, dedups
and digest-checks a frame, then calls these same methods, so the apply
code exists once.  An in-process shard receives its frames in order and
never sees a replay, so it ignores ``epoch`` and ``mutation_id``.  The
shard installs what the payload carries at the versions it names, so the
shard gateway's tiers key exactly like the parent's: a refreshed expert's
old entries can never answer again, and a migrated one keeps its version
and its bytes.
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.features import TrunkFeatureCache
from ..core.pool import PoolOfExperts
from ..core.server import (
    deserialize_expert_heads,
    deserialize_library_state,
    serialize_expert_heads,
)
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

    from ..serving.canonical import TaskQuery

__all__ = ["PoolShard"]


class PoolShard:
    """An expert subset of the pool plus its private serving gateway."""

    #: An in-process shard applies every mutation it is handed.
    supports_mutations = True

    def __init__(
        self,
        shard_id: int,
        parent: PoolOfExperts,
        task_names: Iterable[str],
        gateway_config: Optional[GatewayConfig] = None,
        trunk_cache: Optional[TrunkFeatureCache] = None,
    ) -> None:
        self.shard_id = shard_id
        self.pool = parent.subset(task_names)
        # every shard view shares the parent's frozen library, so the
        # cluster hands all shards one trunk-feature cache: features
        # computed for a query on one shard serve predictions on any other
        self.gateway = ServingGateway(
            self.pool, gateway_config, metrics=ServingMetrics(), trunk_cache=trunk_cache
        )
        # a trunk cache handed in is the cluster's, which counts it itself
        self._reports_trunk = trunk_cache is None

    # ------------------------------------------------------------------
    def task_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.pool.experts))

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

    def cache_stats(self) -> Dict[str, CacheStats]:
        """This shard's cache tiers: model, payload and result, plus trunk
        when the trunk-feature cache is its own."""
        stats = self.gateway.cache_stats()
        if not self._reports_trunk:
            del stats["trunk"]
        return stats

    def stats(self, journal_since: int = 0) -> Dict:
        """This shard's unified metrics snapshot with its identity and cache
        tiers: the body of a worker's ``STATS`` answer.

        ``journal_since`` is ignored: a shard's events go to its process's
        journal, which a worker ships itself and which an in-process
        cluster already shares.
        """
        snapshot = self.gateway.metrics.snapshot(include_histograms=True)
        snapshot.update(
            shard_id=self.shard_id,
            pid=os.getpid(),
            tasks=list(self.task_names()),
            cache_stats={
                tier: dataclasses.asdict(s) for tier, s in self.cache_stats().items()
            },
        )
        return snapshot

    def breaker_states(self) -> Dict[int, str]:
        """No circuit breaker stands between a cluster and its in-process shard."""
        return {}

    def replica_epochs(self) -> Dict[int, int]:
        """An in-process shard acknowledges no epochs."""
        return {}

    # ------------------------------------------------------------------
    # Mutations: serialized payloads in, one ack per replica out
    # ------------------------------------------------------------------
    def install_heads(self, payload: bytes, *, epoch: int, mutation_id: str) -> List[Dict]:
        """Install (or refresh) the serialized heads at the versions they
        carry; an existing head of the same name is overwritten, so a
        retried install converges."""
        heads = deserialize_expert_heads(payload)
        for name, remote in heads.items():
            self.pool.attach_expert(name, remote.head, remote.version)
        return [{"installed": list(heads)}]

    def drop_heads(self, names: Sequence[str], *, epoch: int, mutation_id: str) -> List[Dict]:
        """Drop the named heads this shard holds.  Absent names are skipped
        (a respawned worker may have forked past the drop already), and an
        empty list is a pure epoch fence."""
        dropped = [name for name in names if name in self.pool.experts]
        for name in dropped:
            self.pool.detach_expert(name)
        return [{"dropped": dropped}]

    def push_library(self, payload: bytes, *, epoch: int, mutation_id: str) -> List[Dict]:
        """Repoint the view at a serialized library trunk, at its version.

        The distillation student stays behind: serving only runs the trunk.
        """
        library, version = deserialize_library_state(payload)
        self.pool.install_library(library, None, version)
        return [{"version": version}]

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.gateway.close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"PoolShard(id={self.shard_id}, tasks={self.task_names()})"
