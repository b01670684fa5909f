"""repro.cluster — sharded expert pools with cross-shard consolidation.

The serving gateway (PR 1) scales one process; this package scales *out*:

* :mod:`~repro.cluster.router` — :class:`ShardRouter`: deterministic
  task→shard rendezvous hashing with pins (explicit overrides) and
  hot-expert replication.
* :mod:`~repro.cluster.shard` — :class:`PoolShard`: one shard's expert
  subset (a shared-library view of the pool) behind its own
  :class:`~repro.serving.ServingGateway`, plus the serialized head-fetch
  boundary remote consolidation crosses.
* :mod:`~repro.cluster.gateway` — :class:`ClusterGateway`: splits a
  canonical query by shard, relays single-shard queries to the owning
  shard, consolidates cross-shard queries by fetching remote heads, and
  caches every composite's payload at the front end.  ``rebalance()`` migrates
  experts without changing answers.
* :mod:`~repro.cluster.metrics` — :class:`ClusterMetrics`: per-shard
  traffic and the cross-shard fan-out histogram on top of the serving
  metrics vocabulary.

Cross-shard consolidation is bit-identical to single-pool
:meth:`~repro.core.PoolOfExperts.consolidate`: head payloads use a
float-exact codec and the library is shared, so sharding changes where
work happens, never the answer.
"""

from .gateway import ClusterConfig, ClusterGateway, RebalanceReport
from .metrics import ClusterMetrics
from .router import ShardRouter, plan_groups
from .shard import PoolShard

__all__ = [
    "ClusterConfig",
    "ClusterGateway",
    "ClusterMetrics",
    "PoolShard",
    "RebalanceReport",
    "ShardRouter",
    "plan_groups",
]
