"""Deterministic task→shard routing via rendezvous hashing.

:class:`ShardRouter` decides which shard(s) own each primitive task.  It
uses rendezvous (highest-random-weight) hashing over a stable digest
(blake2b), so:

* routing is deterministic across processes (no ``PYTHONHASHSEED``
  dependence) and needs no shared state beyond the shard count and seed;
* task placement is balanced — each shard owns ~``1/N`` of the tasks with
  chi-square-bounded spread (tested over 1k names);
* growing or shrinking the cluster only moves ~``1/N`` of the tasks
  (rendezvous minimal disruption), which keeps :meth:`repro.cluster
  .ClusterGateway.rebalance` cheap.

Two placement escape hatches cover what pure hashing cannot:

* **overrides** (:meth:`pin`) force a task's primary onto a named shard —
  operational control for debugging or data-locality constraints;
* **hot-expert replication** (:meth:`replicate`) places a popular task on
  its top-``r`` rendezvous shards, so queries touching it can usually be
  satisfied without growing their shard fan-out (LAWS-style
  popularity-driven placement).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = ["ShardRouter", "plan_groups"]


def plan_groups(
    candidates: Mapping[str, Sequence[int]]
) -> Dict[int, Tuple[str, ...]]:
    """Group tasks by shard, minimizing the number of shards touched.

    ``candidates`` maps each task to its eligible shards (primary first).
    Single-candidate tasks fix their shard; replicated tasks then greedily
    prefer a shard the query already touches.  Deterministic: tasks are
    processed in sorted order.
    """
    names = sorted(candidates)
    groups: Dict[int, List[str]] = {}
    flexible: List[str] = []
    for name in names:
        options = candidates[name]
        if len(options) == 1:
            groups.setdefault(options[0], []).append(name)
        else:
            flexible.append(name)
    for name in flexible:
        options = candidates[name]
        chosen = next((s for s in options if s in groups), options[0])
        groups.setdefault(chosen, []).append(name)
    return {shard: tuple(group) for shard, group in sorted(groups.items())}


def _score(task: str, shard: int, seed: int) -> int:
    """Stable rendezvous weight of placing ``task`` on ``shard``."""
    digest = hashlib.blake2b(
        f"{seed}|{task}|{shard}".encode("utf-8"), digest_size=8
    ).digest()
    return struct.unpack("<Q", digest)[0]


class ShardRouter:
    """Maps primitive-task names to shard ids, with overrides + replication.

    Parameters
    ----------
    num_shards:
        Size of the cluster.
    replication:
        Default number of shards each task lives on (1 = no replication).
    seed:
        Salts the rendezvous digest so distinct clusters shuffle placement
        independently; the same seed always yields the same routing.
    replicas_per_shard:
        Process-level redundancy *within* each shard slot: how many
        identical worker replicas serve it.  Orthogonal to ``replication``
        (which spreads a task across *different* shards for locality);
        this exists for failover, and :meth:`replica_set` exposes
        it to the transports.
    """

    def __init__(
        self,
        num_shards: int,
        replication: int = 1,
        seed: int = 0,
        replicas_per_shard: int = 1,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not 1 <= replication <= num_shards:
            raise ValueError("replication must be within [1, num_shards]")
        if replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be >= 1")
        self.num_shards = num_shards
        self.replication = replication
        self.seed = seed
        self.replicas_per_shard = replicas_per_shard
        self._pins: Dict[str, int] = {}
        self._hot: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Process-level replica sets
    # ------------------------------------------------------------------
    def replica_set(self, shard_id: int) -> Tuple[int, ...]:
        """Replica ids serving ``shard_id`` (0 is the primary replica)."""
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"shard_id must be within [0, {self.num_shards})")
        return tuple(range(self.replicas_per_shard))

    # ------------------------------------------------------------------
    # Placement control
    # ------------------------------------------------------------------
    def pin(self, task: str, shard: int) -> None:
        """Force ``task``'s primary placement onto ``shard``."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard must be within [0, {self.num_shards})")
        self._pins[task] = shard

    def unpin(self, task: str) -> None:
        self._pins.pop(task, None)

    def replicate(self, task: str, copies: int) -> None:
        """Replicate a hot ``task`` onto its top-``copies`` shards."""
        if not 1 <= copies <= self.num_shards:
            raise ValueError(f"copies must be within [1, {self.num_shards}]")
        self._hot[task] = copies

    def replication_for(self, task: str) -> int:
        return self._hot.get(task, self.replication)

    @property
    def pins(self) -> Mapping[str, int]:
        return dict(self._pins)

    @property
    def hot(self) -> Mapping[str, int]:
        """Per-task replication overrides (``task -> copies``).

        Installed by :meth:`replicate` (an operator's call, carried across
        a :meth:`~repro.cluster.ClusterGateway.reshard`).  Read-only
        snapshot for introspection.
        """
        return dict(self._hot)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def ranked_shards(self, task: str) -> Tuple[int, ...]:
        """All shard ids ordered by rendezvous preference for ``task``."""
        order = sorted(
            range(self.num_shards),
            key=lambda shard: _score(task, shard, self.seed),
            reverse=True,
        )
        pinned = self._pins.get(task)
        if pinned is not None:
            order.remove(pinned)
            order.insert(0, pinned)
        return tuple(order)

    def shards_for(self, task: str) -> Tuple[int, ...]:
        """The shards holding ``task`` (primary first, then replicas)."""
        return self.ranked_shards(task)[: self.replication_for(task)]

    def shard_for(self, task: str) -> int:
        """The primary shard of ``task``."""
        return self.shards_for(task)[0]

    def assignment(self, tasks: Iterable[str]) -> Dict[int, Tuple[str, ...]]:
        """Full placement map ``shard id -> owned tasks`` (sorted names).

        Every shard id appears, including empty ones — a shard with no
        experts is still a cluster member with serving capacity.
        """
        owned: Dict[int, List[str]] = {shard: [] for shard in range(self.num_shards)}
        for task in sorted(tasks):
            for shard in self.shards_for(task):
                owned[shard].append(task)
        return {shard: tuple(names) for shard, names in owned.items()}

    def plan(self, tasks: Sequence[str]) -> Dict[int, Tuple[str, ...]]:
        """Split one query into per-shard task groups, minimizing fan-out.

        Unreplicated tasks fix their primary shard; replicated tasks then
        greedily prefer a shard the query already touches, so hot-expert
        replicas actually shrink cross-shard fan-out instead of just adding
        copies.  Deterministic for a given router state and task set.
        """
        return plan_groups({name: self.shards_for(name) for name in set(tasks)})

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShardRouter(num_shards={self.num_shards}, "
            f"replication={self.replication}, pins={len(self._pins)}, "
            f"hot={len(self._hot)})"
        )
