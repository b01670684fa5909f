"""The front tier holds single-shard payloads too, each under its own versions.

A single-shard plan's payload-tier miss is relayed to the owning shard
inside the front tier's single flight, and the answer is kept — its
segments the parent pool's own — under the versions the shard reports for
it.  A cross-shard build that used a head fetched at another version is
kept under that version.  Either way a lookup at the pool's current
versions never matches a superseded answer.  The superseded answers here
come from stub shards or from a held-open shard entry, so no race is timed.
"""

from dataclasses import replace
import threading

import pytest

from repro.cluster import ClusterConfig, ClusterGateway
from repro.core import serialize_task_model
from repro.core.pool import LIBRARY_TASK
from repro.core.server import serialize_expert_heads
from repro.serving.canonical import payload_key


def _fresh_bytes(pool, names, transport="float32") -> bytes:
    return serialize_task_model(*pool.consolidate(sorted(names)), pool.config, transport)


class _Shard:
    """A real shard behind a stand-in: counts serves, may gate or rewrite them."""

    def __init__(self, shard, versions_behind=0, gate=None) -> None:
        self._shard = shard
        self.versions_behind = versions_behind
        self.gate = gate
        self.serves = 0

    def __getattr__(self, name):
        return getattr(self._shard, name)

    def serve(self, tasks, transport="float32"):
        self.serves += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=60), "the gate was never opened"
        response = self._shard.serve(tasks, transport)
        if not self.versions_behind:
            return response
        behind = tuple(v - self.versions_behind for v in response.versions)
        return replace(response, versions=behind)

    def fetch_heads(self, names, transport="raw+zlib"):
        return serialize_expert_heads(_Behind(self._shard.pool, self.versions_behind), names, transport)


class _Behind:
    """A shard pool as a worker that has not applied its last updates describes it."""

    def __init__(self, pool, versions_behind) -> None:
        self._pool, self._behind = pool, versions_behind

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def snapshot(self, names):
        snapshot = self._pool.snapshot(names)
        return snapshot._replace(versions=tuple(v - self._behind for v in snapshot.versions))


@pytest.fixture()
def cluster(wide_pool):
    pool = wide_pool[0].subset(sorted(wide_pool[0].expert_names()))
    gateway = ClusterGateway(pool, ClusterConfig(num_shards=2))
    yield gateway
    gateway.close()


def _single(cluster) -> tuple:
    """A two-task composite that lives on one shard, and that shard's id."""
    names = sorted(cluster.available_tasks())
    for a in names:
        for b in names:
            plan = cluster._plan((a, b))
            if a < b and len(plan) == 1:
                return (a, b), next(iter(plan))
    raise AssertionError("no two tasks share a shard")


def _cross(cluster) -> tuple:
    names = sorted(cluster.available_tasks())
    return next((a, b) for a in names for b in names if a < b and len(cluster._plan((a, b))) == 2)


def test_a_single_shard_payload_is_relayed_once_and_held_as_the_pools_segments(cluster):
    names, shard_id = _single(cluster)
    shard = cluster.shards[shard_id] = _Shard(cluster.shards[shard_id])
    pool = cluster.pool
    for transport in ("float32", "uint8", "raw+zlib"):
        cluster.serve(names, transport)  # first sighting: relayed, not kept
        first = cluster.serve(names, transport)
        second = cluster.serve(names, transport)
        assert second.payload_cache_hit and second.parts is first.parts
        assert second.payload == _fresh_bytes(pool, names, transport)
        encoding = "uint8" if transport == "uint8" else "float32"
        segments = [pool.segments.get(LIBRARY_TASK, encoding, pool.library)]
        segments += [pool.segments.get(name, encoding, pool.experts[name]) for name in names]
        assert all(part is segment for part, segment in zip(first.parts[1:], segments))
    assert shard.serves == 6  # two relays per transport, then hits
    front = cluster.cache_stats()["composite_payload"]
    assert front.current_entries == 3
    assert front.current_bytes == sum(
        len(cluster.payload_cache.get(payload_key(names, t, pool.versions(names)))[0])
        for t in ("float32", "uint8", "raw+zlib")
    )


def test_concurrent_single_shard_serves_relay_once(cluster, followers_joined):
    names, shard_id = _single(cluster)
    clients = 5
    shard = cluster.shards[shard_id] = _Shard(
        cluster.shards[shard_id], gate=followers_joined(clients - 1)
    )
    responses = [None] * clients
    barrier = threading.Barrier(clients)

    def client(i):
        barrier.wait()
        responses[i] = cluster.serve(names)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert shard.serves == 1
    assert sum(r.coalesced for r in responses) == clients - 1
    assert cluster.metrics.counter("coalesced") == clients - 1
    assert len({id(r.parts) for r in responses}) == 1
    assert responses[0].payload == _fresh_bytes(cluster.pool, names)


def test_a_relay_at_superseded_versions_is_kept_only_under_them(cluster):
    names, shard_id = _single(cluster)
    shard = cluster.shards[shard_id] = _Shard(cluster.shards[shard_id], versions_behind=1)
    expected = _fresh_bytes(cluster.pool, names)
    assert [cluster.serve(names).payload for _ in range(2)] == [expected] * 2
    assert shard.serves == 2  # the front tier answered neither
    behind = tuple(v - 1 for v in cluster.pool.versions(names))
    assert cluster.payload_cache.keys() == [(names, "float32", behind)]
    shard.versions_behind = 0  # the worker caught up: its answer is kept
    cluster.serve(names)  # first sighting at the current versions
    cluster.serve(names)
    assert cluster.serve(names).payload_cache_hit and shard.serves == 4


def test_a_build_from_a_head_fetched_at_another_version_is_cached_only_at_it(cluster):
    names = _cross(cluster)
    plan = cluster._plan(names)
    home = max(plan, key=lambda shard_id: (len(plan[shard_id]), -shard_id))
    (other,) = set(plan) - {home}
    cluster.shards[other] = _Shard(cluster.shards[other], versions_behind=1)
    expected = _fresh_bytes(cluster.pool, names)
    for _ in range(2):
        response = cluster.serve(names)
        assert response.payload == expected and not response.payload_cache_hit
    assert cluster.metrics.counter("remote_fetches") == 2
    behind = tuple(
        version - (name in plan[other])
        for name, version in zip(names, cluster.pool.versions(names))
    ) + cluster.pool.versions(())
    assert cluster.payload_cache.keys() == [(names, "float32", behind)]
    assert all(key[1] == cluster.pool.expert_version(key[0]) - 1
               for key in cluster.remote_head_cache.keys())


def test_a_shard_entry_of_a_superseded_head_is_never_relayed(cluster):
    """The shard's tier still holds its entry of the old head after the
    update (nothing drops it), and a relay right after the bump must not
    be answered from it: the shard looks up under its new versions."""
    names, shard_id = _single(cluster)
    pool, shard = cluster.pool, cluster.shards[shard_id]
    cluster.serve(names)  # first sighting: remembered, not kept
    old = cluster.serve(names)
    donor = next(name for name in pool.expert_names() if name not in names)
    pool.attach_expert(names[0], pool.experts[donor])  # new weights, same shape
    assert shard.gateway.payload_cache.contains(payload_key(names, "float32", old.versions))
    new = cluster.serve(names)
    assert not new.payload_cache_hit
    assert new.versions == pool.versions(names) != old.versions
    assert new.payload == _fresh_bytes(pool, names) != old.payload
    new = cluster.serve(names)  # the new versions' second sighting is kept
    again = cluster.serve(names)
    assert again.payload_cache_hit and again.parts is new.parts
