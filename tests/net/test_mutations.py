"""Fenced, idempotent mutation frames: replay dedup, epoch fencing, auth.

The crash-safety contract of the mutation write path:

* a retried mutation (same ``mutation_id``) is acknowledged as a
  **replay** and applies exactly once, even across a real process
  boundary;
* a mutation carrying an epoch below the worker's is fenced out with a
  typed :class:`StaleEpochError` (and counted);
* a payload whose blake2b digest does not match the frame's is refused
  before touching the pool;
* an unauthenticated peer is silently read-only — mutation frames get
  ``PermissionError``, reads keep working;
* an online reshard (grow 2→3, shrink back) under a SIGKILL chaos monkey
  is invisible to clients: zero errors, bit-identical payloads.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.cluster import ClusterConfig, ClusterGateway, PoolShard
from repro.cluster.metrics import ClusterMetrics
from repro.core.server import serialize_expert_heads
from repro.net import (
    ChaosMonkey,
    NetworkedCluster,
    RemoteShardClient,
    ShardServer,
    StaleEpochError,
    payload_digest,
)
from repro.net.frame import (
    CODEC_BINARY,
    FrameError,
    MsgType,
    pack_body_parts,
)
from repro.obs import JOURNAL
from repro.serving import GatewayConfig


@pytest.fixture()
def mutable_shard(net_pool):
    """One PoolShard + a started ShardServer + connected client."""
    pool, _data = net_pool
    names = sorted(pool.expert_names())
    shard = PoolShard(0, pool, names, GatewayConfig(max_workers=2))
    server = ShardServer(shard)
    server.start()
    client = RemoteShardClient(server.address)
    yield pool, shard, names, server, client
    client.close()
    server.close()
    shard.close()


# ----------------------------------------------------------------------
# Replay dedup: exactly-once apply
# ----------------------------------------------------------------------
def test_retried_mutation_is_acked_as_replay_not_reapplied(mutable_shard):
    pool, shard, names, server, client = mutable_shard
    victim = names[0]
    baseline = shard.serve((victim,), "raw+zlib").payload
    payload = serialize_expert_heads(pool, [victim])

    (drop_ack,) = client.drop_heads([victim], epoch=1, mutation_id="drop-1")
    assert drop_ack["epoch"] == 1 and not drop_ack.get("replayed")
    assert victim not in shard.pool.experts

    (ack1,) = client.install_heads(payload, epoch=1, mutation_id="ins-1")
    assert not ack1.get("replayed")
    version_after_install = shard.pool.expert_version(victim)

    # the retry: same mutation_id — acked, counted, NOT re-applied
    (ack2,) = client.install_heads(payload, epoch=1, mutation_id="ins-1")
    assert ack2.get("replayed") is True
    assert shard.pool.expert_version(victim) == version_after_install
    assert shard.serve((victim,), "raw+zlib").payload == baseline

    counters = client.stats().get("counters", {})
    assert counters.get("mutations_applied") == 2  # drop + one install
    assert counters.get("mutations_replayed") == 1


def test_replay_across_process_boundary_applies_exactly_once(net_pool):
    """The two-process version: a forked worker journals mutation ids."""
    pool, _data = net_pool
    config = ClusterConfig(num_shards=1)
    with NetworkedCluster(pool, config) as deployment:
        gateway = deployment.gateway
        remote = gateway.shards[0]
        assert remote.supports_mutations
        victim = sorted(pool.expert_names())[0]
        payload = serialize_expert_heads(pool, [victim])
        epoch = remote.info["epoch"] + 1

        (ack1,) = remote.install_heads(
            payload, epoch=epoch, mutation_id="xproc-1"
        )
        (ack2,) = remote.install_heads(
            payload, epoch=epoch, mutation_id="xproc-1"
        )
        assert not ack1.get("replayed")
        assert ack2.get("replayed") is True
        assert ack1["epoch"] == ack2["epoch"] == epoch
        assert remote.replica_epochs() == {0: epoch}

        counters = remote.stats().get("counters", {})
        assert counters.get("mutations_applied") == 1
        assert counters.get("mutations_replayed") == 1
    assert deployment.fleet.leaked_processes() == []


# ----------------------------------------------------------------------
# Epoch fencing
# ----------------------------------------------------------------------
def test_stale_epoch_is_fenced_with_typed_error(mutable_shard):
    _pool, _shard, _names, server, client = mutable_shard
    # an empty drop is a pure epoch fence: advances the worker's epoch
    (ack,) = client.drop_heads([], epoch=5, mutation_id="fence-5")
    assert ack["epoch"] == 5
    assert server.epoch == 5
    assert client.replica_epochs() == {0: 5}

    with pytest.raises(StaleEpochError, match="epoch 3 is stale"):
        client.drop_heads([], epoch=3, mutation_id="late-3")
    counters = client.stats().get("counters", {})
    assert counters.get("stale_epoch_rejects") == 1

    # equal epochs are NOT stale — re-broadcasts at the current epoch
    # (expert pushes between rebalances) must land
    (ack,) = client.drop_heads([], epoch=5, mutation_id="fence-5b")
    assert ack["epoch"] == 5


def test_replay_ack_wins_over_epoch_fence(mutable_shard):
    """A duplicate of an applied mutation is owed its ack even after the
    epoch has moved on — the retrying client must not see a fence."""
    _pool, _shard, _names, server, client = mutable_shard
    client.drop_heads([], epoch=2, mutation_id="m-a")
    client.drop_heads([], epoch=7, mutation_id="m-b")  # epoch now 7
    (ack,) = client.drop_heads([], epoch=2, mutation_id="m-a")  # the retry
    assert ack.get("replayed") is True
    assert server.epoch == 7


# ----------------------------------------------------------------------
# Digest verification
# ----------------------------------------------------------------------
def test_corrupted_payload_is_refused_before_apply(mutable_shard):
    pool, shard, names, _server, client = mutable_shard
    victim = names[0]
    version = shard.pool.expert_version(victim)
    payload = serialize_expert_heads(pool, [victim])
    meta = {
        "mutation_id": "corrupt-1",
        "epoch": 1,
        "digest": payload_digest(payload[:-1] + b"\x00"),  # wrong bytes
    }
    with pytest.raises(FrameError, match="digest"):
        client._broadcast_mutation(
            MsgType.INSTALL_HEADS, pack_body_parts(meta, payload), CODEC_BINARY
        )
    # nothing applied, nothing journaled: a corrected retry under the
    # same id must still go through
    assert shard.pool.expert_version(victim) == version
    meta["digest"] = payload_digest(payload)
    (ack,) = client._broadcast_mutation(
        MsgType.INSTALL_HEADS, pack_body_parts(meta, payload), CODEC_BINARY
    )
    assert not ack.get("replayed")


# ----------------------------------------------------------------------
# Auth gating: unauthenticated peers are read-only
# ----------------------------------------------------------------------
def test_unauthenticated_peer_is_read_only(net_pool):
    pool, _data = net_pool
    names = sorted(pool.expert_names())
    shard = PoolShard(0, pool, names, GatewayConfig(max_workers=2))
    server = ShardServer(shard, auth_token="sekrit")
    server.start()
    try:
        with RemoteShardClient(server.address) as anon:
            # no token: "mutations" is withheld at HELLO, reads still work
            assert anon.supports_mutations is False
            expected = shard.fetch_heads((names[0],), "raw+zlib")
            assert anon.fetch_heads((names[0],), "raw+zlib") == expected
            with pytest.raises(PermissionError, match="auth token"):
                anon.drop_heads([], epoch=1, mutation_id="anon-1")
        with RemoteShardClient(server.address, auth_token="wrong") as impostor:
            assert impostor.supports_mutations is False
            with pytest.raises(PermissionError):
                impostor.drop_heads([], epoch=1, mutation_id="bad-1")
        with RemoteShardClient(server.address, auth_token="sekrit") as trusted:
            assert trusted.supports_mutations is True
            (ack,) = trusted.drop_heads([], epoch=1, mutation_id="ok-1")
            assert ack["epoch"] == 1
    finally:
        server.close()
        shard.close()


def test_networked_cluster_auto_provisions_a_shared_token(net_pool):
    pool, _data = net_pool
    with NetworkedCluster(pool, ClusterConfig(num_shards=1)) as deployment:
        assert deployment.auth_token  # generated, not None
        assert deployment.gateway.shards[0].supports_mutations
    assert deployment.fleet.leaked_processes() == []


# ----------------------------------------------------------------------
# Chaos reshard: SIGKILL mid-reshard is invisible to clients
# ----------------------------------------------------------------------
RESHARD_CONFIG = ClusterConfig(
    num_shards=2,
    replicas_per_shard=2,
    # front-end caches off so queries keep crossing the wire through the
    # reshard + kill window instead of being absorbed by caches
    composite_model_cache_bytes=0,
    composite_payload_cache_bytes=0,
    remote_head_cache_bytes=0,
)


def test_chaos_reshard_grow_and_shrink_is_invisible_to_clients(net_pool):
    pool, _data = net_pool
    with ClusterGateway(pool, ClusterConfig(num_shards=2)) as local:
        names = sorted(local.available_tasks())
        queries = [(n,) for n in names] + [(names[0], names[1])]
        expected = {q: local.serve(q).payload for q in queries}
    JOURNAL.reset()
    JOURNAL.enable(service="test")
    try:
        with NetworkedCluster(pool, RESHARD_CONFIG) as deployment:
            gateway = deployment.gateway
            monkey = ChaosMonkey(deployment.fleet, random.Random(7))
            stop = threading.Event()
            errors: list = []
            wrong: list = []
            served = threading.Condition()
            count = [0]

            def drive() -> None:
                i = 0
                while not stop.is_set():
                    query = queries[i % len(queries)]
                    try:
                        if gateway.serve(query).payload != expected[query]:
                            wrong.append(query)
                    except Exception as exc:  # noqa: BLE001 - the assertion
                        errors.append(exc)
                    i += 1
                    with served:
                        count[0] += 1
                        served.notify_all()

            def serves_on_this_topology(k: int = 20) -> None:
                """Wait until the client threads have sent ``k`` more queries."""
                with served:
                    target = count[0] + k
                    assert served.wait_for(lambda: count[0] >= target, timeout=60.0)

            threads = [threading.Thread(target=drive) for _ in range(2)]
            for thread in threads:
                thread.start()
            killed = []
            try:
                serves_on_this_topology()
                # SIGKILL one worker *while* the reshard broadcast runs:
                # the mutation retry loop must ride out the respawn
                killer = threading.Timer(0.05, lambda: killed.append(monkey.kill_one()))
                killer.start()
                report_grow = gateway.reshard(3)
                killer.join()
                assert killed and killed[0] is not None
                assert monkey.wait_respawned(killed[0], timeout=60.0)
                serves_on_this_topology()  # load on the grown topology
                report_shrink = gateway.reshard(2)
                serves_on_this_topology()  # load after the shrink
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60.0)

            assert errors == [] and wrong == []
            assert count[0] > 3 * len(queries)
            # the front tiers are off: every serve crossed the wire
            roundtrips = deployment.metrics.snapshot()["stages"]["net_roundtrip"]
            assert roundtrips["count"] >= count[0]

            # epochs advanced monotonically; both reshards journaled
            assert report_grow.epoch >= 1
            assert report_shrink.epoch > report_grow.epoch
            assert gateway.epoch == report_shrink.epoch
            reshards = [
                e for e in JOURNAL.events() if e["kind"] == "reshard"
            ]
            assert [(e["old_shards"], e["new_shards"]) for e in reshards] == [
                (2, 3),
                (3, 2),
            ]

            # the fleet is back to 2 shards x 2 replicas, all live
            assert {
                (h.shard_id, h.replica_id) for h in deployment.fleet.workers
            } == {(0, 0), (0, 1), (1, 0), (1, 1)}
            snapshot = gateway.unified_snapshot()
            assert snapshot["epoch"] == gateway.epoch
            counters = snapshot.get("counters", {})
            assert counters.get("reshards") == 2
        assert deployment.fleet.leaked_processes() == []
    finally:
        JOURNAL.reset()
