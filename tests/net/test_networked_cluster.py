"""Networked-shard integration: multiprocess clusters match in-process ones.

The acceptance contract of ``repro.net``: a 2-process networked cluster
returns **bit-identical** consolidated payloads and prediction outputs
vs. the in-process ``PoolShard`` path, errors keep their type (and gain
the shard id) across the wire, and shutdown leaks no worker processes.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterGateway, PoolShard
from repro.control import CacheController
from repro.core import deserialize_task_model, serialize_task_model
from repro.distill import batched_forward
from repro.models import WRNHead
from repro.net import (
    MsgType,
    NetworkedCluster,
    PROTOCOL_VERSION,
    RemoteOperationUnsupported,
    RemoteShardClient,
    ShardServer,
)
from repro.net.frame import FrameDecoder, encode_frame, json_payload, parse_json
from repro.serving import GatewayConfig

CONFIG = ClusterConfig(num_shards=2)


def _cross_shard_query(cluster) -> tuple:
    names = sorted(cluster.available_tasks())
    first = names[0]
    partner = next(
        n for n in names[1:] if cluster.shards_of(n)[0] != cluster.shards_of(first)[0]
    )
    return (first, partner)


@pytest.fixture(scope="module")
def networked(net_pool):
    pool, _data = net_pool
    with NetworkedCluster(pool, CONFIG) as deployment:
        yield deployment


@pytest.fixture(scope="module")
def in_process(net_pool):
    pool, _data = net_pool
    with ClusterGateway(pool, CONFIG) as cluster:
        yield cluster


# ----------------------------------------------------------------------
# Bit-identical serving across the process boundary
# ----------------------------------------------------------------------
def test_worker_processes_are_real(networked):
    pids = {shard.worker_pid for shard in networked.gateway.shards}
    assert len(pids) == len(networked.gateway.shards)
    assert os.getpid() not in pids


@pytest.mark.parametrize("budget", [0, 64 << 20], ids=["uncached", "cached"])
@pytest.mark.parametrize("entry", ["serve", "submit"])
def test_every_entry_path_ships_the_plain_pool_bytes(net_pool, in_process, entry, budget):
    """Every entry point ships what one plain pool serialises, whether the
    front tier's composite caches hold anything or not."""
    pool, data = net_pool
    query = _cross_shard_query(in_process)
    task = sorted(in_process.available_tasks())[0]
    reference = {
        tasks: serialize_task_model(*pool.consolidate(sorted(tasks)), pool.config)
        for tasks in (query, (task,))
    }
    assert in_process.serve(query).payload == reference[query]
    config = replace(
        CONFIG, composite_model_cache_bytes=budget, composite_payload_cache_bytes=budget
    )
    with NetworkedCluster(pool, config) as deployment:
        gateway = deployment.gateway

        def ask(tasks):
            if entry == "serve":
                return [gateway.serve(tasks) for _ in range(3)]
            futures = [gateway.submit(tasks) for _ in range(3)]  # concurrently
            return [future.result(timeout=120) for future in futures]

        for tasks, expected in reference.items():
            assert [r.payload for r in ask(tasks)] == [expected] * 3
        assert gateway.metrics.counter("cross_shard") >= 3
        assert bool(len(gateway.payload_cache)) == bool(budget)
        with pytest.raises(KeyError):
            ask(("no-such-task",))
    assert deployment.fleet.leaked_processes() == []
    x = data.test.images[:16]
    network, _composite = pool.consolidate(sorted(query))
    rebuilt = deserialize_task_model(reference[query])
    assert np.array_equal(rebuilt.logits(x), batched_forward(network, x))


def test_single_shard_payload_bit_identical(networked, in_process):
    task = sorted(in_process.available_tasks())[0]
    assert networked.gateway.serve((task,)).payload == in_process.serve((task,)).payload


def _count_frames(monkeypatch, gateway) -> Counter:
    """Requests each remote shard client puts on the wire, by message type."""
    sent = Counter()
    for shard in gateway.shards:

        def counted(msg_type, *args, real=shard._request):
            sent[msg_type] += 1
            return real(msg_type, *args)

        monkeypatch.setattr(shard, "_request", counted)
    return sent


def test_a_repeated_single_shard_serve_sends_one_serve_frame(net_pool, monkeypatch):
    """The front tier keeps a single-shard payload: a repeat is a front-end
    hit, byte-identical to what one plain pool serialises."""
    pool, _data = net_pool
    with NetworkedCluster(pool, CONFIG) as deployment:
        gateway = deployment.gateway
        sent = _count_frames(monkeypatch, gateway)
        task = sorted(gateway.available_tasks())[0]
        for count, transport in enumerate(("float32", "uint8", "raw+zlib"), start=1):
            expected = serialize_task_model(*pool.consolidate([task]), pool.config, transport)
            responses = [gateway.serve((task,), transport) for _ in range(3)]
            assert [r.payload for r in responses] == [expected] * 3
            assert [r.payload_cache_hit for r in responses[1:]] == [True, True]
            assert sent[MsgType.SERVE] == count
        assert gateway.cache_stats()["composite_payload"].current_entries == 3


def test_a_reextraction_reaches_the_worker_and_ships_the_new_bytes(net_pool, monkeypatch):
    base, _data = net_pool
    pool = base.subset(sorted(base.expert_names()))  # this test re-extracts
    task = sorted(pool.expert_names())[0]
    with NetworkedCluster(pool, CONFIG) as deployment:
        gateway = deployment.gateway
        sent = _count_frames(monkeypatch, gateway)
        old = gateway.serve((task,)).payload
        assert gateway.serve((task,)).payload_cache_hit and sent[MsgType.SERVE] == 1
        config = pool.config
        head = WRNHead(
            config.library_depth,
            config.library_k,
            config.expert_ks,
            num_classes=len(pool.hierarchy.task(task)),
            library_level=config.library_level,
        )
        head.load_state_dict({k: 1.5 * v for k, v in pool.experts[task].state_dict().items()})
        pool.attach_expert(task, head)  # version bump: pushed to the worker
        expected = serialize_task_model(*pool.consolidate([task]), pool.config)
        assert expected != old
        fresh = gateway.serve((task,))
        assert sent[MsgType.SERVE] == 2 and not fresh.payload_cache_hit
        assert fresh.payload == expected
        assert gateway.serve((task,)).payload_cache_hit and sent[MsgType.SERVE] == 2


def test_get_model_logits_bit_identical(networked, in_process, net_pool):
    _pool, data = net_pool
    query = _cross_shard_query(in_process)
    x = data.test.images[:16]
    remote_model = networked.gateway.get_model(query)
    local_model = in_process.get_model(query)
    assert np.array_equal(remote_model.logits(x), local_model.logits(x))
    # single-shard plans assemble at the front end when the shard is remote
    task = sorted(in_process.available_tasks())[0]
    assert np.array_equal(
        networked.gateway.get_model((task,)).logits(x),
        in_process.get_model((task,)).logits(x),
    )


def test_predict_bit_identical(networked, in_process, net_pool):
    _pool, data = net_pool
    x = data.test.images[:16]
    query = _cross_shard_query(in_process)
    for tasks in (query, query[:1]):
        remote = networked.gateway.predict(x, tasks)
        local = in_process.predict(x, tasks)
        assert np.array_equal(remote.class_ids, local.class_ids)


def test_submit_predict_through_worker(networked, in_process, net_pool):
    _pool, data = net_pool
    x = data.test.images[:8]
    task = sorted(in_process.available_tasks())[0]
    response = networked.gateway.submit_predict(x, (task,)).result(timeout=60)
    assert np.array_equal(
        response.class_ids, in_process.predict(x, (task,)).class_ids
    )


def test_single_shard_repeat_hits_on_third_request(networked, net_pool):
    """A worker's gateway gates its own tiers: stored on the second sighting."""
    _pool, data = net_pool
    x = data.test.images[20:26]  # a batch no other test here sends
    task = sorted(networked.gateway.available_tasks())[0]
    first, second, third = (networked.gateway.predict(x, (task,)) for _ in range(3))
    assert not first.result_cache_hit and not first.trunk_cache_hit
    assert not second.result_cache_hit and not second.trunk_cache_hit
    assert third.result_cache_hit
    assert np.array_equal(first.class_ids, third.class_ids)


def test_fetch_heads_bytes_identical(networked, in_process):
    """The remote fetch ships the exact bytes the in-process boundary does."""
    shard_id = 0
    names = in_process.shards[shard_id].task_names()
    local_bytes = in_process.shards[shard_id].fetch_heads(names)
    remote_bytes = networked.gateway.shards[shard_id].fetch_heads(names)
    assert remote_bytes == local_bytes


def test_stats_round_trip(networked):
    client = networked.gateway.shards[0]
    stats = client.cache_stats()
    assert {"model", "payload", "trunk", "result"} <= set(stats)
    assert stats["payload"].budget_bytes > 0
    rendered = networked.gateway.render_stats()
    assert "shard[0]" in rendered
    assert "net_roundtrip" in rendered


# ----------------------------------------------------------------------
# Errors across the wire
# ----------------------------------------------------------------------
def test_remote_keyerror_keeps_type_and_names_shard(networked):
    client = networked.gateway.shards[1]
    with pytest.raises(KeyError) as excinfo:
        client.fetch_heads(("no-such-task",))
    assert "[shard 1]" in str(excinfo.value)
    assert "no-such-task" in str(excinfo.value)


def test_unknown_task_raises_keyerror_at_front_end(networked):
    with pytest.raises(KeyError, match="no expert extracted"):
        networked.gateway.serve(("no-such-task",))


def test_in_process_mutation_signatures_point_at_batch_frames(networked):
    """Live-object signatures still cannot cross a socket; the typed
    error names the serialized batch frame to use instead."""
    client = networked.gateway.shards[0]
    with pytest.raises(RemoteOperationUnsupported, match="drop_heads"):
        client.drop_expert("task0")
    with pytest.raises(RemoteOperationUnsupported, match="install_heads"):
        client.install_expert("task0", object(), 1)
    with pytest.raises(RemoteOperationUnsupported, match="push_library"):
        client.refresh_library(object(), None, 1)


def test_networked_rebalance_moves_experts_over_the_wire(networked, in_process):
    """rebalance() now works against mutation-capable workers: pin a task
    to the other shard and the move lands bit-identically."""
    gateway = networked.gateway
    assert all(s.supports_mutations for s in gateway.shards)
    task = sorted(gateway.available_tasks())[0]
    reference = in_process.serve((task,)).payload
    (old_shard,) = gateway.shards_of(task)
    target = 1 - old_shard
    gateway.router.pin(task, target)
    report = gateway.rebalance()
    assert (task, (old_shard,), (target,)) in report.moved
    assert report.epoch == gateway.epoch > 0
    assert gateway.shards_of(task) == (target,)
    assert gateway.serve((task,)).payload == reference
    # the fleet's respawn spec follows the committed placement
    slots = {h.shard_id: h.task_names for h in networked.fleet.workers}
    assert task in slots[target] and task not in slots[old_shard]
    gateway.router.unpin(task)


def test_rebalance_requires_the_mutations_feature(networked):
    """A worker that did not negotiate 'mutations' (legacy server or no
    auth token) makes rebalance fail with the typed capability error."""
    gateway = networked.gateway
    client = gateway.shards[0]
    features = client.info["features"]
    client.info["features"] = []
    try:
        with pytest.raises(RemoteOperationUnsupported, match="mutations"):
            gateway.rebalance()
    finally:
        client.info["features"] = features


# ----------------------------------------------------------------------
# submit(): the cluster executor over remote shards
# ----------------------------------------------------------------------
def test_submitted_serves_feed_the_controller(net_pool, in_process):
    """Submitted serves leave the controller its signals: popularity,
    build and wire costs."""
    pool, _data = net_pool
    names = sorted(in_process.available_tasks())
    query = _cross_shard_query(in_process)
    with NetworkedCluster(pool, CONFIG) as deployment:
        gateway = deployment.gateway
        controller = CacheController()
        gateway.controller = controller
        controller.attach_cluster(gateway)
        for tasks in (query, (names[0],), query, tuple(names)):
            gateway.submit(tasks).result(timeout=120)
        snapshot = controller.snapshot()
        popularity = sorted(gateway.metrics.popularity.snapshot())
    assert snapshot["tracked_queries"] == 3 and snapshot["build_costs"] == 2
    assert snapshot["wire_costs"] == len(names)
    assert popularity == names


@pytest.mark.parametrize("cross", [False, True], ids=["single", "cross"])
def test_async_submit_is_counted_once(net_pool, in_process, cross):
    """A submitted request, answered or failed, is one request at the front end."""
    pool, _data = net_pool
    query = _cross_shard_query(in_process) if cross else sorted(in_process.available_tasks())[:1]
    with NetworkedCluster(pool, CONFIG) as deployment:
        metrics = deployment.gateway.metrics

        def reading():
            total = metrics.stage_summary("total") or {"count": 0}
            return (metrics.counter("requests"), total["count"], metrics.counter("errors"))

        deployment.gateway.submit(query).result(timeout=120)
        assert reading() == (1, 1, 0)
        with pytest.raises(KeyError):
            deployment.gateway.submit(tuple(query) + ("no-such-task",)).result(timeout=60)
        assert reading() == (2, 1, 1)


# ----------------------------------------------------------------------
# Buffer ownership: a response never aliases a buffer a later one reuses
# ----------------------------------------------------------------------
def test_shared_channel_payloads_never_alias_a_receive_buffer(net_pool):
    """Two threads, one pooled connection, different queries, 200 each.

    Every payload is kept and compared only after all 400 requests ran:
    a response still backed by a receive buffer that a later request
    refilled would read as the other task's bytes by then.
    """
    pool, _data = net_pool
    tasks = sorted(pool.expert_names())[:2]
    shard = PoolShard(0, pool, tasks, GatewayConfig(max_workers=2))
    server = ShardServer(shard, request_workers=2)
    address = server.start()
    expected = {task: shard.serve((task,)).payload for task in tasks}
    assert expected[tasks[0]] != expected[tasks[1]]
    received = {task: [] for task in tasks}
    errors = []

    def hammer(client, task):
        try:
            for _ in range(200):
                received[task].append(client.serve((task,)).payload)
        except BaseException as error:  # surfaced by the assert below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with RemoteShardClient(address, connections=1) as client:
            threads = [
                threading.Thread(target=hammer, args=(client, task)) for task in tasks
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        server.close()
        shard.close()
    assert errors == []
    for task in tasks:
        assert len(received[task]) == 200
        assert all(type(payload) is bytes for payload in received[task])
        assert all(payload == expected[task] for payload in received[task])


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_clean_shutdown_no_leaked_processes(net_pool):
    pool, _data = net_pool
    deployment = NetworkedCluster(pool, CONFIG)
    task = sorted(deployment.gateway.available_tasks())[0]
    deployment.gateway.serve((task,))
    deployment.close()
    assert deployment.fleet.leaked_processes() == []
    assert [h.process.exitcode for h in deployment.fleet.workers] == [0, 0]


def test_in_process_server_drain_rejects_new_requests(net_pool):
    """ShardServer (no fork): drain answers in-flight work, then refuses."""
    pool, _data = net_pool
    shard = PoolShard(0, pool, sorted(pool.expert_names())[:2], GatewayConfig(max_workers=2))
    server = ShardServer(shard, request_workers=2)
    address = server.start()
    try:
        client = RemoteShardClient(address)
        assert client.ping() >= 0.0
        client.close()
        RemoteShardClient.drain_address(address)
        assert server.wait_drained(timeout=5)
    finally:
        server.close()
        shard.close()


def test_protocol_mismatch_is_answered_with_typed_error(net_pool):
    pool, _data = net_pool
    shard = PoolShard(0, pool, sorted(pool.expert_names())[:1], GatewayConfig(max_workers=1))
    server = ShardServer(shard, request_workers=1)
    (host, port) = server.start()
    try:
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                encode_frame(
                    MsgType.HELLO, 1, json_payload({"protocol": PROTOCOL_VERSION + 9})
                )
            )
            decoder = FrameDecoder()
            frames = []
            while not frames:
                data = sock.recv(1 << 16)
                assert data, "server closed without answering the bad HELLO"
                frames = decoder.feed(data)
            error = parse_json(frames[0].payload)
            assert frames[0].msg_type == MsgType.ERROR
            assert error["type"] == "FrameError"
            assert "protocol mismatch" in error["message"]
            # ...and the server hangs up after answering
            assert sock.recv(1 << 16) == b""
    finally:
        server.close()
        shard.close()


def test_remote_mutation_pushes_into_running_workers(net_pool, in_process):
    """A pool mutation now propagates into running workers through the
    fenced INSTALL_HEADS frame: the gateway keeps serving, and nothing is
    poisoned."""
    pool, _data = net_pool
    with NetworkedCluster(pool, CONFIG) as deployment:
        gateway = deployment.gateway
        query = _cross_shard_query(in_process)
        reference = gateway.serve(query).payload
        assert len(gateway.payload_cache) == 1
        task = query[0]
        placement_before = gateway.available_tasks()
        gateway._on_expert_update(task, pool.expert_version(task))
        assert gateway.available_tasks() == placement_before
        assert gateway.metrics.counter("remote_updates_pushed") >= 1
        assert gateway.metrics.counter("remote_updates_unapplied") == 0
        # serving continues, bit-identically (the pool didn't change)
        assert gateway.serve(query).payload == reference


def test_remote_mutation_poisons_when_workers_lack_the_feature(net_pool, in_process):
    """Legacy fallback: when a worker did not negotiate 'mutations', the
    listener must NOT raise (an exception from inside the pool's listener
    loop would skip every listener registered after it); instead it leaves
    the placement map untouched and poisons the gateway so the next
    serving call fails loudly, cached entries included."""
    pool, _data = net_pool
    with NetworkedCluster(pool, CONFIG) as deployment:
        gateway = deployment.gateway
        query = _cross_shard_query(in_process)
        gateway.serve(query)
        gateway.get_model(query)  # serving builds no model: fill that tier
        assert len(gateway.payload_cache) == 1
        assert len(gateway.model_cache) == 1
        gateway.shards[0].info["features"] = []  # simulate a legacy worker
        task = query[0]
        placement_before = gateway.available_tasks()
        # the listener returns normally (later listeners still run)...
        gateway._on_expert_update(task, pool.expert_version(task) + 1)
        assert gateway.available_tasks() == placement_before
        assert gateway.metrics.counter("remote_updates_unapplied") == 1
        # ...and every serving entry point refuses until a fleet restart
        with pytest.raises(RuntimeError, match="restart the worker fleet"):
            gateway.serve(query)
        with pytest.raises(RuntimeError, match="restart the worker fleet"):
            gateway.predict(np.zeros((1, 3, 6, 6), dtype=np.float32), (task,))
        with pytest.raises(RuntimeError, match="restart the worker fleet"):
            gateway.get_model(query)


def test_remote_library_bump_pushes_library_state(net_pool, in_process):
    """REFRESH_LIBRARY carries the trunk to running workers: the gateway
    keeps serving the same bytes (the trunk didn't change)."""
    pool, _data = net_pool
    from repro.core.pool import LIBRARY_TASK

    with NetworkedCluster(pool, CONFIG) as deployment:
        gateway = deployment.gateway
        query = _cross_shard_query(in_process)
        reference = gateway.serve(query).payload
        assert len(gateway.payload_cache) == 1
        gateway._on_expert_update(LIBRARY_TASK, pool.expert_version(LIBRARY_TASK))
        assert gateway.metrics.counter("remote_updates_pushed") >= 1
        assert gateway.serve(query).payload == reference
