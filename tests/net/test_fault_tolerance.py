"""Fault tolerance: replica failover, hedged reads, chaos kills, drain.

The robustness contract of ``repro.net``: with ``replicas_per_shard > 1``
a SIGKILLed worker is invisible to clients — queries across the kill
window complete with **bit-identical** payloads, the supervisor journals
``worker_death``/``worker_respawn`` and refills the slot, hedged reads
absorb a slow replica's tail latency, and a draining replica sheds new
requests onto its sibling while in-flight work completes.
"""

from __future__ import annotations

import fcntl
import random
import resource
import select
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.cluster import ClusterConfig, ClusterGateway, PoolShard
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.router import ShardRouter
from repro.net import (
    BreakerOpenError,
    ChaosMonkey,
    HedgePolicy,
    NetworkedCluster,
    RemoteShardClient,
    ShardDrainingError,
    ShardServer,
)
from repro.net import server as net_server
from repro.net.frame import MsgType, encode_frame, json_payload
from repro.obs import JOURNAL
from repro.serving import GatewayConfig

#: Hedging off + no delays: tests that target a specific replica must not
#: have a hedge race them to the sibling.
NO_HEDGE = HedgePolicy(enabled=False)


class SlowShardServer(ShardServer):
    """A replica with injected service latency (tail-latency stand-in).

    ``entered`` is set when a pooled request starts, ``finished`` when it
    has been answered: tests wait on these instead of on the clock.
    """

    def __init__(self, *args, delay: float = 0.15, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delay = delay
        self.entered = threading.Event()
        self.finished = threading.Event()

    def _run_request(self, *args, **kwargs) -> None:
        self.entered.set()
        time.sleep(self.delay)
        super()._run_request(*args, **kwargs)
        self.finished.set()


@pytest.fixture()
def shard_setup(net_pool):
    """One PoolShard plus a factory that starts replica servers over it."""
    pool, _data = net_pool
    names = sorted(pool.expert_names())
    shard = PoolShard(0, pool, names, GatewayConfig(max_workers=2))
    servers = []

    def start(server_cls=ShardServer, replica_id: int = 0, **kwargs):
        server = server_cls(shard, replica_id=replica_id, **kwargs)
        server.start()
        servers.append(server)
        return server

    yield shard, names, start
    for server in servers:
        server.close()
    shard.close()


# ----------------------------------------------------------------------
# Replica identity + routing surface
# ----------------------------------------------------------------------
def test_hello_carries_replica_id(shard_setup):
    _shard, _names, start = shard_setup
    server = start(replica_id=3)
    with RemoteShardClient(server.address) as client:
        assert client.info["replica"] == 3
        assert client.replica_count == 1


def test_router_replica_sets():
    router = ShardRouter(2, replicas_per_shard=3)
    assert router.replica_set(0) == (0, 1, 2)
    assert router.replica_set(1) == (0, 1, 2)
    with pytest.raises(ValueError):
        router.replica_set(2)
    with pytest.raises(ValueError):
        ShardRouter(2, replicas_per_shard=0)
    with pytest.raises(ValueError):
        ClusterConfig(num_shards=2, replicas_per_shard=0)


# ----------------------------------------------------------------------
# Retry + failover (sync client)
# ----------------------------------------------------------------------
def test_failover_to_sibling_when_primary_dies(shard_setup):
    shard, names, start = shard_setup
    primary = start(replica_id=0)
    sibling = start(replica_id=1)
    metrics = ClusterMetrics()
    with RemoteShardClient(
        [primary.address, sibling.address], metrics=metrics, hedge=NO_HEDGE
    ) as client:
        expected = shard.fetch_heads((names[0],), "raw+zlib")
        assert client.fetch_heads((names[0],), "raw+zlib") == expected
        primary.close()  # hard kill: dialing it now gets connection refused
        assert client.fetch_heads((names[0],), "raw+zlib") == expected
        assert metrics.counter("net_retries") >= 1


def test_sync_pool_evicts_corpse_channels(shard_setup):
    shard, names, start = shard_setup
    server = start()
    metrics = ClusterMetrics()
    with RemoteShardClient(server.address, metrics=metrics) as client:
        expected = shard.fetch_heads((names[0],), "raw+zlib")
        assert client.fetch_heads((names[0],), "raw+zlib") == expected
        # the worker side tears down every established connection (as a
        # SIGKILLed process would); the listener stays up
        with server._conn_lock:
            conns = list(server._connections)
        for conn in conns:
            conn.shutdown(2)
        # wait, bounded, until the FIN has reached every pooled socket
        [endpoint] = client._replicas
        assert endpoint.idle
        for channel in endpoint.idle:
            probe = select.poll()
            probe.register(channel.sock, select.POLLIN)
            assert probe.poll(5000), "no EOF within 5 s"
        # the pooled channel is a corpse: the MSG_PEEK probe must evict it
        # and dial fresh — no error, no retry spent
        assert client.fetch_heads((names[0],), "raw+zlib") == expected
        assert metrics.counter("net_retries") == 0


def test_channel_probe_works_above_fd_setsize():
    """``select.select`` cannot watch descriptors >= 1024; the probe must."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    wanted = 1100
    if hard != resource.RLIM_INFINITY and hard < wanted:
        pytest.skip(f"hard RLIMIT_NOFILE {hard} forbids a descriptor >= 1024")
    ours, peer = socket.socketpair()
    high = None
    try:
        if soft != resource.RLIM_INFINITY and soft < wanted:
            resource.setrlimit(resource.RLIMIT_NOFILE, (wanted, hard))
        # dup2 onto the lowest free descriptor >= 1024
        high = socket.socket(fileno=fcntl.fcntl(ours.fileno(), fcntl.F_DUPFD, 1024))
        high.settimeout(5.0)  # pooled channels carry a Python-level timeout
        channel = SimpleNamespace(sock=high)
        assert high.fileno() >= 1024
        assert RemoteShardClient._channel_alive(channel)  # healthy and silent
        peer.close()
        assert not RemoteShardClient._channel_alive(channel)  # EOF pending
        high.close()
        assert not RemoteShardClient._channel_alive(channel)  # fileno() is -1
    finally:
        for sock in (ours, peer, high):
            if sock is not None:
                sock.close()
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def test_all_breakers_open_raises_typed_error(shard_setup):
    _shard, _names, start = shard_setup
    server = start()
    with RemoteShardClient(server.address) as client:
        for endpoint in client._replicas:
            for _ in range(endpoint.breaker.failure_threshold):
                endpoint.breaker.record_failure()
        assert client.breaker_states() == {0: "open"}
        with pytest.raises(BreakerOpenError):
            client.ping()


# ----------------------------------------------------------------------
# Hedged reads
# ----------------------------------------------------------------------
def test_hedged_read_beats_slow_primary(shard_setup):
    shard, names, start = shard_setup
    slow = start(SlowShardServer, replica_id=0, delay=0.15)
    fast = start(replica_id=1)
    metrics = ClusterMetrics()
    hedge = HedgePolicy(min_delay=0.02, max_delay=0.05)
    with RemoteShardClient(
        [slow.address, fast.address], metrics=metrics, hedge=hedge
    ) as client:
        expected = shard.fetch_heads((names[0],), "raw+zlib")
        elapsed = []
        for _ in range(3):
            slow.finished.clear()
            t0 = time.perf_counter()
            assert client.fetch_heads((names[0],), "raw+zlib") == expected
            elapsed.append(time.perf_counter() - t0)
            # the losing slow attempt drains before the next read
            assert slow.finished.wait(timeout=10.0)
        # every read finished well under the slow replica's 150 ms floor:
        # the hedge fired and the sibling's answer won
        assert min(elapsed) < 0.12
        assert metrics.counter("hedge_fired") >= 1
        assert metrics.counter("hedge_won") >= 1


# ----------------------------------------------------------------------
# Drain: in-flight completes, new requests fail over
# ----------------------------------------------------------------------
def test_drain_waits_for_inflight_and_sheds_new_requests(shard_setup):
    shard, names, start = shard_setup
    primary = start(SlowShardServer, replica_id=0, delay=0.3)
    sibling = start(replica_id=1)
    metrics = ClusterMetrics()
    with RemoteShardClient(
        [primary.address, sibling.address], metrics=metrics, hedge=NO_HEDGE
    ) as client:
        expected = shard.fetch_heads((names[0],), "raw+zlib")
        inflight_result = []

        def inflight() -> None:
            inflight_result.append(client.fetch_heads((names[0],), "raw+zlib"))

        worker = threading.Thread(target=inflight)
        worker.start()
        # the request is in flight on the slow primary
        assert primary.entered.wait(timeout=10.0)
        primary.drain()  # returns only after in-flight work completed
        worker.join(timeout=10.0)
        assert inflight_result == [expected]
        # new requests: the draining primary answers with the typed
        # rejection, the retry layer fails them over to the sibling
        assert client.fetch_heads((names[0],), "raw+zlib") == expected
        assert metrics.counter("net_retries") >= 1


def test_draining_single_replica_surfaces_typed_error(shard_setup):
    _shard, names, start = shard_setup
    server = start()
    with RemoteShardClient(server.address) as client:
        client.ping()  # establish the pool before the drain
        server.drain()
        with pytest.raises(ShardDrainingError):
            client.fetch_heads((names[0],), "raw+zlib")


# ----------------------------------------------------------------------
# Send deadline: a peer that never reads cannot pin the worker
# ----------------------------------------------------------------------
def test_peer_that_never_reads_loses_its_connection_not_the_worker(
    shard_setup, monkeypatch
):
    shard, names, start = shard_setup
    monkeypatch.setattr(net_server, "_SEND_TIMEOUT_S", 0.25)
    server = start()
    shard.serve(names[:2], "float32")  # the flood's SERVEs hit: answered on its reader
    serve = json_payload({"tasks": names[:2], "transport": "float32"})
    fetch = json_payload({"names": names, "transport": "raw+zlib"})  # pooled
    hostile = socket.create_connection(server.address)
    hostile.setblocking(False)
    try:
        # ~4000 payload-bearing requests and not one read: the responses
        # back up until the server's sends to this peer stop making progress
        try:
            for request_id in range(1, 4001):
                msg_type, body = (
                    (MsgType.SERVE, serve) if request_id % 2 else (MsgType.FETCH_HEADS, fetch)
                )
                hostile.sendall(encode_frame(msg_type, request_id, body))
        except BlockingIOError:
            pass  # our own send buffer filled: the server stopped reading us
        with RemoteShardClient(server.address, hedge=NO_HEDGE) as client:
            client.ping()
            cold = client.serve(names[1:3], "raw+zlib")  # a miss: through the pool
            assert not cold.payload_cache_hit
        drainer = threading.Thread(target=server.drain)
        drainer.start()
        drainer.join(timeout=20.0)
        assert not drainer.is_alive(), "drain never saw the in-flight count reach 0"
        assert server._inflight == 0
    finally:
        hostile.close()


# ----------------------------------------------------------------------
# Fork hygiene: every worker forks from a trimmed heap
# ----------------------------------------------------------------------
class _ForkRecorder:
    """Stands in for the fork context: ``start()`` logs and reports ready."""

    def __init__(self, events):
        self.events = events
        self.Pipe = net_server.multiprocessing.Pipe

    def Process(self, target, args, name, daemon):
        events = self.events

        class _Forked:
            pid, exitcode = 4242, None

            def start(self):
                events.append("fork")
                args[0].send(("ready", 1234))

        return _Forked()


def test_heap_trimmed_before_every_fork(monkeypatch):
    events = []
    monkeypatch.setattr(net_server, "_MALLOC_TRIM", lambda pad: events.append(("trim", pad)))
    fleet = net_server.ShardWorkerFleet(pool=None, supervise=False)
    fleet._context = _ForkRecorder(events)
    fleet.spawn(0, ("a",))  # start
    fleet._respawn(fleet.workers[0])  # respawn
    assert events == [("trim", 0), "fork", ("trim", 0), "fork"]


def test_missing_malloc_trim_is_a_no_op(monkeypatch):
    monkeypatch.setattr(net_server.ctypes, "CDLL", lambda _name: object())
    assert net_server._find_malloc_trim() is None
    events = []
    monkeypatch.setattr(net_server, "_MALLOC_TRIM", None)
    fleet = net_server.ShardWorkerFleet(pool=None, supervise=False)
    fleet._context = _ForkRecorder(events)
    assert fleet.spawn(0, ("a",)) == ("127.0.0.1", 1234)
    assert events == ["fork"]


# ----------------------------------------------------------------------
# Chaos: SIGKILL under load, bit-identical results, journaled respawn
# ----------------------------------------------------------------------
CHAOS_CONFIG = ClusterConfig(
    num_shards=2,
    replicas_per_shard=2,
    # front-end caches off so queries keep crossing the wire through the
    # kill window instead of being absorbed by the composite cache
    composite_model_cache_bytes=0,
    composite_payload_cache_bytes=0,
    remote_head_cache_bytes=0,
)


def _queries(cluster):
    names = sorted(cluster.available_tasks())
    first = names[0]
    partner = next(
        n for n in names[1:] if cluster.shards_of(n)[0] != cluster.shards_of(first)[0]
    )
    return [(n,) for n in names] + [(first, partner)]


def test_chaos_kill_is_invisible_to_clients(net_pool):
    pool, _data = net_pool
    with ClusterGateway(pool, ClusterConfig(num_shards=2)) as local:
        queries = _queries(local)
        expected = {q: local.serve(q).payload for q in queries}
    JOURNAL.reset()
    JOURNAL.enable(service="test")
    try:
        with NetworkedCluster(pool, CHAOS_CONFIG) as deployment:
            gateway = deployment.gateway
            # 2 shards x 2 replicas = 4 worker processes, distinct pids
            assert len(deployment.fleet.workers) == 4
            assert len({h.process.pid for h in deployment.fleet.workers}) == 4
            assert {
                (h.shard_id, h.replica_id) for h in deployment.fleet.workers
            } == {(0, 0), (0, 1), (1, 0), (1, 1)}

            monkey = ChaosMonkey(deployment.fleet, random.Random(3))
            stop = threading.Event()
            errors: list = []
            results: list = []
            served = threading.Condition()

            def drive() -> None:
                i = 0
                while not stop.is_set():
                    query = queries[i % len(queries)]
                    try:
                        results.append((query, gateway.serve(query).payload))
                    except Exception as exc:  # noqa: BLE001 - the assertion
                        errors.append(exc)
                    i += 1
                    with served:
                        served.notify_all()

            def serves(k: int = 20) -> None:
                """Wait until the client threads have completed ``k`` more queries."""
                with served:
                    target = len(results) + len(errors) + k
                    assert served.wait_for(
                        lambda: len(results) + len(errors) >= target, timeout=60.0
                    )

            threads = [threading.Thread(target=drive) for _ in range(2)]
            for thread in threads:
                thread.start()
            try:
                serves()  # traffic is flowing before the kill
                handle = monkey.kill_one()
                assert handle is not None
                serves()  # and across the kill window
                assert monkey.wait_respawned(handle, timeout=60.0)
                serves()  # load on the refilled fleet
            finally:
                # stop the load even when an assertion above fails — live
                # drive threads would otherwise outlast the test
                stop.set()
                for thread in threads:
                    thread.join(timeout=60.0)

            assert errors == []
            assert len(results) > len(queries)
            for query, payload in results:
                assert payload == expected[query], query
            # the front tiers are off: every serve crossed the wire
            roundtrips = deployment.metrics.snapshot()["stages"]["net_roundtrip"]
            assert roundtrips["count"] >= len(results)

            # the killed slot holds a fresh, live process
            killed_shard, killed_replica, killed_pid = monkey.kills[0]
            slot = next(
                h
                for h in deployment.fleet.workers
                if h.shard_id == killed_shard and h.replica_id == killed_replica
            )
            assert slot.process.pid != killed_pid
            assert slot.process.is_alive()

            # the journal names the dead process and the one that replaced it
            events = JOURNAL.events()
            kinds = [e["kind"] for e in events]
            assert "worker_death" in kinds
            assert "worker_respawn" in kinds
            death = next(e for e in events if e["kind"] == "worker_death")
            respawn = next(e for e in events if e["kind"] == "worker_respawn")
            assert death["pid"] == killed_pid
            assert respawn["old_pid"] == death["pid"]
            assert respawn["pid"] != death["pid"]

            # breaker states ride in the unified snapshot, per shard/replica
            snapshot = gateway.unified_snapshot()
            assert set(snapshot["breakers"]) == {"0", "1"}
            for states in snapshot["breakers"].values():
                assert set(states) == {"0", "1"}
        assert deployment.fleet.leaked_processes() == []
    finally:
        JOURNAL.reset()
