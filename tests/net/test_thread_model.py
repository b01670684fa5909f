"""Which thread answers what: the ``ShardServer`` thread model.

A request whose answer is already in memory (``PING``, a ``SERVE`` the
payload cache holds) runs on the connection's reader thread; everything
that builds, computes or mutates runs in the request pool.  Every wait
here is on an event, a result or a socket read — no sleeps.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterGateway
from repro.cluster.shard import PoolShard
from repro.net import RemoteShardClient, ShardDrainingError, ShardServer
from repro.net.client import _SyncChannel
from repro.net.frame import (
    CODEC_BINARY,
    FrameDecoder,
    MessageAssembler,
    MsgType,
    PROTOCOL_VERSION,
    encode_message,
    json_payload,
    pack_body,
    unpack_body,
)
from repro.serving import GatewayConfig

READER, POOL = "poe-net-conn", "poe-net-req"
WAIT = 10.0  # upper bound on any single wait; never the expected duration


class _Gate:
    """Parks a shard call on the thread that runs it until released."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def park(self) -> None:
        self.entered.set()
        assert self.release.wait(WAIT), "gate was never released"


class _RecordingShard:
    """A ``PoolShard`` that notes the thread each serving call runs on."""

    def __init__(self, shard: PoolShard) -> None:
        self._shard = shard
        self.threads = []  # (operation, thread name), in call order
        self.gates = {}  # operation -> _Gate the next such call parks on

    def __getattr__(self, name):
        return getattr(self._shard, name)

    def _enter(self, operation: str) -> None:
        self.threads.append((operation, threading.current_thread().name))
        gate = self.gates.pop(operation, None)
        if gate is not None:
            gate.park()

    def ran_on(self, operation: str):
        return [thread for op, thread in self.threads if op == operation]

    def serve(self, tasks, transport="float32", found=None):
        self._enter("serve")
        return self._shard.serve(tasks, transport, found)

    def predict(self, images, tasks):
        self._enter("predict")
        return self._shard.predict(images, tasks)

    def fetch_heads(self, names, transport="raw+zlib"):
        self._enter("fetch_heads")
        return self._shard.fetch_heads(names, transport)

    def cache_stats(self):
        self._enter("stats")
        return self._shard.cache_stats()


class _RecordingServer(ShardServer):
    """Also notes the thread of requests that never reach the shard (PING)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.request_threads = []  # (message type, thread name)

    def _run_request(self, conn, write_lock, msg_type, *args) -> None:
        self.request_threads.append((msg_type, threading.current_thread().name))
        super()._run_request(conn, write_lock, msg_type, *args)


@pytest.fixture()
def served(net_pool):
    """(recording shard, task names, images, start) over one real shard."""
    pool, data = net_pool
    names = sorted(pool.expert_names())
    shard = _RecordingShard(PoolShard(0, pool, names, GatewayConfig(max_workers=2)))
    images = np.asarray(data.test.images[:4], dtype=np.float32)
    servers = []

    def start(**kwargs) -> ShardServer:
        server = _RecordingServer(shard, **kwargs)
        server.start()
        servers.append(server)
        return server

    yield shard, names, images, start
    for gate in shard.gates.values():
        gate.release.set()
    for server in servers:
        server.close()
    shard.close()


def _serve_request(tasks, transport="float32"):
    return (json_payload({"tasks": list(tasks), "transport": transport}),)


# ----------------------------------------------------------------------
# (i) who runs what
# ----------------------------------------------------------------------
def test_in_memory_requests_run_on_the_reader_the_rest_in_the_pool(served):
    shard, names, images, start = served
    server = start()
    with RemoteShardClient(server.address) as client:
        client.serve(names[:2])  # first sighting: built, not kept
        miss = client.serve(names[:2])
        hit = client.serve(names[:2])
        client.ping()
        client.predict(images, names[:2])
        client.fetch_heads(names[:1])
        client.stats()
    assert (miss.payload_cache_hit, hit.payload_cache_hit) == (False, True)
    assert hit.payload == miss.payload
    *misses, hit_thread = shard.ran_on("serve")
    assert len(misses) == 2 and all(t.startswith(POOL) for t in misses)
    assert hit_thread == READER
    (ping,) = [t for msg, t in server.request_threads if msg == MsgType.PING]
    assert ping == READER
    for operation in ("predict", "fetch_heads", "stats"):
        (thread,) = shard.ran_on(operation)
        assert thread.startswith(POOL), (operation, thread)


# ----------------------------------------------------------------------
# (ii) a hit is not queued behind pooled work on its own connection
# ----------------------------------------------------------------------
def _read_message(sock, decoder, assembler):
    while True:
        data = sock.recv(1 << 16)
        assert data, "server hung up mid-response"
        for frame in decoder.feed(data):
            message = assembler.add(frame)
            if message is not None:
                return message


def test_hit_overtakes_a_parked_predict_on_one_connection(served):
    shard, names, images, start = served
    # one pool thread: were the hit dispatched, it would wait for the predict
    server = start(request_workers=1)
    shard.serve(names[:2], "float32")  # first sighting: remembered, not kept
    expected = shard.serve(names[:2], "float32").payload  # warms the cache
    gate = shard.gates["predict"] = _Gate()
    with socket.create_connection(server.address, timeout=WAIT) as sock:
        decoder, assembler = FrameDecoder(), MessageAssembler()

        def send(request_id, msg_type, payload, codec=0):
            for chunk in encode_message(msg_type, request_id, payload, codec):
                sock.sendall(chunk)

        send(1, MsgType.HELLO, json_payload({"protocol": PROTOCOL_VERSION}))
        assert _read_message(sock, decoder, assembler)[0] == MsgType.HELLO_OK
        meta = {"tasks": names[:2], "dtype": "float32", "shape": list(images.shape)}
        send(2, MsgType.PREDICT, pack_body(meta, images.tobytes()), CODEC_BINARY)
        assert gate.entered.wait(WAIT)
        send(3, MsgType.SERVE, *_serve_request(names[:2]))
        msg_type, _codec, request_id, body = _read_message(sock, decoder, assembler)
        assert (msg_type, request_id) == (MsgType.SERVED, 3)
        assert not gate.release.is_set()  # answered while the predict is parked
        assert bytes(unpack_body(body)[1]) == expected
        gate.release.set()
        msg_type, _codec, request_id, _body = _read_message(sock, decoder, assembler)
        assert (msg_type, request_id) == (MsgType.PREDICTED, 2)


# ----------------------------------------------------------------------
# (iii) draining
# ----------------------------------------------------------------------
def test_draining_server_rejects_in_memory_requests(served):
    shard, names, _images, start = served
    server = start()
    shard.serve(names[:2], "float32")
    channel = _SyncChannel(server.address, timeout=WAIT)
    try:
        server.drain()
        with pytest.raises(ShardDrainingError):
            channel.request(MsgType.PING, ())
        with pytest.raises(ShardDrainingError):
            channel.request(MsgType.SERVE, _serve_request(names[:2]))
    finally:
        channel.close()
    assert len(shard.ran_on("serve")) == 1  # the warm-up only


def test_drain_waits_for_a_request_running_on_the_reader(served):
    shard, names, _images, start = served
    server = start()
    shard.serve(names[:2], "float32")  # first sighting: remembered, not kept
    expected = shard.serve(names[:2], "float32").payload
    gate = shard.gates["serve"] = _Gate()
    results = []
    with RemoteShardClient(server.address) as client:
        caller = threading.Thread(
            target=lambda: results.append(client.serve(names[:2]))
        )
        caller.start()
        assert gate.entered.wait(WAIT)
        assert shard.ran_on("serve")[-1] == READER
        drainer = threading.Thread(target=server.drain)
        drainer.start()
        assert server._draining.wait(WAIT)
        # the drain cannot complete under the parked request: it is counted
        assert server._inflight == 1 and not server._drained.is_set()
        gate.release.set()
        drainer.join(WAIT)
        caller.join(WAIT)
    assert not drainer.is_alive() and not caller.is_alive()
    assert server._drained.is_set() and server._inflight == 0
    assert results[0].payload == expected


# ----------------------------------------------------------------------
# (iv) one lookup: the reader's lookup is the serve's
# ----------------------------------------------------------------------
class _CountingCache:
    """A payload tier that counts its lookups: ``get`` and the stats-neutral ``contains``."""

    def __init__(self, cache) -> None:
        self._cache = cache
        self.lookups = 0

    def __getattr__(self, name):
        return getattr(self._cache, name)

    def get(self, key):
        self.lookups += 1
        return self._cache.get(key)

    def contains(self, key) -> bool:
        self.lookups += 1
        return self._cache.contains(key)


def test_a_hit_is_one_lookup_one_request_on_each_side(served):
    shard, names, _images, start = served
    server = start()
    front = ClusterGateway(
        shard.pool,
        ClusterConfig(num_shards=1, composite_payload_cache_bytes=0),
        shard_factory=lambda *_args: RemoteShardClient(server.address),
    )
    try:
        front.serve(names[:2])  # first sighting: built in the pool, not kept
        expected = front.serve(names[:2]).payload  # a kept miss
        cache = shard.gateway.payload_cache = _CountingCache(shard.gateway.payload_cache)
        before = cache.stats()
        requests = (shard.gateway.metrics.counter("requests"), front.metrics.counter("requests"))
        response = front.serve(names[:2])
        after = cache.stats()
    finally:
        front.close()
    assert response.payload_cache_hit and response.payload == expected
    assert shard.ran_on("serve")[-1] == READER
    assert cache.lookups == 1
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    assert shard.gateway.metrics.counter("requests") == requests[0] + 1
    assert front.metrics.counter("requests") == requests[1] + 1


# ----------------------------------------------------------------------
# (v) hits and misses count once
# ----------------------------------------------------------------------
def test_hot_serves_count_once_in_cache_stats_and_requests(served):
    shard, names, _images, start = served
    server = start()
    hot = 7
    with RemoteShardClient(server.address) as client:
        for _ in range(2 + hot):  # a refused miss, a kept one, then hits
            client.serve(names[:2])
    stats = shard.gateway.payload_cache.stats()
    assert (stats.hits, stats.misses) == (hot, 2)
    assert shard.gateway.metrics.snapshot()["counters"]["requests"] == 2 + hot
    assert shard.ran_on("serve")[2:] == [READER] * hot
