"""The client half of ``repro.net``: a shard you talk to over a socket.

:class:`RemoteShardClient` implements the same surface the
:class:`~repro.cluster.gateway.ClusterGateway` consumes from an
in-process :class:`~repro.cluster.shard.PoolShard` — ``task_names`` /
``holds``, ``fetch_heads``, ``serve``, ``predict`` / ``submit_predict``
and ``cache_stats`` — by translating each call into one frame-protocol
request against a :class:`~repro.net.server.ShardServer`.  Because head
payloads travel in the same float-exact codecs the in-process boundary
already uses, a cluster running on remote shards is **bit-identical** to
one running on local shards; only the process hosting the work changes.

Thread safety: a client is safe to call from many gateway worker threads
at once.  Each request takes a pooled TCP connection exclusively (a small
idle pool, dialing extra connections under burst), so no multiplexing
state is shared between threads.

Remote errors arrive as typed ``ERROR`` frames and are re-raised locally
with the originating shard id prefixed to the message.  ``KeyError`` and
``ValueError`` keep their type across the wire because the cluster's
retry-on-rebalance contract dispatches on them; everything else becomes
:class:`RemoteShardError`.

Placement mutations travel as wire-native batch frames —
:meth:`RemoteShardClient.install_heads`, :meth:`~RemoteShardClient.drop_heads`
and :meth:`~RemoteShardClient.push_library` — each **broadcast to every
replica** of the shard (each worker owns its own pool copy), fenced by a
topology epoch and deduplicated worker-side by mutation id, so the
per-replica retry loop here may deliver duplicates freely.  The
in-process-shaped single-head methods (``install_expert`` / ``drop_expert``
/ ``refresh_library``) still raise :class:`RemoteOperationUnsupported`:
they take live objects, which do not cross a socket — the gateway
serializes from its parent pool and uses the batch frames instead.
Mutations require the server's shared auth token (sent in ``HELLO``);
without it the peer is read-only and ``"mutations"`` is absent from the
negotiated features.
"""

from __future__ import annotations

import itertools
import select
import socket
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeoutError,
    wait as futures_wait,
)
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs.trace import TRACER
from ..serving.cache import CacheStats
from ..serving.canonical import TaskQuery, canonical_tasks
from ..serving.gateway import PredictionResponse, Served
from .frame import (
    Buffer,
    CODEC_BINARY,
    CODEC_JSON,
    FEATURE_MUTATIONS,
    FEATURE_TRACE,
    FrameDecoder,
    FrameError,
    IDEMPOTENT_MSG_TYPES,
    MessageAssembler,
    MsgType,
    PROTOCOL_VERSION,
    SUPPORTED_FEATURES,
    codec_for_transport,
    encode_buffers,
    json_payload,
    pack_body_parts,
    parse_json,
    parse_served,
    payload_digest,
    send_buffers,
    serve_request,
    unpack_body,
)
from .retry import (
    BreakerOpenError,
    CircuitBreaker,
    HedgePolicy,
    LatencyTracker,
    RETRYABLE_EXCEPTIONS,
    RetryPolicy,
    ShardDrainingError,
    StaleEpochError,
)

__all__ = [
    "RemoteShardClient",
    "RemoteShardError",
    "RemoteOperationUnsupported",
    "prediction_response_from_body",
]

#: Exception types that keep their identity across the wire (the cluster's
#: replan-and-retry contract dispatches on KeyError specifically, and the
#: failover path on ShardDrainingError).
_WIRE_EXCEPTIONS = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "RuntimeError": RuntimeError,
    "FrameError": FrameError,
    "ShardDrainingError": ShardDrainingError,
    # mutation-path rejections: fencing (never retry) and auth (read-only peer)
    "StaleEpochError": StaleEpochError,
    "PermissionError": PermissionError,
}


class RemoteShardError(RuntimeError):
    """A shard worker failed in a way with no local exception equivalent."""

    def __init__(self, message: str, shard_id: Optional[int] = None) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class RemoteOperationUnsupported(RuntimeError):
    """The remote worker cannot perform the requested mutation.

    Raised by the in-process-shaped signatures (live objects do not
    cross a socket — use the serialized batch frames instead) and by the
    gateway when a worker did not negotiate the ``"mutations"`` feature
    (old server, or this client holds no auth token).
    """


def raise_remote_error(info: Dict) -> None:
    """Re-raise a decoded ``ERROR`` payload with its shard id attached."""
    shard_id = info.get("shard_id")
    prefix = f"[shard {shard_id}] " if shard_id is not None else ""
    message = f"{prefix}{info.get('message', 'remote failure')}"
    exc_type = _WIRE_EXCEPTIONS.get(info.get("type", ""))
    if exc_type is not None:
        raise exc_type(message)
    raise RemoteShardError(
        f"{message} (remote type {info.get('type', '?')})", shard_id=shard_id
    )


def prediction_response_from_body(meta: Dict, blob: bytes) -> PredictionResponse:
    """Rebuild a :class:`PredictionResponse` from a ``PREDICTED`` body."""
    # .copy(): frombuffer over received bytes is read-only, but in-process
    # shards hand out writable arrays — the backends must not diverge
    class_ids = (
        np.frombuffer(blob, dtype=meta["dtype"]).reshape(meta["shape"]).copy()
    )
    return PredictionResponse(
        class_ids=class_ids,
        tasks=tuple(meta["tasks"]),
        batch_size=int(meta["batch_size"]),
        queue_seconds=float(meta["queue_seconds"]),
        service_seconds=float(meta["service_seconds"]),
        model_cache_hit=bool(meta["model_cache_hit"]),
        trunk_cache_hit=bool(meta["trunk_cache_hit"]),
        coalesced=bool(meta["coalesced"]),
        result_cache_hit=bool(meta["result_cache_hit"]),
    )


class _SyncChannel:
    """One handshaken TCP connection, used by one request at a time."""

    _ids = itertools.count(1)

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float,
        auth_token: Optional[str] = None,
    ) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._timeout = timeout  # the value the socket is armed with
        self._decoder = FrameDecoder()
        # one request in flight per channel, so one partial message max;
        # the assembler still caps the reassembled response size
        self._assembler = MessageAssembler(max_partial_messages=1)
        self.dirty = False
        # stamped by the pooling client: channels dialed before a replica
        # was replaced (respawn) must not be re-pooled afterwards
        self.generation = 0
        hello: Dict[str, object] = {
            "protocol": PROTOCOL_VERSION,
            "features": list(SUPPORTED_FEATURES),
        }
        if auth_token is not None:
            hello["auth"] = auth_token
        try:
            msg_type, _codec, payload = self.request(
                MsgType.HELLO, (json_payload(hello),)
            )
            if msg_type != MsgType.HELLO_OK:
                raise FrameError(f"handshake got unexpected message type {msg_type}")
            self.info = parse_json(payload)
        except BaseException:
            # a failed handshake (ERROR reply, version mismatch, draining
            # server) has no owner to close the socket — do it here
            self.close()
            raise

    def request(
        self,
        msg_type: int,
        parts: Sequence[Buffer],
        codec: int = CODEC_JSON,
        timeout: Optional[float] = None,
    ) -> Tuple[int, int, bytes]:
        """Send one message, block for its response message.

        The message payload is the concatenation of ``parts``, which go to
        ``sendmsg`` as the objects given (see :func:`encode_buffers`).
        Returns ``(msg_type, codec, payload)`` — ``payload`` is the response
        frame's own receive buffer (``bytes`` when reassembled from chunks),
        never reused by a later request; an ``ERROR`` response is raised
        through :func:`raise_remote_error`.  The channel carries one
        request at a time, so every incoming frame belongs to it.
        ``self.dirty`` stays True until a complete response message was
        consumed off the stream — a channel that raised while dirty has
        undefined buffered state and must be closed, never re-pooled.
        ``timeout`` (when given) bounds this one request — the per-op
        deadline from the client's :class:`~repro.net.retry.RetryPolicy`.
        """
        if timeout is not None and timeout != self._timeout:
            self.sock.settimeout(timeout)
            self._timeout = timeout
        self.dirty = True
        request_id = next(self._ids)
        sock, decoder = self.sock, self._decoder
        for buffers in encode_buffers(msg_type, request_id, parts, codec):
            send_buffers(sock, buffers)
        while True:
            # the kernel writes straight into the header / the payload's own
            # buffer; nothing is buffered or copied on this side of recv
            count = sock.recv_into(decoder.writable())
            if not count:
                raise ConnectionError("shard connection closed mid-response")
            frame = decoder.received(count)
            if frame is None:
                continue
            if frame.request_id != request_id:
                raise FrameError(
                    f"response for request {frame.request_id} on a channel "
                    f"awaiting request {request_id}"
                )
            message = self._assembler.add(frame)
            if message is None:
                continue
            response_type, response_codec, _rid, body = message
            self.dirty = False  # full message consumed: stream is clean
            if response_type == MsgType.ERROR:
                raise_remote_error(parse_json(body))
            return response_type, response_codec, body

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


class _ReplicaEndpoint:
    """One replica's address, idle-channel pool, and circuit breaker."""

    def __init__(
        self, replica_id: int, address: Tuple[str, int], breaker: CircuitBreaker
    ) -> None:
        self.replica_id = replica_id
        self.address = (address[0], int(address[1]))
        self.breaker = breaker
        self.idle: List[_SyncChannel] = []
        # bumped on replace(): channels from older generations are corpses
        self.generation = 0


def _swallow_future(future: "Future") -> None:
    """Done-callback for hedge losers: consume the exception, if any."""
    if not future.cancelled():
        future.exception()


class RemoteShardClient:
    """A :class:`~repro.cluster.shard.PoolShard` look-alike over TCP.

    ``address`` is either one ``(host, port)`` pair (a lone worker — the
    pre-replica construction, unchanged) or a list of pairs, one per
    replica of the same shard.  With multiple replicas the client fails
    idempotent requests over on connection errors/timeouts, keeps a
    :class:`~repro.net.retry.CircuitBreaker` per replica, and — when the
    :class:`~repro.net.retry.HedgePolicy` allows — hedges slow reads
    against a sibling, taking the first answer.
    """

    def __init__(
        self,
        address: Union[Tuple[str, int], Sequence[Tuple[str, int]]],
        connections: int = 2,
        timeout: float = 120.0,
        metrics=None,
        retry: Optional[RetryPolicy] = None,
        hedge: Optional[HedgePolicy] = None,
        auth_token: Optional[str] = None,
    ) -> None:
        if address and isinstance(address[0], str):
            addresses = [address]  # single (host, port) pair
        else:
            addresses = list(address)
        if not addresses:
            raise ValueError("RemoteShardClient needs at least one address")
        self.timeout = timeout
        self.metrics = metrics
        self.auth_token = auth_token
        # replica_id -> last epoch acknowledged by that replica's worker
        # (fed by mutation acks; the snapshot's epoch-skew gauge reads it)
        self._replica_epochs: Dict[int, int] = {}
        self.retry = retry or RetryPolicy()
        self.hedge = hedge or HedgePolicy()
        self._latency = LatencyTracker()
        self._replicas = [
            _ReplicaEndpoint(i, addr, CircuitBreaker())
            for i, addr in enumerate(addresses)
        ]
        self._max_idle = max(1, connections)
        self._pool_lock = threading.Lock()
        self._info: Optional[Dict] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._hedge_executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        """The primary replica's address (pre-replica callers use this)."""
        return self._replicas[0].address

    @property
    def replica_count(self) -> int:
        return len(self._replicas)

    def breaker_states(self) -> Dict[int, str]:
        """Circuit-breaker state per replica (for the unified snapshot)."""
        return {ep.replica_id: ep.breaker.state for ep in self._replicas}

    def replace_replica(self, replica_id: int, address: Tuple[str, int]) -> None:
        """Repoint one replica slot after a respawn: new address, clean pool.

        Idle channels of the old generation are corpses (their worker is
        gone) and are closed; in-flight requests on them fail and follow
        the normal failover path.  The breaker resets so the fresh worker
        gets traffic immediately.
        """
        endpoint = self._replicas[replica_id]
        with self._pool_lock:
            endpoint.address = (address[0], int(address[1]))
            endpoint.generation += 1
            idle, endpoint.idle = endpoint.idle, []
            if replica_id == 0:
                self._info = None  # primary identity (pid) changed
            # the fresh fork starts at epoch 0 with current state; its
            # real epoch is unknown until the next mutation ack
            self._replica_epochs.pop(replica_id, None)
        for channel in idle:
            channel.close()
        endpoint.breaker.reset()

    # ------------------------------------------------------------------
    # Connection pool (per replica endpoint)
    # ------------------------------------------------------------------
    @staticmethod
    def _channel_alive(channel: _SyncChannel) -> bool:
        """Cheap liveness probe before reusing a pooled channel.

        A healthy idle channel has nothing to read.  A readable one holds
        EOF or unsolicited bytes — the worker died or the stream is
        corrupt: evict instead of poisoning the next request (any error
        probing says the same).  One zero-timeout ``poll`` is the whole
        probe, and it leaves the socket's timeout alone: any event —
        ``POLLIN``, or the ``POLLERR``/``POLLHUP``/``POLLNVAL`` the kernel
        reports unasked — means dead.  Not ``select.select``, which raises
        for descriptors >= ``FD_SETSIZE`` (1024) and so would call every
        channel of a descriptor-heavy process dead.  Not
        ``recv(1, MSG_PEEK | MSG_DONTWAIT)``: on a socket with a
        Python-level timeout CPython first polls for readability, so on a
        healthy (silent) channel that probe blocks for the whole timeout.
        """
        try:
            probe = select.poll()
            probe.register(channel.sock, select.POLLIN)
            return not probe.poll(0)
        except (OSError, ValueError):  # closed socket (fileno() is -1): redial
            return False

    def _acquire(self, endpoint: _ReplicaEndpoint) -> _SyncChannel:
        while True:
            with self._pool_lock:
                if self._closed:
                    raise RuntimeError("remote shard client is closed")
                channel = endpoint.idle.pop() if endpoint.idle else None
            if channel is None:
                break
            if channel.generation == endpoint.generation and self._channel_alive(
                channel
            ):
                return channel
            channel.close()  # corpse (dead worker or stale generation)
        with self._pool_lock:
            address, generation = endpoint.address, endpoint.generation
        channel = _SyncChannel(address, self.timeout, auth_token=self.auth_token)
        channel.generation = generation
        with self._pool_lock:
            if self._info is None and endpoint.replica_id == 0:
                self._info = channel.info
        return channel

    def _release(self, endpoint: _ReplicaEndpoint, channel: _SyncChannel) -> None:
        with self._pool_lock:
            if (
                not self._closed
                and channel.generation == endpoint.generation
                and len(endpoint.idle) < self._max_idle
            ):
                endpoint.idle.append(channel)
                return
        channel.close()

    # ------------------------------------------------------------------
    # Requests: one attempt, then the retry/failover/hedge layers
    # ------------------------------------------------------------------
    def _request_on(
        self,
        endpoint: _ReplicaEndpoint,
        msg_type: int,
        parts: Sequence[Buffer],
        codec: int,
        timeout: float,
    ) -> Tuple[int, int, bytes]:
        """One delivery attempt against one replica; feeds its breaker."""
        channel = self._acquire(endpoint)
        start = perf_counter()
        try:
            response = channel.request(msg_type, parts, codec, timeout=timeout)
        except BaseException as error:
            if channel.dirty:
                # mid-stream failure (socket error, corrupt frame, local
                # interrupt): buffered state is undefined, drop the channel
                channel.close()
            else:
                # a complete (typed ERROR) response was consumed: clean
                self._release(endpoint, channel)
            # transport-level failures (and drain rejections) count
            # against the replica; typed application errors prove the
            # replica is healthy
            if isinstance(error, RETRYABLE_EXCEPTIONS):
                endpoint.breaker.record_failure()
            else:
                endpoint.breaker.record_success()
            raise
        else:
            self._release(endpoint, channel)
        endpoint.breaker.record_success()
        elapsed = perf_counter() - start
        if len(self._replicas) > 1:  # the samples feed only the hedge delay
            self._latency.observe(elapsed)
        if self.metrics is not None:
            self.metrics.observe("net_roundtrip", elapsed)  # its count: the requests
            self.metrics.increment("net_bytes_tx", sum(map(len, parts)))
            self.metrics.increment("net_bytes_rx", len(response[2]))
        return response

    def _pick_endpoint(
        self, offset: int = 0, exclude: Optional[_ReplicaEndpoint] = None
    ) -> Optional[_ReplicaEndpoint]:
        """First replica (rotated by ``offset``) whose breaker admits us."""
        count = len(self._replicas)
        for step in range(count):
            endpoint = self._replicas[(offset + step) % count]
            if endpoint is exclude:
                continue
            if endpoint.breaker.allow():
                return endpoint
        return None

    def _request(
        self, msg_type: int, parts: Sequence[Buffer], codec: int = CODEC_JSON
    ) -> Tuple[int, int, bytes]:
        timeout = self.retry.timeout_for(msg_type)
        if (
            self.hedge.enabled
            and len(self._replicas) > 1
            and msg_type in IDEMPOTENT_MSG_TYPES
        ):
            return self._hedged_request(msg_type, parts, codec, timeout)
        attempts = self.retry.attempts_for(msg_type)
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            endpoint = self._pick_endpoint(attempt)
            if endpoint is None:
                if last_error is not None:
                    raise last_error
                raise BreakerOpenError(
                    f"all {len(self._replicas)} replica breakers are open"
                )
            try:
                return self._request_on(endpoint, msg_type, parts, codec, timeout)
            except BaseException as error:
                last_error = error
                if attempt + 1 >= attempts or not self.retry.retryable(
                    msg_type, error
                ):
                    raise
                if self.metrics is not None:
                    self.metrics.increment("net_retries")
                time.sleep(self.retry.backoff(attempt + 1))
        raise last_error  # pragma: no cover - loop always returns or raises

    def _hedged_request(
        self, msg_type: int, parts: Sequence[Buffer], codec: int, timeout: float
    ) -> Tuple[int, int, bytes]:
        """First answer wins: primary attempt, sibling hedge after a delay.

        The hedge fires once the primary has been in flight longer than
        the policy's trailing-quantile delay.  The loser keeps running on
        its own thread and releases its channel normally — there is no
        wire-level cancel — but its result (or error) is discarded.
        """
        primary = self._pick_endpoint(0)
        if primary is None:
            raise BreakerOpenError(
                f"all {len(self._replicas)} replica breakers are open"
            )
        executor = self._ensure_hedge_executor()
        first = executor.submit(
            self._request_on, primary, msg_type, parts, codec, timeout
        )
        try:
            return first.result(timeout=self._latency.hedge_delay(self.hedge))
        except FutureTimeoutError:
            pass  # primary is slow: hedge below
        except BaseException as error:
            # primary failed fast — this is failover, not hedging
            if not self.retry.retryable(msg_type, error):
                raise
            sibling = self._pick_endpoint(1, exclude=primary)
            if sibling is None:
                raise
            if self.metrics is not None:
                self.metrics.increment("net_failovers")
            return self._request_on(sibling, msg_type, parts, codec, timeout)
        if self.metrics is not None:
            self.metrics.increment("hedge_fired")
        sibling = self._pick_endpoint(1, exclude=primary)
        if sibling is None:
            return first.result(timeout=timeout)
        second = executor.submit(
            self._request_on, sibling, msg_type, parts, codec, timeout
        )
        hedges = {second}
        pending = {first, second}
        deadline = time.monotonic() + timeout
        last_error: Optional[BaseException] = None
        while pending:
            done, pending = futures_wait(
                pending,
                timeout=max(0.0, deadline - time.monotonic()),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                for future in pending:
                    future.cancel()
                    future.add_done_callback(_swallow_future)
                raise TimeoutError(
                    f"hedged request (msg type {msg_type}) missed its "
                    f"{timeout:.0f}s deadline on both replicas"
                )
            for future in done:
                try:
                    result = future.result()
                except BaseException as error:
                    last_error = error
                    continue
                if future in hedges and self.metrics is not None:
                    self.metrics.increment("hedge_won")
                for loser in pending:
                    loser.cancel()
                    loser.add_done_callback(_swallow_future)
                return result
        assert last_error is not None  # both attempts failed
        raise last_error

    # ------------------------------------------------------------------
    # PoolShard surface
    # ------------------------------------------------------------------
    @property
    def info(self) -> Dict:
        if self._info is None:
            primary = self._replicas[0]
            # dial once for the handshake info
            self._release(primary, self._acquire(primary))
        assert self._info is not None
        return self._info

    @property
    def shard_id(self) -> int:
        return int(self.info["shard_id"])

    @property
    def worker_pid(self) -> int:
        return int(self.info["pid"])

    def task_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.info["tasks"]))

    def holds(self, task: str) -> bool:
        return task in self.info["tasks"]

    def local_snapshot(self, names) -> None:
        """Remote shards have no in-process head references (see gateway)."""
        return None

    def is_remote(self) -> bool:
        """Capability probe: this shard lives behind a socket."""
        return True

    def ping(self) -> float:
        """Health probe: one PING round trip, returns its latency."""
        start = perf_counter()
        self._request(MsgType.PING, ())
        return perf_counter() - start

    def fetch_heads(self, names: Sequence[str], transport: str = "raw+zlib") -> bytes:
        # client-side span only: HEADS responses are raw payload codecs
        # with no meta header to carry server-side spans (see frame.py)
        with TRACER.span("net.fetch_heads", {"heads": len(names)}):
            _msg, codec, payload = self._request(
                MsgType.FETCH_HEADS,
                (json_payload({"names": list(names), "transport": transport}),),
            )
            if codec != codec_for_transport(transport):
                raise FrameError(
                    f"HEADS response advertised codec {codec}, expected "
                    f"{codec_for_transport(transport)} for transport {transport!r}"
                )
            # the one copy (a no-op for a chunked message, already joined)
            return bytes(payload)

    def _trace_ctx(self) -> Optional[Dict[str, str]]:
        """Wire trace context, only when tracing is live AND negotiated.

        ``inject()`` is checked first so untraced requests never pay the
        (possibly dialing) ``info`` lookup; a peer that didn't negotiate
        ``"trace"`` (an older server) gets no trace key at all.
        """
        ctx = TRACER.inject()
        if ctx is None:
            return None
        if FEATURE_TRACE not in (self.info.get("features") or ()):
            return None
        return ctx

    def serve(self, tasks: TaskQuery, transport: str = "float32") -> Served:
        """One ``SERVE``: the payload (a view into the receive buffer) and
        what the worker's tiers did.  The worker canonicalizes, so a tuple
        of names (what a front end relays) goes as it is."""
        with TRACER.span("net.serve", {"shard": self.address[1]}):
            names = tasks if isinstance(tasks, tuple) else canonical_tasks(tasks)
            request = serve_request(names, transport, self._trace_ctx())
            _msg, _codec, payload = self._request(MsgType.SERVE, (request,))
            hit, coalesced, versions, spans, blob = parse_served(payload)
            if spans:
                TRACER.attach(spans)
            return Served((blob,), hit, coalesced, versions)

    def predict(self, images: np.ndarray, tasks: TaskQuery) -> PredictionResponse:
        images = np.ascontiguousarray(images, dtype=np.float32)
        with TRACER.span("net.predict", {"shard": self.address[1]}):
            request: Dict[str, object] = {
                "tasks": list(canonical_tasks(tasks)),
                "dtype": str(images.dtype),
                "shape": list(images.shape),
            }
            ctx = self._trace_ctx()
            if ctx is not None:
                request["trace"] = ctx
            # the batch goes to sendmsg as a byte view of the array: no copy
            body = pack_body_parts(request, memoryview(images.reshape(-1).view(np.uint8)))
            _msg, _codec, payload = self._request(MsgType.PREDICT, body, CODEC_BINARY)
            meta, blob = unpack_body(payload)
            if meta.get("trace_spans"):
                TRACER.attach(meta["trace_spans"])
            return prediction_response_from_body(meta, blob)

    def submit_predict(
        self, images: np.ndarray, tasks: TaskQuery
    ) -> "Future[PredictionResponse]":
        """Async-shaped predict: runs on the client's small dispatch pool.

        Cross-request micro-batching happens **worker-side** only for
        requests that land on the worker concurrently; the client does not
        batch.
        """
        return self._ensure_executor().submit(self.predict, images, tasks)

    def cache_stats(self) -> Dict[str, CacheStats]:
        return {
            tier: CacheStats(**fields)
            for tier, fields in self.stats()["cache_stats"].items()
        }

    def stats(self, journal_since: int = 0) -> Dict:
        """The worker's raw stats payload (cache tiers, counters, pid).

        ``journal_since`` is a cursor into the worker's event journal:
        only events with a strictly greater ``seq`` ride back under the
        payload's ``"journal"`` key (0 — the default — ships the whole
        bounded ring).  Old servers simply omit the key.
        """
        _msg, _codec, payload = self._request(
            MsgType.STATS, (json_payload({"journal_since": int(journal_since)}),)
        )
        info = parse_json(payload)
        with self._pool_lock:
            # negotiated features (and the replica id) come from the
            # handshake, not STATS — carry them over so tracing keeps
            # working after a stats sweep
            self._info = {
                "protocol": PROTOCOL_VERSION, "features": [], "replica": 0,
                **(self._info or {}),
                "shard_id": info["shard_id"], "tasks": info["tasks"], "pid": info["pid"],
            }
        return info

    # ------------------------------------------------------------------
    # Placement mutations: fenced, idempotent wire frames
    # ------------------------------------------------------------------
    @property
    def supports_mutations(self) -> bool:
        """Whether the worker negotiated the ``"mutations"`` feature.

        False means the peer is either a read-only server or this client
        did not present the server's auth token — either way
        the gateway must not plan mutations against this shard.
        """
        return FEATURE_MUTATIONS in (self.info.get("features") or ())

    def replica_epochs(self) -> Dict[int, int]:
        """Last acknowledged topology epoch per replica (mutation acks)."""
        with self._pool_lock:
            return dict(self._replica_epochs)

    def _mutate_replica(
        self,
        endpoint: _ReplicaEndpoint,
        msg_type: int,
        parts: Sequence[Buffer],
        codec: int,
        deadline: float,
    ) -> Dict:
        """Deliver one mutation to one replica, retrying until ``deadline``.

        Deliberately *not* ``_request``: mutations never hedge and never
        fail over (every replica must apply), and they ignore the breaker
        — a replica mid-respawn is exactly the one we must keep trying,
        because ``replace_replica`` repoints ``endpoint.address`` under
        us and the next dial reaches the fresh worker.  Duplicates are
        safe: the worker's mutation-id journal answers them as replays.
        """
        timeout = self.retry.timeout_for(msg_type)
        attempt = 0
        while True:
            try:
                _msg, _codec, body = self._request_on(
                    endpoint, msg_type, parts, codec, timeout
                )
            except BaseException as error:
                if not self.retry.retryable(msg_type, error):
                    raise
                if time.monotonic() >= deadline:
                    raise
                if self.metrics is not None:
                    self.metrics.increment("net_retries")
                attempt += 1
                # floor the sleep: the common failure here is a SIGKILLed
                # worker whose respawn takes ~1s — pure jittered backoff
                # from zero would burn attempts into a dead address
                time.sleep(min(0.2 + self.retry.backoff(attempt), 1.0))
                continue
            ack = parse_json(body)
            with self._pool_lock:
                self._replica_epochs[endpoint.replica_id] = int(
                    ack.get("epoch", 0)
                )
            if ack.get("replayed") and self.metrics is not None:
                self.metrics.increment("net_mutation_replays")
            return ack

    def _broadcast_mutation(
        self,
        msg_type: int,
        parts: Sequence[Buffer],
        codec: int = CODEC_JSON,
        deadline_seconds: float = 60.0,
    ) -> List[Dict]:
        """Apply one mutation on **every** replica of this shard.

        Reads pick any replica; mutations must land on all of them (each
        worker owns a full pool copy).  Raises on the first replica that
        cannot be reached within the deadline — the caller (the gateway's
        two-phase plan) treats that as a failed prepare.
        """
        deadline = time.monotonic() + deadline_seconds
        return [
            self._mutate_replica(endpoint, msg_type, parts, codec, deadline)
            for endpoint in list(self._replicas)
        ]

    def install_heads(
        self, payload: bytes, *, epoch: int, mutation_id: str
    ) -> List[Dict]:
        """Install serialized expert heads on every replica (INSTALL_HEADS).

        ``payload`` is ``serialize_expert_heads`` output.  Returns one ack
        dict per replica.
        """
        return self._broadcast_payload(MsgType.INSTALL_HEADS, payload, epoch, mutation_id)

    def drop_heads(
        self, names: Sequence[str], *, epoch: int, mutation_id: str
    ) -> List[Dict]:
        """Drop named heads on every replica (DROP_HEADS).

        An empty ``names`` list is a pure epoch fence: workers advance
        their epoch without touching the pool — the commit broadcast of a
        two-phase rebalance uses this to fence shards that moved nothing.
        """
        body = json_payload(
            {
                "mutation_id": str(mutation_id),
                "epoch": int(epoch),
                "names": list(names),
            }
        )
        return self._broadcast_mutation(MsgType.DROP_HEADS, (body,))

    def push_library(
        self, payload: bytes, *, epoch: int, mutation_id: str
    ) -> List[Dict]:
        """Replace the library trunk on every replica (REFRESH_LIBRARY)."""
        return self._broadcast_payload(MsgType.REFRESH_LIBRARY, payload, epoch, mutation_id)

    def _broadcast_payload(self, msg_type: int, payload: bytes, epoch, mutation_id) -> List[Dict]:
        """A payload-carrying mutation: the payload's blake2b digest rides
        in its meta, so a worker never applies a corrupted payload."""
        meta = {
            "mutation_id": str(mutation_id),
            "epoch": int(epoch),
            "digest": payload_digest(payload),
        }
        return self._broadcast_mutation(msg_type, pack_body_parts(meta, payload), CODEC_BINARY)

    # ------------------------------------------------------------------
    # In-process-shaped mutation signatures: still unsupported — they
    # take live objects, which do not cross a socket.  The gateway
    # serializes from its parent pool and calls the batch frames above.
    # ------------------------------------------------------------------
    def install_expert(self, name: str, head, version: int) -> None:
        raise RemoteOperationUnsupported(
            f"install_expert({name!r}) takes a live head object; remote "
            "shards install serialized payloads via install_heads()"
        )

    def drop_expert(self, name: str) -> None:
        raise RemoteOperationUnsupported(
            f"drop_expert({name!r}) is the in-process signature; remote "
            "shards drop heads via the fenced drop_heads() frame"
        )

    def refresh_library(self, library, library_student, version: int) -> None:
        raise RemoteOperationUnsupported(
            "refresh_library takes live trunk objects; remote shards "
            "install serialized library state via push_library()"
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        orphans: List[_SyncChannel] = []
        with self._pool_lock:
            self._closed = True
            for endpoint in self._replicas:
                orphans.extend(endpoint.idle)
                endpoint.idle = []
        for channel in orphans:
            channel.close()
        with self._executor_lock:
            executors = (self._executor, self._hedge_executor)
            self._executor = self._hedge_executor = None
        for executor in executors:
            if executor is not None:
                executor.shutdown(wait=True)

    def __enter__(self) -> "RemoteShardClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def drain_address(address: Tuple[str, int], timeout: float = 20.0) -> None:
        """Ask the worker at ``address`` to drain and wait for DRAINED."""
        channel = _SyncChannel(address, timeout)
        try:
            msg_type, _codec, _payload = channel.request(MsgType.DRAIN, (json_payload({}),))
            if msg_type != MsgType.DRAINED:
                raise FrameError(f"drain got unexpected message type {msg_type}")
        finally:
            channel.close()

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._closed:
                raise RuntimeError("remote shard client is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_idle, thread_name_prefix="poe-net-predict"
                )
            return self._executor

    def _ensure_hedge_executor(self) -> ThreadPoolExecutor:
        # deliberately separate from the submit_predict pool: a hedged
        # request issued *from* that pool would deadlock waiting for a
        # worker slot its own caller occupies
        with self._executor_lock:
            if self._closed:
                raise RuntimeError("remote shard client is closed")
            if self._hedge_executor is None:
                self._hedge_executor = ThreadPoolExecutor(
                    max_workers=max(4, 2 * len(self._replicas)),
                    thread_name_prefix="poe-net-hedge",
                )
            return self._hedge_executor

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RemoteShardClient(address={self.address}, "
            f"replicas={len(self._replicas)})"
        )
