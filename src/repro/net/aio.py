"""Asyncio transport for networked clusters: multiplexed, streaming I/O.

The thread-pool path (:class:`~repro.net.client.RemoteShardClient`) holds
one connection per in-flight request; under high fan-out that costs a
thread *and* a socket per concurrent call.  This module is the event-loop
alternative the ROADMAP's "async transport" item asks for:

* :class:`AsyncShardChannel` — one connection carrying **many** requests
  at once, matched to responses by request id.  Large responses arrive as
  chunked frames (the server interleaves them between other responses),
  so a small serve is never stuck behind a big head payload on the same
  connection.
* :class:`AsyncShardPool` — ``connections_per_shard`` channels per shard,
  round-robin, opened lazily inside the loop.
* :class:`AsyncClusterTransport` — a background event-loop thread exposed
  through :meth:`submit`, the drop-in alternative to
  :class:`~repro.cluster.gateway.ClusterGateway.submit`'s thread-pool
  executor (the gateway delegates when its ``async_transport`` attribute
  is set, which :class:`~repro.net.server.NetworkedCluster` does for
  ``async_transport=True``).  It holds only what awaits the wire: a
  single-shard query is forwarded to the owning worker, a cross-shard
  miss fetches its missing heads from every shard **concurrently** and
  hands them to the front tier's build, which runs in the loop's default
  executor, so the loop never blocks on CPU work nor the build on a shard.
  Accounting, the replan rule, tiers and responses are the cluster's.

Concurrency notes: all channel state lives on the loop thread; the
cluster caches and metrics the coroutines touch are the same thread-safe
objects the sync path uses, so both transports can run side by side.
Followers of an in-flight cross-shard build await an asyncio future per
payload key — the one step of the pipeline kept here, because the front
tier's :class:`~repro.serving.gateway.SingleFlight` would park each of
them on an executor thread.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import Future
from functools import partial
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..cluster.gateway import Heads, _tag_shard_error
from ..obs.trace import TRACER
from ..serving.canonical import TaskQuery, payload_key
from ..serving.gateway import GatewayResponse, _Request
from .client import gateway_response_from_body, raise_remote_error
from .frame import (
    CODEC_JSON,
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
    parse_json,
    unpack_body,
)
from .retry import (
    BreakerOpenError,
    CircuitBreaker,
    HedgePolicy,
    LatencyTracker,
    RETRYABLE_EXCEPTIONS,
    RetryPolicy,
)

__all__ = [
    "AsyncShardChannel",
    "AsyncShardPool",
    "AsyncReplicaGroup",
    "AsyncClusterTransport",
]


class AsyncShardChannel:
    """One multiplexed connection to a shard worker (loop-thread only)."""

    _ids = itertools.count(1)

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float = 120.0,
        auth_token: Optional[str] = None,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.auth_token = auth_token
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, "asyncio.Future"] = {}
        self._reader_task: Optional["asyncio.Task"] = None
        self.info: Dict = {}
        #: True once the read loop exited (connection dead) or close() ran;
        #: the pool evicts closed channels instead of round-robining onto
        #: a connection no reader will ever answer on.
        self.closed = False

    async def open(self) -> None:
        # bounded like the sync client's socket timeout: a worker that
        # accepts but never answers must not wedge the event loop's traffic
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(*self.address), self.timeout
        )
        self._reader_task = asyncio.ensure_future(self._read_loop())
        hello: Dict[str, object] = {
            "protocol": PROTOCOL_VERSION,
            "features": list(SUPPORTED_FEATURES),
        }
        if self.auth_token is not None:
            hello["auth"] = self.auth_token
        try:
            msg_type, _codec, payload = await self.request(
                MsgType.HELLO, json_payload(hello)
            )
            if msg_type != MsgType.HELLO_OK:
                raise FrameError(f"handshake got unexpected message type {msg_type}")
        except BaseException:
            # failed or cancelled (a hedge loser) mid-handshake: no pool holds
            # this channel yet, so nothing else would ever close it
            self._reader_task.cancel()
            self._writer.close()
            raise
        self.info = parse_json(payload)

    async def request(
        self,
        msg_type: int,
        payload: bytes,
        codec: int = CODEC_JSON,
        timeout: Optional[float] = None,
    ) -> Tuple[int, int, bytes]:
        """Send one message; await its (reassembled) response message.

        ``timeout`` overrides the channel default for this one request
        (the per-op deadline from a :class:`~repro.net.retry.RetryPolicy`).
        """
        if self._writer is None or self.closed:
            raise ConnectionError("channel is not open")
        bound = self.timeout if timeout is None else timeout
        request_id = next(self._ids)
        future: "asyncio.Future" = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        # no await between writes: the message's frames hit the transport
        # buffer contiguously, so concurrent requests cannot interleave
        # *requests* (responses interleave server-side, by design)
        for buffers in encode_buffers(msg_type, request_id, (payload,), codec):
            self._writer.writelines(buffers)
        try:
            await asyncio.wait_for(self._writer.drain(), bound)
            response_type, response_codec, body = await asyncio.wait_for(
                future, bound
            )
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            raise ConnectionError(
                f"shard at {self.address} did not answer within "
                f"{bound:.0f}s"
            ) from None
        if response_type == MsgType.ERROR:
            raise_remote_error(parse_json(body))
        return response_type, response_codec, body

    async def _read_loop(self) -> None:
        assert self._reader is not None
        decoder = FrameDecoder()
        # multiplexed channel: many legitimate partials at once, but each
        # reassembled message stays under the payload cap
        assembler = MessageAssembler(max_partial_messages=65536)
        error: BaseException = ConnectionError("shard connection closed")
        try:
            while True:
                data = await self._reader.read(1 << 16)
                if not data:
                    break
                for frame in decoder.feed(data):
                    # feed the assembler even for abandoned requests (e.g.
                    # a timed-out caller popped its pending entry): the
                    # terminal frame then clears the partial state instead
                    # of leaking it for the connection's lifetime
                    message = assembler.add(frame)
                    if message is None:
                        continue
                    msg_type, codec, request_id, body = message
                    future = self._pending.pop(request_id, None)
                    if future is not None and not future.done():
                        future.set_result((msg_type, codec, body))
        except (OSError, FrameError) as caught:
            error = caught
        except asyncio.CancelledError:
            error = ConnectionError("channel closed")
        self.closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)
        # the pool drops a closed channel from its rotation without calling
        # close(): release the socket here, not at garbage collection
        self._writer.close()

    async def close(self) -> None:
        self.closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001 - teardown
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (OSError, ConnectionError):  # pragma: no cover
                pass


class AsyncShardPool:
    """Round-robin over up to ``size`` channels to one shard replica.

    ``address`` may be a static ``(host, port)`` pair or a zero-argument
    callable returning one — the callable form re-resolves on every dial,
    so a replica respawned at a new port is picked up as soon as its dead
    channels are evicted from the rotation.
    """

    def __init__(
        self,
        address,
        size: int = 2,
        timeout: float = 120.0,
        auth_token: Optional[str] = None,
    ) -> None:
        self._address = address
        self.size = max(1, size)
        self.timeout = timeout
        self.auth_token = auth_token
        self._channels: List[AsyncShardChannel] = []
        self._cursor = 0
        self._lock = asyncio.Lock()

    @property
    def address(self) -> Tuple[str, int]:
        return self._address() if callable(self._address) else self._address

    async def channel(self) -> AsyncShardChannel:
        async with self._lock:
            # evict dead channels first: one transient reset must not leave
            # a corpse in the rotation soaking up requests until timeout
            self._channels = [c for c in self._channels if not c.closed]
            if len(self._channels) < self.size:
                # dialing under the lock serializes ramp-up, but open() is
                # timeout-bounded, so a dead worker delays — never wedges —
                # traffic to this shard
                channel = AsyncShardChannel(
                    self.address, self.timeout, auth_token=self.auth_token
                )
                await channel.open()
                self._channels.append(channel)
                return channel
            self._cursor = (self._cursor + 1) % len(self._channels)
            return self._channels[self._cursor]

    async def request(
        self,
        msg_type: int,
        payload: bytes,
        codec: int = CODEC_JSON,
        timeout: Optional[float] = None,
    ) -> Tuple[int, int, bytes]:
        channel = await self.channel()
        return await channel.request(msg_type, payload, codec, timeout=timeout)

    async def close(self) -> None:
        channels, self._channels = self._channels, []
        for channel in channels:
            await channel.close()


class AsyncReplicaGroup:
    """Failover + hedging across one shard's replica pools (loop-thread).

    The asyncio mirror of the sync client's replica layer: idempotent
    requests (:data:`~repro.net.frame.IDEMPOTENT_MSG_TYPES`) fail over to
    a sibling replica on transport errors, each replica has its own
    :class:`~repro.net.retry.CircuitBreaker`, and slow reads are hedged —
    a second attempt fires on a sibling after the trailing-quantile delay
    and the first answer wins (the loser task is cancelled).
    """

    def __init__(
        self,
        shard_id: int,
        pools: List[AsyncShardPool],
        retry: RetryPolicy,
        hedge: HedgePolicy,
        metrics=None,
    ) -> None:
        self.shard_id = shard_id
        self.pools = pools
        self.retry = retry
        self.hedge = hedge
        self.metrics = metrics
        self.breakers = [CircuitBreaker() for _ in pools]
        self.latency = LatencyTracker()
        self._features: Optional[Tuple[str, ...]] = None

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.increment(name)

    async def features(self) -> Tuple[str, ...]:
        """Negotiated features of this shard (from the primary handshake)."""
        if self._features is None:
            channel = await self.pools[0].channel()
            self._features = tuple(channel.info.get("features") or ())
        return self._features

    def _pick(self, offset: int = 0, exclude: Optional[int] = None) -> Optional[int]:
        count = len(self.pools)
        for step in range(count):
            index = (offset + step) % count
            if index == exclude:
                continue
            if self.breakers[index].allow():
                return index
        return None

    async def _once(
        self, index: int, msg_type: int, payload: bytes, codec: int, timeout: float
    ) -> Tuple[int, int, bytes]:
        start = perf_counter()
        try:
            result = await self.pools[index].request(
                msg_type, payload, codec, timeout=timeout
            )
        except asyncio.CancelledError:
            raise  # a cancelled hedge loser says nothing about the replica
        except BaseException as error:
            if isinstance(error, RETRYABLE_EXCEPTIONS):
                self.breakers[index].record_failure()
            else:
                self.breakers[index].record_success()
            raise
        self.breakers[index].record_success()
        self.latency.observe(perf_counter() - start)
        return result

    async def request(
        self, msg_type: int, payload: bytes, codec: int = CODEC_JSON
    ) -> Tuple[int, int, bytes]:
        timeout = self.retry.timeout_for(msg_type)
        if (
            self.hedge.enabled
            and len(self.pools) > 1
            and msg_type in IDEMPOTENT_MSG_TYPES
        ):
            return await self._hedged(msg_type, payload, codec, timeout)
        attempts = self.retry.attempts_for(msg_type)
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            index = self._pick(attempt)
            if index is None:
                if last_error is not None:
                    raise last_error
                raise BreakerOpenError(
                    f"all {len(self.pools)} replica breakers are open "
                    f"for shard {self.shard_id}"
                )
            try:
                return await self._once(index, msg_type, payload, codec, timeout)
            except asyncio.CancelledError:
                raise
            except BaseException as error:
                last_error = error
                if attempt + 1 >= attempts or not self.retry.retryable(
                    msg_type, error
                ):
                    raise
                self._count("net_retries")
                await asyncio.sleep(self.retry.backoff(attempt + 1))
        raise last_error  # pragma: no cover - loop always returns or raises

    async def _hedged(
        self, msg_type: int, payload: bytes, codec: int, timeout: float
    ) -> Tuple[int, int, bytes]:
        primary = self._pick(0)
        if primary is None:
            raise BreakerOpenError(
                f"all {len(self.pools)} replica breakers are open "
                f"for shard {self.shard_id}"
            )
        first = asyncio.ensure_future(
            self._once(primary, msg_type, payload, codec, timeout)
        )
        try:
            return await asyncio.wait_for(
                asyncio.shield(first), self.latency.hedge_delay(self.hedge)
            )
        except asyncio.TimeoutError:
            pass  # primary is slow: hedge below
        except BaseException as error:
            # primary failed fast — failover, not hedging
            if not self.retry.retryable(msg_type, error):
                raise
            sibling = self._pick(1, exclude=primary)
            if sibling is None:
                raise
            self._count("net_failovers")
            return await self._once(sibling, msg_type, payload, codec, timeout)
        self._count("hedge_fired")
        sibling = self._pick(1, exclude=primary)
        if sibling is None:
            return await first
        second = asyncio.ensure_future(
            self._once(sibling, msg_type, payload, codec, timeout)
        )
        pending = {first, second}
        last_error: Optional[BaseException] = None
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                try:
                    result = task.result()
                except BaseException as error:
                    last_error = error
                    continue
                if task is second:
                    self._count("hedge_won")
                for loser in pending:
                    loser.cancel()
                return result
        assert last_error is not None  # both attempts failed
        raise last_error

    async def close(self) -> None:
        for pool in self.pools:
            await pool.close()


class AsyncClusterTransport:
    """Event-loop request dispatch for a networked :class:`ClusterGateway`."""

    def __init__(
        self,
        cluster,
        connections_per_shard: int = 2,
        timeout: float = 120.0,
        retry: Optional[RetryPolicy] = None,
        hedge: Optional[HedgePolicy] = None,
    ) -> None:
        self.cluster = cluster
        self._retry = retry or RetryPolicy()
        self._hedge = hedge or HedgePolicy()
        self._connections_per_shard = connections_per_shard
        self._timeout = timeout
        self._retired_groups: List[AsyncReplicaGroup] = []
        self._groups: List[AsyncReplicaGroup] = self._build_groups()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        # payload key -> in-flight build (the loop-native single flight)
        self._inflight: Dict[object, "asyncio.Future"] = {}

    def _build_groups(self) -> List[AsyncReplicaGroup]:
        groups: List[AsyncReplicaGroup] = []
        for shard_index, shard in enumerate(self.cluster.shards):
            if getattr(shard, "address", None) is None:
                raise ValueError(
                    "the async transport needs networked shards "
                    "(RemoteShardClient); in-process shards dispatch through "
                    "the cluster executor"
                )
            replica_count = getattr(shard, "replica_count", 1)
            # address *providers*, not snapshots: a respawned replica's new
            # port is re-resolved from the shard client on the next dial
            pools = [
                AsyncShardPool(
                    self._address_provider(shard, replica),
                    self._connections_per_shard,
                    self._timeout,
                    auth_token=getattr(shard, "auth_token", None),
                )
                for replica in range(replica_count)
            ]
            groups.append(
                AsyncReplicaGroup(
                    shard_index, pools, self._retry, self._hedge,
                    metrics=self.cluster.metrics,
                )
            )
        return groups

    def refresh_topology(self) -> None:
        """Re-derive replica groups from ``cluster.shards`` after a reshard.

        Pools dial lazily, so this is cheap and thread-safe: the new group
        list is swapped in atomically; superseded groups are *parked*, not
        closed — an in-flight request may still be awaiting on one of
        their channels — and are torn down with the transport (workers of
        retired shards drain their connections anyway).
        """
        self._retired_groups.extend(self._groups)
        self._groups = self._build_groups()

    @staticmethod
    def _address_provider(shard, replica: int):
        def resolve() -> Tuple[str, int]:
            addresses = getattr(shard, "addresses", None)
            if addresses is None:
                return shard.address
            return addresses[min(replica, len(addresses) - 1)]

        return resolve

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._loop is not None:
            return
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="poe-net-aio", daemon=True
        )
        self._thread.start()

    def submit(
        self, tasks: TaskQuery, transport: str = "float32"
    ) -> "Future[GatewayResponse]":
        """Dispatch one query onto the event loop; returns a future.

        The drop-in alternative to the cluster executor:
        ``run_coroutine_threadsafe`` hands back the same
        ``concurrent.futures.Future`` contract ``submit`` always had.
        """
        if self._loop is None:
            raise RuntimeError("async transport is not started")
        return asyncio.run_coroutine_threadsafe(
            self._serve(tasks, transport, perf_counter()), self._loop
        )

    def close(self) -> None:
        loop, self._loop = self._loop, None
        if loop is None:
            return
        asyncio.run_coroutine_threadsafe(self._close_pools(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        loop.close()

    async def _close_pools(self) -> None:
        for group in self._groups + self._retired_groups:
            await group.close()

    # ------------------------------------------------------------------
    # What awaits the wire.  Accounting, the replan rule, the tiers, the
    # build and the responses are the cluster's and its front tier's.
    # ------------------------------------------------------------------
    async def _serve(
        self, tasks: TaskQuery, transport: str, enqueued_at: float
    ) -> GatewayResponse:
        cluster = self.cluster
        # each submitted query is its own asyncio task with its own
        # contextvars copy, so the ambient span nests correctly even with
        # many queries in flight on the one loop
        with _Request(
            cluster._front, "cluster.serve", "requests", tasks, transport, enqueued_at
        ) as request:
            epoch = cluster._epoch
            try:
                return await self._serve_planned(request)
            except Exception as error:
                if not cluster._should_replan(error, request.names, epoch):
                    raise
            return await self._serve_planned(request)

    async def _serve_planned(self, request) -> GatewayResponse:
        cluster, names, transport = self.cluster, request.names, request.transport
        plan = cluster._route(names)
        if len(plan) == 1:
            (shard_id,) = plan
            cluster.metrics.record_shard_requests((shard_id,))
            with TRACER.span("net.serve", {"shard_id": shard_id}):
                body: Dict[str, object] = {"tasks": list(names), "transport": transport}
                group = self._groups[shard_id]
                try:
                    ctx = TRACER.inject()
                    if ctx is not None and FEATURE_TRACE in await group.features():
                        body["trace"] = ctx
                    _msg, _codec, payload = await group.request(
                        MsgType.SERVE, json_payload(body)
                    )
                except BaseException as error:
                    # same [shard N] attribution contract as the sync path
                    raise _tag_shard_error(error, shard_id)
                meta, blob = unpack_body(payload)
                if meta.get("trace_spans"):
                    TRACER.attach(meta["trace_spans"])
            return cluster._relay_served(request, gateway_response_from_body(meta, blob))

        front = cluster._front
        key = payload_key(names, transport)
        payload = front._cached_payload(key)
        if payload is not None:
            return front._served(request, payload, False, True, False)
        # The one piece of the build the loop keeps: followers of an
        # in-flight key await an asyncio future — the front tier's
        # SingleFlight would park each of them on an executor thread.
        flight = self._inflight.get(key)
        if flight is not None:
            cluster.metrics.increment("coalesced")
            payload, model_hit = await asyncio.shield(flight)
            return front._served(request, payload, model_hit, False, True)
        loop = asyncio.get_event_loop()
        flight = self._inflight[key] = loop.create_future()
        # retrieve the exception eagerly so an unawaited flight (no
        # followers) never logs "exception was never retrieved"
        flight.add_done_callback(lambda f: f.exception() if not f.cancelled() else None)
        try:
            # the build runs on an executor thread with the routed plan and
            # the heads fetched here in hand, so it goes to no shard itself
            missing = cluster._uncached_remote_heads(names, plan)
            held = None if missing is None else await self._fetch_ahead(missing)
            built = await loop.run_in_executor(
                None, front._built_payload, names, transport, key,
                partial(cluster._consolidate, plan=plan, held=held),
            )
        except BaseException as error:
            flight.set_exception(error)
            raise
        else:
            flight.set_result(built[:2])
        finally:
            self._inflight.pop(key, None)
        return front._served(request, *built)

    async def _fetch_ahead(self, missing: Dict[int, List[str]]) -> Heads:
        """Fetch ``missing`` (shard → names) from every shard at once: one
        ``fetch`` stage sample; the heads keyed ``(task, version)``.

        The build that follows takes them as already held, whatever the
        remote-head tier's budget; only a head whose version moved in
        between is fetched again, by the cluster's own gather.
        """
        cluster = self.cluster
        loop = asyncio.get_event_loop()
        fetch_transport = cluster.config.fetch_transport

        async def fetch(shard_id: int, names: List[str]) -> Heads:
            start = perf_counter()
            try:
                _msg, codec, raw = await self._groups[shard_id].request(
                    MsgType.FETCH_HEADS,
                    json_payload({"names": names, "transport": fetch_transport}),
                )
            except BaseException as error:
                # same [shard N] attribution contract as the sync path
                raise _tag_shard_error(error, shard_id)
            expected = codec_for_transport(fetch_transport)
            if codec != expected:
                raise FrameError(
                    f"HEADS response advertised codec {codec}, expected {expected}"
                )
            return await loop.run_in_executor(
                None, cluster._ingest_head_payload, names, raw, perf_counter() - start
            )

        held: Heads = {}
        with cluster.metrics.stage("fetch"):
            for fetched in await asyncio.gather(*(fetch(*item) for item in missing.items())):
                held.update(fetched)
        return held

    def __repr__(self) -> str:  # pragma: no cover
        return f"AsyncClusterTransport(shards={len(self._groups)})"
