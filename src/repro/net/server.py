"""Shard workers behind sockets: the server half of ``repro.net``.

Three layers, innermost first:

* :class:`ShardServer` — a TCP server around one
  :class:`~repro.cluster.shard.PoolShard`.  Each connection gets a reader
  thread, which itself answers a request whose response is already in
  memory (``PING``, a ``SERVE`` the payload cache holds); everything that
  builds, computes or mutates goes to a small worker pool, so those
  requests execute concurrently and their chunked responses interleave
  on the wire (no head-of-line blocking behind a build or a big head
  payload).  Speaks the :mod:`repro.net.frame` protocol: handshake
  (``HELLO``/``HELLO_OK`` with version check), ``FETCH_HEADS``, ``SERVE``,
  ``PREDICT``, ``STATS``, ``PING`` and a graceful ``DRAIN``.
* :func:`_shard_worker_main` / :class:`ShardWorkerFleet` — the
  multiprocess deployment: one **forked worker process per shard**, each
  hosting a ``PoolShard`` + ``ShardServer`` with its own GIL.  Workers
  report readiness (their bound port) over a pipe before the fleet hands
  out clients; shutdown drains each worker over the wire and joins the
  process, escalating to ``terminate()`` only on timeout.  The fleet can
  also :meth:`~ShardWorkerFleet.retire_shard` a slot online (drain +
  join, client closed) and :meth:`~ShardWorkerFleet.update_assignment`
  so respawns fork with the *current* placement — the fleet half of
  online resharding.
* :class:`NetworkedCluster` — the one-call deployment: spawns a fleet,
  builds a :class:`~repro.cluster.gateway.ClusterGateway` whose
  ``shard_factory`` returns :class:`~repro.net.client.RemoteShardClient`\\ s,
  and tears everything down in order on ``close()``.

Worker processes are created with the ``fork`` start method so the
already-preprocessed pool is inherited copy-on-write — nothing re-trains
and expert weights are bit-identical across the process boundary.  Spawn
workers **before** serving traffic (fork duplicates only the calling
thread).  Pool mutations propagate to running workers over the wire:
``INSTALL_HEADS`` / ``DROP_HEADS`` / ``REFRESH_LIBRARY`` frames, fenced
by a topology epoch and deduplicated by mutation id, carry
re-extractions, rebalances, and online reshards without a restart (see
``docs/resharding.md``).
"""

from __future__ import annotations

import ctypes
import dataclasses
import hmac
import multiprocessing
import os
import secrets
import socket
import struct
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from contextlib import contextmanager, nullcontext, suppress

from ..cluster.gateway import ClusterConfig, ClusterGateway
from ..cluster.metrics import ClusterMetrics
from ..cluster.shard import PoolShard
from ..core.server import deserialize_expert_heads, deserialize_library_state
from ..obs.journal import JOURNAL
from ..obs.trace import TRACER
from ..serving.gateway import GatewayConfig
from .client import RemoteShardClient
from .retry import (
    DEFAULT_OP_TIMEOUTS,
    HedgePolicy,
    RetryPolicy,
    ShardDrainingError,
    StaleEpochError,
)
from .frame import (
    CODEC_BINARY,
    CODEC_JSON,
    DEFAULT_CHUNK_BYTES,
    FEATURE_MUTATIONS,
    FrameDecoder,
    FrameError,
    MessageAssembler,
    MsgType,
    PROTOCOL_VERSION,
    codec_for_transport,
    encode_buffers,
    json_payload,
    negotiate_features,
    pack_body_parts,
    parse_json,
    parse_serve_request,
    payload_digest,
    send_buffers,
    served_meta,
    unpack_body,
)

#: Upper bound on remembered mutation ids per worker.  A rebalance emits a
#: handful of mutations per shard; 1024 comfortably covers every retry
#: window while keeping the dedup journal O(small).
_MUTATION_JOURNAL_CAP = 1024

#: Send deadline (``SO_SNDTIMEO``) of every accepted connection.  No client
#: waits longer than this for a response, so a send that made no progress
#: for this long is to a peer that gave up: the connection is dropped.
_SEND_TIMEOUT_S = max(DEFAULT_OP_TIMEOUTS.values())


def _find_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library lacks it."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


#: Called before every worker fork: the heap a pool build freed but the
#: allocator kept resident (~17 MiB) goes back to the OS instead of into
#: every forked worker.
_MALLOC_TRIM = _find_malloc_trim()

__all__ = ["ShardServer", "ShardWorkerFleet", "NetworkedCluster"]


class ShardServer:
    """Serve one :class:`PoolShard` over TCP (the worker-side event loop).

    Thread model: one acceptor thread, one reader thread per connection
    (``poe-net-conn``), and a shared ``request_workers``-wide pool
    (``poe-net-req``).  The reader runs ``HELLO``, ``PING`` and a ``SERVE``
    whose payload the shard's cache holds — a hit costs about what the
    hand-off to the pool would, so running it in place delays no
    neighbour on the connection more than dispatching it did; a ``SERVE``
    miss (which may encode or wait on a single flight), ``FETCH_HEADS``,
    ``PREDICT``, ``STATS`` and the mutation frames run in the pool, and
    ``DRAIN`` on its own thread (it waits for every request in flight, so
    it must occupy neither).  Both callers go through one
    ``_run_request``.  Responses are written frame-by-frame under a
    per-connection lock, so chunked payloads from concurrent requests
    interleave cleanly; every accepted socket carries a send deadline
    (``_SEND_TIMEOUT_S``), so a peer that stops reading costs a thread
    that long at most and then loses its connection.

    Mutation frames (``INSTALL_HEADS`` / ``DROP_HEADS`` /
    ``REFRESH_LIBRARY``) are fenced and idempotent: each carries a
    topology ``epoch`` (frames older than the worker's current epoch are
    rejected with :class:`StaleEpochError`) and a ``mutation_id`` that is
    journaled on apply, so a retried duplicate is acknowledged as a
    *replay* without touching the pool.  When ``auth_token`` is set, only
    connections that presented the matching token in ``HELLO``
    (constant-time compare) may mutate; everyone else keeps the read-only
    surface.
    """

    def __init__(
        self,
        shard: PoolShard,
        host: str = "127.0.0.1",
        port: int = 0,
        request_workers: int = 2,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        replica_id: int = 0,
        auth_token: Optional[str] = None,
    ) -> None:
        self.shard = shard
        self.host = host
        self.port = port
        self.chunk_bytes = chunk_bytes
        self.replica_id = replica_id
        self.auth_token = auth_token
        #: Current topology epoch (grows monotonically via mutation frames).
        self.epoch = 0
        # mutation_id -> epoch, insertion-ordered so the cap evicts oldest
        self._applied_mutations: "OrderedDict[str, int]" = OrderedDict()
        self._mutation_lock = threading.Lock()
        # id(conn) -> authenticated?, maintained by HELLO / connection close
        self._conn_auth: Dict[int, bool] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, request_workers), thread_name_prefix="poe-net-req"
        )
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._connections: List[socket.socket] = []
        self._conn_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._drain_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, listen, and start accepting; returns the bound address."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.host, self.port = listener.getsockname()
        self._listener = listener
        acceptor = threading.Thread(
            target=self._accept_loop, name="poe-net-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        return self.host, self.port

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until a ``DRAIN`` completed (worker main loops on this)."""
        return self._drained.wait(timeout)

    def drain(self, on_drained=None) -> None:
        """Stop accepting, let in-flight requests finish, then signal done.

        Idempotent *and* synchronous for every caller: a second concurrent
        drain (two supervisors, or SIGTERM racing a wire DRAIN) blocks
        until the first one actually finishes — returning means all
        accepted work completed, never merely that a drain had started.
        Also the SIGTERM handler's path, so a killed worker still answers
        everything it already accepted.

        ``on_drained`` (initiator only) runs after in-flight work completed
        but *before* ``_drained`` is signalled — the wire DRAIN handler
        sends its DRAINED ack there, so a worker main loop waking on
        ``wait_drained()`` cannot close the connection under the ack.
        """
        with self._drain_lock:
            initiator = not self._draining.is_set()
            if initiator:
                self._draining.set()
        if not initiator:
            self._drained.wait()
            return
        if JOURNAL.enabled:
            JOURNAL.emit(
                "worker_drain",
                shard_id=self.shard.shard_id,
                replica=self.replica_id,
                pid=os.getpid(),
            )
        if self._listener is not None:
            with suppress(OSError):  # already closed
                self._listener.close()
        with self._inflight_cond:
            while self._inflight > 0:
                self._inflight_cond.wait(timeout=0.5)
        try:
            if on_drained is not None:
                on_drained()
        finally:
            self._drained.set()

    def close(self) -> None:
        """Force-close everything (after :meth:`drain` for a graceful exit)."""
        self._closed = True
        self._draining.set()
        self._drained.set()
        if self._listener is not None:
            with suppress(OSError):
                self._listener.close()
        with self._conn_lock:
            conns, self._connections = self._connections, []
        for conn in conns:
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with suppress(OSError):
                conn.close()
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Accept / read loops
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._draining.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: drain or shutdown
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            seconds, fraction = divmod(_SEND_TIMEOUT_S, 1)
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDTIMEO,
                struct.pack("ll", int(seconds), int(fraction * 1e6)),
            )
            with self._conn_lock:
                self._connections.append(conn)
            # daemon reader, not tracked: it exits with its connection, and
            # holding references would grow without bound on a long-lived
            # worker accepting many short connections
            threading.Thread(
                target=self._connection_loop, args=(conn,),
                name="poe-net-conn", daemon=True,
            ).start()

    def _connection_loop(self, conn: socket.socket) -> None:
        decoder = FrameDecoder()
        # the assembler bounds reassembled-message size and the number of
        # concurrent partial messages, so a runaway chunk stream cannot
        # balloon worker memory past the advertised payload cap
        assembler = MessageAssembler()
        write_lock = threading.Lock()
        try:
            while True:
                count = conn.recv_into(decoder.writable())
                if not count:
                    return
                frame = decoder.received(count)
                if frame is None:
                    continue
                message = assembler.add(frame)
                if message is not None:
                    msg_type, codec, request_id, payload = message
                    self._dispatch(conn, write_lock, msg_type, request_id, payload, codec)
        except (OSError, FrameError):
            return  # connection torn down or peer sent garbage: drop it
        finally:
            with self._conn_lock:
                if conn in self._connections:
                    self._connections.remove(conn)
                self._conn_auth.pop(id(conn), None)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        conn: socket.socket,
        write_lock: threading.Lock,
        msg_type: int,
        request_id: int,
        payload: bytes,
        codec: int,
    ) -> None:
        if msg_type == MsgType.HELLO:
            # inline: the handshake must precede any pooled response
            self._handle_hello(conn, write_lock, request_id, payload)
            return
        if msg_type == MsgType.DRAIN:
            # dedicated thread: drain waits for the request pool to empty,
            # so it must never occupy a slot in that pool
            threading.Thread(
                target=self._handle_drain, args=(conn, write_lock, request_id),
                name="poe-net-drain", daemon=True,
            ).start()
            return
        # answered here, on the reader thread, when the response is already
        # in memory: a SERVE is parsed and looked up once, here, and a hit
        # is served from the entry this lookup found
        inline = msg_type == MsgType.PING
        if msg_type == MsgType.SERVE:
            try:
                names, transport, trace = parse_serve_request(payload)
            except ValueError:  # FrameError is one: the handler re-reads it and answers ERROR
                pass
            else:
                found = self.shard.gateway.lookup(names, transport)
                inline = found is not None and found[1] is not None
                payload = (names, transport, trace, found)
        with self._inflight_cond:
            draining = self._draining.is_set()
            if not draining:
                self._inflight += 1
        if draining:
            # typed so replica-aware clients fail over instead of surfacing
            # an error.  Sent outside the lock drain() waits on.
            self._send_error(
                conn, write_lock, request_id,
                ShardDrainingError("shard server is draining"),
            )
            return
        if inline:
            self._run_request(conn, write_lock, msg_type, request_id, payload, codec)
            return
        try:
            self._executor.submit(
                self._run_request, conn, write_lock, msg_type, request_id, payload, codec
            )
        except RuntimeError:  # executor shut down under us
            self._finish_request()

    def _finish_request(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            if self._draining.is_set():  # drain() sets it before it reads the count
                self._inflight_cond.notify_all()

    def _run_request(
        self,
        conn: socket.socket,
        write_lock: threading.Lock,
        msg_type: int,
        request_id: int,
        payload: bytes,
        codec: int,
    ) -> None:
        try:
            try:
                handler = self._HANDLERS[msg_type]
            except KeyError:
                raise FrameError(f"unsupported message type {msg_type}") from None
            handler(self, conn, write_lock, request_id, payload, codec)
        except BaseException as error:
            try:
                self._send_error(conn, write_lock, request_id, error)
            except OSError:
                pass  # peer is gone; nothing to report to
        finally:
            self._finish_request()

    def _send(
        self,
        conn: socket.socket,
        write_lock: threading.Lock,
        msg_type: int,
        request_id: int,
        *parts,
        codec: int = CODEC_JSON,
    ) -> None:
        """Send one message whose payload is the concatenation of ``parts``.

        Nothing is concatenated: each frame goes out as one ``sendmsg`` of
        ``[header, part or memoryview slice, ...]``, so a cached payload
        reaches the syscall as the object the cache holds.
        """
        # lock per *frame*, not per message: concurrent responses on the
        # same connection interleave at chunk granularity
        for buffers in encode_buffers(
            msg_type, request_id, parts, codec, self.chunk_bytes
        ):
            with write_lock:
                try:
                    send_buffers(conn, buffers)
                except OSError:
                    # failed, or no progress for _SEND_TIMEOUT_S: a frame may
                    # be torn, so hang up — the reader's recv returns and the
                    # responses queued on this lock fail at once instead of
                    # each waiting out the deadline
                    with suppress(OSError):
                        conn.shutdown(socket.SHUT_RDWR)
                    raise

    def _send_error(
        self, conn, write_lock, request_id: int, error: BaseException
    ) -> None:
        message = str(error.args[0]) if error.args else str(error)
        info = {"type": type(error).__name__, "message": message, "shard_id": self.shard.shard_id}
        self._send(conn, write_lock, MsgType.ERROR, request_id, json_payload(info))

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_hello(self, conn, write_lock, request_id: int, payload: bytes) -> None:
        request = parse_json(payload) if payload else {}
        theirs = request.get("protocol")
        if theirs != PROTOCOL_VERSION:
            # version-mismatch contract: answer with a typed ERROR naming
            # both versions, then hang up — never guess at framing
            self._send_error(
                conn,
                write_lock,
                request_id,
                FrameError(
                    f"protocol mismatch: client speaks {theirs!r}, "
                    f"server speaks {PROTOCOL_VERSION}"
                ),
            )
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            return
        # shared-token auth: constant-time compare; a server with no token
        # configured trusts every local peer (the single-host default).
        # Wrong or absent tokens are NOT an error — the peer simply stays
        # read-only, and "mutations" is withheld from its feature set.
        presented = request.get("auth")
        authed = self.auth_token is None or (
            isinstance(presented, str)
            and hmac.compare_digest(presented, self.auth_token)
        )
        with self._conn_lock:
            self._conn_auth[id(conn)] = authed
        features = list(negotiate_features(request.get("features")))
        if not authed and FEATURE_MUTATIONS in features:
            features.remove(FEATURE_MUTATIONS)
        self._send(
            conn,
            write_lock,
            MsgType.HELLO_OK,
            request_id,
            json_payload(
                {
                    "protocol": PROTOCOL_VERSION,
                    "shard_id": self.shard.shard_id,
                    # replica index within the shard slot (0 for a lone
                    # worker); a plain JSON addition — old clients ignore it
                    "replica": self.replica_id,
                    "tasks": list(self.shard.task_names()),
                    "pid": os.getpid(),
                    # optional-capability intersection (empty for a client
                    # that sent no "features" key — old peers interop)
                    "features": features,
                    "epoch": self.epoch,
                }
            ),
        )

    def _traced(self, ctx, name: str, spans_out: List[Dict]):
        """Continue a caller's trace around one shard call.

        ``ctx`` is the request's ``"trace"`` object (or None/absent for an
        untraced request — then this is a no-op).  On exit the request's
        server-side spans are pulled out of the collector into
        ``spans_out`` for the response to carry back.
        """
        return self._continue_trace(ctx, name, spans_out) if ctx else nullcontext()

    @contextmanager
    def _continue_trace(self, ctx, name: str, spans_out: List[Dict]):
        tags = {"shard_id": self.shard.shard_id, "pid": os.getpid()}
        with TRACER.continue_from(ctx, name, tags) as span:
            yield
        spans_out.extend(TRACER.collector.take_trace(span.trace_id))

    def _handle_drain(self, conn, write_lock, request_id: int) -> None:
        acked = []

        def ack() -> None:
            self._send(conn, write_lock, MsgType.DRAINED, request_id, json_payload({}))
            acked.append(True)

        try:
            self.drain(on_drained=ack)
        except OSError:  # pragma: no cover - peer vanished mid-drain
            return
        if not acked:
            # a concurrent drain beat us to initiating: ack best-effort
            # (the worker main loop may already be tearing connections down)
            try:
                ack()
            except OSError:
                pass

    def _handle_ping(self, conn, write_lock, request_id, payload, codec) -> None:
        self._send(conn, write_lock, MsgType.PONG, request_id, payload, codec=codec)

    def _handle_fetch_heads(self, conn, write_lock, request_id, payload, codec) -> None:
        request = parse_json(payload)
        transport = request.get("transport", "raw+zlib")
        raw = self.shard.fetch_heads(tuple(request["names"]), transport)
        self._send(
            conn, write_lock, MsgType.HEADS, request_id, raw,
            codec=codec_for_transport(transport),
        )

    def _handle_serve(self, conn, write_lock, request_id, payload, codec) -> None:
        if not isinstance(payload, tuple):  # else the reader parsed it and looked up
            payload = (*parse_serve_request(payload), None)
        names, transport, trace, found = payload
        spans: List[Dict] = []
        with self._traced(trace, "shard.serve", spans):
            response = self.shard.serve(names, transport, found)
        meta = served_meta(
            response.payload_cache_hit, response.coalesced, response.versions, spans
        )
        self._send(
            conn, write_lock, MsgType.SERVED, request_id, meta, *response.parts,
            codec=CODEC_BINARY,
        )

    def _handle_predict(self, conn, write_lock, request_id, payload, codec) -> None:
        meta, blob = unpack_body(payload)
        images = (
            np.frombuffer(blob, dtype=meta["dtype"]).reshape(meta["shape"]).copy()
        )
        spans: List[Dict] = []
        with self._traced(meta.get("trace"), "shard.predict", spans):
            response = self.shard.predict(images, tuple(meta["tasks"]))
        ids = np.ascontiguousarray(response.class_ids)
        out_meta = {
            "tasks": list(response.tasks),
            "batch_size": response.batch_size,
            "queue_seconds": response.queue_seconds,
            "service_seconds": response.service_seconds,
            "model_cache_hit": response.model_cache_hit,
            "trunk_cache_hit": response.trunk_cache_hit,
            "coalesced": response.coalesced,
            "result_cache_hit": response.result_cache_hit,
            "dtype": str(ids.dtype),
            "shape": list(ids.shape),
        }
        if spans:
            out_meta["trace_spans"] = spans
        self._send(
            conn, write_lock, MsgType.PREDICTED, request_id,
            *pack_body_parts(out_meta, ids.tobytes()), codec=CODEC_BINARY,
        )

    # ------------------------------------------------------------------
    # Mutation handlers: fenced, idempotent, auth-gated
    # ------------------------------------------------------------------
    def _require_mutation_auth(self, conn) -> None:
        with self._conn_lock:
            authed = self._conn_auth.get(id(conn), self.auth_token is None)
        if not authed:
            raise PermissionError(
                "mutation frames require an authenticated peer "
                "(send the shared auth token in HELLO)"
            )

    def _fence_and_dedup(self, mutation_id: str, epoch: int) -> bool:
        """Under the mutation lock: answer ``True`` for a replay.

        Replay is checked *before* the epoch fence: a duplicate of a
        mutation that already applied must be acknowledged even if later
        mutations have since advanced the epoch — the retrying client is
        owed its ack, and re-applying is the thing being prevented.
        Unknown ids with an epoch below the worker's are fenced out.
        """
        if mutation_id in self._applied_mutations:
            return True
        if epoch < self.epoch:
            metrics = self.shard.gateway.metrics
            if metrics is not None:
                metrics.increment("stale_epoch_rejects")
            raise StaleEpochError(
                f"mutation epoch {epoch} is stale: shard {self.shard.shard_id} "
                f"replica {self.replica_id} is at epoch {self.epoch}"
            )
        return False

    def _record_applied(self, mutation_id: str, epoch: int, kind: str, **detail) -> None:
        self._applied_mutations[mutation_id] = epoch
        while len(self._applied_mutations) > _MUTATION_JOURNAL_CAP:
            self._applied_mutations.popitem(last=False)
        self.epoch = max(self.epoch, epoch)
        metrics = self.shard.gateway.metrics
        if metrics is not None:
            metrics.increment("mutations_applied")
        if JOURNAL.enabled:
            JOURNAL.emit(
                "mutation_applied",
                op=kind,
                mutation_id=mutation_id,
                epoch=epoch,
                shard_id=self.shard.shard_id,
                replica=self.replica_id,
                **detail,
            )

    def _record_replayed(self, mutation_id: str, kind: str) -> None:
        metrics = self.shard.gateway.metrics
        if metrics is not None:
            metrics.increment("mutations_replayed")
        if JOURNAL.enabled:
            JOURNAL.emit(
                "mutation_replayed",
                op=kind,
                mutation_id=mutation_id,
                epoch=self.epoch,
                shard_id=self.shard.shard_id,
                replica=self.replica_id,
            )

    def _mutate(self, conn, write_lock, request_id, meta, blob, kind, reply, apply) -> None:
        """Apply one fenced, idempotent mutation and ack it with ``reply``:
        unless ``meta``'s id is a replay, ``apply(blob)`` runs under the
        mutation lock after the blob's digest check (if ``meta`` names one)
        and answers ``(ack fields, journal detail)``; a replay acks only the
        flags and the epoch."""
        mutation_id, epoch = str(meta["mutation_id"]), int(meta["epoch"])
        fields: Dict[str, object] = {}
        with self._mutation_lock:
            replayed = self._fence_and_dedup(mutation_id, epoch)
            if replayed:
                self._record_replayed(mutation_id, kind)
            else:
                digest = meta.get("digest")
                if digest is not None and payload_digest(blob) != digest:
                    raise FrameError(
                        f"{kind} payload digest mismatch: refusing to apply a corrupted payload"
                    )
                fields, detail = apply(blob)
                self._record_applied(mutation_id, epoch, kind, **detail)
            out = {"applied": not replayed, "replayed": replayed, "epoch": self.epoch, **fields}
        self._send(conn, write_lock, reply, request_id, json_payload(out))

    def _handle_install_heads(self, conn, write_lock, request_id, payload, codec) -> None:
        self._require_mutation_auth(conn)

        def install(blob):
            heads = deserialize_expert_heads(blob)
            for name, remote in heads.items():
                # attach overwrites an existing head of the same name,
                # so a crash-and-retry mid-apply converges (idempotent)
                self.shard.install_expert(name, remote.head, remote.version)
            return {"installed": list(heads)}, {"tasks": len(heads)}

        meta, blob = unpack_body(payload)
        self._mutate(
            conn, write_lock, request_id, meta, blob, "install_heads",
            MsgType.HEADS_INSTALLED, install,
        )

    def _handle_drop_heads(self, conn, write_lock, request_id, payload, codec) -> None:
        self._require_mutation_auth(conn)
        request = parse_json(payload)
        names = [str(n) for n in request.get("names", ())]

        def drop(_blob):
            # tolerate absent names: a respawned worker may have forked past
            # the drop already, and the commit broadcast uses an empty list
            # as a pure epoch fence
            held = set(self.shard.task_names())
            dropped = [name for name in names if name in held]
            for name in dropped:
                self.shard.drop_expert(name)
            return {"dropped": dropped}, {"tasks": len(dropped), "requested": len(names)}

        self._mutate(
            conn, write_lock, request_id, request, None, "drop_heads",
            MsgType.HEADS_DROPPED, drop,
        )

    def _handle_refresh_library(self, conn, write_lock, request_id, payload, codec) -> None:
        self._require_mutation_auth(conn)

        def refresh(blob):
            library, version = deserialize_library_state(blob)
            # the student stays behind the gateway that distilled it;
            # workers only ever serve through the consolidated trunk
            self.shard.refresh_library(library, None, version)
            return {"version": version}, {"version": version}

        meta, blob = unpack_body(payload)
        self._mutate(
            conn, write_lock, request_id, meta, blob, "refresh_library",
            MsgType.LIBRARY_REFRESHED, refresh,
        )

    def _handle_stats(self, conn, write_lock, request_id, payload, codec) -> None:
        request = parse_json(payload) if payload else {}
        journal_since = int(request.get("journal_since", 0) or 0)
        stats = {
            tier: dataclasses.asdict(s) for tier, s in self.shard.cache_stats().items()
        }
        # the full unified snapshot (schema/kind/stages/counters + full
        # histogram state) rides at the top level so the cluster front end
        # can merge per-worker snapshots losslessly; the identity keys and
        # "cache_stats"/"counters" stay where existing clients expect them
        response = self.shard.gateway.metrics.snapshot(include_histograms=True)
        response.update(
            {
                "shard_id": self.shard.shard_id,
                "pid": os.getpid(),
                "tasks": list(self.shard.task_names()),
                "cache_stats": stats,
                "epoch": self.epoch,
            }
        )
        # journal events ride in the response like trace_spans do: the
        # worker's bounded ring, cursored by seq so a poller that passes
        # ``journal_since`` ships each event across the wire once
        if JOURNAL.enabled:
            response["journal"] = JOURNAL.since(journal_since)
        self._send(conn, write_lock, MsgType.STATS_OK, request_id, json_payload(response))

    _HANDLERS = {
        MsgType.PING: _handle_ping,
        MsgType.FETCH_HEADS: _handle_fetch_heads,
        MsgType.SERVE: _handle_serve,
        MsgType.PREDICT: _handle_predict,
        MsgType.STATS: _handle_stats,
        MsgType.INSTALL_HEADS: _handle_install_heads,
        MsgType.DROP_HEADS: _handle_drop_heads,
        MsgType.REFRESH_LIBRARY: _handle_refresh_library,
    }


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def _shard_worker_main(
    control,
    shard_id: int,
    task_names: Tuple[str, ...],
    pool,
    gateway_config: Optional[GatewayConfig],
    host: str,
    request_workers: int,
    replica_id: int = 0,
    auth_token: Optional[str] = None,
) -> None:
    """Entry point of one forked shard worker (readiness → serve → drain)."""
    import signal

    # Fork copies the parent's tracer — including any open JSONL writer fd.
    # Server-side spans must travel back over the wire (``trace_spans``),
    # not race the client into a shared file, so start from a clean tracer
    # and name this process's spans after the shard.
    TRACER.reset()
    TRACER.service = f"shard{shard_id}"
    # Same story for the journal, except workers keep theirs *enabled*
    # (memory ring only, no file): lifecycle/eviction events buffer here
    # and ride back to the poller in STATS responses.
    JOURNAL.reset()
    JOURNAL.enable(service=f"shard{shard_id}")
    JOURNAL.emit(
        "worker_start",
        shard_id=shard_id,
        replica=replica_id,
        pid=os.getpid(),
        tasks=len(task_names),
    )

    try:
        shard = PoolShard(shard_id, pool, task_names, gateway_config)
        server = ShardServer(
            shard,
            host=host,
            port=0,
            request_workers=request_workers,
            replica_id=replica_id,
            auth_token=auth_token,
        )
        _host, port = server.start()
    except BaseException as error:  # report startup failure, don't hang the parent
        try:
            control.send(("error", f"{type(error).__name__}: {error}"))
        finally:
            control.close()
        os._exit(1)
    control.send(("ready", port))
    control.close()
    signal.signal(signal.SIGTERM, lambda *_args: server.drain())
    server.wait_drained()
    server.close()
    shard.close()


@dataclasses.dataclass
class _WorkerHandle:
    """One worker process plus the spawn spec needed to respawn it."""

    shard_id: int
    process: "multiprocessing.process.BaseProcess"
    address: Tuple[str, int]
    replica_id: int = 0
    task_names: Tuple[str, ...] = ()
    gateway_config: Optional[GatewayConfig] = None


class ShardWorkerFleet:
    """Spawn, supervise, and retire shard worker processes.

    Workers are spawned lazily as :meth:`shard_factory` is called (the
    :class:`~repro.cluster.gateway.ClusterGateway` constructor drives it,
    handing over each shard's task assignment), so the fleet needs no
    routing knowledge of its own.  With ``replicas_per_shard > 1`` each
    shard slot gets N identical worker processes and the returned client
    holds one connection pool per replica, failing over and hedging
    between them.  A supervisor thread (started on first spawn) watches
    child processes: a worker that dies without being asked is journaled
    as ``worker_death`` and respawned from its stored spawn spec (fork of
    the same pool + task assignment — the pool *is* the serialized shard
    state), then the owning client is repointed at the new address
    (``worker_respawn``).  ``shutdown()`` stops supervision first, then
    drains every worker over the wire, joins it, and only terminates on
    timeout; :meth:`leaked_processes` is the post-shutdown leak check the
    CI smoke asserts on.
    """

    def __init__(
        self,
        pool,
        host: str = "127.0.0.1",
        connections_per_shard: int = 2,
        startup_timeout: float = 60.0,
        metrics: Optional[ClusterMetrics] = None,
        replicas_per_shard: int = 1,
        retry: Optional[RetryPolicy] = None,
        hedge: Optional[HedgePolicy] = None,
        supervise: bool = True,
        supervision_interval: float = 0.1,
        auth_token: Optional[str] = None,
    ) -> None:
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "networked shards need the 'fork' start method to inherit "
                "the preprocessed pool; this platform does not support it"
            ) from None
        if replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be >= 1")
        self.pool = pool
        self.host = host
        self.connections_per_shard = connections_per_shard
        self.startup_timeout = startup_timeout
        self.metrics = metrics
        self.replicas_per_shard = replicas_per_shard
        self.retry = retry
        self.hedge = hedge
        self.supervise = supervise
        self.supervision_interval = supervision_interval
        self.auth_token = auth_token
        self.workers: List[_WorkerHandle] = []
        self._clients: List[RemoteShardClient] = []
        self._clients_by_shard: Dict[int, RemoteShardClient] = {}
        self._supervisor: Optional[threading.Thread] = None
        self._stop_supervision = threading.Event()
        self._fleet_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _spawn_process(
        self,
        shard_id: int,
        replica_id: int,
        task_names: Tuple[str, ...],
        gateway_config: Optional[GatewayConfig],
    ) -> Tuple["multiprocessing.process.BaseProcess", Tuple[str, int]]:
        """Fork one worker process; block until it reports readiness."""
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        request_workers = gateway_config.max_workers if gateway_config else 2
        process = self._context.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                shard_id,
                task_names,
                self.pool,
                gateway_config,
                self.host,
                request_workers,
                replica_id,
                self.auth_token,
            ),
            name=f"poe-shard-{shard_id}r{replica_id}",
            daemon=True,
        )
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.startup_timeout):
            process.terminate()
            raise RuntimeError(
                f"shard worker {shard_id}/r{replica_id} did not report "
                f"readiness within {self.startup_timeout:.0f}s"
            )
        status, value = parent_conn.recv()
        parent_conn.close()
        if status != "ready":
            process.join(timeout=5.0)
            raise RuntimeError(
                f"shard worker {shard_id}/r{replica_id} failed to start: {value}"
            )
        return process, (self.host, int(value))

    def spawn(
        self,
        shard_id: int,
        task_names: Sequence[str],
        gateway_config: Optional[GatewayConfig] = None,
        replica_id: int = 0,
    ) -> Tuple[str, int]:
        """Fork one worker for ``task_names``; block until it is ready."""
        names = tuple(task_names)
        process, address = self._spawn_process(
            shard_id, replica_id, names, gateway_config
        )
        with self._fleet_lock:
            self.workers.append(
                _WorkerHandle(
                    shard_id, process, address, replica_id, names, gateway_config
                )
            )
        self._ensure_supervisor()
        return address

    def shard_factory(
        self,
        shard_id: int,
        task_names: Sequence[str],
        gateway_config: Optional[GatewayConfig] = None,
        trunk_cache=None,
    ) -> RemoteShardClient:
        """The ``ClusterGateway`` shard-factory hook: one replica *group*
        of worker processes per shard.

        ``trunk_cache`` is accepted for signature compatibility and
        ignored — a worker process owns its own trunk-feature cache (the
        cluster front end keeps a separate one for cross-shard predicts).
        """
        addresses = [
            self.spawn(shard_id, task_names, gateway_config, replica_id=replica)
            for replica in range(self.replicas_per_shard)
        ]
        client = RemoteShardClient(
            addresses,
            connections=self.connections_per_shard,
            metrics=self.metrics,
            retry=self.retry,
            hedge=self.hedge,
            auth_token=self.auth_token,
        )
        self._clients.append(client)
        self._clients_by_shard[shard_id] = client
        return client

    # ------------------------------------------------------------------
    # Supervision: death detection + respawn
    # ------------------------------------------------------------------
    def _ensure_supervisor(self) -> None:
        if not self.supervise or self._supervisor is not None:
            return
        self._stop_supervision.clear()
        self._supervisor = threading.Thread(
            target=self._supervision_loop, name="poe-fleet-supervisor", daemon=True
        )
        self._supervisor.start()

    def _supervision_loop(self) -> None:
        while not self._stop_supervision.wait(self.supervision_interval):
            with self._fleet_lock:
                handles = list(self.workers)
            for handle in handles:
                if self._stop_supervision.is_set():
                    return
                if handle.process.is_alive():
                    continue
                self._respawn(handle)

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker in place; the handle keeps its slot."""
        with self._fleet_lock:
            if handle not in self.workers:
                return  # slot retired (online shrink) between scan and respawn
        dead_pid = handle.process.pid
        if JOURNAL.enabled:
            JOURNAL.emit(
                "worker_death",
                shard_id=handle.shard_id,
                replica=handle.replica_id,
                pid=dead_pid,
                exitcode=handle.process.exitcode,
            )
        if self.metrics is not None:
            self.metrics.increment("worker_deaths")
        try:
            process, address = self._spawn_process(
                handle.shard_id,
                handle.replica_id,
                handle.task_names,
                handle.gateway_config,
            )
        except Exception as error:
            if JOURNAL.enabled:
                JOURNAL.emit(
                    "worker_respawn_failed",
                    shard_id=handle.shard_id,
                    replica=handle.replica_id,
                    error=f"{type(error).__name__}: {error}",
                )
            return
        handle.process = process
        handle.address = address
        client = self._clients_by_shard.get(handle.shard_id)
        if client is not None:
            client.replace_replica(handle.replica_id, address)
        if self.metrics is not None:
            self.metrics.increment("worker_respawns")
        if JOURNAL.enabled:
            JOURNAL.emit(
                "worker_respawn",
                shard_id=handle.shard_id,
                replica=handle.replica_id,
                pid=process.pid,
                old_pid=dead_pid,
            )

    def stop_supervision(self) -> None:
        self._stop_supervision.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None

    # ------------------------------------------------------------------
    # Online topology changes (the fleet half of resharding)
    # ------------------------------------------------------------------
    def update_assignment(self, shard_id: int, task_names: Sequence[str]) -> None:
        """Record a shard slot's new task assignment in its spawn spec.

        Respawns fork from the *parent* pool with the stored assignment,
        so after a rebalance/reshard moved heads this must be updated or a
        crashed worker would come back serving the pre-move placement.
        """
        names = tuple(task_names)
        with self._fleet_lock:
            for handle in self.workers:
                if handle.shard_id == shard_id:
                    handle.task_names = names

    def retire_shard(self, shard_id: int, timeout: float = 20.0) -> None:
        """Drain and retire every worker of one shard slot (online shrink).

        Handles leave ``self.workers`` under the fleet lock *before* any
        worker is touched, so the supervisor cannot respawn a slot that is
        being retired; the client is closed before the drain so no new
        requests race the teardown.
        """
        with self._fleet_lock:
            retiring = [h for h in self.workers if h.shard_id == shard_id]
            self.workers = [h for h in self.workers if h.shard_id != shard_id]
        client = self._clients_by_shard.pop(shard_id, None)
        if client is not None:
            if client in self._clients:
                self._clients.remove(client)
            client.close()
        for handle in retiring:
            if not handle.process.is_alive():
                continue
            try:
                RemoteShardClient.drain_address(handle.address, timeout=timeout)
            except OSError:
                pass  # already exiting; join below decides
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():  # pragma: no cover - unresponsive
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            if JOURNAL.enabled:
                JOURNAL.emit(
                    "worker_exit",
                    shard_id=handle.shard_id,
                    replica=handle.replica_id,
                    pid=handle.process.pid,
                    exitcode=handle.process.exitcode,
                )

    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 20.0) -> None:
        """Drain + join every worker; terminate only the unresponsive."""
        # stop the supervisor first or it would dutifully respawn every
        # worker this very loop is about to retire
        self.stop_supervision()
        for client in self._clients:
            client.close()
        self._clients = []
        self._clients_by_shard = {}
        for handle in self.workers:
            if not handle.process.is_alive():
                # a worker that died before we asked it to is news
                if JOURNAL.enabled and handle.process.exitcode not in (0, None):
                    JOURNAL.emit(
                        "worker_death",
                        shard_id=handle.shard_id,
                        replica=handle.replica_id,
                        pid=handle.process.pid,
                        exitcode=handle.process.exitcode,
                    )
                continue
            try:
                RemoteShardClient.drain_address(handle.address, timeout=timeout)
            except OSError:
                pass  # worker already exiting; join below decides
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():  # pragma: no cover - unresponsive worker
                handle.process.terminate()
                handle.process.join(timeout=5.0)
                if JOURNAL.enabled:
                    JOURNAL.emit(
                        "worker_death",
                        shard_id=handle.shard_id,
                        replica=handle.replica_id,
                        pid=handle.process.pid,
                        exitcode=handle.process.exitcode,
                    )
            elif JOURNAL.enabled:
                JOURNAL.emit(
                    "worker_exit",
                    shard_id=handle.shard_id,
                    replica=handle.replica_id,
                    pid=handle.process.pid,
                    exitcode=handle.process.exitcode,
                )

    def leaked_processes(self) -> List["multiprocessing.process.BaseProcess"]:
        """Workers still alive (should be empty after :meth:`shutdown`)."""
        return [h.process for h in self.workers if h.process.is_alive()]

    def __enter__(self) -> "ShardWorkerFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover
        return f"ShardWorkerFleet(workers={len(self.workers)}, host={self.host!r})"


# ----------------------------------------------------------------------
# One-call deployment
# ----------------------------------------------------------------------
class NetworkedCluster:
    """A :class:`ClusterGateway` whose shards live in worker processes.

    Construction spawns ``config.num_shards`` forked workers (readiness-
    gated) and wires the gateway's ``shard_factory`` to return
    :class:`RemoteShardClient`\\ s.  ``close()`` tears down in dependency
    order: gateway (client sockets), then the fleet (drain + join).
    """

    def __init__(
        self,
        pool,
        config: Optional[ClusterConfig] = None,
        host: str = "127.0.0.1",
        connections_per_shard: int = 2,
        startup_timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
        hedge: Optional[HedgePolicy] = None,
        auth_token: Optional[str] = None,
    ) -> None:
        self.metrics = ClusterMetrics()
        # every mutation frame is auth-gated; a fresh random token per
        # cluster keeps the gateway the only peer that can mutate workers
        self.auth_token = auth_token or secrets.token_hex(16)
        replicas = getattr(config, "replicas_per_shard", 1) if config else 1
        self.fleet = ShardWorkerFleet(
            pool,
            host=host,
            connections_per_shard=connections_per_shard,
            startup_timeout=startup_timeout,
            metrics=self.metrics,
            replicas_per_shard=replicas,
            retry=retry,
            hedge=hedge,
            auth_token=self.auth_token,
        )
        try:
            self.gateway = ClusterGateway(
                pool,
                config,
                metrics=self.metrics,
                shard_factory=self.fleet.shard_factory,
            )
            self.gateway.attach_fleet(self.fleet)
        except BaseException:
            self.fleet.shutdown()
            raise

    def close(self) -> None:
        self.gateway.close()
        self.fleet.shutdown()

    def __enter__(self) -> "NetworkedCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"NetworkedCluster(workers={len(self.fleet.workers)})"
