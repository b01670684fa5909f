"""The length-prefixed binary frame protocol networked shards speak.

This is the wire layer under :mod:`repro.net`: every message between a
:class:`~repro.net.client.RemoteShardClient` and a
:class:`~repro.net.server.ShardServer` is one or more **frames**,
each a fixed 20-byte header followed by a payload:

.. code-block:: text

    offset  size  field
    0       4     magic          b"POEN"
    4       1     protocol version (currently 2)
    5       1     message type   (MsgType)
    6       1     flags          (bit 0 = FLAG_END: last frame of message)
    7       1     codec tag      (payload encoding, see below)
    8       8     request id     (u64 little-endian)
    16      4     payload length (u32 little-endian)
    20      N     payload bytes

A logical *message* is the concatenated payloads of all frames sharing a
request id up to (and including) the frame with ``FLAG_END`` set.  Small
messages are one frame; large ones (head payloads, composite models) are
**chunked** at ``DEFAULT_CHUNK_BYTES`` so a connection multiplexing many
requests can interleave a small response between the chunks of a big one
instead of head-of-line-blocking behind it.

Codec tags name the payload encoding: ``CODEC_JSON`` for control
payloads, ``CODEC_BINARY`` for mixed binary bodies (a u32-length JSON
meta header + raw tensor bytes, see :func:`pack_body`), and one tag per
entry of :data:`repro.core.server.TRANSPORTS` for model/head payloads —
the payload container's bytes travel unmodified, the tag just names the
transport they were requested in.

Hard limits are enforced at decode time: a frame whose declared length
exceeds ``MAX_PAYLOAD_BYTES``, whose magic or version byte is wrong, or
whose codec tag is unknown raises :class:`FrameError` (version mismatch
raises the :class:`ProtocolMismatch` subclass so handshakes can answer
it specifically).  ``docs/wire-protocol.md`` is the prose spec of this
module; keep the two in sync.

**Optional features** are negotiated in the HELLO exchange, not the
version byte: the client's HELLO may carry ``"features": [...]`` (a list
of :data:`SUPPORTED_FEATURES` names) and the server's HELLO_OK echoes
the intersection it accepted.  A peer that omits the key negotiates the
empty set — old clients and servers interoperate untouched because
unknown JSON keys are ignored on both sides.  The one feature today is
``"trace"`` (:data:`FEATURE_TRACE`): when negotiated, a SERVE request's
JSON (or a PREDICT request's meta header) may carry a ``"trace"`` object
``{"trace_id", "parent_id"}``, and the matching response's JSON/meta
carries ``"trace_spans"`` — the server-side span dicts for that request,
which the caller stitches into its own trace (see
``docs/observability.md``).  FETCH_HEADS responses are raw payload
codecs with no meta header, so they never carry spans.

**Mutation frames** (``INSTALL_HEADS``/``DROP_HEADS``/``REFRESH_LIBRARY``)
are the write path of the protocol: they carry expert-head and
library-state payloads *into* a running worker.  Every mutation body
names a **topology epoch** (monotonically increasing; a worker rejects
frames older than its current epoch with a typed ``StaleEpochError``)
and a **mutation id** (workers journal applied ids, so a retried or
replayed frame is acknowledged without re-applying — exactly-once
application over an at-least-once transport).  They are deliberately
absent from :data:`IDEMPOTENT_MSG_TYPES` — they must never be hedged —
but :data:`MUTATION_MSG_TYPES` marks them safely *retryable*, because
the id dedup makes a duplicate delivery a no-op.  Servers only accept
them from peers that negotiated the ``"mutations"`` feature, which is
granted iff the HELLO carried the server's shared auth token (see
``docs/resharding.md``).
"""

from __future__ import annotations

import json
import struct
from functools import lru_cache
from time import monotonic
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..core.server import TRANSPORTS
from ..serving.canonical import canonical_tasks

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "FEATURE_TRACE",
    "FEATURE_MUTATIONS",
    "SUPPORTED_FEATURES",
    "negotiate_features",
    "HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "DEFAULT_CHUNK_BYTES",
    "FLAG_END",
    "MsgType",
    "IDEMPOTENT_MSG_TYPES",
    "MUTATION_MSG_TYPES",
    "CODEC_JSON",
    "CODEC_BINARY",
    "CODEC_NAMES",
    "FrameError",
    "ProtocolMismatch",
    "Frame",
    "FrameDecoder",
    "MessageAssembler",
    "codec_for_transport",
    "transport_for_codec",
    "encode_frame",
    "encode_buffers",
    "encode_message",
    "send_buffers",
    "json_payload",
    "parse_json",
    "pack_body",
    "pack_body_parts",
    "unpack_body",
    "serve_request",
    "parse_serve_request",
    "served_meta",
    "parse_served",
    "payload_digest",
]

MAGIC = b"POEN"
PROTOCOL_VERSION = 2

#: Optional-capability names negotiable in HELLO (see module docstring).
FEATURE_TRACE = "trace"
#: Mutation frames accepted; servers grant this only to authenticated
#: peers, so its presence in HELLO_OK doubles as the write-path probe.
FEATURE_MUTATIONS = "mutations"
SUPPORTED_FEATURES = (FEATURE_TRACE, FEATURE_MUTATIONS)


def negotiate_features(requested) -> Tuple[str, ...]:
    """The subset of ``requested`` feature names this side supports.

    Order follows :data:`SUPPORTED_FEATURES`; unknown names are silently
    dropped (that is the forward-compatibility contract), and a missing /
    malformed request negotiates the empty set.
    """
    if not isinstance(requested, (list, tuple)):
        return ()
    wanted = {str(name) for name in requested}
    return tuple(name for name in SUPPORTED_FEATURES if name in wanted)
#: magic(4) + version(1) + msg type(1) + flags(1) + codec(1) + id(8) + len(4)
HEADER_BYTES = 20
_HEADER = struct.Struct("<4sBBBBQI")

#: Hard cap on one frame's payload; a header declaring more is corrupt.
MAX_PAYLOAD_BYTES = 64 << 20
#: Messages larger than this are split into multiple frames.
DEFAULT_CHUNK_BYTES = 256 << 10

FLAG_END = 0x01


class MsgType:
    """Message-type byte values (one namespace, not an enum, for struct speed)."""

    HELLO = 1
    HELLO_OK = 2
    ERROR = 3
    PING = 4
    PONG = 5
    FETCH_HEADS = 6
    HEADS = 7
    SERVE = 8
    SERVED = 9
    PREDICT = 10
    PREDICTED = 11
    STATS = 12
    STATS_OK = 13
    DRAIN = 14
    DRAINED = 15
    INSTALL_HEADS = 16
    HEADS_INSTALLED = 17
    DROP_HEADS = 18
    HEADS_DROPPED = 19
    REFRESH_LIBRARY = 20
    LIBRARY_REFRESHED = 21


#: Request types safe to retry / fail over / hedge: re-executing them on
#: another replica cannot change shard state, so a client may re-issue
#: them after a connection error or alongside a slow first attempt.
#: Everything else — DRAIN, and the placement mutations below — must
#: never be hedged; DRAIN fails fast, mutations retry via id dedup.
IDEMPOTENT_MSG_TYPES = frozenset(
    {MsgType.PING, MsgType.FETCH_HEADS, MsgType.SERVE, MsgType.PREDICT, MsgType.STATS}
)

#: The write path: frames that mutate worker state.  Never hedged (a
#: hedge races two applications of one mutation), but safely retryable —
#: every mutation carries an id the worker journals, so a duplicate
#: delivery is acknowledged as a replay instead of re-applied.
MUTATION_MSG_TYPES = frozenset(
    {MsgType.INSTALL_HEADS, MsgType.DROP_HEADS, MsgType.REFRESH_LIBRARY}
)


#: Codec tags 1..3 are ``repro.core.server.TRANSPORTS``, in order.
CODEC_JSON = 0
_TRANSPORT_CODECS: Dict[str, int] = {name: tag for tag, name in enumerate(TRANSPORTS, 1)}
_CODEC_TRANSPORTS: Dict[int, str] = {tag: name for name, tag in _TRANSPORT_CODECS.items()}
CODEC_BINARY = 5
CODEC_NAMES: Dict[int, str] = {
    CODEC_JSON: "json",
    CODEC_BINARY: "binary",
    **_CODEC_TRANSPORTS,
}

#: Anything the buffer protocol exposes as contiguous bytes.
Buffer = Union[bytes, bytearray, memoryview]


class FrameError(ValueError):
    """The byte stream is not a well-formed frame sequence."""


class ProtocolMismatch(FrameError):
    """The peer speaks a different protocol version."""


def codec_for_transport(transport: str) -> int:
    """The codec tag advertising a :data:`~repro.core.server.TRANSPORTS` payload."""
    try:
        return _TRANSPORT_CODECS[transport]
    except KeyError:
        raise FrameError(f"no codec tag for transport {transport!r}") from None


def transport_for_codec(codec: int) -> str:
    """Inverse of :func:`codec_for_transport`; raises on unknown tags."""
    try:
        return _CODEC_TRANSPORTS[codec]
    except KeyError:
        raise FrameError(f"unknown payload codec tag {codec}") from None


class Frame(NamedTuple):
    """One decoded frame: header fields + the payload's own buffer.

    A decoded ``payload`` is the ``bytearray`` the decoder allocated for
    this frame alone and the kernel filled — it is never reused, so it
    may be kept, sliced by memoryview, or copied to ``bytes`` at leisure.
    """

    msg_type: int
    request_id: int
    payload: Buffer
    codec: int = CODEC_JSON
    flags: int = FLAG_END

    @property
    def last(self) -> bool:
        """Whether this frame ends its logical message."""
        return bool(self.flags & FLAG_END)


def _pack_header(msg_type: int, request_id: int, length: int, codec: int, flags: int) -> bytes:
    if length > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"frame payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte cap — chunk it (encode_message)"
        )
    if codec not in CODEC_NAMES:
        raise FrameError(f"unknown payload codec tag {codec}")
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, msg_type, flags, codec, request_id, length)


def encode_frame(
    msg_type: int,
    request_id: int,
    payload: bytes = b"",
    codec: int = CODEC_JSON,
    flags: int = FLAG_END,
) -> bytes:
    """Pack one frame; validates the payload size and codec tag."""
    return _pack_header(msg_type, request_id, len(payload), codec, flags) + payload


def encode_buffers(
    msg_type: int,
    request_id: int,
    parts: Sequence[Buffer],
    codec: int = CODEC_JSON,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Iterator[List[Buffer]]:
    """Yield each frame of one message as a scatter-gather buffer list.

    The message payload is the concatenation of ``parts`` (e.g. the
    ``(meta prefix, *blobs)`` of :func:`pack_body_parts`), but nothing is
    concatenated here: a frame is ``[header, piece, ...]`` where a piece
    is a part object itself when the frame takes all of it, else a
    memoryview slice of it — hand the list to ``sendmsg``/``writelines``.
    Every frame but the last has ``FLAG_END`` clear; an empty payload
    still yields exactly one (terminal) frame.  Writers should emit the
    message frame-by-frame under their connection write lock so
    concurrent responses interleave at chunk granularity.
    """
    if chunk_bytes < 1:
        raise ValueError("chunk_bytes must be >= 1")
    remaining = sum(map(len, parts))
    if remaining <= chunk_bytes:
        # one frame takes every (non-empty) part whole: the common case,
        # e.g. a served payload's head and segments, without the loop below
        yield [
            _pack_header(msg_type, request_id, remaining, codec, FLAG_END),
            *(part for part in parts if len(part)),
        ]
        return
    pieces: List[Buffer] = []
    room = min(chunk_bytes, remaining)  # payload bytes the open frame still takes
    length = room
    for part in parts:
        offset, size = 0, len(part)
        while offset < size:
            take = min(room, size - offset)
            pieces.append(
                part if take == size else memoryview(part)[offset : offset + take]
            )
            offset += take
            room -= take
            remaining -= take
            if room == 0 and remaining:
                yield [_pack_header(msg_type, request_id, length, codec, 0), *pieces]
                pieces = []
                room = length = min(chunk_bytes, remaining)
    yield [_pack_header(msg_type, request_id, length, codec, FLAG_END), *pieces]


def encode_message(
    msg_type: int,
    request_id: int,
    payload: bytes,
    codec: int = CODEC_JSON,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Iterator[bytes]:
    """Yield the frame(s) of one message as ``bytes``, chunking large payloads.

    The join of :func:`encode_buffers` — for writers that want one
    contiguous object per frame.
    """
    for buffers in encode_buffers(msg_type, request_id, (payload,), codec, chunk_bytes):
        yield b"".join(buffers)


def send_buffers(sock, buffers: Sequence[Buffer]) -> None:
    """``sendall`` for one frame's buffer list: one ``sendmsg``, no join.

    A socket with a timeout is non-blocking underneath, so ``sendmsg``
    may take only part of a large frame; the rest is re-offered (sliced
    by memoryview).  Each attempt waits for the peer at most the socket's
    timeout, and none starts once that timeout, counted from the first,
    has passed — a trickling peer cannot hold the sender for longer
    than twice its per-op deadline.
    """
    timeout = sock.gettimeout()
    deadline = None if timeout is None else monotonic() + timeout
    sent = sock.sendmsg(buffers)
    if sent == sum(map(len, buffers)):
        return
    views = [memoryview(buffer) for buffer in buffers]
    while True:
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if not views:
            return
        views[0] = views[0][sent:]
        if deadline is not None and monotonic() >= deadline:
            raise TimeoutError("timed out completing a partial sendmsg")
        sent = sock.sendmsg(views)


class FrameDecoder:
    """Incremental fill-in-place decoder (the ``asyncio.BufferedProtocol`` shape).

    :meth:`writable` hands out a memoryview of what is still missing —
    of the 20-byte header, or of the current payload's own buffer — for
    ``recv_into`` to fill; :meth:`received` takes the byte count and
    returns the frame it completed, if any.  The payload buffer is
    allocated only after the header passed every check, so a corrupt or
    hostile header (bad magic, wrong version, unknown codec, declared
    length over the cap) raises :class:`FrameError` before anything of
    the declared size exists: a framing error is unrecoverable on a byte
    stream, so the connection must be dropped.  :meth:`feed` is the
    copy-in driver of the same machine for callers that already hold
    the bytes (tests, and the benchmark harness's ``net.decode`` probe).
    """

    def __init__(self) -> None:
        self._header = bytearray(HEADER_BYTES)
        self._fields: Optional[Tuple[int, int, int, int]] = None  # None: in the header
        self._expect(self._header)

    def _expect(self, target: bytearray) -> None:
        self._target, self._view, self._filled = target, memoryview(target), 0

    def writable(self) -> memoryview:
        """The (never empty) rest of the buffer the stream fills next."""
        return self._view[self._filled :]

    def received(self, count: int) -> Optional[Frame]:
        """Account for ``count`` bytes written into :meth:`writable`."""
        self._filled += count
        if self._filled < len(self._target):
            return None
        payload = self._target
        if self._fields is None:
            magic, version, msg_type, flags, codec, request_id, length = _HEADER.unpack(
                self._header
            )
            if magic != MAGIC:
                raise FrameError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
            if version != PROTOCOL_VERSION:
                raise ProtocolMismatch(
                    f"peer speaks protocol {version}, this side speaks {PROTOCOL_VERSION}"
                )
            if length > MAX_PAYLOAD_BYTES:
                raise FrameError(
                    f"frame declares a {length}-byte payload, over the "
                    f"{MAX_PAYLOAD_BYTES}-byte cap"
                )
            if codec not in CODEC_NAMES:
                raise FrameError(f"unknown payload codec tag {codec}")
            self._fields = (msg_type, request_id, codec, flags)
            payload = bytearray(length)
            if length:
                self._expect(payload)
                return None
        msg_type, request_id, codec, flags = self._fields
        self._fields = None
        self._expect(self._header)
        return Frame(msg_type, request_id, payload, codec, flags)

    def feed(self, data: Buffer) -> List[Frame]:
        """Copy ``data`` in and return every frame completed by it."""
        frames: List[Frame] = []
        view = memoryview(data)
        while len(view):
            target = self.writable()
            count = min(len(target), len(view))
            target[:count] = view[:count]
            view = view[count:]
            frame = self.received(count)
            if frame is not None:
                frames.append(frame)
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes received toward a not-yet-complete frame."""
        return self._filled + (0 if self._fields is None else HEADER_BYTES)


class MessageAssembler:
    """Reassemble chunked messages with aggregate limits enforced.

    The per-frame payload cap alone bounds nothing in aggregate — a peer
    could stream non-terminal frames forever, or open partial messages
    under unbounded request ids.  This tracks both: a *message* whose
    reassembled payload would exceed ``max_message_bytes`` and a
    connection holding more than ``max_partial_messages`` incomplete
    messages each raise :class:`FrameError` (the connection must then be
    dropped, like any other framing violation).
    """

    def __init__(
        self,
        max_message_bytes: int = MAX_PAYLOAD_BYTES,
        max_partial_messages: int = 256,
    ) -> None:
        self.max_message_bytes = max_message_bytes
        self.max_partial_messages = max_partial_messages
        # request id -> (msg type, codec, chunks, total bytes so far)
        self._partial: Dict[int, Tuple[int, int, List[Buffer], int]] = {}

    def add(self, frame: Frame) -> Optional[Tuple[int, int, int, Buffer]]:
        """Fold one frame in; return ``(msg_type, codec, request_id,
        payload)`` when it completes a message, else ``None``.

        A single-frame message is handed through as the frame's own
        buffer; only a chunked one is joined (into ``bytes``).  Every
        frame of a message must repeat the first one's type and codec.
        """
        size = len(frame.payload)
        entry = self._partial.get(frame.request_id) if self._partial else None
        if entry is None:
            if frame.last and size <= self.max_message_bytes:
                return frame.msg_type, frame.codec, frame.request_id, frame.payload
            # (an oversize single frame falls through to the cap check below)
            if not frame.last and len(self._partial) >= self.max_partial_messages:
                raise FrameError(
                    f"more than {self.max_partial_messages} partial messages "
                    "in flight on one connection"
                )
            entry = (frame.msg_type, frame.codec, [], 0)
        msg_type, codec, chunks, total = entry
        if (frame.msg_type, frame.codec) != (msg_type, codec):
            raise FrameError(
                f"continuation frame of request {frame.request_id} changed the "
                f"message type/codec from {msg_type}/{codec} to "
                f"{frame.msg_type}/{frame.codec}"
            )
        total += size
        if total > self.max_message_bytes:
            raise FrameError(
                f"reassembled message exceeds the {self.max_message_bytes}-byte "
                "cap (runaway chunk stream)"
            )
        chunks.append(frame.payload)
        if not frame.last:
            self._partial[frame.request_id] = (msg_type, codec, chunks, total)
            return None
        del self._partial[frame.request_id]
        return msg_type, codec, frame.request_id, b"".join(chunks)

    @property
    def partial_messages(self) -> int:
        return len(self._partial)


# ----------------------------------------------------------------------
# Payload helpers
# ----------------------------------------------------------------------
# one encoder for the process: json.dumps with non-default options builds one per call
_ENCODE_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def json_payload(obj: object) -> bytes:
    """Encode a control payload (compact separators, stable key order)."""
    return _ENCODE_JSON(obj).encode("utf-8")


def parse_json(payload: Buffer) -> Dict:
    """A control payload: one JSON object, else :class:`FrameError`."""
    try:
        obj = json.loads(str(payload, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"malformed JSON payload: {error}") from None
    if not isinstance(obj, dict):
        raise FrameError(f"a control payload is a JSON object, not {type(obj).__name__}")
    return obj


def pack_body_parts(meta: Dict, *blobs: Buffer) -> Tuple[Buffer, ...]:
    """A ``CODEC_BINARY`` body as ``(u32 meta length + JSON meta, *blobs)``.

    The scatter-gather form for :func:`encode_buffers`: the blob is the
    concatenation of ``blobs``, each returned as the object passed in, so
    a cached payload's parts reach the socket without ever being copied
    next to their meta header or each other.
    """
    encoded = json_payload(meta)
    return (struct.pack("<I", len(encoded)) + encoded, *blobs)


def pack_body(meta: Dict, blob: Buffer = b"") -> bytes:
    """A ``CODEC_BINARY`` body: u32 meta length + JSON meta + raw blob.

    Used where a message carries both telemetry and tensor bytes (serve
    and predict responses, predict requests).  Chunking splits the packed
    bytes arbitrarily; :func:`unpack_body` parses the reassembled whole.
    """
    return b"".join(pack_body_parts(meta, blob))


def unpack_body(payload: Buffer) -> Tuple[Dict, memoryview]:
    """Split a ``CODEC_BINARY`` body back into ``(meta, blob)``.

    ``blob`` is a memoryview into ``payload`` — no copy; the consumer
    that needs it to outlive or be independent of ``payload`` copies it.
    """
    meta, blob = _split_body(payload)
    return parse_json(meta), blob


def _split_body(payload: Buffer) -> Tuple[memoryview, memoryview]:
    view = memoryview(payload)
    if len(view) < 4:
        raise FrameError("binary body shorter than its meta-length prefix")
    (meta_len,) = struct.unpack_from("<I", view)
    if 4 + meta_len > len(view):
        raise FrameError("binary body truncated inside its meta header")
    return view[4 : 4 + meta_len], view[4 + meta_len :]


# ----------------------------------------------------------------------
# SERVE / SERVED (protocol 2): encoded once, checked on read
# ----------------------------------------------------------------------
#: An untraced request or meta up to this size (every real one) is decoded
#: once per distinct bytes; a longer one every time, so no peer pins memory.
_MEMO_MAX_BYTES = 1024


@lru_cache(maxsize=4096)
def _serve_request(tasks: Tuple[str, ...], transport: str) -> bytes:
    return json_payload({"tasks": list(tasks), "transport": transport})


def serve_request(tasks: Tuple[str, ...], transport: str, trace: Optional[Dict] = None) -> bytes:
    """A ``SERVE`` request; untraced, encoded once per ``(tasks, transport)``."""
    if trace is None:
        return _serve_request(tasks, transport)
    return json_payload({"tasks": list(tasks), "transport": transport, "trace": trace})


def parse_serve_request(payload: Buffer) -> Tuple[Tuple[str, ...], str, Optional[Dict]]:
    """``(canonical task names, transport, trace or None)``; :class:`FrameError`
    on a mistyped field.  An untraced request repeats byte for byte (its
    client encodes it once), so it is decoded once."""
    raw = bytes(payload)
    if len(raw) > _MEMO_MAX_BYTES or b'"trace"' in raw:
        return _decode_serve_request(raw)
    return _untraced_serve_request(raw)


def _decode_serve_request(raw: bytes) -> Tuple[Tuple[str, ...], str, Optional[Dict]]:
    request = parse_json(raw)
    tasks, transport, trace = request.get("tasks"), request.get("transport"), request.get("trace")
    if not (isinstance(tasks, list) and all(isinstance(name, str) for name in tasks)):
        raise FrameError("SERVE: 'tasks' must be a list of task names")
    if transport not in TRANSPORTS:
        raise FrameError(f"SERVE: 'transport' must be one of {TRANSPORTS}, got {transport!r}")
    if not isinstance(trace, (dict, type(None))):
        raise FrameError("SERVE: 'trace' must be an object")
    return canonical_tasks(tasks), transport, trace


_untraced_serve_request = lru_cache(maxsize=4096)(_decode_serve_request)


def _served_meta(payload_cache_hit, coalesced, versions, trace_spans=None) -> bytes:
    meta: Dict[str, object] = {"coalesced": coalesced, "payload_cache_hit": payload_cache_hit}
    if versions is not None:
        meta["versions"] = list(versions)
    if trace_spans:
        meta["trace_spans"] = trace_spans
    return pack_body_parts(meta)[0]


_untraced_served_meta = lru_cache(maxsize=4096)(_served_meta)


def served_meta(payload_cache_hit: bool, coalesced: bool, versions, trace_spans=None) -> bytes:
    """A ``SERVED`` body's meta prefix: what the requester cannot know (the
    flags, the entry's versions, the worker's spans when traced).  Untraced,
    it is encoded once per ``(flags, versions)``: once per payload entry."""
    if trace_spans:
        return _served_meta(payload_cache_hit, coalesced, versions, trace_spans)
    return _untraced_served_meta(payload_cache_hit, coalesced, versions)


def parse_served(payload: Buffer) -> Tuple[bool, bool, Optional[Tuple[int, ...]], Sequence, memoryview]:
    """``(payload_cache_hit, coalesced, versions, trace spans, payload view)``
    of a ``SERVED`` body; :class:`FrameError` on a mistyped field.  An
    untraced meta is one of a few per worker entry, and is decoded once."""
    meta, blob = _split_body(payload)
    meta = bytes(meta)
    if len(meta) > _MEMO_MAX_BYTES or b'"trace_spans"' in meta:
        return (*_decode_served(meta), blob)
    return (*_untraced_served(meta), blob)


def _decode_served(meta: bytes) -> Tuple[bool, bool, Optional[Tuple[int, ...]], Sequence]:
    fields = parse_json(meta)
    hit, coalesced = fields.get("payload_cache_hit"), fields.get("coalesced")
    versions, spans = fields.get("versions"), fields.get("trace_spans", ())
    if type(hit) is not bool or type(coalesced) is not bool:
        raise FrameError("SERVED: 'payload_cache_hit' and 'coalesced' must be booleans")
    if versions is not None:
        if not (isinstance(versions, list) and all(type(v) is int for v in versions)):
            raise FrameError("SERVED: 'versions' must be a list of integers")
        versions = tuple(versions)
    if not isinstance(spans, (list, tuple)):
        raise FrameError("SERVED: 'trace_spans' must be a list")
    return hit, coalesced, versions, spans


_untraced_served = lru_cache(maxsize=4096)(_decode_served)


def payload_digest(blob: bytes) -> str:
    """Stable content digest of a mutation payload (hex blake2b-128).

    Mutation frames carry this in their meta and the worker recomputes it
    over the received blob before applying — a truncated or corrupted
    transfer is rejected before it can install partial heads.
    """
    import hashlib

    return hashlib.blake2b(blob, digest_size=16).hexdigest()
