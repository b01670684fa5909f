"""Frame-protocol property tests: round trips and malformed-input rejection."""

from __future__ import annotations

import json
import struct
import threading
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.net import client as net_client
from repro.net.frame import (
    CODEC_BINARY,
    CODEC_JSON,
    CODEC_NAMES,
    FLAG_END,
    HEADER_BYTES,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    MsgType,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    ProtocolMismatch,
    codec_for_transport,
    encode_buffers,
    encode_frame,
    encode_message,
    json_payload,
    pack_body,
    pack_body_parts,
    parse_served,
    parse_serve_request,
    send_buffers,
    serve_request,
    served_meta,
    transport_for_codec,
    unpack_body,
)
from repro.core.server import TRANSPORTS
from repro.serving.gateway import Served

_MSG_TYPES = st.sampled_from(
    [MsgType.HELLO, MsgType.FETCH_HEADS, MsgType.SERVE, MsgType.PREDICTED]
)
_CODECS = st.sampled_from(sorted(CODEC_NAMES))


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@given(
    msg_type=_MSG_TYPES,
    request_id=st.integers(min_value=0, max_value=2**64 - 1),
    payload=st.binary(max_size=4096),
    codec=_CODECS,
)
def test_single_frame_round_trip(msg_type, request_id, payload, codec):
    decoder = FrameDecoder()
    frames = decoder.feed(encode_frame(msg_type, request_id, payload, codec))
    assert len(frames) == 1
    (frame,) = frames
    assert frame.msg_type == msg_type
    assert frame.request_id == request_id
    assert frame.payload == payload
    assert frame.codec == codec
    assert frame.last
    assert decoder.pending_bytes == 0


@given(
    payload=st.binary(min_size=0, max_size=8192),
    chunk_bytes=st.integers(min_value=1, max_value=1024),
    request_id=st.integers(min_value=0, max_value=2**32),
)
def test_chunked_message_reassembles(payload, chunk_bytes, request_id):
    wire = b"".join(
        encode_message(MsgType.HEADS, request_id, payload, CODEC_BINARY, chunk_bytes)
    )
    frames = FrameDecoder().feed(wire)
    assert frames, "even an empty message yields one terminal frame"
    assert all(f.request_id == request_id for f in frames)
    assert all(not f.last for f in frames[:-1])
    assert frames[-1].last
    assert b"".join(f.payload for f in frames) == payload


@given(payload=st.binary(max_size=2048), split=st.integers(min_value=1, max_value=64))
def test_decoder_handles_arbitrary_feed_boundaries(payload, split):
    """A truncated frame stays pending; the remainder completes it."""
    wire = encode_frame(MsgType.SERVE, 7, payload, CODEC_BINARY)
    decoder = FrameDecoder()
    collected = []
    for start in range(0, len(wire), split):
        collected.extend(decoder.feed(wire[start : start + split]))
    assert len(collected) == 1
    assert collected[0].payload == payload
    assert decoder.pending_bytes == 0


def test_truncated_frame_is_not_yielded():
    wire = encode_frame(MsgType.PING, 1, b"x" * 100)
    decoder = FrameDecoder()
    assert decoder.feed(wire[:-1]) == []
    assert decoder.pending_bytes == len(wire) - 1
    (frame,) = decoder.feed(wire[-1:])
    assert frame.payload == b"x" * 100


# ----------------------------------------------------------------------
# Malformed input
# ----------------------------------------------------------------------
def _header(magic=MAGIC, version=PROTOCOL_VERSION, msg=MsgType.PING,
            flags=FLAG_END, codec=CODEC_JSON, request_id=1, length=0) -> bytes:
    return struct.pack("<4sBBBBQI", magic, version, msg, flags, codec, request_id, length)


def test_bad_magic_raises():
    with pytest.raises(FrameError, match="magic"):
        FrameDecoder().feed(_header(magic=b"HTTP"))


def test_version_mismatch_raises_protocol_mismatch():
    with pytest.raises(ProtocolMismatch, match="protocol"):
        FrameDecoder().feed(_header(version=PROTOCOL_VERSION + 1))


def test_oversize_declared_payload_raises():
    with pytest.raises(FrameError, match="cap"):
        FrameDecoder().feed(_header(length=MAX_PAYLOAD_BYTES + 1))


def test_oversize_encode_raises():
    class _Huge(bytes):
        def __len__(self) -> int:  # avoid allocating 64 MiB in a unit test
            return MAX_PAYLOAD_BYTES + 1

    with pytest.raises(FrameError, match="chunk"):
        encode_frame(MsgType.HEADS, 1, _Huge())


def test_unknown_codec_tag_rejected_everywhere():
    with pytest.raises(FrameError, match="codec"):
        encode_frame(MsgType.HEADS, 1, b"", codec=99)
    with pytest.raises(FrameError, match="codec"):
        FrameDecoder().feed(_header(codec=99))
    with pytest.raises(FrameError, match="codec"):
        transport_for_codec(99)
    with pytest.raises(FrameError, match="transport"):
        codec_for_transport("carrier-pigeon")


def test_transport_codec_tags_round_trip():
    from repro.core.server import TRANSPORTS

    for transport in TRANSPORTS:
        assert transport_for_codec(codec_for_transport(transport)) == transport


def test_transport_codec_tags_are_pinned():
    """Derived from ``TRANSPORTS``, but the wire values may not drift."""
    assert CODEC_NAMES == {0: "json", 1: "float32", 2: "uint8", 3: "raw+zlib", 5: "binary"}
    with pytest.raises(FrameError, match="codec"):  # the retired zstd tag
        FrameDecoder().feed(_header(codec=4))
    with pytest.raises(FrameError, match="transport"):
        codec_for_transport("zstd")


# ----------------------------------------------------------------------
# Binary bodies
# ----------------------------------------------------------------------
@given(blob=st.binary(max_size=2048), count=st.integers(min_value=0, max_value=99))
def test_body_round_trip(blob, count):
    meta, out = unpack_body(pack_body({"n": count, "s": "x"}, blob))
    assert meta == {"n": count, "s": "x"}
    assert out == blob


def test_truncated_body_raises():
    packed = pack_body({"k": 1}, b"tail")
    with pytest.raises(FrameError, match="meta"):
        unpack_body(packed[:2])
    with pytest.raises(FrameError, match="truncated"):
        unpack_body(packed[:6])


def test_header_size_constant_matches_struct():
    assert len(_header()) == HEADER_BYTES


# ----------------------------------------------------------------------
# Message reassembly limits
# ----------------------------------------------------------------------
def test_assembler_completes_messages():
    from repro.net.frame import Frame, MessageAssembler

    assembler = MessageAssembler()
    assert assembler.add(Frame(MsgType.HEADS, 9, b"ab", CODEC_BINARY, flags=0)) is None
    assert assembler.partial_messages == 1
    done = assembler.add(Frame(MsgType.HEADS, 9, b"cd", CODEC_BINARY, flags=FLAG_END))
    assert done == (MsgType.HEADS, CODEC_BINARY, 9, b"abcd")
    assert assembler.partial_messages == 0


def test_runaway_chunk_stream_rejected():
    """Non-terminal frames must not grow a message past the aggregate cap."""
    from repro.net.frame import Frame, MessageAssembler

    assembler = MessageAssembler(max_message_bytes=1000)
    chunk = Frame(MsgType.HEADS, 1, b"x" * 600, CODEC_BINARY, flags=0)
    assert assembler.add(chunk) is None
    with pytest.raises(FrameError, match="cap"):
        assembler.add(chunk)


def test_partial_message_count_capped():
    from repro.net.frame import Frame, MessageAssembler

    assembler = MessageAssembler(max_partial_messages=2)
    assembler.add(Frame(MsgType.HEADS, 1, b"a", CODEC_BINARY, flags=0))
    assembler.add(Frame(MsgType.HEADS, 2, b"b", CODEC_BINARY, flags=0))
    with pytest.raises(FrameError, match="partial"):
        assembler.add(Frame(MsgType.HEADS, 3, b"c", CODEC_BINARY, flags=0))
    # completing one message frees its slot
    assembler.add(Frame(MsgType.HEADS, 1, b"", CODEC_BINARY, flags=FLAG_END))
    assert assembler.add(Frame(MsgType.HEADS, 3, b"c", CODEC_BINARY, flags=0)) is None


def test_continuation_frame_may_not_change_type_or_codec():
    from repro.net.frame import Frame, MessageAssembler

    for changed in (
        Frame(MsgType.SERVED, 9, b"cd", CODEC_BINARY, flags=FLAG_END),
        Frame(MsgType.HEADS, 9, b"cd", CODEC_JSON, flags=FLAG_END),
    ):
        assembler = MessageAssembler()
        assembler.add(Frame(MsgType.HEADS, 9, b"ab", CODEC_BINARY, flags=0))
        with pytest.raises(FrameError, match="continuation"):
            assembler.add(changed)


def test_single_frame_message_passes_the_assembler_without_a_join():
    from repro.net.frame import Frame, MessageAssembler

    payload = bytearray(b"whole")
    done = MessageAssembler().add(Frame(MsgType.SERVED, 3, payload, CODEC_BINARY))
    assert done[3] is payload


# ----------------------------------------------------------------------
# The in-place path against feed(), the buffer lists against the v1 wire
# ----------------------------------------------------------------------
def _reference_wire(msg_type, request_id, payload, codec, chunk_bytes) -> bytes:
    """The v1 encoder as first written: slice, pack a header, concatenate."""
    wire = b""
    for start in range(0, max(len(payload), 1), chunk_bytes):
        chunk = payload[start : start + chunk_bytes]
        flags = FLAG_END if start + chunk_bytes >= len(payload) else 0
        wire += _header(msg=msg_type, flags=flags, codec=codec,
                        request_id=request_id, length=len(chunk)) + chunk
    return wire


def _fields(frames):
    return [(f.msg_type, f.request_id, bytes(f.payload), f.codec, f.flags) for f in frames]


def _fill_in_place(decoder, wire, sizes):
    """Drive writable()/received() like ``recv_into`` returning ``sizes``."""
    frames, offset, turn = [], 0, 0
    while offset < len(wire):
        target = decoder.writable()
        assert len(target) > 0
        count = min(len(target), sizes[turn % len(sizes)], len(wire) - offset)
        target[:count] = wire[offset : offset + count]
        offset += count
        turn += 1
        frame = decoder.received(count)
        if frame is not None:
            frames.append(frame)
    return frames


_MESSAGES = st.lists(
    st.tuples(
        _MSG_TYPES,
        st.integers(min_value=0, max_value=2**64 - 1),
        st.binary(max_size=2048),
        _CODECS,
        # where the payload splits into its three parts (meta prefix, blob,
        # a buffer view behind it: the shape a remote predict sends)
        st.tuples(
            st.integers(min_value=0, max_value=2048),
            st.integers(min_value=0, max_value=2048),
        ).map(sorted),
    ),
    min_size=1,
    max_size=5,
)


@given(
    messages=_MESSAGES,
    chunk_bytes=st.integers(min_value=1, max_value=700),
    sizes=st.lists(st.integers(min_value=1, max_value=1 << 14), min_size=1, max_size=8),
)
def test_in_place_path_and_buffer_lists_match_feed_and_the_v1_wire(
    messages, chunk_bytes, sizes
):
    wire = b""
    for msg_type, request_id, payload, codec, (first, second) in messages:
        reference = _reference_wire(msg_type, request_id, payload, codec, chunk_bytes)
        parts = (payload[:first], payload[first:second], memoryview(payload)[second:])
        gathered = b"".join(
            b"".join(buffers)
            for buffers in encode_buffers(msg_type, request_id, parts, codec, chunk_bytes)
        )
        assert gathered == reference
        assert b"".join(
            encode_message(msg_type, request_id, payload, codec, chunk_bytes)
        ) == reference
        wire += reference
    fed = FrameDecoder().feed(wire)
    decoder = FrameDecoder()
    assert _fields(_fill_in_place(decoder, wire, sizes)) == _fields(fed)
    assert decoder.pending_bytes == 0


@given(blob=st.binary(max_size=2048), count=st.integers(min_value=0, max_value=99))
def test_body_parts_join_to_the_packed_body(blob, count):
    prefix, same_blob = pack_body_parts({"n": count}, blob)
    assert same_blob is blob
    assert prefix + blob == pack_body({"n": count}, blob)


# ----------------------------------------------------------------------
# A scripted socket: replays a byte stream, records what is sent
# ----------------------------------------------------------------------
class _FakeSocket:
    def __init__(self, stream: bytes = b"", recv_step: int = 1 << 20,
                 send_steps=(1 << 30,), timeout=None) -> None:
        self._stream = memoryview(stream)
        self._recv_step = recv_step
        self._send_steps = list(send_steps)
        self._timeout = timeout
        self.calls = []  # the buffer list of every sendmsg
        self.sent = bytearray()

    def setsockopt(self, *args) -> None:
        pass

    def settimeout(self, timeout) -> None:
        self._timeout = timeout

    def gettimeout(self):
        return self._timeout

    def sendmsg(self, buffers) -> int:
        buffers = list(buffers)
        self.calls.append(buffers)
        step = self._send_steps[min(len(self.calls), len(self._send_steps)) - 1]
        taken = b"".join(buffers)[:step]
        self.sent += taken
        return len(taken)

    def recv_into(self, target) -> int:
        count = min(len(target), self._recv_step, len(self._stream))
        target[:count] = self._stream[:count]
        self._stream = self._stream[count:]
        return count  # 0 once the script ran out: the peer hung up

    def close(self) -> None:
        pass


def _channel(monkeypatch, *responses: bytes, **socket_options):
    """A handshaken ``_SyncChannel`` over a socket scripted with ``responses``."""
    hello_ok = encode_frame(MsgType.HELLO_OK, 0, json_payload({"features": []}))
    request_ids = iter(range(1 << 30))
    sock = _FakeSocket(hello_ok + b"".join(responses), **socket_options)
    monkeypatch.setattr(net_client._SyncChannel, "_ids", request_ids)
    monkeypatch.setattr(
        net_client.socket, "create_connection", lambda address, timeout=None: sock
    )
    return net_client._SyncChannel(("fake", 0), timeout=5.0), sock


@given(
    parts=st.lists(st.binary(max_size=300), min_size=1, max_size=4),
    steps=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=6),
)
def test_partial_sendmsg_is_completed(parts, steps):
    sock = _FakeSocket(send_steps=steps + [1 << 30], timeout=5.0)
    send_buffers(sock, parts)
    assert bytes(sock.sent) == b"".join(parts)


def test_partial_sendmsg_gives_up_at_the_socket_timeout():
    sock = _FakeSocket(send_steps=[1], timeout=0.0)
    with pytest.raises(TimeoutError):
        send_buffers(sock, [b"abc"])


@pytest.mark.parametrize(
    "header, error, match",
    [
        (dict(length=MAX_PAYLOAD_BYTES + 1), FrameError, "cap"),
        (dict(magic=b"HTTP"), FrameError, "magic"),
        (dict(version=PROTOCOL_VERSION + 1), ProtocolMismatch, "protocol"),
        (dict(codec=99, length=MAX_PAYLOAD_BYTES), FrameError, "codec"),
    ],
)
def test_hostile_header_is_rejected_before_any_payload_sized_allocation(
    header, error, match
):
    wire = _header(**header)
    decoder = FrameDecoder()
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            _fill_in_place(decoder, wire, [7])
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_stream_cut_mid_payload_raises_and_leaves_the_channel_dirty(monkeypatch):
    cut = _header(msg=MsgType.SERVED, codec=CODEC_BINARY, request_id=1, length=1000)
    channel, _sock = _channel(monkeypatch, cut + b"x" * 10, recv_step=13)
    assert not channel.dirty
    with pytest.raises(ConnectionError, match="mid-response"):
        channel.request(MsgType.SERVE, (json_payload({}),))
    assert channel.dirty


# ----------------------------------------------------------------------
# Zero-copy regressions
# ----------------------------------------------------------------------
def test_served_payload_reaches_sendmsg_by_identity():
    from repro.net.server import ShardServer
    from repro.serving.gateway import GatewayResponse

    payload = bytes(range(256)) * 64

    class _Shard:
        shard_id = 0

        def serve(self, tasks, transport, found=None):
            return GatewayResponse(
                parts=(payload,), tasks=tuple(tasks), transport=transport,
                queue_seconds=0.0, service_seconds=0.0,
                payload_cache_hit=True, coalesced=False,
            )

    server = ShardServer(_Shard(), request_workers=1)
    sock = _FakeSocket()
    try:
        request = json_payload({"tasks": ["a"], "transport": "float32"})
        server._handle_serve(sock, threading.Lock(), 1, request, CODEC_JSON)
    finally:
        server.close()
    (buffers,) = sock.calls  # one frame, one sendmsg
    assert buffers[-1] is payload
    (frame,) = FrameDecoder().feed(bytes(sock.sent))
    meta, blob = unpack_body(frame.payload)
    assert frame.msg_type == MsgType.SERVED
    assert meta == {"coalesced": False, "payload_cache_hit": True}
    assert blob == payload


def test_a_worker_payload_hit_reaches_send_buffers_as_the_stores_segments(
    net_pool, monkeypatch
):
    """A worker's cached payload goes out as its head plus the segment
    objects the shard's store holds: never joined on the way to the socket."""
    import repro.net.server as net_server
    from repro.cluster import PoolShard
    from repro.core import deserialize_task_model
    from repro.core.pool import LIBRARY_TASK

    pool = net_pool[0]
    names = sorted(pool.expert_names())[:2]
    shard = PoolShard(0, pool, names)
    server = net_server.ShardServer(shard, request_workers=1)
    sent = []
    real_send = net_server.send_buffers

    def capture(conn, buffers):
        sent.append(list(buffers))
        real_send(conn, buffers)

    monkeypatch.setattr(net_server, "send_buffers", capture)
    request = json_payload({"tasks": names, "transport": "uint8"})
    try:
        for _ in range(3):  # a refused build, a kept one, then a payload-tier hit
            server._handle_serve(_FakeSocket(), threading.Lock(), 1, request, CODEC_JSON)
    finally:
        server.close()
        shard.close()
    store = shard.pool.segments
    segments = [store.get(LIBRARY_TASK, "uint8", shard.pool.library)]
    segments += [store.get(name, "uint8", shard.pool.experts[name]) for name in names]
    (hit,) = sent[2:]  # one frame: the payload is under the chunk size
    assert [b for b in hit if any(b is s for s in segments)] == segments
    meta, blob = unpack_body(b"".join(bytes(b) for b in hit)[HEADER_BYTES:])
    assert meta["payload_cache_hit"] and meta["versions"] == list(shard.pool.versions(names))
    assert [task.name for task in deserialize_task_model(blob).task.tasks] == names


def test_receiving_a_large_message_allocates_its_buffer_and_one_copy(monkeypatch):
    size = 1 << 20
    blob = bytes(size)
    served = encode_frame(
        MsgType.SERVED, 1, served_meta(True, False, (1, 2)) + blob, CODEC_BINARY
    )
    channel, _sock = _channel(monkeypatch, served, recv_step=1 << 16)
    tracemalloc.start()
    try:
        _msg, _codec, body = channel.request(MsgType.SERVE, (json_payload({}),))
        hit, coalesced, versions, _spans, view = parse_served(body)
        response = Served((view,), hit, coalesced, versions)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert type(response.payload) is bytes and response.payload == blob
    assert peak < 2.2 * size


# ----------------------------------------------------------------------
# SERVE / SERVED: round trips and hostile input on both ends
# ----------------------------------------------------------------------
_TRACES = st.none() | st.fixed_dictionaries(
    {"trace_id": st.text(max_size=16), "parent_id": st.text(max_size=16)}
)


@given(
    names=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=5),
    transport=st.sampled_from(TRANSPORTS),
    trace=_TRACES,
)
@example(
    names=["tâche", "任务", 'q"\\'], transport="uint8", trace={"trace_id": "é", "parent_id": ""}
)
def test_serve_request_round_trip(names, transport, trace):
    payload = serve_request(tuple(names), transport, trace)
    assert parse_serve_request(bytearray(payload)) == (tuple(sorted(set(names))), transport, trace)


@given(
    hit=st.booleans(),
    coalesced=st.booleans(),
    versions=st.none() | st.lists(st.integers(min_value=0, max_value=2**53), max_size=6),
    spans=st.lists(st.dictionaries(st.text(max_size=6), st.integers()), max_size=3),
    blob=st.binary(max_size=512),
)
def test_served_round_trip(hit, coalesced, versions, spans, blob):
    versions = None if versions is None else tuple(versions)
    body = bytearray(served_meta(hit, coalesced, versions, spans) + blob)
    got_hit, got_coalesced, got_versions, got_spans, got_blob = parse_served(body)
    got = (got_hit, got_coalesced, got_versions, list(got_spans))
    assert got == (hit, coalesced, versions, spans)
    assert bytes(got_blob) == blob


def test_an_untraced_served_meta_is_encoded_once_per_entry():
    assert served_meta(True, False, (3, 1)) is served_meta(True, False, (3, 1))
    assert serve_request(("a",), "float32") is serve_request(("a",), "float32")


def test_only_short_untraced_requests_are_decoded_once():
    from repro.net import frame

    short, long = serve_request(("a",), "uint8"), serve_request(("b" * 2000,), "uint8")
    assert parse_serve_request(short) is parse_serve_request(bytearray(short))
    assert parse_serve_request(long) is not parse_serve_request(long)
    before = frame._untraced_serve_request.cache_info().currsize
    parse_serve_request(serve_request(("c",), "uint8", {"trace_id": "t", "parent_id": "p"}))
    assert frame._untraced_serve_request.cache_info().currsize == before


_HOSTILE_SERVES = [
    b"",
    b"\xff\xfe",
    b"[1, 2]",
    b'{"transport": "float32"}',
    b'{"tasks": "a", "transport": "float32"}',
    b'{"tasks": ["a", 7], "transport": "float32"}',
    b'{"tasks": ["a"]}',
    b'{"tasks": ["a"], "transport": 5}',
    b'{"tasks": ["a"], "transport": "bogus"}',
    b'{"tasks": ["a"], "transport": "float32", "trace": [1]}',
]


@pytest.mark.parametrize("payload", _HOSTILE_SERVES)
def test_a_hostile_serve_request_is_a_frame_error(payload):
    with pytest.raises(FrameError):
        parse_serve_request(payload)


def _meta(text: bytes) -> bytes:
    return struct.pack("<I", len(text)) + text


_HOSTILE_SERVEDS = [
    b"",  # shorter than the meta-length prefix
    b"\x10\x00",
    struct.pack("<I", 64) + b'{"coalesced":false}',  # meta length past the body
    _meta(b'{"coalesced":false,"payload_cache_hit":tr'),  # truncated meta
    _meta(b"[]"),
    _meta(b'{"coalesced":false}'),
    _meta(b'{"coalesced":0,"payload_cache_hit":true}'),
    _meta(b'{"coalesced":false,"payload_cache_hit":"yes"}'),
    _meta(b'{"coalesced":false,"payload_cache_hit":true,"versions":"1,2"}'),
    _meta(b'{"coalesced":false,"payload_cache_hit":true,"versions":[1,"2"]}'),
    _meta(b'{"coalesced":false,"payload_cache_hit":true,"versions":[true]}'),
    _meta(b'{"coalesced":false,"payload_cache_hit":true,"trace_spans":{}}'),
]


@pytest.mark.parametrize("body", _HOSTILE_SERVEDS)
def test_a_hostile_served_body_is_a_frame_error(body):
    with pytest.raises(FrameError):
        parse_served(body)


@pytest.mark.parametrize("body", _HOSTILE_SERVEDS[:4])
def test_a_served_body_cut_short_fails_the_client_and_never_hangs(monkeypatch, body):
    from repro.net.client import RemoteShardClient

    served = encode_frame(MsgType.SERVED, 1, body, CODEC_BINARY)
    _channel(monkeypatch, served)
    monkeypatch.setattr(RemoteShardClient, "_channel_alive", staticmethod(lambda _c: True))
    with RemoteShardClient(("fake", 0)) as client, pytest.raises(FrameError):
        client.serve(("a",))


@pytest.mark.parametrize("payload", _HOSTILE_SERVES)
def test_a_worker_answers_a_hostile_serve_with_a_typed_error(net_pool, payload):
    """Dispatched as the reader thread would: the reader survives, and the
    request pool answers one ``ERROR`` frame naming a ``FrameError``."""
    from repro.cluster import PoolShard
    from repro.net.server import ShardServer

    shard = PoolShard(0, net_pool[0], sorted(net_pool[0].expert_names())[:1])
    server = ShardServer(shard, request_workers=1)
    sock = _FakeSocket()
    try:
        server._dispatch(sock, threading.Lock(), MsgType.SERVE, 9, bytearray(payload), CODEC_JSON)
    finally:
        server.close()  # waits for the pooled request
        shard.close()
    (frame,) = FrameDecoder().feed(bytes(sock.sent))
    error = json.loads(bytes(frame.payload))
    assert (frame.msg_type, frame.request_id, error["type"]) == (MsgType.ERROR, 9, "FrameError")
    assert shard.gateway.payload_cache.stats().misses == 0  # nothing was looked up
