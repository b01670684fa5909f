"""Model payloads: what model delivery ships (paper Figure 1b).

In the paper's AIaaS picture the server does not run inference for the
client — it *ships the task-specific model* so the client can run it
on-device.  This module is that boundary's format:
:func:`serialize_task_model` packs a consolidated ``M(Q)`` (library + the
queried expert heads + a manifest) into self-contained bytes, and
:func:`deserialize_task_model` rebuilds a runnable
:class:`~repro.core.query.TaskSpecificModel` from them with no access to
the server's pool.  :meth:`repro.serving.ServingGateway.serve` is the
server side (cached, coalesced).

Every payload — a whole model, a set of expert heads
(:func:`serialize_expert_heads`, what :mod:`repro.cluster` fetches and
migrates) or the bare library trunk (:func:`serialize_library_state`) —
is one **segment container** (``docs/wire-protocol.md`` has the prose):

.. code-block:: text

    b"POES" | u32 header_len | header JSON | segment blobs, back to back
    header  = {"manifest": {...}, "segments": [[name, nbytes], ...]}
    segment = u32 index_len | index JSON | one zlib block
    index   = {"arrays": [{"name", "dtype", "shape", "offset", "nbytes"}, ...],
               "raw_nbytes": N, "quant": {array name: [scale, zero_point]}}

A segment is one module's state (``library`` or ``expert:<task>``) with
everything needed to decode it, quantisation parameters included, so its
bytes do not depend on which composite names it.  A pool's
:class:`~repro.core.pool.SegmentStore` therefore keeps each module's
encoded form once: with a store, assembling ``M(Q)`` is a manifest plus
the cached buffers — no tensor is touched, nothing is compressed, and
with ``as_parts=True`` nothing is joined either (the serving tiers hold
and send the parts as they are).  Without a store the same code encodes
fresh and yields the same bytes.

The header is written from JSON text encoded once (:func:`_write_parts`):
each task's manifest entry, the arch block, the quoted transport and the
segment names come from bounded memos keyed on the value they encode, and
only the segment lengths (and a head fetch's versions) are formatted per
call.  Its bytes are unchanged: exactly what one ``json.dumps`` of the
header writes with the default separators, which makes those defaults
part of the format (``docs/wire-protocol.md``).

``float32`` and ``raw+zlib`` both ship float32 tensors (bit-exact);
``uint8`` ships per-tensor affine-quantised ones (``repro.compress``:
about a quarter of the bytes at a small accuracy cost).  Payloads are
never persisted and both ends of a socket run one checkout: bytes that are
not a well-formed container of this layout raise :class:`PayloadError`.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..compress import dequantize_tensor, quantize_tensor
from ..compress.quantize import QuantizedTensor
from ..data.hierarchy import CompositeTask, PrimitiveTask
from ..models import BranchedSpecialistNet, WRNHead, WRNTrunk
from .pool import LIBRARY_TASK, PoolSnapshot, SegmentStore
from .query import TaskSpecificModel

__all__ = [
    "TRANSPORTS",
    "MAX_SEGMENT_RAW_BYTES",
    "PayloadError",
    "serialize_task_model",
    "deserialize_task_model",
    "share_segments",
    "serialize_expert_heads",
    "deserialize_expert_heads",
    "serialize_library_state",
    "deserialize_library_state",
    "RemoteExpert",
]

#: Supported payload encodings; serving layers validate against this and
#: the frame codec tags (``repro.net.frame``) are derived from its order.
TRANSPORTS = ("float32", "uint8", "raw+zlib")

#: Largest tensor block one segment may declare (and so inflate to); a
#: bigger ``raw_nbytes`` is refused before anything is decompressed.
MAX_SEGMENT_RAW_BYTES = 256 << 20

_MAGIC = b"POES"
_U32 = struct.Struct("<I")
_ITEMSIZE = {"float32": 4, "uint8": 1}


class PayloadError(ValueError):
    """The bytes are not a well-formed payload container."""


def _check_transport(transport: str) -> None:
    if transport not in TRANSPORTS:
        raise ValueError(f"transport must be one of {TRANSPORTS}, got {transport!r}")


def _encode_segment(state: Dict[str, np.ndarray], quantize: bool) -> bytes:
    """One module's state as ``u32 index_len | index JSON | zlib block``."""
    arrays, chunks, quant, offset = [], [], {}, 0
    for name, value in state.items():
        if quantize:
            qt = quantize_tensor(np.asarray(value))
            value, quant[name] = qt.values, [qt.scale, qt.zero_point]
        else:
            value = np.asarray(value, dtype=np.float32)
        raw = np.ascontiguousarray(value).tobytes()
        arrays.append(
            {
                "name": name,
                "dtype": str(value.dtype),
                "shape": list(value.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        offset += len(raw)
        chunks.append(raw)
    index = json.dumps({"arrays": arrays, "raw_nbytes": offset, "quant": quant}).encode()
    return b"".join((_U32.pack(len(index)), index, zlib.compress(b"".join(chunks), 6)))


def _segment(store: Optional[SegmentStore], key: str, module, transport: str) -> bytes:
    """``module``'s encoded segment, from ``store`` when it holds this very object."""
    encoding = "uint8" if transport == "uint8" else "float32"
    blob = None if store is None else store.get(key, encoding, module)
    if blob is None:
        blob = _encode_segment(module.state_dict(), encoding == "uint8")
        if store is not None:
            store.put(key, encoding, module, blob)
    return blob


#: Distinct values each header-fragment memo keeps encoded: the tasks,
#: the composites (as task tuples) and the segment-name lists a pool
#: serves, one arch and three transports.
_FRAGMENTS = 4096


@lru_cache(maxsize=_FRAGMENTS)
def _quoted(text: str) -> bytes:
    """``text`` as a JSON string (``json.dumps`` escapes all but ASCII)."""
    return json.dumps(text).encode()


@lru_cache(maxsize=_FRAGMENTS)
def _task_json(prim: PrimitiveTask) -> bytes:
    """One manifest ``tasks`` entry, keyed on the whole task (class ids are ints)."""
    return json.dumps(
        {"name": prim.name, "classes": list(prim.classes), "class_names": list(prim.class_names)}
    ).encode()


@lru_cache(maxsize=_FRAGMENTS)
def _tasks_json(tasks: Tuple[PrimitiveTask, ...]) -> bytes:
    """The manifest ``tasks`` list, joined from each task's entry."""
    return b"[%b]" % b", ".join([_task_json(prim) for prim in tasks])


@lru_cache(maxsize=_FRAGMENTS, typed=True)  # typed: 1 and 1.0 encode differently
def _arch_numbers_json(depth, k_c, k_s, library_level) -> bytes:
    return json.dumps(
        {"depth": depth, "k_c": k_c, "k_s": k_s, "library_level": library_level}
    ).encode()


def _arch_json(config) -> bytes:
    """The manifest ``arch`` block: what a client needs to rebuild the modules."""
    return _arch_numbers_json(
        config.library_depth, config.library_k, config.expert_ks, config.library_level
    )


@lru_cache(maxsize=_FRAGMENTS)
def _segments_format(library: bool, heads: Tuple[str, ...]) -> bytes:
    """The header's ``segments`` list — ``library`` if shipped, then
    ``expert:<task>`` per head — with a ``%d`` for each length."""
    names = ["library"] * library + [f"expert:{name}" for name in heads]
    escaped = [_quoted(name).replace(b"%", b"%%") for name in names]
    return b"[%b]" % b", ".join([b"[%b, %%d]" % name for name in escaped])


def _write_parts(manifest: bytes, segments: bytes, blobs: Sequence[bytes]) -> Tuple[bytes, ...]:
    """``(container head, *blobs)``: a payload, its parts unjoined.

    ``manifest`` is the manifest object's JSON text and ``segments`` the
    :func:`_segments_format` the blobs fill in; the header written from
    them is byte for byte ``json.dumps({"manifest": ..., "segments":
    [[name, nbytes], ...]})``.  The head is the only new object; the blobs
    are passed through as given, so with a store they are the store's own
    ``bytes``.
    """
    header = b'{"manifest": %b, "segments": %b}' % (manifest, segments % tuple(map(len, blobs)))
    return (_MAGIC + _U32.pack(len(header)) + header, *blobs)


def _take_json(view: memoryview, what: str) -> Tuple[Dict, memoryview]:
    """Split ``u32 len | JSON object | rest`` off the front of ``view``."""
    if len(view) < _U32.size:
        raise PayloadError(f"payload truncated before the {what} length")
    (length,) = _U32.unpack_from(view)
    rest = view[_U32.size :]
    if length > len(rest):
        raise PayloadError(f"{what} length {length} runs past the buffer ({len(rest)} left)")
    parsed = json.loads(bytes(rest[:length]))
    if not isinstance(parsed, dict):
        raise PayloadError(f"{what} is not a JSON object")
    return parsed, rest[length:]


def _decode_segment(view: memoryview) -> Dict[str, np.ndarray]:
    """Inflate one segment (bounded) into a float32 state dict."""
    index, block = _take_json(view, "segment index")
    arrays, raw_nbytes = index["arrays"], index["raw_nbytes"]
    if not 0 <= raw_nbytes <= MAX_SEGMENT_RAW_BYTES:
        raise PayloadError(
            f"segment declares {raw_nbytes} raw bytes (limit {MAX_SEGMENT_RAW_BYTES})"
        )
    if sum(entry["nbytes"] for entry in arrays) != raw_nbytes:
        raise PayloadError("segment raw_nbytes is not the sum of its arrays")
    inflater = zlib.decompressobj()
    raw = inflater.decompress(block, raw_nbytes + 1)  # never past the declared size
    if len(raw) != raw_nbytes or not inflater.eof or inflater.unused_data:
        raise PayloadError(f"segment block does not inflate to its declared {raw_nbytes} bytes")
    state: Dict[str, np.ndarray] = {}
    for entry in arrays:
        dtype, shape = entry["dtype"], tuple(entry["shape"])
        offset, nbytes = entry["offset"], entry["nbytes"]
        if dtype not in _ITEMSIZE or any(dim < 0 for dim in shape):
            raise PayloadError(f"array {entry['name']!r} has dtype {dtype!r}, shape {shape}")
        if offset < 0 or nbytes < 0 or offset + nbytes > raw_nbytes:
            raise PayloadError(f"array {entry['name']!r} lies outside its block")
        if math.prod(shape) * _ITEMSIZE[dtype] != nbytes:
            raise PayloadError(f"array {entry['name']!r}: {dtype}{shape} is not {nbytes} bytes")
        value = np.frombuffer(raw, dtype, nbytes // _ITEMSIZE[dtype], offset).reshape(shape)
        if entry["name"] in index["quant"]:
            scale, zero = index["quant"][entry["name"]]
            value = dequantize_tensor(QuantizedTensor(value, float(scale), float(zero), shape))
        state[entry["name"]] = value
    return state


#: What hostile bytes can trip in the decoder and the module rebuild.
_HOSTILE = (LookupError, TypeError, ValueError, AttributeError, ArithmeticError)
_HOSTILE += (RecursionError, struct.error, zlib.error)


@contextmanager
def _malformed():
    """Re-raise whatever hostile bytes trip while decoding as :class:`PayloadError`."""
    try:
        yield
    except PayloadError:
        raise
    except _HOSTILE as error:
        raise PayloadError(f"malformed payload: {type(error).__name__}: {error}") from error


def _split(payload) -> Tuple[Dict, Tuple[memoryview, ...]]:
    """``(header, (container head, *segments))``: ``payload`` cut along its
    header's segment lengths, as views into it."""
    view = memoryview(payload).cast("B")
    if view[: len(_MAGIC)] != _MAGIC:
        raise PayloadError("not a payload container (bad magic)")
    header, body = _take_json(view[len(_MAGIC) :], "header")
    segments = header["segments"]
    if sum(nbytes for _, nbytes in segments) != len(body) or any(n < 0 for _, n in segments):
        raise PayloadError("segment lengths do not sum to the bytes after the header")
    offset = len(view) - len(body)
    parts = [view[:offset]]
    for _name, nbytes in segments:
        parts.append(view[offset : offset + nbytes])
        offset += nbytes
    return header, tuple(parts)


def _decode_payload(payload) -> Tuple[Dict, Dict[str, Dict[str, np.ndarray]]]:
    """Unpack any bytes-like payload into ``(manifest, {segment name: state})``."""
    with _malformed():
        header, parts = _split(payload)
        manifest = header["manifest"]
        if not isinstance(manifest, dict):
            raise PayloadError("manifest is not a JSON object")
        names = [name for name, _ in header["segments"]]
        return manifest, {name: _decode_segment(part) for name, part in zip(names, parts[1:])}


def _build_trunk(arch: Dict, state: Dict[str, np.ndarray]) -> WRNTrunk:
    trunk = WRNTrunk(
        int(arch["depth"]), float(arch["k_c"]), float(arch["k_s"]), int(arch["library_level"])
    )
    trunk.load_state_dict(state)
    trunk.requires_grad_(False)
    return trunk


def _build_head(arch: Dict, entry: Dict, states: Dict) -> Tuple[PrimitiveTask, WRNHead]:
    """Rebuild one manifest task entry and its head from the decoded segments."""
    prim = PrimitiveTask(entry["name"], tuple(entry["classes"]), tuple(entry["class_names"]))
    head = WRNHead(
        int(arch["depth"]),
        float(arch["k_c"]),
        float(arch["k_s"]),
        num_classes=len(prim),
        library_level=int(arch["library_level"]),
    )
    head.load_state_dict(states[f"expert:{prim.name}"])
    return prim, head


def serialize_task_model(
    network: Union[BranchedSpecialistNet, PoolSnapshot],
    composite: CompositeTask,
    config,
    transport: str = "float32",
    store: Optional[SegmentStore] = None,
    *,
    as_parts: bool = False,
) -> Union[bytes, Tuple[bytes, ...]]:
    """Pack a consolidated model into self-contained payload bytes.

    The payload holds the library trunk's segment, one segment per head,
    and a JSON manifest describing the architecture so the client can
    rebuild the modules without the server's objects.  Only ``network``'s
    ``trunk`` / ``head_names`` / ``heads`` are read, so a
    :class:`~repro.core.pool.PoolSnapshot` serializes as is.  ``store`` is
    the owning pool's :attr:`~repro.core.pool.PoolOfExperts.segments`; it
    only saves the encoding work, the bytes are the same without it.

    ``as_parts=True`` returns the payload unjoined, as ``(container head,
    library segment, *head segments)`` whose concatenation is the bytes:
    the segments are the store's own objects, so a holder of the parts
    owns only the head.
    """
    _check_transport(transport)
    names = tuple(network.head_names)
    blobs = [_segment(store, LIBRARY_TASK, network.trunk, transport)]
    blobs += [_segment(store, name, head, transport) for name, head in zip(names, network.heads)]
    manifest = b'{"transport": %b, "tasks": %b, "arch": %b}' % (
        _quoted(transport),
        _tasks_json(composite.tasks),
        _arch_json(config),
    )
    parts = _write_parts(manifest, _segments_format(True, names), blobs)
    return parts if as_parts else b"".join(parts)


def share_segments(
    parts: Sequence, pool, names: Sequence[str], transport: str
) -> Tuple[Tuple[bytes, ...], int]:
    """``(parts, owned)``: a served payload of ``names``, ready to be held
    next to ``pool``.

    ``parts`` is the payload in :func:`serialize_task_model`'s layout —
    joined, or as ``(container head, library segment, *head segments)`` —
    as ``bytes`` or as views into a receive buffer.  A segment that is
    byte-identical to ``pool``'s own encoding of the module it carries
    (out of ``pool.segments``, encoded there on first use) is replaced by
    that store object; the head and any other segment are copied out to
    ``bytes``, and ``owned`` counts those copies: what the parts alone
    keep alive.
    """
    if len(parts) == 1:
        with _malformed():
            parts = _split(parts[0])[1]  # views: nothing copied yet
    store = getattr(pool, "segments", None)
    if store is None or len(parts) != len(names) + 2:
        held = tuple(map(bytes, parts))
        return held, sum(map(len, held))
    modules = [pool.library] + [pool.experts.get(name) for name in names]
    held, owned = [bytes(parts[0])], len(parts[0])
    for key, module, part in zip((LIBRARY_TASK, *names), modules, parts[1:]):
        blob = None if module is None else _segment(store, key, module, transport)
        # startswith compares a view in place: == on a memoryview goes byte by byte
        if blob is not None and len(blob) == len(part) and (blob is part or blob.startswith(part)):
            held.append(blob)
        else:
            held.append(bytes(part))
            owned += len(part)
    return tuple(held), owned


def deserialize_task_model(payload) -> TaskSpecificModel:
    """Rebuild a runnable :class:`TaskSpecificModel` from payload bytes."""
    manifest, states = _decode_payload(payload)
    with _malformed():
        arch = manifest["arch"]
        trunk = _build_trunk(arch, states["library"])
        built = [_build_head(arch, entry, states) for entry in manifest["tasks"]]
        network = BranchedSpecialistNet(trunk, [(prim.name, head) for prim, head in built])
        network.eval()
        return TaskSpecificModel(network, CompositeTask(tuple(prim for prim, _ in built)))


@dataclass(frozen=True)
class RemoteExpert:
    """One expert head fetched from another shard, plus its identity."""

    task: PrimitiveTask
    head: WRNHead
    version: int


def serialize_expert_heads(
    pool,
    names: Sequence[str],
    transport: str = "raw+zlib",
    store: Optional[SegmentStore] = None,
) -> bytes:
    """Pack expert *heads only* (no library trunk) for cross-shard fetch.

    ``pool`` is anything with :meth:`~repro.core.pool.PoolOfExperts.snapshot`
    and a ``config``: the heads and the versions the manifest names are
    read together, so a concurrent re-extraction cannot ship a new head
    under its old version.  The cluster tier calls this on the owning
    shard and rebuilds the heads with :func:`deserialize_expert_heads` on
    the consolidating shard; with a float-exact transport
    (``float32``/``raw+zlib``) the round trip is bit-identical, so
    cross-shard consolidation matches a single pool.
    """
    _check_transport(transport)
    snapshot = pool.snapshot(names)
    versions = zip(snapshot.head_names, snapshot.versions)
    manifest = (
        b'{"kind": "expert_heads", "transport": %b, "tasks": %b, "versions": {%b}, "arch": %b}'
    ) % (
        _quoted(transport),
        _tasks_json(snapshot.composite.tasks),
        b", ".join([b"%b: %d" % (_quoted(name), version) for name, version in versions]),
        _arch_json(pool.config),
    )
    blobs = [
        _segment(store, name, head, transport)
        for name, head in zip(snapshot.head_names, snapshot.heads)
    ]
    return b"".join(_write_parts(manifest, _segments_format(False, snapshot.head_names), blobs))


def deserialize_expert_heads(payload) -> Dict[str, RemoteExpert]:
    """Rebuild fetched expert heads, keyed by primitive-task name."""
    manifest, states = _decode_payload(payload)
    if manifest.get("kind") != "expert_heads":
        raise ValueError("payload is not an expert-heads payload")
    with _malformed():
        out: Dict[str, RemoteExpert] = {}
        for entry in manifest["tasks"]:
            prim, head = _build_head(manifest["arch"], entry, states)
            out[prim.name] = RemoteExpert(
                task=prim, head=head, version=int(manifest["versions"][prim.name])
            )
        return out


def serialize_library_state(
    pool, transport: str = "raw+zlib", store: Optional[SegmentStore] = None
) -> bytes:
    """Pack the shared library trunk (no heads) for a REFRESH_LIBRARY push.

    The wire complement of :func:`serialize_expert_heads`: when the pool
    re-extracts its library, networked workers need the new trunk weights
    plus the library sentinel version so their view pools invalidate
    exactly like an in-process shard's would.  The trunk and its version
    are read together (:meth:`~repro.core.pool.PoolOfExperts.library_snapshot`).
    Only the trunk travels — serving never touches ``library_student``, so
    the distillation-side student stays behind.
    """
    _check_transport(transport)
    library, version = pool.library_snapshot()
    manifest = b'{"kind": "library_state", "transport": %b, "version": %d, "arch": %b}' % (
        _quoted(transport),
        version,
        _arch_json(pool.config),
    )
    blob = _segment(store, LIBRARY_TASK, library, transport)
    return b"".join(_write_parts(manifest, _segments_format(True, ()), [blob]))


def deserialize_library_state(payload) -> Tuple[WRNTrunk, int]:
    """Rebuild a pushed library trunk; returns ``(trunk, version)``."""
    manifest, states = _decode_payload(payload)
    if manifest.get("kind") != "library_state":
        raise ValueError("payload is not a library-state payload")
    with _malformed():
        return _build_trunk(manifest["arch"], states["library"]), int(manifest["version"])
