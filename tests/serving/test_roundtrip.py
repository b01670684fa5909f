"""Serialization round-trips: payload bytes must reconstruct the exact model.

float32 / raw+zlib must be bit-exact; uint8 must equal the
quantize→dequantize of the original weights (the only loss allowed is the
affine quantization itself).  The pool's segment store only saves encoding
work — with it cold, warm or absent the bytes are the same — and hostile
bytes fail with one typed, bounded error.
"""

import copy
import json
import struct
import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import PoolShard
from repro.compress import dequantize_tensor, quantize_tensor
from repro.core import (
    TRANSPORTS,
    PayloadError,
    deserialize_task_model,
    serialize_task_model,
)
from repro.core.server import MAX_SEGMENT_RAW_BYTES
from repro.distill import TrainConfig
from repro.serving import GatewayConfig, ServingGateway

NAMES = ("birds", "fish", "pets")
_SUBSETS = st.lists(st.sampled_from(NAMES), min_size=1, max_size=len(NAMES), unique=True)
_TRANSPORTS = st.sampled_from(TRANSPORTS)


def _flat_states(network):
    """(segment name, state_dict) pairs in the same layout the payload uses."""
    yield "library", network.trunk.state_dict()
    for name, head in zip(network.head_names, network.heads):
        yield f"expert:{name}", head.state_dict()


def _assert_states(network, rebuilt, transport):
    """``rebuilt`` holds exactly what ``transport`` promises of ``network``."""
    for (_, original), (_, restored) in zip(_flat_states(network), _flat_states(rebuilt)):
        assert set(original) == set(restored)
        for key in original:
            expected = np.asarray(original[key])
            if transport == "uint8":
                expected = dequantize_tensor(quantize_tensor(expected))
            assert np.array_equal(expected, np.asarray(restored[key])), key


def _perturbed(module):
    """An independent copy of ``module`` with every parameter moved."""
    clone = copy.deepcopy(module)
    for _, param in clone.named_parameters():
        param.data = param.data + np.float32(0.25)
    return clone


def _storeless(pool, names, transport):
    network, composite = pool.consolidate(list(names))
    return serialize_task_model(network, composite, pool.config, transport)


class TestFloat32Roundtrip:
    def test_states_bit_exact(self, named_pool):
        pool, _, _ = named_pool
        network, composite = pool.consolidate(["pets", "birds"])
        payload = serialize_task_model(network, composite, pool.config, "float32")
        _assert_states(network, deserialize_task_model(payload).network, "float32")

    def test_logits_bit_exact(self, named_pool):
        pool, data, _ = named_pool
        network, composite = pool.consolidate(["fish"])
        payload = serialize_task_model(network, composite, pool.config, "float32")
        rebuilt = deserialize_task_model(payload)
        x = data.test.images[:12]
        from repro.distill import batched_forward

        assert np.allclose(rebuilt.logits(x), batched_forward(network, x), atol=1e-6)

    def test_composite_metadata_travels(self, named_pool):
        pool, _, _ = named_pool
        network, composite = pool.consolidate(["birds", "pets"])
        rebuilt = deserialize_task_model(
            serialize_task_model(network, composite, pool.config, "float32")
        )
        assert rebuilt.task.names == composite.names
        assert rebuilt.task.classes == composite.classes
        assert rebuilt.class_names == tuple(
            n for t in composite.tasks for n in t.class_names
        )


class TestRawZlibRoundtrip:
    def test_states_bit_exact(self, named_pool):
        pool, _, _ = named_pool
        network, composite = pool.consolidate(["pets", "birds"])
        payload = serialize_task_model(network, composite, pool.config, "raw+zlib")
        _assert_states(network, deserialize_task_model(payload).network, "raw+zlib")

    def test_same_bytes_as_float32_apart_from_manifest(self, named_pool):
        """``raw+zlib`` and ``float32`` are two names for one encoding."""
        pool, _, _ = named_pool
        raw_header, raw_body = _split(_storeless(pool, ["fish"], "raw+zlib"))
        f32_header, f32_body = _split(_storeless(pool, ["fish"], "float32"))
        assert raw_body == f32_body
        assert raw_header["manifest"].pop("transport") == "raw+zlib"
        assert f32_header["manifest"].pop("transport") == "float32"
        assert raw_header == f32_header

    def test_metadata_travels(self, named_pool):
        pool, _, _ = named_pool
        network, composite = pool.consolidate(["birds", "pets"])
        rebuilt = deserialize_task_model(
            serialize_task_model(network, composite, pool.config, "raw+zlib")
        )
        assert rebuilt.task.names == composite.names
        assert rebuilt.task.classes == composite.classes


class TestUint8Roundtrip:
    def test_states_equal_quant_dequant(self, named_pool):
        """uint8 transport loses exactly the quantization error, nothing more."""
        pool, _, _ = named_pool
        network, composite = pool.consolidate(["pets", "fish"])
        payload = serialize_task_model(network, composite, pool.config, "uint8")
        _assert_states(network, deserialize_task_model(payload).network, "uint8")

    def test_second_roundtrip_is_stable(self, named_pool):
        """Quantization error must not compound: ship(ship(M)) == ship(M)."""
        pool, data, _ = named_pool
        network, composite = pool.consolidate(["birds"])
        once = deserialize_task_model(
            serialize_task_model(network, composite, pool.config, "uint8")
        )
        twice = deserialize_task_model(
            serialize_task_model(once.network, once.task, pool.config, "uint8")
        )
        x = data.test.images[:10]
        assert np.allclose(once.logits(x), twice.logits(x), atol=1e-4)

    def test_unknown_transport_rejected_by_gateway(self, named_pool):
        pool, _, _ = named_pool
        with ServingGateway(pool) as gateway, pytest.raises(ValueError):
            gateway.serve(("pets",), transport="float16")


def test_transports_are_what_exists(named_pool):
    pool, _, _ = named_pool
    assert TRANSPORTS == ("float32", "uint8", "raw+zlib")
    network, composite = pool.consolidate(["fish"])
    with pytest.raises(ValueError, match="transport"):
        serialize_task_model(network, composite, pool.config, "zstd")


# ----------------------------------------------------------------------
# The segment store changes the cost of a payload, never its bytes
# ----------------------------------------------------------------------
class TestSegmentStore:
    @given(names=_SUBSETS, transport=_TRANSPORTS)
    def test_cold_warm_and_no_store_are_byte_identical(self, named_pool, names, transport):
        pool, _, _ = named_pool
        view = pool.subset(NAMES)  # a view owns a fresh (cold) store
        assert len(view.segments) == 0
        network, composite = view.consolidate(sorted(names))
        cold = serialize_task_model(network, composite, view.config, transport, view.segments)
        warm = serialize_task_model(network, composite, view.config, transport, view.segments)
        assert cold == warm == _storeless(pool, sorted(names), transport)
        assert isinstance(warm, bytes)
        rebuilt = deserialize_task_model(warm)
        assert rebuilt.task.names == composite.names
        _assert_states(network, rebuilt.network, transport)

    def test_compresses_each_module_once_per_encoding(self, named_pool, monkeypatch):
        pool, _, _ = named_pool
        view = pool.subset(NAMES)
        compressions = []
        real_compress = zlib.compress

        def counting(*args, **kwargs):
            compressions.append(1)
            return real_compress(*args, **kwargs)

        monkeypatch.setattr(zlib, "compress", counting)
        queries = [("pets",), ("birds", "fish"), ("fish", "pets"), NAMES, ("birds",)]
        uncached = GatewayConfig(model_cache_bytes=0, payload_cache_bytes=0)
        with ServingGateway(view, uncached) as gateway:
            for transport in TRANSPORTS:
                for query in queries:
                    gateway.serve(query, transport)
            bound = (len(NAMES) + 1) * 2
            assert len(compressions) == len(view.segments) == bound
            assert view.segments.nbytes() < 1 << 20
            for transport in TRANSPORTS:  # warm store: distinct composites, no compression
                for query in queries:
                    served = gateway.serve(query, transport)
                    assert not served.payload_cache_hit
            assert len(compressions) == bound

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_attach_and_reextract_reach_the_next_payload(self, named_pool, transport):
        pool, data, _ = named_pool
        view = pool.subset(NAMES)
        before = serialize_task_model(
            *view.consolidate(["birds", "pets"]), view.config, transport, view.segments
        )
        assert len(view.segments) == 3  # library, birds, pets
        view.attach_expert("pets", _perturbed(view.experts["pets"]))
        assert len(view.segments) == 2  # the bump dropped the old head's bytes
        network, composite = view.consolidate(["birds", "pets"])
        attached = serialize_task_model(network, composite, view.config, transport, view.segments)
        assert attached != before
        assert attached == _storeless(view, ["birds", "pets"], transport)
        _assert_states(network, deserialize_task_model(attached).network, transport)

        view.extract_expert("birds", data.train.images[:48], train_config=TrainConfig(epochs=1))
        network, composite = view.consolidate(["birds", "pets"])
        extracted = serialize_task_model(network, composite, view.config, transport, view.segments)
        assert extracted != attached
        assert extracted == _storeless(view, ["birds", "pets"], transport)
        view.detach_expert("pets")
        assert len(view.segments) == 2  # library, birds: nothing kept for a detached expert
        # the source pool never saw the view's modules
        assert _storeless(pool, ["birds", "pets"], transport) == before

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_refresh_library_reaches_the_next_payload(self, named_pool, transport):
        pool, _, _ = named_pool
        shard = PoolShard(0, pool, NAMES)
        try:
            before = shard.serve(["fish"], transport).payload
            trunk = _perturbed(pool.library).requires_grad_(True)  # as trained
            shard.pool.install_library(trunk, None, 99)
            # held like every pool module from here on: frozen
            assert not any(p.requires_grad for p in shard.pool.library.parameters())
            after = shard.serve(["fish"], transport).payload
            assert after != before
            assert after == _storeless(shard.pool, ["fish"], transport)
            rebuilt = deserialize_task_model(after).network
            _assert_states(shard.pool.consolidate(["fish"])[0], rebuilt, transport)
        finally:
            shard.close()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_network_consolidated_before_a_bump_is_served_its_own_weights(
        self, named_pool, transport
    ):
        pool, _, _ = named_pool
        view = pool.subset(NAMES)
        stale_network, composite = view.consolidate(["pets"])
        serialize_task_model(stale_network, composite, view.config, transport, view.segments)
        view.attach_expert("pets", _perturbed(view.experts["pets"]))
        # serialized after the bump: the old modules' bytes, not the new head's
        stale = serialize_task_model(
            stale_network, composite, view.config, transport, view.segments
        )
        assert stale == serialize_task_model(stale_network, composite, view.config, transport)
        _assert_states(stale_network, deserialize_task_model(stale).network, transport)
        # and what it left in the store cannot answer for the new head
        fresh = serialize_task_model(
            *view.consolidate(["pets"]), view.config, transport, view.segments
        )
        assert fresh != stale
        assert fresh == _storeless(view, ["pets"], transport)

    def test_serializers_racing_a_mutator_ship_their_own_network(self, named_pool):
        """More threads than cores, a short switch interval: a payload built over
        the store is always the store-less bytes of the network it was built from."""
        pool, _, _ = named_pool
        view = pool.subset(NAMES)
        heads = [_perturbed(view.experts["pets"]), view.experts["pets"]]
        failures = []

        def serve():
            for _ in range(25):
                network, composite = view.consolidate(["pets"])
                args = (network, composite, view.config, "uint8")
                if serialize_task_model(*args, view.segments) != serialize_task_model(*args):
                    failures.append(network)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        workers = [threading.Thread(target=serve) for _ in range(4)]
        deadline = time.monotonic() + 60
        try:
            for worker in workers:
                worker.start()
            turn = 0
            while any(worker.is_alive() for worker in workers) and time.monotonic() < deadline:
                view.attach_expert("pets", heads[turn % 2])
                turn += 1
        finally:
            for worker in workers:
                worker.join(timeout=30)
            sys.setswitchinterval(interval)
        assert turn > 1
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []


# ----------------------------------------------------------------------
# Hostile payloads: one typed error, bounded work
# ----------------------------------------------------------------------
def _header_len(payload) -> int:
    return struct.unpack_from("<I", payload, 4)[0]


def _split(payload):
    """``(header dict, segment bytes)`` of a container."""
    end = 8 + _header_len(payload)
    return json.loads(payload[8:end]), payload[end:]


def _segment(arrays, raw=b"", raw_nbytes=None, quant=None, block=None) -> bytes:
    """A segment built by hand from the documented layout."""
    index = json.dumps(
        {
            "arrays": arrays,
            "raw_nbytes": len(raw) if raw_nbytes is None else raw_nbytes,
            "quant": quant or {},
        }
    ).encode()
    block = zlib.compress(raw) if block is None else block
    return struct.pack("<I", len(index)) + index + block


def _container(segments, lengths=None, magic=b"POES") -> bytes:
    header = json.dumps(
        {
            "manifest": {"transport": "float32", "tasks": [], "arch": {}},
            "segments": [[n, len(b)] for n, b in segments] if lengths is None else lengths,
        }
    ).encode()
    return magic + struct.pack("<I", len(header)) + header + b"".join(b for _, b in segments)


def _array(name="w", dtype="float32", shape=(2,), offset=0, nbytes=8):
    return {"name": name, "dtype": dtype, "shape": list(shape), "offset": offset, "nbytes": nbytes}


_GOOD = _segment([_array()], bytes(8))
_OVER = MAX_SEGMENT_RAW_BYTES + 4

_HOSTILE = {
    "npz payload of the old container": b"PK\x03\x04" + bytes(64),
    "POEZ payload of the old container": _container([("library", _GOOD)], magic=b"POEZ"),
    "empty": b"",
    "cut inside the header length": b"POES\x01",
    "header length past the buffer": b"POES" + struct.pack("<I", 1 << 30) + b"{}",
    "header is not an object": b"POES" + struct.pack("<I", 2) + b"[]",
    "header is not utf-8": b"POES" + struct.pack("<I", 2) + b"\xff\xfe",
    "header lacks its fields": b"POES" + struct.pack("<I", 2) + b"{}",
    "header nested past the recursion limit": (
        b"POES" + struct.pack("<I", 1 << 17) + b"[" * (1 << 17)
    ),
    "segment lengths short of the body": _container(
        [("library", _GOOD)], lengths=[["library", len(_GOOD) - 1]]
    ),
    "segment lengths past the body": _container(
        [("library", _GOOD)], lengths=[["library", len(_GOOD) + 1]]
    ),
    "negative segment length": _container(
        [("library", _GOOD)], lengths=[["x", -1], ["library", len(_GOOD) + 1]]
    ),
    "index length past the segment": _container(
        [("library", struct.pack("<I", 1 << 20) + b"{}")]
    ),
    "array outside its block": _container(
        [("library", _segment([_array("a"), _array("b", offset=12)], bytes(16)))]
    ),
    "negative offset": _container(
        [("library", _segment([_array(offset=-8)], bytes(8)))]
    ),
    "shape does not match nbytes": _container(
        [("library", _segment([_array(shape=(3,))], bytes(8)))]
    ),
    "dtype does not match nbytes": _container(
        [("library", _segment([_array(dtype="uint8")], bytes(8)))]
    ),
    "dtype outside the container's two": _container(
        [("library", _segment([_array(dtype="object", shape=(1,))], bytes(8)))]
    ),
    "raw_nbytes is not the sum of the arrays": _container(
        [("library", _segment([_array()], bytes(8), raw_nbytes=16))]
    ),
    "raw_nbytes over the limit": _container(
        [
            (
                "library",
                _segment(
                    [_array(shape=(_OVER // 4,), nbytes=_OVER)], raw_nbytes=_OVER
                ),
            )
        ]
    ),
    "block inflates past raw_nbytes": _container(
        [("library", _segment([_array()], raw_nbytes=8, block=zlib.compress(bytes(9))))]
    ),
    "block inflates short of raw_nbytes": _container(
        [("library", _segment([_array()], raw_nbytes=8, block=zlib.compress(bytes(7))))]
    ),
    "bytes after the block": _container(
        [("library", _segment([_array()], raw_nbytes=8, block=zlib.compress(bytes(8)) + b"x"))]
    ),
    "block is not zlib": _container(
        [("library", _segment([_array()], raw_nbytes=8, block=b"not zlib"))]
    ),
    "quant entry is not a pair": _container(
        [("library", _segment([_array(dtype="uint8", nbytes=2)], bytes(2), quant={"w": 3}))]
    ),
    "well-formed container, no library segment": _container([("other", _GOOD)]),
}


class TestHostilePayloads:
    @pytest.mark.parametrize("case", sorted(_HOSTILE))
    def test_fails_typed(self, case):
        for buffer in (_HOSTILE[case], memoryview(bytearray(_HOSTILE[case]))):
            with pytest.raises(PayloadError):
                deserialize_task_model(buffer)

    def test_any_buffer_decodes(self, named_pool):
        pool, _, _ = named_pool
        payload = _storeless(pool, ["pets"], "uint8")
        network, _ = pool.consolidate(["pets"])
        for buffer in (bytearray(payload), memoryview(bytearray(b"xx" + payload))[2:]):
            _assert_states(network, deserialize_task_model(buffer).network, "uint8")

    @given(data=st.data(), transport=_TRANSPORTS)
    def test_truncations_and_bit_flips_decode_or_fail_typed(self, named_pool, data, transport):
        pool, _, _ = named_pool
        payload = _storeless(pool, ["birds", "pets"], transport)
        cut = data.draw(st.integers(0, len(payload) - 1), label="cut")
        with pytest.raises(PayloadError):
            deserialize_task_model(payload[:cut])
        # half the flips land in the header and the first segment index
        structured = 8 + _header_len(payload) + 2048
        bit = data.draw(
            st.one_of(st.integers(0, 8 * structured - 1), st.integers(0, 8 * len(payload) - 1)),
            label="bit",
        )
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            deserialize_task_model(flipped)
        except PayloadError:
            pass

    def test_bomb_behind_a_small_raw_nbytes_is_not_inflated(self):
        squeezer = zlib.compressobj(9)
        megabyte = bytes(1 << 20)
        block = b"".join(squeezer.compress(megabyte) for _ in range(64)) + squeezer.flush()
        assert len(block) < 128 << 10  # 64 MiB of zeros
        bomb = _container([("library", _segment([_array()], raw_nbytes=8, block=block))])
        tracemalloc.start()
        try:
            with pytest.raises(PayloadError, match="inflate"):
                deserialize_task_model(bomb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
