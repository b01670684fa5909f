"""Model delivery (paper Fig. 1b): gateway payloads and client-side rebuilds."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    TRANSPORTS,
    PoolOfExperts,
    deserialize_expert_heads,
    deserialize_task_model,
    serialize_expert_heads,
    serialize_task_model,
)
from repro.core.pool import SegmentStore
from repro.core.server import _segment, deserialize_library_state, serialize_library_state
from repro.data import ClassHierarchy
from repro.distill import batched_forward
from repro.models import WRNHead
from repro.serving import ServingGateway


@pytest.fixture()
def gateway(named_pool):
    pool, _, _ = named_pool
    gw = ServingGateway(pool)
    yield gw
    gw.close()


class TestRequestValidation:
    def test_empty_query_rejected(self, gateway):
        with pytest.raises(ValueError):
            gateway.serve(())

    def test_unknown_transport_rejected(self, gateway):
        with pytest.raises(ValueError):
            gateway.serve(("pets",), transport="float16")


class TestServer:
    def test_available_tasks(self, gateway):
        assert set(gateway.available_tasks()) == {"pets", "birds", "fish"}

    def test_handle_returns_payload(self, gateway):
        response = gateway.serve(("pets", "fish"))
        assert response.payload_bytes == len(response.payload) > 0
        assert response.service_seconds < 2.0

    def test_unknown_task_propagates(self, gateway):
        with pytest.raises(KeyError):
            gateway.serve(("dragons",))


class TestRoundtrip:
    def test_client_model_matches_server_model(self, gateway, named_pool):
        """The shipped model must compute exactly the server-side logits.

        Payloads are laid out in canonical (sorted) task order, so the
        reference consolidation uses the canonical order too; predictions
        are global class ids and therefore identical for any request order.
        """
        from repro.serving import canonical_tasks

        pool, data, _ = named_pool
        model = deserialize_task_model(gateway.serve(["pets", "birds"]).payload)
        canonical_net, _ = pool.consolidate(list(canonical_tasks(["pets", "birds"])))
        request_net, request_comp = pool.consolidate(["pets", "birds"])
        x = data.test.images[:10]
        assert np.allclose(
            model.logits(x), batched_forward(canonical_net, x), atol=1e-5
        )
        from tests.conftest import assert_fused_ids_match

        # predict() runs the fused fast path: tie-tolerant vs the loop argmax
        assert_fused_ids_match(
            model.predict(x), batched_forward(request_net, x), request_comp.classes
        )

    def test_class_names_travel(self, gateway):
        model = deserialize_task_model(gateway.serve(["fish"]).payload)
        assert model.class_names == ("eel", "cod")
        assert tuple(model.classes) == (4, 5)

    def test_uint8_transport_smaller_and_close(self, gateway, named_pool):
        _, data, _ = named_pool
        full = gateway.serve(("pets", "birds"))
        packed = gateway.serve(("pets", "birds"), transport="uint8")
        assert packed.payload_bytes < full.payload_bytes
        model_full = deserialize_task_model(full.payload)
        model_packed = deserialize_task_model(packed.payload)
        x = data.test.images[:40]
        agreement = (model_full.predict(x) == model_packed.predict(x)).mean()
        assert agreement > 0.9  # quantization costs little accuracy

    def test_payload_is_self_contained(self, gateway, named_pool):
        """Deserialization must not touch the pool — only the bytes."""
        _, data, _ = named_pool
        payload = gateway.serve(("pets",)).payload
        model = deserialize_task_model(bytes(payload))
        preds = model.predict(data.test.images[:5])
        assert set(np.unique(preds)).issubset({0, 1})

    def test_serialize_helper_direct(self, named_pool):
        pool, _, _ = named_pool
        network, composite = pool.consolidate(["birds"])
        payload = serialize_task_model(network, composite, pool.config)
        model = deserialize_task_model(payload)
        assert model.task.names == ("birds",)


# ----------------------------------------------------------------------
# The header writer: pre-encoded fragments, json.dumps's bytes
# ----------------------------------------------------------------------
#: Names with characters JSON must escape or writes as ``\uXXXX``, and ``%``
#: (the header's segment list is a ``%``-format template).
_AWKWARD = st.text(
    st.one_of(st.sampled_from('"\\/%\x00\x1f\x7f\n\té☃\U0001f600'), st.characters()),
    min_size=1,
    max_size=6,
)
_GROUPS = st.dictionaries(
    _AWKWARD, st.lists(_AWKWARD, min_size=1, max_size=3), min_size=1, max_size=4
)
#: One store for every drawn pool: each encodes the same trunk and heads.
_STORE = SegmentStore()
_HEADS = {}


def _pool_over(named_pool, groups) -> PoolOfExperts:
    """A pool over the hierarchy ``groups``, with ``named_pool``'s trunk and
    one (untrained) head per class count."""
    base = named_pool[0]
    config = base.config
    pool = PoolOfExperts(None, ClassHierarchy(groups), config)
    pool.install_library(base.library)
    for prim in pool.hierarchy.primitive_tasks():
        if len(prim) not in _HEADS:
            _HEADS[len(prim)] = WRNHead(
                config.library_depth,
                config.library_k,
                config.expert_ks,
                num_classes=len(prim),
                library_level=config.library_level,
                rng=np.random.default_rng(len(prim)),
            )
        pool.attach_expert(prim.name, _HEADS[len(prim)])
    return pool


def _dumped(manifest, segments) -> bytes:
    """The container a single ``json.dumps`` of the whole header gives."""
    listed = [[name, len(blob)] for name, blob in segments]
    header = json.dumps({"manifest": manifest, "segments": listed}).encode()
    return b"".join((b"POES", struct.pack("<I", len(header)), header, *(b for _, b in segments)))


def _assert_payloads_are_json_dumps(pool, transport):
    """Every payload kind of ``pool`` is byte for byte ``_dumped`` of its
    manifest, and decodes back to the pool's tasks and versions."""
    tasks = pool.hierarchy.primitive_tasks()
    names = [prim.name for prim in tasks]
    config = pool.config
    arch = {
        "depth": config.library_depth,
        "k_c": config.library_k,
        "k_s": config.expert_ks,
        "library_level": config.library_level,
    }
    entries = [
        {"name": p.name, "classes": list(p.classes), "class_names": list(p.class_names)}
        for p in tasks
    ]
    library = ("library", _segment(None, "library", pool.library, transport))
    heads = [(f"expert:{n}", _segment(None, n, pool.experts[n], transport)) for n in names]
    versions = {name: pool.expert_version(name) for name in names}

    snapshot = pool.snapshot(names)
    parts = serialize_task_model(
        snapshot, snapshot.composite, config, transport, _STORE, as_parts=True
    )
    manifest = {"transport": transport, "tasks": entries, "arch": arch}
    assert b"".join(parts) == _dumped(manifest, [library, *heads])
    assert deserialize_task_model(b"".join(parts)).task == snapshot.composite

    payload = serialize_expert_heads(pool, names, transport, _STORE)
    manifest = {"kind": "expert_heads", "transport": transport, "tasks": entries}
    manifest.update(versions=versions, arch=arch)
    assert payload == _dumped(manifest, heads)
    remotes = deserialize_expert_heads(payload)
    assert [(r.task, r.version) for r in remotes.values()] == [
        (prim, versions[prim.name]) for prim in tasks
    ]

    payload = serialize_library_state(pool, transport, _STORE)
    version = pool.library_snapshot()[1]
    manifest = {"kind": "library_state", "transport": transport, "version": version}
    assert payload == _dumped(dict(manifest, arch=arch), [library])
    assert deserialize_library_state(payload)[1] == version
    return parts[0]


class TestHeaderWriter:
    @given(groups=_GROUPS, transport=st.sampled_from(TRANSPORTS))
    def test_header_is_json_dumps_of_the_manifest(self, named_pool, groups, transport):
        """The header's separators, escapes and key order are json.dumps's
        defaults: a compatibility contract of the wire format."""
        _assert_payloads_are_json_dumps(_pool_over(named_pool, groups), transport)

    def test_same_task_names_with_other_class_ids_get_their_own_manifests(self, named_pool):
        """The fragment memo keys on the whole task, not on its name."""
        first = _pool_over(named_pool, {"x": ["p"], "y": ["q", "r"]})
        second = _pool_over(named_pool, {"y": ["q", "r"], "x": ["p"]})
        assert first.hierarchy.task("x") != second.hierarchy.task("x")
        heads = [_assert_payloads_are_json_dumps(pool, "float32") for pool in (first, second)]
        assert heads[0] != heads[1]
