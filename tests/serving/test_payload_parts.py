"""Payload-tier entries: a container head plus the pool's own segments.

A payload is ``head | library segment | head segments``, and the pool's
:class:`~repro.core.pool.SegmentStore` already holds every segment once.
So a payload-tier entry keeps the parts unjoined, holds the store's very
``bytes`` objects, and is charged only the head it owns.  What any path
serves must still be byte-identical to a store-less serialization of a
fresh consolidation, whatever mutations came before it.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterGateway
from repro.core import serialize_task_model
from repro.core.pool import LIBRARY_TASK
from repro.distill import TrainConfig
from repro.serving import GatewayConfig, ServingGateway
from repro.serving.canonical import payload_key

TRANSPORTS = ("float32", "raw+zlib", "uint8")
_QUICK = TrainConfig(epochs=1, batch_size=64, lr=0.05, seed=0)


def _fresh_bytes(pool, names, transport) -> bytes:
    network, composite = pool.consolidate(list(names))
    return serialize_task_model(network, composite, pool.config, transport)


def _assert_entry_is_store_segments(tier, snapshot, store, names, transport, served):
    parts = tier.get(payload_key(names, transport))
    assert parts is served.parts
    encoding = "uint8" if transport == "uint8" else "float32"
    owned = [store.get(LIBRARY_TASK, encoding, snapshot.trunk)]
    owned += [store.get(name, encoding, head) for name, head in zip(names, snapshot.heads)]
    assert len(parts) == len(owned) + 1
    assert all(part is segment for part, segment in zip(parts[1:], owned))
    return len(parts[0])


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_gateway_entry_holds_the_stores_segments_and_is_charged_its_head(
    named_pool, transport
):
    pool = named_pool[0].subset(["pets", "fish", "birds"])  # a view owns a fresh store
    names = ("birds", "fish", "pets")
    with ServingGateway(pool) as gateway:
        served = gateway.serve(["pets", "fish", "birds"], transport)
        head = _assert_entry_is_store_segments(
            gateway.payload_cache, pool.snapshot(names), pool.segments, names, transport, served
        )
        assert gateway.payload_cache.stats().current_bytes == head
        assert gateway.serve(names, transport).parts is served.parts
    assert served.payload == _fresh_bytes(pool, names, transport)
    assert served.payload_bytes == len(served.payload) > head


def test_cluster_composite_entry_holds_the_stores_segments(named_pool):
    pool = named_pool[0].subset(["pets", "fish", "birds"])
    cluster = ClusterGateway(pool, ClusterConfig(num_shards=2))
    try:
        names = ("birds", "fish", "pets")
        assert len(cluster._plan(names)) == 2
        served = cluster.serve(names, "raw+zlib")
        # the same modules the build used: the home shard's own heads and
        # the fetched copies the remote-head tier keeps
        snapshot, _ = cluster._snapshot(names)
        head = _assert_entry_is_store_segments(
            cluster.payload_cache, snapshot, pool.segments, names, "raw+zlib", served
        )
        assert cluster.payload_cache.stats().current_bytes == head
        assert served.payload == _fresh_bytes(pool, names, "raw+zlib")
    finally:
        cluster.close()


def test_a_store_less_pool_charges_the_whole_payload(named_pool):
    """Without a store nothing else owns the segments: the entry pays for them."""

    class _Unversioned:
        def __init__(self, pool) -> None:
            self.config, self.snapshot = pool.config, pool.snapshot
            self.expert_names = pool.expert_names

    with ServingGateway(_Unversioned(named_pool[0])) as gateway:
        served = gateway.serve(["pets"])
        assert gateway.payload_cache.stats().current_bytes == served.payload_bytes


# ----------------------------------------------------------------------
# The oracle: every path's bytes equal a fresh, store-less serialization
# ----------------------------------------------------------------------
_TASKS = ("birds", "fish", "pets")
#: A step is ``(kind, task names, transport)``; a mutation takes the first name.
_STEP = st.tuples(
    st.sampled_from(("serve",) * 3 + ("model", "extract", "detach", "attach", "library")),
    st.lists(st.sampled_from(_TASKS), min_size=1, max_size=3, unique=True),
    st.sampled_from(TRANSPORTS),
)


def _assert_pool_frozen(holders):
    """Pool-held modules stay in eval mode and frozen from install on: a
    served payload is a snapshot of them, which flips and walks nothing."""
    for holder in holders:
        for module in (holder.library, *holder.experts.values()):
            assert not any(sub.training for sub in module.modules())
            assert not any(param.requires_grad for param in module.parameters())


@settings(max_examples=10)
@given(steps=st.lists(_STEP, min_size=1, max_size=6))
def test_served_bytes_follow_every_mutation(named_pool, steps):
    base, data, _ = named_pool
    pool = base.subset(_TASKS)
    pool.config = replace(pool.config, library_train=_QUICK)
    images = data.train.images[:48]
    gateway = ServingGateway(pool)
    # every tier off: a serve is snapshot + serialize, as on serve_cold_inproc
    cold = ServingGateway(pool, GatewayConfig(model_cache_bytes=0, payload_cache_bytes=0))
    cluster = ClusterGateway(pool, ClusterConfig(num_shards=2))
    detached = {}
    try:
        for kind, names, transport in steps:
            name = names[0]
            if kind in ("serve", "model"):
                names = [name for name in names if name in pool.experts]
                if not names:
                    continue
                expected = _fresh_bytes(pool, sorted(names), transport)
            if kind == "serve":
                for serving in (gateway, cold, cluster):
                    for _ in range(2):  # a build, then a payload-tier hit
                        assert serving.serve(names, transport).payload == expected
                # the cluster's single-shard arm: each shard's share of the
                # query, relayed on a miss and held by the front tier
                for group in cluster._plan(tuple(sorted(names))).values():
                    expected = _fresh_bytes(pool, group, transport)
                    for _ in range(2):
                        assert cluster.serve(group, transport).payload == expected
            elif kind == "model":
                for serving in (gateway, cold, cluster):
                    model = serving.get_model(names)
                    shipped = serialize_task_model(
                        model.network, model.task, pool.config, transport
                    )
                    assert shipped == serving.serve(names, transport).payload == expected
            elif kind == "extract":
                pool.extract_expert(name, images, train_config=_QUICK)
                detached.pop(name, None)
            elif kind == "detach" and name in pool.experts and len(pool.experts) > 1:
                detached[name] = pool.detach_expert(name)
            elif kind == "attach" and name in detached:
                pool.attach_expert(name, detached.pop(name))
            elif kind == "library":
                pool.extract_library(images)
            _assert_pool_frozen([pool, *(shard.pool for shard in cluster.shards)])
    finally:
        cluster.close()
        cold.close()
        gateway.close()
