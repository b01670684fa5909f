"""Payload-tier entries: a container head plus the pool's own segments.

A payload is ``head | library segment | head segments``, and the pool's
:class:`~repro.core.pool.SegmentStore` already holds every segment once.
So a payload-tier entry keeps the parts unjoined, holds the store's very
``bytes`` objects, and is charged only the head it owns.  What any path
serves must still be byte-identical to a store-less serialization of a
fresh consolidation, whatever mutations came before it.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.gateway as serving_gateway
from repro.cluster import ClusterConfig, ClusterGateway, ShardRouter
from repro.core import array_digest, serialize_task_model
from repro.core.features import TrunkFeatureCache
from repro.core.pool import LIBRARY_TASK, PoolSnapshot
from repro.distill import TrainConfig, batched_forward
from repro.models import FusedHeadBank, bank_share_nbytes, frozen_param_count
from repro.nn.fused import FusedTrunk, fused_trunk_for
from repro.serving import GatewayConfig, ServingGateway
from repro.serving.canonical import payload_key
from tests.conftest import assert_fused_ids_match

# every fused walker's scratch is NaN-filled after each call: no answer
# handed out may be a live workspace view
pytestmark = pytest.mark.usefixtures("poisoned_workspace")

TRANSPORTS = ("float32", "raw+zlib", "uint8")
_QUICK = TrainConfig(epochs=1, batch_size=64, lr=0.05, seed=0)


def _fresh_bytes(pool, names, transport) -> bytes:
    network, composite = pool.consolidate(list(names))
    return serialize_task_model(network, composite, pool.config, transport)


def _assert_entry_is_store_segments(tier, snapshot, store, names, transport, served):
    parts = tier.get(payload_key(names, transport, snapshot.versions))
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
        snapshot = cluster._snapshot(names)
        head = _assert_entry_is_store_segments(
            cluster.payload_cache, snapshot, pool.segments, names, "raw+zlib", served
        )
        assert cluster.payload_cache.stats().current_bytes == head
        assert served.payload == _fresh_bytes(pool, names, "raw+zlib")
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# The oracle: every path's bytes equal a fresh, store-less serialization
# ----------------------------------------------------------------------
_TASKS = ("birds", "fish", "pets")
#: A step is ``(kind, task names, transport)``; a mutation takes the first name.
_STEP = st.tuples(
    st.sampled_from(
        ("serve",) * 3 + ("model", "predict", "extract", "detach", "attach", "library")
    ),
    st.lists(st.sampled_from(_TASKS), min_size=1, max_size=3, unique=True),
    st.sampled_from(TRANSPORTS),
)
#: Every tier on, with room for one to three entries (a model is 140-280
#: KiB here, a payload head 250-440 B, a feature map 7 KiB, an answer
#: 100 B): superseded entries must age out inside it.
_TIGHT = GatewayConfig(
    model_cache_bytes=320 << 10, payload_cache_bytes=1 << 10, result_cache_bytes=256
)
_TIGHT_TRUNK_BYTES = 16 << 10


def _assert_pool_frozen(holders):
    """Pool-held modules stay in eval mode and frozen from install on: a
    served payload is a snapshot of them, which flips and walks nothing."""
    for holder in holders:
        for module in (holder.library, *holder.experts.values()):
            assert not any(sub.training for sub in module.modules())
            assert not any(param.requires_grad for param in module.parameters())


def _assert_memos_fresh(holders, images):
    """Every fact memoised on a pool-held module equals a fresh walk or
    compile of that module (a re-extraction installs a new object, so no
    memo outlives the module it describes)."""
    for holder in holders:
        for module in (holder.library, *holder.experts.values()):
            assert frozen_param_count(module) == module.num_parameters()
        for head in holder.experts.values():
            assert bank_share_nbytes(head) == FusedHeadBank([head]).nbytes()
    for library in {id(holder.library): holder.library for holder in holders}.values():
        memo = np.array(fused_trunk_for(library)(images))
        assert np.array_equal(memo, FusedTrunk(library, verify=False)(images))


def _entries(cache):
    with cache._lock:
        return [(key, value) for key, (value, _size) in cache._entries.items()]


def _assert_tiers_current(gateway, images, fresh):
    """No tier can answer with superseded bytes or logits: every entry keyed
    at the versions a lookup uses now holds what the pool's current modules
    give, whatever superseded entries sit next to it; and no tier is over
    its budget.  ``fresh`` memoises the pool's fresh bytes per versions."""
    pool = gateway.pool

    def expected(names, transport, versions):
        key = (id(pool), names, transport, versions)
        if key not in fresh:
            fresh[key] = _fresh_bytes(pool, names, transport)
        return fresh[key]

    for (names, transport, versions), parts in _entries(gateway.payload_cache):
        if versions == pool.versions(names):
            assert b"".join(parts) == expected(names, transport, versions)
    for (names, versions), model in _entries(gateway.model_cache):
        if versions == pool.versions(names):
            shipped = serialize_task_model(model.network, model.task, pool.config, "float32")
            assert shipped == expected(names, "float32", versions)
    digest = array_digest(images)
    for (key_digest, names, versions), (logits, _ids) in _entries(gateway.result_cache):
        if key_digest == digest and versions == pool.versions(names):
            network, _ = pool.consolidate(list(names))
            assert np.allclose(logits, batched_forward(network, images), atol=1e-4)
    (library,) = pool.versions(())
    for (version, key_digest), features in _entries(gateway.trunk_cache._lru):
        if key_digest == digest and version == library:
            assert np.allclose(features, batched_forward(pool.library, images), atol=1e-4)
    for stats in gateway.cache_stats().values():
        assert stats.current_bytes <= stats.budget_bytes


def _assert_predicts_current(serving, pool, names, images):
    network, composite = pool.consolidate(list(names))
    reference = batched_forward(network, images)
    for _ in range(2):  # a build, then (admitted from the second sighting on) hits
        ids = serving.predict(images, names).class_ids
        assert_fused_ids_match(ids, reference, composite.classes)


@settings(max_examples=10)
@given(steps=st.lists(_STEP, min_size=1, max_size=6))
def test_served_bytes_follow_every_mutation(named_pool, steps):
    base, data, _ = named_pool
    pool = base.subset(_TASKS)
    pool.config = replace(pool.config, library_train=_QUICK)
    images = data.train.images[:48]
    probe = data.test.images[:6]
    gateway = ServingGateway(pool)
    # every tier off: a serve is snapshot + serialize, as on serve_cold_inproc
    cold = ServingGateway(pool, GatewayConfig(model_cache_bytes=0, payload_cache_bytes=0))
    tight = ServingGateway(pool, _TIGHT, trunk_cache=TrunkFeatureCache(_TIGHT_TRUNK_BYTES))
    cluster = ClusterGateway(pool, ClusterConfig(num_shards=2))
    detached, fresh = {}, {}
    try:
        for kind, names, transport in steps:
            name = names[0]
            if kind in ("serve", "model", "predict"):
                names = [name for name in names if name in pool.experts]
                if not names:
                    continue
                expected = _fresh_bytes(pool, sorted(names), transport)
            if kind == "serve":
                for serving in (gateway, cold, tight, cluster):
                    for _ in range(2):  # a build, then a payload-tier hit
                        assert serving.serve(names, transport).payload == expected
                # the cluster's single-shard arm: each shard's share of the
                # query, relayed on a miss and held by the front tier
                for group in cluster._plan(tuple(sorted(names))).values():
                    expected = _fresh_bytes(pool, group, transport)
                    for _ in range(2):
                        assert cluster.serve(group, transport).payload == expected
            elif kind == "model":
                for serving in (gateway, cold, tight, cluster):
                    model = serving.get_model(names)
                    shipped = serialize_task_model(
                        model.network, model.task, pool.config, transport
                    )
                    assert shipped == serving.serve(names, transport).payload == expected
            elif kind == "predict":
                for serving in (gateway, cold, tight, cluster):
                    _assert_predicts_current(serving, pool, names, probe)
            elif kind == "extract":
                pool.extract_expert(name, images, train_config=_QUICK)
                detached.pop(name, None)
            elif kind == "detach" and name in pool.experts and len(pool.experts) > 1:
                detached[name] = pool.detach_expert(name)
            elif kind == "attach" and name in detached:
                pool.attach_expert(name, detached.pop(name))
            elif kind == "library":
                pool.extract_library(images)
            holders = [pool, *(shard.pool for shard in cluster.shards)]
            _assert_pool_frozen(holders)
            _assert_memos_fresh(holders, probe)
            for serving in (gateway, cold, tight, cluster._front):
                _assert_tiers_current(serving, probe, fresh)
            for shard in cluster.shards:
                _assert_tiers_current(shard.gateway, probe, fresh)
    finally:
        cluster.close()
        tight.close()
        cold.close()
        gateway.close()


# ----------------------------------------------------------------------
# The oracle's concurrent-mutation arm: a mutation lands between a build's
# snapshot and its put
# ----------------------------------------------------------------------
def _mutate(kind, pool, victim, images):
    if kind == "extract":
        pool.extract_expert(victim, images, train_config=_QUICK)
    elif kind == "detach":
        pool.detach_expert(victim)
    else:
        pool.extract_library(images)


def _hold_once(monkeypatch, owner, attribute, held, release):
    """Make the next call of ``owner.attribute`` (a build's step after its
    snapshot, before its put) signal ``held`` and wait for ``release``;
    every later call passes straight through."""
    real = getattr(owner, attribute)
    armed = [True]
    lock = threading.Lock()

    def held_once(*args, **kwargs):
        with lock:
            first, armed[0] = armed[0], False
        if first:
            held.set()
            assert release.wait(timeout=60), "the mutator never released the build"
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, held_once)


@pytest.mark.parametrize("mutation", ["extract", "detach", "library"])
@pytest.mark.parametrize("arm", ["gateway", "relay", "cross"])
def test_served_bytes_follow_a_mutation_between_snapshot_and_put(
    named_pool, monkeypatch, followers_joined, arm, mutation
):
    base, data, _ = named_pool
    pool = base.subset(_TASKS)
    pool.config = replace(pool.config, library_train=_QUICK)
    images, probe = data.train.images[:48], data.test.images[:6]
    router = ShardRouter(2)
    for task, shard_id in (("fish", 0), ("pets", 0), ("birds", 1)):
        router.pin(task, shard_id)
    gateway = ServingGateway(pool)
    cluster = ClusterGateway(pool, ClusterConfig(num_shards=2), router=router)
    serving = gateway if arm == "gateway" else cluster
    names = ("fish", "pets") if arm == "relay" else _TASKS
    assert len(cluster._plan(names)) == (1 if arm == "relay" else 2)
    before = _fresh_bytes(pool, names, "float32")
    before_versions = pool.versions(names)
    answers = {}
    held_serve, held_predict, release = threading.Event(), threading.Event(), threading.Event()

    def ask(label, call):
        answers[label] = call()

    try:
        # the probe's first sighting (another composite: no model of
        # ``names`` is built), so the racing predict stores in every tier
        serving.predict(probe, ("birds",))
        # a payload build is held after its snapshot, before serializing; a
        # predict after its model's snapshot, before assembling it
        _hold_once(monkeypatch, serving_gateway, "serialize_task_model", held_serve, release)
        _hold_once(monkeypatch, PoolSnapshot, "assemble", held_predict, release)
        racers = [
            threading.Thread(target=ask, args=("leader", lambda: serving.serve(names))),
            threading.Thread(target=ask, args=("predict", lambda: serving.predict(probe, names))),
        ]
        for racer in racers:
            racer.start()
        assert held_serve.wait(timeout=60) and held_predict.wait(timeout=60)
        # a follower that arrives before the mutation coalesces onto the
        # held build and shares its (pre-mutation) answer
        joined = followers_joined(1)
        follower = threading.Thread(target=ask, args=("follower", lambda: serving.serve(names)))
        follower.start()
        assert joined.wait(timeout=60)

        _mutate(mutation, pool, names[0], images)
        present = tuple(name for name in names if name in pool.experts)
        # a request after the mutation, while the old build is still held,
        # keys on the new versions: it neither coalesces onto the old flight
        # nor waits for it
        late = threading.Thread(target=ask, args=("after", lambda: serving.serve(present)))
        late.start()
        late.join(timeout=60)
        assert not late.is_alive(), "a post-mutation request waited on the held build"
        after = answers["after"]
        assert not after.coalesced and after.versions == pool.versions(present)
        assert after.payload == _fresh_bytes(pool, present, "float32")

        release.set()
        for thread in (*racers, follower):
            thread.join(timeout=60)
        assert answers["leader"].payload == answers["follower"].payload == before
        assert answers["follower"].coalesced
        # the held builds were put, under the versions they were built from
        assert answers["leader"].versions == before_versions != pool.versions(names)
        front = gateway if arm == "gateway" else cluster._front
        assert (names, "float32", before_versions) in front.payload_cache.keys()
        # a single-shard predict is answered by its shard's gateway
        predicted = cluster.shards[0].gateway if arm == "relay" else front
        assert (names, before_versions) in predicted.model_cache.keys()
        assert (array_digest(probe), names, before_versions) in predicted.result_cache.keys()
        assert (before_versions[-1], array_digest(probe)) in predicted.trunk_cache._lru.keys()

        for tiers in (front, *(shard.gateway for shard in cluster.shards)):
            _assert_tiers_current(tiers, probe, {})
        for _ in range(2):
            assert serving.serve(present).payload == _fresh_bytes(pool, present, "float32")
        _assert_predicts_current(serving, pool, present, probe)
        for tiers in (front, *(shard.gateway for shard in cluster.shards)):
            _assert_tiers_current(tiers, probe, {})
    finally:
        release.set()
        cluster.close()
        gateway.close()
