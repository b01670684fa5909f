"""The payload-miss path: O(heads) work, no module-tree walk, same charge.

A cold serve snapshots the pool by reference and builds no model, so
nothing on it may traverse a module tree; a model build's cache charge
comes from per-module constants, eval state is set where modules enter
the pool, and a build reads the versions with its snapshot (no second
read to guard its put).  Counted, not timed.
"""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterGateway, PoolShard
from repro.core import (
    PoolOfExperts,
    TaskSpecificModel,
    deserialize_task_model,
    serialize_task_model,
)
from repro.core import server as core_server
from repro.distill import TrainConfig
from repro.models import BranchedSpecialistNet, FusedHeadBank, WRNHead, WRNTrunk, count_params
from repro.nn import Module
from repro.serving import GatewayConfig, ServingGateway
from repro.serving.cache import BYTES_PER_PARAM


@pytest.fixture(scope="module")
def names(wide_pool):
    return tuple(sorted(wide_pool[0].expert_names())[:4])


@pytest.fixture()
def composites(names):
    return [list(c) for size in range(1, 5) for c in combinations(names, size)]


@pytest.fixture()
def calls(monkeypatch):
    """Counts of ``Module.named_parameters`` / ``Module.train`` and of the
    pool's version reads (``PoolOfExperts.snapshot`` / ``.versions``)."""
    counts = Counter()

    def counted(owner, attribute, name=None):
        real = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            counts[name or attribute] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, wrapper)

    counted(Module, "named_parameters")
    counted(Module, "train")  # eval() goes through it
    counted(PoolOfExperts, "snapshot", "version_reads")
    counted(PoolOfExperts, "versions", "version_reads")
    return counts


def _assert_walk_free(serve, get_model, model_caches, composites, calls):
    """After one serve per composite, further misses walk nothing, and no
    serve consults a model tier, whatever its budget.  Likewise, after one
    ``get_model`` per composite (which memoizes each module's parameter
    count), further model-tier misses walk nothing, and each charges one
    put when the tier has a budget."""
    for query in composites:
        serve(query)
    calls.clear()
    for _ in range(2):
        for query in composites:
            assert not serve(query).payload_cache_hit
    misses = 2 * len(composites)
    assert calls["named_parameters"] == 0
    assert calls["train"] == 0
    assert 0 < calls["version_reads"] <= 3 * misses
    for cache in model_caches:
        stats = cache.stats()
        assert (stats.insertions, stats.rejections, stats.requests) == (0, 0, 0)

    for query in composites:
        get_model(query)
    for cache in model_caches:
        cache.clear()  # a tier that is on misses again, and so charges a put
    puts = sum(cache.stats().insertions for cache in model_caches)
    calls.clear()
    for _ in range(2):
        for query in composites:
            get_model(query)
    assert calls["named_parameters"] == 0
    assert calls["train"] == 0
    puts = sum(cache.stats().insertions for cache in model_caches) - puts
    assert puts == (len(composites) if model_caches[0].budget_bytes else 0)


@pytest.mark.parametrize("model_cache_bytes", [0, 64 << 20])
def test_serving_gateway_miss_walks_no_module_tree(
    wide_pool, names, composites, calls, model_cache_bytes
):
    config = GatewayConfig(model_cache_bytes=model_cache_bytes, payload_cache_bytes=0)
    with ServingGateway(wide_pool[0].subset(names), config) as gateway:
        _assert_walk_free(
            gateway.serve, gateway.get_model, [gateway.model_cache], composites, calls
        )


@pytest.mark.parametrize("model_cache_bytes", [0, 64 << 20])
def test_cluster_gateway_miss_walks_no_module_tree(
    wide_pool, names, composites, calls, model_cache_bytes
):
    config = ClusterConfig(
        num_shards=2,
        shard_model_cache_bytes=model_cache_bytes,
        shard_payload_cache_bytes=0,
        composite_model_cache_bytes=model_cache_bytes,
        composite_payload_cache_bytes=0,
    )
    gateway = ClusterGateway(wide_pool[0].subset(names), config)
    try:
        assert any(len(gateway._plan(tuple(query))) > 1 for query in composites)
        caches = [gateway.model_cache] + [shard.gateway.model_cache for shard in gateway.shards]
        _assert_walk_free(gateway.serve, gateway.get_model, caches, composites, calls)
    finally:
        gateway.close()


# ----------------------------------------------------------------------
# The charge: equal to an un-memoised walk, and following the module objects
# ----------------------------------------------------------------------
_PICKS = st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)


def _walked_charge(network) -> int:
    """Module weights plus each head's fused-bank share, measured afresh."""
    banks = sum(FusedHeadBank([head]).nbytes() for head in network.heads)
    return count_params(network) * BYTES_PER_PARAM + banks


@pytest.fixture(scope="module")
def installs(wide_pool, names):
    """A shard view after every kind of install, and a model built before them."""
    pool, data = wide_pool
    config = pool.config
    shard = PoolShard(0, pool, names)
    view = shard.pool
    stale = TaskSpecificModel(*view.consolidate(list(names)))
    stale_charge = stale.cache_nbytes()
    wider_head = WRNHead(
        config.library_depth,
        config.library_k,
        2 * config.expert_ks,
        num_classes=len(pool.hierarchy.task(names[0])),
        library_level=config.library_level,
    )
    view.attach_expert(names[0], wider_head)
    view.extract_expert(names[1], data.train.images[:48], train_config=TrainConfig(epochs=1))
    wider_trunk = WRNTrunk(
        config.library_depth, 2 * config.library_k, config.expert_ks, config.library_level
    )
    shard.refresh_library(wider_trunk, None, 99)
    yield view, stale, stale_charge
    shard.close()


@given(_PICKS)
def test_charge_equals_unmemoised_walk(wide_pool, names, installs, picks):
    query = [names[i] for i in picks]
    for pool in (wide_pool[0], installs[0]):  # before and after the installs
        model = TaskSpecificModel(*pool.consolidate(query))
        assert model.num_params() == count_params(model.network)
        assert model.cache_nbytes() == _walked_charge(model.network)


def test_new_module_gets_fresh_count_old_model_keeps_its_own(wide_pool, names, installs):
    view, stale, stale_charge = installs
    fresh = TaskSpecificModel(*view.consolidate(list(names)))
    assert fresh.cache_nbytes() == _walked_charge(fresh.network) > stale_charge
    assert fresh.network.trunk is not stale.network.trunk
    assert fresh.network.heads[0] is not stale.network.heads[0]
    assert stale.cache_nbytes() == stale_charge == _walked_charge(stale.network)
    # the source pool's own modules were never touched
    source = TaskSpecificModel(*wide_pool[0].consolidate(list(names)))
    assert source.cache_nbytes() == stale_charge


# ----------------------------------------------------------------------
# Eval state: set at install, restored by the fallback walk
# ----------------------------------------------------------------------
def _assert_all_eval(network):
    assert [m for m in network.modules() if m.training] == []


@pytest.fixture(scope="module")
def cluster(wide_pool, names):
    gateway = ClusterGateway(wide_pool[0].subset(names), ClusterConfig(num_shards=2))
    yield gateway
    gateway.close()


@given(_PICKS, st.sampled_from(["none", "library", "expert"]))
def test_consolidated_networks_are_in_eval_mode(wide_pool, names, installs, picks, disturb):
    query = [names[i] for i in picks]
    for pool in (wide_pool[0], installs[0]):
        disturbed = {"library": pool.library, "expert": pool.experts[query[0]]}.get(disturb)
        try:
            if disturbed is not None:
                disturbed.train()  # between two consolidations
            network, composite = pool.consolidate(query)
            _assert_all_eval(network)
        finally:
            if disturbed is not None:
                disturbed.eval()
        _assert_all_eval(pool.consolidate(query)[0])
    network, composite = wide_pool[0].consolidate(query)
    payload = serialize_task_model(network, composite, wide_pool[0].config)
    _assert_all_eval(deserialize_task_model(payload).network)


@given(_PICKS, st.booleans())
def test_cross_shard_assembled_networks_are_in_eval_mode(cluster, names, picks, disturb):
    query = [names[i] for i in picks]
    library = cluster.pool.library
    try:
        if disturb:  # assemble again, over a trunk in train mode
            for gateway in [cluster] + [shard.gateway for shard in cluster.shards]:
                gateway.model_cache.clear()
            library.train()
        _assert_all_eval(cluster.get_model(query).network)
    finally:
        library.eval()


# ----------------------------------------------------------------------
# Segments: the pool's head and a fetched copy of it do not evict each other
# ----------------------------------------------------------------------
def test_alternating_cross_shard_serves_encode_nothing_new(wide_pool, monkeypatch):
    """Composite A gathers head ``x`` as a fetched copy (its home shard is
    the other one), composite B as the pool's own object (``x``'s shard is
    its home).  The store keeps a blob per module object, so serving A and
    B in turn encodes nothing after the first round."""
    pool = wide_pool[0].subset(sorted(wide_pool[0].expert_names()))
    config = ClusterConfig(num_shards=2, composite_payload_cache_bytes=0)
    gateway = ClusterGateway(pool, config)
    try:
        on = [[], []]
        for name in sorted(pool.expert_names()):
            (shard_id,) = gateway._plan((name,))
            on[shard_id].append(name)
        first = tuple(sorted((on[0][0], *on[1][:2])))  # home shard 1
        second = tuple(sorted((*on[0][:2], on[1][0])))  # home shard 0
        for query in (first, second):
            gateway.serve(query)
        encodes = []
        real_encode = core_server._encode_segment
        monkeypatch.setattr(
            core_server, "_encode_segment", lambda *args: encodes.append(1) or real_encode(*args)
        )
        for _ in range(3):
            for query in (first, second):
                assert not gateway.serve(query).payload_cache_hit
        assert encodes == []
    finally:
        gateway.close()


def test_a_copys_segment_dies_with_the_copy(wide_pool):
    pool = wide_pool[0].subset(sorted(wide_pool[0].expert_names())[:1])
    (name,) = pool.expert_names()
    copy = WRNHead(
        pool.config.library_depth,
        pool.config.library_k,
        pool.config.expert_ks,
        num_classes=len(pool.hierarchy.task(name)),
        library_level=pool.config.library_level,
    )
    copy.load_state_dict(pool.experts[name].state_dict())
    for head in (pool.experts[name], copy):
        network = BranchedSpecialistNet(pool.library, [(name, head)])
        composite = pool.hierarchy.composite([name])
        serialize_task_model(network, composite, pool.config, store=pool.segments)
    assert len(pool.segments) == 3  # library, the pool's head, the copy
    del network, head, copy
    assert len(pool.segments) == 2
    pool.detach_expert(name)  # a version bump drops the name outright
    assert len(pool.segments) == 1
