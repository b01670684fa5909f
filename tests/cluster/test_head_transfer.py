"""Head-level payloads: the cross-shard fetch boundary must be float-exact."""

import copy
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterGateway
from repro.core import (
    TRANSPORTS,
    deserialize_expert_heads,
    serialize_expert_heads,
    serialize_task_model,
)
from repro.core import server
from repro.core.pool import LIBRARY_TASK
from repro.core.server import deserialize_library_state, serialize_library_state
from repro.net import NetworkedCluster


class TestHeadRoundtrip:
    @pytest.mark.parametrize("transport", ["float32", "raw+zlib"])
    def test_states_bit_exact(self, wide_pool, transport):
        pool, _ = wide_pool
        names = pool.expert_names()[:3]
        payload = serialize_expert_heads(pool, names, transport)
        remotes = deserialize_expert_heads(payload)
        assert set(remotes) == set(names)
        for name in names:
            original = pool.experts[name].state_dict()
            restored = remotes[name].head.state_dict()
            assert set(original) == set(restored)
            for key in original:
                assert np.array_equal(
                    np.asarray(original[key]), np.asarray(restored[key])
                ), (name, key)

    def test_versions_and_task_metadata_travel(self, wide_pool):
        pool, _ = wide_pool
        name = pool.expert_names()[0]
        remotes = deserialize_expert_heads(serialize_expert_heads(pool, [name]))
        remote = remotes[name]
        assert remote.version == pool.expert_version(name)
        assert remote.task == pool.hierarchy.task(name)

    def test_missing_expert_rejected(self, wide_pool):
        pool, _ = wide_pool
        with pytest.raises(KeyError, match="dragons"):
            serialize_expert_heads(pool, ["dragons"])

    def test_unknown_transport_rejected(self, wide_pool):
        pool, _ = wide_pool
        with pytest.raises(ValueError, match="transport"):
            serialize_expert_heads(pool, pool.expert_names()[:1], "float16")

    def test_task_model_payload_rejected(self, wide_pool):
        """A whole-model payload is not an expert-heads payload."""
        pool, _ = wide_pool
        network, composite = pool.consolidate(list(pool.expert_names()[:1]))
        payload = serialize_task_model(network, composite, pool.config)
        with pytest.raises(ValueError, match="expert-heads"):
            deserialize_expert_heads(payload)


class TestHeadSegments:
    @given(data=st.data(), transport=st.sampled_from(TRANSPORTS))
    def test_cold_warm_and_no_store_are_byte_identical(self, wide_pool, data, transport):
        pool, _ = wide_pool
        names = data.draw(
            st.lists(st.sampled_from(pool.expert_names()), min_size=1, unique=True), label="names"
        )
        view = pool.subset(pool.expert_names())  # a view owns a fresh (cold) store
        cold = serialize_expert_heads(view, names, transport, store=view.segments)
        warm = serialize_expert_heads(view, names, transport, store=view.segments)
        assert cold == warm == serialize_expert_heads(pool, names, transport)
        assert list(deserialize_expert_heads(warm)) == names

    def test_fetch_over_a_warm_store_compresses_nothing(self, wide_pool, monkeypatch):
        pool, _ = wide_pool
        with ClusterGateway(pool, ClusterConfig(num_shards=2)) as cluster:
            shard = cluster.shards[0]
            names = shard.task_names()
            whole = shard.fetch_heads(names)
            compressions = []
            monkeypatch.setattr(
                zlib, "compress", lambda *args, **kwargs: compressions.append(1)
            )
            for name in names:
                part = shard.fetch_heads([name])
                assert part == serialize_expert_heads(shard.pool, [name], store=shard.pool.segments)
            assert shard.fetch_heads(names) == whole
            assert compressions == []


def _retrained(module):
    """A copy of ``module`` with different weights: a re-extraction's result."""
    fresh = copy.deepcopy(module)
    fresh.load_state_dict({key: value + 1.0 for key, value in module.state_dict().items()})
    return fresh


def _assert_state(module, expected) -> None:
    for key, value in module.state_dict().items():
        np.testing.assert_array_equal(value, expected[key], err_msg=key)


class TestModulesAndVersionsReadTogether:
    """A fetch or push ships each module under the version it was installed at,
    even when a re-extraction lands while the payload is being encoded."""

    def _re_extract_during_first_encode(self, monkeypatch, re_extract) -> None:
        encode = server._segment

        def first_encode(*args):
            monkeypatch.setattr(server, "_segment", encode)
            re_extract()
            return encode(*args)

        monkeypatch.setattr(server, "_segment", first_encode)

    def test_expert_heads(self, wide_pool, monkeypatch):
        pool, _ = wide_pool
        names = pool.expert_names()[:3]
        view = pool.subset(names)
        states = {(n, view.expert_version(n)): view.experts[n].state_dict() for n in names}

        def re_extract():
            for name in names:
                view.attach_expert(name, _retrained(view.experts[name]))
                states[name, view.expert_version(name)] = view.experts[name].state_dict()

        self._re_extract_during_first_encode(monkeypatch, re_extract)
        remotes = deserialize_expert_heads(serialize_expert_heads(view, names))
        assert len(states) == 2 * len(names)  # the re-extraction ran
        for name, remote in remotes.items():
            _assert_state(remote.head, states[name, remote.version])

    def test_library_state(self, wide_pool):
        """The push reads the pool more than once (the trunk and its version,
        the arch); a library swap lands at its arch read."""
        pool, _ = wide_pool
        view = pool.subset(pool.expert_names())
        library, version = view.library_snapshot()
        states = {version: library.state_dict()}

        class SwapAtConfigRead:
            def __getattr__(self, name):
                if name == "config" and len(states) == 1:
                    view.install_library(_retrained(view.library))
                    states[view.expert_version(LIBRARY_TASK)] = view.library.state_dict()
                return getattr(view, name)

        trunk, shipped = deserialize_library_state(serialize_library_state(SwapAtConfigRead()))
        assert len(states) == 2  # the swap ran
        _assert_state(trunk, states[shipped])


def _cross_shard_query(cluster):
    names = sorted(cluster.available_tasks())
    partner = next(
        n for n in names[1:] if cluster.shards_of(n)[0] != cluster.shards_of(names[0])[0]
    )
    return (names[0], partner)


class TestCrossShardCompositeBytes:
    """A composite assembled from fetched heads is the single pool's bytes."""

    def _check(self, gateway, pool):
        query = _cross_shard_query(gateway)
        for transport in TRANSPORTS:
            for tasks in (query, query[:1]):
                network, composite = pool.consolidate(list(tasks))
                reference = serialize_task_model(network, composite, pool.config, transport)
                assert gateway.serve(tasks, transport).payload == reference
        assert gateway.metrics.counter("cross_shard") >= len(TRANSPORTS)

    def test_in_process(self, wide_pool):
        pool, _ = wide_pool
        with ClusterGateway(pool, ClusterConfig(num_shards=3)) as cluster:
            self._check(cluster, pool)

    def test_networked(self, wide_pool):
        pool, _ = wide_pool
        with NetworkedCluster(pool, ClusterConfig(num_shards=2)) as deployment:
            self._check(deployment.gateway, pool)
        assert deployment.fleet.leaked_processes() == []
