"""Trace context over the wire: HELLO negotiation, cross-process stitching.

The tentpole acceptance check lives here: one traced ``predict`` through
a real 2-worker :class:`NetworkedCluster` must yield **one** trace whose
span tree — reconstructed purely from the JSONL log — covers gateway →
wire → remote shard → fused prediction stages, with the remote spans
carrying the worker's pid and per-shard service name.  Interop is the
other half: a peer that never heard of the ``"trace"`` feature (old
client, plain HELLO) negotiates an empty feature set and serves exactly
as before, with no trace keys anywhere in its responses.
"""

from __future__ import annotations

import os
import socket

import pytest

from repro.cluster import ClusterConfig, PoolShard
from repro.net import (
    FEATURE_TRACE,
    MsgType,
    NetworkedCluster,
    PROTOCOL_VERSION,
    RemoteShardClient,
    ShardServer,
    SUPPORTED_FEATURES,
    negotiate_features,
)
from repro.net.frame import (
    FrameDecoder,
    MessageAssembler,
    encode_message,
    json_payload,
    parse_json,
    unpack_body,
)
from repro.obs import TRACER, JsonlTraceWriter, build_trace_tree, load_jsonl_spans
from repro.serving import SNAPSHOT_SCHEMA, GatewayConfig

CONFIG = ClusterConfig(num_shards=2)


@pytest.fixture(autouse=True)
def clean_tracer():
    TRACER.reset()
    yield
    TRACER.reset()


# ----------------------------------------------------------------------
# Feature negotiation
# ----------------------------------------------------------------------
class TestNegotiation:
    def test_negotiate_features_intersects_and_orders(self):
        assert negotiate_features(["trace"]) == (FEATURE_TRACE,)
        assert negotiate_features(["trace", "future-thing"]) == (FEATURE_TRACE,)
        assert negotiate_features(["future-thing"]) == ()
        assert negotiate_features(None) == ()
        assert negotiate_features("trace") == ()  # non-list is defensive no
        assert FEATURE_TRACE in SUPPORTED_FEATURES

    def test_modern_client_negotiates_trace(self, net_pool):
        pool, _data = net_pool
        shard = PoolShard(
            0, pool, sorted(pool.expert_names())[:1], GatewayConfig(max_workers=1)
        )
        server = ShardServer(shard, request_workers=1)
        address = server.start()
        try:
            client = RemoteShardClient(address)
            try:
                assert FEATURE_TRACE in client.info["features"]
                # negotiated features survive a STATS info rebuild
                client.stats()
                assert FEATURE_TRACE in client.info["features"]
            finally:
                client.close()
        finally:
            server.close()
            shard.close()

    def test_featureless_peer_interops_without_trace_keys(self, net_pool):
        """An old peer's HELLO has no "features" key; serving still works."""
        pool, _data = net_pool
        task = sorted(pool.expert_names())[0]
        shard = PoolShard(0, pool, [task], GatewayConfig(max_workers=1))
        server = ShardServer(shard, request_workers=1)
        host, port = server.start()
        try:
            with socket.create_connection((host, port), timeout=10) as sock:
                decoder = FrameDecoder()

                def round_trip(request_id, msg_type, payload):
                    for chunk in encode_message(msg_type, request_id, payload):
                        sock.sendall(chunk)
                    assembler = MessageAssembler(max_partial_messages=1)
                    while True:
                        data = sock.recv(1 << 16)
                        assert data, "server hung up mid-response"
                        for frame in decoder.feed(data):
                            message = assembler.add(frame)
                            if message is not None:
                                return message

                msg_type, _codec, _rid, body = round_trip(
                    1, MsgType.HELLO, json_payload({"protocol": PROTOCOL_VERSION})
                )
                assert msg_type == MsgType.HELLO_OK
                assert parse_json(body)["features"] == []

                msg_type, _codec, _rid, body = round_trip(
                    2,
                    MsgType.SERVE,
                    json_payload({"tasks": [task], "transport": "float32"}),
                )
                assert msg_type == MsgType.SERVED
                meta, blob = unpack_body(body)
                assert "trace_spans" not in meta
                assert len(blob) > 0
        finally:
            server.close()
            shard.close()


# ----------------------------------------------------------------------
# Cross-process span-tree reconstruction (the tentpole acceptance check)
# ----------------------------------------------------------------------
class TestNetworkedTrace:
    def test_traced_predict_reconstructs_across_two_processes(
        self, net_pool, tmp_path
    ):
        pool, data = net_pool
        path = str(tmp_path / "trace.jsonl")
        with NetworkedCluster(pool, CONFIG) as deployment:
            gateway = deployment.gateway
            task = sorted(gateway.available_tasks())[0]
            writer = JsonlTraceWriter(path)
            TRACER.enable(writer=writer, service="frontend")
            response = gateway.predict(data.test.images[:4], (task,))
            TRACER.disable()
            writer.close()
            assert response.batch_size == 4

        trees = build_trace_tree(load_jsonl_spans(path))
        assert len(trees) == 1, "one request must yield exactly one trace"
        [spans] = trees.values()
        by_name = {s["name"]: s for s in spans}

        # gateway -> wire -> remote shard, linked by parent ids
        root = by_name["cluster.predict"]
        assert root["depth"] == 0 and root["parent_id"] is None
        assert root["service"] == "frontend"
        wire = by_name["net.predict"]
        assert wire["parent_id"] == root["span_id"]
        remote = by_name["shard.predict"]
        assert remote["parent_id"] == wire["span_id"]
        assert remote["service"].startswith("shard")
        assert remote["tags"]["pid"] != os.getpid()

        # ...down to the fused prediction stages inside the worker
        inner = by_name["gateway.predict"]
        assert inner["parent_id"] == remote["span_id"]
        assert inner["service"] == remote["service"]
        stage_names = {
            s["name"] for s in spans if s["parent_id"] == inner["span_id"]
        }
        assert "predict_heads" in stage_names
        assert "predict_argmax" in stage_names
        assert stage_names & {"predict_trunk_fused", "predict_trunk"}

    def test_untraced_traffic_records_nothing(self, net_pool):
        pool, data = net_pool
        with NetworkedCluster(pool, CONFIG) as deployment:
            gateway = deployment.gateway
            task = sorted(gateway.available_tasks())[0]
            gateway.predict(data.test.images[:2], (task,))
            gateway.serve((task,))
        assert len(TRACER.collector) == 0

    def test_unified_snapshot_merges_worker_metrics(self, net_pool):
        pool, _data = net_pool
        with NetworkedCluster(pool, CONFIG) as deployment:
            gateway = deployment.gateway
            task = sorted(gateway.available_tasks())[0]
            gateway.serve((task,))
            snap = gateway.unified_snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["kind"] == "cluster"
        # the worker's serve stages arrive through the STATS frame merge
        assert "serialize" in snap["stages"]
        assert "total" in snap["stages"]
        assert snap["counters"]["requests"] >= 1
