"""Event journal: ring semantics, seq cursoring, remote ingest, persistence."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import EventJournal, RotatingJsonlWriter
from repro.obs.journal import EVENT_KINDS


class TestLifecycle:
    def test_disabled_emit_is_a_noop(self):
        journal = EventJournal()
        assert journal.emit("cache_evict", tier="model") is None
        assert len(journal) == 0
        assert journal.events() == []

    def test_enable_stamps_seq_ts_service(self):
        journal = EventJournal()
        journal.enable(service="shard3")
        first = journal.emit("worker_start", pid=123)
        second = journal.emit("worker_drain")
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["service"] == "shard3"
        assert first["ts"] > 0
        assert first["pid"] == 123

    def test_disable_stops_recording(self):
        journal = EventJournal()
        journal.enable()
        journal.emit("rebalance")
        journal.disable()
        assert journal.emit("rebalance") is None
        assert len(journal) == 1

    def test_reset_forgets_everything(self):
        journal = EventJournal()
        journal.enable(service="cli")
        journal.emit("rebalance")
        journal.reset()
        assert not journal.enabled
        assert len(journal) == 0
        assert journal.service == "main"
        journal.enable()
        assert journal.emit("rebalance")["seq"] == 1  # seq restarts

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventJournal(capacity=0)

    def test_documented_kinds_are_distinct(self):
        assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)
        assert "cache_evict" in EVENT_KINDS and "worker_death" in EVENT_KINDS


class TestRing:
    def test_oldest_dropped_and_counted(self):
        journal = EventJournal(capacity=3)
        journal.enable()
        for i in range(5):
            journal.emit("slow_query", i=i)
        assert len(journal) == 3
        assert journal.dropped == 2
        assert [e["i"] for e in journal.events()] == [2, 3, 4]

    def test_events_limit(self):
        journal = EventJournal()
        journal.enable()
        for i in range(4):
            journal.emit("slow_query", i=i)
        assert [e["i"] for e in journal.events(limit=2)] == [2, 3]
        assert journal.events(limit=0) == []


class TestCursor:
    def test_since_is_strictly_greater(self):
        journal = EventJournal()
        journal.enable()
        for _ in range(3):
            journal.emit("expert_update")
        assert [e["seq"] for e in journal.since(0)] == [1, 2, 3]
        assert [e["seq"] for e in journal.since(2)] == [3]
        assert journal.since(3) == []

    def test_since_respects_ring_eviction(self):
        journal = EventJournal(capacity=2)
        journal.enable()
        for _ in range(4):
            journal.emit("expert_update")
        # seq 1-2 fell out of the ring; a stale cursor only sees survivors
        assert [e["seq"] for e in journal.since(0)] == [3, 4]


class TestIngest:
    def test_remote_events_are_resequenced_keeping_provenance(self):
        journal = EventJournal()
        journal.enable(service="main")
        journal.emit("rebalance")
        remote = [
            {"seq": 7, "ts": 1.0, "service": "shard1", "kind": "worker_start"},
            {"seq": 8, "ts": 2.0, "service": "shard1", "kind": "cache_evict"},
        ]
        assert journal.ingest(remote) == 2
        events = journal.events()
        assert [e["seq"] for e in events] == [1, 2, 3]  # local numbering
        assert events[1]["service"] == "shard1"  # provenance kept
        assert events[1]["ts"] == 1.0
        assert remote[0]["seq"] == 7  # caller's dicts untouched

    def test_ingest_noop_when_disabled_or_empty(self):
        journal = EventJournal()
        assert journal.ingest([{"seq": 1, "kind": "worker_start"}]) == 0
        journal.enable()
        assert journal.ingest([]) == 0


class TestPersistence:
    def test_writer_streams_events_to_jsonl(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = EventJournal()
        journal.enable(writer=RotatingJsonlWriter(path), service="cli")
        journal.emit("rebalance", moved=3)
        journal.emit("cache_evict", tier="model")
        journal.disable()  # closes the writer
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        assert [r["kind"] for r in records] == ["rebalance", "cache_evict"]
        assert records[0]["moved"] == 3 and records[0]["service"] == "cli"

    def test_journal_file_rotates_on_size(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = EventJournal()
        journal.enable(writer=RotatingJsonlWriter(path, max_bytes=200))
        for i in range(20):
            journal.emit("slow_query", trace=f"trace-{i:04d}")
        journal.disable()
        assert os.path.exists(path + ".1")
        for p in (path, path + ".1"):
            with open(p) as fh:
                for line in fh:
                    assert json.loads(line)["kind"] == "slow_query"
