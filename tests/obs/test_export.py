"""Exporters: JSONL trace log, slow-query log, Prometheus text exposition."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.obs import (
    JsonlTraceWriter,
    RotatingJsonlWriter,
    SlowQueryLog,
    Tracer,
    build_trace_tree,
    format_trace,
    load_jsonl_spans,
    parse_prometheus,
    render_prometheus,
    select_traces,
)


def _span(name, trace_id="t1", span_id=None, parent_id=None, start=0.0, duration=0.01):
    return {
        "trace_id": trace_id,
        "span_id": span_id or name,
        "parent_id": parent_id,
        "name": name,
        "service": "test",
        "start": start,
        "duration": duration,
        "tags": {},
    }


class TestJsonlWriter:
    def test_write_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTraceWriter(path) as writer:
            writer.write(_span("a"))
            writer.write(_span("b"))
        spans = load_jsonl_spans(path)
        assert [s["name"] for s in spans] == ["a", "b"]

    def test_rotation_keeps_both_files_readable(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTraceWriter(path, max_bytes=200) as writer:
            for i in range(10):
                writer.write(_span(f"s{i}"))
        assert os.path.exists(path + ".1")
        spans = load_jsonl_spans(path)
        assert len(spans) < 10  # some rotated out of <path>.1's window
        assert all("name" in s for s in spans)

    def test_tracer_writes_through(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer()
        with JsonlTraceWriter(path) as writer:
            tracer.enable(writer=writer)
            with tracer.span("root"):
                pass
        [record] = load_jsonl_spans(path)
        assert record["name"] == "root"


class TestSlowQueryLog:
    def test_threshold_filters(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = SlowQueryLog(path, threshold_s=0.005)
        fast = _span("fast", duration=0.001)
        slow = _span("slow", duration=0.010)
        assert log.maybe_record(fast, [fast]) is False
        assert log.maybe_record(slow, [slow, _span("child")]) is True
        log.close()
        assert log.count == 1
        [entry] = [json.loads(l) for l in Path(path).read_text().splitlines()]
        assert entry["root"] == "slow"
        assert len(entry["spans"]) == 2

    def test_tracer_records_slow_local_roots_with_full_tree(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        tracer = Tracer()
        tracer.enable(slow_log=SlowQueryLog(path, threshold_s=0.0))
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        tracer._slow_log.close()
        assert tracer._slow_log.count == 1
        [entry] = [json.loads(l) for l in Path(path).read_text().splitlines()]
        assert {s["name"] for s in entry["spans"]} == {"root", "child"}

    def test_slow_query_emits_journal_event(self, tmp_path):
        from repro.obs import JOURNAL

        JOURNAL.reset()
        JOURNAL.enable()
        log = SlowQueryLog(str(tmp_path / "slow.jsonl"), threshold_s=0.005)
        try:
            log.maybe_record(_span("fast", duration=0.001), [])
            assert len(JOURNAL) == 0  # fast queries stay quiet
            slow = _span("slow", duration=0.010)
            log.maybe_record(slow, [slow])
            [event] = JOURNAL.events()
            assert event["kind"] == "slow_query"
            assert event["root"] == "slow"
            assert event["trace_id"] == slow["trace_id"]
            assert event["duration"] == pytest.approx(0.010)
        finally:
            log.close()
            JOURNAL.reset()


# the trace writer, the slow-query log, and the journal file all rotate
# through the same RotatingJsonlWriter base: one shared contract test
# (factories: only the sink under test opens the file)
def _rotating_writers(path):
    return {
        "base": (
            lambda: RotatingJsonlWriter(path, max_bytes=200),
            lambda w, i: w.write(_span(f"s{i}")),
        ),
        "trace": (
            lambda: JsonlTraceWriter(path, max_bytes=200),
            lambda w, i: w.write(_span(f"s{i}")),
        ),
        "slow": (
            lambda: SlowQueryLog(path, threshold_s=0.0, max_bytes=200),
            lambda w, i: w.maybe_record(_span(f"s{i}"), [_span(f"s{i}")]),
        ),
    }


class TestSharedRotation:
    @pytest.mark.parametrize("which", ["base", "trace", "slow"])
    def test_every_jsonl_sink_rotates_on_size(self, tmp_path, which):
        path = str(tmp_path / "sink.jsonl")
        make, write_one = _rotating_writers(path)[which]
        writer = make()
        for i in range(30):
            write_one(writer, i)
        writer.close()
        assert os.path.exists(path + ".1"), "rotation must produce <path>.1"
        assert os.path.getsize(path + ".1") <= 200 + 512  # one record of slack
        # every line in both generations stays parseable; the rotated
        # generation is never empty (the live file may be, right after a
        # boundary rotation)
        assert [json.loads(line) for line in Path(path + ".1").read_text().splitlines()]
        for line in Path(path).read_text().splitlines():
            json.loads(line)

    def test_no_rotation_below_the_budget(self, tmp_path):
        path = str(tmp_path / "sink.jsonl")
        with RotatingJsonlWriter(path) as writer:  # default 16 MiB budget
            writer.write(_span("only"))
        assert not os.path.exists(path + ".1")


class TestSelectTraces:
    TREES = {
        "t1": [_span("a", trace_id="t1")],
        "t2": [_span("b", trace_id="t2")],
        "t3": [_span("c", trace_id="t3")],
    }

    def test_default_keeps_everything_in_order(self):
        selected = select_traces(self.TREES)
        assert [tid for tid, _ in selected] == ["t1", "t2", "t3"]

    def test_trace_id_filter(self):
        [(tid, spans)] = select_traces(self.TREES, trace_id="t2")
        assert tid == "t2" and spans[0]["name"] == "b"
        assert select_traces(self.TREES, trace_id="nope") == []

    def test_limit_truncates(self):
        assert [t for t, _ in select_traces(self.TREES, limit=2)] == ["t1", "t2"]
        assert len(select_traces(self.TREES, limit=0)) == 3  # 0 = unlimited


class TestPrometheus:
    SNAPSHOT = {
        "schema": 1,
        "kind": "cluster",
        "stages": {
            "total": {"count": 4, "mean": 0.002, "p50": 0.002, "p95": 0.003, "p99": 0.003, "max": 0.004}
        },
        "counters": {"requests": 4, "cross_shard": 1},
        "fanout": {1: 3, 2: 1},
        "shard_requests": {0: 2, 1: 3},
    }

    def test_render_parse_round_trip(self):
        text = render_prometheus(self.SNAPSHOT)
        samples = parse_prometheus(text)
        assert samples[("repro_snapshot_info", (("kind", "cluster"), ("schema", "1")))] == 1
        assert samples[("repro_counter_total", (("name", "requests"),))] == 4
        assert samples[("repro_stage_latency_seconds_count", (("stage", "total"),))] == 4
        assert samples[("repro_fanout_requests_total", (("shards", "2"),))] == 1
        assert samples[("repro_shard_requests_total", (("shard", "1"),))] == 3
        quantiles = {
            labels
            for (metric, labels) in samples
            if metric == "repro_stage_latency_seconds"
        }
        assert len(quantiles) == 3  # p50/p95/p99

    def test_sum_is_mean_times_count(self):
        samples = parse_prometheus(render_prometheus(self.SNAPSHOT))
        assert samples[
            ("repro_stage_latency_seconds_sum", (("stage", "total"),))
        ] == pytest.approx(0.008)

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("metric{unterminated 1")
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("metric not-a-number")

    def test_empty_snapshot_renders_only_info(self):
        text = render_prometheus({"schema": 1, "kind": "serving", "stages": {}, "counters": {}})
        samples = parse_prometheus(text)
        assert list(samples) == [
            ("repro_snapshot_info", (("kind", "serving"), ("schema", "1")))
        ]


class TestTraceTree:
    def test_parent_before_child_depth_first(self):
        spans = [
            _span("child", span_id="c", parent_id="r", start=2.0),
            _span("root", span_id="r", start=1.0),
            _span("sibling", span_id="s", parent_id="r", start=3.0),
            _span("grandchild", span_id="g", parent_id="c", start=2.5),
        ]
        [ordered] = build_trace_tree(spans).values()
        assert [s["name"] for s in ordered] == ["root", "child", "grandchild", "sibling"]
        assert [s["depth"] for s in ordered] == [0, 1, 2, 1]

    def test_missing_parent_becomes_root(self):
        spans = [_span("orphan", span_id="o", parent_id="gone")]
        [ordered] = build_trace_tree(spans).values()
        assert ordered[0]["depth"] == 0

    def test_format_trace_mentions_names_and_durations(self):
        spans = [_span("root", span_id="r"), _span("leaf", span_id="l", parent_id="r")]
        [ordered] = build_trace_tree(spans).values()
        text = format_trace(ordered)
        assert "root" in text and "leaf" in text and "ms" in text
        assert format_trace([]) == "(empty trace)"
