"""Unit tests of the benchmark harness itself (no pool is built, nothing is timed)."""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import types
from pathlib import Path

import pytest

import compare
import opgen
import spans
import stats
import workloads

ROOT = Path(__file__).resolve().parents[2]
TASKS = tuple(f"task{i}" for i in range(8))
IMAGE_SHAPE = (3, 6, 6)


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", opgen.WORKLOAD_NAMES)
def test_same_seed_same_ops_and_other_seed_other_ops(workload):
    first = opgen.build_plan(workload, 0, TASKS, IMAGE_SHAPE)
    again = opgen.build_plan(workload, 0, TASKS, IMAGE_SHAPE)
    other = opgen.build_plan(workload, 1, TASKS, IMAGE_SHAPE)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    # the catalogue is structure, not sample: it does not move with the seed
    assert first.queries == other.queries


def test_catalogue_is_distinct_canonical_and_sized_by_rank():
    catalogue = opgen.composite_catalogue(TASKS)
    assert len(set(catalogue)) == opgen.NUM_COMPOSITES
    assert all(tuple(sorted(names)) == names for names in catalogue)
    assert [len(names) for names in catalogue[:8]] == list(opgen.SIZE_LAYOUT)


def test_clients_split_the_plan_without_overlap():
    plan = dataclasses.replace(opgen.build_plan("mixed_zipf_net", 3, TASKS, IMAGE_SHAPE), clients=2)
    ids = [[op[0] for op in plan.timed_ops(client)] for client in range(plan.clients)]
    assert sorted(sum(ids, [])) == list(range(plan.warmup, plan.warmup + len(plan)))
    warm = [op[0] for client in range(plan.clients) for op in plan.warmup_ops(client)]
    assert sorted(warm) == list(range(plan.warmup))


def test_predict_cold_windows_never_repeat_and_are_views():
    plan = opgen.build_plan("predict_cold_inproc", 0, TASKS, IMAGE_SHAPE)
    starts = [arg for _op, _kind, _query, arg in plan.timed_ops(0)]
    assert len(set(starts)) == len(starts)
    window = plan.image_window(starts[0])
    assert window.shape == (opgen.PREDICT_COLD_BATCH, *IMAGE_SHAPE)
    assert window.base is not None  # a view into the seeded array, not a copy
    # the warm-up touches every composite once, on windows the timed ops never use
    assert sorted(q for _op, _kind, q, _arg in plan.warmup_ops(0)) == list(range(opgen.NUM_COMPOSITES))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_percentile_interpolates_and_counts_the_tail():
    samples = [float(i) for i in range(1, 101)]
    assert stats.percentile(samples, 0.5) == pytest.approx(50.5)
    assert stats.percentile(samples, 1.0) == 100.0
    # 100 samples carry a p95 (5 beyond it) but not the >= 10 beyond that a reported tail needs
    assert stats.samples_beyond(100, 0.95) == 5
    assert stats.samples_beyond(100, 0.50) == 50
    assert stats.samples_beyond(4000, 0.95) >= 150
    assert stats.samples_beyond(0, 0.95) == 0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_quartile_spread_matches_the_acceptance_formula():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    import statistics

    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.quartile_spread([5.0]) == 0.0


def test_gated_figures_are_those_of_the_calmest_window():
    # 1 ms ops back to back, except a spell in the middle half of the run where each takes 3 ms
    log = workloads.ClientLog(started=0.0)
    clock = 0.0
    while clock < 16.0:
        latency = 0.003 if 4.0 <= clock < 12.0 else 0.001
        clock += latency
        log.latencies.append(latency)
        log.ends.append(clock)
    log.finished = clock
    windows, width = workloads.window_latencies([log])
    assert len(windows) == workloads.WINDOWS and width == pytest.approx(1.0, rel=1e-3)
    metrics = workloads.end_to_end_metrics([log], setup_s=2.0, rss_mib=100.0)
    assert metrics["latency_p50_ms"] == pytest.approx(1.0)
    assert metrics["latency_p95_ms"] == pytest.approx(1.0)
    assert metrics["throughput_ops_s"] == pytest.approx(1000.0, rel=0.01)
    assert (metrics["setup_s"], metrics["peak_rss_mb"]) == (2.0, 100.0)
    # no correct op at all: nothing to report, and nothing raised
    empty = workloads.ClientLog(started=0.0, finished=1.0)
    assert workloads.end_to_end_metrics([empty], 2.0, 100.0)["latency_p50_ms"] is None


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    #  root [0,100] ── a [10,40] ── c [20,30]
    #               └─ b [50,90]
    tree = [
        spans.Span("root", 0, 100, -1, 7, 0),
        spans.Span("a", 10, 40, 0, 7, 0),
        spans.Span("c", 20, 30, 1, 7, 0),
        spans.Span("b", 50, 90, 0, 7, 0),
    ]
    assert spans.self_times(tree) == [30, 20, 10, 40]
    assert sum(spans.self_times(tree)) == 100  # self times add up to the root's duration


def test_recorder_nests_spans_and_traces_generators():
    recorder = spans.SpanRecorder()

    def leaf(x):
        return x + 1

    def numbers():
        yield 1
        yield 2

    leaf = recorder.wrap("leaf", leaf, work=lambda args: 3)
    outer = recorder.wrap("outer", lambda: leaf(1) + sum(recorder.wrap("gen", numbers)()))
    assert outer() == 5  # no thread attached yet: calls go straight through
    assert recorder.threads == []
    log = recorder.attach_thread()
    log.op = 42
    assert outer() == 5
    names = [span.name for span in log.spans]
    assert names == ["outer", "leaf", "gen", "gen", "gen"]  # two items and the final resumption
    assert all(span.parent == 0 for span in log.spans[1:]) and log.spans[0].parent == -1
    assert {span.op for span in log.spans} == {42}
    totals = spans.aggregate(recorder)
    assert totals["leaf"].work == 3 and totals["gen"].calls == 3
    assert sum(t.self_ns for t in totals.values()) == totals["outer"].inclusive_ns


def test_patching_reaches_import_aliases_and_restores(monkeypatch):
    defining = types.ModuleType("hbfake.core")
    exec("def f(x):\n    return x * 2\n\nclass K:\n    def m(self, x):\n        return f(x) + 1\n", vars(defining))
    package = types.ModuleType("hbfake")
    package.f, package.K = defining.f, defining.K  # a package re-export
    user = types.ModuleType("hbfake.user")
    user.f = defining.f  # what ``from hbfake.core import f`` leaves behind
    exec("def call(x):\n    return f(x)\n", vars(user))
    outsider = types.ModuleType("elsewhere")
    outsider.f = defining.f
    for module in (package, defining, user, outsider):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    original_f, original_m = defining.f, defining.K.__dict__["m"]

    recorder = spans.SpanRecorder()
    table = (
        ("fake.f", "hbfake:f", None),
        ("fake.m", "hbfake:K.m", None),
        ("fake.gone", "hbfake:moved_away", None),
        ("fake.nomodule", "hbfake.missing:g", None),
    )
    with spans.Patcher(recorder, scan_prefix="hbfake").install(table) as patcher:
        assert patcher.gaps == ["fake.gone", "fake.nomodule"]
        assert user.f is not original_f and defining.f is user.f is package.f
        assert outsider.f is original_f  # outside the scanned prefix: untouched
        log = recorder.attach_thread()
        assert user.call(4) == 8 and defining.K().m(1) == 3
        assert [span.name for span in log.spans] == ["fake.f", "fake.m", "fake.f"]
        assert log.spans[2].parent == 1  # m's call of f went through the wrapper too
    assert defining.f is user.f is package.f is original_f
    assert defining.K.__dict__["m"] is original_m


def test_wrap_table_resolves_at_this_commit():
    unresolved = []
    for name, target, _work in spans.WRAP_TABLE:
        try:
            spans.resolve(target)
        except (ImportError, AttributeError):
            unresolved.append(target)
    assert unresolved == []


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _document(throughputs, failed_share=0.0):
    return {"runs": [
        {"workloads": {"w": {"failed_share": failed_share, "end_to_end": {"throughput_ops_s": value, "latency_p50_ms": 2.0}}}}
        for value in throughputs
    ]}


BENCH = {
    "workloads": [{"name": "w", "why": ""}, {"name": "absent", "why": ""}],
    "end_to_end": [
        {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
}


def _verdicts(a, b):
    return {row.metric: row.verdict for row in compare.compare(BENCH, a, b)}


def test_compare_verdicts():
    steady = _document([100.0, 101.0, 99.0, 100.5])
    assert _verdicts(steady, _document([97.0, 98.0, 96.0, 97.5])) == {
        "throughput_ops_s": "ok", "latency_p50_ms": "ok", "failed_share": "ok"}
    assert _verdicts(steady, _document([85.0, 86.0, 84.0, 85.5]))["throughput_ops_s"] == "worse"
    # higher is better: a gain is never "worse"
    assert _verdicts(steady, _document([150.0, 151.0, 149.0, 150.5]))["throughput_ops_s"] == "ok"
    noisy = _document([100.0, 130.0, 80.0, 95.0, 120.0])
    assert _verdicts(steady, noisy)["throughput_ops_s"] == "unresolved"
    assert _verdicts(steady, _document([100.0, 100.0], failed_share=0.001))["failed_share"] == "worse"
    assert compare.judge("lower", 0.1, 2.0, 2.3, 0.0) == "worse"
    assert compare.judge("lower", 0.1, 2.0, 2.1, 0.0) == "ok"


def test_compare_cli_exit_code(tmp_path, capsys):
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    result = {"failed_share": 0.0, "end_to_end": {name: 10.0 for name, *_ in workloads.END_TO_END}}
    good.write_text(json.dumps({"runs": [{"workloads": {"serve_hot_net": result}}]}))
    slower = dict(result, end_to_end=dict(result["end_to_end"], latency_p95_ms=20.0))
    bad.write_text(json.dumps({"runs": [{"workloads": {"serve_hot_net": slower}}]}))
    assert compare.main([str(good), str(good)]) == 0
    assert compare.main([str(good), str(bad)]) == 1
    assert "worse" in capsys.readouterr().out


# ----------------------------------------------------------------------
# BENCHMARK.json says what run.py emits
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert benchmark["paths"] == ["benchmarks/harness"]
    assert benchmark["command"][-1] == "benchmarks/harness/run.py"
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == list(workloads.WORKLOADS.items())
    assert tuple(workloads.WORKLOADS) == opgen.WORKLOAD_NAMES
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark["end_to_end"]] == [
        tuple(spec) for spec in workloads.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]] == [
        tuple(spec) for spec in workloads.PER_LAYER]
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    names += [w["name"] for w in benchmark["workloads"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    units = [m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in benchmark["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in benchmark["workloads"])
    assert 1 <= benchmark["run_seconds"] <= 60
