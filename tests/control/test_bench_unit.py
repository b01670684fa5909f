"""Unit tests for the shifting replay's pieces (no pool, no serving).

The two-arm replay runs in ``test_shifting_replay.py``; here the pure
pieces it stands on — the explicitly stepped clock, the shifting-Zipf
trace generator, the two-arm report and the :func:`verify_report` gate —
are pinned down with hand-built inputs, so a gate that stops rejecting
shows here and not as a silently passing replay.
"""

import itertools

import pytest

from .sim import (
    ArmReport,
    FakeClock,
    ReplayReport,
    shifting_zipf_trace,
    verify_report,
)

TASKS = [f"t{i}" for i in range(8)]


class TestStepClock:
    def test_advances_explicitly(self):
        clock = FakeClock(start=2.0)
        assert clock() == 2.0
        clock.advance(0.5)
        clock.advance(0.5)
        assert clock() == 3.0
        with pytest.raises(ValueError, match="backwards"):
            clock.advance(-0.1)


class TestShiftingWorkloadTrace:
    def test_same_seed_is_bit_identical(self):
        a = shifting_zipf_trace(TASKS, requests=100, hot_size=4, seed=7)
        b = shifting_zipf_trace(TASKS, requests=100, hot_size=4, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = shifting_zipf_trace(TASKS, requests=100, hot_size=4, seed=0)
        b = shifting_zipf_trace(TASKS, requests=100, hot_size=4, seed=1)
        assert a != b

    def test_rotation_at_midpoint_with_disjoint_hot_sets(self):
        trace = shifting_zipf_trace(
            TASKS, requests=200, hot_size=4, hot_fraction=1.0, seed=3
        )
        assert len(trace) == 200
        phase1 = set(q for q, _ in trace[:100])
        phase2 = set(q for q, _ in trace[100:])
        assert len(phase1) <= 4 and len(phase2) <= 4
        assert not phase1 & phase2  # the hot sets are disjoint pairs

    def test_queries_are_canonical_combinations(self):
        trace = shifting_zipf_trace(TASKS, requests=150, hot_size=4, seed=5)
        universe = set(
            itertools.chain(
                ((n,) for n in TASKS),
                itertools.combinations(sorted(TASKS), 2),
                itertools.combinations(sorted(TASKS), 3),
            )
        )
        assert all(q in universe for q, _ in trace)
        assert all(t == "float32" for _, t in trace)

    def test_too_few_tasks_rejected(self):
        with pytest.raises(ValueError, match="disjoint hot sets"):
            shifting_zipf_trace(["a", "b", "c"], hot_size=8)

    def test_too_few_requests_rejected(self):
        with pytest.raises(ValueError, match="requests"):
            shifting_zipf_trace(TASKS, requests=1)


def _arm(label, hit_rate, elapsed_s=1.0, **overrides):
    fields = dict(
        label=label,
        requests=100,
        hit_rate=hit_rate,
        misses=100 - int(100 * hit_rate),
        score_evictions=0,
        rejections=0,
        prefetch_builds=0,
        prefetch_hits=0,
        elapsed_s=elapsed_s,
    )
    fields.update(overrides)
    return ArmReport(**fields)


# 40 misses + 5 prefetch builds against the static arm's 50 misses
GOOD_TUNED = dict(score_evictions=20, rejections=30, prefetch_builds=5, prefetch_hits=9)


class TestReport:
    def test_derived_ratios(self):
        report = ReplayReport(
            _arm("s", 0.5), _arm("t", 0.6, elapsed_s=100 / 120, **GOOD_TUNED)
        )
        assert report.hit_rate_gain == pytest.approx(0.1)
        assert report.qps_ratio == pytest.approx(1.2)
        assert report.static.builds == 50
        assert report.tuned.builds == 45
        # two replays are equal on their counts, whatever the wall clock read
        assert report == ReplayReport(
            _arm("s", 0.5, elapsed_s=9.0), _arm("t", 0.6, elapsed_s=0.1, **GOOD_TUNED)
        )

    def test_zero_static_qps_is_safe(self):
        report = ReplayReport(_arm("s", 0.5, elapsed_s=0.0), _arm("t", 0.6))
        assert report.static.qps == 0.0
        assert report.qps_ratio == 0.0

    def test_render_is_a_two_arm_table(self):
        report = ReplayReport(
            _arm("s", 0.5), _arm("t", 0.6, elapsed_s=100 / 120, **GOOD_TUNED)
        )
        text = report.render()
        assert "static-lru" not in text  # labels come from the arms
        lines = text.splitlines()
        assert lines[2].startswith("s ") and lines[3].startswith("t ")
        assert "qps_ratio=1.20x" in text
        assert "gain=+10.0%" in text
        assert "builds=45 vs 50" in text


class TestVerifyReport:
    def test_winning_report_passes_unrelaxed(self):
        verify_report(ReplayReport(_arm("s", 0.5), _arm("t", 0.6, **GOOD_TUNED)))

    def test_wall_clock_is_never_gated(self):
        slower = _arm("t", 0.6, elapsed_s=10.0, **GOOD_TUNED)
        verify_report(ReplayReport(_arm("s", 0.5), slower))

    def test_hit_rate_must_strictly_improve(self):
        report = ReplayReport(_arm("s", 0.6), _arm("t", 0.6, **GOOD_TUNED))
        with pytest.raises(AssertionError, match="hit rate"):
            verify_report(report)

    def test_controller_must_prefetch(self):
        tuned = dict(GOOD_TUNED, prefetch_builds=0)
        report = ReplayReport(_arm("s", 0.5), _arm("t", 0.6, **tuned))
        with pytest.raises(AssertionError, match="never prefetched"):
            verify_report(report)

    def test_prefetches_must_be_served(self):
        tuned = dict(GOOD_TUNED, prefetch_hits=0)
        report = ReplayReport(_arm("s", 0.5), _arm("t", 0.6, **tuned))
        with pytest.raises(AssertionError, match="prefetched payload"):
            verify_report(report)

    def test_score_hook_must_act(self):
        tuned = dict(GOOD_TUNED, score_evictions=0, rejections=0)
        report = ReplayReport(_arm("s", 0.5), _arm("t", 0.6, **tuned))
        with pytest.raises(AssertionError, match="score hook"):
            verify_report(report)

    def test_builds_must_undercut_static_misses(self):
        # 40 misses + 10 prefetches ties the static arm's 50 misses
        tuned = dict(GOOD_TUNED, prefetch_builds=10)
        report = ReplayReport(_arm("s", 0.5), _arm("t", 0.6, **tuned))
        with pytest.raises(AssertionError, match="built 40 \\+ 10"):
            verify_report(report)
