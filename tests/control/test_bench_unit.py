"""Unit tests for the shifting replay's pieces (no pool, no serving).

The replay runs in ``test_shifting_replay.py``; here the pure pieces it
stands on — the shifting-Zipf trace generator, the offline Belady bound,
the per-seed report and the :func:`verify_report` gate — are pinned down
with hand-built inputs, so a gate that stops rejecting shows here and not
as a silently passing replay.
"""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from .sim import (
    ReplayReport,
    SeedReport,
    belady_builds,
    shifting_zipf_trace,
    verify_report,
)

TASKS = [f"t{i}" for i in range(8)]


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


def _exhaustive_builds(trace, capacity):
    """The fewest builds any offline policy pays for ``trace`` with room for
    ``capacity`` equal entries: every choice at every miss, tried."""

    @lru_cache(maxsize=None)
    def best(i, resident):
        if i == len(trace):
            return 0
        query = trace[i]
        if query in resident:
            return best(i + 1, resident)
        options = [best(i + 1, resident)]  # bypass
        if len(resident) < capacity:
            options.append(best(i + 1, resident | {query}))
        else:
            options.extend(
                best(i + 1, (resident - {victim}) | {query}) for victim in resident
            )
        return 1 + min(options)

    return best(0, frozenset())


class TestBelady:
    @given(
        trace=st.lists(st.sampled_from("abcde"), max_size=14),
        capacity=st.integers(1, 3),
    )
    def test_equal_charges_match_the_exhaustive_optimum(self, trace, capacity):
        charges = {query: 10 for query in "abcde"}
        assert belady_builds(trace, charges, 10 * capacity) == _exhaustive_builds(
            tuple(trace), capacity
        )

    def test_bypasses_the_entry_used_furthest_away(self):
        # room for one: c is never used again, so it never displaces a
        trace = ["a", "c", "a", "a"]
        assert belady_builds(trace, {"a": 5, "c": 5}, 5) == 2

    def test_unequal_charges_free_the_larger_dead_entry_first(self):
        # b and c are never used again; dropping b (the larger) makes
        # room for d while c stays
        trace = ["b", "c", "d", "d"]
        charges = {"b": 6, "c": 2, "d": 5}
        assert belady_builds(trace, charges, 8) == 3

    def test_oversized_entry_is_a_build_every_time(self):
        assert belady_builds(["x", "x", "x"], {"x": 11}, 10) == 3


GOOD = (SeedReport(0, static=300, doorkeeper=260, bound=180), SeedReport(1, 310, 270, 190))


class TestReport:
    def test_derived_ratios(self):
        row = GOOD[0]
        assert row.share(row.doorkeeper) == pytest.approx(40 / 120)
        assert row.share(row.static) == 0.0
        assert row.share(row.bound) == 1.0
        assert row.share(row.static + 12) == pytest.approx(-0.1)  # worse than LRU

    def test_zero_gap_is_safe(self):
        assert SeedReport(0, static=50, doorkeeper=50, bound=50).share(50) == 0.0

    def test_render_is_a_row_per_seed(self):
        lines = ReplayReport(GOOD).render().splitlines()
        assert len(lines) == 2 + len(GOOD)
        assert lines[0].split(" | ") == [
            "seed", "static-lru", "doorkeeper", "bound", "doorkeeper share"
        ]
        assert lines[2].split() == ["0", "|", "300", "|", "260", "|", "180", "|", "0.333"]


class TestVerifyReport:
    def test_winning_report_passes_unrelaxed(self):
        verify_report(ReplayReport(GOOD), 1 / 3)

    def test_share_must_reach_the_floor_on_every_seed(self):
        short = SeedReport(2, static=300, doorkeeper=271, bound=180)  # 29 / 120
        with pytest.raises(AssertionError, match="seed 2: the doorkeeper closes 0.242"):
            verify_report(ReplayReport(GOOD + (short,)), 0.25)

    def test_a_replay_without_a_gap_fails(self):
        flat = SeedReport(3, static=180, doorkeeper=180, bound=180)
        with pytest.raises(AssertionError, match="seed 3: LRU's 180 builds leave no gap"):
            verify_report(ReplayReport((flat,)), 0.0)

    def test_a_replay_of_no_seed_fails(self):
        with pytest.raises(AssertionError, match="no seed"):
            verify_report(ReplayReport(()), 0.0)
