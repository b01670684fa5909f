"""Property tests: ByteBudgetLRU and its Doorkeeper against reference models.

A tiny reference model re-implements the *documented* semantics — LRU
recency, byte budget, and the doorkeeper's second-sighting admission over
a bounded memory of sighted keys — and hypothesis drives both the model
and the real cache through arbitrary op sequences.  Any divergence in
contents, order, or counters is a bug in one of them.
"""

from collections import OrderedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving import cache as serving_cache
from repro.serving.cache import ByteBudgetLRU, Doorkeeper

KEYS = "abcdef"
BUDGET = 100

#: Arbitrary op sequences over a small key alphabet.  Sizes up to just
#: over half the budget force frequent evictions and admission checks.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 60)),
        st.tuples(st.just("get"), st.sampled_from(KEYS)),
        st.tuples(st.just("discard"), st.sampled_from(KEYS)),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)

class ModelLRU:
    """Reference implementation of the documented ByteBudgetLRU semantics."""

    def __init__(self, budget):
        self.budget = budget
        self.entries = OrderedDict()  # key -> size
        self.hits = self.misses = 0
        self.insertions = self.evictions = 0
        self.rejections = 0

    def get(self, key):
        if key not in self.entries:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return self.entries[key]

    def put(self, key, size):
        if self.budget == 0 or size > self.budget:
            self.rejections += 1
            return False
        self.entries.pop(key, None)
        self.entries[key] = size
        self.insertions += 1
        while sum(self.entries.values()) > self.budget:
            del self.entries[next(iter(self.entries))]  # the LRU head
            self.evictions += 1
        return True

    def discard(self, key):
        return self.entries.pop(key, None) is not None

    def clear(self):
        self.entries.clear()


def _apply(cache, model, ops):
    """Run ``ops`` through both and assert equivalence after every step."""
    for op in ops:
        if op[0] == "put":
            _, key, size = op
            assert cache.put(key, size, size) == model.put(key, size)
        elif op[0] == "get":
            assert cache.get(op[1]) == model.get(op[1])
        elif op[0] == "discard":
            assert cache.discard(op[1]) == model.discard(op[1])
        else:
            cache.clear()
            model.clear()
        stats = cache.stats()
        # hard budget invariant, whatever the policy decided
        assert stats.current_bytes <= BUDGET
        # identical contents in identical recency order
        assert cache.keys() == list(model.entries)
        assert stats.current_bytes == sum(model.entries.values())
        assert stats.current_entries == len(model.entries)
        # identical counter trajectories
        assert stats.hits == model.hits
        assert stats.misses == model.misses
        assert stats.insertions == model.insertions
        assert stats.evictions == model.evictions
        assert stats.rejections == model.rejections


@pytest.mark.parametrize("tier", [None, "model", "payload", "result"])
@given(ops=OPS)
def test_cache_matches_reference_model(tier, ops):
    _apply(ByteBudgetLRU(BUDGET, name=tier), ModelLRU(BUDGET), ops)


#: A stream of misses (each one the doorkeeper is asked about) and gets.
SIGHTINGS = st.lists(
    st.one_of(
        st.tuples(st.just("miss"), st.sampled_from(KEYS), st.integers(0, 60)),
        st.tuples(st.just("get"), st.sampled_from(KEYS)),
    ),
    max_size=40,
)


@given(ops=SIGHTINGS, memory=st.integers(0, 4))
def test_doorkeeper_admits_a_key_from_its_second_sighting(ops, memory):
    """A miss is stored iff its key is resident or among the last
    ``SEEN_KEYS`` keys sighted and refused (a refusal is a rejection)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serving_cache, "SEEN_KEYS", memory)
        _check_doorkeeper(ops, memory)


def _check_doorkeeper(ops, memory):
    cache = ByteBudgetLRU(BUDGET)
    doorkeeper = Doorkeeper(cache)
    model = ModelLRU(BUDGET)
    seen = OrderedDict()
    for op in ops:
        if op[0] == "get":
            assert cache.get(op[1]) == model.get(op[1])
            continue
        _, key, size = op
        admitted = key in seen or key in model.entries
        if key in seen:
            seen.move_to_end(key)
        elif not admitted:
            seen[key] = None
            if len(seen) > memory:
                seen.popitem(last=False)
        assert doorkeeper.admit(key) == admitted
        if admitted:
            assert doorkeeper.put(key, size, size, True) == model.put(key, size)
        else:
            assert not doorkeeper.put(key, size, size, False)
            model.rejections += 1
        assert cache.keys() == list(model.entries)
        assert cache.stats().rejections == model.rejections


def test_first_sighting_is_admission_denial():
    """A one-off never displaces a repeated key; its second sighting is kept."""
    cache = ByteBudgetLRU(100)
    doorkeeper = Doorkeeper(cache)
    for key in ("hot", "hot", "warm", "warm"):
        doorkeeper.put(key, b"x", 50, doorkeeper.admit(key))
    assert not doorkeeper.put("cold", b"z", 50, doorkeeper.admit("cold"))
    assert cache.keys() == ["hot", "warm"]
    assert doorkeeper.put("cold", b"z", 50, doorkeeper.admit("cold"))
    assert cache.keys() == ["warm", "cold"]
    stats = cache.stats()
    assert (stats.rejections, stats.insertions, stats.evictions) == (3, 3, 1)
