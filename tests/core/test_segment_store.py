"""The segment store's one invariant, checked against a model.

A memoised blob answers only for the exact module object it was put for,
from that put until the next drop of its name — an install drops the
name, so after ``attach_expert`` nothing answers for the replaced head —
and it dies with its module: the store holds modules weakly.
"""

import itertools
import weakref

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.pool import LIBRARY_TASK, PoolOfExperts
from repro.data import ClassHierarchy
from repro.nn import Linear

HIERARCHY = ClassHierarchy.uniform(3, 2, prefix="t")
TASKS = tuple(task.name for task in HIERARCHY.primitive_tasks())
NAMES = TASKS + (LIBRARY_TASK,)
ENCODINGS = ("float32", "raw+zlib")


class SegmentStoreModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.pool = PoolOfExperts(Linear(2, 2), HIERARCHY)
        self.store = self.pool.segments
        #: token -> module: the only strong references the test keeps
        self.modules = {}
        #: (name, encoding) -> {token: blob} for every put since the name's drop
        self.model = {}
        self.tokens = itertools.count()
        self.serial = itertools.count()

    def _module(self, data):
        token = data.draw(st.sampled_from(sorted(self.modules)), label="module")
        return token, self.modules[token]

    def _drop(self, name) -> None:
        for encoding in ENCODINGS:
            self.model.pop((name, encoding), None)

    @rule()
    def new_module(self):
        self.modules[next(self.tokens)] = Linear(2, 2)

    @precondition(lambda self: self.modules)
    @rule(data=st.data(), name=st.sampled_from(NAMES), encoding=st.sampled_from(ENCODINGS))
    def put(self, data, name, encoding):
        token, module = self._module(data)
        blob = f"{name}/{encoding}/{token}/{next(self.serial)}".encode()
        self.store.put(name, encoding, module, blob)
        self.model.setdefault((name, encoding), {})[token] = blob

    @precondition(lambda self: self.modules)
    @rule(data=st.data(), name=st.sampled_from(NAMES), encoding=st.sampled_from(ENCODINGS))
    def get(self, data, name, encoding):
        token, module = self._module(data)
        expected = self.model.get((name, encoding), {}).get(token)
        assert self.store.get(name, encoding, module) is expected

    @rule(name=st.sampled_from(NAMES))
    def drop(self, name):
        self.store.drop(name)
        self._drop(name)

    @precondition(lambda self: self.modules)
    @rule(data=st.data(), task=st.sampled_from(TASKS))
    def attach_expert(self, data, task):
        token, head = self._module(data)
        replaced = self.pool.experts.get(task)
        self.pool.attach_expert(task, head)
        self._drop(task)
        for encoding in ENCODINGS:
            if replaced is not None:
                assert self.store.get(task, encoding, replaced) is None
            assert self.store.get(task, encoding, head) is None

    @precondition(lambda self: self.modules)
    @rule(data=st.data())
    def collect(self, data):
        token, module = self._module(data)
        if any(head is module for head in self.pool.experts.values()):
            return  # the pool holds it: it cannot die
        alive = weakref.ref(module)
        del self.modules[token], module
        assert alive() is None
        for blobs in self.model.values():
            blobs.pop(token, None)

    @invariant()
    def holds_exactly_the_live_blobs(self):
        blobs = [blob for entries in self.model.values() for blob in entries.values()]
        assert len(self.store) == len(blobs)
        assert self.store.nbytes() == sum(map(len, blobs))


def test_segment_store_follows_its_model():
    run_state_machine_as_test(SegmentStoreModel)
