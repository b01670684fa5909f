"""Harness-side tracing: spans recorded around the program's public entry points.

The program is not edited and its own ``TRACER``/``ARENA`` stay off.  For
the traced replay the harness swaps each entry point in :data:`WRAP_TABLE`
for a wrapper that records a span — name, start, end, parent (the span
open on the same thread when it started) and the op it belongs to — into
a per-thread list.  A span's *self time* is its duration minus the
durations of its children; summed over every span of an op, self times
equal the op's latency exactly, which is what the waterfall relies on.

Targets are named by package export (``"repro.core:serialize_task_model"``),
never by the file that currently defines them: a function is replaced in
every ``repro`` module whose globals hold that very object (the defining
module, re-exports, ``from x import f`` aliases); a method is replaced on
its class.  A target that no longer resolves is reported as a gap and its
metrics read ``null``; it never raises into the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Root span the load generator opens around each ``serve``/``predict`` call.
OP_SPAN = "loadgen.op"


def _rows(args) -> int:
    """Leading dimension of the first array argument (after ``self``)."""
    shape = getattr(args[1], "shape", None) if len(args) > 1 else None
    return int(shape[0]) if shape else 0


def _heads(args) -> int:
    return int(getattr(args[0], "n_heads", 0))


#: ``(span name, "package:attribute path", work counter or None)``.
WRAP_TABLE: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("serving.canonicalize", "repro.serving:canonical_tasks", None),
    ("serving.gateway", "repro.serving:ServingGateway.serve", None),
    ("serving.gateway", "repro.serving:ServingGateway.predict", None),
    ("serving.cache_get", "repro.serving:ByteBudgetLRU.get", None),
    ("serving.cache_put", "repro.serving:ByteBudgetLRU.put", None),
    ("core.consolidate", "repro.core:PoolOfExperts.consolidate", None),
    ("core.serialize", "repro.core:serialize_task_model", None),
    ("core.deserialize_heads", "repro.core:deserialize_expert_heads", None),
    ("core.digest", "repro.core:array_digest", None),
    ("core.trunk_cache", "repro.core:TrunkFeatureCache.get_or_compute", None),
    ("cluster.plan", "repro.cluster:ShardRouter.plan", None),
    ("cluster.plan", "repro.cluster:plan_groups", None),
    ("cluster.gateway", "repro.cluster:ClusterGateway.serve", None),
    ("cluster.gateway", "repro.cluster:ClusterGateway.predict", None),
    ("net.remote.serve", "repro.net:RemoteShardClient.serve", None),
    ("net.remote.predict", "repro.net:RemoteShardClient.predict", None),
    ("net.remote.fetch_heads", "repro.net:RemoteShardClient.fetch_heads", None),
    ("net.encode", "repro.net:encode_message", None),
    ("net.decode", "repro.net:FrameDecoder.feed", None),
    ("net.decode", "repro.net.frame:MessageAssembler.add", None),
    ("nn.trunk", "repro.nn:fused.FusedTrunk.__call__", _rows),
    ("models.head_bank", "repro.models:FusedHeadBank.__call__", _heads),
)


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the same thread's span list, -1 for a root
    op: int
    work: int


class _ThreadLog:
    __slots__ = ("spans", "stack", "op")

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.op = -1


class SpanRecorder:
    """In-memory span store; one append-only list per recording thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: List[_ThreadLog] = []

    def attach_thread(self) -> _ThreadLog:
        """Start recording on the calling thread; others are left untraced."""
        log = _ThreadLog()
        self._local.log = log
        with self._lock:
            self.threads.append(log)
        return log

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call (or, for a
        generator function, around every resumption of the generator)."""
        local = self._local

        def enter(args) -> Optional[Tuple[_ThreadLog, int, int, int, int]]:
            log = getattr(local, "log", None)
            if log is None:
                return None
            index = len(log.spans)
            log.spans.append(None)  # reserved: a parent precedes its children
            parent = log.stack[-1] if log.stack else -1
            log.stack.append(index)
            units = work(args) if work is not None else 0
            return log, index, parent, units, perf_counter_ns()

        def leave(token) -> None:
            end = perf_counter_ns()
            log, index, parent, units, start = token
            log.stack.pop()
            log.spans[index] = Span(name, start, end, parent, log.op, units)

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    token = enter(args)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        if token is not None:
                            leave(token)
                    yield item

            traced_generator.__wrapped__ = fn
            return traced_generator

        def traced(*args, **kwargs):
            token = enter(args)
            if token is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(token)

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> Iterable[Tuple[int, int, Span]]:
        """``(thread, index, span)`` for every completed span."""
        for thread, log in enumerate(self.threads):
            for index, span in enumerate(log.spans):
                if span is not None:
                    yield thread, index, span

    def write_jsonl(self, sink, label: str) -> None:
        """One JSON object per span to the open file ``sink``; ``id``/``parent``
        index the spans of one ``thread`` of the run labelled ``label``."""
        for thread, index, span in self.spans():
            record = {"run": label, "thread": thread, "id": index, **span._asdict()}
            sink.write(json.dumps(record) + "\n")


def self_times(spans: List[Optional[Span]]) -> List[int]:
    """Per span of one thread: duration minus the time its children cover."""
    own = [0 if span is None else span.end_ns - span.start_ns for span in spans]
    for span in spans:
        if span is not None and span.parent >= 0:
            own[span.parent] -= span.end_ns - span.start_ns
    return own


class LayerTotals(NamedTuple):
    calls: int
    self_ns: int
    inclusive_ns: int
    work: int


def aggregate(recorder: SpanRecorder) -> Dict[str, LayerTotals]:
    """Calls, self time, inclusive time and work units per span name."""
    totals: Dict[str, List[int]] = {}
    for log in recorder.threads:
        for span, own in zip(log.spans, self_times(log.spans)):
            if span is None:
                continue
            entry = totals.setdefault(span.name, [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += own
            entry[2] += span.end_ns - span.start_ns
            entry[3] += span.work
    return {name: LayerTotals(*entry) for name, entry in totals.items()}


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
def resolve(target: str):
    """``(owner, attribute name, object)`` for ``"package:dotted.path"``."""
    module_name, _, path = target.partition(":")
    owner = None
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        owner, obj = obj, inspect.getattr_static(obj, part)
    return owner, path.rsplit(".", 1)[-1], obj


class Patcher:
    """Installs the wrap table and puts everything back on :meth:`restore`."""

    def __init__(self, recorder: SpanRecorder, scan_prefix: str = "repro") -> None:
        self.recorder = recorder
        self.scan_prefix = scan_prefix
        self._undo: List[Tuple[object, str, object]] = []
        #: Span names with a target that did not resolve.
        self.gaps: List[str] = []

    def install(self, table=WRAP_TABLE) -> "Patcher":
        for name, target, work in table:
            try:
                owner, attribute, original = resolve(target)
                if not inspect.isfunction(original):
                    raise TypeError(f"{target} is not a plain function")
            except (ImportError, AttributeError, TypeError):
                self.gaps.append(name)
                continue
            wrapped = self.recorder.wrap(name, original, work)
            if inspect.isclass(owner):
                self._set(owner, attribute, wrapped, original)
            else:
                self._replace_everywhere(original, wrapped)
        return self

    def _set(self, owner, attribute: str, value, original) -> None:
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def _replace_everywhere(self, original, wrapped) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == self.scan_prefix
                or module_name.startswith(self.scan_prefix + ".")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped, original)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
