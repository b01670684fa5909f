"""Canonical query identity — one place, reused by every cache layer.

Consolidation is order-insensitive up to head order: ``M({a, b})`` and
``M({b, a})`` share every weight and predict identical *global* class ids,
they only differ in how the unified logit is laid out.  Caches therefore
key on the *canonical* form of a query — primitive-task names deduplicated
and sorted — so permutations of the same composite task hit the same
entry instead of rebuilding (and re-serializing) an equivalent model.

Anything that serves a cached artifact in canonical order must advertise
that order (e.g. :class:`~repro.serving.gateway.GatewayResponse.tasks`),
because the logit layout follows it.

A key also carries the versions of the modules the artifact was built
from (:meth:`~repro.core.pool.PoolOfExperts.versions` of the canonical
tasks, library last), so it certifies its own entry: a lookup at the
pool's current versions never matches a superseded one.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

from ..data.hierarchy import CompositeTask

__all__ = ["canonical_tasks", "model_key", "payload_key"]

TaskQuery = Union[CompositeTask, Sequence[str], str]


def canonical_tasks(tasks: TaskQuery) -> Tuple[str, ...]:
    """Canonical identity of a composite-task query: sorted, deduplicated names.

    Accepts a :class:`CompositeTask`, a sequence of primitive-task names, or
    a single name.  The result is hashable and identical for every
    permutation (and duplication) of the same task set.
    """
    if isinstance(tasks, CompositeTask):
        names: Sequence[str] = tasks.names
    elif isinstance(tasks, str):
        names = (tasks,)
    else:
        names = tuple(tasks)
    if not names:
        raise ValueError("a query needs at least one primitive task")
    return tuple(sorted(set(names)))


def model_key(
    tasks: TaskQuery, versions: Sequence[int]
) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
    """Cache key for a consolidated in-memory model: ``(canonical tasks, versions)``."""
    return (canonical_tasks(tasks), tuple(versions))


def payload_key(
    tasks: TaskQuery, transport: str, versions: Sequence[int]
) -> Tuple[Tuple[str, ...], str, Tuple[int, ...]]:
    """Cache key for a serialized payload: ``(canonical tasks, transport, versions)``."""
    return (canonical_tasks(tasks), transport, tuple(versions))
