"""Class hierarchies, primitive tasks and composite tasks (paper §3).

The paper decomposes the oracle's class set ``C`` into *primitive tasks*
``H_1 … H_n`` — fine-grained groups taken from a semantic class hierarchy
(CIFAR-100 superclasses; low-level ancestors of the ImageNet tree).  A
*composite task* ``Q`` is a union of primitive tasks, and the task-specific
model ``M(Q)`` must recognise exactly the classes of ``Q``.

:class:`ClassHierarchy` owns the global class indexing and exposes the
primitive tasks; its :attr:`~ClassHierarchy.tree` view is a :mod:`networkx`
tree, so code written against real semantic trees (e.g. WordNet subsets)
reads it unchanged.  :mod:`networkx` is imported only when that view is
asked for: no serving or training process pays for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence, Tuple

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["PrimitiveTask", "CompositeTask", "ClassHierarchy"]


@dataclass(frozen=True)
class PrimitiveTask:
    """A fine-grained group of classes ``H_i ⊂ C`` that is not decomposed further."""

    name: str
    classes: Tuple[int, ...]
    class_names: Tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.classes)

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.classes


@dataclass(frozen=True)
class CompositeTask:
    """A query ``Q`` = union of primitive tasks, in a fixed order.

    The order of the primitive tasks defines the order in which expert
    sub-logits are concatenated in the consolidated model, and therefore the
    mapping from unified-logit positions back to global class ids.
    """

    tasks: Tuple[PrimitiveTask, ...]

    def __post_init__(self) -> None:
        seen: set = set()
        for task in self.tasks:
            overlap = seen.intersection(task.classes)
            if overlap:
                raise ValueError(f"primitive tasks overlap on classes {sorted(overlap)}")
            seen.update(task.classes)

    @property
    def classes(self) -> Tuple[int, ...]:
        """Global class ids of Q, in expert-concatenation order."""
        return tuple(itertools.chain.from_iterable(t.classes for t in self.tasks))

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.tasks)

    @property
    def n_primitives(self) -> int:
        """The paper's ``n(Q)``."""
        return len(self.tasks)

    def __len__(self) -> int:
        return sum(len(t) for t in self.tasks)

    def __contains__(self, class_id: int) -> bool:
        return any(class_id in t for t in self.tasks)


class ClassHierarchy:
    """Two-level class hierarchy: superclasses (primitive tasks) over classes.

    Parameters
    ----------
    groups:
        Mapping from superclass name to the list of class names it contains.
        Global class ids are assigned in iteration order, matching how a
        dataset enumerates its labels.
    """

    def __init__(self, groups: Mapping[str, Sequence[str]]) -> None:
        if not groups:
            raise ValueError("hierarchy needs at least one superclass")
        self._tasks: List[PrimitiveTask] = []
        self._task_by_name: Dict[str, PrimitiveTask] = {}
        self._task_of_class: Dict[int, PrimitiveTask] = {}
        self._class_names: List[str] = []
        next_id = 0
        for super_name, class_names in groups.items():
            if not class_names:
                raise ValueError(f"superclass {super_name!r} has no classes")
            ids = tuple(range(next_id, next_id + len(class_names)))
            next_id += len(class_names)
            task = PrimitiveTask(super_name, ids, tuple(class_names))
            self._tasks.append(task)
            self._task_by_name[super_name] = task
            for class_id, class_name in zip(ids, class_names):
                self._task_of_class[class_id] = task
                self._class_names.append(class_name)

    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        return len(self._class_names)

    @property
    def num_primitive_tasks(self) -> int:
        return len(self._tasks)

    @property
    def class_names(self) -> Tuple[str, ...]:
        return tuple(self._class_names)

    @property
    def tree(self) -> "nx.DiGraph":
        """The semantic tree (root -> superclass -> class), built on demand."""
        import networkx as nx

        tree = nx.DiGraph()
        for task in self._tasks:
            tree.add_edge("<root>", task.name)
            tree.add_edges_from((task.name, class_name) for class_name in task.class_names)
        return tree

    def primitive_tasks(self) -> Tuple[PrimitiveTask, ...]:
        return tuple(self._tasks)

    def task(self, name: str) -> PrimitiveTask:
        try:
            return self._task_by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown primitive task {name!r}; known: {sorted(self._task_by_name)}"
            ) from None

    def task_of_class(self, class_id: int) -> PrimitiveTask:
        return self._task_of_class[class_id]

    def composite(self, names: Iterable[str]) -> CompositeTask:
        """Build the composite task ``Q`` from primitive-task names."""
        return CompositeTask(tuple(self.task(n) for n in names))

    def all_composites(self, n_primitives: int) -> List[CompositeTask]:
        """Every composite task with exactly ``n_primitives`` primitives."""
        combos = itertools.combinations(self._tasks, n_primitives)
        return [CompositeTask(c) for c in combos]

    @staticmethod
    def uniform(
        num_superclasses: int, classes_per_super: int, prefix: str = "task"
    ) -> "ClassHierarchy":
        """A synthetic CIFAR-100-style hierarchy with equal-size groups."""
        groups = {
            f"{prefix}{s}": [f"{prefix}{s}_class{c}" for c in range(classes_per_super)]
            for s in range(num_superclasses)
        }
        return ClassHierarchy(groups)

    @staticmethod
    def variable(
        group_sizes: Sequence[int], prefix: str = "group"
    ) -> "ClassHierarchy":
        """A Tiny-ImageNet-style hierarchy with variable group sizes (3-10)."""
        groups = {
            f"{prefix}{s}": [f"{prefix}{s}_class{c}" for c in range(size)]
            for s, size in enumerate(group_sizes)
        }
        return ClassHierarchy(groups)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ClassHierarchy(num_classes={self.num_classes}, "
            f"num_primitive_tasks={self.num_primitive_tasks})"
        )
