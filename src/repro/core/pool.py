"""Pool of Experts — the preprocessing phase (paper §4.1).

``PoolOfExperts.preprocess`` turns an oracle network into:

1. a **library**: the trunk (conv1-conv3) of a small generic student
   distilled from the oracle with standard KD (Eq. 1), then frozen; and
2. one tiny **expert head** per primitive task, extracted with conditional
   knowledge distillation (Eq. 2) on *all* training data while sharing the
   frozen library trunk — every same-shape head of one call in a single
   lockstep bank.

The resulting pool is the queryable "neural database": the service phase
selects a composite task's library and experts from it
(:meth:`PoolOfExperts.snapshot`) and assembles them into a model
(:meth:`PoolOfExperts.consolidate`) in microseconds, with no training.

Every module carries a version, and a snapshot carries the versions of
the modules it holds, read with them under the pool's lock.  A served
artifact is a pure function of ``(tasks, transport, versions)``, so the
serving tiers store each one under its snapshot's versions and look up
under the pool's current ones: a superseded entry can never match.
"""

from __future__ import annotations

import threading
import weakref
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.dataset import ArrayDataset
from ..data.hierarchy import ClassHierarchy, CompositeTask, PrimitiveTask
from ..distill import (
    CKDSettings,
    History,
    TrainConfig,
    batched_forward,
    distill_ckd,
    distill_kd,
)
from ..models import BranchedSpecialistNet, WideResNet, WRNHead, WRNHeadBank, WRNTrunk
from ..nn import Module
from ..obs.journal import JOURNAL
from .features import array_digest
from .heap import release_freed_heap

__all__ = [
    "LIBRARY_TASK",
    "PoEConfig",
    "PoolOfExperts",
    "PoolSnapshot",
    "SegmentStore",
    "expert_init_seed",
]

TaskRef = Union[str, PrimitiveTask]

#: Version name of the *library trunk*: it versions like an expert, and
#: its version closes every versions tuple (:meth:`PoolOfExperts.versions`).
LIBRARY_TASK = "__library__"


class SegmentStore:
    """Encoded payload segments, memoised once per (module, encoding).

    Keys are the pool's version names (a task name, or
    :data:`LIBRARY_TASK` for the trunk).  An entry answers only for the
    exact module object it was encoded from: a network consolidated before
    a version bump misses (and is encoded fresh) instead of being served
    the new module's bytes, and what it leaves behind cannot be hit by a
    request holding the new module.  A name holds one blob per module
    object, keyed weakly: a cluster front end consolidates the pool's own
    head in one composite and a fetched copy of it in another, and the two
    must not evict each other, while a copy's blob dies with the copy.
    Bounded by (experts + 1) x encodings plus the live copies, so it has
    no budget; a version drop clears the name.
    """

    def __init__(self) -> None:
        # name -> encoding -> {module: blob}
        self._entries: Dict[str, Dict[str, "weakref.WeakKeyDictionary[Module, bytes]"]] = {}
        # a dropped module's weak entry may vanish on any thread, mid-walk
        self._lock = threading.Lock()

    def get(self, name: str, encoding: str, module: Module) -> Optional[bytes]:
        with self._lock:
            blobs = self._entries.get(name, {}).get(encoding)
            return None if blobs is None else blobs.get(module)

    def put(self, name: str, encoding: str, module: Module, blob: bytes) -> None:
        """Memoise ``blob``, ``module`` encoded."""
        with self._lock:
            per_name = self._entries.setdefault(name, {})
            per_name.setdefault(encoding, weakref.WeakKeyDictionary())[module] = blob

    def drop(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)

    def _blobs(self) -> List[bytes]:
        with self._lock:
            return [
                blob
                for per_name in self._entries.values()
                for blobs in per_name.values()
                for blob in blobs.values()
            ]

    def __len__(self) -> int:
        return len(self._blobs())

    def nbytes(self) -> int:
        return sum(map(len, self._blobs()))


def expert_init_seed(config_seed: int, task_name: str) -> int:
    """Deterministic RNG seed for one expert head's initialization.

    Uses crc32, not builtin ``hash()``: the latter is salted per process
    (``PYTHONHASHSEED``), which would make expert extraction
    nondeterministic across runs.
    """
    return config_seed + 1 + zlib.crc32(task_name.encode("utf-8")) % 10_000


@dataclass(frozen=True)
class PoEConfig:
    """Hyperparameters of the preprocessing phase.

    ``library_depth``/``library_k`` define the student architecture whose
    trunk becomes the library; ``expert_ks`` is the conv4 widening factor of
    each expert (the paper's 0.25).  ``library_level`` is ℓ — how many
    convolution groups the library keeps (3 = conv1-conv3, the paper's
    choice).
    """

    library_depth: int = 10
    library_k: float = 1.0
    expert_ks: float = 0.25
    library_level: int = 3
    temperature: float = 4.0
    alpha: float = 0.3
    scale_norm: str = "l1"
    library_train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=10))
    expert_train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=8))
    seed: int = 0

    def ckd_settings(self) -> CKDSettings:
        return CKDSettings(
            temperature=self.temperature, alpha=self.alpha, scale_norm=self.scale_norm
        )


class PoolSnapshot(NamedTuple):
    """What one query selects from the pool: the library trunk, the heads in
    the composite's task order, the composite (its logit layout) and the
    versions of those modules.

    Every module is the pool's own object, taken by reference, so a
    snapshot builds no network, copies nothing and walks no module tree.
    It has the ``trunk`` / ``head_names`` / ``heads`` that
    :func:`~repro.core.server.serialize_task_model` reads, so a payload is
    serialized straight from it; :meth:`assemble` builds the runnable net.
    """

    trunk: WRNTrunk
    head_names: Tuple[str, ...]
    heads: Tuple[WRNHead, ...]
    composite: CompositeTask
    #: Each head's version in ``head_names`` order, then the library's: the
    #: key every tier stores what it builds from this snapshot under.
    versions: Tuple[int, ...]

    def assemble(self) -> BranchedSpecialistNet:
        """The branched ``M(Q)`` over these modules, in eval mode."""
        return BranchedSpecialistNet(
            self.trunk, list(zip(self.head_names, self.heads))
        ).eval_over_frozen()


class PoolOfExperts:
    """The PoE framework: library + pool of experts + train-free assembly.

    Parameters
    ----------
    oracle:
        The pretrained generic model ``M(C)`` (any Module mapping images to
        ``hierarchy.num_classes`` logits).
    hierarchy:
        The class hierarchy defining the primitive tasks.
    config:
        Preprocessing hyperparameters.
    """

    def __init__(
        self,
        oracle: Module,
        hierarchy: ClassHierarchy,
        config: PoEConfig = PoEConfig(),
    ) -> None:
        self.oracle = oracle
        self.hierarchy = hierarchy
        self.config = config
        self.library: Optional[WRNTrunk] = None
        self.library_student: Optional[WideResNet] = None
        self.experts: Dict[str, WRNHead] = {}
        self.histories: Dict[str, History] = {}
        # memos key on a content digest; the weakrefs are an identity fast
        # path that skips re-hashing the (possibly huge) training array on
        # repeat calls without pinning it in memory for the pool's life
        self._oracle_logits: Optional[np.ndarray] = None
        self._oracle_digest: Optional[str] = None
        self._oracle_images: Optional["weakref.ref[np.ndarray]"] = None
        self._library_features: Optional[np.ndarray] = None
        self._features_digest: Optional[str] = None
        self._features_images: Optional["weakref.ref[np.ndarray]"] = None
        self._versions: Dict[str, int] = {}
        # taken by every install (module write + version bump) and by every
        # read that pairs modules with versions (snapshot, library_snapshot)
        self._lock = threading.Lock()
        self._listeners: List[Callable[[str, int], None]] = []
        #: Encoded payload segments of this pool's own modules (a view
        #: from :meth:`subset` owns its own); see ``repro.core.server``.
        self.segments = SegmentStore()

    # ------------------------------------------------------------------
    # Versions and installs
    # ------------------------------------------------------------------
    def expert_version(self, name: str) -> int:
        """Monotonic version of one expert; 0 before first extraction."""
        return self._versions.get(name, 0)

    def versions(self, names: Sequence[str]) -> Tuple[int, ...]:
        """The current versions of ``names``, then the library's.

        What a serving tier looks up under: an entry stored under a
        snapshot's :attr:`PoolSnapshot.versions` matches only while every
        module it was built from is still installed.  Read without the
        lock: entries are stored only under versions read together with
        their modules, so a key read across a concurrent install can only
        match an entry of a state that was once current.
        """
        return self._versions_of(names)

    def _versions_of(self, names: Sequence[str]) -> Tuple[int, ...]:
        get = self._versions.get
        return tuple([get(name, 0) for name in names]) + (get(LIBRARY_TASK, 0),)

    def add_listener(self, callback: Callable[[str, int], None]) -> None:
        """Register ``callback(task_name, new_version)``, called after every
        install (outside the pool's lock).  A cluster resyncs its shards
        through this."""
        if callback not in self._listeners:
            self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[str, int], None]) -> None:
        try:
            self._listeners.remove(callback)
        except ValueError:
            pass

    def _set_version(self, name: str, version: Optional[int] = None) -> int:
        """Set (default: bump) ``name``'s version right after its module was
        written, with ``_lock`` held; returns the new version."""
        if version is None:
            version = self._versions.get(name, 0) + 1
        self._versions[name] = version
        self.segments.drop(name)
        if JOURNAL.enabled:
            JOURNAL.emit(
                "library_update" if name == LIBRARY_TASK else "expert_update",
                task=name,
                version=version,
            )
        return version

    def _notify(self, name: str, version: int) -> None:
        for callback in list(self._listeners):
            callback(name, version)

    def attach_expert(
        self, task: TaskRef, head: WRNHead, version: Optional[int] = None
    ) -> None:
        """Install an already-trained expert head without training.

        Used by the cluster tier to place experts on shard views (and to
        migrate them during rebalance) and by incremental-addition flows.
        The head is frozen and put in eval mode, like every pool-held
        module, and installed with its version (default: a bump) in one
        step under the pool's lock.
        """
        name = self._resolve(task).name
        head.requires_grad_(False).eval()
        with self._lock:
            self.experts[name] = head
            version = self._set_version(name, version)
        self._notify(name, version)

    def detach_expert(self, task: TaskRef) -> Optional[WRNHead]:
        """Remove an expert (if present), bumping its version."""
        name = self._resolve(task).name
        with self._lock:
            head = self.experts.pop(name, None)
            if head is None:
                return None
            version = self._set_version(name)
        self._notify(name, version)
        return head

    def install_library(
        self,
        trunk: WRNTrunk,
        student: Optional[WideResNet] = None,
        version: Optional[int] = None,
    ) -> None:
        """Install a library trunk (frozen, eval mode) with its version
        (default: a bump) in one step under the pool's lock.

        :meth:`extract_library` ends here; a shard view repoints at its
        parent's re-extracted trunk through it.
        """
        trunk.requires_grad_(False).eval()
        # the preprocessing memos were computed by the old trunk
        self._library_features = None
        self._features_digest = None
        self._features_images = None
        with self._lock:
            self.library, self.library_student = trunk, student
            version = self._set_version(LIBRARY_TASK, version)
        self._notify(LIBRARY_TASK, version)

    def subset(self, names: Iterable[str]) -> "PoolOfExperts":
        """A view pool holding the shared library plus a subset of experts.

        Everything is shared by reference (oracle, hierarchy, library,
        heads), so a view costs a few dict entries — this is how
        :mod:`repro.cluster` models one shard's slice of the pool.
        """
        if self.library is None:
            raise RuntimeError("pool is empty: run preprocess() first")
        view = PoolOfExperts(self.oracle, self.hierarchy, self.config)
        with self._lock:
            for name in names:
                if name not in self.experts:
                    raise KeyError(
                        f"no expert extracted for primitive task {name!r}; "
                        f"available: {sorted(self.experts)}"
                    )
                view.experts[name] = self.experts[name]
                view._versions[name] = self.expert_version(name)
            # the same modules at the same versions: a view's answers are
            # keyed exactly like the parent's
            view.library, view.library_student = self.library, self.library_student
            view._versions[LIBRARY_TASK] = self.expert_version(LIBRARY_TASK)
        return view

    # ------------------------------------------------------------------
    # Preprocessing phase
    # ------------------------------------------------------------------
    def extract_library(
        self,
        images: np.ndarray,
        eval_fn=None,
        student: Optional[WideResNet] = None,
    ) -> History:
        """Distill the oracle into a small generic student; keep its trunk.

        The trunk (conv1 … conv_ℓ) becomes the frozen library component
        shared by all experts; the student's head is kept around as the
        "library model" reported in Table 1.  The heap the distillation
        freed goes back to the OS (:func:`~repro.core.heap.release_freed_heap`).
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        if student is None:
            student = WideResNet(
                cfg.library_depth,
                cfg.library_k,
                cfg.library_k,
                self.hierarchy.num_classes,
                library_level=cfg.library_level,
                rng=rng,
            )
        history = distill_kd(
            self._oracle_logits_for(images),
            student,
            images,
            config=cfg.library_train,
            temperature=cfg.temperature,
            eval_fn=eval_fn,
        )
        self.histories["library"] = history
        self.install_library(student.trunk, student)
        release_freed_heap()
        return history

    def extract_experts(
        self,
        tasks: Iterable[TaskRef],
        images: np.ndarray,
        settings: Optional[CKDSettings] = None,
        train_config: Optional[TrainConfig] = None,
    ) -> Dict[str, History]:
        """Extract an expert head per task with CKD (library frozen).

        Heads of one shape (class count) train in lockstep as one
        :class:`~repro.models.WRNHeadBank`: one forward, backward and SGD
        step per minibatch for all of them.  Each head starts from its own
        :func:`expert_init_seed` weights and ends where training it alone
        would (up to float32 rounding).  Experts are installed, and their
        versions bumped, in one step under the pool's lock once every bank
        has trained; then the heap the training freed goes back to the OS.
        """
        if self.library is None:
            raise RuntimeError("extract_library() must run before extract_experts()")
        cfg = self.config
        resolved = {task.name: task for task in map(self._resolve, tasks)}
        banks: Dict[int, List[PrimitiveTask]] = {}
        for task in resolved.values():
            banks.setdefault(len(task), []).append(task)
        logits, features = self._oracle_logits_for(images), self._features_for(images)
        heads: Dict[str, WRNHead] = {}
        histories: Dict[str, History] = {}
        for members in banks.values():
            bank = WRNHeadBank(
                [
                    WRNHead(
                        cfg.library_depth,
                        cfg.library_k,
                        cfg.expert_ks,
                        num_classes=len(task),
                        library_level=cfg.library_level,
                        rng=np.random.default_rng(expert_init_seed(cfg.seed, task.name)),
                    )
                    for task in members
                ]
            )
            trained = distill_ckd(
                logits,
                bank,
                features,
                class_ids=[task.classes for task in members],
                config=train_config or cfg.expert_train,
                settings=settings or cfg.ckd_settings(),
            )
            for task, head, history in zip(members, bank.unstack(), trained):
                heads[task.name] = head.requires_grad_(False).eval()
                histories[task.name] = history
        with self._lock:
            bumped = []
            for name in resolved:
                self.experts[name] = heads[name]
                self.histories[f"expert/{name}"] = histories[name]
                bumped.append((name, self._set_version(name)))
        for name, version in bumped:
            self._notify(name, version)
        release_freed_heap()
        return histories

    def extract_expert(
        self,
        task: TaskRef,
        images: np.ndarray,
        settings: Optional[CKDSettings] = None,
        train_config: Optional[TrainConfig] = None,
    ) -> History:
        """Extract one expert head for ``task``: a bank of one."""
        name = self._resolve(task).name
        return self.extract_experts([task], images, settings, train_config)[name]

    def preprocess(
        self, dataset: ArrayDataset, tasks: Optional[Iterable[TaskRef]] = None
    ) -> "PoolOfExperts":
        """Run the full preprocessing phase: library, then every expert."""
        images = dataset.images
        self.extract_library(images)
        self.extract_experts(
            tasks if tasks is not None else self.hierarchy.primitive_tasks(), images
        )
        return self

    # ------------------------------------------------------------------
    # Service phase
    # ------------------------------------------------------------------
    def snapshot(self, query: Union[CompositeTask, Sequence[str]]) -> PoolSnapshot:
        """Select the library and the queried experts (paper §4.2), by reference,
        with their versions, in one read under the pool's lock.

        O(heads): no network is built and nothing is walked.  Raises
        ``KeyError`` naming the first queried task without an expert.
        """
        composite = (
            query
            if isinstance(query, CompositeTask)
            else self.hierarchy.composite(query)
        )
        names = tuple(task.name for task in composite.tasks)
        with self._lock:
            if self.library is None:
                raise RuntimeError("pool is empty: run preprocess() first")
            try:
                heads = tuple([self.experts[name] for name in names])
            except KeyError as error:
                missing = error.args[0]
            else:
                versions = self._versions_of(names)
                return PoolSnapshot(self.library, names, heads, composite, versions)
        raise KeyError(
            f"no expert extracted for primitive task {missing!r}; "
            f"available: {sorted(self.experts)}"
        )

    def library_snapshot(self) -> Tuple[WRNTrunk, int]:
        """The library trunk and its version, read together."""
        with self._lock:
            if self.library is None:
                raise RuntimeError("pool is empty: run preprocess() first")
            return self.library, self._versions.get(LIBRARY_TASK, 0)

    def consolidate(
        self, query: Union[CompositeTask, Sequence[str]]
    ) -> Tuple[BranchedSpecialistNet, CompositeTask]:
        """Train-free knowledge consolidation (paper §4.2).

        Assembles the branched task-specific model for a composite task by
        *reference* — the library trunk and the expert heads are shared with
        the pool, no weights are copied and nothing is trained.  Returns the
        model together with the resolved :class:`CompositeTask` that defines
        its output layout.  O(heads): pool-held modules stay frozen and in
        eval mode from install to replacement, so nothing is walked here.
        """
        snapshot = self.snapshot(query)
        return snapshot.assemble(), snapshot.composite

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve(self, task: TaskRef) -> PrimitiveTask:
        return task if isinstance(task, PrimitiveTask) else self.hierarchy.task(task)

    def _oracle_logits_for(self, images: np.ndarray) -> np.ndarray:
        """Oracle logits over the training images, memoized by content.

        The memo key is a digest of the image bytes
        (:func:`~repro.core.features.array_digest`), not the row count: a
        different batch that happens to have the same ``shape[0]`` must
        recompute, never silently reuse the previous batch's logits.  An
        identity check short-circuits the hash for the common case of the
        same training array passed once per expert extraction — which
        assumes callers never mutate that array in place between calls
        (pass a modified copy instead, as the data pipeline does).
        """
        if self._oracle_logits is not None and self._oracle_images is not None:
            if images is self._oracle_images():
                return self._oracle_logits
        digest = array_digest(images)
        if self._oracle_logits is None or self._oracle_digest != digest:
            self._oracle_logits = batched_forward(self.oracle, images)
            self._oracle_digest = digest
        self._oracle_images = weakref.ref(images)
        return self._oracle_logits

    def _features_for(self, images: np.ndarray) -> np.ndarray:
        """Frozen-library features, memoized by content digest (see above)."""
        if self.library is None:
            raise RuntimeError("library not extracted yet")
        if self._library_features is not None and self._features_images is not None:
            if images is self._features_images():
                return self._library_features
        digest = array_digest(images)
        if self._library_features is None or self._features_digest != digest:
            self._library_features = batched_forward(self.library, images)
            self._features_digest = digest
        self._features_images = weakref.ref(images)
        return self._library_features

    def expert_names(self) -> Tuple[str, ...]:
        return tuple(self.experts)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PoolOfExperts(experts={sorted(self.experts)}, "
            f"library={'ready' if self.library is not None else 'missing'})"
        )
