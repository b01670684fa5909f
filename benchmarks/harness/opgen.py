"""The harness's own load generator: seeded op plans for the four workloads.

The program under test only ever sees generated inputs: task queries,
transports and image batches.  A plan is a fixed-capacity op sequence (a
warm-up prefix, then the timed ops) that depends on ``--seed`` alone, so
every commit is offered the same ops in the same order; a run consumes as
many of them as fit in its measuring time.

What the seed varies is the *sampling* (which composite, which transport,
which images, serve or predict).  The composite catalogue itself — which
task sets exist, and which one sits at which popularity rank — is fixed:
consolidation cost grows with the number of heads and a composite's shard
fan-out decides which code path serves it, so a catalogue reshuffled per
seed would turn seed-to-seed differences into a different workload instead
of a different sample of the same one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

SERVE, PREDICT = 0, 1
#: ``zstd`` is left out: it silently degrades to zlib without the optional module.
TRANSPORTS = ("float32", "raw+zlib", "uint8")

WORKLOAD_NAMES = (
    "serve_cold_inproc",
    "serve_hot_net",
    "predict_cold_inproc",
    "mixed_zipf_net",
)

NUM_COMPOSITES = 64
#: Composite size at each popularity rank (repeats every 8 ranks): 8 singles,
#: 16 pairs, 16 triples and 24 quads out of 8 tasks.
SIZE_LAYOUT = (2, 3, 4, 1, 3, 4, 2, 4)
_CATALOGUE_SEED = 20210621

#: Timed ops generated per workload — about four times what the seed commit
#: gets through in 15 s.  A run that outpaces its plan wraps around.
CAPACITY = {
    "serve_cold_inproc": 8192,
    "serve_hot_net": 262144,
    "predict_cold_inproc": 32768,
    "mixed_zipf_net": 32768,
}
#: Untimed prefix: lazy imports and FusedTrunk compile everywhere, connection
#: pools and shard caches on ``serve_hot_net``, one throw-away batch per
#: composite on ``predict_cold_inproc`` (model cache filled, nothing the timed
#: batches could hit), steady-state cache occupancy on ``mixed_zipf_net``.
WARMUP = {
    "serve_cold_inproc": 24,
    "serve_hot_net": 400,
    "predict_cold_inproc": NUM_COMPOSITES,
    "mixed_zipf_net": 600,
}
#: One closed-loop client everywhere.  On the one CPU the networked workloads
#: run on, a second client adds no throughput; it doubles the latency by
#: queueing and widens its run-to-run spread.
CLIENTS = {
    "serve_cold_inproc": 1,
    "serve_hot_net": 1,
    "predict_cold_inproc": 1,
    "mixed_zipf_net": 1,
}

PREDICT_COLD_BATCH = 64
MIXED_BATCH = 16
MIXED_HOT_BATCHES = 256
MIXED_PREDICT_SHARE = 0.3


def composite_catalogue(
    task_names: Sequence[str], count: int = NUM_COMPOSITES
) -> Tuple[Tuple[str, ...], ...]:
    """``count`` distinct task sets in popularity-rank order, canonical form."""
    names = sorted(task_names)
    rng = np.random.default_rng(_CATALOGUE_SEED)
    by_size = {}
    for size in set(SIZE_LAYOUT):
        combos = list(combinations(names, size))
        rng.shuffle(combos)
        by_size[size] = combos
    return tuple(
        tuple(by_size[SIZE_LAYOUT[rank % len(SIZE_LAYOUT)]].pop())
        for rank in range(count)
    )


def zipf_indices(
    rng: np.random.Generator, items: int, exponent: float, size: int
) -> np.ndarray:
    """``size`` draws from ``range(items)`` with ``P(rank) ∝ (rank+1)^-exponent``."""
    weights = 1.0 / np.arange(1, items + 1, dtype=np.float64) ** exponent
    return rng.choice(items, size=size, p=weights / weights.sum()).astype(np.int32)


@dataclass(frozen=True)
class OpPlan:
    """One workload's generated inputs: ``warmup`` untimed ops, then the timed ones.

    Op ``i`` is ``(kinds[i], query_ids[i], args[i])``: ``args`` is an index
    into :data:`TRANSPORTS` for a serve and the first row of the image
    window for a predict.  ``queries`` are sent as listed (reverse sorted,
    so canonicalisation has work to do); ``canonical[i]`` is the answer's
    expected task order.
    """

    workload: str
    clients: int
    queries: Tuple[Tuple[str, ...], ...]
    canonical: Tuple[Tuple[str, ...], ...]
    kinds: np.ndarray
    query_ids: np.ndarray
    args: np.ndarray
    warmup: int
    batch: int = 0
    images: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.kinds) - self.warmup

    def digest(self) -> str:
        """Hash of everything the program will be given, in order."""
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(repr((self.workload, self.clients, self.queries, self.warmup, self.batch)).encode())
        for array in (self.kinds, self.query_ids, self.args, self.images):
            if array is not None:
                hasher.update(np.ascontiguousarray(array).tobytes())
        return hasher.hexdigest()

    def _ops(self, start: int, stop: int, client: int) -> Iterator[Tuple[int, int, int, int]]:
        share = slice(start + client, stop, self.clients)
        return zip(
            range(start + client, stop, self.clients),
            self.kinds[share].tolist(),
            self.query_ids[share].tolist(),
            self.args[share].tolist(),
        )

    def warmup_ops(self, client: int) -> Iterator[Tuple[int, int, int, int]]:
        """``(op id, kind, query id, arg)`` of this client's warm-up share."""
        return self._ops(0, self.warmup, client)

    def timed_ops(self, client: int) -> Iterator[Tuple[int, int, int, int]]:
        """This client's share of the timed ops: every ``clients``-th one."""
        return self._ops(self.warmup, len(self.kinds), client)

    def image_window(self, start: int) -> np.ndarray:
        """A view, not a copy: the generator adds no memcpy to a predict op."""
        return self.images[start : start + self.batch]


def build_plan(workload: str, seed: int, task_names: Sequence[str], image_shape: Tuple[int, int, int]) -> OpPlan:
    """The op plan of ``workload`` for ``seed``; same arguments, same plan."""
    if workload not in WORKLOAD_NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOAD_NAMES}")
    rng = np.random.default_rng([int(seed), WORKLOAD_NAMES.index(workload)])
    total = WARMUP[workload] + CAPACITY[workload]
    position = np.arange(total, dtype=np.int32)
    kinds = np.full(total, SERVE, dtype=np.uint8)
    rotated_transports = position % len(TRANSPORTS)
    catalogue = composite_catalogue(task_names)
    batch, images = 0, None

    if workload == "serve_cold_inproc":
        query_ids = rng.integers(0, len(catalogue), size=total, dtype=np.int32)
        args = rotated_transports
    elif workload == "serve_hot_net":
        catalogue = tuple((name,) for name in sorted(task_names))
        query_ids = zipf_indices(rng, len(catalogue), 0.5, total)
        args = np.zeros(total, dtype=np.int32)
    elif workload == "predict_cold_inproc":
        kinds[:] = PREDICT
        query_ids = zipf_indices(rng, len(catalogue), 1.1, total)
        query_ids[: WARMUP[workload]] = np.arange(WARMUP[workload]) % len(catalogue)
        batch = PREDICT_COLD_BATCH
        # op i reads rows [i, i + batch): every window differs from every other
        args = position
        images = rng.standard_normal((total + batch - 1, *image_shape), dtype=np.float32)
    else:  # mixed_zipf_net
        kinds[rng.random(total) < MIXED_PREDICT_SHARE] = PREDICT
        query_ids = zipf_indices(rng, len(catalogue), 1.1, total)
        batch = MIXED_BATCH
        hot = zipf_indices(rng, MIXED_HOT_BATCHES, 0.9, total) * batch
        args = np.where(kinds == PREDICT, hot, rotated_transports).astype(np.int32)
        images = rng.standard_normal((MIXED_HOT_BATCHES * batch, *image_shape), dtype=np.float32)

    return OpPlan(
        workload=workload,
        clients=CLIENTS[workload],
        queries=tuple(tuple(reversed(names)) for names in catalogue),
        canonical=tuple(tuple(sorted(names)) for names in catalogue),
        kinds=kinds,
        query_ids=query_ids,
        args=args.astype(np.int32),
        warmup=WARMUP[workload],
        batch=batch,
        images=images,
    )
