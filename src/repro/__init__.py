"""repro — reproduction of "Pool of Experts: Realtime Querying Specialized
Knowledge in Massive Neural Networks" (Kim & Choi, SIGMOD 2021).

Layered architecture (see ``docs/architecture.md``):

* ``repro.tensor``  — numpy autograd engine (PyTorch substitute)
* ``repro.nn``      — layers / modules / serialization
* ``repro.optim``   — SGD + schedules
* ``repro.data``    — class hierarchies + synthetic hierarchical datasets
* ``repro.models``  — WRN-l-(k_c, k_s) zoo + branched PoE architecture
* ``repro.distill`` — KD / CKD / Transfer / Scratch / SD / UHC
* ``repro.core``    — Pool of Experts (the paper's contribution)
* ``repro.serving`` — realtime serving gateway: caches, coalescing, loadgen
* ``repro.cluster`` — sharded pools: routing, cross-shard consolidation
* ``repro.net``     — networked shards: wire protocol, worker processes,
  replica-failover client (imported on demand; see ``docs/architecture.md``)
* ``repro.eval``    — metrics, experiment tracks, benchmark runners
"""

from . import core, data, distill, eval, models, nn, optim, serving, tensor
from .core import PoEConfig, PoolOfExperts, TaskSpecificModel
from .serving import ServingGateway

__version__ = "1.0.0"

__all__ = [
    "tensor",
    "nn",
    "optim",
    "data",
    "models",
    "distill",
    "core",
    "serving",
    "eval",
    "PoolOfExperts",
    "ServingGateway",
    "PoEConfig",
    "TaskSpecificModel",
    "__version__",
]
