"""Pool of Experts — the paper's core contribution.

* :class:`~repro.core.pool.PoolOfExperts` — preprocessing phase (library
  extraction by KD, expert extraction by CKD) and train-free consolidation
  (a :class:`~repro.core.pool.PoolSnapshot` of the queried modules);
  :class:`~repro.core.query.TaskSpecificModel` binds a consolidated ``M(Q)``
  to its composite task.  :class:`repro.serving.ServingGateway` serves it.
* :mod:`~repro.core.server` — the self-contained payload container a
  model ships in.
* :class:`~repro.core.storage.ExpertStore` — persistence + Table 4 volumes.
* :mod:`~repro.core.confidence` — Figure 5 overconfidence analysis.
"""

from .confidence import ConfidenceProfile, max_confidences, ood_confidence_profile
from .features import TrunkFeatureCache, array_digest
from .pool import PoEConfig, PoolOfExperts, PoolSnapshot, SegmentStore
from .query import TaskSpecificModel
from .server import (
    TRANSPORTS,
    PayloadError,
    RemoteExpert,
    deserialize_expert_heads,
    deserialize_task_model,
    serialize_expert_heads,
    serialize_task_model,
)
from .storage import ExpertStore, VolumeReport, estimate_all_specialists_volume

__all__ = [
    "PoolOfExperts",
    "PoEConfig",
    "PoolSnapshot",
    "SegmentStore",
    "TrunkFeatureCache",
    "array_digest",
    "TaskSpecificModel",
    "ExpertStore",
    "VolumeReport",
    "estimate_all_specialists_volume",
    "ConfidenceProfile",
    "max_confidences",
    "ood_confidence_profile",
    "serialize_task_model",
    "deserialize_task_model",
    "serialize_expert_heads",
    "deserialize_expert_heads",
    "RemoteExpert",
    "TRANSPORTS",
    "PayloadError",
]
