"""Evaluation harness: metrics, experiment tracks, artifact cache, runners."""

from .artifacts import ArtifactStore, default_artifact_root
from .experiments import (
    TrackConfig,
    cifar_track,
    get_track,
    is_fast_mode,
    select_combos,
    tiny_track,
)
from .metrics import (
    accuracy,
    accuracy_from_logits,
    specialized_accuracy,
    task_specific_accuracy,
    unpack_correct,
)
from .service import (
    SERVICE_METHODS,
    ablation_table,
    consolidation_times,
    learning_curves,
    run_service_method,
    service_table,
)
from .specialization import (
    SPECIALIZATION_METHODS,
    confidence_figure,
    run_specialization,
    specialization_table,
)
from .tables import format_count, render_histogram, render_table

__all__ = [
    "accuracy",
    "accuracy_from_logits",
    "task_specific_accuracy",
    "specialized_accuracy",
    "unpack_correct",
    "TrackConfig",
    "cifar_track",
    "tiny_track",
    "get_track",
    "select_combos",
    "is_fast_mode",
    "ArtifactStore",
    "default_artifact_root",
    "SPECIALIZATION_METHODS",
    "run_specialization",
    "specialization_table",
    "confidence_figure",
    "SERVICE_METHODS",
    "run_service_method",
    "service_table",
    "ablation_table",
    "learning_curves",
    "consolidation_times",
    "format_count",
    "render_table",
    "render_histogram",
]
