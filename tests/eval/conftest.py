"""Fabricated ``summary.json`` contents shaped like the paper's own numbers.

``paper_summary(kind)`` returns one result per registered artifact: the
paper's reported numbers where it has them (``repro.eval.claims``), and
paper-shaped stand-ins (PoE at ~0 s, extension benches in their expected
direction) where it does not.
"""

import json
import os

import pytest

from repro.eval.claims import ARTIFACTS, N_Q
from repro.eval.experiments import get_track


def _count(text: str) -> float:
    """'8.97M' -> 8.97e6."""
    return float(text[:-1]) * {"K": 1e3, "M": 1e6, "B": 1e9}[text[-1]]


def _size(text: str) -> int:
    """'>=54.30GB' -> bytes."""
    text = text.lstrip(">=")
    for power, unit in enumerate(("KB", "MB", "GB", "TB"), start=1):
        if text.endswith(unit):
            return int(float(text[: -len(unit)]) * 1024**power)
    raise ValueError(text)


def _matrix_rows(paper, params=None):
    return [
        {"method": method, "n_q": n, "accuracy_mean": acc / 100, "accuracy_std": 0.02,
         **({"params": params(method), "flops": 2e7, "arch": "x"} if params else {})}
        for method, series in paper.items()
        for n, acc in zip(N_Q, series)
    ]


def build_paper_summary(kind: str) -> dict:
    paper = {key: artifact.paper[kind] for key, artifact in ARTIFACTS.items() if artifact.paper}
    models = {
        name: {"test_accuracy": acc / 100, "flops": _count(flops), "params": _count(params),
               "arch": name}
        for name, (acc, flops, params) in paper["table1"].items()
    }
    oracle_params = models["oracle"]["params"]
    confident = {"histogram": [0.0] * 9 + [1.0], "bin_edges": [i / 10 for i in range(11)],
                 "mean": 0.9, "median": 0.93, "overconfident_rate": 0.6, "mode_bin": [0.9, 1.0]}
    volumes = {k: _size(v) for k, v in paper["table4"].items()}
    at5 = {method: series[-1] / 100 for method, series in paper["table3"].items()}
    return {
        "track": kind,
        "oracle": models["oracle"],
        "table1": models,
        "table2": [
            {"method": m, "type": "generic" if m in ("oracle", "kd") else "special", "arch": "x",
             "accuracy_mean": acc / 100, "accuracy_std": 0.05, "flops": 1e7,
             "params": oracle_params if m == "oracle" else oracle_params / 150}
            for m, acc in paper["table2"].items()
        ],
        "figure5": {
            "task": "sc0", "scratch": confident, "transfer": confident,
            "ckd": dict(confident, mean=0.35, median=0.35, overconfident_rate=0.0,
                        mode_bin=[0.3, 0.4]),
        },
        "table3": _matrix_rows(paper["table3"], lambda m: 40_000 if m == "poe" else 50_000),
        "table4": {
            "oracle_bytes": volumes["oracle"], "library_bytes": volumes["library"],
            "mean_expert_bytes": volumes["expert"], "experts_total_bytes": 20 * volumes["expert"],
            "pool_bytes": volumes["pool"], "all_specialists_bytes": volumes["all specialists"],
            "oracle_to_pool_ratio": volumes["oracle"] / volumes["pool"], "n_primitives": 20,
        },
        "table5": _matrix_rows(paper["table5"]),
        "table5_l2": [{"method": m, "n_q": n, "accuracy_mean": 0.7, "accuracy_std": 0.02}
                      for m in ("poe-l2", "poe") for n in (3, 5)],
        "figure6": {
            "poe": [[0.001, at5["poe"]]],
            **{m: [[5.0, at5[m] / 2], [60.0, at5[m]]]
               for m in ("scratch", "sd+scratch", "uhc+scratch", "ckd")},
        },
        "figure7": [
            {"method": m, "n_q": n, "time_to_best_mean": 0.001 if m == "poe" else 30.0 + n,
             "train_seconds_mean": 0.001 if m == "poe" else 60.0}
            for m in ("scratch", "ckd", "poe") for n in N_Q
        ],
        "ext_compression": {"float32_bytes": 100_000, "uint8_bytes": 27_000,
                            "agreement": 0.99, "expert_raw_bytes": 55_000,
                            "expert_uint8_bytes": 14_500},
        "ext_pruning": {"acc_before": 0.8, "dense_bytes": 50_000, "acc_after": 0.78,
                        "sparse_bytes": 30_000},
        "ext_library_level": {"levels": [
            {"level": 3, "accuracy": 0.8, "library_params": 80_000, "model_params": 40_000},
            {"level": 2, "accuracy": 0.82, "library_params": 20_000, "model_params": 90_000},
        ]},
        "seconds": 100.0,
    }


@pytest.fixture
def paper_summary():
    return build_paper_summary


@pytest.fixture
def write_summary(tmp_path):
    """Write a summary where ``repro tables`` looks for ``track``'s build."""
    root = str(tmp_path / "artifacts")

    def write(summary: dict, name: str = "synth-cifar", fast: bool = False) -> str:
        track = get_track(name, fast=fast)
        directory = os.path.join(root, "results", track.cache_key())
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "summary.json"), "w") as fh:
            json.dump(summary, fh)
        return root

    return write
