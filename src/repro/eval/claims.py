"""The paper's §5 claims, stated once: numbers, renderers and shape checks.

:data:`ARTIFACTS` holds one entry per table/figure, keyed as
``summary.json`` stores its result: the paper's numbers, the one renderer
of the result and its claims (``docs/paper-claims.md`` lists them).  The
paper benches call :func:`check`, ``repro tables`` renders through
:func:`render_tracks`, and ``python -m repro.eval.claims`` regenerates the
doc, so a bench and the report reach one verdict by construction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import estimate_all_specialists_volume
from .artifacts import ArtifactStore
from .experiments import get_track
from .tables import format_count

__all__ = ["ARTIFACTS", "Claim", "check", "render", "render_tracks", "claims_doc"]

N_Q = (2, 3, 4, 5)
DATASETS = {"cifar": "CIFAR-100", "tiny": "Tiny-ImageNet"}
DOC_PATH = Path(__file__).resolve().parents[3] / "docs" / "paper-claims.md"
_PREDICATE_FUNCS = {"__builtins__": {}, "all": all, "mean": np.mean}


@dataclass(frozen=True)
class Claim:
    """One shape: a Python expression over the artifact's named values
    (``all``, ``mean`` in scope); a claim with a ``deviation`` is not asserted."""

    id: str
    statement: str
    predicate: str
    deviation: str = ""


@dataclass(frozen=True)
class Artifact:
    """One table or figure: its bench, renderer, claims and paper numbers."""

    title: str
    bench: str  # the benchmarks/ file that computes and checks it
    table: Callable[[Any], List[List[str]]]  # result -> rows, header first
    values: Callable[[Any], Dict[str, Any]] = dict  # result -> what predicates read
    claims: Tuple[Claim, ...] = ()
    paper: Optional[Dict[str, Dict]] = None  # dataset -> reported numbers
    paper_units: str = ""


def _series(rows: Sequence[Dict], field: str = "accuracy_mean", suffix: str = "") -> Dict:
    """Per method, ``field`` at every n(Q) as an array (Tables 3/5, Fig. 7)."""
    by = {(r["method"], r["n_q"]): r[field] for r in rows}
    methods = dict.fromkeys(r["method"] for r in rows)
    return {m.replace("+", "_").replace("-", "_") + suffix: np.array([by[(m, n)] for n in N_Q])
            for m in methods}


def _bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if n < 1024:
            return f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}PB"


def _acc(row: Dict) -> str:
    return f"{100 * row['accuracy_mean']:.1f}±{100 * row['accuracy_std']:.1f}"


def _table1(result: Dict) -> List[List[str]]:
    return [["Model", "Arch", "Acc.", "FLOPs", "Params"]] + [
        [name, r["arch"], f"{100 * r['test_accuracy']:.2f}", format_count(r["flops"]),
         format_count(r["params"])]
        for name, r in ((n, result[n]) for n in ("oracle", "library"))
    ]


def _table2(result: Sequence[Dict]) -> List[List[str]]:
    return [["Method", "Type", "Arch", "Acc.", "FLOPs", "Params"]] + [
        [r["method"], r["type"], r["arch"], _acc(r), format_count(r["flops"]),
         format_count(r["params"])]
        for r in result
    ]


def _matrix(cell: Callable[[Dict], str]) -> Callable[[Sequence[Dict]], List[List[str]]]:
    """Renderer of a method × n(Q) table."""

    def table(result: Sequence[Dict]) -> List[List[str]]:
        by = {(r["method"], r["n_q"]): r for r in result}
        ns = sorted({n for _, n in by})
        return [["Method"] + [f"n(Q)={n}" for n in ns]] + [
            [m] + [cell(by[(m, n)]) for n in ns] for m in dict.fromkeys(m for m, _ in by)
        ]

    return table


def _table4(result: Dict) -> List[List[str]]:
    return [["Oracle", "Library", "Expert (avg)", "PoE total", "All 2^n specialists",
             "Oracle / PoE"],
            [_bytes(result["oracle_bytes"]), _bytes(result["library_bytes"]),
             _bytes(result["mean_expert_bytes"]), _bytes(result["pool_bytes"]),
             ">=" + _bytes(result["all_specialists_bytes"]),
             f"{result['oracle_to_pool_ratio']:.1f}x"]]


def _figure5(result: Dict) -> List[List[str]]:
    return [["Method", "Mode bin", "Mean conf.", "P(conf>0.9)"]] + [
        [f"{m} (task {result['task']})", "{:.1f}-{:.1f}".format(*result[m]["mode_bin"]),
         f"{result[m]['mean']:.2f}", f"{result[m]['overconfident_rate']:.2f}"]
        for m in ("scratch", "transfer", "ckd")
    ]


def _figure6(result: Dict) -> List[List[str]]:
    rows = [["Method", "Best acc.", "Wall-clock to best", "Wall-clock total"]]
    for method, points in result.items():
        best = max(acc for _, acc in points)
        to_best = min(t for t, acc in points if acc >= best - 1e-9)
        rows.append([method, f"{100 * best:.1f}", f"{to_best:.2f}s", f"{points[-1][0]:.2f}s"])
    return rows


def _fields(result: Dict) -> List[List[str]]:
    """The extension benches' results: one row of measured values per record."""
    records = result.get("levels", [result])
    return [list(records[0])] + [[_fmt(v) for v in r.values()] for r in records]


_TABLE3 = {  # method: (CIFAR-100, Tiny-ImageNet) accuracy % at n(Q) = 2, 3, 4, 5
    "oracle": ([84.25, 82.94, 81.82, 80.82], [77.30, 75.65, 74.31, 73.18]),
    "kd": ([67.61, 71.29, 72.32, 72.43], [60.54, 62.24, 62.77, 62.80]),
    "scratch": ([72.65, 71.47, 70.97, 70.21], [64.23, 63.65, 62.90, 63.02]),
    "transfer": ([77.82, 77.50, 74.54, 73.36], [71.18, 70.14, 68.71, 67.49]),
    "sd+scratch": ([57.06, 48.60, 43.08, 39.15], [48.38, 38.60, 33.39, 29.49]),
    "uhc+scratch": ([57.57, 49.73, 44.49, 40.83], [51.81, 43.54, 38.42, 34.66]),
    "sd+ckd": ([73.94, 71.28, 69.46, 67.77], [64.44, 60.33, 57.42, 54.93]),
    "uhc+ckd": ([73.87, 71.56, 70.49, 68.84], [67.71, 65.43, 63.34, 61.85]),
    "ckd": ([78.55, 77.00, 75.70, 74.27], [74.19, 72.90, 71.20, 70.14]),
    "poe": ([79.03, 76.41, 74.18, 72.22], [74.68, 71.84, 69.59, 67.71]),
}
_TABLE5 = {  # variant: (CIFAR-100, Tiny-ImageNet); `poe` is L_soft + L_scale
    "poe-soft": ([78.17, 75.61, 73.53, 71.76], [73.25, 69.55, 66.72, 64.44]),
    "poe-scale": ([71.46, 68.44, 65.85, 63.59], [68.95, 66.12, 63.90, 62.08]),
    "poe": ([79.03, 76.41, 74.18, 72.22], [74.68, 71.84, 69.59, 67.71]),
}


ARTIFACTS: Dict[str, Artifact] = {
    "table1": Artifact(
        "Table 1 — oracle vs library student", "bench_table1_oracle_library.py", _table1,
        lambda r: {f"{m}_{k}": r[m][f] for m in ("oracle", "library")
                   for k, f in (("acc", "test_accuracy"), ("params", "params"))},
        (Claim("table1.library_smaller_less_accurate",
               "the library student is much smaller than the oracle and somewhat less accurate",
               "library_acc < oracle_acc and library_params < oracle_params / 5",
               "synth-tiny's library (k=2) has about a quarter of the oracle's parameters, "
               "and on the fast tracks the library student ties the ~100% oracle"),),
        {"cifar": {"oracle": (76.70, "1.30B", "8.97M"), "library": (63.84, "0.03B", "0.18M")},
         "tiny": {"oracle": (64.49, "2.42B", "17.24M"), "library": (56.96, "0.10B", "0.72M")}},
        "accuracy % · FLOPs · params",
    ),
    "table2": Artifact(
        "Table 2 — model specialization (mean±std over 6 primitive tasks)",
        "bench_table2_specialization.py", _table2,
        lambda r: {**{x["method"]: x["accuracy_mean"] for x in r},
                   **{x["method"] + "_params": x["params"] for x in r}},
        (Claim("table2.ckd_above_scratch", "CKD specialists beat Scratch", "ckd > scratch"),
         Claim("table2.ckd_above_kd", "CKD specialists beat the generic KD student", "ckd > kd"),
         Claim("table2.oracle_on_top", "the oracle is at most 2 points below CKD",
               "oracle >= ckd - 0.02"),
         Claim("table2.specialist_10x_smaller", "a CKD specialist has under a tenth of the "
               "oracle's parameters", "ckd_params * 10 < oracle_params"),
         Claim("table2.ckd_above_transfer", "CKD specialists beat Transfer", "ckd > transfer"),
         Claim("table2.transfer_above_scratch", "Transfer specialists beat Scratch",
               "transfer > scratch"),
         Claim("table2.scratch_above_kd", "Scratch specialists beat the generic KD student",
               "scratch > kd",
               "on the fast tracks the generic KD student is not capacity-starved: it ties "
               "the ~100% oracle on 8x8 synthetic classes and lands above Scratch (the full "
               "tracks keep the paper's order)")),
        {"cifar": {"oracle": 85.80, "kd": 62.50, "scratch": 74.20, "transfer": 78.33, "ckd": 82.40},
         "tiny": {"oracle": 79.68, "kd": 57.62, "scratch": 66.10, "transfer": 74.21, "ckd": 78.72}},
        "accuracy %",
    ),
    "figure5": Artifact(
        "Figure 5 — OOD confidence of specialists", "bench_fig5_confidence.py", _figure5,
        lambda r: {f"{m}_{k}": r[m][f] for m in ("scratch", "transfer", "ckd")
                   for k, f in (("mean", "mean"), ("overconfident", "overconfident_rate"))},
        (Claim("figure5.ckd_below_scratch", "CKD experts are less confident than Scratch on "
               "OOD inputs", "ckd_mean < scratch_mean"),
         Claim("figure5.ckd_below_transfer", "CKD experts are less confident than Transfer on "
               "OOD inputs", "ckd_mean < transfer_mean"),
         Claim("figure5.ckd_rarely_overconfident", "CKD puts no more OOD mass above 0.9 "
               "confidence than Scratch", "ckd_overconfident <= scratch_overconfident")),
        {kind: {"scratch": ">=0.9", "transfer": ">=0.9", "ckd": "0.3-0.4"} for kind in DATASETS},
        "mode of the OOD max-confidence histogram",
    ),
    "table3": Artifact(
        "Table 3 — consolidation accuracy by n(Q)", "bench_table3_consolidation.py",
        _matrix(lambda r: f"{_acc(r)} ({format_count(r['params'])})"),
        lambda r: {**_series(r), **_series(r, "params", "_params")},
        (Claim("table3.poe_above_sd_scratch", "PoE beats SD over Scratch teachers at every "
               "n(Q)", "all(poe > sd_scratch)"),
         Claim("table3.poe_above_uhc_scratch", "PoE beats UHC over Scratch teachers at every "
               "n(Q)", "all(poe > uhc_scratch)"),
         Claim("table3.sd_ckd_above_sd_scratch", "SD merging CKD experts beats SD merging "
               "Scratch experts at every n(Q)", "all(sd_ckd > sd_scratch)"),
         Claim("table3.uhc_ckd_above_uhc_scratch", "UHC merging CKD experts beats UHC merging "
               "Scratch experts at every n(Q)", "all(uhc_ckd > uhc_scratch)"),
         Claim("table3.ckd_best_specialist", "trained CKD stays the best specialist, at most "
               "2 points below PoE on average", "mean(ckd) >= mean(poe) - 0.02"),
         Claim("table3.poe_fewest_params", "PoE's branched M(Q) has fewer parameters than a "
               "Scratch student at n(Q)=5", "poe_params[-1] < scratch_params[-1]")),
        {kind: {m: v[i] for m, v in _TABLE3.items()} for i, kind in enumerate(DATASETS)},
        "accuracy % at n(Q) = 2, 3, 4, 5",
    ),
    "table4": Artifact(
        "Table 4 — storage volumes", "bench_table4_volumes.py", _table4,
        lambda r: {**r, "estimate_20": estimate_all_specialists_volume(
            20, int(r["mean_expert_bytes"]) + r["library_bytes"])},
        (Claim("table4.pool_below_oracle", "the whole pool (library + every expert) is "
               "smaller than the oracle", "pool_bytes < oracle_bytes"),
         Claim("table4.library_under_fifth_of_oracle", "the library is under a fifth of the "
               "oracle's bytes", "library_bytes < oracle_bytes / 5"),
         Claim("table4.all_specialists_explode", "every composite of 20 primitives as its own "
               "specialist costs over 50 oracles", "estimate_20 > 50 * oracle_bytes")),
        {"cifar": {"oracle": "34.3MB", "library": "177KB", "expert": "54.3KB",
                   "pool": "1.23MB", "all specialists": ">=54.30GB"},
         "tiny": {"oracle": "65.8MB", "library": "656KB", "expert": "74.9KB",
                  "pool": "3.20MB", "all specialists": ">=1198.40TB"}},
        "bytes; the pool is 20-30x smaller than the oracle",
    ),
    "table5": Artifact(
        "Table 5 — L_soft / L_scale ablation", "bench_table5_loss_ablation.py", _matrix(_acc),
        _series,
        (Claim("table5.both_not_below_soft", "L_soft + L_scale is at most 1 point below L_soft "
               "alone on average", "mean(poe) >= mean(poe_soft) - 0.01"),
         Claim("table5.both_not_below_scale", "L_soft + L_scale is at most 1 point below "
               "L_scale alone on average", "mean(poe) >= mean(poe_scale) - 0.01"),
         Claim("table5.soft_above_scale", "L_soft alone beats L_scale alone on average",
               "mean(poe_soft) > mean(poe_scale)",
               "a near-saturated oracle makes raw-logit regression (L_scale) unusually strong: "
               "on both full tracks L_scale alone averages above L_soft alone")),
        {kind: {m: v[i] for m, v in _TABLE5.items()} for i, kind in enumerate(DATASETS)},
        "accuracy % at n(Q) = 2, 3, 4, 5; `poe` is L_soft + L_scale",
    ),
    "table5_l2": Artifact(
        "Design ablation — L1 (paper) vs L2 scale regularizer", "bench_table5_loss_ablation.py",
        _matrix(_acc),
    ),
    "figure6": Artifact(
        "Figure 6 — learning curves at n(Q)=5 (paper: 50-250 GPU-seconds, PoE ~0)",
        "bench_fig6_learning_curves.py", _figure6,
        lambda r: {"poe_seconds": r["poe"][0][0], "poe_acc": r["poe"][0][1],
                   "sd_scratch_best": max(acc for _, acc in r["sd+scratch"]),
                   "uhc_scratch_best": max(acc for _, acc in r["uhc+scratch"]),
                   "scratch_seconds": max(t for t, _ in r["scratch"])},
        (Claim("figure6.poe_train_free", "PoE's model exists after under 50 ms",
               "poe_seconds < 0.05"),
         Claim("figure6.poe_above_merged_scratch", "PoE beats the best accuracy SD or UHC over "
               "Scratch teachers reach",
               "poe_acc > sd_scratch_best and poe_acc > uhc_scratch_best"),
         Claim("figure6.training_pays_wall_clock", "training a Scratch student takes over 10x "
               "PoE's time", "scratch_seconds > 10 * poe_seconds")),
    ),
    "figure7": Artifact(
        "Figure 7 — time to best accuracy by n(Q)", "bench_fig7_query_time.py",
        _matrix(lambda r: f"{r['time_to_best_mean']:.2f}s"),
        lambda r: {"poe": _series(r, "time_to_best_mean")["poe"], "fastest_training": np.min(
            [v for m, v in _series(r, "time_to_best_mean").items() if m != "poe"], axis=0)},
        (Claim("figure7.poe_10x_faster", "PoE is over 10x faster than every training method at "
               "every n(Q)", "all(poe < fastest_training / 10)"),
         Claim("figure7.poe_fast_at_nq5", "PoE builds M(Q) in under 50 ms at n(Q)=5",
               "poe[-1] < 0.05"),
         Claim("figure7.poe_flat", "PoE stays under 50 ms at every n(Q)", "all(poe < 0.05)")),
    ),
    "ext_compression": Artifact(
        "Extension — quantization stacked on PoE (paper §2: KD is orthogonal)",
        "bench_ext_compression.py", _fields, dict,
        (Claim("ext_compression.uint8_payload_smaller", "a uint8 payload is smaller than the "
               "float32 one", "uint8_bytes < float32_bytes"),
         Claim("ext_compression.uint8_state_3_5x_smaller", "an expert's uint8 state is over "
               "3.5x smaller than its raw state", "expert_uint8_bytes < expert_raw_bytes / 3.5"),
         Claim("ext_compression.uint8_predictions_agree", "uint8 and float32 models agree on "
               "over 90% of predictions", "agreement > 0.9")),
    ),
    "ext_pruning": Artifact(
        "Extension — magnitude pruning on one expert", "bench_ext_compression.py", _fields, dict,
        (Claim("ext_pruning.sparse_bytes_shrink", "50% magnitude pruning shrinks the expert's "
               "sparse encoding", "sparse_bytes < dense_bytes"),
         Claim("ext_pruning.accuracy_within_15_points", "the pruned expert loses under 15 "
               "points of accuracy", "acc_after > acc_before - 0.15")),
    ),
    "ext_library_level": Artifact(
        "Extension — library depth l, size/accuracy tradeoff (paper §4.1)",
        "bench_ext_library_level.py", _fields,
        lambda r: {f"l{x['level']}_{k}": x[k] for x in r["levels"]
                   for k in ("accuracy", "model_params")},
        (Claim("ext_library_level.shallower_library_bigger_models", "a shallower library (l=2) "
               "gives bigger task-specific models than l=3", "l2_model_params > l3_model_params"),
         Claim("ext_library_level.both_levels_work", "experts average over 50% accuracy at both "
               "library depths", "l2_accuracy > 0.5 and l3_accuracy > 0.5")),
    ),
}


def verdicts(key: str, result: Any) -> List[Tuple[Claim, bool, str]]:
    """Every claim of one artifact: its verdict and the values it read."""
    artifact = ARTIFACTS[key]
    values = artifact.values(result) if artifact.claims else {}
    return [
        (claim, bool(eval(claim.predicate, _PREDICATE_FUNCS, values)),
         ", ".join(f"{n}={_fmt(values[n])}"
                   for n in compile(claim.predicate, claim.id, "eval").co_names if n in values))
        for claim in artifact.claims
    ]


def _fmt(value: Any) -> str:
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, (float, np.floating)):
        return f"{value:#.4g}" if abs(value) < 1e4 else f"{value:.0f}"
    return str(value)


def check(key: str, result: Any) -> None:
    """Assert every claim of artifact ``key`` without a known deviation;
    the ``AssertionError`` names each failed claim, its predicate and values."""
    failed = [f"{claim.id}: {claim.predicate} (measured {measured})"
              for claim, ok, measured in verdicts(key, result) if not (ok or claim.deviation)]
    if failed:
        raise AssertionError("paper claim(s) failed:\n  " + "\n  ".join(failed))


def _md(rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(rows[0]) + " |", "|" + "---|" * len(rows[0])]
    return lines + ["| " + " | ".join(row) + " |" for row in rows[1:]]


def _paper_rows(artifact: Artifact, kinds: Sequence[str]) -> List[List[str]]:
    return [[f"Paper ({artifact.paper_units})"] + [DATASETS[k] for k in kinds]] + [
        [entry] + [_fmt(artifact.paper[k][entry]) for k in kinds]
        for entry in artifact.paper[kinds[0]]
    ]


def render(key: str, result: Any, dataset: Optional[str] = None) -> str:
    """Markdown for one artifact: paper numbers for ``dataset`` (a track's
    ``kind``), the measured table, and every claim's verdict."""
    artifact = ARTIFACTS[key]
    lines = [f"### {artifact.title}", ""]
    if artifact.paper and dataset:
        lines += _md(_paper_rows(artifact, [dataset])) + [""]
    lines += _md(artifact.table(result)) + [""]
    for claim, ok, measured in verdicts(key, result):
        verdict = "holds" if ok else "known deviation" if claim.deviation else "**FAILS**"
        lines.append(f"- `{claim.id}` {claim.statement}: {verdict} ({measured})")
    return "\n".join(lines).rstrip() + "\n"


def render_tracks(names: Sequence[str], fast: Optional[bool] = None,
                  root: Optional[str] = None) -> str:
    """Every artifact of each built track's ``summary.json``, with verdicts;
    ``fast=None`` follows ``REPRO_FAST``, as ``repro build`` does."""
    store = ArtifactStore(root)
    lines = ["# Paper vs. measured", "", "Claims and known deviations: docs/paper-claims.md.", ""]
    for name in names:
        track = get_track(name, fast)
        lines += [f"## Track `{track.name}`", ""]
        path = store.summary_path(track)
        if not os.path.exists(path):
            flag = " --fast" if track.name.endswith("-fast") else ""
            lines += [f"*(artifacts not built yet — run `python -m repro.cli build "
                      f"--tracks {name}{flag}`)*", ""]
            continue
        summary = json.loads(Path(path).read_text())
        lines += [render(k, summary[k], track.kind) for k in ARTIFACTS if k in summary]
    return "\n".join(lines).rstrip() + "\n"


SUBSTRATE = """\
## Why the absolute numbers differ

The paper trains WRN-40 / WRN-16 on CIFAR-100 and Tiny-ImageNet with
PyTorch on a GPU.  This reproduction runs offline, where neither dataset
can be downloaded, and assumes no deep-learning framework, so the
substrate is replaced as a whole:

* **Data**: `repro.data.synthetic` generates 8×8 hierarchical images
  that keep what PoE exploits: a superclass's classes share a prototype
  (confusable, so soft targets carry dark knowledge), per-sample noise
  makes Scratch generalise worse than distillation, and other
  superclasses look different (a calibrated expert can doubt them).
* **Framework**: `repro.tensor` is a NumPy autograd engine and `repro.nn`
  its layers; scaled-down WRNs train on a CPU.
* **Combinations**: Tables 3 and 5 average `combos_per_nq` composites per
  n(Q), picked deterministically, not all of them.
* **Wall-clock**: Figures 6 and 7 are CPU-seconds on 8×8 inputs, not
  GPU-seconds on 32×32; only orderings compare.

What must match are the paper's **shapes**: orderings, size ratios and
the train-free property.  Each claim below is one shape, a predicate over
values named from its artifact's result; a bench's `AssertionError` names
every failed claim, and a known deviation is rendered, never asserted.
"""


RECORDS = """\
## What a result records besides its means

Every Table 2, 3 and 5 result keeps which test images each method got
right.  `correct` is the base64 of `np.packbits` over the task's test
images in test-set order (the first image is the first byte's high bit),
`n_images` is their count, and `repro.eval.unpack_correct(correct,
n_images)` decodes them.  A Table 2 row lists them per task (aligned with
`tasks`), a Table 3 or 5 row per composite (aligned with `combos`).  Every
method is scored on the same images, so two methods pair image by image.
Figure 5 keeps each OOD test image's max-softmax as `confidences` (base64
of little-endian float32).  The claims below still read only the means.
"""


def claims_doc() -> str:
    """The text of ``docs/paper-claims.md``."""
    lines = ["# Paper claims", "", "Generated from `src/repro/eval/claims.py` by "
             "`PYTHONPATH=src python -m repro.eval.claims`; do not edit by hand.", "", SUBSTRATE,
             RECORDS]
    for key, artifact in ARTIFACTS.items():
        lines += [f"## {artifact.title}", "",
                  f"Artifact `{key}`, checked by `benchmarks/{artifact.bench}`.", ""]
        if artifact.paper:
            lines += _md(_paper_rows(artifact, list(DATASETS))) + [""]
        if artifact.claims:
            lines += _md([["Claim", "Statement", "Predicate", "Gate"]] + [
                [f"`{c.id}`", c.statement, f"`{c.predicate}`",
                 f"known deviation: {c.deviation}" if c.deviation else "asserted"]
                for c in artifact.claims
            ]) + [""]
    return "\n".join(lines).rstrip() + "\n"


if __name__ == "__main__":
    DOC_PATH.write_text(claims_doc())
    print(f"wrote {DOC_PATH}")
