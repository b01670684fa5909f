"""Paper-claims ratchet: fail when a claim that holds stops holding.

:data:`HOLDING` lists, per fast track, every claim that holds on it
(`repro build --fast --tracks synth-cifar,synth-tiny`).  The ratchet reads
each built ``summary.json`` it is given through the claims registry's own
verdicts (:func:`repro.eval.claims.verdicts`), against the list of the
track the summary names, and exits nonzero if a listed claim fails or is
missing.  Claims that fail today are not listed: they print as **FAILS**
in `repro tables` and are left to the fix that makes them hold, which then
adds them to its track's list.

    PYTHONPATH=src python benchmarks/paper_ratchet.py paper-summary-*.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.eval.claims import ARTIFACTS, verdicts

#: The claims that hold on both fast tracks; each wall-clock claim among
#: them (Figures 6 and 7) holds by over 50x its threshold on either.
_BOTH_TRACKS = (
    "table2.ckd_above_scratch",
    "table2.oracle_on_top",
    "table2.specialist_10x_smaller",
    "table2.ckd_above_transfer",
    "table2.transfer_above_scratch",
    "table3.poe_above_sd_scratch",
    "table3.poe_above_uhc_scratch",
    "table3.sd_ckd_above_sd_scratch",
    "table3.uhc_ckd_above_uhc_scratch",
    "table3.ckd_best_specialist",
    "table3.poe_fewest_params",
    "table4.pool_below_oracle",
    "table4.library_under_fifth_of_oracle",
    "table4.all_specialists_explode",
    "table5.both_not_below_soft",
    "table5.both_not_below_scale",
    "table5.soft_above_scale",
    "figure6.poe_train_free",
    "figure6.poe_above_merged_scratch",
    "figure6.training_pays_wall_clock",
    "figure7.poe_10x_faster",
    "figure7.poe_fast_at_nq5",
    "figure7.poe_flat",
    "ext_compression.uint8_payload_smaller",
    "ext_compression.uint8_state_3_5x_smaller",
    "ext_compression.uint8_predictions_agree",
    "ext_pruning.sparse_bytes_shrink",
    "ext_pruning.accuracy_within_15_points",
    "ext_library_level.shallower_library_bigger_models",
    "ext_library_level.both_levels_work",
)

#: Track name (a summary's ``"track"``) → every claim that holds on it.
#: Unlisted and failing: ``table2.ckd_above_kd`` and Figure 5's three on
#: both tracks; they print **FAILS** in `repro tables`.
HOLDING: Dict[str, Tuple[str, ...]] = {
    "synth-cifar-fast": _BOTH_TRACKS,
    "synth-tiny-fast": _BOTH_TRACKS,
}


def broken(summary: Dict) -> List[str]:
    """Each claim listed for ``summary``'s track that does not hold in it,
    with what it read."""
    measured = {}
    for key in ARTIFACTS:
        if key in summary:
            for claim, ok, values in verdicts(key, summary[key]):
                measured[claim.id] = "holds" if ok else f"fails ({values})"
    return [f"{claim_id}: {measured.get(claim_id, 'missing from the summary')}"
            for claim_id in HOLDING[summary["track"]] if measured.get(claim_id) != "holds"]


def main(argv: Sequence[str]) -> int:
    if not argv:
        print("usage: paper_ratchet.py SUMMARY.json [SUMMARY.json ...]")
        return 2
    status = 0
    for path in argv:
        summary = json.loads(Path(path).read_text())
        track = summary.get("track")
        if track not in HOLDING:
            print(f"{path}: no ratchet list for track {track!r}; known: {sorted(HOLDING)}")
            status = 1
            continue
        failures = broken(summary)
        for line in failures:
            print(f"{track}: stopped holding: {line}")
        listed = len(HOLDING[track])
        print(f"{track}: {listed - len(failures)} of {listed} ratcheted claims hold")
        status |= bool(failures)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
