"""Paper-claims ratchet: fail when a claim that holds stops holding.

:data:`HOLDING` lists every claim that holds on the fast synth-cifar track
(`repro build --fast --tracks synth-cifar`).  The ratchet reads a built
``summary.json`` through the claims registry's own verdicts
(:func:`repro.eval.claims.verdicts`) and exits nonzero if a listed claim
fails or is missing.  Claims that fail today are not listed: they print as
**FAILS** in `repro tables` and are left to the fix that makes them hold,
which then adds them here.

    PYTHONPATH=src python benchmarks/paper_ratchet.py paper-summary.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from repro.eval.claims import ARTIFACTS, verdicts

#: Every claim that holds on synth-cifar-fast; each wall-clock claim among
#: them (Figures 6 and 7) holds by over 50x its threshold.
HOLDING = (
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
)


def broken(summary: Dict) -> List[str]:
    """Each listed claim that does not hold in ``summary``, with what it read."""
    measured = {}
    for key in ARTIFACTS:
        if key in summary:
            for claim, ok, values in verdicts(key, summary[key]):
                measured[claim.id] = "holds" if ok else f"fails ({values})"
    return [f"{claim_id}: {measured.get(claim_id, 'missing from the summary')}"
            for claim_id in HOLDING if measured.get(claim_id) != "holds"]


def main(argv: Sequence[str]) -> int:
    [path] = argv
    failures = broken(json.loads(Path(path).read_text()))
    for line in failures:
        print(f"stopped holding: {line}")
    print(f"{len(HOLDING) - len(failures)} of {len(HOLDING)} ratcheted claims hold")
    return int(bool(failures))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
