"""The claims registry: checks, known deviations, the ratchet, and its
consistency with the generated docs/paper-claims.md (static; nothing is
trained)."""

import json
import sys
from pathlib import Path

import pytest

from repro.eval import claims
from repro.eval.claims import ARTIFACTS, check, render, render_tracks, verdicts

REPO = Path(__file__).resolve().parents[2]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from benchmarks import paper_ratchet  # noqa: E402


def _with_method(rows, method, **fields):
    return [dict(r, **fields) if r["method"] == method else r for r in rows]


class TestCheck:
    def test_violated_claim_raises_with_its_id(self, paper_summary):
        table2 = paper_summary("cifar")["table2"]
        ckd = next(r for r in table2 if r["method"] == "ckd")["accuracy_mean"]
        tied = _with_method(table2, "kd", accuracy_mean=ckd)
        with pytest.raises(AssertionError) as info:
            check("table2", tied)
        message = str(info.value)
        assert "table2.ckd_above_kd" in message
        assert f"ckd={ckd:#.4g}, kd={ckd:#.4g}" in message
        assert "table2.ckd_above_scratch" not in message

    def test_every_failed_claim_is_named(self, paper_summary):
        fig5 = paper_summary("cifar")["figure5"]
        inverted = dict(fig5, ckd=fig5["scratch"], scratch=fig5["ckd"])
        with pytest.raises(AssertionError) as info:
            check("figure5", inverted)
        for claim_id in ("figure5.ckd_below_scratch", "figure5.ckd_below_transfer",
                         "figure5.ckd_rarely_overconfident"):
            assert claim_id in str(info.value)

    def test_known_deviation_is_rendered_not_asserted(self, paper_summary):
        table2 = _with_method(paper_summary("cifar")["table2"], "scratch", accuracy_mean=0.5)
        check("table2", table2)
        assert "`table2.scratch_above_kd` Scratch specialists beat the generic KD student: " \
               "known deviation" in render("table2", table2, "cifar")

    def test_artifact_without_claims_checks_nothing(self, paper_summary):
        check("table5_l2", paper_summary("cifar")["table5_l2"])


def test_tables_and_benches_share_every_verdict(paper_summary, write_summary):
    """`repro tables` prints, per claim, the verdict `check` acts on."""
    summary = paper_summary("tiny")
    summary["table3"] = _with_method(summary["table3"], "poe", accuracy_mean=0.3)
    text = render_tracks(["synth-cifar"], fast=False, root=write_summary(summary))
    failing = set()
    for key, artifact in ARTIFACTS.items():
        for claim, ok, _ in verdicts(key, summary[key]):
            line = next(l for l in text.splitlines() if l.startswith(f"- `{claim.id}` "))
            if not ok and not claim.deviation:
                failing.add(claim.id)
                assert "**FAILS**" in line
            else:
                assert "**FAILS**" not in line
        if any(c.id in failing for c in artifact.claims):
            with pytest.raises(AssertionError, match="|".join(sorted(failing))):
                check(key, summary[key])
        else:
            check(key, summary[key])
    assert failing == {"table3.poe_above_sd_scratch", "table3.poe_above_uhc_scratch"}


class TestRegistryConsistency:
    def test_claim_ids_are_unique_and_name_their_artifact(self):
        ids = [c.id for a in ARTIFACTS.values() for c in a.claims]
        assert len(ids) == len(set(ids))
        for key, artifact in ARTIFACTS.items():
            for claim in artifact.claims:
                assert claim.id.startswith(key + ".")

    def test_paper_claims_doc_is_current(self):
        committed = (REPO / "docs" / "paper-claims.md").read_text()
        assert committed == claims.claims_doc(), (
            "docs/paper-claims.md is stale; regenerate it with "
            "`PYTHONPATH=src python -m repro.eval.claims`"
        )


#: Each ratcheted track and the paper-shaped summary standing in for it.
RATCHETED = {"synth-cifar-fast": "cifar", "synth-tiny-fast": "tiny"}


class TestPaperRatchet:
    def test_every_listed_id_is_a_registered_claim(self):
        registered = {c.id for a in ARTIFACTS.values() for c in a.claims}
        assert set(paper_ratchet.HOLDING) == set(RATCHETED)
        for holding in paper_ratchet.HOLDING.values():
            assert len(set(holding)) == len(holding)
            assert set(holding) <= registered

    def test_a_listed_claim_that_stops_holding_fails(self, paper_summary, tmp_path, capsys):
        paths = {}
        for track, kind in RATCHETED.items():
            summary = dict(paper_summary(kind), track=track)
            paths[track] = tmp_path / f"{kind}.json"
            paths[track].write_text(json.dumps(summary))
        assert paper_ratchet.main([str(p) for p in paths.values()]) == 0
        capsys.readouterr()
        for track, kind in RATCHETED.items():
            summary = dict(paper_summary(kind), track=track)
            summary["table3"] = _with_method(summary["table3"], "poe", accuracy_mean=0.3)
            del summary["figure7"]
            paths[track].write_text(json.dumps(summary))
            # one broken track fails the run, whichever the other is
            assert paper_ratchet.main([str(p) for p in paths.values()]) == 1
            out = capsys.readouterr().out
            assert f"{track}: stopped holding: table3.poe_above_sd_scratch: fails (poe=[0.3000" in out
            assert f"{track}: stopped holding: figure7.poe_flat: missing from the summary" in out
            # two table3 claims read PoE's row, three figure7 claims are gone
            listed = len(paper_ratchet.HOLDING[track])
            assert f"{track}: {listed - 5} of {listed} " in out
            paths[track].write_text(json.dumps(dict(paper_summary(kind), track=track)))

    def test_an_unlisted_failure_does_not_fail(self, paper_summary, tmp_path, capsys):
        for track, kind in RATCHETED.items():
            summary = dict(paper_summary(kind), track=track)
            ckd = next(r for r in summary["table2"] if r["method"] == "ckd")["accuracy_mean"]
            summary["table2"] = _with_method(summary["table2"], "kd", accuracy_mean=ckd)
            assert "table2.ckd_above_kd" not in paper_ratchet.HOLDING[track]
            assert paper_ratchet.broken(summary) == []
        # a summary of a track with no list fails rather than passing unjudged
        path = tmp_path / "other.json"
        path.write_text(json.dumps(dict(paper_summary("cifar"), track="synth-cifar")))
        assert paper_ratchet.main([str(path)]) == 1
        assert "no ratchet list for track 'synth-cifar'" in capsys.readouterr().out
