"""The claims registry: checks, known deviations, and its consistency with
the paper benches and the generated docs/paper-claims.md (static; nothing
is trained)."""

import ast
import re
from pathlib import Path

import pytest

from repro.eval import claims
from repro.eval.claims import ARTIFACTS, check, render, render_tracks, verdicts

REPO = Path(__file__).resolve().parents[2]
PAPER_BENCHES = sorted(
    path for pattern in ("bench_table*.py", "bench_fig*.py", "bench_ext_*.py")
    for path in (REPO / "benchmarks").glob(pattern)
)


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

    def test_every_claim_names_a_bench_that_checks_it(self):
        for key, artifact in ARTIFACTS.items():
            bench = REPO / "benchmarks" / artifact.bench
            assert bench.exists(), f"{key}: {artifact.bench} does not exist"
            source = bench.read_text()
            assert f'claims.render("{key}"' in source, f"{artifact.bench} never renders {key}"
            if artifact.claims:
                assert f'claims.check("{key}"' in source, f"{artifact.bench} never checks {key}"

    def test_benches_check_only_registered_artifacts(self):
        seen = set()
        for bench in PAPER_BENCHES:
            for key in re.findall(r'claims\.(?:check|render)\(\s*"(\w+)"', bench.read_text()):
                assert key in ARTIFACTS, f"{bench.name} passes unregistered {key!r}"
                seen.add(key)
        assert seen == set(ARTIFACTS)

    def test_no_bare_shape_asserts_in_paper_benches(self):
        assert len(PAPER_BENCHES) == 10
        for bench in PAPER_BENCHES:
            asserts = [n.lineno for n in ast.walk(ast.parse(bench.read_text()))
                       if isinstance(n, ast.Assert)]
            assert not asserts, f"{bench.name}:{asserts} asserts a shape outside the registry"

    def test_paper_claims_doc_is_current(self):
        committed = (REPO / "docs" / "paper-claims.md").read_text()
        assert committed == claims.claims_doc(), (
            "docs/paper-claims.md is stale; regenerate it with "
            "`PYTHONPATH=src python -m repro.eval.claims`"
        )
