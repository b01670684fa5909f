"""`repro tables`: paper vs measured, rendered from fabricated summaries."""

from repro.cli import main
from repro.eval.claims import ARTIFACTS, render_tracks, verdicts


class TestGenerateReport:
    def test_writes_file(self, paper_summary, write_summary, tmp_path):
        root = write_summary(paper_summary("cifar"))
        out = str(tmp_path / "paper.md")
        assert main(["tables", "--tracks", "synth-cifar", "--root", root, "--out", out]) == 0
        with open(out) as fh:
            assert fh.read().startswith("# Paper vs. measured")

    def test_contains_all_sections(self, paper_summary, write_summary):
        root = write_summary(paper_summary("cifar"))
        text = render_tracks(["synth-cifar"], fast=False, root=root)
        for artifact in ARTIFACTS.values():
            assert artifact.title in text

    def test_paper_shaped_summary_all_shapes_hold(self, paper_summary):
        """The paper's own numbers satisfy every registered claim, on both
        datasets — validates the predicates themselves."""
        checked = set()
        for kind in ("cifar", "tiny"):
            summary = paper_summary(kind)
            for key in ARTIFACTS:
                for claim, ok, measured in verdicts(key, summary[key]):
                    assert ok, f"{kind}: {claim.id} fails on the paper's numbers ({measured})"
                    checked.add(claim.id)
        gated = {c.id for a in ARTIFACTS.values() for c in a.claims if not c.deviation}
        assert gated <= checked

    def test_missing_track_noted(self, paper_summary, write_summary):
        root = write_summary(paper_summary("cifar"))
        text = render_tracks(["synth-cifar", "synth-tiny"], fast=False, root=root)
        cifar, tiny = text.split("## Track `synth-tiny`")
        assert "artifacts not built yet" not in cifar
        assert "artifacts not built yet" in tiny

    def test_empty_root_graceful(self, tmp_path):
        text = render_tracks(["synth-cifar"], root=str(tmp_path / "nothing"))
        assert "artifacts not built yet" in text

    def test_fast_build_is_found(self, paper_summary, write_summary, monkeypatch):
        """After `repro build --fast` (or under REPRO_FAST=1) the report reads
        the fast track's summary instead of claiming nothing was built."""
        root = write_summary(paper_summary("cifar"), fast=True)
        monkeypatch.setenv("REPRO_FAST", "1")
        text = render_tracks(["synth-cifar"], root=root)
        assert "## Track `synth-cifar-fast`" in text
        assert "artifacts not built yet" not in text
        assert "`table2.ckd_above_kd` CKD specialists beat the generic KD student: holds" in text
        monkeypatch.delenv("REPRO_FAST")
        assert "artifacts not built yet" in render_tracks(["synth-cifar"], root=root)
