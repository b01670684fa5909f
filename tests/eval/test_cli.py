"""CLI surface (parsing + the cheap subcommands)."""

import pytest

from repro.cli import main


class TestParsing:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_query_requires_tasks(self):
        with pytest.raises(SystemExit):
            main(["query"])


class TestReshard:
    def test_rejects_missing_target(self):
        with pytest.raises(SystemExit):
            main(["reshard", "--shards", "2"])

    def test_grow_under_load_keeps_payloads_bit_identical(self, capsys):
        argv = ["reshard", "--shards", "2", "--to", "3", "--micro-tasks", "4", "--clients", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "reshard 2 -> 3: epoch" in out
        assert "all 4 task payloads bit-identical; zero client-visible errors" in out


class TestInfo:
    def test_info_lists_registries(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "WRN-40-(4, 4)" in out
        assert "cifar100/oracle" in out
        assert "synth-cifar/expert" in out


class TestTraceDump:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        import json

        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as fh:
            for trace_id, name in (("t1", "alpha"), ("t2", "beta"), ("t3", "gamma")):
                fh.write(json.dumps({
                    "trace_id": trace_id, "span_id": name, "parent_id": None,
                    "name": name, "service": "test", "start": 0.0,
                    "duration": 0.001, "tags": {},
                }) + "\n")
        return path

    def test_dumps_every_trace_by_default(self, trace_file, capsys):
        assert main(["trace-dump", "--file", trace_file]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out and "gamma" in out
        assert "3 trace(s) shown (3 spans" in out

    def test_trace_id_filter_selects_one(self, trace_file, capsys):
        assert main(["trace-dump", "--file", trace_file, "--trace-id", "t2"]) == 0
        out = capsys.readouterr().out
        assert "beta" in out
        assert "alpha" not in out and "gamma" not in out
        assert "1 trace(s) shown" in out

    def test_limit_truncates(self, trace_file, capsys):
        assert main(["trace-dump", "--file", trace_file, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out and "gamma" not in out

    def test_empty_file_fails(self, tmp_path, capsys):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        assert main(["trace-dump", "--file", path]) == 1


class TestTop:
    def test_headless_frames_render_and_journal_persists(self, tmp_path, capsys):
        import json

        journal_path = str(tmp_path / "journal.jsonl")
        code = main([
            "top", "--frames", "2", "--interval", "0.05", "--plain",
            "--shards", "2", "--micro-tasks", "4", "--clients", "1",
            "--journal", journal_path,
        ])
        assert code == 0  # nonzero would mean no telemetry was collected
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "shard0" in out and "shard1" in out and "cluster" in out
        assert out.count("SLO p95") == 2  # one header per frame
        # the journal file exists and holds only parseable JSON lines
        # (in-process demo traffic may legitimately emit zero events)
        with open(journal_path) as fh:
            for line in fh:
                assert "kind" in json.loads(line)


class TestTables:
    def test_tables_without_artifacts(self, tmp_path, capsys):
        out_file = str(tmp_path / "paper.md")
        assert main(["tables", "--root", str(tmp_path / "none"), "--out", out_file]) == 0
        with open(out_file) as fh:
            text = fh.read()
        assert "artifacts not built yet" in text
        assert text in capsys.readouterr().out

    def test_fast_flag_reads_the_fast_build(self, paper_summary, write_summary, tmp_path, capsys):
        root = write_summary(paper_summary("cifar"), fast=True)
        assert main(["tables", "--fast", "--tracks", "synth-cifar", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "## Track `synth-cifar-fast`" in out
        assert "artifacts not built yet" not in out

    def test_report_command_is_gone(self):
        with pytest.raises(SystemExit):
            main(["report"])
