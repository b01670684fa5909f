"""Benchmark trajectory files: metadata stamping and back-compat."""

import json

from repro.control import append_benchmark_record, run_metadata


class TestRunMetadata:
    def test_stamp_fields(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_RELAX", raising=False)
        meta = run_metadata()
        assert meta["cpu_count"] >= 1
        assert meta["relax"] is False
        assert "T" in meta["timestamp"]  # ISO-8601 with a time part
        assert meta["python"].count(".") == 2

    def test_relax_flag_reflected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RELAX", "1")
        assert run_metadata()["relax"] is True


class TestAppendBenchmarkRecord:
    def test_new_trajectory_entry_is_stamped(self, tmp_path):
        path = str(tmp_path / "BENCH.json")
        doc = append_benchmark_record(path, {"speedup": 3.0}, label="pr7")
        [entry] = doc["runs"]
        assert entry["speedup"] == 3.0
        assert entry["label"] == "pr7"
        assert entry["meta"]["cpu_count"] >= 1
        with open(path) as fh:
            assert json.load(fh) == doc

    def test_old_meta_less_entries_are_left_untouched(self, tmp_path):
        # a trajectory written before the stamp existed: readers (and
        # appenders) must treat "meta" as optional on old entries
        path = str(tmp_path / "BENCH.json")
        with open(path, "w") as fh:
            json.dump({"runs": [{"speedup": 2.0}]}, fh)
        doc = append_benchmark_record(path, {"speedup": 3.0})
        old, new = doc["runs"]
        assert "meta" not in old
        assert old == {"speedup": 2.0}
        assert "meta" in new

    def test_caller_supplied_meta_wins(self, tmp_path):
        path = str(tmp_path / "BENCH.json")
        doc = append_benchmark_record(path, {"meta": {"source": "manual"}})
        assert doc["runs"][0]["meta"] == {"source": "manual"}

    def test_corrupt_trajectory_starts_fresh(self, tmp_path):
        path = str(tmp_path / "BENCH.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        doc = append_benchmark_record(path, {"speedup": 1.0})
        assert len(doc["runs"]) == 1
