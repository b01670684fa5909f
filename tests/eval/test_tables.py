"""Table / histogram / curve text renderers."""

import pytest

from repro.eval import format_count, render_histogram, render_table


class TestFormatCount:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (8.97e6, "8.97M"),
            (1.302e9, "1.30B"),
            (27139, "27.1K"),
            (42, "42"),
            (180_000, "180.0K"),
        ],
    )
    def test_formats(self, value, expected):
        assert format_count(value) == expected


class TestRenderTable:
    def test_contains_all_cells(self):
        out = render_table(["m", "acc"], [["ckd", "82.4"], ["kd", "62.5"]], title="T2")
        assert "T2" in out
        assert "ckd" in out and "82.4" in out
        assert "kd" in out and "62.5" in out

    def test_column_alignment(self):
        out = render_table(["a", "b"], [["xxxx", "1"]])
        lines = out.splitlines()
        header, sep, row = lines
        assert header.index("|") == row.index("|")

    def test_empty_rows(self):
        out = render_table(["a"], [])
        assert "a" in out


class TestRenderHistogram:
    def test_bars_scale_with_frequency(self):
        out = render_histogram([0.1, 0.9], [0.0, 0.5, 1.0], width=10, title="h")
        lines = out.splitlines()
        assert lines[0] == "h"
        assert lines[2].count("#") > lines[1].count("#")

    def test_handles_all_zero(self):
        out = render_histogram([0.0, 0.0], [0, 0.5, 1.0])
        assert "#" not in out


class TestSpecializationRow:
    def test_params_and_flops_are_means_over_the_tasks(self, monkeypatch):
        """Table 2's row averages its tasks' sizes, as Table 3 does over its
        combos: specialists of 2- and 3-class tasks differ in size."""
        from types import SimpleNamespace

        from repro.eval import specialization

        sizes = {"two": (85_187, 1_000), "three": (85_204, 1_034)}

        def record(track, store, method, task):
            params, flops = sizes[task]
            return {"method": method, "task": task, "type": "specialist", "arch": "WRN",
                    "accuracy": 0.5, "params": params, "flops": flops,
                    "correct": "", "n_images": 0}

        monkeypatch.setattr(specialization, "run_specialization", record)
        track = SimpleNamespace(selected_tasks=lambda hierarchy: ("two", "three"))
        store = SimpleNamespace(dataset=lambda track: SimpleNamespace(hierarchy=None))
        rows = specialization.specialization_table(track, store)
        assert [row["method"] for row in rows] == list(specialization.SPECIALIZATION_METHODS)
        for row in rows:
            assert row["params"] == 85_195.5 and row["flops"] == 1_017.0
