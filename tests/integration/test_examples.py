"""Example scripts: compile cleanly; optionally run end-to-end.

Executing all six takes ~70 s, so by default we verify the scripts
parse/compile and expose a ``main``; ``REPRO_RUN_EXAMPLES=1`` executes
them for real (CI's "Examples smoke" step runs this file with it set).
"""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_defines_main(path):
    source = path.read_text()
    assert "def main(" in source
    assert '__name__ == "__main__"' in source


@pytest.mark.skipif(
    os.environ.get("REPRO_RUN_EXAMPLES", "") != "1",
    reason="set REPRO_RUN_EXAMPLES=1 to execute examples end-to-end",
)
@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(path):
    result = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
