"""The function-entry audit (``tests/function_audit.py``) on a toy tree."""

import subprocess
import sys
from pathlib import Path

AUDIT = Path(__file__).resolve().parents[1] / "function_audit.py"

TOY = '''
import os
import threading


def called():
    return 1


def never_called():
    return 2


def in_thread():
    return 3


def in_child():
    return 4


class Box:
    def used(self):
        return called()

    def unused(self):
        return 5


def main():
    Box().used()
    thread = threading.Thread(target=in_thread)
    thread.start()
    thread.join()
    pid = os.fork()
    if pid == 0:
        in_child()
        os._exit(0)  # no atexit handlers, as a forked worker exits
    os.waitpid(pid, 0)
'''


def _audit(*args) -> str:
    command = [sys.executable, str(AUDIT), *map(str, args)]
    return subprocess.run(command, check=True, capture_output=True, text=True).stdout


def test_lists_exactly_the_functions_no_thread_or_process_entered(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    (source / "toy.py").write_text(TOY)
    script = tmp_path / "run_toy.py"
    script.write_text("import sys\nsys.path.insert(0, sys.argv[1])\nimport toy\ntoy.main()\n")
    traces = tmp_path / "traces"
    _audit("run", traces, script, source)
    # the script's process and its forked child each wrote their own sightings
    assert len(list(traces.glob("entered-*.txt"))) == 2
    listed = _audit("report", traces, source).splitlines()
    assert sorted(line.split()[-1] for line in listed) == ["Box.unused", "never_called"]
    assert all(line.startswith(f"{source / 'toy.py'}:") for line in listed)
