"""List the functions under a source tree that a run never entered.

Standard library only.  ``run`` executes a module or a script with a
profile hook on every thread (``sys.setprofile`` / ``threading.setprofile``)
that appends each function's first entry to a per-process file, so forked
workers (which exit without ``atexit``) report too.  ``report`` compiles
every ``.py`` file under the source tree and prints each function whose
code object no file names, one ``path:line qualname`` per line::

    python tests/function_audit.py run DIR -m pytest -x -q
    python tests/function_audit.py run DIR examples/concurrent_clients.py
    python tests/function_audit.py report DIR src

Runs that share ``DIR`` add up.  Comprehensions, lambdas and generator
expressions are not listed; abstract methods and entry points that only a
command line reaches are, and need a reader's judgement.
"""

import os
import runpy
import sys
import threading
from pathlib import Path

_ANONYMOUS = {"<lambda>", "<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}


def _install(out_dir: Path) -> None:
    seen, sink = set(), {}

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno)
        if key in seen:
            return
        seen.add(key)
        pid = os.getpid()
        if pid not in sink:  # first sighting in this process, or a forked child
            sink.clear()
            sink[pid] = open(out_dir / f"entered-{pid}.txt", "a", buffering=1)
        sink[pid].write(f"{os.path.realpath(code.co_filename)}:{code.co_firstlineno}\n")

    sys.setprofile(profile)
    threading.setprofile(profile)


def _functions(path: Path):
    stack = [compile(path.read_text(), os.path.realpath(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        if code.co_name != "<module>" and code.co_name not in _ANONYMOUS:
            yield code


def report(out_dir: Path, source: Path) -> list:
    entered = set()
    for trace in out_dir.glob("entered-*.txt"):
        entered.update(trace.read_text().splitlines())
    return sorted(
        f"{path}:{code.co_firstlineno} {code.co_qualname}"
        for path in source.rglob("*.py")
        for code in _functions(path)
        if f"{code.co_filename}:{code.co_firstlineno}" not in entered
    )


def main(argv) -> int:
    command, out_dir, *rest = argv
    out_dir = Path(out_dir)
    if command == "report":
        print("\n".join(report(out_dir, Path(rest[0] if rest else "src"))))
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    module = rest[1] if rest[0] == "-m" else None
    # what ``python -m MODULE`` / ``python SCRIPT`` would put first on the path
    sys.path[0] = os.getcwd() if module else os.path.dirname(os.path.abspath(rest[0]))
    sys.argv = rest[1:] if module else rest
    _install(out_dir)
    if module:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(rest[0], run_name="__main__")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
