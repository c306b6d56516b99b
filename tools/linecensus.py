"""Line census: the lines of squeezesim's functions that no test reaches.

Runs pytest in this process under a sys.settrace hook that records only
the lines executed in files under src/squeezesim, then prints each line of
a function body that never ran, as path:line and its source, and a count.
Module and class bodies run at import and are left out.  It needs no
coverage package.

    python tools/linecensus.py [pytest arguments]

Run it from the repository root; the arguments go to pytest as they are
(by default the whole suite).  Tracing slows the suite about 2.5-fold, and
lines that only a subprocess runs (the CLI guards that start a fresh
interpreter) count as not reached.  The exit status is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "squeezesim"


def executable_lines(path) -> set[int]:
    """Lines of the functions in the source file at path.  A def line is
    one of them, but it also runs where the function is defined, so an
    uncalled function shows as its body alone."""
    code = compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        if co.co_flags & CO_OPTIMIZED:  # a function, not a module or class body
            lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if isinstance(c, CodeType))
    return lines


def census(package, run) -> dict[str, list[int]]:
    """Call run() with every line executed under the directory package
    recorded, and return, per .py file under it, the sorted executable
    lines that did not run (files with none left out)."""
    root = os.path.realpath(package) + os.sep
    hits: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}  # per code filename: its local tracer, or None outside

    def tracer_for(filename):
        path = os.path.realpath(filename)
        if not path.startswith(root):
            return None
        lines = hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:
            local = tracers[filename] = tracer_for(filename)
            return local

    previous = sys.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    missing = {}
    for path in sorted(Path(root).rglob("*.py")):
        left = executable_lines(path) - hits.get(str(path), set())
        if left:
            missing[str(path)] = sorted(left)
    return missing


def main(argv: list[str]) -> int:
    import pytest  # imported here so that the census sees the package load

    status = []
    missing = census(PACKAGE, lambda: status.append(pytest.main(argv)))
    total = 0
    for path, lines in missing.items():
        source = Path(path).read_text(encoding="utf-8").splitlines()
        shown = os.path.relpath(path)
        for line in lines:
            print(f"{shown}:{line}: {source[line - 1].strip()}")
        total += len(lines)
    print(f"{total} executable line(s) in {len(missing)} file(s) not reached")
    return int(status[0]) if status else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
