"""Line-reach trace of the test suite over src/loewner.

    python tests/reach.py [pytest arguments]

Runs the suite in-process under a stdlib sys.settrace tracer and prints
every executable line of src/loewner that no test reached, as
`file:line  function  source`, then a count. With no arguments it runs
the tier-1 suite (the testpaths of pyproject.toml). Only lines are traced,
not branches, and the CLI tests that start a subprocess are not traced.
Timing gates are not meaningful under the tracer (it slows the suite by
about 12x), so their failures are expected; the exit status is pytest's.
Each source file is read once, before the run: the executable lines and
the source shown come from that text, so editing a file during the run
cannot shift the report.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import dis
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "loewner")


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def executable_lines(path: str, text: str) -> dict:
    """{line: qualified name of the innermost code object holding it}, for
    the source `text` of the file at `path`."""
    code = compile(text, path, "exec")
    lines = {}
    for obj in _code_objects(code):      # parents come before their children
        for _, line in dis.findlinestarts(obj):
            if line is not None and line > 0:
                lines[line] = obj.co_qualname
    return lines


def main(argv) -> int:
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                sources[name] = handle.read()
    reached = set()
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        import pytest
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name, text in sources.items():
        path = os.path.join(PACKAGE, name)
        source = text.splitlines()
        for line, where in sorted(executable_lines(path, text).items()):
            if (path, line) not in reached:
                missed += 1
                print(f"{name}:{line}  {where}  {source[line - 1].strip()}")
    print(f"{missed} executable lines of src/loewner not reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
