"""List the statements of ``src/wotble`` that no test executes.

Runs pytest in this process under a line tracer (``sys.settrace``, and
``threading.settrace`` for the threads the tests start, such as a simulated
network's delivery thread), then prints one ``<path>:<line>: <source>`` row
per statement of the package that no traced line event reached, followed by
the count. A statement counts as executed when its first line is reached:
CPython reports a line event there whenever the statement runs, decorated
definitions included. Docstrings are left out, by the rule of
``tools/code_lines.py``, and so are the statements under an
``if TYPE_CHECKING:``, which never run.

Code that a test runs in a child process, as ``run_watched`` does, is not
traced. Tracing slows the suite several times over, so a test that measures
real-clock time may fail under it; the list is printed either way.

Usage: ``python tools/untested_lines.py [pytest-args...]``; without
arguments it runs ``tests``. Exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wotble"

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def _type_checking(node: ast.AST) -> bool:
    """Whether ``node`` is ``if TYPE_CHECKING:`` or ``if typing.TYPE_CHECKING:``."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def statement_lines(source: str) -> set[int]:
    """The first line of each statement in ``source`` that can run.

    Docstrings, and the statements in the body of an ``if TYPE_CHECKING:``,
    are left out.
    """
    tree = ast.parse(source)
    never = code_lines.docstring_lines(tree)
    for node in ast.walk(tree):
        if _type_checking(node):
            never.update(child.lineno for statement in node.body
                         for child in ast.walk(statement) if isinstance(child, ast.stmt))
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)} - never


def untested(source: str, hits: set[int]) -> list[int]:
    """The first lines of the statements of ``source`` that ``hits`` lacks, in order."""
    return sorted(statement_lines(source) - hits)


class LineTracer:
    """Records the line events of the code in the files under ``directory``.

    A context manager: it traces this thread, and the threads started, while
    the block runs, then puts back the trace functions it replaced. ``hits``
    maps each such file's absolute path to the line numbers reached. Frames
    of other files get no local tracer, so they run at the cost of one call
    of the global one.
    """

    def __init__(self, directory: Path):
        self.prefix = os.path.abspath(directory) + os.sep
        self.hits: dict[str, set[int]] = {}
        self._wanted: dict[str, str | None] = {}  # co_filename -> its absolute path

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            path = self._wanted[filename]
        except KeyError:
            path = os.path.abspath(filename)
            path = self._wanted[filename] = path if path.startswith(self.prefix) else None
        return None if path is None else self._line

    def _line(self, frame, event, arg):
        if event == "line":
            path = self._wanted[frame.f_code.co_filename]
            self.hits.setdefault(path, set()).add(frame.f_lineno)
        return self._line

    def __enter__(self) -> "LineTracer":
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def report(package: Path, hits: dict[str, set[int]]) -> list[str]:
    """A ``<path>:<line>: <source>`` row per untested statement of ``package``."""
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        missed = untested(source, hits.get(os.path.abspath(path), set()))
        rows += [f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}" for n in missed]
    return rows


def main(argv: list[str]) -> int:
    import pytest

    # Traced from the first import on, so module-level statements count.
    sys.path.insert(0, str(PACKAGE.parent))
    with LineTracer(PACKAGE) as tracer:
        code = pytest.main(argv or [str(ROOT / "tests")])
    rows = report(PACKAGE, tracer.hits)
    print(*rows, sep="\n")
    print(f"{len(rows)} statement(s) of {PACKAGE.relative_to(ROOT)} no test executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
