"""List the statements of ``src/pelliptic`` that the tier-1 suite never runs.

Runs the tier-1 suite in this process through ``pytest.main``, with the
warning filters of the CI tier-1 step, under a ``sys.settrace`` line
tracer (stdlib only), and prints ``file:line`` for each statement whose
first line never ran.  A statement is an ``ast`` statement of a module in
``src/pelliptic``, less ``def``, ``class`` and import statements and
docstrings.  Every module is covered, ``cli.py`` too: the CLI tests call
``cli.main`` in the test process.  The few tests that start a child
process add nothing here, as this tracer does not see the child.

Exits 1 if any statement never ran or if pytest fails, 0 otherwise.
Run from anywhere as ``PYTHONPATH=src python tests/statement_trace.py``;
extra arguments go to pytest.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "pelliptic"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SKIP_NODES = (*DEFINITIONS, ast.Import, ast.ImportFrom)
PYTEST_ARGS = [
    "-q",
    "--continue-on-collection-errors",
    "-W",
    "error::RuntimeWarning",
    "-W",
    "error::DeprecationWarning",
]


def statement_lines(source: str) -> set:
    """First lines of the statements of one module, as defined above."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)) and ast.get_docstring(node):
            docstrings.add(id(node.body[0]))
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt)
        and not isinstance(node, SKIP_NODES)
        and id(node) not in docstrings
    }


def main(args) -> int:
    files = {
        os.path.realpath(path): statement_lines(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    ran = {name: set() for name in files}
    # co_filename -> the set of lines run in that file, or None for a file
    # outside the package
    where = {}

    def local(frame, event, arg):
        if event == "line":
            where[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in where:
            where[name] = ran.get(os.path.realpath(name))
        return local if where[name] is not None else None

    os.chdir(REPO)
    sys.settrace(tracer)
    try:
        status = pytest.main([*PYTEST_ARGS, *args])
    finally:
        sys.settrace(None)
    if not any(ran.values()):
        print(f"no line of {PACKAGE} ran: is src on PYTHONPATH?")
        return 1
    missed = [
        f"{Path(name).relative_to(REPO)}:{line}"
        for name, lines in files.items()
        for line in sorted(lines - ran[name])
    ]
    if missed:
        print("\n".join(missed))
    print(f"{len(missed)} statements never ran (pytest exit status {int(status)})")
    return int(bool(missed) or status != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
