"""Line trace of the tier-1 tests over src/liesegang, without coverage.py.

Usage: python scripts/line_trace.py

Installs a sys.settrace hook restricted to the package's files before the
package is imported, runs the tests in this process with a fixed Hypothesis
seed (so the reached set does not depend on the draw), and prints every
statement the tests never ran.  A statement is an ast statement or an
except clause, docstrings excluded; a line of a multi-line statement
counts for the statement.  Exits with pytest's code if the tests fail,
1 if a statement is unreached, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liesegang"


def _is_docstring(body, node) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statement_owners(source: str) -> dict[int, int]:
    """Map each line that can run to the first line of its statement.

    A compound statement owns its header (decorators up to the line before
    its first nested statement); the nested statements own their lines.
    """
    owners = {}

    def visit(body, allow_doc):
        for node in body:
            if allow_doc and _is_docstring(body, node):
                continue
            if isinstance(node, (ast.Global, ast.Nonlocal)):  # no bytecode
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            nested = [getattr(node, f, []) for f in ("body", "orelse", "handlers", "finalbody")]
            starts = [b[0].lineno for b in nested if b]
            last = max(first, min(starts) - 1) if starts else node.end_lineno
            for line in range(first, last + 1):
                owners[line] = first
            doc = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), doc and field == "body")
            for handler in getattr(node, "handlers", []):
                owners[handler.lineno] = handler.lineno
                visit(handler.body, False)

    visit(ast.parse(source).body, True)
    return owners


class _NoDeadline:
    """pytest plugin: the traced run is slower, so no example may fail on a
    deadline.  Hypothesis is imported only once pytest has started."""

    @staticmethod
    def pytest_sessionstart(session):
        from hypothesis import settings

        settings.register_profile("line_trace", deadline=None)
        settings.load_profile("line_trace")


def main() -> int:
    import pytest

    package = str(PACKAGE) + os.sep
    hits = set()
    wanted = {}  # co_filename -> real path inside the package, or None

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            real = os.path.realpath(name)
            wanted[name] = real if real.startswith(package) else None
        return local if wanted[name] else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed", "0",
                            str(ROOT / "tests")], plugins=[_NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    reached = {}
    for name, line in hits:
        reached.setdefault(wanted[name], set()).add(line)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        owners = statement_owners(source)
        statements = set(owners.values())
        ran = {owners[line] for line in reached.get(str(path), ()) if line in owners}
        lines = source.splitlines()
        for line in sorted(statements - ran):
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
        total += len(statements)
        missed += len(statements - ran)
    print(f"{missed} of {total} statements under {PACKAGE.relative_to(ROOT)} unreached")
    if code != 0:
        return int(code)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
