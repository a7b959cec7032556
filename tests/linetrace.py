"""Line coverage of ``src/glam`` from the standard library, as a pytest plugin.

    PYTHONPATH=src:tests python -m pytest -p linetrace

At the end of the session it lists every function-body statement of
``src/glam`` that no test ran, as ``file:line``.  The trace function is
installed when this module is imported, before pytest imports glam
through ``conftest.py``, and again before each test, because a
``RecursionError`` switches tracing off.  Subprocesses are not traced.
Tracing makes the suite about three times slower, so the acceptance
criteria may fail their time budgets under it.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "glam"
_PREFIX = f"{SRC}/"
_hits = {}  # file name -> the line numbers that ran


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _hits.setdefault(name, set())
    return _local


sys.settrace(_global)


def pytest_runtest_setup(item):
    sys.settrace(_global)


def _body_statements(tree):
    """The (first, last) lines of each function-body statement's own
    code: a simple statement whole, a compound one up to its first block.
    A docstring, a constant expression and global/nonlocal compile to
    no code and are left out."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for st in (s for top in fn.body for s in ast.walk(top)):
            if (not isinstance(st, ast.stmt) or isinstance(st, (ast.Global, ast.Nonlocal))
                    or isinstance(st, ast.Expr) and isinstance(st.value, ast.Constant)):
                continue
            blocks = [b for f in ("body", "orelse", "handlers", "finalbody", "cases")
                      for b in getattr(st, f, ())]
            firsts = [getattr(b, "lineno", None) or b.pattern.lineno for b in blocks]
            yield st.lineno, max(st.lineno, min(firsts) - 1 if firsts else st.end_lineno)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    total, unrun = 0, []
    for path in sorted(SRC.glob("*.py")):
        ran = _hits.get(str(path), set())
        spans = set(_body_statements(ast.parse(path.read_text(encoding="utf-8"))))
        total += len(spans)
        unrun += [f"{path.name}:{a}" for a, b in sorted(spans)
                  if ran.isdisjoint(range(a, b + 1))]
    write = terminalreporter.write_line
    write(f"linetrace: {len(unrun)} of {total} function-body statements in src/glam never ran")
    for where in unrun:
        write(f"  {where}")
