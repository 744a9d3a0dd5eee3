"""Print the statements of `src/apekit` that a pytest selection never runs.

pytest runs in this process under a `sys.settrace` hook that records
every line executed in the package's modules. Each module's statements
come from `ast`; a statement is reached when a line it owns ran (a
compound statement owns its header, not its body). Only the standard
library measures, so nothing beyond pytest is needed. Code that a test
runs in a child process is not seen.

    python3 scripts/unreached.py tests/test_goldens.py tests/test_metric_golden.py \\
        perfbench/tests/test_perfbench_tracing.py

The arguments go to pytest unchanged. One line per module follows the
pytest output: how many of its statements were never reached, and the
source line ranges they cover. Consecutive unreached statements share
one range. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "apekit"


def statements(tree: ast.AST) -> Iterator[Tuple[int, int]]:
    """(first, last) source line owned by each statement that compiles to
    code: bare constants (docstrings) and `global` or `nonlocal` compile
    to none."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield node.lineno, max(node.lineno, last)


def ranges(spans: List[Tuple[int, int]], starts: List[int]) -> List[Tuple[int, int]]:
    """Merge the unreached spans that no reached statement's first line
    (one of `starts`) separates."""
    merged: List[Tuple[int, int]] = []
    for first, last in sorted(spans):
        if merged and not any(merged[-1][1] < s < first for s in starts):
            merged[-1] = (merged[-1][0], max(merged[-1][1], last))
        else:
            merged.append((first, last))
    return merged


def report(executed: Dict[str, Set[int]]) -> List[str]:
    lines = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        spans = sorted(set(statements(ast.parse(path.read_text(encoding="utf-8")))))
        unreached = [s for s in spans if not ran.intersection(range(s[0], s[1] + 1))]
        starts = [first for first, last in spans if (first, last) not in unreached]
        text = ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in ranges(unreached, starts))
        lines.append(f"{path.name}: {len(unreached)} of {len(spans)} statements unreached" + (f": {text}" if text else ""))
    return lines


def main(argv: List[str]) -> int:
    import pytest

    executed: Dict[str, Set[int]] = {}
    package = str(PACKAGE)
    ours: Dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = str(Path(name).resolve().parent) == package
        return local if ours[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: Dict[str, Set[int]] = {}
    for name, lines in executed.items():
        by_path.setdefault(str(Path(name).resolve()), set()).update(lines)
    print("\n".join(report(by_path)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
