"""The harness the make_*_golden.py generators share.

A directory golden holds its inputs under ``in/`` and, next to them, the
outputs of the commands a generator runs on them in that directory. Its
generator defines ``OUT``, ``write_inputs(directory)`` and
``run_commands(directory) -> {file name: text}``; ``main`` writes both
into ``OUT``, and tests/test_goldens.py runs them on a copy and compares.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

from apekit.cli import main as cli_main

_TIMESTAMP = re.compile(r',\n\s*"timestamp": "[^"]*"')


def without_timestamp(report_text: str) -> str:
    """The report with its manifest timestamp key removed, still valid JSON."""
    stripped, count = _TIMESTAMP.subn("", report_text)
    if count != 1:
        raise ValueError(f"expected one manifest timestamp, found {count}")
    return stripped


def run(console: list, argv: list, label: str = None) -> int:
    """Run the CLI on `argv`; append its exit code, stdout and stderr to `console`.

    The entry starts with `label`, by default the whole argv.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    console.append(f"{label or ' '.join(argv)}: exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
    return code


@contextlib.contextmanager
def cd(directory: Path):
    """Run the block in `directory`, so commands see stable relative paths."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def write(path: Path, text: str) -> None:
    """Write `text` as UTF-8 with \\n line endings, creating the directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_jsonl(path: Path, records, ensure_ascii: bool = False) -> None:
    """Regenerate a record golden: one JSON object per line."""
    write(path, "".join(json.dumps(record, ensure_ascii=ensure_ascii) + "\n" for record in records))
    print(f"wrote {path}", file=sys.stderr)


def main(out_dir: Path, write_inputs, run_commands) -> None:
    """Regenerate a directory golden: its in/ files, then every output of the commands run on them."""
    write_inputs(out_dir)
    for name, text in run_commands(out_dir).items():
        write(out_dir / name, text)
    print(f"wrote {out_dir}", file=sys.stderr)
