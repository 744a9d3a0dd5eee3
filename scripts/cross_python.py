"""Regenerate the numpy-free goldens under other Python interpreters and diff them.

For each interpreter given, the script copies `src/` and `tests/data/` to
a temporary directory, runs every generator of GENERATORS there with that
interpreter (`PYTHONPATH` set to the copy's `src`), and compares each
file under the copy's `tests/data` with the checkout's. It prints the
interpreter's version, then `identical` or one line per file that
differs, with the count of lines that differ. These generators need
neither numpy nor pytest, so a bare interpreter runs them.

    python3 scripts/cross_python.py python3.10 python3.12 python3.13

Exits 1 when any file differs or a generator fails, else 0.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path("tests") / "data"
GENERATORS = (
    "make_build_cli_golden.py",
    "make_report_golden.py",
    "make_segments_golden.py",
    "make_langid_golden.py",
    "make_human_eval_golden.py",
)


def regenerate(python: str, work: Path) -> str:
    """Run every generator under `python` on a copy in `work`; return its version line."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
    shutil.copytree(ROOT / DATA, work / DATA, ignore=ignore)
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for generator in GENERATORS:
        subprocess.run([python, str(work / DATA / generator)], cwd=work, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    version = [python, "-c", "import sys; print(sys.version.split()[0])"]
    return subprocess.run(version, check=True, capture_output=True, text=True).stdout.strip()


def differences(work: Path) -> list:
    """(relative path, differing line count or None when one side is missing) per file that differs."""
    committed, regenerated = ROOT / DATA, work / DATA
    names = {p.relative_to(base) for base in (committed, regenerated) for p in base.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts}
    found = []
    for name in sorted(names):
        old, new = committed / name, regenerated / name
        if not (old.is_file() and new.is_file()):
            found.append((name, None))
        elif old.read_bytes() != new.read_bytes():
            diff = difflib.ndiff(old.read_text(encoding="utf-8").splitlines(),
                                 new.read_text(encoding="utf-8").splitlines())
            found.append((name, sum(line.startswith("+ ") for line in diff)))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON", help="interpreter to run the generators with")
    args = parser.parse_args(argv)
    failed = False
    for python in args.pythons:
        with tempfile.TemporaryDirectory(prefix="cross_python_") as tmp:
            try:
                version = regenerate(python, Path(tmp))
            except (OSError, subprocess.CalledProcessError) as exc:
                stderr = getattr(exc, "stderr", b"") or b""
                print(f"{python}: generators failed: {exc}\n{stderr.decode(errors='replace')}")
                failed = True
                continue
            found = differences(Path(tmp))
        print(f"{python} (Python {version}): {'identical' if not found else f'{len(found)} files differ'}")
        for name, lines in found:
            print(f"  {name}: {'missing on one side' if lines is None else f'{lines} lines differ'}")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
