"""Generate build_cli_golden/: the preprocess and postprocess commands end to end.

The files pin the exact output of ``apekit preprocess`` and ``apekit
postprocess`` on the triplets of ``make_segments_golden.py``: the cleaned
corpus, the changelog, the preprocess report without its
``manifest.timestamp`` (the one field allowed to differ between runs),
every restored file, and one console file with each command's exit code,
stdout and stderr. Changes to how the CLI writes or reads the changelog
can be checked against it for byte-identical results. Commands run in the
``build_cli_golden`` directory on relative paths, so paths in messages and
the manifest's input keys are stable. Regenerate only when a change of
outputs is intended:

    PYTHONPATH=src python tests/data/make_build_cli_golden.py

For each field, ``postprocess`` restores the cleaned parts verbatim and a
seeded edit of them, each with and without ``--orig``. The console file
also pins the rejections whose text must not drift: a decoded file one
line short, ``--orig`` naming another file, an empty changelog, a
changelog without its header, a malformed log line, and a ``preprocess``
input holding a newline in a field.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import random
import re
import shutil
import sys
from pathlib import Path

from apekit.cli import main as cli_main
from apekit.corpus import TEXT_FIELDS

SEED = 2027
OUT = Path(__file__).with_name("build_cli_golden")
_spec = importlib.util.spec_from_file_location(
    "make_segments_golden", Path(__file__).with_name("make_segments_golden.py")
)
make_segments_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_segments_golden)

_TIMESTAMP = re.compile(r',\n\s*"timestamp": "[^"]*"')


def without_timestamp(report_text: str) -> str:
    """The report with its manifest timestamp key removed, still valid JSON."""
    stripped, count = _TIMESTAMP.subn("", report_text)
    if count != 1:
        raise ValueError(f"expected one manifest timestamp, found {count}")
    return stripped


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_inputs(directory: Path) -> None:
    """The segments-golden triplets as a JSONL corpus, and one with a newline in a field."""
    rows = [
        json.dumps({"id": t.id, "src": t.src, "mt": t.mt, "pe": t.pe}, ensure_ascii=False) + "\n"
        for t, _ in make_segments_golden.triplets()
    ]
    _write(directory / "in" / "corpus.jsonl", "".join(rows))
    broken = {"id": "nl", "src": "a", "mt": "b\nc", "pe": "d"}
    _write(directory / "in" / "broken.jsonl", rows[0] + json.dumps(broken) + "\n")


def _run(console: list, argv: list) -> int:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    console.append(f"{' '.join(argv)}: exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
    return code


def _edit(rng, part: str) -> str:
    roll = rng.random()
    if roll < 0.3:
        return part + " ja"
    if roll < 0.6:
        return part.upper() if part != part.upper() else part + "!"
    return "Neu " + part


def run_commands(directory: Path) -> dict:
    """Run preprocess, then postprocess per field, in `directory`.

    Returns {file name: text}: the cleaned corpus, the changelog, the
    preprocess report without its timestamp, each restored file, and
    console.txt with every command's exit code, stdout and stderr.
    """
    previous = os.getcwd()
    os.chdir(directory)
    try:
        console = []
        _run(console, ["preprocess", "--in", "in/corpus.jsonl", "--out-dir", "out"])
        outputs = {
            "cleaned.jsonl": Path("out/cleaned.jsonl").read_text(encoding="utf-8"),
            "changelog.jsonl": Path("out/changelog.jsonl").read_text(encoding="utf-8"),
            "preprocess_report.json": without_timestamp(
                Path("out/preprocess_report.json").read_text(encoding="utf-8")
            ),
        }
        parts = [json.loads(line) for line in outputs["cleaned.jsonl"].splitlines()]
        rng = random.Random(SEED)
        for field in TEXT_FIELDS:
            cleaned = [part[field] for part in parts]
            decoded = {"unedited": cleaned, "edited": [_edit(rng, text) for text in cleaned]}
            for kind, lines in decoded.items():
                _write(Path("out") / f"{field}_{kind}.txt", "".join(line + "\n" for line in lines))
                for orig in ([], ["--orig", "in/corpus.jsonl"]):
                    name = f"{field}_{kind}{'_orig' if orig else ''}_restored.txt"
                    argv = ["postprocess", "--field", field, "--outputs", f"out/{field}_{kind}.txt",
                            "--changelog", "out/changelog.jsonl", "--out", f"out/{name}", *orig]
                    if _run(console, argv) == 0:
                        outputs[name] = (Path("out") / name).read_text(encoding="utf-8")

        changelog = outputs["changelog.jsonl"].splitlines(keepends=True)
        _write(Path("out/short.txt"), "".join(line + "\n" for line in decoded["unedited"][:-1]))
        _write(Path("out/empty.jsonl"), "")
        _write(Path("out/headerless.jsonl"), "".join(changelog[1:]))
        _write(Path("out/malformed.jsonl"), "".join([*changelog[:3], "{not json\n", *changelog[4:]]))
        pe = ["--field", "pe", "--outputs", "out/pe_unedited.txt", "--out", "out/rejected.txt"]
        for argv in (
            ["postprocess", "--field", "pe", "--outputs", "out/short.txt", "--changelog", "out/changelog.jsonl",
             "--out", "out/rejected.txt"],
            ["postprocess", *pe, "--changelog", "out/changelog.jsonl", "--orig", "in/broken.jsonl"],
            ["postprocess", *pe, "--changelog", "out/empty.jsonl"],
            ["postprocess", *pe, "--changelog", "out/headerless.jsonl"],
            ["postprocess", *pe, "--changelog", "out/malformed.jsonl"],
            ["postprocess", *pe, "--changelog", "out/missing.jsonl"],
            ["preprocess", "--in", "in/broken.jsonl", "--out-dir", "out/broken"],
        ):
            _run(console, argv)
        outputs["console.txt"] = "".join(console)
        shutil.rmtree("out")
        return outputs
    finally:
        os.chdir(previous)


def main() -> int:
    write_inputs(OUT)
    for name, text in run_commands(OUT).items():
        _write(OUT / name, text)
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
