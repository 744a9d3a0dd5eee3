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
changelog without its header, a changelog line that is not JSON, and a
``preprocess`` input holding a newline in a field.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

from apekit.corpus import TEXT_FIELDS

import golden
import make_segments_golden

SEED = 2027
OUT = Path(__file__).with_name("build_cli_golden")


def write_inputs(directory: Path) -> None:
    """The segments-golden triplets as a JSONL corpus, and one with a newline in a field."""
    rows = [
        json.dumps({"id": t.id, "src": t.src, "mt": t.mt, "pe": t.pe}, ensure_ascii=False) + "\n"
        for t in make_segments_golden.triplets()
    ]
    golden.write(directory / "in" / "corpus.jsonl", "".join(rows))
    broken = {"id": "nl", "src": "a", "mt": "b\nc", "pe": "d"}
    golden.write(directory / "in" / "broken.jsonl", rows[0] + json.dumps(broken) + "\n")


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
    with golden.cd(directory):
        console = []
        golden.run(console, ["preprocess", "--in", "in/corpus.jsonl", "--out-dir", "out"])
        outputs = {
            "cleaned.jsonl": Path("out/cleaned.jsonl").read_text(encoding="utf-8"),
            "changelog.jsonl": Path("out/changelog.jsonl").read_text(encoding="utf-8"),
            "preprocess_report.json": golden.without_timestamp(
                Path("out/preprocess_report.json").read_text(encoding="utf-8")
            ),
        }
        parts = [json.loads(line) for line in outputs["cleaned.jsonl"].splitlines()]
        rng = random.Random(SEED)
        for field in TEXT_FIELDS:
            cleaned = [part[field] for part in parts]
            decoded = {"unedited": cleaned, "edited": [_edit(rng, text) for text in cleaned]}
            for kind, lines in decoded.items():
                golden.write(Path("out") / f"{field}_{kind}.txt", "".join(line + "\n" for line in lines))
                for orig in ([], ["--orig", "in/corpus.jsonl"]):
                    name = f"{field}_{kind}{'_orig' if orig else ''}_restored.txt"
                    argv = ["postprocess", "--field", field, "--outputs", f"out/{field}_{kind}.txt",
                            "--changelog", "out/changelog.jsonl", "--out", f"out/{name}", *orig]
                    if golden.run(console, argv) == 0:
                        outputs[name] = (Path("out") / name).read_text(encoding="utf-8")

        changelog = outputs["changelog.jsonl"].splitlines(keepends=True)
        golden.write(Path("out/short.txt"), "".join(line + "\n" for line in decoded["unedited"][:-1]))
        golden.write(Path("out/empty.jsonl"), "")
        golden.write(Path("out/headerless.jsonl"), "".join(changelog[1:]))
        golden.write(Path("out/malformed.jsonl"), "".join([*changelog[:3], "{not json\n", *changelog[4:]]))
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
            golden.run(console, argv)
        outputs["console.txt"] = "".join(console)
        shutil.rmtree("out")
        return outputs


if __name__ == "__main__":
    golden.main(OUT, write_inputs, run_commands)
