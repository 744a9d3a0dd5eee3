"""Generate input_fault_golden/: the console line and exit code of every input fault the CLI rejects.

Each rejected command's exit code, stdout and stderr go to one console
file. The faults are a missing file, a bare carriage return in a corpus,
a line file and a changelog, a line file that starts with a UTF-8 byte
order mark, a corpus line that is not JSON, a corpus
record without a field, a TSV line with the wrong column count, line
files of different lengths, an empty TER reference, a corpus record with
a repeated or unknown key, a lone surrogate or a NaN, a ``filter`` that
keeps no triplet, and
changelogs that were edited, lack their cleaned-parts digests, hold a
line of the old log format or a field with a line break. They run through
``stats``, ``filter``, ``preprocess``, ``postprocess``, ``evaluate``,
``significance`` and ``buckets``. Inputs with two faults each pin which
fault ``preprocess`` and ``postprocess`` report first; after each of
those runs, and of the ``filter`` and changelog faults, the console also
says whether anything under ``out/`` was added, removed or changed, since
a rejected run must write nothing.
Commands run in the
``input_fault_golden`` directory on relative paths, so paths in messages
are stable. Regenerate only when a change of messages is intended:

    PYTHONPATH=src python tests/data/make_input_fault_golden.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import golden

OUT = Path(__file__).with_name("input_fault_golden")

_TRIPLETS = [
    {"id": "t1", "src": "- Where are you going?", "mt": "- Wohin gehst du?", "pe": "- Wohin gehst du?"},
    {"id": "t2", "src": "<i>Come back.</i>", "mt": "<i>Komm zurück.</i>", "pe": "<i>Komm sofort zurück.</i>"},
    {"id": "t3", "src": "The night is long.", "mt": "Die Nacht ist lang.", "pe": "Die Nacht ist so lang."},
]


def write_inputs(directory: Path) -> None:
    """The faulty corpora and line files: each single fault on line 2 or 3, then the inputs with two."""
    rows = [json.dumps(t, ensure_ascii=False).encode("utf-8") + b"\n" for t in _TRIPLETS]
    newline = json.dumps({**_TRIPLETS[0], "mt": "- Wohin\ngehst du?"}, ensure_ascii=False).encode("utf-8") + b"\n"
    inputs = {
        "corpus.jsonl": b"".join(rows),
        "cr.jsonl": rows[0] + rows[1].replace(b'", "', b'",\r "', 1) + rows[2],
        "bad_json.jsonl": rows[0] + b"{not json\n" + rows[2],
        "missing_field.jsonl": rows[0] + b'{"id": "t2", "src": "a", "mt": "b"}\n' + rows[2],
        "columns.tsv": b"a\tb\tc\nd\te\n",
        "repeated_key.jsonl": rows[0] + b'{"id": "t2", "src": "a", "mt": "b", "pe": "c", "src": "d"}\n' + rows[2],
        "unknown_key.jsonl": rows[0] + b'{"id": "t2", "src": "a", "mt": "b", "pe": "c", "ref": "d"}\n' + rows[2],
        "lone_surrogate.jsonl": rows[0] + b'{"id": "t2", "src": "Hello there my friend \\ud800", "mt": "b", "pe": "c"}\n'
                                + rows[2],
        "nan_meta.jsonl": rows[0] + b'{"id": "t2", "src": "a", "mt": "b", "pe": "c", "meta": {"score": NaN}}\n' + rows[2],
        "german_src.jsonl": b"".join(json.dumps({**t, "src": t["mt"]}, ensure_ascii=False).encode("utf-8") + b"\n"
                                     for t in _TRIPLETS[:2]),
        "no_holdout.json": b'{"dev_size": 0, "test_size": 0}\n',
        "hyp.txt": b"Die Nacht ist lang.\nKomm zur\xc3\xbcck.\nWohin gehst du?\n",
        "bom.txt": b"\xef\xbb\xbfDie Nacht ist so lang.\nKomm sofort zur\xc3\xbcck.\nWohin gehst du?\n",
        "ref.txt": b"Die Nacht ist so lang.\nKomm sofort zur\xc3\xbcck.\nWohin gehst du?\n",
        "cr.txt": b"Die Nacht ist lang.\nKomm zur\xc3\xbcck.\nWohin\rgehst du?\n",
        "short.txt": b"Die Nacht ist lang.\nKomm zur\xc3\xbcck.\n",
        "empty_ref.txt": b"Die Nacht ist so lang.\n\nWohin gehst du?\n",
        # Two faults each, in the order the file shows them.
        "newline_then_bad_json.jsonl": newline + rows[1] + b"{not json\n",
        "repeat_then_missing_field.jsonl": rows[0] + rows[0] + rows[2] + b'{"id": "t4", "src": "a", "mt": "b"}\n',
        "newline_then_repeat.jsonl": newline + rows[1] + rows[1],
    }
    (directory / "in").mkdir(parents=True, exist_ok=True)
    for name, data in inputs.items():
        (directory / "in" / name).write_bytes(data)


def _tree() -> dict:
    return {str(p): p.read_bytes() if p.is_file() else None for p in sorted(Path("out").rglob("*"))}


def _run_rejected(console: list, argv: list) -> None:
    """Run a command that must fail; say whether it added, removed or changed anything under out/."""
    before = _tree()
    golden.run(console, argv)
    after = _tree()
    touched = sorted(p for p in before.keys() | after.keys() if before.get(p, 0) != after.get(p, 0))
    console.append(f"out/ {'changed: ' + ', '.join(touched) if touched else 'unchanged'}\n")


def run_commands(directory: Path) -> dict:
    """Run every faulty command in `directory`; return {"console.txt": text}."""
    with golden.cd(directory):
        console = []
        # A valid changelog for the postprocess faults, and a copy with a bare CR on line 2.
        if golden.run(console, ["preprocess", "--in", "in/corpus.jsonl", "--out-dir", "out/pre"]) != 0:
            raise RuntimeError("preprocess of the valid corpus failed")
        changelog = Path("out/pre/changelog.jsonl").read_bytes().split(b"\n")
        changelog[1] = changelog[1].replace(b'", "', b'",\r "', 1)
        Path("out/cr_changelog.jsonl").write_bytes(b"\n".join(changelog))
        mt = [json.loads(line)["mt"] for line in Path("out/pre/cleaned.jsonl").read_text(encoding="utf-8").splitlines()]
        Path("out/mt.txt").write_text("".join(line + "\n" for line in mt), encoding="utf-8")
        Path("out/mt_cr.txt").write_bytes("".join(line + "\n" for line in mt).replace("\n", "\r", 1).encode("utf-8"))
        Path("out/mt_short.txt").write_text("".join(line + "\n" for line in mt[:-1]), encoding="utf-8")

        corpus_faults = [
            ["--in", "in/missing.jsonl"],
            ["--in", "in/cr.jsonl"],
            ["--in", "in/bad_json.jsonl"],
            ["--in", "in/missing_field.jsonl"],
            ["--in", "in/columns.tsv", "--format", "tsv"],
            ["--in", "in/repeated_key.jsonl"],
            ["--in", "in/unknown_key.jsonl"],
            ["--in", "in/lone_surrogate.jsonl"],
            ["--in", "in/nan_meta.jsonl"],
        ]
        for fault in corpus_faults:
            golden.run(console, ["stats", *fault, "--out", "out/stats.json"])
            golden.run(console, ["filter", *fault, "--out-dir", "out/filter"])
            golden.run(console, ["preprocess", *fault, "--out-dir", "out/preprocess"])

        restore = ["postprocess", "--out", "out/restored.txt"]
        for fault in (
            ["--outputs", "out/missing.txt", "--changelog", "out/pre/changelog.jsonl"],
            ["--outputs", "out/mt.txt", "--changelog", "out/missing.jsonl"],
            ["--outputs", "out/mt.txt", "--changelog", "out/pre/changelog.jsonl", "--orig", "in/missing.jsonl"],
            ["--outputs", "out/mt_cr.txt", "--changelog", "out/pre/changelog.jsonl"],
            ["--outputs", "out/mt.txt", "--changelog", "out/cr_changelog.jsonl"],
            ["--outputs", "out/mt_short.txt", "--changelog", "out/pre/changelog.jsonl"],
        ):
            golden.run(console, [*restore, *fault])

        for fault in (
            ["--hyp", "in/missing.txt", "--ref", "in/ref.txt"],
            ["--hyp", "in/hyp.txt", "--ref", "in/missing.txt"],
            ["--hyp", "in/hyp.txt", "--ref", "in/ref.txt", "--hyp-b", "in/missing.txt"],
            ["--hyp", "in/cr.txt", "--ref", "in/ref.txt"],
            ["--hyp", "in/hyp.txt", "--ref", "in/cr.txt"],
            ["--hyp", "in/bom.txt", "--ref", "in/ref.txt"],
            ["--hyp", "in/short.txt", "--ref", "in/ref.txt"],
            ["--hyp", "in/hyp.txt", "--ref", "in/ref.txt", "--hyp-b", "in/short.txt"],
            ["--hyp", "in/hyp.txt", "--ref", "in/empty_ref.txt"],
        ):
            golden.run(console, ["evaluate", *fault, "--out", "out/evaluate.json"])

        significance = ["significance", "--statistic", "ter", "--n-samples", "10", "--out", "out/sig.json"]
        for fault in (
            ["--hyp-a", "in/missing.txt", "--hyp-b", "in/hyp.txt", "--ref", "in/ref.txt"],
            ["--hyp-a", "in/hyp.txt", "--hyp-b", "in/cr.txt", "--ref", "in/ref.txt"],
            ["--hyp-a", "in/hyp.txt", "--hyp-b", "in/short.txt", "--ref", "in/ref.txt"],
            ["--hyp-a", "in/hyp.txt", "--hyp-b", "in/hyp.txt", "--ref", "in/empty_ref.txt"],
        ):
            golden.run(console, [*significance, *fault])

        for fault in (
            ["--baseline", "in/hyp.txt", "--ape", "in/missing.txt", "--ref", "in/ref.txt"],
            ["--baseline", "in/cr.txt", "--ape", "in/hyp.txt", "--ref", "in/ref.txt"],
            ["--baseline", "in/hyp.txt", "--ape", "in/short.txt", "--ref", "in/ref.txt"],
            ["--baseline", "in/hyp.txt", "--ape", "in/hyp.txt", "--ref", "in/empty_ref.txt"],
        ):
            golden.run(console, ["buckets", *fault, "--out", "out/buckets.json"])
        # Two faults in one input: the first reported is pinned, and a
        # rejected run leaves earlier outputs and absent directories alone.
        for name in ("newline_then_bad_json.jsonl", "repeat_then_missing_field.jsonl", "newline_then_repeat.jsonl"):
            _run_rejected(console, ["preprocess", "--in", f"in/{name}", "--out-dir", "out/pre"])
            _run_rejected(console, ["preprocess", "--in", f"in/{name}", "--out-dir", "out/new/pre"])

        changelog = Path("out/pre/changelog.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        bad_line3 = "".join([*changelog[:2], "{not json\n", *changelog[3:]]).encode("utf-8")
        Path("out/bad_line3_changelog.jsonl").write_bytes(bad_line3)
        line4 = bad_line3.index(b"\n{not json\n") + len(b"\n{not json\n")
        Path("out/bad_line3_ff_line4_changelog.jsonl").write_bytes(bad_line3[:line4] + b"\xff" + bad_line3[line4:])
        header = json.loads(changelog[0])
        header["n_parts"]["mt"] += 1
        Path("out/bad_header_changelog.jsonl").write_text(json.dumps(header) + "\n" + "".join(changelog[1:]),
                                                          encoding="utf-8")
        edited = "".join([*changelog[:3], changelog[3].replace("ist lang", "ist kurz")])
        Path("out/edited_mt_changelog.jsonl").write_text(edited, encoding="utf-8")
        header = json.loads(changelog[0])
        del header["clean_sha256"]
        Path("out/no_digest_changelog.jsonl").write_text(json.dumps(header) + "\n" + "".join(changelog[1:]),
                                                         encoding="utf-8")
        t3 = _TRIPLETS[2]  # no markup, so no records: its whole log in the old format
        old_log = {"triplet_id": "t3", "parts": dict.fromkeys(("src", "mt", "pe"), 1),
                   "clean_digests": {f: [hashlib.sha1(t3[f].encode("utf-8")).hexdigest()] for f in ("src", "mt", "pe")},
                   "records": []}
        Path("out/old_format_changelog.jsonl").write_text("".join(changelog[:3]) + json.dumps(old_log) + "\n",
                                                          encoding="utf-8")
        line2 = json.dumps({**_TRIPLETS[0], "mt": "- Wohin\ngehst du?"}, ensure_ascii=False) + "\n"
        Path("out/newline_changelog.jsonl").write_text("".join([changelog[0], line2, *changelog[2:]]),
                                                       encoding="utf-8")
        Path("out/mt_ff.txt").write_bytes(b"\xff" + Path("out/mt.txt").read_bytes())
        if golden.run(console, [*restore, "--outputs", "out/mt.txt", "--changelog", "out/pre/changelog.jsonl"]) != 0:
            raise RuntimeError("postprocess of the valid changelog failed")
        for fault in (
            ["--outputs", "out/mt_short.txt", "--changelog", "out/bad_line3_changelog.jsonl"],
            ["--outputs", "out/mt_short.txt", "--changelog", "out/bad_header_changelog.jsonl"],
            ["--outputs", "out/mt_ff.txt", "--changelog", "out/bad_line3_changelog.jsonl"],
            ["--outputs", "out/mt.txt", "--changelog", "out/bad_line3_ff_line4_changelog.jsonl"],
            ["--outputs", "out/mt_short.txt", "--changelog", "out/pre/changelog.jsonl", "--orig", "in/missing.jsonl"],
        ):
            _run_rejected(console, [*restore, *fault])
            _run_rejected(console, ["postprocess", "--out", "out/new/restored.txt", *fault])
        for changelog in ("edited_mt", "no_digest", "old_format", "newline"):
            _run_rejected(console, [*restore, "--outputs", "out/mt.txt", "--changelog", f"out/{changelog}_changelog.jsonl"])
        _run_rejected(console, ["filter", "--in", "in/german_src.jsonl", "--out-dir", "out/filter",
                                "--config", "in/no_holdout.json"])
        shutil.rmtree("out")
        return {"console.txt": "".join(console)}


if __name__ == "__main__":
    golden.main(OUT, write_inputs, run_commands)
