"""Fuzz the line-file rule through the CLI: stats, preprocess, then postprocess of the unedited mt parts.

Generated corpora hold CR, CRLF, U+2028, U+0085, tabs, bytes that are not
UTF-8 and repeated ids. Every corpus the CLI accepts must restore its mt
column byte for byte; every one it rejects must exit 1 or 2 and name the
file and line, or, for the preprocess newline rule, the triplet and field.
"""

import contextlib
import io
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.cli import main

PIECES = ["a", "é", " ", "<i>", "</i>", "- ", "♪", "<br>", "\u2028", "\u0085"]
BREAKS = ["\t", "\r", "\n", "\r\n"]


@st.composite
def corpus_files(draw):
    """(format, file bytes, whether bytes that are not UTF-8 were planted)."""
    format = draw(st.sampled_from(["jsonl", "tsv"]))
    text = st.lists(st.sampled_from(PIECES + BREAKS if draw(st.booleans()) else PIECES), max_size=4).map("".join)
    ids = st.sampled_from([None, None, None, "a", "b", "000001"])
    rows = draw(st.lists(st.tuples(ids, text, text, text), min_size=1, max_size=4))
    lines = []
    for triplet_id, src, mt, pe in rows:
        if format == "jsonl":
            record = {"src": src, "mt": mt, "pe": pe} if triplet_id is None else {
                "id": triplet_id, "src": src, "mt": mt, "pe": pe}
            text = json.dumps(record, ensure_ascii=draw(st.booleans()))
        else:
            text = f"{src}\t{mt}\t{pe}"
        lines.append(text.encode("utf-8") + draw(st.sampled_from([b"\n", b"\r\n"])))
    planted = draw(st.integers(0, 3)) == 0
    if planted:  # each of these leaves at least one byte that cannot decode
        k = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[k]) - 1))
        lines[k] = lines[k][:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3("])) + lines[k][at:]
    return format, b"".join(lines), planted


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def assert_names_a_line(code, err, path, n_lines):
    assert code in (1, 2), err
    match = re.fullmatch(rf"error: {re.escape(str(path))}: line (\d+): .+\n", err)
    assert match, err
    assert 1 <= int(match.group(1)) <= n_lines


def expected_rows(format, data):
    """The (id, mt) of every record, framed on "\\n" with one "\\r\\n" stripped."""
    lines = [line.removesuffix(b"\r").decode("utf-8") for line in data.split(b"\n")[:-1]]
    if format == "tsv":
        return [(f"{n:06d}", line.split("\t")[1]) for n, line in enumerate(lines, 1)]
    records = [(n, json.loads(line)) for n, line in enumerate(lines, 1) if line.strip()]
    return [(record.get("id", f"{n:06d}"), record["mt"]) for n, record in records]


@settings(max_examples=60, deadline=None)
@given(corpus_files())
def test_every_corpus_restores_or_is_rejected_naming_its_line(tmp_path_factory, generated):
    format, data, planted = generated
    work = tmp_path_factory.mktemp("fuzz")
    path = work / f"corpus.{format}"
    path.write_bytes(data)
    n_lines = data.count(b"\n")

    code, err = run(["stats", "--in", str(path), "--format", format, "--out", str(work / "stats.json")])
    if code != 0:
        assert_names_a_line(code, err, path, n_lines)
        return
    assert not planted
    ids, mts = zip(*expected_rows(format, data))
    assert len(set(ids)) == len(ids)

    code, err = run(["preprocess", "--in", str(path), "--format", format, "--out-dir", str(work / "pre")])
    if code != 0:
        assert code == 2
        assert re.fullmatch(r"error: triplet '[^']*': field '(src|mt|pe)' contains a newline or carriage "
                            r"return; line-oriented decoding files cannot represent it\n", err), err
        return
    parts = (work / "pre" / "cleaned.jsonl").read_text(encoding="utf-8").split("\n")[:-1]
    decoded = work / "decoded.txt"
    decoded.write_text("".join(json.loads(part)["mt"] + "\n" for part in parts), encoding="utf-8")
    restored = work / "restored.txt"
    code, err = run(["postprocess", "--outputs", str(decoded), "--changelog", str(work / "pre" / "changelog.jsonl"),
                     "--out", str(restored), "--orig", str(path)])
    assert code == 0, err
    assert restored.read_bytes() == "".join(mt + "\n" for mt in mts).encode("utf-8")
