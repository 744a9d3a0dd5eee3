import hashlib
import io
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.corpus import TEXT_FIELDS, CorpusFormatError, Triplet, iter_corpus, read_lines, write_corpus
from apekit.segments import (
    LEADING_HYPHEN_RE,
    MUSIC_CHARS,
    TAG_RE,
    ChangeRecord,
    PartCountError,
    _change_log,
    _split_and_strip,
    postprocess_all,
    postprocess_with_report,
    preprocess,
    preprocess_all,
    read_changelog,
    strip_markup,
    write_changelog,
)

from oracles import contains_artifacts


def triplet(src, mt, pe, id="t1"):
    return Triplet(id=id, src=src, mt=mt, pe=pe)


def logged(triplets):
    """Each triplet with its preprocess log, as ``preprocess_all`` yields them."""
    return [(t, preprocess(t)[1]) for t in triplets]


class TestPreprocessSplit:
    def test_matched_br_counts_split(self):
        parts, _ = preprocess(triplet("A<br>B", "C<br>D", "E<br>F"))
        assert [(p.src, p.mt, p.pe) for p in parts] == [("A", "C", "E"), ("B", "D", "F")]
        assert [p.part_index for p in parts] == [0, 1]
        assert [p.id for p in parts] == ["t1#p0", "t1#p1"]

    def test_mismatched_counts_fall_back_to_space(self):
        parts, log = preprocess(triplet("A<br>B", "CD", "EF"))
        assert [(p.src, p.mt, p.pe) for p in parts] == [("A B", "CD", "EF")]
        assert [p.id for p in parts] == ["t1#p0"]
        assert log.cleaned == {"src": ("A B",), "mt": ("CD",), "pe": ("EF",)}

    def test_br_variants_recognized(self):
        parts, _ = preprocess(triplet("A<BR>B", "C<br/>D", "E<br />F"))
        assert [(p.src, p.mt, p.pe) for p in parts] == [("A", "C", "E"), ("B", "D", "F")]

    def test_non_markup_content_preserved_across_parts(self):
        parts, _ = preprocess(triplet("Hello<br>world", "Hallo<br>Welt", "Hallo<br>Welt!"))
        assert "".join(p.src for p in parts) == "Helloworld"


class TestStripMarkup:
    def test_italics_and_note(self):
        clean, records = strip_markup("<i>Hello</i> ♪")
        assert clean == "Hello"
        assert len(records) == 3

    def test_leading_hyphen(self):
        clean, records = strip_markup("- Hi")
        assert clean == "Hi"
        assert len(records) == 1
        assert records[0].kind == "removed_leading_hyphen"

    def test_identity(self):
        clean, records = strip_markup("Hello")
        assert clean == "Hello" and records == []

    def test_unclosed_angle_bracket_stays(self):
        clean, records = strip_markup("a < b and 1 <3")
        assert clean == "a < b and 1 <3" and records == []

    def test_leading_hyphen_run_removed_as_one_record(self):
        for text, payload in (("- - Hi", "- - "), ("-- Hallo", "-- "), ("--Ja", "--"), ("- Hi - du", "- ")):
            clean, records = strip_markup(text)
            assert clean == text[len(payload):]
            assert [(r.kind, r.payload) for r in records] == [("removed_leading_hyphen", payload)]

    def test_hyphen_run_after_removed_leading_markup_is_removed_too(self):
        # A removed tag or music symbol keeps nothing, so a hyphen run after
        # it is still leading, even after an earlier run was removed.
        for text, want in (("- <i>- Hallo</i>", "Hallo"), ("- ♪ - Hallo", "Hallo"), ("-- <i>-Ja</i>", "Ja")):
            clean, _ = strip_markup(text)
            assert clean == want and not contains_artifacts(clean), text
            t = triplet(text, text, text)
            parts, log = preprocess(t)
            assert [p.mt for p in parts] == [want]
            assert postprocess_with_report([want], log, "mt")[0] == text

    def test_interior_note_leaves_single_space(self):
        clean, records = strip_markup("La ♪ Da")
        assert clean == "La Da"
        assert len(records) == 1

    def test_all_music_variants(self):
        for ch in "♪♫♩♬":
            clean, records = strip_markup(f"{ch} text")
            assert clean == "text"
            assert records[0].kind == "removed_music"


def reference_strip_markup(text):
    """The original character-at-a-time ``strip_markup``, kept as the reference."""
    clean = []
    records = []
    i = 0
    n = len(text)

    def remove(kind, payload, end_i):
        offset = len(clean)
        if clean and clean[-1] == " " and (end_i == n or text[end_i] == " "):
            clean.pop()
            offset -= 1
            payload = " " + payload
        elif (not clean or clean[-1] == " ") and end_i < n and text[end_i] == " ":
            payload = payload + " "
            end_i += 1
        records.append(ChangeRecord(kind=kind, offset=offset, payload=payload))
        return end_i

    while i < n:
        ch = text[i]
        if not clean and ch == "-":
            payload = LEADING_HYPHEN_RE.match(text, i).group()
            records.append(ChangeRecord(kind="removed_leading_hyphen", offset=0, payload=payload))
            i += len(payload)
            continue
        match = TAG_RE.match(text, i)
        if match:
            i = remove("removed_tag", match.group(), match.end())
            continue
        if ch in MUSIC_CHARS:
            i = remove("removed_music", ch, i + 1)
            continue
        clean.append(ch)
        i += 1

    clean_text = "".join(clean)
    final_len = len(clean_text)
    records = [
        replace(r, anchor="start" if r.offset == 0 else ("end" if r.offset == final_len else "interior"))
        for r in records
    ]
    return clean_text, records


# "]", "^" and "\\" would be markup if the symbol class were built unescaped.
MARKUP_PIECES = ["<i>", "</i>", "<br>", "<b x>", "<", ">", "-", "- ", " ", "  ", *MUSIC_CHARS, "]", "^", "\\",
                 "a", "b", "Z"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(MARKUP_PIECES), max_size=16).map("".join))
def test_strip_markup_matches_reference_loop(text):
    assert strip_markup(text) == reference_strip_markup(text)


class TestPreprocess:
    def test_plain_triplet_untouched(self):
        t = triplet("Hello there", "Hallo du", "Hallo ihr")
        parts, log = preprocess(t)
        assert len(parts) == 1
        assert (parts[0].src, parts[0].mt, parts[0].pe) == (t.src, t.mt, t.pe)
        assert log.records == ()

    def test_full_subtitle_artifacts(self):
        t = triplet(
            "♪ <i>La</i><br>- Da ♪",
            "♪ <i>Lo</i><br>- Du ♪",
            "♪ <i>Le</i><br>- De ♪",
        )
        parts, log = preprocess(t)
        assert [(p.src, p.mt, p.pe) for p in parts] == [("La", "Lo", "Le"), ("Da", "Du", "De")]
        for p in parts:
            for text in (p.src, p.mt, p.pe):
                assert not contains_artifacts(text)

    def test_preprocess_all_raises_a_repeated_id_before_a_later_line_break_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [{"id": "a", "src": "x", "mt": "y", "pe": "z"},
                {"id": "a", "src": "x", "mt": "y", "pe": "z"},
                {"id": "b", "src": "x", "mt": "y\rz", "pe": "w"}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            list(preprocess_all(iter_corpus(path), io.StringIO()))
        assert str(err.value) == f"{path}: line 2: duplicate triplet id 'a' (first on line 1)"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows[1:]), encoding="utf-8")
        cleaned = io.StringIO()
        with pytest.raises(ValueError) as err:
            list(preprocess_all(iter_corpus(path), cleaned))
        assert str(err.value) == ("triplet 'b': field 'mt' contains a newline or carriage return; "
                                  "line-oriented decoding files cannot represent it")
        assert cleaned.getvalue() == '{"parent_id": "a", "part_index": 0, "src": "x", "mt": "y", "pe": "z"}\n'


class TestPostprocess:
    def test_unmodified_outputs_restore_exactly(self):
        t = triplet(
            "♪ <i>La</i><br>- Da ♪",
            "♪ <i>Lo</i><br>- Du ♪",
            "♪ <i>Le</i><br>- De ♪",
        )
        parts, log = preprocess(t)
        assert postprocess_with_report([p.mt for p in parts], log, "mt")[0] == t.mt
        assert postprocess_with_report([p.src for p in parts], log, "src")[0] == t.src
        assert postprocess_with_report([p.pe for p in parts], log, "pe")[0] == t.pe

    def test_empty_log_passthrough(self):
        t = triplet("plain", "plain", "plain")
        parts, log = preprocess(t)
        assert postprocess_with_report(["anything"], log, "mt")[0] == "anything"

    def test_part_count_mismatch_reports_expected_and_actual(self):
        t = triplet("A<br>B", "C<br>D", "E<br>F")
        _, log = preprocess(t)
        with pytest.raises(PartCountError, match="expected 2.*got 1"):
            postprocess_with_report(["only one"], log, "mt")

    def test_edited_output_keeps_boundary_anchors(self):
        t = triplet("- <i>Go now</i>", "- <i>Geh jetzt</i>", "- <i>Geh jetzt!</i>")
        _, log = preprocess(t)
        assert postprocess_with_report(["Lauf sofort"], log, "mt")[0] == "- <i>Lauf sofort</i>"

    def test_edited_output_drops_interior_records(self):
        t = triplet("a <i>b</i> c", "a <i>b</i> c", "a <i>b</i> c")
        parts, log = preprocess(t)
        assert parts[0].mt == "a b c"
        text, dropped = postprocess_with_report(["x y z"], log, "mt")
        assert text == "x y z"
        assert dropped == 2

    def test_postprocess_all_checks_the_total_part_count_once(self, tmp_path):
        triplets = [triplet("A<br>B", "C<br>D", "E<br>F", id="a"), triplet("a <i>b</i> c", "H", "I", id="b")]
        header = write_changelog(tmp_path / "c.jsonl", logged(triplets), "ab12")
        assert list(postprocess_all(["C", "D", "H"], triplets, header, "mt")) == [("C<br>D", 0), ("H", 0)]
        assert list(postprocess_all(["A", "B", "x y z"], triplets, header, "src")) == [("A<br>B", 0), ("x y z", 2)]
        with pytest.raises(PartCountError, match="changelog expects 3 mt part.*decoded file has 2 line"):
            list(postprocess_all(["C", "D"], triplets, header, "mt"))
        with pytest.raises(PartCountError, match="changelog expects 3 mt part.*decoded file has 4 line"):
            list(postprocess_all(["C", "D", "H", "J"], triplets, header, "mt"))

    def test_postprocess_all_raises_a_read_fault_after_the_last_log(self, tmp_path):
        decoded = tmp_path / "decoded.txt"
        decoded.write_bytes(b"C\nD\n\r")  # both expected lines, then a third holding a bare \r
        triplets = [triplet("A<br>B", "C<br>D", "E<br>F")]
        header = write_changelog(tmp_path / "c.jsonl", logged(triplets), "ab12")
        restored = []
        with pytest.raises(CorpusFormatError, match=r"decoded\.txt: line 3: carriage return inside a line"):
            restored.extend(postprocess_all(read_lines(decoded), triplets, header, "mt"))
        assert restored == [("C<br>D", 0)]

    def test_postprocess_all_checks_the_header_before_the_outputs(self, tmp_path):
        triplets = [triplet("A<br>B", "C<br>D", "E<br>F")]
        header = write_changelog(tmp_path / "c.jsonl", logged(triplets), "ab12")
        other = write_changelog(tmp_path / "d.jsonl", logged([triplet("A<br>B", "<i>C</i><br>D", "E<br>F")]), "ab12")
        assert header["clean_sha256"]["mt"] == other["clean_sha256"]["mt"]  # the digest is of the cleaned parts
        assert header["clean_sha256"]["src"] == other["clean_sha256"]["src"]
        edited = [triplet("A<br>B", "C<br>X", "E<br>F")]
        with pytest.raises(ValueError, match=r"clean_sha256\['mt'\]\) = \(1, 2, '[0-9a-f]{64}'\), but its triplets "
                                             r"re-derive \(1, 2, '[0-9a-f]{64}'\); was the changelog edited"):
            list(postprocess_all(["C"], edited, header, "mt"))
        # src is not restored, so only its part count, which the split shares, is re-derived
        assert list(postprocess_all(["A", "B"], edited, header, "src")) == [("A<br>B", 0)]
        with pytest.raises(ValueError, match=r"= None, but its triplets re-derive \(1, 2, "):
            list(postprocess_all(["C", "D"], triplets, {"type": "header", "n_triplets": 1}, "mt"))

    def test_br_fallback_round_trip(self):
        t = triplet("A<br>B<br/>C", "no breaks", "none either")
        parts, log = preprocess(t)
        assert parts[0].src == "A B C"
        assert postprocess_with_report([parts[0].src], log, "src")[0] == "A<br>B<br/>C"


TAGS = ["<i>", "</i>", "<b>", "</b>", "<font color=\"red\">", "</font>"]
WORDS = ["la", "da", "oh", "Hallo", "Welt", "singt", "immer", "nacht"]


def random_subtitle_text(rng):
    pieces = []
    if rng.random() < 0.4:
        pieces.append("- " if rng.random() < 0.7 else "-")
    if rng.random() < 0.4:
        pieces.append("♪ ")
    open_tag = rng.random() < 0.5
    if open_tag:
        pieces.append(rng.choice(["<i>", "<b>"]))
    pieces.append(" ".join(rng.choices(WORDS, k=rng.randint(1, 5))))
    if open_tag and rng.random() < 0.8:
        pieces.append(rng.choice(["</i>", "</b>"]))
    if rng.random() < 0.4:
        pieces.append(" ♪")
    return "".join(pieces)


def random_subtitle_field(rng, n_br):
    parts = [random_subtitle_text(rng) for _ in range(n_br + 1)]
    separators = [rng.choice(["<br>", "<br/>", "<br />", "<BR>"]) for _ in range(n_br)]
    out = parts[0]
    for sep, part in zip(separators, parts[1:]):
        out += sep + part
    return out


def test_round_trip_on_generated_subtitles():
    rng = random.Random(123)
    for case in range(1000):
        n_br = rng.randint(0, 2)
        t = Triplet(
            id=str(case),
            src=random_subtitle_field(rng, n_br),
            mt=random_subtitle_field(rng, n_br),
            pe=random_subtitle_field(rng, n_br),
        )
        parts, log = preprocess(t)
        restored, _ = postprocess_with_report([p.mt for p in parts], log, "mt")
        assert restored == t.mt, f"case {case}: {t.mt!r} -> {restored!r}"


@settings(max_examples=150, deadline=None)
@given(
    st.text(
        alphabet=st.sampled_from(list("ab -<>/i♪♫")),
        max_size=24,
    ),
    st.text(alphabet=st.sampled_from(list("xy <i>/♪")), max_size=16),
)
def test_round_trip_property_on_adversarial_text(noise_mt, noise_src):
    t = Triplet(id="h", src=noise_src, mt=noise_mt, pe=noise_src)
    parts, log = preprocess(t)
    assert postprocess_with_report([p.mt for p in parts], log, "mt")[0] == t.mt
    assert postprocess_with_report([p.src for p in parts], log, "src")[0] == t.src


# Pieces that meet each condition of _change_log's early exit, and plain text that meets none.
EXIT_PIECES = ["<br>", "<BR/>", "<i>", "</i>", "<", "♪", "♫", "-", "--", "- ", " ", "a", "Hallo", "a-b", "x>"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(st.sampled_from(EXIT_PIECES), max_size=4).map("".join), min_size=3, max_size=3))
def test_the_early_exit_gives_the_full_path_log(texts):
    t = Triplet("t", *texts)
    for fields in (TEXT_FIELDS, *((f,) for f in TEXT_FIELDS)):
        assert _change_log(t, fields) == _split_and_strip(t, fields)


def test_cleaned_fields_always_pure():
    rng = random.Random(77)
    for _ in range(300):
        n_br = rng.randint(0, 2)
        t = Triplet(
            id="p",
            src=random_subtitle_field(rng, n_br),
            mt=random_subtitle_field(rng, n_br),
            pe=random_subtitle_field(rng, n_br),
        )
        parts, _ = preprocess(t)
        for p in parts:
            for text in (p.src, p.mt, p.pe):
                assert not contains_artifacts(text), (t, p)


def test_cleaned_golden_fields_carry_no_artifacts():
    golden = Path(__file__).parent / "data" / "segments_golden.jsonl"
    fields = [field for line in golden.read_text(encoding="utf-8").splitlines()
              for part in json.loads(line)["parts"] for field in part[1:]]
    assert len(fields) > 600
    assert [field for field in fields if contains_artifacts(field)] == []


def test_postprocess_all_re_derives_what_preprocess_logged(tmp_path):
    """Restoring from the triplets alone gives what the full preprocess log gives, edited or not."""
    rng = random.Random(5)
    triplets = [Triplet(id=str(k), **{f: random_subtitle_field(rng, rng.randint(0, 2)) for f in TEXT_FIELDS})
                for k in range(300)]
    pairs = logged(triplets)
    header = write_changelog(tmp_path / "c.jsonl", pairs, "ab12")
    for field in TEXT_FIELDS:
        for edit in (lambda part: part, lambda part: part + " ja" if rng.random() < 0.5 else part):
            outputs = [[edit(part) for part in log.cleaned[field]] for _, log in pairs]
            want = [postprocess_with_report(parts, log, field) for parts, (_, log) in zip(outputs, pairs)]
            flat = [part for parts in outputs for part in parts]
            assert list(postprocess_all(flat, triplets, header, field)) == want


class TestChangelogFile:
    def triplets(self):
        rows = [("♪ <i>La</i><br>- Hey", "<i>Lo</i><br>- Ho", "Le<br>He"), ("- a", "b", "c"), ("d", "e", "f")]
        return [triplet(*row, id=f"t{k}") for k, row in enumerate(rows)]

    def test_round_trip(self, tmp_path):
        written = write_changelog(tmp_path / "c.jsonl", iter(logged(self.triplets())), "ab12")
        header, read = read_changelog(tmp_path / "c.jsonl")
        parts = [part for t in self.triplets() for part in preprocess(t)[0]]
        digests = {f: hashlib.sha256("".join(getattr(p, f) + "\n" for p in parts).encode("utf-8")).hexdigest()
                   for f in TEXT_FIELDS}
        assert header == written == {"type": "header", "toolkit_version": "0.1.0", "input_sha256": "ab12",
                                     "n_triplets": 3, "n_parts": {"src": 4, "mt": 4, "pe": 4}, "clean_sha256": digests}
        assert list(read) == self.triplets()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]
        write_corpus(tuple(self.triplets()), tmp_path / "corpus.jsonl")
        body = (tmp_path / "c.jsonl").read_bytes().split(b"\n", 1)[1]
        assert body == (tmp_path / "corpus.jsonl").read_bytes()

    def test_logs_are_written_and_read_one_at_a_time(self, tmp_path):
        path = tmp_path / "c.jsonl"

        def pairs():
            yield from logged(self.triplets()[:2])
            raise ValueError("stop")

        with pytest.raises(ValueError, match="stop"):
            write_changelog(path, pairs(), "ab12")
        assert not (tmp_path / "c.jsonl.logs").exists()
        write_changelog(path, logged(self.triplets()), "ab12")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([*lines[:3], "{not json"]) + "\n", encoding="utf-8")
        header, read = read_changelog(path)
        assert header["n_triplets"] == 3
        assert [next(read), next(read)] == self.triplets()[:2]
        with pytest.raises(ValueError, match="line 4: malformed changelog"):
            next(read)

    def test_blank_log_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_changelog(path, logged(self.triplets()), "ab12")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0], "", *lines[1:], "  "]) + "\n", encoding="utf-8")
        assert list(read_changelog(path)[1]) == self.triplets()
