import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.corpus import (
    CorpusFormatError,
    CorpusStats,
    Triplet,
    corpus_stats,
    iter_corpus,
    jsonl_record,
    read_corpus,
    read_csv,
    read_lines,
    staged_outputs,
    write_corpus,
    write_lines,
)
from apekit.segments import CleanTriplet, jsonl_part


def make_corpus(rows):
    return tuple(Triplet(id=f"{i:06d}", src=s, mt=m, pe=p) for i, (s, m, p) in enumerate(rows, 1))


def write_tsv(path, rows):
    """Three-column TSV lines, as another tool would write them; no command writes TSV."""
    write_lines(path, ("\t".join(row) for row in rows))


class TestReadCorpus:
    def test_single_jsonl_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"src":"Hi","mt":"Hallo","pe":"Hallo"}\n', encoding="utf-8")
        corpus = read_corpus(path)
        assert len(corpus) == 1
        assert corpus[0].src == "Hi"
        assert corpus[0].id == "000001"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(read_corpus(path)) == 0

    def test_tsv_two_columns_is_an_error(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\tc\nx\ty\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 2"):
            read_corpus(path, format="tsv")

    def test_missing_field_names_line_and_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"src":"a","mt":"b","pe":"c"}\n{"src":"a","mt":"b"}\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 2.*'pe'"):
            read_corpus(path)

    def test_duplicate_explicit_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = '{"id":"x","src":"a","mt":"b","pe":"c"}\n' * 2
        path.write_text(rows, encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            read_corpus(path)

    @pytest.mark.parametrize("lines, message", [
        (['{"id":"x","src":"a","mt":"b","pe":"c"}', '{"id":"y","src":"a","mt":"b","pe":"c"}', "",
          '{"id":"x","src":"d","mt":"e","pe":"f"}'], "line 4: duplicate triplet id 'x' (first on line 1)"),
        (['{"src":"a","mt":"b","pe":"c"}', '{"id":"000001","src":"a","mt":"b","pe":"c"}'],
         "line 2: duplicate triplet id '000001' (first on line 1)"),
    ])
    def test_duplicate_id_names_both_lines(self, tmp_path, lines, message):
        path = tmp_path / "c.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(CorpusFormatError) as caught:
            read_corpus(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_record_errors_name_the_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"src":"a","mt":"b","pe":"c"}\n\n{oops\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=f"^{path}: line 3: invalid JSON"):
            read_corpus(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"src":"a","mt":"b","pe":"c"}\n{oops\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 2"):
            read_corpus(path)

    def test_a_byte_order_mark_is_rejected_before_json(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('\ufeff{"src":"a","mt":"b","pe":"c"}\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError) as caught:
            read_corpus(path)
        assert str(caught.value) == (f"{path}: line 1: starts with a UTF-8 byte order mark; "
                                     "save the file as UTF-8 without one")

    @pytest.mark.parametrize("record, message", [
        ('{"src":"a","mt":"b","pe":"c","src":"d"}', "repeated key 'src'"),
        ('{"src":"a","mt":"b","pe":"c","meta":{"k":"1","j":"2","k":"3"}}', "repeated key 'k'"),
        ('{"src":"a","mt":"b","ref":"x","pe":"c","extra":1}', "unknown key 'ref', expected only id, src, mt, pe, meta"),
    ])
    def test_a_repeated_or_unknown_key_names_line_and_key(self, tmp_path, record, message):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"x","src":"a","mt":"b","pe":"c","meta":{"k":"1"}}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as caught:
            read_corpus(path)
        assert str(caught.value) == f"{path}: line 2: {message}"


    @pytest.mark.parametrize("record, message", [
        ('{"src":"Hello there my friend \\ud800","mt":"b","pe":"c"}',
         "lone surrogate '\\ud800' in the value of key 'src'; no UTF-8 output can hold it"),
        ('{"src":"a","mt":"b","pe":"c","meta":{"k\\udfff":"1"}}',
         "lone surrogate '\\udfff' in key 'k\\udfff'; no UTF-8 output can hold it"),
        ('{"src":"a","mt":"b","pe":"c","meta":{"k":["x", {"j": "\\udc00\\ud800"}]}}',
         "lone surrogate '\\udc00' in the value of key 'j'; no UTF-8 output can hold it"),
        ('{"src":"a","mt":"b","pe":"c","meta":{"score":NaN}}', "NaN is not JSON (RFC 8259 has no NaN or Infinity)"),
        ('{"src":"a","mt":"b","pe":"c","meta":{"score":-Infinity}}',
         "-Infinity is not JSON (RFC 8259 has no NaN or Infinity)"),
        ('{"src":"a","mt":"b","pe":"c","meta":{"score":1e999}}',
         "number 1e999 is too large for a float, and JSON has no Infinity"),
    ])
    def test_a_value_no_utf8_json_output_can_hold_names_line_and_key(self, tmp_path, record, message):
        path = tmp_path / "c.jsonl"
        path.write_text('{"src":"a","mt":"b","pe":"c"}\n' + record + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as caught:
            read_corpus(path)
        assert str(caught.value) == f"{path}: line 2: {message}"

    def test_escapes_that_spell_a_valid_string_are_read(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"src":"\\ud83d\\ude00","mt":"\\u00e9\\\\ud800","pe":"c","meta":{"s":1.5e308}}\n',
                        encoding="utf-8")
        assert read_corpus(path) == (Triplet("000001", "\U0001f600", "\u00e9\\ud800", "c", {"s": 1.5e308}),)


class TestWriteCorpus:
    def test_one_triplet_one_line(self, tmp_path):
        corpus = make_corpus([("a", "b", "c")])
        path = tmp_path / "out.jsonl"
        write_corpus(corpus, path)
        assert path.read_text(encoding="utf-8").count("\n") == 1

    def test_tab_in_text_round_trips_in_jsonl(self, tmp_path):
        corpus = make_corpus([("a\tb", "m", "p")])
        write_corpus(corpus, tmp_path / "out.jsonl")
        again = read_corpus(tmp_path / "out.jsonl")
        assert again[0].src == "a\tb"

    def test_meta_round_trips_in_jsonl(self, tmp_path):
        corpus = (Triplet("x", "a", "b", "c", meta={"origin": "test"}),)
        path = tmp_path / "out.jsonl"
        write_corpus(corpus, path)
        assert read_corpus(path)[0].meta == {"origin": "test"}


text_strategy = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    min_size=1,
    max_size=30,
)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(text_strategy, text_strategy, text_strategy), min_size=0, max_size=40))
def test_jsonl_round_trip_property(tmp_path_factory, rows):
    corpus = make_corpus(rows)
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    write_corpus(corpus, path)
    assert read_corpus(path) == corpus


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(text_strategy, text_strategy, text_strategy), min_size=0, max_size=40))
def test_tsv_round_trip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rt") / "c.tsv"
    write_tsv(path, rows)
    assert read_corpus(path, format="tsv") == make_corpus(rows)


# All of Unicode, lone surrogates included, and each character json's string
# encoder treats apart: quote, backslash, control characters, U+007F, the
# line and paragraph separators, and characters outside the BMP.
json_text = st.text(st.one_of(
    st.characters(blacklist_categories=()),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\ud800", "\udfff", "\U0001f600"]),
), max_size=12)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | json_text,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(json_text, children, max_size=3),
    max_leaves=8,
)


class TestJsonlLines:
    """Each JSONL line a command writes is the string json.dumps(..., ensure_ascii=False) gives."""

    @settings(max_examples=300, deadline=None)
    @given(json_text, json_text, json_text, json_text, st.none() | st.dictionaries(json_text, json_values, max_size=4))
    def test_a_corpus_record_is_json_dumps(self, triplet_id, src, mt, pe, meta):
        record = {"id": triplet_id, "src": src, "mt": mt, "pe": pe}
        if meta:
            record["meta"] = meta
        assert jsonl_record(Triplet(triplet_id, src, mt, pe, meta)) == json.dumps(record, ensure_ascii=False)

    @settings(max_examples=300, deadline=None)
    @given(json_text, st.integers(0, 2**70), json_text, json_text, json_text)
    def test_a_cleaned_part_is_json_dumps(self, parent_id, part_index, src, mt, pe):
        part = CleanTriplet(parent_id, part_index, src, mt, pe)
        assert jsonl_part(part) == json.dumps(vars(part), ensure_ascii=False)


def test_round_trip_thousand_random_triplets(tmp_path):
    import random

    rng = random.Random(7)
    words = ["Hallo", "Welt", "füchse", "springen", "über", "den", "Zaun", "schnell"]
    rows = [
        (
            " ".join(rng.choices(words, k=rng.randint(1, 8))),
            " ".join(rng.choices(words, k=rng.randint(1, 8))),
            " ".join(rng.choices(words, k=rng.randint(1, 8))),
        )
        for _ in range(1000)
    ]
    corpus = make_corpus(rows)
    path = tmp_path / "big.jsonl"
    write_corpus(corpus, path)
    assert read_corpus(path) == corpus


class TestCorpusStats:
    def test_empty_corpus_all_zero(self):
        assert corpus_stats(()) == CorpusStats()

    def test_double_space_counts(self):
        corpus = make_corpus([("a b  c", "x", "y")])
        stats = corpus_stats(corpus)
        assert stats.tokens_src == 3
        assert stats.chars_src == 6

    def test_trimming(self):
        corpus = make_corpus([("  hi there  ", "x", "y")])
        stats = corpus_stats(corpus)
        assert stats.tokens_src == 2
        assert stats.chars_src == len("hi there")

    def test_additive_and_order_invariant(self):
        rows_a = [("one two", "eins zwei", "eins zwei"), ("three", "drei", "drei!")]
        rows_b = [("four five six", "vier", "vier fünf")]
        a, b = make_corpus(rows_a), make_corpus(rows_b)
        both = make_corpus(rows_a + rows_b)
        flipped = make_corpus(rows_b + rows_a)
        combined = corpus_stats(a) + corpus_stats(b)
        assert corpus_stats(both) == combined
        assert vars(corpus_stats(flipped)) == {
            **vars(corpus_stats(both))
        }


def test_corpus_preserves_order():
    rows = [(f"s{i}", f"m{i}", f"p{i}") for i in range(25)]
    corpus = make_corpus(rows)
    assert [t.src for t in corpus] == [f"s{i}" for i in range(25)]


class TestTsvLineBreaks:
    @pytest.mark.parametrize("format, content", [
        ("tsv", b"a b\tc d\te f\rg h\ti j\tk l\n"),
        ("jsonl", b'{"src": "a", "mt": "b", "pe": "c"}\r{"src": "d", "mt": "e", "pe": "f"}\n'),
    ])
    def test_bare_carriage_return_is_rejected_not_a_line_break(self, tmp_path, format, content):
        path = tmp_path / f"c.{format}"
        path.write_bytes(content)
        with pytest.raises(CorpusFormatError, match="line 1: carriage return inside a line"):
            read_corpus(path, format=format)

    def test_crlf_line_endings_read_like_lf(self, tmp_path):
        lf = tmp_path / "lf.tsv"
        write_tsv(lf, [("a b", "c", "d"), ("e", "f g", "h")])
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert read_corpus(crlf, format="tsv") == read_corpus(lf, format="tsv")

    def test_read_lines_frames_lf_and_crlf_only(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes("a\r\nb\u2028c\x85d\n\ne".encode("utf-8"))
        assert list(read_lines(path)) == ["a", "b\u2028c\x85d", "", "e"]
        path.write_bytes(b"a\nb\r")
        with pytest.raises(CorpusFormatError, match="line 2: carriage return inside a line"):
            list(read_lines(path))

    def test_bytes_that_are_not_utf8_name_the_file_line_and_byte(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes("a\nMüde \xff\n".encode("utf-8").replace(b"\xc3\xbf", b"\xff"))
        with pytest.raises(CorpusFormatError, match=f"^{path}: line 2: byte 7 is not UTF-8 \\(invalid start byte\\)$"):
            list(read_lines(path))
        path.write_bytes(b"ok\r\ncut \xc3\r\n")
        with pytest.raises(CorpusFormatError, match="line 2: byte 5 is not UTF-8"):
            list(read_lines(path))

    def test_missing_file_is_named(self, tmp_path):
        with pytest.raises(ValueError, match="input file not found: .*nope.txt"):
            list(read_lines(tmp_path / "nope.txt"))

    def test_write_lines_creates_the_directory_and_ends_every_line(self, tmp_path):
        path = tmp_path / "new" / "dir" / "lines.txt"
        write_lines(path, ["a", "b\u2028c", ""])
        assert path.read_bytes() == "a\nb\u2028c\n\n".encode("utf-8")
        assert list(read_lines(path)) == ["a", "b\u2028c", ""]

    def test_write_lines_consumes_its_lines_lazily(self, tmp_path):
        def lines():
            yield "a"
            yield "b"
            raise RuntimeError("stop")

        path = tmp_path / "lines.txt"
        with pytest.raises(RuntimeError):
            write_lines(path, lines())
        assert path.read_text(encoding="utf-8") == "a\nb\n"

    line_text = st.text(alphabet="ab \r\x85\u2028", min_size=1, max_size=6)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(line_text, line_text, line_text), min_size=1, max_size=5))
    def test_every_written_tsv_reads_back(self, tmp_path_factory, rows):
        # A carriage return that does not end a line is refused; every other
        # text reads back unchanged, U+0085 and U+2028 too.
        path = tmp_path_factory.mktemp("rt") / "c.tsv"
        write_tsv(path, rows)
        framed = path.read_bytes().decode("utf-8").replace("\r\n", "\n")
        if "\r" in framed:
            with pytest.raises(CorpusFormatError, match="carriage return inside a line"):
                read_corpus(path, format="tsv")
        else:
            assert read_corpus(path, format="tsv") == make_corpus(line.split("\t") for line in framed.split("\n")[:-1])


class TestIterCorpus:
    def test_yields_each_triplet_before_reading_on(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "src": "s", "mt": "m", "pe": "p"}\n{not json\n', encoding="utf-8")
        triplets = iter_corpus(path)
        assert next(triplets).id == "a"
        with pytest.raises(CorpusFormatError, match="line 2: invalid JSON"):
            next(triplets)

    def test_a_repeated_id_is_raised_after_the_last_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [{"id": i, "src": "s", "mt": "m", "pe": "p"} for i in ("a", "b", "a", "c", "b")]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        triplets = iter_corpus(path)
        assert [next(triplets).id for _ in rows] == ["a", "b", "a", "c", "b"]
        with pytest.raises(CorpusFormatError, match=r"line 3: duplicate triplet id 'a' \(first on line 1\)"):
            next(triplets)

    def test_stats_of_a_stream_equal_stats_of_the_corpus(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(make_corpus([("one two", "eins", "eins zwei"), (" x ", "y", "z z z")]), path)
        assert corpus_stats(iter_corpus(path)) == corpus_stats(read_corpus(path))


class TestReadCsv:
    def test_rows_carry_their_last_physical_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b'a,b\r\n"c\r\nd",e\n\nf,"g"\n')
        assert list(read_csv(path)) == [(1, ["a", "b"]), (3, ["c\nd", "e"]), (4, []), (5, ["f", "g"])]

    def test_a_byte_that_is_not_utf8_names_its_physical_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b'a,"b\nc\xff",d\n')
        with pytest.raises(CorpusFormatError, match=r"t.csv: line 2: byte 2 is not UTF-8"):
            list(read_csv(path))

    def test_a_csv_error_names_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n" + "x" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"t.csv: line 2: field larger than field limit"):
            list(read_csv(path))


class TestStagedOutputs:
    def test_outputs_appear_only_when_the_block_ends(self, tmp_path):
        target = tmp_path / "new" / "dir" / "out.txt"
        with staged_outputs() as stage:
            temp = stage(target)
            write_lines(temp, ["x"])
            assert temp.name == "out.txt.tmp" and not target.exists()
        assert target.read_text(encoding="utf-8") == "x\n"
        assert sorted(p.name for p in target.parent.iterdir()) == ["out.txt"]

    def test_a_failed_block_leaves_old_files_and_makes_no_directory(self, tmp_path):
        old = tmp_path / "old.txt"
        old.write_text("old\n", encoding="utf-8")
        with pytest.raises(ValueError, match="boom"):
            with staged_outputs() as stage:
                for path in (old, tmp_path / "new" / "dir" / "out.txt"):
                    write_lines(stage(path), ["half"])
                raise ValueError("boom")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
        assert old.read_text(encoding="utf-8") == "old\n"

    def test_a_directory_staged_after_a_written_file_leaves_nothing_new(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(ValueError, match="output path is a directory: .*taken$"):
            with staged_outputs() as stage:
                write_lines(stage(tmp_path / "new" / "dir" / "out.txt"), ["x"])
                stage(tmp_path / "taken")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["taken"]

    def test_a_path_staged_twice_is_rejected_however_it_is_spelled(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=r"^output path is given twice: sub/\.\./out\.txt$"):
            with staged_outputs() as stage:
                write_lines(stage(tmp_path / "out.txt"), ["x"])
                stage("sub/../out.txt")
        assert list(tmp_path.iterdir()) == []

    def test_an_input_is_rejected_as_an_output_through_a_link_or_a_new_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        source = tmp_path / "in.txt"
        write_lines(source, ["x"])
        (tmp_path / "link.txt").symlink_to(source)
        for output in ("link.txt", "new/../in.txt"):
            with pytest.raises(ValueError, match=rf"^output path is also an input: {output}$"):
                with staged_outputs(["in.txt"]) as stage:
                    write_lines(stage("out.txt"), ["y"])
                    stage(output)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "link.txt"]
            assert source.read_text(encoding="utf-8") == "x\n"
