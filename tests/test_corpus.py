import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.corpus import (
    Corpus,
    CorpusFormatError,
    CorpusStats,
    Triplet,
    corpus_stats,
    read_corpus,
    read_lines,
    write_corpus,
)


def make_corpus(rows):
    return Corpus(tuple(Triplet(id=f"{i:06d}", src=s, mt=m, pe=p) for i, (s, m, p) in enumerate(rows, 1)))


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

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"src":"a","mt":"b","pe":"c"}\n{oops\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 2"):
            read_corpus(path)


class TestWriteCorpus:
    def test_one_triplet_one_line(self, tmp_path):
        corpus = make_corpus([("a", "b", "c")])
        path = tmp_path / "out.jsonl"
        write_corpus(corpus, path)
        assert path.read_text(encoding="utf-8").count("\n") == 1

    def test_tab_in_text_rejected_for_tsv_but_fine_for_jsonl(self, tmp_path):
        corpus = make_corpus([("a\tb", "m", "p")])
        with pytest.raises(ValueError, match="tab"):
            write_corpus(corpus, tmp_path / "out.tsv", format="tsv")
        write_corpus(corpus, tmp_path / "out.jsonl", format="jsonl")
        again = read_corpus(tmp_path / "out.jsonl")
        assert again[0].src == "a\tb"

    def test_meta_round_trips_in_jsonl(self, tmp_path):
        corpus = Corpus((Triplet("x", "a", "b", "c", meta={"origin": "test"}),))
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
    corpus = make_corpus(rows)
    path = tmp_path_factory.mktemp("rt") / "c.tsv"
    write_corpus(corpus, path, format="tsv")
    assert read_corpus(path, format="tsv") == corpus


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
        assert corpus_stats(Corpus()) == CorpusStats()

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
        assert corpus_stats(flipped).to_dict() == {
            **corpus_stats(both).to_dict()
        }


def test_corpus_preserves_order():
    rows = [(f"s{i}", f"m{i}", f"p{i}") for i in range(25)]
    corpus = make_corpus(rows)
    assert [t.src for t in corpus] == [f"s{i}" for i in range(25)]


class TestTsvLineBreaks:
    def test_carriage_return_rejected_for_tsv(self, tmp_path):
        corpus = make_corpus([("a\rb", "m", "p")])
        with pytest.raises(ValueError, match="field 'src' contains a tab, carriage return or newline"):
            write_corpus(corpus, tmp_path / "out.tsv", format="tsv")

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
        write_corpus(make_corpus([("a b", "c", "d"), ("e", "f g", "h")]), lf, format="tsv")
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

    line_text = st.text(alphabet="ab \r\x85\u2028", min_size=1, max_size=6)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(line_text, line_text, line_text), min_size=1, max_size=5))
    def test_every_written_tsv_reads_back(self, tmp_path_factory, rows):
        # Whatever the TSV writer accepts, the reader must return unchanged.
        corpus = make_corpus(rows)
        path = tmp_path_factory.mktemp("rt") / "c.tsv"
        try:
            write_corpus(corpus, path, format="tsv")
        except ValueError:
            assert any("\r" in text for row in rows for text in row)
            return
        assert read_corpus(path, format="tsv") == corpus
