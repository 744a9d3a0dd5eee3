import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.langid import NgramLanguageClassifier, TabFileClassifier, _char_ngrams, ngrams_by_order
from oracles import sliced_ngrams

GOLDEN = Path(__file__).parent / "data" / "langid_golden.jsonl"
# The golden scores were summed with plain double additions; from 3.12 the
# builtin sum compensates float rounding, which can move the last bits.
PLAIN_FLOAT_SUM = sys.version_info < (3, 12)


@pytest.fixture(scope="module")
def classifier():
    return NgramLanguageClassifier.default()


def test_golden_ngrams_scores_and_labels(classifier):
    # Pinned by tests/data/make_langid_golden.py; any change in n-gram
    # counts or their order, in a score's bits or in a label shows up here.
    records = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 223
    for rec in records:
        text = rec["text"]
        assert [[gram, n] for gram, n in _char_ngrams(text).items()] == rec["ngrams"], text
        if PLAIN_FLOAT_SUM:
            assert {lang: s.hex() for lang, s in classifier.scores(text).items()} == rec["scores"], text
        assert classifier.classify(text) == rec["label"], text


ORDERS = st.integers(0, 8)
CHAR_TEXT = st.text(alphabet="ab é", max_size=12)
TOKEN_LISTS = st.lists(st.sampled_from(["a", "b", "cd", ""]), max_size=12)


@settings(max_examples=300, deadline=None)
@given(CHAR_TEXT, ORDERS)
def test_ngrams_by_order_matches_slicing_on_strings(text, max_n):
    assert [list(grams) for grams in ngrams_by_order(text, max_n)] == sliced_ngrams(text, max_n)


@settings(max_examples=300, deadline=None)
@given(TOKEN_LISTS, ORDERS)
def test_ngrams_by_order_matches_slicing_on_token_tuples(tokens, max_n):
    units = [(t,) for t in tokens]
    assert [list(grams) for grams in ngrams_by_order(units, max_n)] == sliced_ngrams(tuple(tokens), max_n)


def test_ngrams_by_order_below_order_one_is_empty():
    assert ngrams_by_order("abc", 0) == ngrams_by_order("abc", -1) == []


def test_languages_are_the_sorted_profile_names(classifier):
    assert classifier.languages == ("de", "en")
    assert list(classifier.scores("guten Morgen")) == ["de", "en"]


def test_blank_text_is_rejected(classifier):
    with pytest.raises(ValueError, match="empty text"):
        classifier.classify(" \t ")


def test_tab_file_classifier_names_file_and_line(tmp_path):
    path = tmp_path / "decisions.tsv"
    path.write_text("guten Morgen\tde\n\nno tab here\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        TabFileClassifier.from_file(path)
    assert str(err.value) == f"{path}: line 3: expected 'text<TAB>lang', found 1 columns"
    path.write_text("guten Morgen\tde\n", encoding="utf-8")
    assert TabFileClassifier.from_file(path).classify("guten Morgen") == "de"
