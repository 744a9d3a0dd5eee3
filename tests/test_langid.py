import json
import sys
from pathlib import Path

import pytest

from apekit.langid import NgramLanguageClassifier, _char_ngrams

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
        assert [[gram, n] for gram, n in _char_ngrams(text, 3).items()] == rec["ngrams"], text
        if PLAIN_FLOAT_SUM:
            assert {lang: s.hex() for lang, s in classifier.scores(text).items()} == rec["scores"], text
        assert classifier.classify(text) == rec["label"], text


def test_languages_are_the_sorted_profile_names(classifier):
    assert classifier.languages == ("de", "en")
    assert list(classifier.scores("guten Morgen")) == ["de", "en"]


def test_blank_text_is_rejected(classifier):
    with pytest.raises(ValueError, match="empty text"):
        classifier.classify(" \t ")
