import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit import langid
from apekit.langid import NgramLanguageClassifier, TabFileClassifier, _char_ngrams, ngrams_by_order
from oracles import sliced_ngrams

GOLDEN = Path(__file__).parent / "data" / "langid_golden.jsonl"


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
    for text in ["", " \t\u00a0 ", "\u3000\n"]:
        with pytest.raises(ValueError, match="cannot classify empty text"):
            classifier.classify(text)


def exact_label(classifier, text):
    """The argmax of the exact scores, the first language in sorted order on a tie."""
    scores = classifier.scores(text)
    best = max(scores.values())
    return next(lang for lang in classifier.languages if scores[lang] == best)


def spy_on_scores(monkeypatch, classifier):
    """Record every text whose exact scores `classifier` computes."""
    scored = []
    scores = classifier.scores

    def spy(text):
        scored.append(text)
        return scores(text)

    monkeypatch.setattr(classifier, "scores", spy)
    return scored


# EN/DE letters, characters no profile has seen, both cases, and Unicode spaces.
MIXED_TEXT = st.text(
    alphabet=st.sampled_from([*"etaoinshrdlu", *"ETAOIN", *"äöüßÄÖÜẞ", *"жQ€日x9", *" \t\u00a0\u2003\u3000"]),
    min_size=1,
    max_size=40,
).filter(str.strip)


@settings(max_examples=400, deadline=None)
@given(MIXED_TEXT)
def test_classify_is_the_exact_rule(classifier, text):
    assert classifier.classify(text) == exact_label(classifier, text)


def test_golden_texts_never_reach_the_exact_scores(monkeypatch, classifier):
    # The smallest golden lead is about 1.4e9 times its rounding bound.
    records = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    scored = spy_on_scores(monkeypatch, classifier)
    assert [classifier.classify(rec["text"]) for rec in records] == [rec["label"] for rec in records]
    assert scored == []


@pytest.mark.parametrize("text", ["guten Morgen", "good morning", "жжж", "x"])
def test_identical_profiles_tie_and_fall_back_to_the_first_language(monkeypatch, text):
    profile = _char_ngrams("the same words under both codes")
    twins = NgramLanguageClassifier({"en": profile, "de": Counter(profile)})
    scored = spy_on_scores(monkeypatch, twins)
    assert twins.classify(text) == "de"
    assert scored == [text]


def test_one_language_labels_every_text_with_it():
    single = NgramLanguageClassifier({"en": _char_ngrams("some words")})
    assert single.classify("guten Morgen") == "en"
    with pytest.raises(ValueError, match="cannot classify empty text"):
        single.classify(" ")


@pytest.mark.parametrize("text", ["ab ba", "abab abab abab"])
def test_a_lead_within_the_rounding_bound_falls_back(monkeypatch, text):
    # Profiles one count apart in 2e12: "en" leads by about 1e-11, below
    # the bound of 1e-11 to 6e-11 that these texts' lengths give.
    close = NgramLanguageClassifier({"en": Counter(a=10**12, b=10**12), "de": Counter(a=10**12 + 1, b=10**12)})
    scored = spy_on_scores(monkeypatch, close)
    assert close.classify(text) == "en"
    assert scored == [text]
    assert exact_label(close, text) == "en"


_FRENCH_SEED = """
Le temps était froid ce matin et les rues étaient encore calmes.
Elle a demandé si le train arriverait à l'heure, mais personne ne savait.
Nous aurions dû acheter plus de pain hier parce que le magasin est fermé.
Les enfants jouaient dans le jardin pendant que leur mère lisait un livre.
"""


def three_language_classifier():
    return NgramLanguageClassifier({
        "fr": _char_ngrams(_FRENCH_SEED),
        "en": _char_ngrams(langid._ENGLISH_SEED),
        "de": _char_ngrams(langid._GERMAN_SEED),
    })


@pytest.fixture(scope="module")
def three_languages():
    return three_language_classifier()


def test_three_languages_label_each_language(monkeypatch, three_languages):
    scored = spy_on_scores(monkeypatch, three_languages)
    assert three_languages.languages == ("de", "en", "fr")
    for text, lang in [("Das Wetter war heute kalt", "de"), ("The weather was cold today", "en"),
                       ("Le temps était froid aujourd'hui", "fr")]:
        assert three_languages.classify(text) == lang
    assert scored == []


@settings(max_examples=300, deadline=None)
@given(MIXED_TEXT | st.sampled_from(["le jardin", "der Garten", "the garden"]))
def test_three_languages_classify_is_the_exact_rule(three_languages, text):
    assert three_languages.classify(text) == exact_label(three_languages, text)


# Few words, so that within one classifier a text's words mix cached ones
# with ones seen for the first time; "İ" lowercases to two characters.
VOCABULARY = ["der", "Garten", "the", "garden", "le", "jardin", "ß", "İst", "a", "ab", "x9", "жж", "Straße"]
WORD_TEXTS = st.lists(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=8).map(" ".join)
    | st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=8).map("\t ".join),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("make", [NgramLanguageClassifier.default, three_language_classifier],
                         ids=["classifier", "three_languages"])
@settings(max_examples=150, deadline=None)
@given(WORD_TEXTS)
def test_classify_by_word_is_the_exact_rule_in_any_order(make, texts):
    for ordered in (texts, texts[::-1]):
        fresh = make()
        assert [fresh.classify(text) for text in ordered] == [exact_label(fresh, text) for text in ordered]


def test_a_lowered_cache_cap_keeps_labels_and_is_never_exceeded(monkeypatch):
    # The last text has more distinct words than the lowered cap, none of
    # them cached: it is summed from its own rows and caches none.
    texts = [" ".join(VOCABULARY[i:i + 4]) for i in range(len(VOCABULARY))] * 3 + ["der Garten", "the garden"] * 3
    texts.append(" ".join(VOCABULARY[6:]))
    uncapped = NgramLanguageClassifier.default()
    expected = [uncapped.classify(text) for text in texts]
    monkeypatch.setattr(langid, "WORD_CACHE_ENTRIES", 3)
    capped = NgramLanguageClassifier.default()
    sizes = []
    for text, label in zip(texts, expected):
        before = dict(capped._word_sums)
        assert capped.classify(text) == label == exact_label(capped, text)
        sizes.append(len(capped._word_sums))
    assert max(sizes) == 3 and 0 < sizes[-1]
    assert capped._word_sums == before  # the last text neither emptied nor added to the store
    assert len(uncapped._word_sums) == len({word.lower() for text in texts for word in text.split()})


def test_default_starts_with_an_empty_cache():
    fresh = NgramLanguageClassifier.default()
    assert fresh._word_sums == {}


def test_a_cached_lead_within_the_rounding_bound_falls_back(monkeypatch):
    # As above; the first call sums the repeated word once and caches it,
    # the second reads it from the cache, and both fall back.
    close = NgramLanguageClassifier({"en": Counter(a=10**12, b=10**12), "de": Counter(a=10**12 + 1, b=10**12)})
    scored = spy_on_scores(monkeypatch, close)
    padded = []
    ngrams = langid.ngrams_by_order
    monkeypatch.setattr(langid, "ngrams_by_order", lambda units, max_n: padded.append(units) or ngrams(units, max_n))
    text = "abab abab abab"
    assert [close.classify(text), close.classify(text)] == ["en", "en"]
    whole = " abab abab abab "  # the exact scores' n-grams
    assert padded == [" abab ", whole, whole]
    assert scored == [text, text]
    assert list(close._word_sums) == ["abab"]


def test_tab_file_classifier_names_file_and_line(tmp_path):
    path = tmp_path / "decisions.tsv"
    path.write_text("guten Morgen\tde\n\nno tab here\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        TabFileClassifier.from_file(path)
    assert str(err.value) == f"{path}: line 3: expected 'text<TAB>lang', found 1 columns"
    path.write_text("guten Morgen\tde\n", encoding="utf-8")
    assert TabFileClassifier.from_file(path).classify("guten Morgen") == "de"
