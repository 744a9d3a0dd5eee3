import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.tokenizer import TokenizerConfig, overlap_stats, tokenize
from oracles import sliced_ngrams


def test_whitespace_scheme():
    assert tokenize("the  cat\tsat") == ["the", "cat", "sat"]


def test_punct_split():
    config = TokenizerConfig(scheme="punct_split")
    assert tokenize("Hello, world", config) == ["Hello", ",", "world"]


def test_empty_text():
    assert tokenize("") == []


def test_lowercase_applied_last():
    config = TokenizerConfig(scheme="punct_split", lowercase=True)
    assert tokenize("Hello, World", config) == ["hello", ",", "world"]


def test_consecutive_punctuation_splits_each_char():
    config = TokenizerConfig(scheme="punct_split")
    assert tokenize("wait...", config) == ["wait", ".", ".", "."]


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        TokenizerConfig(scheme="bpe")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from(list("abcXYZ,.!")), min_size=1, max_size=6), max_size=10))
def test_join_then_retokenize_is_identity(tokens):
    # On already-separated text, joining and re-tokenizing changes nothing.
    config = TokenizerConfig(scheme="punct_split")
    separated = [t for token in tokens for t in tokenize(token, config)]
    assert tokenize(" ".join(separated), config) == separated


def reference_punct_split(text):
    """The original per-word loop of the punct_split scheme, kept as the reference."""
    tokens = []
    for word in text.split():
        current = []
        for ch in word:
            if not ch.isalnum() and not ch.isspace():
                if current:
                    tokens.append("".join(current))
                    current = []
                tokens.append(ch)
            else:
                current.append(ch)
        if current:
            tokens.append("".join(current))
    return tokens


PUNCT_SPLIT = TokenizerConfig(scheme="punct_split")
TRICKY = list("aZ09_-.,!¿«»„“ \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u2029\u2003\u3000\u200bßİǅ²½٣ⅻ〇\U0001f600")


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=st.sampled_from(TRICKY))))
def test_punct_split_matches_reference_loop(text):
    assert tokenize(text, PUNCT_SPLIT) == reference_punct_split(text)


def test_punct_split_matches_reference_loop_on_every_code_point():
    # Between two letters, a code point joins them, splits off, or separates
    # them: the three classes the scheme tells apart.
    text = " ".join(f"a{chr(code)}a" for code in range(0x110000))
    assert tokenize(text, PUNCT_SPLIT) == reference_punct_split(text)


def reference_overlap_stats(hyp, ref, max_n):
    """The original per-order counting loop of chrF, kept as the reference."""
    stats = []
    for hyp_grams, ref_grams in zip(sliced_ngrams(tuple(hyp), max_n), sliced_ngrams(tuple(ref), max_n)):
        overlap = Counter(hyp_grams) & Counter(ref_grams)
        stats.extend((len(hyp_grams), len(ref_grams), sum(overlap.values())))
    return stats


ORDERS = st.integers(0, 8)
# chrF's input: text with its whitespace stripped; BLEU's: a token list.
STRIPPED_TEXT = st.text(alphabet="abé. \t", max_size=14).map(lambda text: "".join(text.split()))
TOKEN_LISTS = st.lists(st.sampled_from(["a", "b", "cd", ""]), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(STRIPPED_TEXT, STRIPPED_TEXT), st.tuples(TOKEN_LISTS, TOKEN_LISTS)), ORDERS)
def test_overlap_stats_match_reference_loop(pair, max_n):
    hyp, ref = pair
    assert overlap_stats(hyp, ref, max_n) == reference_overlap_stats(hyp, ref, max_n)


def test_overlap_stats_exact_past_512_distinct_characters():
    # 1,100 CJK code points need 11-bit ids, so six orders of packed codes
    # overflow 63 bits and the prefixes are re-ranked on the way.
    rng = random.Random(18)
    alphabet = [chr(0x4E00 + i) for i in range(1100)]
    shared = "".join(rng.choices(alphabet, k=1000))
    hyp = shared + "".join(rng.choices(alphabet, k=2000))
    ref = "".join(rng.choices(alphabet, k=1000)) + shared + shared[:500]
    assert len(set(hyp + ref)) > 512
    for max_n in (1, 6, 8):
        stats = overlap_stats(hyp, ref, max_n)
        assert stats == reference_overlap_stats(hyp, ref, max_n)
        assert stats[3 * max_n - 1] >= 1000 - max_n + 1  # the shared run matches at every order


def test_overlap_stats_with_an_empty_side():
    assert overlap_stats("", "abca", 3) == [0, 4, 0, 0, 3, 0, 0, 2, 0]
    assert overlap_stats(["a", "b"], [], 2) == [2, 0, 0, 1, 0, 0]
    assert overlap_stats("", "", 2) == [0, 0, 0, 0, 0, 0]
