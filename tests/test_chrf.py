from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.chrf import chrf, chrf_sentence_stats


def test_identity_is_100():
    hyps = ["Guten Morgen!", "ab"]
    assert chrf(hyps, list(hyps)) == pytest.approx(100.0)


def test_disjoint_characters_score_zero():
    assert chrf(["abcd"], ["wxyz"]) == 0.0


def test_hand_fixture_unigram_beta_two():
    # P = 1, R = 2/3, beta = 2 -> 5 * (2/3) / (4 + 2/3) * 100
    assert chrf(["ab"], ["abc"], max_n=1, beta=2) == pytest.approx(71.4286, abs=1e-3)


def test_both_empty_is_vacuous_perfect_match():
    assert chrf([""], [""]) == pytest.approx(100.0)


def test_whitespace_excluded_from_ngrams():
    assert chrf(["a b"], ["ab"], max_n=2) == pytest.approx(100.0)


def test_empty_corpus_rejected():
    # No data is not a perfect score; BLEU and TER reject it the same way.
    with pytest.raises(ValueError, match="at least one sentence pair"):
        chrf([], [])


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        chrf(["a"], ["a", "b"])


def test_parameter_validation():
    with pytest.raises(ValueError):
        chrf(["a"], ["a"], max_n=0)
    with pytest.raises(ValueError):
        chrf(["a"], ["a"], beta=0)


def test_range_bounds():
    assert 0.0 <= chrf(["abcab"], ["abxab"]) <= 100.0


def test_recall_weighted_more_than_precision_with_beta_two():
    # Extra hypothesis characters hurt less than missing reference ones.
    missing = chrf(["ab"], ["abcd"], max_n=1)
    extra = chrf(["abcd"], ["ab"], max_n=1)
    assert extra > missing


def reference_chrf_sentence_stats(hyp, ref, max_n):
    """The original per-order counting loop, kept as the reference."""
    hyp_chars, ref_chars = "".join(hyp.split()), "".join(ref.split())
    stats = []
    for n in range(1, max_n + 1):
        hyp_ngrams = Counter(hyp_chars[i : i + n] for i in range(len(hyp_chars) - n + 1))
        ref_ngrams = Counter(ref_chars[i : i + n] for i in range(len(ref_chars) - n + 1))
        overlap = hyp_ngrams & ref_ngrams
        stats.extend((sum(hyp_ngrams.values()), sum(ref_ngrams.values()), sum(overlap.values())))
    return stats


TEXT = st.text(alphabet="abé. \t", max_size=14)


@settings(max_examples=300, deadline=None)
@given(TEXT, TEXT, st.integers(0, 8))
def test_sentence_stats_match_reference_loop(hyp, ref, max_n):
    assert chrf_sentence_stats(hyp, ref, max_n) == reference_chrf_sentence_stats(hyp, ref, max_n)


@pytest.mark.parametrize("hyp, ref", [("", ""), ("  ", "\t"), ("ab", " "), ("", "a b a")])
def test_sentence_stats_on_empty_and_whitespace_only_text(hyp, ref):
    assert chrf_sentence_stats(hyp, ref) == reference_chrf_sentence_stats(hyp, ref, 6)
    assert chrf_sentence_stats(hyp, ref, 0) == []
