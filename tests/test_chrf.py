from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.chrf import MAX_N, chrf, chrf_sentence_stats


def test_identity_is_100():
    hyps = ["Guten Morgen!", "ab"]
    assert chrf(hyps, list(hyps)) == pytest.approx(100.0)


def test_disjoint_characters_score_zero():
    assert chrf(["abcd"], ["wxyz"]) == 0.0


def test_hand_fixture_six_orders_beta_two():
    # Per order (hyp, ref, overlap): 1 -> (2, 3, 2), 2 -> (1, 2, 1), 3 -> (0, 1, 0);
    # orders 4-6 are empty on both sides and left out of the averages.
    # P = (1 + 1 + 0) / 3 = 2/3, R = (2/3 + 1/2 + 0) / 3 = 7/18,
    # F = 5 * P * R / (4 * P + R) = (35/27) / (55/18) = 14/33
    assert chrf(["ab"], ["abc"]) == pytest.approx(1400 / 33, abs=1e-9)


def test_both_empty_is_vacuous_perfect_match():
    assert chrf([""], [""]) == pytest.approx(100.0)


def test_whitespace_excluded_from_ngrams():
    assert chrf(["a b"], ["ab"]) == pytest.approx(100.0)


def test_empty_corpus_rejected():
    # No data is not a perfect score; BLEU and TER reject it the same way.
    with pytest.raises(ValueError, match="at least one sentence pair"):
        chrf([], [])


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        chrf(["a"], ["a", "b"])


def test_range_bounds():
    assert 0.0 <= chrf(["abcab"], ["abxab"]) <= 100.0


def test_recall_weighted_more_than_precision_with_beta_two():
    # Extra hypothesis characters hurt less than missing reference ones.
    # "ab" against "abcd": orders 1-4 have n-grams, P = 2/4 = 1/2 and
    # R = (1/2 + 1/3) / 4 = 5/24, so F = 25/106; swapped, P and R trade
    # places and F = 5 * (5/48) / (4 * 5/24 + 1/2) = 25/64.
    missing = chrf(["ab"], ["abcd"])
    extra = chrf(["abcd"], ["ab"])
    assert missing == pytest.approx(2500 / 106, abs=1e-9)
    assert extra == pytest.approx(2500 / 64, abs=1e-9)
    assert extra > missing


def reference_chrf_sentence_stats(hyp, ref):
    """The original per-order counting loop, kept as the reference."""
    hyp_chars, ref_chars = "".join(hyp.split()), "".join(ref.split())
    stats = []
    for n in range(1, MAX_N + 1):
        hyp_ngrams = Counter(hyp_chars[i : i + n] for i in range(len(hyp_chars) - n + 1))
        ref_ngrams = Counter(ref_chars[i : i + n] for i in range(len(ref_chars) - n + 1))
        overlap = hyp_ngrams & ref_ngrams
        stats.extend((sum(hyp_ngrams.values()), sum(ref_ngrams.values()), sum(overlap.values())))
    return stats


TEXT = st.text(alphabet="abé. \t", max_size=14)


@settings(max_examples=300, deadline=None)
@given(TEXT, TEXT)
def test_sentence_stats_match_reference_loop(hyp, ref):
    assert chrf_sentence_stats(hyp, ref) == reference_chrf_sentence_stats(hyp, ref)


@pytest.mark.parametrize("hyp, ref", [("", ""), ("  ", "\t"), ("ab", " "), ("", "a b a")])
def test_sentence_stats_on_empty_and_whitespace_only_text(hyp, ref):
    assert chrf_sentence_stats(hyp, ref) == reference_chrf_sentence_stats(hyp, ref)
