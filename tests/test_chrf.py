import pytest

from apekit.chrf import chrf


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
