import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.bleu import MAX_ORDER, bleu_corpus, sentence_bleu, sentence_stats
from apekit.tokenizer import TokenizerConfig, tokenize


def test_identity_is_exactly_100():
    hyps = ["the cat sat on the mat", "all good things must end here"]
    assert bleu_corpus(hyps, list(hyps)).score == pytest.approx(100.0, abs=1e-9)


def test_clipped_unigram_precision():
    score = bleu_corpus(["the the the the the the the"], ["the cat is on the mat"])
    assert score.precisions[0] == pytest.approx(2 / 7, abs=1e-12)
    assert score.score == 0.0  # higher orders have no matches


def test_joint_permutation_invariance():
    rng = random.Random(3)
    words = "der die das und oder nicht hier da war ist".split()
    pairs = [
        (
            " ".join(rng.choices(words, k=rng.randint(4, 9))),
            " ".join(rng.choices(words, k=rng.randint(4, 9))),
        )
        for _ in range(30)
    ]
    hyps, refs = zip(*pairs)
    base = bleu_corpus(list(hyps), list(refs))
    order = list(range(len(pairs)))
    rng.shuffle(order)
    shuffled = bleu_corpus([hyps[i] for i in order], [refs[i] for i in order])
    assert shuffled == base


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        bleu_corpus(["a"], ["a", "b"])


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        bleu_corpus([], [])


def test_brevity_penalty_applies_only_when_short():
    long_ref = ["one two three four five six seven eight"]
    exact = bleu_corpus(long_ref, long_ref)
    assert exact.brevity_penalty == 1.0
    short = bleu_corpus(["one two three four"], long_ref)
    assert short.brevity_penalty == pytest.approx(math.exp(1 - 8 / 4))


def test_invariant_score_formula_when_all_precisions_positive():
    score = bleu_corpus(["a b c d e"], ["a b c d f"])
    if min(score.precisions) > 0:
        expected = (
            score.brevity_penalty
            * math.exp(sum(math.log(p) for p in score.precisions) / 4)
            * 100.0
        )
        assert score.score == pytest.approx(expected, abs=1e-9)


def test_score_range_bounds():
    rng = random.Random(8)
    words = "a b c d e f".split()
    for _ in range(100):
        hyp = " ".join(rng.choices(words, k=rng.randint(1, 10)))
        ref = " ".join(rng.choices(words, k=rng.randint(1, 10)))
        score = bleu_corpus([hyp], [ref]).score
        assert 0.0 <= score <= 100.0


def test_case_sensitive_by_default():
    assert bleu_corpus(["The Cat"], ["the cat"]).score == 0.0
    lowered = TokenizerConfig(scheme="punct_split", lowercase=True)
    assert bleu_corpus(["The Cat sat on mats"], ["the cat sat on mats"], lowered).score == pytest.approx(100.0)


def test_sentence_bleu_smoothing_keeps_short_sentences_nonzero():
    assert sentence_bleu("the cat", "the cat") > 0.0
    assert sentence_bleu("xyz", "abc") == 0.0


def reference_sentence_stats(hyp, ref, tok):
    """The original per-order counting loop, kept as the reference."""
    hyp_tokens, ref_tokens = tokenize(hyp, tok), tokenize(ref, tok)
    stats = []
    for n in range(1, MAX_ORDER + 1):
        hyp_ngrams = Counter(tuple(hyp_tokens[i : i + n]) for i in range(len(hyp_tokens) - n + 1))
        ref_ngrams = Counter(tuple(ref_tokens[i : i + n]) for i in range(len(ref_tokens) - n + 1))
        stats.append(sum((hyp_ngrams & ref_ngrams).values()))
        stats.append(sum(hyp_ngrams.values()))
    return stats + [len(hyp_tokens), len(ref_tokens)]


TEXT = st.text(alphabet="ab cB,.", max_size=24)
TOKENIZERS = st.sampled_from(
    [TokenizerConfig(), TokenizerConfig(scheme="punct_split"), TokenizerConfig(scheme="punct_split", lowercase=True)]
)


@settings(max_examples=300, deadline=None)
@given(TEXT, TEXT, TOKENIZERS)
def test_sentence_stats_match_reference_loop(hyp, ref, tok):
    assert sentence_stats(hyp, ref, tok) == reference_sentence_stats(hyp, ref, tok)


@pytest.mark.parametrize("hyp, ref", [("", ""), ("  ", "\t"), ("a b", " "), ("", "a b a b")])
def test_sentence_stats_on_empty_and_whitespace_only_text(hyp, ref):
    assert sentence_stats(hyp, ref) == reference_sentence_stats(hyp, ref, TokenizerConfig(scheme="punct_split"))
