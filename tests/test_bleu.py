import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.bleu import (
    ADD_ONE,
    MAX_ORDER,
    BleuScore,
    bleu_corpus,
    score_from_stats,
    score_matrix,
    sentence_bleu,
    sentence_stats,
)
from apekit.tokenizer import BLEU_TOKENIZER, TokenizerConfig, tokenize


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


def old_sentence_bleu(hyp: str, ref: str, tok: TokenizerConfig = BLEU_TOKENIZER) -> float:
    """The scalar sentence BLEU that score_matrix with ADD_ONE replaced,
    kept verbatim as the reference."""
    stats = sentence_stats(hyp, ref, tok)
    hyp_len, ref_len = stats[-2], stats[-1]
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(MAX_ORDER):
        matches, total = stats[2 * n], stats[2 * n + 1]
        if n > 0:
            matches, total = matches + 1, total + 1
        if matches == 0 or total == 0:
            return 0.0
        log_sum += math.log(matches / total)
    brevity_penalty = math.exp(1.0 - ref_len / hyp_len) if hyp_len < ref_len else 1.0
    return brevity_penalty * math.exp(log_sum / MAX_ORDER) * 100.0


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


def old_score_from_stats(totals):
    """The scalar scorer that score_matrix replaced, kept verbatim as the
    reference."""
    precisions = []
    for n in range(MAX_ORDER):
        matches, total = totals[2 * n], totals[2 * n + 1]
        precisions.append(matches / total if total > 0 else 0.0)
    hyp_len, ref_len = int(totals[-2]), int(totals[-1])

    if hyp_len == 0:
        brevity_penalty = 0.0 if ref_len > 0 else 1.0
    elif hyp_len < ref_len:
        brevity_penalty = math.exp(1.0 - ref_len / hyp_len)
    else:
        brevity_penalty = 1.0

    if min(precisions) > 0.0 and hyp_len > 0:
        log_mean = sum(math.log(p) for p in precisions) / MAX_ORDER
        score = brevity_penalty * math.exp(log_mean) * 100.0
    else:
        score = 0.0
    return BleuScore(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=brevity_penalty,
        hyp_len=hyp_len,
        ref_len=ref_len,
    )


@st.composite
def stats_rows(draw):
    """Summed statistics rows, small or up to a few million n-grams."""
    top = draw(st.sampled_from([3, 40, 5_000_000]))
    row = []
    for _ in range(MAX_ORDER):
        total = draw(st.integers(0, top))
        row += (draw(st.integers(0, total)), total)
    return row + [draw(st.integers(0, top)), draw(st.integers(0, top))]


# An order with no matches, an order with no n-grams, an empty hypothesis
# with an empty and a non-empty reference, and a hypothesis shorter and
# one longer than its reference.
EDGE_ROWS = [
    [5, 9, 0, 8, 2, 7, 1, 6, 9, 9],
    [3, 3, 2, 2, 1, 1, 0, 0, 3, 3],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 7],
    [7, 9, 5, 8, 3, 7, 2, 6, 9, 14],
    [7, 9, 5, 8, 3, 7, 2, 6, 9, 4],
]


@settings(max_examples=300, deadline=None)
@given(st.lists(stats_rows(), max_size=20), st.integers(1, 4))
def test_score_matrix_matches_the_scalar_scorer_bit_for_bit(rows, repeats):
    rows = EDGE_ROWS + rows + rows[:1] * repeats  # and repeated identical rows
    scores, precisions, penalties = score_matrix(rows)
    old = [old_score_from_stats(row) for row in rows]
    assert scores.tolist() == [o.score for o in old]
    assert [tuple(p) for p in precisions.tolist()] == [o.precisions for o in old]
    assert penalties.tolist() == [o.brevity_penalty for o in old]
    for row, o in zip(rows, old):
        assert score_from_stats(row) == o


# Pairs with an empty or whitespace-only side, and short pairs whose
# orders n >= 2 have no n-grams or no matches.
EDGE_PAIRS = [
    ("", ""), ("  ", "\t"), ("a b", " "), ("", "a b a b"), ("a", "a"), ("a", "b"),
    ("a b", "a b c d e"), ("the cat", "the cat"), ("xyz", "abc"), ("a b c d e", "a b c d f"),
]
WORDS = st.text(alphabet="ab cB,.", max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(WORDS, WORDS), max_size=20), TOKENIZERS)
def test_sentence_bleu_matches_the_scalar_loop_bit_for_bit(pairs, tok):
    pairs = EDGE_PAIRS + pairs
    old = [old_sentence_bleu(h, r, tok) for h, r in pairs]
    assert [sentence_bleu(h, r, tok) for h, r in pairs] == old
    rows = [sentence_stats(h, r, tok) for h, r in pairs]
    assert score_matrix(rows, ADD_ONE)[0].tolist() == old
