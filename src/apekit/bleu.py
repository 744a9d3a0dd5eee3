"""Corpus-level BLEU: clipped n-gram precisions with a brevity penalty.

Per-sentence sufficient statistics (clipped matches, totals, lengths) are
exposed so resampling tests can rescore thousands of bootstrap samples
without re-extracting n-grams. The clipped token n-gram counts come from
``tokenizer.overlap_stats``, which ChrF shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from .tokenizer import BLEU_TOKENIZER, TokenizerConfig, overlap_stats, tokenize

MAX_ORDER = 4
# Lin & Och's add-one smoothing of sentence BLEU (method 2 of Chen & Cherry
# 2014), added to a statistics row: one more match and one more n-gram on
# every order n >= 2. Unsmoothed sentence BLEU is degenerate (any missing
# 4-gram zeroes it), so resampling statistics use the smoothed form.
ADD_ONE = (0, 0) + (1, 1) * (MAX_ORDER - 1) + (0, 0)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class BleuScore:
    score: float
    precisions: Tuple[float, float, float, float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def sentence_stats(hyp: str, ref: str, tok: TokenizerConfig = BLEU_TOKENIZER) -> List[int]:
    """Sufficient statistics for one sentence pair.

    Layout: [match_1, total_1, ..., match_4, total_4, hyp_len, ref_len].
    Corpus BLEU over any multiset of sentences is a pure function of the
    componentwise sum of these vectors.
    """
    hyp_tokens = tokenize(hyp, tok)
    ref_tokens = tokenize(ref, tok)
    overlap = overlap_stats(hyp_tokens, ref_tokens, MAX_ORDER)
    stats: List[int] = []
    for n in range(MAX_ORDER):
        stats += (overlap[3 * n + 2], overlap[3 * n])  # (clipped matches, hyp n-grams)
    stats += (len(hyp_tokens), len(ref_tokens))
    return stats


def score_matrix(totals, smoothing=0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BLEU of every row of a (rows, 10) matrix of summed sentence
    statistics plus `smoothing`: the scores, the (rows, 4) precisions and
    the brevity penalties. This is the one place the formula is defined:
    corpus BLEU scores summed rows, sentence BLEU rows plus ADD_ONE.

    A row whose lowest precision is 0, or whose hypothesis is empty,
    scores 0.0. Each row takes the float operations of a scalar
    computation in the same order: the divisions, the left-to-right sum
    of the four logarithms, then penalty * mean * 100.0. The logarithms
    and exponentials come from math.log and math.exp, as numpy's
    vectorised forms may differ from them in the last bit.
    """
    import numpy as np

    totals = np.asarray(totals, dtype=np.int64) + smoothing
    matches, counts = totals[:, 0 : 2 * MAX_ORDER : 2], totals[:, 1 : 2 * MAX_ORDER : 2]
    hyp_len, ref_len = totals[:, -2], totals[:, -1]
    precisions = np.divide(matches, counts, out=np.zeros(matches.shape), where=counts > 0)

    penalties = np.where((hyp_len == 0) & (ref_len > 0), 0.0, 1.0)
    short = (hyp_len > 0) & (hyp_len < ref_len)
    penalties[short] = list(map(math.exp, (1.0 - ref_len[short] / hyp_len[short]).tolist()))

    scores = np.zeros(len(totals))
    scored = (precisions.min(axis=1) > 0.0) & (hyp_len > 0)
    logs = np.array(list(map(math.log, precisions[scored].ravel().tolist()))).reshape(-1, MAX_ORDER)
    means = list(map(math.exp, (sum(logs.T) / MAX_ORDER).tolist()))
    scores[scored] = penalties[scored] * means * 100.0
    return scores, precisions, penalties


def score_from_stats(totals: Sequence[int]) -> BleuScore:
    """Combine summed sentence statistics into a corpus BleuScore."""
    scores, precisions, penalties = score_matrix([totals])
    return BleuScore(
        score=scores.item(),
        precisions=tuple(precisions[0].tolist()),
        brevity_penalty=penalties.item(),
        hyp_len=int(totals[-2]),
        ref_len=int(totals[-1]),
    )


def corpus_stats_matrix(
    hyps: Sequence[str], refs: Sequence[str], tok: TokenizerConfig = BLEU_TOKENIZER
) -> List[List[int]]:
    if len(hyps) != len(refs):
        raise ValueError(f"hypothesis/reference length mismatch: {len(hyps)} vs {len(refs)}")
    return [sentence_stats(h, r, tok) for h, r in zip(hyps, refs)]


def bleu_corpus(hyps: Sequence[str], refs: Sequence[str], tok: TokenizerConfig = BLEU_TOKENIZER) -> BleuScore:
    """Corpus BLEU over aligned hypothesis/reference lists, in [0, 100].

    Statistics are aggregated over the whole corpus before combination;
    any zero aggregate precision yields score 0 with precisions reported.
    """
    if len(hyps) == 0:
        raise ValueError("corpus BLEU needs at least one sentence pair")
    matrix = corpus_stats_matrix(hyps, refs, tok)
    totals = [sum(col) for col in zip(*matrix)]
    return score_from_stats(totals)


def sentence_bleu(hyp: str, ref: str, tok: TokenizerConfig = BLEU_TOKENIZER) -> float:
    """Sentence BLEU of one pair, its statistics smoothed with ADD_ONE."""
    return score_matrix([sentence_stats(hyp, ref, tok)], ADD_ONE)[0].item()
