"""Corpus-level BLEU: clipped n-gram precisions with a brevity penalty.

Per-sentence sufficient statistics (clipped matches, totals, lengths) are
exposed so resampling tests can rescore thousands of bootstrap samples
without re-extracting n-grams. The clipped token n-gram counts come from
``tokenizer.overlap_stats``, which ChrF shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .tokenizer import BLEU_TOKENIZER, TokenizerConfig, overlap_stats, tokenize

MAX_ORDER = 4


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


def score_from_stats(totals: Sequence[int]) -> BleuScore:
    """Combine summed sentence statistics into a corpus BleuScore."""
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
    """Sentence BLEU with add-one smoothing on the n >= 2 precisions.

    Unsmoothed sentence BLEU is degenerate (any missing 4-gram zeroes it),
    so this variant is the one resampling statistics should use.
    """
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
