"""Character n-gram F-score (ChrF) on whitespace-stripped text."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .tokenizer import overlap_stats

DEFAULT_MAX_N = 6
DEFAULT_BETA = 2.0


def _strip_whitespace(text: str) -> str:
    return "".join(text.split())


def chrf_sentence_stats(hyp: str, ref: str, max_n: int = DEFAULT_MAX_N) -> List[int]:
    """Per-order (hyp total, ref total, overlap) counts, flattened."""
    return overlap_stats(_strip_whitespace(hyp), _strip_whitespace(ref), max_n)


def _precision_recall(stats: Sequence[int], max_n: int) -> Tuple[float, float]:
    # Average over orders where either side has n-grams; an order that is
    # empty on both sides (text shorter than n) carries no signal.
    precision_sum = recall_sum = 0.0
    effective = 0
    for n in range(max_n):
        hyp_total, ref_total, overlap = stats[3 * n], stats[3 * n + 1], stats[3 * n + 2]
        if hyp_total == 0 and ref_total == 0:
            continue
        effective += 1
        if hyp_total > 0:
            precision_sum += overlap / hyp_total
        if ref_total > 0:
            recall_sum += overlap / ref_total
    if effective == 0:
        return 1.0, 1.0  # both texts empty: vacuous perfect match
    return precision_sum / effective, recall_sum / effective


def score_from_chrf_stats(stats: Sequence[int], max_n: int = DEFAULT_MAX_N, beta: float = DEFAULT_BETA) -> float:
    precision, recall = _precision_recall(stats, max_n)
    if precision + recall == 0.0:
        return 0.0
    beta_sq = beta * beta
    return (1 + beta_sq) * precision * recall / (beta_sq * precision + recall) * 100.0


def chrf(hyps: Sequence[str], refs: Sequence[str], max_n: int = DEFAULT_MAX_N, beta: float = DEFAULT_BETA) -> float:
    """Corpus ChrF in [0, 100] over aligned hypothesis/reference lists.

    Character n-gram precision and recall, averaged over orders 1..max_n
    and combined as an F-beta score (beta weights recall). Whitespace is
    excluded from the n-grams.
    """
    if len(hyps) != len(refs):
        raise ValueError(f"hypothesis/reference length mismatch: {len(hyps)} vs {len(refs)}")
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if len(hyps) == 0:
        raise ValueError("corpus ChrF needs at least one sentence pair")
    matrix = [chrf_sentence_stats(hyp, ref, max_n) for hyp, ref in zip(hyps, refs)]
    totals = [sum(col) for col in zip(*matrix)]
    return score_from_chrf_stats(totals, max_n, beta)
