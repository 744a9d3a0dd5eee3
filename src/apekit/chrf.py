"""Character n-gram F-score (ChrF) on whitespace-stripped text.

The per-order clipped character n-gram counts come from
``tokenizer.overlap_stats``, which BLEU shares for its token n-grams.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .tokenizer import overlap_stats

MAX_N = 6  # character n-gram orders 1..MAX_N
BETA = 2.0  # recall weighs BETA times as much as precision


def _strip_whitespace(text: str) -> str:
    return "".join(text.split())


def chrf_sentence_stats(hyp: str, ref: str) -> List[int]:
    """Per-order (hyp total, ref total, overlap) counts, flattened."""
    return overlap_stats(_strip_whitespace(hyp), _strip_whitespace(ref), MAX_N)


def _precision_recall(stats: Sequence[int]) -> Tuple[float, float]:
    # Average over orders where either side has n-grams; an order that is
    # empty on both sides (text shorter than n) carries no signal.
    precision_sum = recall_sum = 0.0
    effective = 0
    for n in range(MAX_N):
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


def score_from_chrf_stats(stats: Sequence[int]) -> float:
    precision, recall = _precision_recall(stats)
    if precision + recall == 0.0:
        return 0.0
    beta_sq = BETA * BETA
    return (1 + beta_sq) * precision * recall / (beta_sq * precision + recall) * 100.0


def chrf(hyps: Sequence[str], refs: Sequence[str]) -> float:
    """Corpus ChrF in [0, 100] over aligned hypothesis/reference lists.

    Character n-gram precision and recall, averaged over orders 1..MAX_N
    and combined as an F-beta score with BETA = 2 (recall weighs more).
    Whitespace is excluded from the n-grams.
    """
    if len(hyps) != len(refs):
        raise ValueError(f"hypothesis/reference length mismatch: {len(hyps)} vs {len(refs)}")
    if len(hyps) == 0:
        raise ValueError("corpus ChrF needs at least one sentence pair")
    matrix = [chrf_sentence_stats(hyp, ref) for hyp, ref in zip(hyps, refs)]
    totals = [sum(col) for col in zip(*matrix)]
    return score_from_chrf_stats(totals)
