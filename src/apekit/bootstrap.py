"""Paired bootstrap resampling significance test for two systems.

Both systems are rescored on the same resampled sentence sets, built from
per-sentence sufficient statistics so a thousand samples stay cheap. The
p-value is the one-sided win proportion: 1 - wins(winner) / n_samples,
with ties counting as wins for neither system.

Samples are drawn, summed and scored a block at a time, with no Python
call per sample. Integer rows (BLEU, TER) are summed as the block's draw
counts, a samples x sentences matrix, times the rows: integer sums are
exact in any order. The float sentence_bleu rows, scored in one
bleu.score_matrix call, are gathered and summed along each sample's row,
which numpy sums pairwise the same way as a single sample's vector. Each
statistic's scorer then maps the block's totals to its scores in array
operations. The results are those of summing and scoring each sample
alone. numpy is imported inside the functions that resample, so
importing this module (as the CLI does for every command) does not load
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import bleu as bleu_mod
from .tokenizer import BLEU_TOKENIZER, TER_NORMALIZED_TOKENIZER, TokenizerConfig
from .ter import score_from_ter_stats, ter_sentence

DEFAULT_SAMPLES = 1000
# Samples are drawn in blocks whose index matrix holds at most this many
# cells (512 KiB of int64; a sample draws n indices), so memory does not
# grow with n_samples. The draw counts of integer rows have the same shape,
# and sentence_bleu gathers one float per index. Consecutive draws continue
# one random stream: any blocking yields the indices a single draw of every
# sample would.
BLOCK_CELLS = 1 << 16

if TYPE_CHECKING:
    import numpy as np

# statistic -> (per-sentence rows of one system, scores of a block of
# samples of n sentences from the rows' sums: a (samples, k) matrix, or a
# vector for sentence_bleu's one column). Higher scores win, so TER is
# negated. The scorers are looked up on their modules at call time, not
# captured here.
STATISTICS = {
    "bleu": (
        lambda hyps, refs, tok: bleu_mod.corpus_stats_matrix(hyps, refs, tok),
        lambda totals, n: bleu_mod.score_matrix(totals)[0],
    ),
    "ter": (
        lambda hyps, refs, tok: [ter_sentence(h, r, tok)[0].stats for h, r in zip(hyps, refs)],
        lambda totals, n: -score_from_ter_stats(totals.T),
    ),
    "sentence_bleu": (
        lambda hyps, refs, tok: bleu_mod.score_matrix(
            bleu_mod.corpus_stats_matrix(hyps, refs, tok), bleu_mod.ADD_ONE
        )[0],
        lambda totals, n: totals / n,
    ),
}


@dataclass(frozen=True)
class BootstrapResult:
    statistic: str
    n_samples: int
    wins_a: int
    wins_b: int
    ties: int
    p_value: float
    seed: int


def _sample_scores(rows, indices, score) -> np.ndarray:
    """Score of every sample (a row of `indices`) of the per-sentence rows."""
    import numpy as np

    rows = np.asarray(rows)
    samples, n = indices.shape
    if rows.dtype.kind == "f":
        totals = rows[indices].sum(axis=1)
    else:
        # How often each sample drew each sentence, via one bincount over
        # the indices offset by sample.
        draws = indices + (np.arange(samples) * n)[:, None]
        counts = np.bincount(draws.ravel(), minlength=samples * n).reshape(samples, n)
        totals = counts @ rows
    return score(totals, n)


def bootstrap_significance(
    hyps_a: Sequence[str],
    hyps_b: Sequence[str],
    refs: Sequence[str],
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    statistic: str = "bleu",
    tok: TokenizerConfig = None,
) -> BootstrapResult:
    """Compare two systems by rescoring seeded resamples of the test set.

    Each sample draws len(refs) sentence indices with replacement; both
    systems are scored on the identical sample, one block of samples at a
    time. Deterministic per seed.
    """
    if not (len(hyps_a) == len(hyps_b) == len(refs)):
        raise ValueError(
            f"aligned inputs required: |a|={len(hyps_a)} |b|={len(hyps_b)} |refs|={len(refs)}"
        )
    if len(refs) == 0:
        raise ValueError("bootstrap needs at least one sentence")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}, expected one of {tuple(STATISTICS)}")
    if tok is None:
        tok = TER_NORMALIZED_TOKENIZER if statistic == "ter" else BLEU_TOKENIZER

    import numpy as np

    n = len(refs)
    rng = np.random.default_rng(seed)
    rows, score = STATISTICS[statistic]
    rows_a = np.asarray(rows(hyps_a, refs, tok))
    rows_b = np.asarray(rows(hyps_b, refs, tok))

    wins_a = wins_b = 0
    block = max(1, BLOCK_CELLS // n)
    for start in range(0, n_samples, block):
        indices = rng.integers(0, n, size=(min(block, n_samples - start), n))
        scores_a = _sample_scores(rows_a, indices, score)
        scores_b = _sample_scores(rows_b, indices, score)
        wins_a += int(np.sum(scores_a > scores_b))
        wins_b += int(np.sum(scores_b > scores_a))
    ties = n_samples - wins_a - wins_b
    p_value = 1.0 - max(wins_a, wins_b) / n_samples
    return BootstrapResult(
        n_samples=n_samples,
        wins_a=wins_a,
        wins_b=wins_b,
        ties=ties,
        p_value=p_value,
        seed=seed,
        statistic=statistic,
    )
