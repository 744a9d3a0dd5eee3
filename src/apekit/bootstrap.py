"""Paired bootstrap resampling significance test for two systems.

Both systems are rescored on the same resampled sentence sets, built from
per-sentence sufficient statistics so a thousand samples stay cheap. The
p-value is the one-sided win proportion: 1 - wins(winner) / n_samples,
with ties counting as wins for neither system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bleu as bleu_mod
from .tokenizer import BLEU_TOKENIZER, TER_NORMALIZED_TOKENIZER, TokenizerConfig
from .ter import score_from_ter_stats, ter_sentence

DEFAULT_SAMPLES = 1000

# statistic -> (per-sentence rows of one system, score of the rows summed
# over a sample of n sentences). Higher scores win, so TER is negated. The
# scorers are looked up on their modules at call time, not captured here.
STATISTICS = {
    "bleu": (
        lambda hyps, refs, tok: bleu_mod.corpus_stats_matrix(hyps, refs, tok),
        lambda totals, n: bleu_mod.score_from_stats(totals).score,
    ),
    "ter": (
        lambda hyps, refs, tok: [ter_sentence(h, r, tok)[0].stats for h, r in zip(hyps, refs)],
        lambda totals, n: -score_from_ter_stats(totals),
    ),
    "sentence_bleu": (
        lambda hyps, refs, tok: [bleu_mod.sentence_bleu(h, r, tok) for h, r in zip(hyps, refs)],
        lambda total, n: total / n,
    ),
}


@dataclass(frozen=True)
class BootstrapResult:
    n_samples: int
    wins_a: int
    wins_b: int
    ties: int
    p_value: float
    seed: int
    statistic: str = "bleu"

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "n_samples": self.n_samples,
            "wins_a": self.wins_a,
            "wins_b": self.wins_b,
            "ties": self.ties,
            "p_value": self.p_value,
            "seed": self.seed,
        }


def _sample_scores(rows, indices, score) -> np.ndarray:
    rows = np.asarray(rows)
    # One gather per sample keeps memory flat on large test sets. The sums
    # reach the scorer as Python numbers, which it combines faster than
    # numpy scalars.
    return np.array([score(rows[sample].sum(axis=0).tolist(), len(sample)) for sample in indices])


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
    systems are scored on the identical sample. Deterministic per seed.
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

    n = len(refs)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, n, size=(n_samples, n))

    rows, score = STATISTICS[statistic]
    scores_a = _sample_scores(rows(hyps_a, refs, tok), indices, score)
    scores_b = _sample_scores(rows(hyps_b, refs, tok), indices, score)

    wins_a = int(np.sum(scores_a > scores_b))
    wins_b = int(np.sum(scores_b > scores_a))
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
