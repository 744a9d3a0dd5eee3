"""Shared tokenizer and n-gram overlap for the evaluation metrics.

Two schemes: plain whitespace splitting, and whitespace splitting with
every punctuation or symbol character separated into its own token.
Lowercasing, when enabled, is applied last.

BLEU (token n-grams), ChrF (character n-grams) and the TER multiset
floor (unigrams) all count the clipped n-gram overlap of a hypothesis
and a reference, order by order; ``overlap_stats`` is that count, and
``ngrams_by_order`` the n-gram builder it shares with langid.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import List, Sequence

SCHEMES = ("whitespace", "punct_split")


@dataclass(frozen=True)
class TokenizerConfig:
    scheme: str = "whitespace"
    lowercase: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown tokenizer scheme {self.scheme!r}, expected one of {SCHEMES}")


# Defaults used by the metrics: BLEU scores detokenized text case-sensitively
# with punctuation split off; TER normalization additionally lowercases.
BLEU_TOKENIZER = TokenizerConfig(scheme="punct_split", lowercase=False)
TER_NORMALIZED_TOKENIZER = TokenizerConfig(scheme="punct_split", lowercase=True)


# A run of letters and digits (str.isalnum), or one character that is
# neither alphanumeric nor whitespace (str.isspace): "_" is \w but punctuation.
_PUNCT_SPLIT_RE = re.compile(r"[^\W_]+|[^\w\s]|_")


def tokenize(text: str, config: TokenizerConfig = TokenizerConfig()) -> List[str]:
    """Split text into tokens according to the configured scheme."""
    if config.scheme == "punct_split":
        tokens = _PUNCT_SPLIT_RE.findall(text)
    else:
        tokens = text.split()
    if config.lowercase:
        tokens = [t.lower() for t in tokens]
    return tokens


def ngrams_by_order(units: Sequence, max_n: int) -> list:
    """The 1- to ``max_n``-grams of ``units``, one sequence per order.

    Units are the characters of a string (n-grams are substrings) or
    1-tuples of tokens (n-grams are token tuples). Order 1 is ``units``
    itself; each higher order lists its n-grams by position. Empty for
    ``max_n < 1``.
    """
    if max_n < 1:
        return []
    by_order = [units]
    for n in range(2, max_n + 1):
        # each n-gram is the (n-1)-gram at the same position plus the next unit
        by_order.append(list(map(add, by_order[-1], units[n - 1 :])))
    return by_order


def overlap_stats(hyp_units: Sequence, ref_units: Sequence, max_n: int) -> List[int]:
    """Per-order (hyp n-grams, ref n-grams, clipped overlap) counts, flattened."""
    stats: List[int] = []
    for hyp_ngrams, ref_ngrams in zip(ngrams_by_order(hyp_units, max_n), ngrams_by_order(ref_units, max_n)):
        overlap = Counter(hyp_ngrams) & Counter(ref_ngrams)
        stats.extend((len(hyp_ngrams), len(ref_ngrams), sum(overlap.values())))
    return stats
