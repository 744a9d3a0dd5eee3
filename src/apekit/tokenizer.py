"""Shared tokenizer and n-gram overlap for the evaluation metrics.

Two schemes: plain whitespace splitting, and whitespace splitting with
every punctuation or symbol character separated into its own token.
Lowercasing, when enabled, is applied last.

BLEU (token n-grams) and ChrF (character n-grams) both count the
clipped n-gram overlap of a hypothesis and a reference, order by order;
``overlap_stats`` is that count. It packs each n-gram of the pair into
one int64 code and counts by sorting the codes, so it loads numpy, which
it imports when first called rather than at module level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


def overlap_stats(hyp_units: Sequence, ref_units: Sequence, max_n: int) -> List[int]:
    """Per-order (hyp n-grams, ref n-grams, clipped overlap) counts, flattened.

    Units are the characters of a string (ChrF) or the tokens of a list
    (BLEU); an n-gram is a run of n units. Empty for ``max_n < 1``. Every
    n-gram of the pair becomes one int64 key, and one sort of the keys
    puts the hypothesis copies of each n-gram right before its reference
    copies, so the clipped count of an n-gram is the smaller of its two
    run lengths.
    """
    if max_n < 1:
        return []
    import numpy as np

    # Dense ids from 1, shared by both sides. The pair is laid out as hyp,
    # separator (id 0), ref, then pad ids (len(ids) + 1) past the end. An
    # n-gram running into the separator starts in hyp, one running into
    # the pad starts in ref and holds no separator, so no such n-gram
    # equals any n-gram of the other side.
    ids = dict.fromkeys(hyp_units)
    ids.update(dict.fromkeys(ref_units))
    ids = dict(zip(ids, range(1, len(ids) + 1)))
    n_hyp, n_ref = len(hyp_units), len(ref_units)
    split = n_hyp + 1
    length = split + n_ref
    pad = len(ids) + 1
    seq = np.empty(length + max_n - 1, np.int64)
    seq[length:] = pad
    seq[:n_hyp] = list(map(ids.__getitem__, hyp_units))
    seq[n_hyp] = 0
    seq[split:length] = list(map(ids.__getitem__, ref_units))

    # Row n - 1 holds the code of the n-gram starting at each position: the
    # code of its (n-1)-gram prefix shifted left by `width`, or'ed with the
    # last id. When the next code would not leave room for the tag bits
    # below 63 bits, both sides' prefixes are re-ranked jointly, which
    # keeps every code exact whatever the alphabet.
    width = pad.bit_length()
    tag_bits = (max_n - 1).bit_length() + 1  # order - 1, then the side
    codes = np.empty((max_n, length), np.int64)
    codes[0] = seq[:length]
    bits = width
    for n in range(1, max_n):
        prefixes = codes[n - 1]
        if bits + width + tag_bits > 63:
            _, prefixes = np.unique(prefixes, return_inverse=True)
            bits = (length - 1).bit_length()
        np.left_shift(prefixes, width, out=codes[n])
        codes[n] |= seq[n : n + length]
        bits += width

    # key = code, order - 1, side (0 hyp, 1 ref), from the high bits down
    codes <<= tag_bits
    codes |= np.arange(0, 2 * max_n, 2, dtype=np.int64)[:, None]
    codes[:, split:] |= 1
    keys = codes.ravel()
    keys.sort()
    grams = keys >> 1
    edge = np.empty(len(keys) + 1, bool)
    edge[0] = edge[-1] = True
    np.not_equal(grams[1:], grams[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    starts = bounds[:-1]
    ref_counts = np.add.reduceat(keys & 1, starts)
    clipped = np.minimum(bounds[1:] - starts - ref_counts, ref_counts)
    order_mask = (1 << (tag_bits - 1)) - 1
    overlap = np.bincount(grams[starts] & order_mask, weights=clipped, minlength=max_n)

    stats: List[int] = []
    for n in range(1, max_n + 1):
        stats.extend((max(n_hyp - n + 1, 0), max(n_ref - n + 1, 0), int(overlap[n - 1])))
    return stats
