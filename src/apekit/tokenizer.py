"""Shared tokenizer for the evaluation metrics.

Two schemes: plain whitespace splitting, and whitespace splitting with
every punctuation or symbol character separated into its own token.
Lowercasing, when enabled, is applied last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

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
