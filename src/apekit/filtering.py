"""Corpus construction pipeline: ratio filter, normalization, dedup,
language identification, and holdout splitting.

Stage order is fixed: ratio filter, punctuation normalization, dedup,
language filter, split. Every stage is a pure corpus-to-corpus function;
removed triplets carry a ``removed_reason`` meta entry instead of being
silently dropped, so pipeline counts always reconcile.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .corpus import Corpus, Triplet, count_chars
from .langid import LanguageClassifier, NgramLanguageClassifier

STAGE_ORDER = ("ratio", "normalize", "dedup", "langid", "split")


@dataclass(frozen=True)
class FilterConfig:
    """Knobs for the filter pipeline.

    The ratio selectors feed both the corpus-global mean ratio and the
    per-triplet ratio check, so the bound is self-consistent by default.
    """

    t: float = 0.2
    ratio_numerator: str = "src"
    ratio_denominator: str = "pe"
    dev_size: int = 10_000
    test_size: int = 10_000
    seed: int = 0
    expected_src_lang: str = "en"
    expected_tgt_lang: str = "de"

    def validate(self) -> None:
        if not 0.0 < self.t < 1.0:
            raise ValueError(f"tolerance t must be in (0, 1), got {self.t}")
        if self.dev_size < 0 or self.test_size < 0:
            raise ValueError("dev_size and test_size must be non-negative")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "ratio_numerator": self.ratio_numerator,
            "ratio_denominator": self.ratio_denominator,
            "dev_size": self.dev_size,
            "test_size": self.test_size,
            "seed": self.seed,
            "expected_src_lang": self.expected_src_lang,
            "expected_tgt_lang": self.expected_tgt_lang,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FilterConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown filter config keys: {sorted(unknown)}")
        config = cls(**data)
        config.validate()
        return config


@dataclass(frozen=True)
class GlobalRatio:
    """Corpus-global mean character ratio between two triplet fields."""

    r_c: float
    numerator_chars: int
    denominator_chars: int

    def to_dict(self) -> dict:
        return {
            "r_c": self.r_c,
            "numerator_chars": self.numerator_chars,
            "denominator_chars": self.denominator_chars,
        }


@dataclass(frozen=True)
class FilterReport:
    """Audit record of one pipeline run; counts must reconcile exactly."""

    input_count: int
    removed_by_ratio: int
    removed_by_dedup: int
    removed_by_langid: int
    kept_count: int
    r_c: GlobalRatio
    split_sizes: Tuple[int, int, int]

    def validate(self) -> None:
        removals = self.removed_by_ratio + self.removed_by_dedup + self.removed_by_langid
        if self.input_count != self.kept_count + removals:
            raise ValueError("filter report does not reconcile: input != kept + removals")
        if self.kept_count != sum(self.split_sizes):
            raise ValueError("filter report does not reconcile: kept != sum of splits")

    def to_dict(self) -> dict:
        return {
            "input_count": self.input_count,
            "removed_by_ratio": self.removed_by_ratio,
            "removed_by_dedup": self.removed_by_dedup,
            "removed_by_langid": self.removed_by_langid,
            "kept_count": self.kept_count,
            "r_c": self.r_c.to_dict(),
            "split_sizes": {
                "train": self.split_sizes[0],
                "dev": self.split_sizes[1],
                "test": self.split_sizes[2],
            },
            "stage_order": list(STAGE_ORDER),
        }


def compute_global_ratio(corpus: Corpus, num_field: str = "src", den_field: str = "pe") -> GlobalRatio:
    """Total characters of one field over total characters of another."""
    if len(corpus) == 0:
        raise ValueError("cannot compute a global ratio on an empty corpus")
    numerator = sum(count_chars(t.text(num_field)) for t in corpus)
    denominator = sum(count_chars(t.text(den_field)) for t in corpus)
    if denominator == 0:
        raise ValueError(f"zero total characters in denominator field {den_field!r}")
    return GlobalRatio(r_c=numerator / denominator, numerator_chars=numerator, denominator_chars=denominator)


def ratio_filter(
    corpus: Corpus,
    r: GlobalRatio,
    t: float,
    num_field: str = "src",
    den_field: str = "pe",
) -> Tuple[Corpus, Corpus]:
    """Keep triplets whose character ratio lies in [(1-t)*r_c, (1+t)*r_c].

    Bounds are inclusive. Triplets with an empty denominator field go to
    removed with reason "degenerate" instead of dividing by zero.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"tolerance t must be in (0, 1), got {t}")
    lower = (1.0 - t) * r.r_c
    upper = (1.0 + t) * r.r_c
    kept, removed = [], []
    for triplet in corpus:
        den = count_chars(triplet.text(den_field))
        if den == 0:
            removed.append(triplet.with_meta(removed_reason="degenerate"))
            continue
        ratio = count_chars(triplet.text(num_field)) / den
        if lower <= ratio <= upper:
            kept.append(triplet)
        else:
            removed.append(triplet.with_meta(removed_reason="ratio"))
    return corpus.replaced(kept), corpus.replaced(removed)


# Punctuation normalization table. One-to-one substitutions only, so the
# output never grows; dashes are deliberately left alone.
_PUNCT_TABLE = str.maketrans({
    "“": '"',  # left double quote
    "”": '"',  # right double quote
    "„": '"',  # low double quote
    "‟": '"',
    "″": '"',  # double prime
    "«": '"',  # left guillemet
    "»": '"',  # right guillemet
    "‘": "'",  # left single quote
    "’": "'",  # right single quote
    "‚": "'",  # low single quote
    "‛": "'",
    "′": "'",  # prime
    "‹": "'",  # left single guillemet
    "›": "'",  # right single guillemet
    " ": " ",  # no-break space
    " ": " ",  # narrow no-break space
    " ": " ",  # thin space
})

_MULTISPACE_RE = re.compile(r"  +")


def normalize_punctuation(text: str) -> str:
    """Map typographic quotes and exotic spaces to plain ASCII forms.

    Idempotent, and never longer than the input: substitutions are
    one-to-one and duplicate spaces collapse to a single space.
    """
    return _MULTISPACE_RE.sub(" ", text.translate(_PUNCT_TABLE))


def normalize_corpus(corpus: Corpus) -> Corpus:
    """Apply punctuation normalization to all three fields of every triplet."""
    return corpus.replaced(
        replace(
            t,
            src=normalize_punctuation(t.src),
            mt=normalize_punctuation(t.mt),
            pe=normalize_punctuation(t.pe),
        )
        for t in corpus
    )


def dedup(corpus: Corpus) -> Tuple[Corpus, Corpus]:
    """Collapse triplets sharing (src, mt) to the one with the longest pe.

    Ties on pe length keep the earliest occurrence. Survivors stay in
    original order; everything else lands in removed with a reason code.
    """
    best_by_key = {}
    for position, triplet in enumerate(corpus):
        key = (triplet.src, triplet.mt)
        incumbent = best_by_key.get(key)
        if incumbent is None or count_chars(triplet.pe) > count_chars(corpus[incumbent].pe):
            best_by_key[key] = position
    winners = set(best_by_key.values())
    kept, removed = [], []
    for position, triplet in enumerate(corpus):
        if position in winners:
            kept.append(triplet)
        else:
            removed.append(triplet.with_meta(removed_reason="dedup"))
    return corpus.replaced(kept), corpus.replaced(removed)


def language_filter(
    corpus: Corpus,
    classifier: LanguageClassifier,
    expected_src: Optional[str] = None,
    expected_tgt: Optional[str] = None,
) -> Tuple[Corpus, Corpus]:
    """Keep triplets whose src and pe are identified as the expected languages.

    Expected codes default to the corpus language pair. Classifier failures
    route the triplet to removed rather than aborting the run.
    """
    expected_src = expected_src if expected_src is not None else corpus.src_lang
    expected_tgt = expected_tgt if expected_tgt is not None else corpus.tgt_lang
    kept, removed = [], []
    for triplet in corpus:
        try:
            src_lang = classifier.classify(triplet.src)
            pe_lang = classifier.classify(triplet.pe)
        except Exception as exc:
            removed.append(triplet.with_meta(removed_reason="langid_error", langid_error=str(exc)))
            continue
        if src_lang == expected_src and pe_lang == expected_tgt:
            kept.append(triplet)
        else:
            removed.append(
                triplet.with_meta(removed_reason="langid", detected_src=src_lang, detected_pe=pe_lang)
            )
    return corpus.replaced(kept), corpus.replaced(removed)


def split_holdout(corpus: Corpus, dev_size: int, test_size: int, seed: int) -> Tuple[Corpus, Corpus, Corpus]:
    """Seeded random holdout split into (train, dev, test).

    A seeded shuffle of positions picks dev then test; the remaining
    triplets form train in their original relative order. Deterministic
    for a given (corpus, seed).
    """
    n = len(corpus)
    if dev_size < 0 or test_size < 0:
        raise ValueError("split sizes must be non-negative")
    held = dev_size + test_size
    if held > 0 and held >= n:
        raise ValueError(f"dev_size + test_size ({held}) must be smaller than the corpus ({n})")
    positions = list(range(n))
    random.Random(seed).shuffle(positions)
    dev_positions = positions[:dev_size]
    test_positions = positions[dev_size : dev_size + test_size]
    held_out = set(dev_positions) | set(test_positions)
    train = [corpus[i] for i in range(n) if i not in held_out]
    dev = [corpus[i] for i in dev_positions]
    test = [corpus[i] for i in test_positions]
    return corpus.replaced(train), corpus.replaced(dev), corpus.replaced(test)


def run_filter_pipeline(
    corpus: Corpus,
    config: FilterConfig,
    classifier: Optional[LanguageClassifier] = None,
) -> Tuple[Corpus, Corpus, Corpus, FilterReport]:
    """Run the full pipeline and return (train, dev, test, report).

    The report's removal counts plus splits always sum to the input size.
    Degenerate triplets (empty ratio denominator) are counted under the
    ratio stage; their reason code says "degenerate".
    """
    config.validate()
    if classifier is None:
        classifier = NgramLanguageClassifier.default()

    r_c = compute_global_ratio(corpus, config.ratio_numerator, config.ratio_denominator)
    after_ratio, removed_ratio = ratio_filter(
        corpus, r_c, config.t, config.ratio_numerator, config.ratio_denominator
    )
    normalized = normalize_corpus(after_ratio)
    after_dedup, removed_dedup = dedup(normalized)
    after_langid, removed_langid = language_filter(
        after_dedup, classifier, config.expected_src_lang, config.expected_tgt_lang
    )
    held = config.dev_size + config.test_size
    if held > 0 and held >= len(after_langid):
        raise ValueError(
            f"{len(after_langid)} triplet(s) survive filtering, too few for "
            f"dev_size + test_size = {held}"
        )
    train, dev, test = split_holdout(after_langid, config.dev_size, config.test_size, config.seed)

    report = FilterReport(
        input_count=len(corpus),
        removed_by_ratio=len(removed_ratio),
        removed_by_dedup=len(removed_dedup),
        removed_by_langid=len(removed_langid),
        kept_count=len(after_langid),
        r_c=r_c,
        split_sizes=(len(train), len(dev), len(test)),
    )
    report.validate()
    return train, dev, test, report
