"""Experiment protocols: data-size curves, corpus mixing, TER buckets.

Everything here is seeded and deterministic. The harness never trains a
model; it draws training subsets, ingests externally produced scores or
system outputs, and aggregates them. A mock scorer makes the full
data-size protocol exercisable hermetically.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .corpus import Corpus, Triplet
from .ter import ter_corpus, ter_sentence
from .tokenizer import TER_NORMALIZED_TOKENIZER, TokenizerConfig

DEFAULT_REPLICATES = 3

# Bucket edges over baseline sentence TER on the 0-100 scale, worst first.
# Each bucket is (low, high]: low-exclusive, high-inclusive, except the
# first which is open above and the last which includes 0.
BUCKET_EDGES: Tuple[Tuple[float, float], ...] = (
    (90.0, float("inf")),
    (80.0, 90.0),
    (70.0, 80.0),
    (60.0, 70.0),
    (50.0, 60.0),
    (40.0, 50.0),
    (30.0, 40.0),
    (20.0, 30.0),
    (10.0, 20.0),
    (0.0, 10.0),
)


def bucket_label(low: float, high: float) -> str:
    if high == float("inf"):
        return f">{low:g}"
    if low == 0.0:
        return f"<={high:g}"
    return f"{low:g}-{high:g}"


@dataclass(frozen=True)
class SampleSpec:
    """Subsample sizes, replicate count, and the seed all draws derive from."""

    sizes: Tuple[int, ...]
    replicates: int = DEFAULT_REPLICATES
    base_seed: int = 0

    def validate(self, corpus_size: int) -> None:
        if not self.sizes:
            raise ValueError("at least one sample size is required")
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("sizes must be strictly ascending")
        if self.sizes[0] <= 0:
            raise ValueError("sizes must be positive")
        if self.sizes[-1] > corpus_size:
            raise ValueError(
                f"largest sample size {self.sizes[-1]} exceeds the corpus ({corpus_size})"
            )
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")


def _derived_seed(base_seed: int, size: int, replicate: int) -> int:
    # Fixed fan-out so each (size, replicate) draw is independent yet
    # reproducible from the single base seed.
    return base_seed ^ (size * 2_654_435_761 + replicate + 1)


def draw_samples(corpus: Corpus, spec: SampleSpec) -> List[Tuple[int, int, Corpus]]:
    """Uniform without-replacement subsamples for every (size, replicate).

    Draws are independent across the grid; samples of the same size may
    overlap. Deterministic for a given (corpus, spec).
    """
    spec.validate(len(corpus))
    out = []
    for size in spec.sizes:
        for replicate in range(spec.replicates):
            rng = random.Random(_derived_seed(spec.base_seed, size, replicate))
            positions = rng.sample(range(len(corpus)), size)
            sample = corpus.replaced(corpus[i] for i in positions)
            out.append((size, replicate, sample))
    return out


@dataclass(frozen=True)
class CurvePoint:
    """Aggregate of one sample size across replicates."""

    size: int
    mean: float
    min: float
    max: float
    metric: str = "metric"

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "metric": self.metric,
        }


def curve_report(
    results: Sequence[Tuple[int, int, float]], metric: str = "metric"
) -> List[CurvePoint]:
    """Collapse (size, replicate, value) rows into per-size curve points."""
    if not results:
        raise ValueError("curve report needs at least one result")
    by_size: Dict[int, List[float]] = {}
    for size, _replicate, value in results:
        by_size.setdefault(size, []).append(value)
    points = []
    for size in sorted(by_size):
        values = by_size[size]
        points.append(
            CurvePoint(
                size=size,
                mean=sum(values) / len(values),
                min=min(values),
                max=max(values),
                metric=metric,
            )
        )
    return points


def mock_scorer(size: int, replicate: int, sample: Corpus) -> float:
    """Deterministic stand-in for an externally trained system's score.

    Saturating in the sample size with a small content-dependent wobble,
    so curve plumbing can be exercised without any model in the loop.
    """
    digest = hashlib.sha256()
    for t in sample:
        digest.update(t.id.encode("utf-8"))
    wobble = int.from_bytes(digest.digest()[:4], "big") / 2**32
    return 40.0 + 25.0 * (1.0 - 2.0 ** (-size / 500.0)) + 2.0 * wobble


def run_size_ablation(
    samples: Sequence[Tuple[int, int, Corpus]],
    scorer: Callable[[int, int, Corpus], float] = mock_scorer,
    metric: str = "metric",
) -> Tuple[List[Tuple[int, int, float]], List[CurvePoint]]:
    """Score every sample from ``draw_samples`` and aggregate the curve."""
    results = [(size, replicate, scorer(size, replicate, sample)) for size, replicate, sample in samples]
    return results, curve_report(results, metric=metric)


def upsample_mix(a: Corpus, factor: int, b: Corpus, seed: int = 0) -> Corpus:
    """Replicate corpus ``a`` ``factor`` times, append ``b``, and shuffle.

    Replicas get a ``~r<k>`` id suffix to keep ids unique; the original id
    is preserved in meta as ``source_id``. The shuffle is seeded.
    """
    if factor < 1:
        raise ValueError("upsampling factor must be at least 1")
    mixed: List[Triplet] = []
    for k in range(factor):
        for t in a:
            mixed.append(
                replace(
                    t,
                    id=f"{t.id}~r{k}",
                    meta={**dict(t.meta or {}), "source_id": t.id, "replicate": str(k)},
                )
            )
    mixed.extend(b)
    random.Random(seed).shuffle(mixed)
    return Corpus(tuple(mixed), a.src_lang, a.tgt_lang)


@dataclass(frozen=True)
class Bucket:
    label: str
    low: float
    high: float
    count: int
    baseline_ter: Optional[float]
    ape_ter: Optional[float]
    delta_ter: Optional[float]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "low": self.low,
            "high": None if self.high == float("inf") else self.high,
            "count": self.count,
            "baseline_ter": self.baseline_ter,
            "ape_ter": self.ape_ter,
            "delta_ter": self.delta_ter,
        }


@dataclass(frozen=True)
class BucketAnalysis:
    """Per-bucket corpus TER of baseline vs APE, worst baseline bucket first.

    TER values are on the 0-100 scale; delta_ter is APE minus baseline, so
    negative means the post-editor improved that quality band.
    """

    buckets: Tuple[Bucket, ...]
    total: int

    def to_dict(self) -> dict:
        return {"total": self.total, "buckets": [b.to_dict() for b in self.buckets]}


def _bucket_index(sentence_ter_pct: float) -> int:
    for idx, (low, high) in enumerate(BUCKET_EDGES):
        if low < sentence_ter_pct <= high or (low == 0.0 and sentence_ter_pct <= high):
            return idx
    raise AssertionError(f"sentence TER {sentence_ter_pct} fell through the bucket ranges")


def ter_buckets(
    baseline_hyps: Sequence[str],
    ape_hyps: Sequence[str],
    refs: Sequence[str],
    tok: TokenizerConfig = TER_NORMALIZED_TOKENIZER,
) -> BucketAnalysis:
    """Split items by baseline sentence TER and compare corpus TER per bucket."""
    if not (len(baseline_hyps) == len(ape_hyps) == len(refs)):
        raise ValueError(
            "aligned inputs required: "
            f"|baseline|={len(baseline_hyps)} |ape|={len(ape_hyps)} |refs|={len(refs)}"
        )
    if len(refs) == 0:
        raise ValueError("bucket analysis needs at least one item")

    members: Dict[int, List[int]] = {idx: [] for idx in range(len(BUCKET_EDGES))}
    for i, (hyp, ref) in enumerate(zip(baseline_hyps, refs)):
        score, _ = ter_sentence(hyp, ref, tok)
        members[_bucket_index(score.score * 100.0)].append(i)

    buckets = []
    for idx, (low, high) in enumerate(BUCKET_EDGES):
        items = members[idx]
        if items:
            base = ter_corpus([baseline_hyps[i] for i in items], [refs[i] for i in items], tok)
            ape = ter_corpus([ape_hyps[i] for i in items], [refs[i] for i in items], tok)
            base_pct, ape_pct = base.score * 100.0, ape.score * 100.0
            delta = ape_pct - base_pct
        else:
            base_pct = ape_pct = delta = None
        buckets.append(
            Bucket(
                label=bucket_label(low, high),
                low=low,
                high=high,
                count=len(items),
                baseline_ter=base_pct,
                ape_ter=ape_pct,
                delta_ter=delta,
            )
        )
    return BucketAnalysis(buckets=tuple(buckets), total=len(refs))
