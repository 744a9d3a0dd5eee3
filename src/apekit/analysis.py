"""Experiment protocols: data-size curves, corpus mixing, TER buckets.

Everything here is seeded and deterministic. The harness never trains a
model; it draws training subsets, ingests externally produced scores or
system outputs, and aggregates them. A data-size curve takes two steps
with a model trained outside in between: ``draw_samples`` draws the
subsets to train on, and ``curve_report`` aggregates the (size,
replicate, value) rows that ``read_scores`` reads from the scores of the
models trained on them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import Corpus, DuplicateIdError, Triplet, read_csv
from .ter import ter_corpus, ter_sentence
from .tokenizer import TER_NORMALIZED_TOKENIZER

DEFAULT_REPLICATES = 3

# Bucket edges over baseline sentence TER on the 0-100 scale, worst first and
# contiguous. Each bucket is (low, high]: low-exclusive, high-inclusive,
# except the first which is open above and the last which includes 0.
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

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("at least one sample size is required")
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("sizes must be strictly ascending")
        if self.sizes[0] <= 0:
            raise ValueError("sizes must be positive")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")


def read_scores(path, spec: SampleSpec) -> List[Tuple[int, int, float]]:
    """Read external size,replicate,value rows (a header on line 1 only); each must be
    a distinct run of the grid of ``spec``, whose sizes each need a row. A fault raises
    ValueError naming the line and the grid by ablate curve's --sizes and --replicates."""
    rows = []
    runs = set()
    for line_no, row in read_csv(path):
        if not row or (line_no == 1 and row[0].strip().lower() == "size"):
            continue
        where = f"{path}: line {line_no}"
        if len(row) != 3:
            raise ValueError(f"{where}: expected size,replicate,value")
        try:
            size, replicate, value = int(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if not math.isfinite(value):
            raise ValueError(f"{where}: value {row[2]!r} is not a finite number")
        if size not in spec.sizes:
            raise ValueError(f"{where}: size {size} is not in --sizes")
        if not 0 <= replicate < spec.replicates:
            raise ValueError(f"{where}: replicate {replicate} is outside 0..{spec.replicates - 1}")
        if (size, replicate) in runs:
            raise ValueError(f"{where}: size {size} replicate {replicate} repeats")
        runs.add((size, replicate))
        rows.append((size, replicate, value))
    missing = sorted(set(spec.sizes) - {size for size, _ in runs})
    if missing:
        raise ValueError(f"{path}: no rows for --sizes {','.join(map(str, missing))}")
    return rows


def _derived_seed(base_seed: int, size: int, replicate: int) -> int:
    # Fixed fan-out so each (size, replicate) draw is independent yet
    # reproducible from the single base seed.
    return base_seed ^ (size * 2_654_435_761 + replicate + 1)


def draw_samples(corpus: Corpus, spec: SampleSpec) -> List[Tuple[int, int, Corpus]]:
    """Uniform without-replacement subsamples for every (size, replicate).

    Draws are independent across the grid; samples of the same size may
    overlap. Deterministic for a given (corpus, spec).
    """
    if spec.sizes[-1] > len(corpus):
        raise ValueError(f"largest sample size {spec.sizes[-1]} exceeds the corpus ({len(corpus)})")
    out = []
    for size in spec.sizes:
        for replicate in range(spec.replicates):
            rng = random.Random(_derived_seed(spec.base_seed, size, replicate))
            positions = rng.sample(range(len(corpus)), size)
            out.append((size, replicate, tuple(corpus[i] for i in positions)))
    return out


@dataclass(frozen=True)
class CurvePoint:
    """Aggregate of one sample size across replicates."""

    size: int
    mean: float
    min: float
    max: float
    metric: Optional[str] = "metric"


def curve_report(
    results: Sequence[Tuple[int, int, float]], metric: Optional[str] = "metric"
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
        # The mean is a left fold: sum() compensates float rounding from Python 3.12 on.
        points.append(
            CurvePoint(
                size=size,
                mean=reduce(add, values, 0.0) / len(values),
                min=min(values),
                max=max(values),
                metric=metric,
            )
        )
    return points


def upsample_mix(a: Corpus, factor: int, b: Corpus, seed: int = 0) -> Corpus:
    """Replicate corpus ``a`` ``factor`` times, append ``b``, and shuffle.

    Replicas get a ``~r<k>`` id suffix; the original id is preserved in
    meta as ``source_id``. The shuffle is seeded. These are the only ids
    not read from a file, so an id the mix repeats (say a ``b`` id equal
    to a replica's) raises DuplicateIdError here.
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
    seen = set()
    for t in mixed:
        if t.id in seen:
            raise DuplicateIdError(t.id)
        seen.add(t.id)
    return tuple(mixed)


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
        return {**vars(self), "high": None if self.high == float("inf") else self.high}


@dataclass(frozen=True)
class BucketAnalysis:
    """Per-bucket corpus TER of baseline vs APE, worst baseline bucket first.

    TER values are on the 0-100 scale; delta_ter is APE minus baseline, so
    negative means the post-editor improved that quality band.
    """

    total: int
    buckets: Tuple[Bucket, ...]


def _bucket_index(sentence_ter_pct: float) -> int:
    """The bucket of BUCKET_EDGES holding a value: each later bucket whose
    ``high`` is at or above it moves it one bucket down the table."""
    return sum(high >= sentence_ter_pct for _, high in BUCKET_EDGES[1:])


def ter_buckets(baseline_hyps: Sequence[str], ape_hyps: Sequence[str], refs: Sequence[str]) -> BucketAnalysis:
    """Split items by baseline sentence TER and compare corpus TER per bucket.

    TER is scored with TER_NORMALIZED_TOKENIZER, as ``evaluate`` does by default.
    """
    if not (len(baseline_hyps) == len(ape_hyps) == len(refs)):
        raise ValueError(
            "aligned inputs required: "
            f"|baseline|={len(baseline_hyps)} |ape|={len(ape_hyps)} |refs|={len(refs)}"
        )
    if len(refs) == 0:
        raise ValueError("bucket analysis needs at least one item")

    members: Dict[int, List[int]] = {idx: [] for idx in range(len(BUCKET_EDGES))}
    for i, (hyp, ref) in enumerate(zip(baseline_hyps, refs)):
        score, _ = ter_sentence(hyp, ref, TER_NORMALIZED_TOKENIZER)
        members[_bucket_index(score.score * 100.0)].append(i)

    buckets = []
    for idx, (low, high) in enumerate(BUCKET_EDGES):
        items = members[idx]
        if items:
            bucket_refs = [refs[i] for i in items]
            base = ter_corpus([baseline_hyps[i] for i in items], bucket_refs, TER_NORMALIZED_TOKENIZER)
            ape = ter_corpus([ape_hyps[i] for i in items], bucket_refs, TER_NORMALIZED_TOKENIZER)
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
