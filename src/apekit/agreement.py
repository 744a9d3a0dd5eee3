"""Inter-annotator agreement and adequacy-score aggregation.

Cohen's kappa (plain and quadratically weighted), averaged over annotator
pairs, plus the adequacy table summary that drops an annotator's item
whenever any of its three system scores is "can't decide".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Dict, List, Mapping, Sequence, Tuple

from .corpus import read_csv

CANT_DECIDE = "X"
SYSTEMS = ("nmt", "ape", "human")
ADEQUACY_MIN, ADEQUACY_MAX = 1, 5


class UndefinedKappaError(ValueError):
    """Chance agreement leaves no room for correction (kappa undefined)."""


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    observed_agreement: float
    expected_agreement: float
    weighting: str  # "none" or "quadratic"


def _marginals(a: Sequence, b: Sequence) -> Tuple[int, Counter, Counter]:
    """Item count and each rater's category counts, in first-seen order."""
    if len(a) != len(b):
        raise ValueError(f"rating lists must align: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("rating lists must be non-empty")
    return len(a), Counter(a), Counter(b)


def cohen_kappa(a: Sequence, b: Sequence) -> KappaResult:
    """Chance-corrected exact agreement between two raters.

    observed = fraction of identical ratings; expected = sum over
    categories of the product of the raters' marginal proportions.
    """
    n, marg_a, marg_b = _marginals(a, b)
    observed = sum(x == y for x, y in zip(a, b)) / n
    expected = sum(marg_a[c] * marg_b[c] for c in marg_a) / (n * n)
    if expected == 1.0:
        raise UndefinedKappaError("both raters are constant and identical; kappa is undefined")
    kappa = (observed - expected) / (1.0 - expected)
    return KappaResult(kappa, observed, expected, weighting="none")


def weighted_kappa(a: Sequence[int], b: Sequence[int]) -> KappaResult:
    """Quadratically weighted kappa for adequacy ratings.

    Disagreement between categories i and j weighs (i-j)^2 / (max-min)^2
    on the adequacy scale ADEQUACY_MIN..ADEQUACY_MAX, so near misses cost
    less than distant ones.
    """
    n, marg_a, marg_b = _marginals(a, b)
    lo, hi = ADEQUACY_MIN, ADEQUACY_MAX
    span_sq = (hi - lo) ** 2
    out_of_scale = [v for v in (*a, *b) if not lo <= v <= hi]
    if out_of_scale:
        raise ValueError(f"ratings outside scale [{lo}, {hi}]: {sorted(set(out_of_scale))}")

    observed_dis = 0.0
    for x, y in zip(a, b):
        observed_dis += (x - y) ** 2 / span_sq
    observed_dis /= n
    # Float sums that reach a report are left folds: sum() compensates from Python 3.12 on.
    expected_dis = reduce(
        add, (ca * cb * (i - j) ** 2 / span_sq for i, ca in marg_a.items() for j, cb in marg_b.items()), 0.0
    ) / (n * n)
    if expected_dis == 0.0:
        raise UndefinedKappaError("no expected disagreement; weighted kappa is undefined")
    kappa = 1.0 - observed_dis / expected_dis
    return KappaResult(
        kappa,
        observed_agreement=1.0 - observed_dis,
        expected_agreement=1.0 - expected_dis,
        weighting="quadratic",
    )


@dataclass(frozen=True)
class PairwiseKappa:
    """Mean kappa over all unordered annotator pairs."""

    mean_kappa: float
    pairs: Tuple[Tuple[str, str, float], ...]
    skipped_pairs: int
    weighting: str

    def to_dict(self) -> dict:
        return {**vars(self), "pairs": [{"a": a, "b": b, "kappa": k} for a, b, k in self.pairs]}


def pairwise_average_kappa(ratings: Mapping[str, Sequence], weighting: str = "none") -> PairwiseKappa:
    """Average kappa over annotator pairs, items aligned by position.

    Pairs whose kappa is undefined are skipped and counted. Quadratic
    weighting is on the adequacy scale (see ``weighted_kappa``).
    """
    if weighting not in ("none", "quadratic"):
        raise ValueError(f"unknown weighting {weighting!r}")
    names = sorted(ratings)
    if len(names) < 2:
        raise ValueError("pairwise agreement needs at least two annotators")
    lengths = {len(ratings[n]) for n in names}
    if len(lengths) != 1:
        raise ValueError("annotators rated different numbers of items")

    pairs: List[Tuple[str, str, float]] = []
    skipped = 0
    for i, name_a in enumerate(names):
        for name_b in names[i + 1 :]:
            try:
                if weighting == "quadratic":
                    result = weighted_kappa(ratings[name_a], ratings[name_b])
                else:
                    result = cohen_kappa(ratings[name_a], ratings[name_b])
            except UndefinedKappaError:
                skipped += 1
                continue
            pairs.append((name_a, name_b, result.kappa))
    if not pairs:
        raise UndefinedKappaError("kappa undefined for every annotator pair")
    mean = reduce(add, (k for _, _, k in pairs), 0.0) / len(pairs)  # a left fold, as in weighted_kappa
    return PairwiseKappa(mean, tuple(pairs), skipped, weighting)


@dataclass
class AdequacyTable:
    """Adequacy ratings: annotator -> item -> system -> score or cant_decide.

    Scores are integers 1..5; the string "X" marks "I can't decide". Each
    (annotator, item, system) is rated at most once.
    """

    scores: Dict[str, Dict[str, Dict[str, object]]] = field(default_factory=dict)

    def add(self, annotator: str, item: str, system: str, score) -> None:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}, expected one of {SYSTEMS}")
        if score != CANT_DECIDE and not (
            isinstance(score, int) and ADEQUACY_MIN <= score <= ADEQUACY_MAX
        ):
            raise ValueError(
                f"score must be {ADEQUACY_MIN}..{ADEQUACY_MAX} or {CANT_DECIDE!r}, got {score!r}"
            )
        by_system = self.scores.setdefault(annotator, {}).setdefault(item, {})
        if system in by_system:
            raise ValueError(f"annotator {annotator!r} item {item!r} system {system!r} is rated twice")
        by_system[system] = score

    def annotators(self) -> List[str]:
        return sorted(self.scores)

    def decided_items(self, annotator: str) -> List[str]:
        """The annotator's sorted items whose three scores are all decided;
        an item that lacks a score for some system raises ValueError."""
        decided = []
        for item, by_system in sorted(self.scores[annotator].items()):
            if by_system.keys() != set(SYSTEMS):
                raise ValueError(
                    f"annotator {annotator!r} item {item!r}: expected scores for all of {SYSTEMS}"
                )
            if CANT_DECIDE not in by_system.values():
                decided.append(item)
        return decided


def read_adequacy_csv(path) -> AdequacyTable:
    """Ingest annotator_id,item_id,system,score rows (header optional)."""
    table = AdequacyTable()
    errors = []
    for line_no, row in read_csv(path):
        if not row or (line_no == 1 and [c.strip().lower() for c in row[:2]] == ["annotator_id", "item_id"]):
            continue
        if len(row) != 4:
            errors.append(f"line {line_no}: expected 4 columns, found {len(row)}")
            continue
        annotator, item, system, raw_score = (c.strip() for c in row)
        try:
            score = raw_score if raw_score == CANT_DECIDE else int(raw_score)
        except ValueError:
            errors.append(f"line {line_no}: bad score {raw_score!r}")
            continue
        try:
            table.add(annotator, item, system.lower(), score)
        except ValueError as exc:
            errors.append(f"line {line_no}: {exc}")
    if errors:
        raise ValueError(f"{path}: malformed adequacy rows: " + "; ".join(errors))
    return table


def shared_decided_ratings(table: AdequacyTable) -> Tuple[List[str], Dict[str, List[int]]]:
    """Aligned rating vectors over the items every annotator fully decided.

    An item qualifies when it is among every annotator's decided items.
    The vectors flatten the surviving (item, system) grid in a fixed
    order, ready for kappa.
    """
    annotators = table.annotators()
    if len(annotators) < 2:
        raise ValueError("agreement needs at least two annotators")
    used = sorted(set.intersection(*(set(table.decided_items(a)) for a in annotators)))
    if not used:
        raise ValueError("no fully decided items shared by all annotators")
    ratings = {
        a: [table.scores[a][item][s] for item in used for s in SYSTEMS] for a in annotators
    }
    return used, ratings


@dataclass(frozen=True)
class AdequacySummary:
    """Per-annotator and pooled mean adequacy per system with eval counts."""

    per_annotator: Tuple[dict, ...]
    overall: dict


def _summary_row(name: str, used_scores: Dict[str, List[int]], assigned: int) -> dict:
    return {
        "annotator": name,
        "means": {s: (sum(v) / len(v) if v else None) for s, v in used_scores.items()},
        "used": len(used_scores[SYSTEMS[0]]),
        "assigned": assigned,
    }


def adequacy_summary(table: AdequacyTable) -> AdequacySummary:
    """Mean adequacy per system, keeping only fully decided items.

    An item counts for an annotator only when all three system scores are
    decided. Rows report used vs assigned item counts; the overall row
    pools every used evaluation rather than averaging annotator means.
    """
    annotators = table.annotators()
    decided = {a: table.decided_items(a) for a in annotators}

    def used_scores(names: Sequence[str]) -> Dict[str, List[int]]:
        return {s: [table.scores[a][item][s] for a in names for item in decided[a]] for s in SYSTEMS}

    rows = tuple(_summary_row(a, used_scores([a]), len(table.scores[a])) for a in annotators)
    overall = _summary_row("overall", used_scores(annotators), sum(r["assigned"] for r in rows))
    return AdequacySummary(per_annotator=rows, overall=overall)
