from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.agreement import (
    CANT_DECIDE,
    SYSTEMS,
    AdequacySummary,
    AdequacyTable,
    KappaResult,
    UndefinedKappaError,
    adequacy_summary,
    cohen_kappa,
    pairwise_average_kappa,
    read_adequacy_csv,
    shared_decided_ratings,
    weighted_kappa,
)
from apekit.cli import main


class TestCohenKappa:
    def test_perfect_agreement(self):
        result = cohen_kappa([1, 2, 1, 2], [1, 2, 1, 2])
        assert result.kappa == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        result = cohen_kappa([1, 1, 2, 2], [2, 2, 1, 1])
        assert result.kappa == pytest.approx(-1.0)
        assert result.observed_agreement == 0.0
        assert result.expected_agreement == pytest.approx(0.5)

    def test_half_kappa_fixture(self):
        result = cohen_kappa([1, 2, 1, 2], [1, 2, 2, 2])
        assert result.observed_agreement == pytest.approx(0.75)
        assert result.expected_agreement == pytest.approx(0.5)
        assert result.kappa == pytest.approx(0.5)

    def test_constant_identical_raters_undefined(self):
        with pytest.raises(UndefinedKappaError):
            cohen_kappa([3, 3, 3], [3, 3, 3])

    def test_relabeling_invariance(self):
        a, b = [1, 2, 1, 3], [1, 2, 2, 3]
        relabel = {1: "x", 2: "y", 3: "z"}
        base = cohen_kappa(a, b)
        mapped = cohen_kappa([relabel[v] for v in a], [relabel[v] for v in b])
        assert mapped.kappa == pytest.approx(base.kappa)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            cohen_kappa([1], [1, 2])


class TestWeightedKappa:
    def test_perfect_agreement(self):
        result = weighted_kappa([1, 3, 5, 2], [1, 3, 5, 2])
        assert result.kappa == pytest.approx(1.0)

    def test_hand_table_maximal_disagreement(self):
        # scale 1..5, a=[1,3], b=[3,1]: each item disagrees by 2, weighing
        # 2^2/4^2 = 1/4, so observed disagreement is 1/4; the four marginal
        # pairings weigh 0, 1/4, 1/4, 0 over n^2 = 4, so expected is 1/8:
        # kappa_w = 1 - (1/4)/(1/8) = -1
        result = weighted_kappa([1, 3], [3, 1])
        assert result.observed_agreement == pytest.approx(0.75)
        assert result.expected_agreement == pytest.approx(0.875)
        assert result.kappa == pytest.approx(-1.0, abs=1e-6)

    def test_adjacent_disagreements_score_higher_weighted(self):
        a = [1, 2, 3, 4, 5, 1, 2, 3]
        b = [2, 1, 4, 3, 4, 1, 2, 3]  # all disagreements are adjacent
        plain = cohen_kappa(a, b).kappa
        weighted = weighted_kappa(a, b).kappa
        assert weighted >= plain

    def test_constant_raters_undefined(self):
        with pytest.raises(UndefinedKappaError):
            weighted_kappa([2, 2], [2, 2])

    def test_out_of_scale_rejected(self):
        with pytest.raises(ValueError, match=r"ratings outside scale \[1, 5\]: \[0, 6\]"):
            weighted_kappa([0, 3], [6, 1])


class TestPairwiseAverage:
    def test_two_identical_annotators(self):
        ratings = {"A": [1, 2, 3, 1], "B": [1, 2, 3, 1]}
        result = pairwise_average_kappa(ratings)
        assert result.mean_kappa == pytest.approx(1.0)

    def test_three_annotator_composition(self):
        # A=B gives kappa 1.0; C differs from both identically, 0.5 each.
        a = [1, 2, 1, 2]
        c = [1, 2, 2, 2]
        result = pairwise_average_kappa({"A": a, "B": list(a), "C": c})
        pair_values = sorted(k for _, _, k in result.pairs)
        assert pair_values == pytest.approx([0.5, 0.5, 1.0])
        assert result.mean_kappa == pytest.approx(2 / 3)

    def test_pair_count_for_five_annotators(self):
        ratings = {name: [1, 2, 3, 4, (i % 4) + 1] for i, name in enumerate("ABCDE")}
        result = pairwise_average_kappa(ratings)
        assert len(result.pairs) + result.skipped_pairs == 10

    def test_undefined_pairs_skipped_and_counted(self):
        ratings = {"A": [1, 1, 1], "B": [1, 1, 1], "C": [1, 2, 1]}
        result = pairwise_average_kappa(ratings)
        assert result.skipped_pairs == 1  # A-B is undefined
        assert len(result.pairs) == 2

    def test_single_annotator_rejected(self):
        with pytest.raises(ValueError):
            pairwise_average_kappa({"A": [1, 2]})


def build_table(rows):
    table = AdequacyTable()
    for annotator, item, system, score in rows:
        table.add(annotator, item, system, score)
    return table


class TestAdequacy:
    def test_no_cant_decide_uses_everything(self):
        rows = []
        for item in ("i1", "i2"):
            for system, score in (("nmt", 3), ("ape", 4), ("human", 5)):
                rows.append(("A", item, system, score))
        summary = adequacy_summary(build_table(rows))
        row = summary.per_annotator[0]
        assert row["used"] == row["assigned"] == 2
        assert row["means"] == {"nmt": 3.0, "ape": 4.0, "human": 5.0}

    def test_cant_decide_drops_whole_item(self):
        rows = [
            ("A", "i1", "nmt", 3),
            ("A", "i1", "ape", "X"),
            ("A", "i1", "human", 5),
            ("A", "i2", "nmt", 2),
            ("A", "i2", "ape", 3),
            ("A", "i2", "human", 4),
        ]
        summary = adequacy_summary(build_table(rows))
        row = summary.per_annotator[0]
        assert (row["used"], row["assigned"]) == (1, 2)
        assert row["means"]["nmt"] == 2.0  # only the decided item counts

    def test_used_denominator_convention(self):
        rows = []
        for i in range(603):
            decide = i >= 10  # ten items carry a cant_decide
            rows.append(("A", f"i{i:03d}", "nmt", 3))
            rows.append(("A", f"i{i:03d}", "ape", 4 if decide else "X"))
            rows.append(("A", f"i{i:03d}", "human", 5))
        summary = adequacy_summary(build_table(rows))
        row = summary.per_annotator[0]
        assert (row["used"], row["assigned"]) == (593, 603)

    def test_overall_pools_raw_scores_not_annotator_means(self):
        rows = [
            # A rates one item, B rates three; pooling weighs B more.
            ("A", "i1", "nmt", 1), ("A", "i1", "ape", 1), ("A", "i1", "human", 1),
            ("B", "i1", "nmt", 5), ("B", "i1", "ape", 5), ("B", "i1", "human", 5),
            ("B", "i2", "nmt", 5), ("B", "i2", "ape", 5), ("B", "i2", "human", 5),
            ("B", "i3", "nmt", 5), ("B", "i3", "ape", 5), ("B", "i3", "human", 5),
        ]
        summary = adequacy_summary(build_table(rows))
        pooled = summary.overall["means"]["nmt"]
        assert pooled == pytest.approx((1 + 5 + 5 + 5) / 4)
        mean_of_means = (1.0 + 5.0) / 2
        assert pooled != pytest.approx(mean_of_means)

    def test_score_validation_at_ingestion(self):
        table = AdequacyTable()
        with pytest.raises(ValueError):
            table.add("A", "i1", "nmt", 6)
        with pytest.raises(ValueError):
            table.add("A", "i1", "nmt", 0)
        with pytest.raises(ValueError):
            table.add("A", "i1", "rosetta", 3)


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "adequacy.csv"
        path.write_text(
            "annotator_id,item_id,system,score\n"
            "A,i1,nmt,3\nA,i1,ape,4\nA,i1,human,X\n",
            encoding="utf-8",
        )
        table = read_adequacy_csv(path)
        assert table.scores["A"]["i1"] == {"nmt": 3, "ape": 4, "human": "X"}

    def test_header_cells_are_stripped(self, tmp_path):
        path = tmp_path / "adequacy.csv"
        path.write_text(
            "annotator_id, item_id, system, score\n"
            "A,i1,nmt,3\nA,i1,ape,4\nA,i1,human,5\n",
            encoding="utf-8",
        )
        assert read_adequacy_csv(path).scores["A"]["i1"] == {"nmt": 3, "ape": 4, "human": 5}
        assert main(["adequacy", "--csv", str(path), "--out", str(tmp_path / "adequacy.json")]) == 0

    def test_malformed_rows_list_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,i1,nmt,3\nA,i1,ape\nA,i1,human,9\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_adequacy_csv(path)
        assert "line 2" in str(err.value)
        assert "line 3" in str(err.value)

    def test_line_numbers_count_newlines_inside_quoted_fields(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('A,"i\n1",nmt,3\nA,i2,nmt,bad\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"line 3: bad score 'bad'"):
            read_adequacy_csv(path)

    def test_malformed_rows_name_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,i1,nmt,3\nA,i1,ape\nA,i1,human,4\nA,i2,nmt,3\nA,i2,ape,bad\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_adequacy_csv(path)
        assert str(err.value) == (
            f"{path}: malformed adequacy rows: line 2: expected 4 columns, found 3; line 5: bad score 'bad'"
        )


class TestSharedRatings:
    def test_items_with_any_cant_decide_dropped(self):
        rows = []
        for annotator in ("A", "B"):
            for item in ("i1", "i2"):
                for system in ("nmt", "ape", "human"):
                    rows.append((annotator, item, system, 4))
        rows = [r for r in rows if not (r[0] == "B" and r[1] == "i2" and r[2] == "ape")]
        rows.append(("B", "i2", "ape", "X"))
        items, ratings = shared_decided_ratings(build_table(rows))
        assert items == ["i1"]
        assert len(ratings["A"]) == 3  # one item, three systems


# The kappa, shared-rating and adequacy-summary code before the input rules
# moved into AdequacyTable, kept verbatim as the reference the properties
# below check.
def _old_check_aligned(a, b):
    if len(a) != len(b):
        raise ValueError(f"rating lists must align: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("rating lists must be non-empty")


def _old_cohen_kappa(a, b):
    _old_check_aligned(a, b)
    n = len(a)
    observed = sum(x == y for x, y in zip(a, b)) / n
    marg_a = defaultdict(int)
    marg_b = defaultdict(int)
    for x, y in zip(a, b):
        marg_a[x] += 1
        marg_b[y] += 1
    expected = sum(marg_a[c] * marg_b.get(c, 0) for c in marg_a) / (n * n)
    if expected == 1.0:
        raise UndefinedKappaError("both raters are constant and identical; kappa is undefined")
    kappa = (observed - expected) / (1.0 - expected)
    return KappaResult(kappa, observed, expected, weighting="none")


def _old_weighted_kappa(a, b, scale_min=None, scale_max=None):
    _old_check_aligned(a, b)
    values = list(a) + list(b)
    lo = scale_min if scale_min is not None else min(values)
    hi = scale_max if scale_max is not None else max(values)
    if hi <= lo:
        raise ValueError("ordinal scale needs max > min")
    span_sq = (hi - lo) ** 2
    out_of_scale = [v for v in values if not lo <= v <= hi]
    if out_of_scale:
        raise ValueError(f"ratings outside scale [{lo}, {hi}]: {sorted(set(out_of_scale))}")

    n = len(a)
    marg_a = defaultdict(int)
    marg_b = defaultdict(int)
    observed_dis = 0.0
    for x, y in zip(a, b):
        marg_a[x] += 1
        marg_b[y] += 1
        observed_dis += (x - y) ** 2 / span_sq
    observed_dis /= n
    expected_dis = sum(
        ca * cb * (i - j) ** 2 / span_sq for i, ca in marg_a.items() for j, cb in marg_b.items()
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


def _old_shared_decided_ratings(table):
    annotators = table.annotators()
    if len(annotators) < 2:
        raise ValueError("agreement needs at least two annotators")
    shared = set.intersection(*(set(table.scores[a]) for a in annotators))
    used = []
    for item in sorted(shared):
        cells = [table.scores[a][item] for a in annotators]
        if all(set(c) == set(SYSTEMS) for c in cells) and all(
            c[s] != CANT_DECIDE for c in cells for s in SYSTEMS
        ):
            used.append(item)
    if not used:
        raise ValueError("no fully decided items shared by all annotators")
    ratings = {
        a: [table.scores[a][item][s] for item in used for s in SYSTEMS] for a in annotators
    }
    return used, ratings


def _old_adequacy_summary(table):
    rows = []
    pooled = {system: [] for system in SYSTEMS}
    pooled_used = pooled_assigned = 0
    for annotator in table.annotators():
        items = table.scores[annotator]
        used_scores = {system: [] for system in SYSTEMS}
        used = 0
        for item in sorted(items):
            by_system = items[item]
            if set(by_system) != set(SYSTEMS):
                raise ValueError(
                    f"annotator {annotator!r} item {item!r}: expected scores for all of {SYSTEMS}"
                )
            if any(by_system[s] == CANT_DECIDE for s in SYSTEMS):
                continue
            used += 1
            for system in SYSTEMS:
                used_scores[system].append(by_system[system])
                pooled[system].append(by_system[system])
        assigned = len(items)
        pooled_used += used
        pooled_assigned += assigned
        rows.append(
            {
                "annotator": annotator,
                "means": {
                    s: (sum(v) / len(v) if v else None) for s, v in used_scores.items()
                },
                "used": used,
                "assigned": assigned,
            }
        )
    overall = {
        "annotator": "overall",
        "means": {s: (sum(v) / len(v) if v else None) for s, v in pooled.items()},
        "used": pooled_used,
        "assigned": pooled_assigned,
    }
    return AdequacySummary(per_annotator=tuple(rows), overall=overall)


def _outcome(function, *args):
    """The result, or the type and message of the error raised."""
    try:
        return function(*args)
    except ValueError as exc:
        return type(exc), str(exc)


SCORES = st.integers(1, 5)
RATING_PAIRS = st.integers(0, 30).flatmap(
    lambda n: st.tuples(st.lists(SCORES, min_size=n, max_size=n), st.lists(SCORES, min_size=n, max_size=n))
)


@settings(max_examples=300, deadline=None)
@given(RATING_PAIRS, st.lists(SCORES, max_size=3))
def test_cohen_kappa_matches_reference(pair, extra):
    a, b = pair
    assert _outcome(cohen_kappa, a, b) == _outcome(_old_cohen_kappa, a, b)
    assert _outcome(cohen_kappa, a + extra, b) == _outcome(_old_cohen_kappa, a + extra, b)
    labels = {1: "x", 2: "y", 3: "z", 4: "w", 5: "v"}
    a_labels, b_labels = [labels[v] for v in a], [labels[v] for v in b]
    assert _outcome(cohen_kappa, a_labels, b_labels) == _outcome(_old_cohen_kappa, a_labels, b_labels)


@settings(max_examples=300, deadline=None)
@given(RATING_PAIRS, st.lists(st.integers(0, 6), max_size=3))
def test_weighted_kappa_matches_reference(pair, extra):
    # The reference on the adequacy scale 1..5; `extra` may fall outside it.
    a, b = pair
    assert _outcome(weighted_kappa, a, b) == _outcome(_old_weighted_kappa, a, b, 1, 5)
    assert _outcome(weighted_kappa, a, b + extra) == _outcome(_old_weighted_kappa, a, b + extra, 1, 5)
    assert _outcome(weighted_kappa, a + extra, b + extra) == _outcome(_old_weighted_kappa, a + extra, b + extra, 1, 5)


# A complete table with no repeated rating: each annotator rates a subset
# of the items, always on all three systems, once. Rows are added in a
# drawn order.
CELL = st.tuples(*(st.one_of(SCORES, st.just(CANT_DECIDE)) for _ in SYSTEMS))
TABLE_ROWS = st.dictionaries(
    st.tuples(st.sampled_from(["A", "B", "C", "D", "E"]), st.sampled_from([f"i{k}" for k in range(8)])),
    CELL,
    max_size=30,
).flatmap(
    lambda cells: st.permutations(
        [(a, i, s, score) for (a, i), scores in cells.items() for s, score in zip(SYSTEMS, scores)]
    )
)


@settings(max_examples=300, deadline=None)
@given(TABLE_ROWS)
def test_shared_ratings_and_summary_match_reference(rows):
    table = build_table(rows)
    assert _outcome(shared_decided_ratings, table) == _outcome(_old_shared_decided_ratings, table)
    assert _outcome(adequacy_summary, table) == _outcome(_old_adequacy_summary, table)
