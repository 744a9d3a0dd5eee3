from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apekit.analysis import (
    BUCKET_EDGES,
    _bucket_index,
    SampleSpec,
    curve_report,
    draw_samples,
    read_scores,
    ter_buckets,
    upsample_mix,
)
from apekit.corpus import DuplicateIdError, Triplet


def corpus_of_size(n, prefix="t"):
    return tuple(Triplet(id=f"{prefix}{i:06d}", src=f"s {i}", mt=f"m {i}", pe=f"p {i}") for i in range(n))


class TestDrawSamples:
    def test_grid_shape(self):
        corpus = corpus_of_size(2000)
        spec = SampleSpec(sizes=(62, 125, 250, 500, 1000, 1250), replicates=3, base_seed=5)
        samples = draw_samples(corpus, spec)
        assert len(samples) == 18
        assert all(len(sample) == size for size, _, sample in samples)

    def test_full_size_sample_is_permutation(self):
        corpus = corpus_of_size(40)
        spec = SampleSpec(sizes=(40,), replicates=1, base_seed=1)
        ((_, _, sample),) = draw_samples(corpus, spec)
        assert sorted(t.id for t in sample) == sorted(t.id for t in corpus)

    def test_deterministic(self):
        corpus = corpus_of_size(300)
        spec = SampleSpec(sizes=(10, 50), replicates=3, base_seed=21)
        assert draw_samples(corpus, spec) == draw_samples(corpus, spec)

    def test_replicates_differ(self):
        corpus = corpus_of_size(300)
        spec = SampleSpec(sizes=(50,), replicates=3, base_seed=21)
        samples = draw_samples(corpus, spec)
        ids = [tuple(t.id for t in sample) for _, _, sample in samples]
        assert len(set(ids)) == 3

    def test_without_replacement(self):
        corpus = corpus_of_size(100)
        spec = SampleSpec(sizes=(60,), replicates=2, base_seed=3)
        for _, _, sample in draw_samples(corpus, spec):
            assert len({t.id for t in sample}) == 60

    def test_oversized_rejected(self):
        corpus = corpus_of_size(10)
        with pytest.raises(ValueError):
            draw_samples(corpus, SampleSpec(sizes=(11,), replicates=1))

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError):
            SampleSpec(sizes=(100, 50), replicates=1)

    @pytest.mark.parametrize("sizes, replicates, message", [
        ((), 1, "at least one sample size is required"),
        ((10, 10), 1, "sizes must be strictly ascending"),
        ((0, 10), 1, "sizes must be positive"),
        ((10,), 0, "replicates must be at least 1"),
    ])
    def test_spec_rejects_bad_sizes_and_replicates_without_a_corpus(self, sizes, replicates, message):
        with pytest.raises(ValueError, match=message):
            SampleSpec(sizes=sizes, replicates=replicates)


class TestCurveReport:
    def test_mean_min_max(self):
        points = curve_report([(100, 0, 60.0), (100, 1, 61.0), (100, 2, 62.0)])
        assert len(points) == 1
        point = points[0]
        assert (point.mean, point.min, point.max) == (61.0, 60.0, 62.0)

    def test_single_replicate_collapses(self):
        (point,) = curve_report([(10, 0, 55.5)])
        assert point.mean == point.min == point.max == 55.5

    def test_sorted_by_size(self):
        points = curve_report([(500, 0, 1.0), (10, 0, 2.0), (100, 0, 3.0)])
        assert [p.size for p in points] == [10, 100, 500]

    def test_mean_is_a_left_to_right_fold(self):
        # 1e16 + 1.0 rounds to 1e16. A compensated sum, which the built-in
        # sum of floats is from Python 3.12 on, keeps the 1.0 and gives 1/3.
        (point,) = curve_report([(10, 0, 1e16), (10, 1, 1.0), (10, 2, -1e16)])
        assert point.mean == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            curve_report([])

    def test_min_mean_max_ordering_from_ablation(self):
        # An ablation grid of six sizes and three replicates, largest size
        # first and each size's values out of order.
        values = {62: (41.0, 40.0, 42.0), 125: (44.0, 43.0, 45.0), 250: (47.0, 48.5, 45.5),
                  500: (51.0, 50.5, 51.5), 1000: (54.0, 55.0, 53.0), 1250: (55.5, 56.0, 55.0)}
        results = [(size, replicate, value)
                   for size in reversed(values) for replicate, value in enumerate(values[size])]
        points = curve_report(results)
        assert len(results) == 18
        assert [(p.size, p.min, p.mean, p.max) for p in points] == [
            (62, 40.0, 41.0, 42.0), (125, 43.0, 44.0, 45.0), (250, 45.5, 47.0, 48.5),
            (500, 50.5, 51.0, 51.5), (1000, 53.0, 54.0, 55.0), (1250, 55.0, 55.5, 56.0),
        ]


class TestReadScores:
    def test_out_of_grid_replicate_is_rejected_with_the_cli_message(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("size,replicate,value\n10,0,50\n10,3,51\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_scores(path, SampleSpec(sizes=(10,), replicates=3))
        assert str(err.value) == f"{path}: line 3: replicate 3 is outside 0..2"


class TestUpsampleMix:
    def test_factor_one_empty_b_is_permutation(self):
        a = corpus_of_size(25)
        mixed = upsample_mix(a, 1, (), seed=4)
        assert sorted(t.meta["source_id"] for t in mixed) == sorted(t.id for t in a)

    def test_scaled_mixing_arithmetic(self):
        a = corpus_of_size(1414, prefix="a")
        b = corpus_of_size(5600, prefix="b")
        mixed = upsample_mix(a, 10, b, seed=0)
        assert len(mixed) == 19_740

    def test_every_source_id_appears_factor_times(self):
        a = corpus_of_size(30, prefix="a")
        b = corpus_of_size(10, prefix="b")
        mixed = upsample_mix(a, 10, b, seed=1)
        counts = Counter(t.meta["source_id"] for t in mixed if t.meta and "source_id" in t.meta)
        assert set(counts.values()) == {10}
        assert len(counts) == 30

    def test_content_conserved(self):
        a = corpus_of_size(12, prefix="a")
        b = corpus_of_size(7, prefix="b")
        mixed = upsample_mix(a, 3, b, seed=2)
        expected = Counter()
        for t in a:
            expected[(t.src, t.mt, t.pe)] += 3
        for t in b:
            expected[(t.src, t.mt, t.pe)] += 1
        actual = Counter((t.src, t.mt, t.pe) for t in mixed)
        assert actual == expected

    def test_b_id_equal_to_a_replica_id_rejected(self):
        a = (Triplet(id="x", src="s", mt="m", pe="p"),)
        b = (Triplet(id="x~r0", src="S", mt="M", pe="P"),)
        with pytest.raises(DuplicateIdError, match=r"^duplicate triplet id 'x~r0'$") as caught:
            upsample_mix(a, 1, b)
        assert caught.value.triplet_id == "x~r0"

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError):
            upsample_mix(corpus_of_size(3), 0, ())

    def test_deterministic_shuffle(self):
        a = corpus_of_size(20)
        assert upsample_mix(a, 2, (), seed=5) == upsample_mix(a, 2, (), seed=5)


class TestTerBuckets:
    def test_equal_systems_zero_delta(self):
        refs = ["a b c", "d e f g", "h i"]
        hyps = ["a b c", "d x f g", "q i"]
        analysis = ter_buckets(hyps, list(hyps), refs)
        for bucket in analysis.buckets:
            if bucket.count:
                assert bucket.delta_ter == 0.0

    def test_ten_buckets_partition(self):
        refs = [f"w{i} x{i} y{i} z{i}" for i in range(30)]
        base = [r if i % 3 else f"q{i} x{i} y{i} z{i}" for i, r in enumerate(refs)]
        ape = list(refs)
        analysis = ter_buckets(base, ape, refs)
        assert len(analysis.buckets) == 10
        assert sum(b.count for b in analysis.buckets) == 30

    def test_boundary_value_ten_lands_in_best_bucket(self):
        # one error over ten reference tokens: sentence TER exactly 10.0
        ref = "a b c d e f g h i j"
        hyp = "a b c d e f g h i x"
        analysis = ter_buckets([hyp], [hyp], [ref])
        by_label = {b.label: b for b in analysis.buckets}
        assert by_label["<=10"].count == 1

    def test_sentence_ter_above_100_lands_in_worst_bucket(self):
        analysis = ter_buckets(["x y z w v u"], ["x y z w v u"], ["a"])
        assert analysis.buckets[0].label == ">90"
        assert analysis.buckets[0].count == 1

    def test_improvement_shows_negative_delta(self):
        refs = ["a b c d"]
        base = ["a x c d"]  # 25 TER
        ape = ["a b c d"]  # 0 TER
        analysis = ter_buckets(base, ape, refs)
        improved = [b for b in analysis.buckets if b.count]
        assert len(improved) == 1
        assert improved[0].delta_ter == pytest.approx(-25.0)

    def test_bucket_edges_cover_all_quality_bands(self):
        assert len(BUCKET_EDGES) == 10
        assert BUCKET_EDGES[0][1] == float("inf")
        assert BUCKET_EDGES[-1] == (0.0, 10.0)

    EDGE_VALUES = sorted({edge for bucket in BUCKET_EDGES for edge in bucket if edge != float("inf")})

    @staticmethod
    def rule_index(value):
        """The one bucket whose (low, high] holds ``value``; the last also holds 0."""
        (index,) = [i for i, (low, high) in enumerate(BUCKET_EDGES)
                    if low < value <= high or low == 0.0 == value]
        return index

    @given(st.floats(0, 200))
    def test_bucket_index_follows_the_low_exclusive_rule(self, value):
        assert _bucket_index(value) == self.rule_index(value)

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_bucket_index_puts_each_edge_in_the_bucket_below(self, value):
        assert _bucket_index(value) == self.rule_index(value)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            ter_buckets(["a"], ["a", "b"], ["r", "r"])
