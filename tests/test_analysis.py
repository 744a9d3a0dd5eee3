from collections import Counter

import pytest

from apekit.analysis import (
    BUCKET_EDGES,
    SampleSpec,
    curve_report,
    draw_samples,
    mock_scorer,
    run_size_ablation,
    ter_buckets,
    upsample_mix,
)
from apekit.corpus import Corpus, Triplet


def corpus_of_size(n, prefix="t"):
    return Corpus(
        tuple(Triplet(id=f"{prefix}{i:06d}", src=f"s {i}", mt=f"m {i}", pe=f"p {i}") for i in range(n))
    )


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
            SampleSpec(sizes=(100, 50), replicates=1).validate(200)


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            curve_report([])

    def test_min_mean_max_ordering_from_ablation(self):
        corpus = corpus_of_size(3000)
        spec = SampleSpec(sizes=(62, 125, 250, 500, 1000, 1250), replicates=3, base_seed=9)
        results, points = run_size_ablation(draw_samples(corpus, spec), scorer=mock_scorer)
        assert len(results) == 18 and len(points) == 6
        for p in points:
            assert p.min <= p.mean <= p.max


class TestUpsampleMix:
    def test_factor_one_empty_b_is_permutation(self):
        a = corpus_of_size(25)
        mixed = upsample_mix(a, 1, Corpus(), seed=4)
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

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError):
            upsample_mix(corpus_of_size(3), 0, Corpus())

    def test_deterministic_shuffle(self):
        a = corpus_of_size(20)
        assert upsample_mix(a, 2, Corpus(), seed=5) == upsample_mix(a, 2, Corpus(), seed=5)


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

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            ter_buckets(["a"], ["a", "b"], ["r", "r"])
