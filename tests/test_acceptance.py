"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import hashlib
import itertools
import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from apekit.agreement import cohen_kappa, weighted_kappa
from apekit.analysis import upsample_mix
from apekit.bleu import bleu_corpus
from apekit.bootstrap import bootstrap_significance
from apekit.chrf import chrf
from apekit.cli import main
from apekit.corpus import Triplet, count_chars, write_corpus
from apekit.filtering import FilterConfig, run_filter_pipeline, split_holdout
from apekit.segments import postprocess_with_report, preprocess
from apekit.ter import edit_distance, ter_corpus, ter_sentence
from apekit.tokenizer import TokenizerConfig, tokenize

from oracles import ConstantClassifier, ter_oracle, total_edits

WS = TokenizerConfig(scheme="whitespace")


@contextmanager
def verdict(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


# --------------------------------------------------------------- criterion 1

HAND_SCORED = [
    ("a b c", "a b c", 0),
    ("b a c", "a b c", 1),
    ("a x c", "a b c", 1),
    ("", "a b c", 3),
    ("a b", "a b c", 1),
    ("a b c d", "a b c", 1),
    ("c a b", "a b c", 1),
    ("b c a", "a b c", 1),
    ("a b c", "c b a", 2),
    ("a a", "a", 1),
    ("a", "a a", 1),
    ("x y z", "a b c", 3),
    ("a c b d", "a b c d", 1),
    ("d a b c", "a b c d", 1),
    ("b a", "a b", 1),
    ("the cat sat", "the cat sat", 0),
    ("sat the cat", "the cat sat", 1),
    ("a b x c", "a b c", 1),
    ("a b c c", "c a b c", 1),
    ("b b a", "a b b", 1),
]


def _canonical(hyp, ref):
    # TER is invariant under bijective token renaming (verified as a
    # property in test_ter); caching by canonical form avoids rescoring
    # the six permutations of the vocabulary.
    mapping = {}

    def name(token):
        if token not in mapping:
            mapping[token] = "abc"[len(mapping)]
        return mapping[token]

    return tuple(name(t) for t in hyp), tuple(name(t) for t in ref)


def _bound_triple(hyp_text, ref_text):
    plain = edit_distance(tokenize(hyp_text, WS), tokenize(ref_text, WS))
    greedy = total_edits(ter_sentence(hyp_text, ref_text, WS)[0])
    oracle = ter_oracle(hyp_text, ref_text, tok=WS)
    return oracle, greedy, plain


def test_criterion_1_ter_oracle_bounds():
    with verdict(1, "TER oracle bounds on exhaustive and random pairs, hand cases exact"):
        start = time.monotonic()
        vocab = ("a", "b", "c")
        strings = [()]
        for length in range(1, 6):
            strings.extend(itertools.product(vocab, repeat=length))
        refs = [s for s in strings if s]

        cache = {}
        violations = 0
        for hyp in strings:
            for ref in refs:
                key = _canonical(hyp, ref)
                triple = cache.get(key)
                if triple is None:
                    triple = _bound_triple(" ".join(key[0]), " ".join(key[1]))
                    cache[key] = triple
                oracle, greedy, plain = triple
                if not oracle <= greedy <= plain:
                    violations += 1
        assert violations == 0

        rng = random.Random(20_24)
        for _ in range(1000):
            hyp = " ".join(rng.choices(vocab, k=rng.randint(0, 8)))
            ref = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
            oracle, greedy, plain = _bound_triple(hyp, ref)
            assert oracle <= greedy <= plain, (hyp, ref)

        for hyp, ref, expected in HAND_SCORED:
            score, _ = ter_sentence(hyp, ref, WS)
            assert total_edits(score) == expected, (hyp, ref)
            assert score.score == pytest.approx(expected / len(tokenize(ref, WS)))
        assert ("b a c", "a b c", 1) in HAND_SCORED and len(HAND_SCORED) == 20

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 2


def test_criterion_2_metric_fixtures():
    with verdict(2, "BLEU/ChrF/TER hand fixtures at stated tolerances"):
        identity = ["the cat sat on the mat", "night falls on the harbour"]
        assert bleu_corpus(identity, list(identity)).score == pytest.approx(100.0, abs=1e-6)

        clipped = bleu_corpus(["the the the the the the the"], ["the cat is on the mat"])
        assert clipped.precisions[0] == pytest.approx(2 / 7, abs=1e-9)

        # orders 1-3 have n-grams: P = (1 + 1 + 0) / 3, R = (2/3 + 1/2 + 0) / 3, so F_2 = 14/33
        assert chrf(["ab"], ["abc"]) == pytest.approx(42.4242, abs=1e-3)

        hyps = ["a x", "a b c d e f g h"]
        refs = ["a b", "a b c d e f g h"]
        assert ter_corpus(hyps, refs, WS).score == 0.1


# --------------------------------------------------------------- criterion 3


def _criterion_3_corpus():
    rows = []
    for i in range(9300):
        rows.append(
            Triplet(
                id=f"base{i:05d}",
                src=f"src{i:05d}" + "x" * 12,
                mt=f"mt{i:05d}" + "z" * 13,
                pe=f"pe{i:05d}" + "y" * 13,
            )
        )
    for i in range(200):  # duplicates of the first 200, with a longer pe
        base = rows[i]
        rows.append(
            Triplet(id=f"dup{i:05d}", src=base.src, mt=base.mt, pe=base.pe + "aa")
        )
    for i in range(500):  # ratio outliers: src three times the pe length
        rows.append(
            Triplet(
                id=f"out{i:05d}",
                src=f"osrc{i:05d}" + "x" * 51,
                mt=f"omt{i:05d}" + "z" * 12,
                pe=f"ope{i:05d}" + "y" * 11,
            )
        )
    return tuple(rows)


def test_criterion_3_filter_pipeline():
    with verdict(3, "filter pipeline: planted faults removed, counts reconcile, deterministic"):
        start = time.monotonic()
        corpus = _criterion_3_corpus()
        assert len(corpus) == 10_000
        config = FilterConfig(
            dev_size=500, test_size=500, seed=77, expected_src_lang="en", expected_tgt_lang="en"
        )
        classifier = ConstantClassifier("en")

        train, dev, test, report = run_filter_pipeline(corpus, config, classifier)
        removals = report.removed_by_ratio + report.removed_by_dedup + report.removed_by_langid
        assert report.input_count == report.kept_count + removals
        assert report.removed_by_ratio == 500
        assert report.removed_by_dedup == 200
        assert report.removed_by_langid == 0
        assert report.split_sizes == (8300, 500, 500)

        survivors = {t.src: t for split in (train, dev, test) for t in split}
        for i in range(200):
            dup_src = f"src{i:05d}" + "x" * 12
            assert count_chars(survivors[dup_src].pe) == 22  # longest pe won

        again = run_filter_pipeline(corpus, config, classifier)
        assert again[:3] == (train, dev, test)
        assert again[3].to_dict() == report.to_dict()

        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 4


def test_criterion_4_table_arithmetic():
    with verdict(4, "161,413 triplets split into 141,413 / 10,000 / 10,000"):
        start = time.monotonic()
        corpus = tuple(
            Triplet(id=str(i), src=f"s{i}", mt=f"m{i}", pe=f"p{i}")
            for i in range(161_413)
        )
        train, dev, test = split_holdout(corpus, 10_000, 10_000, seed=1)
        assert (len(train), len(dev), len(test)) == (141_413, 10_000, 10_000)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 5


def _subtitle_field(rng, n_br):
    def piece():
        words = " ".join(rng.choices(["la", "da", "oh", "hey", "nacht", "singt"], k=rng.randint(1, 4)))
        out = words
        if rng.random() < 0.5:
            out = f"<i>{out}</i>"
        if rng.random() < 0.5:
            out = "♪ " + out + (" ♪" if rng.random() < 0.5 else "")
        if rng.random() < 0.5:
            out = "- " + out
        return out

    parts = [piece() for _ in range(n_br + 1)]
    seps = [rng.choice(["<br>", "<br/>", "<br />", "<BR>"]) for _ in range(n_br)]
    text = parts[0]
    for sep, part in zip(seps, parts[1:]):
        text += sep + part
    return text


def test_criterion_5_round_trip():
    with verdict(5, "1000/1000 byte-identical mt restorations through pre/postprocess"):
        rng = random.Random(555)
        restored_ok = 0
        for case in range(1000):
            n_br = rng.randint(1, 2)  # every triplet carries matched <br> counts
            triplet = Triplet(
                id=str(case),
                src=_subtitle_field(rng, n_br),
                mt=_subtitle_field(rng, n_br),
                pe=_subtitle_field(rng, n_br),
            )
            parts, log = preprocess(triplet)
            if postprocess_with_report([p.mt for p in parts], log, "mt")[0] == triplet.mt:
                restored_ok += 1
        assert restored_ok == 1000


# --------------------------------------------------------------- criterion 6


def test_criterion_6_statistics():
    with verdict(6, "kappa fixtures exact, bootstrap p=1 for identical systems, deterministic"):
        assert cohen_kappa([1, 1, 2, 2], [2, 2, 1, 1]).kappa == pytest.approx(-1.0, abs=1e-6)
        assert cohen_kappa([1, 2, 1, 2], [1, 2, 2, 2]).kappa == pytest.approx(0.5, abs=1e-6)
        assert cohen_kappa([1, 2, 1, 2], [1, 2, 1, 2]).kappa == pytest.approx(1.0, abs=1e-6)
        assert weighted_kappa([1, 3], [3, 1]).kappa == pytest.approx(-1.0, abs=1e-6)

        refs = [f"sentence {i} about the weather today" for i in range(30)]
        hyps = [r.replace("weather", "wetter") for r in refs]
        for seed in range(100):
            result = bootstrap_significance(hyps, list(hyps), refs, n_samples=20, seed=seed)
            assert result.p_value == 1.0
            assert result.ties == 20

        one = bootstrap_significance(hyps, refs, refs, n_samples=500, seed=42)
        two = bootstrap_significance(hyps, refs, refs, n_samples=500, seed=42)
        assert one == two


# --------------------------------------------------------------- criterion 7


def test_criterion_7_protocol_shape(tmp_path):
    with verdict(7, "ablate draws 18 digested samples, 18 scores give 6 points; buckets partition with zero deltas"):
        rows = [
            Triplet(id=f"{i:05d}", src=f"source {i}", mt=f"mt {i}", pe=f"edit {i}")
            for i in range(1500)
        ]
        corpus_path = tmp_path / "train.jsonl"
        write_corpus(tuple(rows), corpus_path)
        sizes = "62,125,250,500,1000,1250"
        draw_path = tmp_path / "draw.json"
        code = main(
            [
                "ablate", "draw",
                "--in", str(corpus_path),
                "--sizes", sizes,
                "--replicates", "3",
                "--seed", "7",
                "--emit-samples", str(tmp_path / "samples"),
                "--out", str(draw_path),
            ]
        )
        assert code == 0
        samples = json.loads(draw_path.read_text(encoding="utf-8"))["samples"]
        assert len(samples) == 18
        for sample in samples:
            assert sample["sha256"] == hashlib.sha256(Path(sample["path"]).read_bytes()).hexdigest()

        # One externally produced score per drawn sample.
        scores_path = tmp_path / "scores.csv"
        scores_path.write_text(
            "".join(f"{s['size']},{s['replicate']},{40 + s['size'] / 100 + s['replicate']}\n" for s in samples),
            encoding="utf-8",
        )
        curve_path = tmp_path / "curve.json"
        code = main(["ablate", "curve", "--scores", str(scores_path), "--sizes", sizes, "--replicates", "3",
                     "--out", str(curve_path)])
        assert code == 0
        curve = json.loads(curve_path.read_text(encoding="utf-8"))
        assert curve["n_samples"] == 18
        assert len(curve["results"]) == 18
        assert len(curve["points"]) == 6
        for point in curve["points"]:
            assert point["min"] < point["mean"] < point["max"]

        rng = random.Random(3)
        refs = [" ".join(rng.choices("wer das wie nun gut tag".split(), k=6)) for _ in range(40)]
        base = [r if i % 2 else r.replace(r.split()[0], "xxx", 1) for i, r in enumerate(refs)]
        ref_path = tmp_path / "ref.txt"
        base_path = tmp_path / "base.txt"
        ref_path.write_text("".join(l + "\n" for l in refs), encoding="utf-8")
        base_path.write_text("".join(l + "\n" for l in base), encoding="utf-8")
        buckets_path = tmp_path / "buckets.json"
        code = main(
            [
                "buckets",
                "--baseline", str(base_path),
                "--ape", str(base_path),
                "--ref", str(ref_path),
                "--out", str(buckets_path),
            ]
        )
        assert code == 0
        analysis = json.loads(buckets_path.read_text(encoding="utf-8"))["analysis"]
        assert len(analysis["buckets"]) == 10
        assert sum(b["count"] for b in analysis["buckets"]) == 40
        for bucket in analysis["buckets"]:
            if bucket["count"]:
                assert bucket["delta_ter"] == 0.0


# --------------------------------------------------------------- criterion 8


def test_criterion_8_upsampled_mixing():
    with verdict(8, "10x upsampling of 1,414 plus 5,600 yields 19,740 with exact multiplicity"):
        a = tuple(Triplet(id=f"a{i:04d}", src=f"s{i}", mt=f"m{i}", pe=f"p{i}") for i in range(1414))
        b = tuple(Triplet(id=f"b{i:04d}", src=f"S{i}", mt=f"M{i}", pe=f"P{i}") for i in range(5600))
        mixed = upsample_mix(a, 10, b, seed=9)
        assert len(mixed) == 19_740
        counts = Counter(
            t.meta["source_id"] for t in mixed if t.meta and "source_id" in t.meta
        )
        assert len(counts) == 1414
        assert set(counts.values()) == {10}
