import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.corpus import Corpus, Triplet
from apekit.filtering import (
    FilterConfig,
    compute_global_ratio,
    dedup,
    language_filter,
    normalize_punctuation,
    ratio_filter,
    run_filter_pipeline,
    split_holdout,
)
from apekit.langid import NgramLanguageClassifier, TabFileClassifier

from oracles import ConstantClassifier


def corpus_of(rows, **kwargs):
    return Corpus(
        tuple(Triplet(id=f"{i:06d}", src=s, mt=m, pe=p) for i, (s, m, p) in enumerate(rows, 1)),
        **kwargs,
    )


class TestGlobalRatio:
    def test_symmetric_corpus_gives_one(self):
        corpus = corpus_of([("abcd", "wxyz", "pppp")])
        assert compute_global_ratio(corpus, "src", "mt").r_c == 1.0

    def test_hand_arithmetic_two_triplets(self):
        corpus = corpus_of([("a" * 60, "b" * 50, "x"), ("c" * 40, "d" * 30, "y")])
        ratio = compute_global_ratio(corpus, "src", "mt")
        assert ratio.r_c == pytest.approx(100 / 80)
        assert (ratio.numerator_chars, ratio.denominator_chars) == (100, 80)

    def test_single_triplet(self):
        corpus = corpus_of([("abcd", "ab", "ab")])
        assert compute_global_ratio(corpus, "src", "mt").r_c == 2.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            compute_global_ratio(Corpus(), "src", "mt")

    def test_zero_denominator_rejected(self):
        corpus = corpus_of([("abcd", "", "")])
        with pytest.raises(ValueError, match="denominator"):
            compute_global_ratio(corpus, "src", "pe")


class TestRatioFilter:
    def test_below_lower_bound_removed(self):
        corpus = corpus_of([("a" * 10, "m", "p" * 13)])
        ratio = compute_global_ratio(corpus_of([("aa", "m", "aa")]), "src", "pe")  # r_c = 1.0
        kept, removed = ratio_filter(corpus, ratio, 0.2)
        assert len(kept) == 0 and len(removed) == 1
        assert removed[0].meta["removed_reason"] == "ratio"

    def test_centered_kept(self):
        corpus = corpus_of([("a" * 10, "m", "p" * 10)])
        ratio = compute_global_ratio(corpus, "src", "pe")
        kept, removed = ratio_filter(corpus, ratio, 0.2)
        assert len(kept) == 1 and len(removed) == 0

    def test_bounds_inclusive(self):
        # r_c = 1.0, t = 0.2: ratios of exactly 0.8 and 1.2 stay in
        corpus = corpus_of([("a" * 8, "m", "p" * 10), ("a" * 12, "m", "p" * 10), ("a" * 10, "m", "p" * 10)])
        ratio = compute_global_ratio(corpus_of([("ab", "m", "cd")]), "src", "pe")
        kept, removed = ratio_filter(corpus, ratio, 0.2)
        assert len(kept) == 3

    def test_zero_pe_routed_degenerate(self):
        corpus = corpus_of([("abc", "m", "   ")])
        ratio = compute_global_ratio(corpus_of([("ab", "m", "cd")]), "src", "pe")
        kept, removed = ratio_filter(corpus, ratio, 0.2)
        assert removed[0].meta["removed_reason"] == "degenerate"

    def test_default_tolerance_is_point_two(self):
        assert FilterConfig().t == 0.2


class TestNormalizePunctuation:
    def test_curly_quotes(self):
        assert normalize_punctuation("“Hello”") == '"Hello"'

    def test_guillemets_and_nbsp(self):
        assert normalize_punctuation("«Hi» there") == '"Hi" there'

    def test_unmapped_text_unchanged(self):
        text = "plain text! with? punctuation."
        assert normalize_punctuation(text) == text

    def test_dashes_preserved(self):
        assert normalize_punctuation("a – b — c") == "a – b — c"

    def test_double_space_collapsed(self):
        assert normalize_punctuation("a  b   c") == "a b c"

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_idempotent_and_never_longer(self, text):
        once = normalize_punctuation(text)
        assert normalize_punctuation(once) == once
        assert len(once) <= len(text)


class TestDedup:
    def test_exact_duplicates_collapse(self):
        corpus = corpus_of([("a", "b", "c"), ("a", "b", "c")])
        kept, removed = dedup(corpus)
        assert len(kept) == 1 and len(removed) == 1

    def test_longest_pe_survives(self):
        corpus = corpus_of([("a", "b", "short"), ("a", "b", "muchlonger")])
        kept, _ = dedup(corpus)
        assert kept[0].pe == "muchlonger"

    def test_tie_keeps_first(self):
        corpus = corpus_of([("a", "b", "first"), ("a", "b", "fiRst")])
        kept, _ = dedup(corpus)
        assert kept[0].pe == "first"

    def test_idempotent(self):
        corpus = corpus_of([("a", "b", "x"), ("a", "b", "xy"), ("c", "d", "z")])
        kept, _ = dedup(corpus)
        again, removed_again = dedup(kept)
        assert again == kept and len(removed_again) == 0


class TestLanguageFilter:
    def test_permissive_oracle_keeps_all(self):
        corpus = corpus_of([("hello", "hallo", "hallo")])
        kept, removed = language_filter(corpus, ConstantClassifier("en"), "en", "en")
        assert len(kept) == 1 and len(removed) == 0

    def test_rejecting_oracle_removes_all(self):
        corpus = corpus_of([("hello", "hallo", "hallo")])
        kept, removed = language_filter(corpus, ConstantClassifier("fr"), "en", "de")
        assert len(kept) == 0
        assert removed[0].meta["removed_reason"] == "langid"

    def test_classifier_failure_routed(self):
        corpus = corpus_of([("hello", "hallo", "hallo")])
        kept, removed = language_filter(corpus, TabFileClassifier({}), "en", "de")
        assert len(kept) == 0
        assert removed[0].meta["removed_reason"] == "langid_error"

    def test_builtin_classifier_on_planted_sentences(self):
        english = [
            "The children walked home from school together.",
            "Nobody wanted to answer the question first.",
            "She opened the window because the room was too warm.",
            "They have been waiting for the bus since early morning.",
            "Please bring the books back to the library tomorrow.",
            "My neighbour planted roses along the garden fence.",
            "We could hear the rain falling on the roof all night.",
            "The meeting was postponed until further notice.",
            "He always drinks his coffee without sugar or milk.",
            "A stranger asked me for directions to the station.",
            "The bakery on the corner sells fresh bread every day.",
            "Her little brother is afraid of thunderstorms.",
            "I forgot my umbrella at the office again yesterday.",
            "The teacher explained the lesson very slowly and clearly.",
            "Someone left the lights on in the kitchen overnight.",
            "This mountain trail is too dangerous in the winter.",
            "We watched the ships come into the harbour at sunset.",
            "The doctor told him to rest for at least a week.",
            "Their new apartment has a wonderful view of the river.",
            "You should always check the weather before a long hike.",
            "The orchestra played beautifully at the concert last night.",
            "I cannot remember where I parked the car this morning.",
            "The farmer sold vegetables at the market every Saturday.",
            "She wrote a long letter to her grandmother in Canada.",
            "Both teams played well, but only one could win the match.",
        ] * 2
        german = [
            "Die Kinder gingen zusammen von der Schule nach Hause.",
            "Niemand wollte die Frage als Erster beantworten.",
            "Sie öffnete das Fenster, weil das Zimmer zu warm war.",
            "Sie warten seit dem frühen Morgen auf den Bus.",
            "Bitte bring die Bücher morgen in die Bibliothek zurück.",
            "Mein Nachbar pflanzte Rosen entlang des Gartenzauns.",
            "Wir hörten die ganze Nacht den Regen auf das Dach fallen.",
            "Die Besprechung wurde bis auf Weiteres verschoben.",
            "Er trinkt seinen Kaffee immer ohne Zucker und Milch.",
            "Ein Fremder fragte mich nach dem Weg zum Bahnhof.",
            "Die Bäckerei an der Ecke verkauft jeden Tag frisches Brot.",
            "Ihr kleiner Bruder hat Angst vor Gewittern.",
            "Ich habe meinen Regenschirm gestern wieder im Büro vergessen.",
            "Der Lehrer erklärte die Aufgabe sehr langsam und deutlich.",
            "Jemand hat das Licht in der Küche über Nacht angelassen.",
            "Dieser Bergpfad ist im Winter viel zu gefährlich.",
            "Wir sahen die Schiffe bei Sonnenuntergang in den Hafen einlaufen.",
            "Der Arzt sagte ihm, er solle mindestens eine Woche ruhen.",
            "Ihre neue Wohnung hat einen wunderbaren Blick auf den Fluss.",
            "Man sollte vor einer langen Wanderung immer das Wetter prüfen.",
            "Das Orchester spielte gestern Abend wunderschön im Konzert.",
            "Ich weiß nicht mehr, wo ich heute Morgen das Auto geparkt habe.",
            "Der Bauer verkaufte jeden Samstag Gemüse auf dem Markt.",
            "Sie schrieb ihrer Großmutter in Kanada einen langen Brief.",
            "Beide Mannschaften spielten gut, aber nur eine konnte gewinnen.",
        ] * 2
        classifier = NgramLanguageClassifier.default()
        correct = sum(classifier.classify(s) == "en" for s in english[:50])
        correct += sum(classifier.classify(s) == "de" for s in german[:50])
        assert correct >= 95


class TestSplitHoldout:
    def test_zero_sizes_returns_input_as_train(self):
        corpus = corpus_of([(f"s{i}", "m", "p") for i in range(10)])
        train, dev, test = split_holdout(corpus, 0, 0, seed=1)
        assert train == corpus and len(dev) == 0 and len(test) == 0

    def test_deterministic_per_seed_and_sensitive_to_seed(self):
        corpus = corpus_of([(f"s{i}", "m", "p") for i in range(1000)])
        first = split_holdout(corpus, 100, 100, seed=42)
        second = split_holdout(corpus, 100, 100, seed=42)
        assert first == second
        other = split_holdout(corpus, 100, 100, seed=43)
        assert {t.id for t in other[1]} != {t.id for t in first[1]}

    def test_partition(self):
        corpus = corpus_of([(f"s{i}", "m", "p") for i in range(50)])
        train, dev, test = split_holdout(corpus, 10, 5, seed=0)
        ids = [t.id for t in train] + [t.id for t in dev] + [t.id for t in test]
        assert sorted(ids) == sorted(t.id for t in corpus)
        assert (len(train), len(dev), len(test)) == (35, 10, 5)

    def test_train_keeps_original_relative_order(self):
        corpus = corpus_of([(f"s{i}", "m", "p") for i in range(50)])
        train, _, _ = split_holdout(corpus, 10, 10, seed=3)
        positions = [int(t.id) for t in train]
        assert positions == sorted(positions)

    def test_oversized_split_rejected(self):
        corpus = corpus_of([(f"s{i}", "m", "p") for i in range(5)])
        with pytest.raises(ValueError):
            split_holdout(corpus, 3, 2, seed=0)

    def test_paper_scale_arithmetic(self):
        corpus = corpus_of([(f"s{i}", "m", "p") for i in range(161_413)])
        train, dev, test = split_holdout(corpus, 10_000, 10_000, seed=0)
        assert (len(train), len(dev), len(test)) == (141_413, 10_000, 10_000)


class TestPipeline:
    def config(self, **overrides):
        defaults = dict(dev_size=5, test_size=5, seed=11, expected_src_lang="en", expected_tgt_lang="de")
        defaults.update(overrides)
        return FilterConfig(**defaults)

    def test_clean_corpus_only_dedup_removes(self):
        rows = [("source text %02d" % i, "mt text %02d" % i, "edit text %02d" % i) for i in range(40)]
        rows.append(rows[0])  # one duplicate
        corpus = corpus_of(rows)
        train, dev, test, report = run_filter_pipeline(
            corpus,
            self.config(t=0.9, expected_tgt_lang="en"),
            classifier=ConstantClassifier("en"),
        )
        assert report.removed_by_ratio == 0
        assert report.removed_by_langid == 0
        assert report.removed_by_dedup == 1

    def test_report_reconciles_on_random_corpora(self):
        rng = random.Random(5)
        rows = []
        for i in range(300):
            src = "s" * rng.randint(1, 30)
            pe = "p" * rng.randint(1, 30)
            rows.append((src, "m" * rng.randint(1, 30), pe))
        corpus = corpus_of(rows)
        train, dev, test, report = run_filter_pipeline(
            corpus,
            self.config(expected_tgt_lang="en"),
            classifier=ConstantClassifier("en"),
        )
        removals = report.removed_by_ratio + report.removed_by_dedup + report.removed_by_langid
        assert report.input_count == report.kept_count + removals
        assert report.kept_count == len(train) + len(dev) + len(test)

    def test_planted_ratio_outliers_all_removed(self):
        rng = random.Random(9)
        rows = [("s%04d " % i + "x" * 14, "m%04d " % i + "y" * 14, "p%04d " % i + "z" * 14) for i in range(1000)]
        for i in rng.sample(range(1000), 50):
            src, mt, pe = rows[i]
            rows[i] = (src + " " + "x" * 39, mt, pe)  # ratio 3.0 vs r_c near 1
        corpus = corpus_of(rows)
        train, dev, test, report = run_filter_pipeline(
            corpus,
            self.config(expected_tgt_lang="en"),
            classifier=ConstantClassifier("en"),
        )
        assert report.removed_by_ratio >= 50

    def test_deterministic_across_runs(self):
        rows = [(f"word {i} more", f"wort {i} mehr", f"wort {i} mehr!") for i in range(60)]
        corpus = corpus_of(rows)
        config = self.config(expected_tgt_lang="en")
        one = run_filter_pipeline(corpus, config, classifier=ConstantClassifier("en"))
        two = run_filter_pipeline(corpus, config, classifier=ConstantClassifier("en"))
        assert one[:3] == two[:3]
        assert one[3].to_dict() == two[3].to_dict()

    def test_config_json_round_trip(self):
        config = FilterConfig(t=0.3, dev_size=2, test_size=2, seed=99)
        assert FilterConfig.from_dict(vars(config)) == config

    def test_config_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            FilterConfig(t=1.5)

    @pytest.mark.parametrize("key, value", [
        ("t", "0.2"), ("t", 0.0), ("ratio_numerator", "foo"), ("ratio_denominator", None),
        ("dev_size", 0.5), ("test_size", -1), ("seed", 1.5), ("seed", True), ("seed", -1),
        ("seed", 2**64), ("expected_src_lang", 5),
    ])
    def test_config_checks_every_key_when_built(self, key, value):
        with pytest.raises(ValueError, match=rf"^{key} must be .*, got {value!r}$"):
            FilterConfig(**{key: value})

    def test_config_accepts_the_largest_seed(self):
        assert FilterConfig(seed=2**64 - 1).seed == 2**64 - 1
