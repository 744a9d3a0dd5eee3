import importlib
import json
import random
from pathlib import Path

import pytest

import apekit.analysis
import apekit.cli
from apekit.analysis import mock_scorer
from apekit.bootstrap import bootstrap_significance
from apekit.cli import build_parser, main
from apekit.corpus import Corpus, Triplet, read_corpus, write_corpus
from apekit.tokenizer import TokenizerConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def make_corpus_file(tmp_path, rows, name="corpus.jsonl"):
    path = tmp_path / name
    corpus = Corpus(
        tuple(Triplet(id=f"{i:06d}", src=s, mt=m, pe=p) for i, (s, m, p) in enumerate(rows, 1))
    )
    write_corpus(corpus, path)
    return path, corpus


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def load_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def synthetic_rows(n, seed=0):
    rng = random.Random(seed)
    words = "night falls over the quiet harbour and ships wait".split()
    rows = []
    for i in range(n):
        k = rng.randint(3, 8)
        src = " ".join(rng.choices(words, k=k)) + f" {i:04d}"
        rows.append((src, src.upper(), src + " !"))
    return rows


class TestFilterCommand:
    def test_filter_end_to_end(self, tmp_path):
        path, _ = make_corpus_file(tmp_path, synthetic_rows(200))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"dev_size": 20, "test_size": 20, "seed": 5, "expected_tgt_lang": "en"}),
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        assert main(["filter", "--in", str(path), "--out-dir", str(out_dir), "--config", str(config)]) == 0
        report = load_json(out_dir / "filter_report.json")
        counts = report["report"]
        removals = (
            counts["removed_by_ratio"] + counts["removed_by_dedup"] + counts["removed_by_langid"]
        )
        assert counts["input_count"] == counts["kept_count"] + removals
        splits = counts["split_sizes"]
        assert counts["kept_count"] == splits["train"] + splits["dev"] + splits["test"]
        assert (splits["dev"], splits["test"]) == (20, 20)
        for name in ("train", "dev", "test"):
            assert len(read_corpus(out_dir / f"{name}.jsonl")) == splits[name]
        assert report["config"]["t"] == 0.2  # default when omitted

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main(["filter", "--in", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_bad_config_is_config_error(self, tmp_path):
        path, _ = make_corpus_file(tmp_path, synthetic_rows(30))
        config = tmp_path / "config.json"
        config.write_text('{"t": 3.0}', encoding="utf-8")
        code = main(["filter", "--in", str(path), "--out-dir", str(tmp_path / "o"), "--config", str(config)])
        assert code == 1

    @pytest.mark.parametrize("config_text, message", [
        ('{"dev_size": 0.5}', "dev_size must be an integer >= 0, got 0.5"),
        ('{"seed": 1.5}', "seed must be an integer from 0 to 2**64 - 1, got 1.5"),
        ('{"seed": true}', "seed must be an integer from 0 to 2**64 - 1, got True"),
        ('{"ratio_numerator": "foo"}', "ratio_numerator must be one of src, mt, pe, got 'foo'"),
        ('[1]', "the filter config must be a JSON object, not list"),
    ])
    def test_bad_config_value_names_the_key(self, tmp_path, capsys, config_text, message):
        path, _ = make_corpus_file(tmp_path, synthetic_rows(30))
        config = tmp_path / "config.json"
        config.write_text(config_text, encoding="utf-8")
        out_dir = tmp_path / "o"
        code = main(["filter", "--in", str(path), "--out-dir", str(out_dir), "--config", str(config)])
        assert (code, capsys.readouterr().err) == (1, f"error: invalid filter config: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["expected_src_lang", "expected_tgt_lang"])
    def test_language_unknown_to_the_classifier_is_config_error(self, tmp_path, capsys, key):
        path, _ = make_corpus_file(tmp_path, synthetic_rows(30))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dev_size": 1, "test_size": 1, key: "fr"}), encoding="utf-8")
        out_dir = tmp_path / "o"
        code = main(["filter", "--in", str(path), "--out-dir", str(out_dir), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{key} = 'fr'" in err and "de, en" in err
        assert not out_dir.exists()


class TestPrePostProcess:
    def rows_with_markup(self):
        return [
            ("♪ <i>La la</i><br>- Hey ♪", "♪ <i>Lo lo</i><br>- Ho ♪", "♪ <i>Le le</i><br>- He ♪"),
            ("- Plain line", "- Schlichte Zeile", "- Schlichte Zeile!"),
            ("No markup here", "Kein Markup hier", "Kein Markup hier."),
        ]

    def test_round_trip_across_processes(self, tmp_path):
        path, corpus = make_corpus_file(tmp_path, self.rows_with_markup())
        out_dir = tmp_path / "pre"
        assert main(["preprocess", "--in", str(path), "--out-dir", str(out_dir)]) == 0

        cleaned_lines = (out_dir / "cleaned.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(cleaned_lines) > len(corpus)  # the <br> split added parts

        decoded = tmp_path / "decoded.txt"
        write_lines(decoded, [json.loads(line)["mt"] for line in cleaned_lines])
        restored = tmp_path / "restored.txt"
        assert (
            main(
                [
                    "postprocess",
                    "--outputs", str(decoded),
                    "--changelog", str(out_dir / "changelog.jsonl"),
                    "--out", str(restored),
                    "--orig", str(path),
                ]
            )
            == 0
        )
        expected = "".join(t.mt + "\n" for t in corpus)
        assert restored.read_text(encoding="utf-8") == expected

    def test_changelog_from_other_corpus_is_rejected(self, tmp_path):
        path_a, _ = make_corpus_file(tmp_path, self.rows_with_markup(), name="a.jsonl")
        path_b, corpus_b = make_corpus_file(tmp_path, synthetic_rows(5), name="b.jsonl")
        dir_a, dir_b = tmp_path / "pa", tmp_path / "pb"
        assert main(["preprocess", "--in", str(path_a), "--out-dir", str(dir_a)]) == 0
        assert main(["preprocess", "--in", str(path_b), "--out-dir", str(dir_b)]) == 0
        decoded_b = tmp_path / "decoded_b.txt"
        write_lines(decoded_b, [t.mt for t in corpus_b])
        code = main(
            [
                "postprocess",
                "--outputs", str(decoded_b),
                "--changelog", str(dir_a / "changelog.jsonl"),
                "--out", str(tmp_path / "r.txt"),
            ]
        )
        assert code == 2

    def test_digest_guard_on_orig(self, tmp_path):
        path, corpus = make_corpus_file(tmp_path, self.rows_with_markup())
        other, _ = make_corpus_file(tmp_path, synthetic_rows(3), name="other.jsonl")
        out_dir = tmp_path / "pre"
        main(["preprocess", "--in", str(path), "--out-dir", str(out_dir)])
        cleaned_lines = (out_dir / "cleaned.jsonl").read_text(encoding="utf-8").splitlines()
        decoded = write_lines(tmp_path / "d.txt", [json.loads(l)["mt"] for l in cleaned_lines])
        code = main(
            [
                "postprocess",
                "--outputs", str(decoded),
                "--changelog", str(out_dir / "changelog.jsonl"),
                "--out", str(tmp_path / "r.txt"),
                "--orig", str(other),
            ]
        )
        assert code == 2


class TestEvaluateCommand:
    def test_identity_scores(self, tmp_path):
        lines = ["the cat sat on the mat", "a stitch in time saves nine"]
        hyp = write_lines(tmp_path / "hyp.txt", lines)
        ref = write_lines(tmp_path / "ref.txt", lines)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--out", str(out)]) == 0
        report = load_json(out)
        assert report["bleu"]["score"] == pytest.approx(100.0)
        assert report["chrf"] == pytest.approx(100.0)
        assert report["ter"]["score"] == 0.0

    def test_line_count_mismatch_exit_2(self, tmp_path):
        hyp = write_lines(tmp_path / "hyp.txt", ["a"])
        ref = write_lines(tmp_path / "ref.txt", ["a", "b"])
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--out", str(tmp_path / "r.json")]) == 2

    def test_report_stable_except_timestamp(self, tmp_path):
        lines = ["one two three four", "five six seven eight nine"]
        hyp = write_lines(tmp_path / "hyp.txt", [l + " x" for l in lines])
        ref = write_lines(tmp_path / "ref.txt", lines)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--out", str(out_a), "--seed", "3"])
        main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--out", str(out_b), "--seed", "3"])
        report_a, report_b = load_json(out_a), load_json(out_b)
        report_a["manifest"].pop("timestamp")
        report_b["manifest"].pop("timestamp")
        assert json.dumps(report_a, sort_keys=True) == json.dumps(report_b, sort_keys=True)

    def test_seed_without_hyp_b_changes_only_the_manifest(self, tmp_path):
        # One system draws no bootstrap sample, so the seed is only recorded.
        lines = ["one two three four", "five six seven eight nine"]
        hyp = write_lines(tmp_path / "hyp.txt", [l + " x" for l in lines])
        ref = write_lines(tmp_path / "ref.txt", lines)
        reports = []
        for seed in ("3", "4"):
            out = tmp_path / f"{seed}.json"
            assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--out", str(out), "--seed", seed]) == 0
            reports.append(load_json(out))
        assert [report["manifest"]["seed"] for report in reports] == [3, 4]
        for report in reports:
            del report["manifest"]["seed"], report["manifest"]["timestamp"]
        assert reports[0] == reports[1]

    def test_golden_report_keys(self, tmp_path):
        lines = ["golden keys stay put here"]
        hyp = write_lines(tmp_path / "hyp.txt", lines)
        ref = write_lines(tmp_path / "ref.txt", lines)
        out = tmp_path / "r.json"
        main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--out", str(out)])
        report = load_json(out)
        assert list(report) == ["manifest", "bleu", "chrf", "ter"]
        assert list(report["bleu"]) == ["score", "precisions", "brevity_penalty", "hyp_len", "ref_len"]
        assert list(report["ter"]) == [
            "score", "insertions", "deletions", "substitutions", "shifts", "ref_len",
        ]

    def test_two_system_mode_adds_bootstrap_block(self, tmp_path):
        lines = [f"sentence number {i} with words" for i in range(12)]
        hyp = write_lines(tmp_path / "hyp.txt", lines)
        hyp_b = write_lines(tmp_path / "hyp_b.txt", [l.replace("words", "stuff") for l in lines])
        ref = write_lines(tmp_path / "ref.txt", lines)
        out = tmp_path / "r.json"
        code = main(
            ["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--hyp-b", str(hyp_b), "--out", str(out)]
        )
        assert code == 0
        report = load_json(out)
        assert report["bootstrap"]["n_samples"] == 1000
        assert report["bootstrap"]["wins_a"] + report["bootstrap"]["wins_b"] + report["bootstrap"]["ties"] == 1000

    def test_bootstrap_uses_the_report_tokenizer(self, tmp_path):
        # One whitespace token per line: under the whitespace tokenizer no
        # system matches anything, so every bootstrap sample is a tie,
        # while punctuation splitting would let system A win them all.
        refs = [f"w{i},x{i},y{i},z{i}." for i in range(12)]
        ref = write_lines(tmp_path / "ref.txt", refs)
        hyp = write_lines(tmp_path / "hyp.txt", [r[:-1] + "!" for r in refs])
        hyp_b = write_lines(tmp_path / "hyp_b.txt", [r.replace(",", ";") for r in refs])
        out = tmp_path / "r.json"
        argv = ["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--hyp-b", str(hyp_b),
                "--n-samples", "200", "--tokenizer", "whitespace", "--out", str(out)]
        assert main(argv) == 0
        report = load_json(out)
        assert report["bleu"]["score"] == report["system_b"]["bleu"]["score"] == 0.0
        assert report["bootstrap"]["ties"] == 200
        assert report["bootstrap"]["p_value"] == 1.0

    def test_bootstrap_uses_the_report_lowercasing(self, tmp_path):
        refs = [f"the cat sat on the mat {i}" for i in range(12)]
        hyps_a = [r.upper() for r in refs]
        hyps_b = [r.replace("cat", "dog") for r in refs]
        paths = [write_lines(tmp_path / f"{name}.txt", lines)
                 for name, lines in (("ref", refs), ("a", hyps_a), ("b", hyps_b))]
        out = tmp_path / "r.json"
        argv = ["evaluate", "--ref", str(paths[0]), "--hyp", str(paths[1]), "--hyp-b", str(paths[2]),
                "--n-samples", "200", "--seed", "4", "--lowercase", "--out", str(out)]
        assert main(argv) == 0
        lowercased = TokenizerConfig(scheme="punct_split", lowercase=True)
        expected = bootstrap_significance(hyps_a, hyps_b, refs, n_samples=200, seed=4, tok=lowercased)
        assert expected.wins_a == 200
        assert load_json(out)["bootstrap"] == vars(expected)


class TestSignificanceCommand:
    def test_identical_systems(self, tmp_path):
        lines = [f"line {i} of text" for i in range(8)]
        hyp = write_lines(tmp_path / "h.txt", lines)
        ref = write_lines(tmp_path / "r.txt", lines)
        out = tmp_path / "sig.json"
        code = main(
            [
                "significance",
                "--hyp-a", str(hyp), "--hyp-b", str(hyp), "--ref", str(ref),
                "--out", str(out), "--n-samples", "50",
            ]
        )
        assert code == 0
        assert load_json(out)["bootstrap"]["p_value"] == 1.0


ADEQUACY_CSV = "annotator_id,item_id,system,score\n"


def adequacy_rows(annotators, items, score_fn):
    rows = []
    for a in annotators:
        for i in items:
            for s in ("nmt", "ape", "human"):
                rows.append(f"{a},{i},{s},{score_fn(a, i, s)}")
    return rows


class TestAgreementCommand:
    def test_identical_annotators_full_agreement(self, tmp_path):
        csv_path = tmp_path / "ad.csv"
        rows = adequacy_rows("AB", [f"i{k}" for k in range(6)], lambda a, i, s: (int(i[1]) + len(s)) % 5 + 1)
        csv_path.write_text(ADEQUACY_CSV + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "agr.json"
        assert main(["agreement", "--csv", str(csv_path), "--out", str(out)]) == 0
        report = load_json(out)
        assert report["cohen_kappa"]["mean_kappa"] == pytest.approx(1.0)
        assert report["weighted_kappa"]["mean_kappa"] == pytest.approx(1.0)

    def test_five_annotators_ten_pairs(self, tmp_path):
        rng = random.Random(1)
        csv_path = tmp_path / "ad.csv"
        rows = adequacy_rows(
            "ABCDE", [f"i{k}" for k in range(46)], lambda a, i, s: rng.randint(1, 5)
        )
        csv_path.write_text(ADEQUACY_CSV + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "agr.json"
        assert main(["agreement", "--csv", str(csv_path), "--out", str(out)]) == 0
        report = load_json(out)
        assert len(report["cohen_kappa"]["pairs"]) + report["cohen_kappa"]["skipped_pairs"] == 10
        assert report["n_shared_items"] == 46

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("A,i1,nmt\n", encoding="utf-8")
        assert main(["agreement", "--csv", str(csv_path), "--out", str(tmp_path / "o.json")]) == 2
        assert "line 1" in capsys.readouterr().err


def _exit_and_error(command, csv_path, tmp_path, capsys):
    code = main([command, "--csv", str(csv_path), "--out", str(tmp_path / f"{command}.json")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["agreement", "adequacy"])
def test_repeated_rating_is_rejected_naming_its_line(tmp_path, capsys, command):
    csv_path = tmp_path / "ad.csv"
    rows = adequacy_rows("AB", ["i1", "i2"], lambda a, i, s: 3)
    rows.insert(5, "A,i1,nmt,5")  # a second score for A's first row, on line 7
    csv_path.write_text(ADEQUACY_CSV + "\n".join(rows) + "\n", encoding="utf-8")
    code, err = _exit_and_error(command, csv_path, tmp_path, capsys)
    assert code == 2
    assert "line 7: annotator 'A' item 'i1' system 'nmt' is rated twice" in err
    assert not (tmp_path / f"{command}.json").exists()


def test_item_without_a_system_score_is_rejected_by_both_commands(tmp_path, capsys):
    csv_path = tmp_path / "ad.csv"
    rows = adequacy_rows("AB", ["i1", "i2"], lambda a, i, s: 3)
    rows.remove("B,i2,ape,3")
    csv_path.write_text(ADEQUACY_CSV + "\n".join(rows) + "\n", encoding="utf-8")
    outcomes = [_exit_and_error(command, csv_path, tmp_path, capsys) for command in ("agreement", "adequacy")]
    message = "annotator 'B' item 'i2': expected scores for all of ('nmt', 'ape', 'human')"
    assert outcomes[0] == outcomes[1] == (2, f"error: {message}\n")


class TestAdequacyCommand:
    def test_used_over_assigned_in_output(self, tmp_path, capsys):
        csv_path = tmp_path / "ad.csv"
        rows = adequacy_rows("A", [f"i{k}" for k in range(10)], lambda a, i, s: 4)
        rows[1] = "A,i0,ape,X"  # one undecidable item
        csv_path.write_text(ADEQUACY_CSV + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["adequacy", "--csv", str(csv_path), "--out", str(tmp_path / "o.json")]) == 0
        printed = capsys.readouterr().out
        assert "(9 / 10)" in printed


class TestAblateCommand:
    def test_mock_scorer_protocol_shape(self, tmp_path):
        path, _ = make_corpus_file(tmp_path, synthetic_rows(1500))
        out = tmp_path / "curve.json"
        out_csv = tmp_path / "curve.csv"
        code = main(
            [
                "ablate",
                "--in", str(path),
                "--sizes", "62,125,250,500,1000,1250",
                "--replicates", "3",
                "--seed", "13",
                "--out", str(out),
                "--out-csv", str(out_csv),
            ]
        )
        assert code == 0
        report = load_json(out)
        assert report["n_samples"] == 18
        assert len(report["points"]) == 6
        for point in report["points"]:
            assert point["min"] <= point["mean"] <= point["max"]
        assert report["wmt_size_marker"] == 13441
        assert out_csv.read_text(encoding="utf-8").startswith("size,mean,min,max")

    def test_external_scores_aggregation(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("size,replicate,value\n10,0,50\n10,1,54\n20,0,60\n", encoding="utf-8")
        out = tmp_path / "curve.json"
        code = main(["ablate", "--scores", str(scores), "--sizes", "10,20", "--out", str(out)])
        assert code == 0
        report = load_json(out)
        assert [p["size"] for p in report["points"]] == [10, 20]
        assert report["points"][0]["mean"] == pytest.approx(52.0)

    @pytest.mark.parametrize("csv_text, extra, message", [
        pytest.param("size,replicate,value\n10,0,50\n20,0,60\n", ["--sizes", "999"],
                     "line 2: size 10 is not in --sizes", id="size-not-in-sizes"),
        pytest.param("10,0,50\n", ["--sizes", "10,20"], "no rows for --sizes 20", id="size-missing"),
        pytest.param("10,0,50\n10,3,51\n", ["--sizes", "10", "--replicates", "3"],
                     "line 2: replicate 3 is outside 0..2", id="replicate-too-large"),
        pytest.param("10,0,50\n10,-1,51\n", ["--sizes", "10"],
                     "line 2: replicate -1 is outside 0..2", id="replicate-negative"),
        pytest.param("size,replicate,value\n10,0,50\n10,1,51\n10,0,52\n", ["--sizes", "10"],
                     "line 4: size 10 replicate 0 repeats", id="run-repeats"),
        pytest.param("10,0,50\n10,1,high\n", ["--sizes", "10"],
                     "line 2: could not convert string to float", id="bad-value"),
        pytest.param("10,0,50\nten,1,51\n", ["--sizes", "10"],
                     "line 2: invalid literal for int()", id="bad-size"),
        pytest.param("10,0,50\nsize,replicate,value\n10,1,51\n", ["--sizes", "10"],
                     "line 2: invalid literal for int() with base 10: 'size'", id="header-after-line-1"),
    ])
    def test_external_scores_must_match_sizes_and_replicates(self, tmp_path, capsys, csv_text, extra, message):
        scores = tmp_path / "scores.csv"
        scores.write_text(csv_text, encoding="utf-8")
        assert main(["ablate", "--scores", str(scores), *extra, "--out", str(tmp_path / "c.json")]) == 2
        assert f"{scores}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("source", ["--in", "--scores"])
    @pytest.mark.parametrize("sizes, message", [
        ("20,10", "sizes must be strictly ascending"),
        ("10,10", "sizes must be strictly ascending"),
        ("0", "sizes must be positive"),
        (",", "at least one sample size is required"),
    ])
    def test_sizes_rules_are_the_same_for_corpus_and_scores(self, tmp_path, capsys, source, sizes, message):
        path, _ = make_corpus_file(tmp_path, synthetic_rows(30))
        scores = tmp_path / "scores.csv"
        scores.write_text("10,0,50\n20,0,60\n", encoding="utf-8")
        argv = ["ablate", source, str(path if source == "--in" else scores), "--sizes", sizes,
                "--out", str(tmp_path / "c.json")]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_replicates_below_one_is_a_usage_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("10,0,50\n", encoding="utf-8")
        assert main(["ablate", "--scores", str(scores), "--sizes", "10", "--replicates", "0"]) == 1
        assert "argument --replicates: must be at least 1" in capsys.readouterr().err

    def test_requires_corpus_or_scores(self, tmp_path):
        assert main(["ablate", "--sizes", "10"]) == 1

    def test_corpus_and_scores_together_is_a_usage_error(self, tmp_path, capsys):
        path, _ = make_corpus_file(tmp_path, synthetic_rows(100))
        scores = tmp_path / "scores.csv"
        scores.write_text("10,0,50\n", encoding="utf-8")
        out = tmp_path / "curve.json"
        assert main(["ablate", "--in", str(path), "--scores", str(scores), "--sizes", "10", "--out", str(out)]) == 1
        assert "argument --scores: not allowed with argument --in" in capsys.readouterr().err
        assert not out.exists()

    def test_emit_samples_with_scores_is_a_usage_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("10,0,50\n", encoding="utf-8")
        out = tmp_path / "curve.json"
        argv = ["ablate", "--scores", str(scores), "--sizes", "10", "--replicates", "1",
                "--emit-samples", str(tmp_path / "samples"), "--out", str(out)]
        assert main(argv) == 1
        assert "--emit-samples needs --in" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "samples").exists()

    def test_metric_other_than_mock_needs_scores(self, tmp_path, capsys):
        path, _ = make_corpus_file(tmp_path, synthetic_rows(100))
        out = tmp_path / "curve.json"
        assert main(["ablate", "--in", str(path), "--sizes", "10,20", "--metric", "bleu", "--out", str(out)]) == 1
        assert "--metric bleu needs --scores" in capsys.readouterr().err
        assert not out.exists()

    def test_emit_samples_draws_each_sample_once(self, tmp_path, monkeypatch):
        draws = []
        original = apekit.analysis.draw_samples

        def counting(*args, **kwargs):
            draws.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(apekit.analysis, "draw_samples", counting)
        monkeypatch.setattr(apekit.cli, "draw_samples", counting, raising=False)
        path, _ = make_corpus_file(tmp_path, synthetic_rows(100))
        argv = ["ablate", "--in", str(path), "--sizes", "10,20", "--replicates", "2",
                "--emit-samples", str(tmp_path / "samples"), "--out", str(tmp_path / "curve.json")]
        assert main(argv) == 0
        assert len(draws) == 1

    def test_emitted_samples_are_the_scored_samples(self, tmp_path, monkeypatch):
        scored = {}

        def recording(size, replicate, sample):
            scored[(size, replicate)] = [t.id for t in sample]
            return mock_scorer(size, replicate, sample)

        monkeypatch.setattr(apekit.cli, "mock_scorer", recording)
        path, _ = make_corpus_file(tmp_path, synthetic_rows(100))
        samples_dir = tmp_path / "samples"
        argv = ["ablate", "--in", str(path), "--sizes", "10,20", "--replicates", "2", "--seed", "5",
                "--emit-samples", str(samples_dir), "--out", str(tmp_path / "curve.json")]
        assert main(argv) == 0
        written = {
            (size, replicate): [t.id for t in read_corpus(samples_dir / f"sample_{size}_{replicate}.jsonl")]
            for size in (10, 20)
            for replicate in (0, 1)
        }
        assert written == scored


class TestBucketsCommand:
    def test_identical_outputs_zero_delta(self, tmp_path):
        refs = [f"word{i} and some more text here" for i in range(20)]
        base = [r.replace("more", "extra") if i % 4 == 0 else r for i, r in enumerate(refs)]
        ref_p = write_lines(tmp_path / "ref.txt", refs)
        base_p = write_lines(tmp_path / "base.txt", base)
        ape_p = write_lines(tmp_path / "ape.txt", base)
        out = tmp_path / "buckets.json"
        code = main(
            ["buckets", "--baseline", str(base_p), "--ape", str(ape_p), "--ref", str(ref_p), "--out", str(out)]
        )
        assert code == 0
        report = load_json(out)["analysis"]
        assert len(report["buckets"]) == 10
        assert sum(b["count"] for b in report["buckets"]) == 20
        for bucket in report["buckets"]:
            if bucket["count"]:
                assert bucket["delta_ter"] == 0.0

    def test_canonical_bucket_order(self, tmp_path):
        refs = ["one two three"]
        ref_p = write_lines(tmp_path / "ref.txt", refs)
        hyp_p = write_lines(tmp_path / "hyp.txt", refs)
        out = tmp_path / "buckets.json"
        main(["buckets", "--baseline", str(hyp_p), "--ape", str(hyp_p), "--ref", str(ref_p), "--out", str(out)])
        labels = [b["label"] for b in load_json(out)["analysis"]["buckets"]]
        assert labels == [
            ">90", "80-90", "70-80", "60-70", "50-60", "40-50", "30-40", "20-30", "10-20", "<=10",
        ]


@pytest.mark.parametrize("command", ["evaluate", "significance", "buckets"])
def test_empty_reference_names_file_and_line(tmp_path, capsys, command):
    hyp = write_lines(tmp_path / "hyp.txt", ["a b c", "d e", "f g h"])
    ref = write_lines(tmp_path / "ref.txt", ["a b c", "   ", "f g h"])
    out = str(tmp_path / "r.json")
    argv = {
        "evaluate": ["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--out", out],
        "significance": ["significance", "--hyp-a", str(hyp), "--hyp-b", str(hyp), "--ref", str(ref),
                         "--statistic", "ter", "--n-samples", "10", "--out", out],
        "buckets": ["buckets", "--baseline", str(hyp), "--ape", str(hyp), "--ref", str(ref), "--out", out],
    }[command]
    assert main(argv) == 2
    assert f"{ref}: line 2: TER needs a non-empty reference" in capsys.readouterr().err


def _line_file_argv(command, tmp_path, path):
    """argv for a command whose line-file input is ``path``; the other
    inputs are clean three-line files."""
    clean = write_lines(tmp_path / "clean.txt", ["a b c", "d e f", "g h i"])
    out = str(tmp_path / "r.json")
    return {
        "evaluate": ["evaluate", "--hyp", str(path), "--ref", str(clean), "--out", out],
        "significance": ["significance", "--hyp-a", str(clean), "--hyp-b", str(path), "--ref", str(clean),
                         "--n-samples", "10", "--out", out],
        "buckets": ["buckets", "--baseline", str(clean), "--ape", str(clean), "--ref", str(path), "--out", out],
    }[command]


@pytest.mark.parametrize("command", ["evaluate", "significance", "buckets"])
def test_bare_carriage_return_names_file_and_line(tmp_path, capsys, command):
    path = tmp_path / "cr.txt"
    path.write_bytes(b"a b c\nd e\rf\ng h i\n")
    assert main(_line_file_argv(command, tmp_path, path)) == 2
    assert f"{path}: line 2: carriage return inside a line" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "significance", "buckets"])
def test_line_count_mismatch_names_both_files(tmp_path, capsys, command):
    short = write_lines(tmp_path / "short.txt", ["a b c", "d e f"])
    argv = _line_file_argv(command, tmp_path, short)
    assert main(argv) == 2
    reference = tmp_path / ("short.txt" if command == "buckets" else "clean.txt")
    mismatched = tmp_path / ("clean.txt" if command == "buckets" else "short.txt")
    counts = (3, 2) if command == "buckets" else (2, 3)
    assert f"error: line count mismatch: {mismatched} has {counts[0]}, {reference} has {counts[1]}" in (
        capsys.readouterr().err
    )


def test_evaluate_second_system_line_count_mismatch_names_both_files(tmp_path, capsys):
    clean = write_lines(tmp_path / "clean.txt", ["a b c", "d e f", "g h i"])
    short = write_lines(tmp_path / "short.txt", ["a b c"])
    argv = ["evaluate", "--hyp", str(clean), "--hyp-b", str(short), "--ref", str(clean),
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert f"error: line count mismatch: {short} has 1, {clean} has 3" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_crlf_line_endings_read_like_lf(tmp_path):
    lf = write_lines(tmp_path / "lf.txt", ["a b c", "d e f x", "g h"])
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    reports = []
    for path in (lf, crlf):
        assert main(_line_file_argv("evaluate", tmp_path, path)) == 0
        report = load_json(tmp_path / "r.json")
        del report["manifest"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_postprocess_rejects_bare_carriage_return(tmp_path, capsys):
    path, _ = make_corpus_file(tmp_path, [("a", "b", "c"), ("d", "e", "f"), ("g", "h", "i")])
    assert main(["preprocess", "--in", str(path), "--out-dir", str(tmp_path / "pre")]) == 0
    decoded = tmp_path / "decoded.txt"
    decoded.write_bytes(b"b\re\nh\n")
    argv = ["postprocess", "--outputs", str(decoded), "--changelog", str(tmp_path / "pre" / "changelog.jsonl"),
            "--out", str(tmp_path / "restored.txt")]
    assert main(argv) == 2
    assert f"{decoded}: line 1: carriage return inside a line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "number, bad_line, message",
    [
        (3, '{"triplet_id": "x", "parts": {}, "clean_digests": {}, "records": [{"kind": "removed_tag", "bogus": 1}]}',
         "unexpected keyword argument 'bogus'"),
        (2, "[1, 2]", "list indices must be integers"),
        (1, "[1]", "'list' object has no attribute 'get'"),
        (2, "{not json", "Expecting property name"),
        (2, '{"triplet_id": "x", "parts": {"src": 1}, "clean_digests": {}, "records": []}', "('mt')"),
    ],
)
def test_postprocess_rejects_malformed_changelog_line(tmp_path, capsys, number, bad_line, message):
    path, _ = make_corpus_file(tmp_path, [("a", "b", "c"), ("d", "e", "f")])
    assert main(["preprocess", "--in", str(path), "--out-dir", str(tmp_path / "pre")]) == 0
    changelog = tmp_path / "pre" / "changelog.jsonl"
    lines = changelog.read_text(encoding="utf-8").splitlines()
    lines[number - 1] = bad_line
    write_lines(changelog, lines)
    decoded = write_lines(tmp_path / "decoded.txt", ["b", "e"])
    argv = ["postprocess", "--outputs", str(decoded), "--changelog", str(changelog), "--out", str(tmp_path / "r.txt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{changelog}: line {number}: malformed changelog (" in err
    assert message in err


@pytest.mark.parametrize(
    "edit, decoded, message",
    [
        pytest.param(lambda log: log["records"][0].update(offset="x"), ["b"],
                     "change record offset must be an int >= 0, got 'x'", id="offset-not-int"),
        pytest.param(lambda log: log["records"][0].update(offset=True), ["b"],
                     "change record offset must be an int >= 0, got True", id="offset-bool"),
        pytest.param(lambda log: log["parts"].update(mt=2), ["b", "b"],
                     "clean_digests['mt'] must be a list of 2 string(s)", id="parts-above-digests"),
        pytest.param(lambda log: log["records"][0].update(part=5), ["b"],
                     "change record part 5 is not below parts['mt'] = 1", id="part-out-of-range"),
        pytest.param(lambda log: log["clean_digests"].update(mt="abc"), ["b"],
                     "clean_digests['mt'] must be a list of 1 string(s), got 'abc'", id="digests-not-a-list"),
        pytest.param(lambda log: log["records"][0].pop("anchor"), ["b"], "change record lacks anchor",
                     id="record-lacks-a-key"),
        pytest.param(lambda log: log["records"][0].update(field="ref"), ["b"],
                     "change record field 'ref' is not one of ('src', 'mt', 'pe')", id="unknown-field"),
        pytest.param(lambda log: log["records"][0].update(anchor="middle"), ["b"],
                     "change record anchor 'middle' is not one of ('start', 'end', 'interior', 'boundary')",
                     id="unknown-anchor"),
        pytest.param(lambda log: log["records"][0].update(payload=7), ["b"],
                     "change record payload must be a string, got 7", id="payload-not-str"),
        pytest.param(lambda log: log["parts"].update(mt=10**12), ["b"],
                     "clean_digests['mt'] must be a list of 1000000000000 string(s)", id="huge-part-count"),
        pytest.param(lambda log: log["parts"].update(mt=0), [],
                     "parts['mt'] must be an int >= 1, got 0", id="no-parts"),
        pytest.param(lambda log: (log["parts"].update(mt=2), log["clean_digests"]["mt"].append("d")), ["b", "b"],
                     "boundary records of 'mt' join parts [], expected [0]", id="missing-boundary"),
    ],
)
def test_postprocess_rejects_changelog_values(tmp_path, capsys, edit, decoded, message):
    path, _ = make_corpus_file(tmp_path, [("a", "<i>b</i>", "c")])
    assert main(["preprocess", "--in", str(path), "--out-dir", str(tmp_path / "pre")]) == 0
    changelog = tmp_path / "pre" / "changelog.jsonl"
    header, line = changelog.read_text(encoding="utf-8").splitlines()
    log = json.loads(line)
    assert log["records"][0]["field"] == "mt"
    edit(log)
    write_lines(changelog, [header, json.dumps(log)])
    argv = ["postprocess", "--outputs", str(write_lines(tmp_path / "decoded.txt", decoded)),
            "--changelog", str(changelog), "--out", str(tmp_path / "r.txt")]
    assert main(argv) == 2
    assert f"{changelog}: line 2: malformed changelog ({message}" in capsys.readouterr().err


@pytest.mark.parametrize("break_char", ["\n", "\r"])
def test_preprocess_rejects_line_break_in_a_field(tmp_path, capsys, break_char):
    path, _ = make_corpus_file(tmp_path, [("a", "b", "c"), ("d", f"e{break_char}f", "g")])
    assert main(["preprocess", "--in", str(path), "--out-dir", str(tmp_path / "pre")]) == 2
    assert "triplet '000002': field 'mt' contains a newline or carriage return" in capsys.readouterr().err
    assert not (tmp_path / "pre" / "cleaned.jsonl").exists()
    assert not (tmp_path / "pre" / "changelog.jsonl").exists()
    assert not (tmp_path / "pre").exists()


@pytest.mark.parametrize("edit, decoded", [
    pytest.param(lambda lines: lines.pop(2), ["b", "h"], id="log-line-deleted"),
    pytest.param(lambda lines: lines.__setitem__(0, lines[0].replace('"n_triplets": 3', '"n_triplets": 2')),
                 ["b", "e", "h"], id="n-triplets-edited"),
    pytest.param(lambda lines: lines.__setitem__(0, lines[0].replace('"mt": 3', '"mt": 4')),
                 ["b", "e", "h"], id="one-field-n-parts-edited"),
    pytest.param(lambda lines: lines.append(lines[1]), ["b", "e", "h", "b"], id="log-line-repeated"),
    pytest.param(lambda lines: lines.__setitem__(0, '{"type": "header"}'), ["b", "e", "h"], id="counts-missing"),
])
def test_postprocess_rejects_a_header_that_disagrees_with_the_logs(tmp_path, capsys, edit, decoded):
    path, _ = make_corpus_file(tmp_path, [("a", "<i>b</i>", "c"), ("d", "- e", "f"), ("g", "h ♪", "i")])
    assert main(["preprocess", "--in", str(path), "--out-dir", str(tmp_path / "pre")]) == 0
    changelog = tmp_path / "pre" / "changelog.jsonl"
    lines = changelog.read_text(encoding="utf-8").splitlines()
    edit(lines)
    write_lines(changelog, lines)
    argv = ["postprocess", "--outputs", str(write_lines(tmp_path / "decoded.txt", decoded)),
            "--changelog", str(changelog), "--out", str(tmp_path / "r.txt"), "--orig", str(path)]
    assert main(argv) == 2
    assert f"error: {changelog}: line 1: header counts " in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_corpus_reader_rejects_bare_carriage_return(tmp_path, capsys):
    path = tmp_path / "c.tsv"
    path.write_bytes(b"a b\tc d\te f\rg h\ti j\tk l\n")
    out = tmp_path / "stats.json"
    assert main(["stats", "--in", str(path), "--format", "tsv", "--out", str(out)]) == 2
    assert f"{path}: line 1: carriage return inside a line" in capsys.readouterr().err
    assert not out.exists()


def _preprocessed(tmp_path, rows):
    """Preprocess ``rows``; return the corpus path, the changelog path and the decoded mt parts file."""
    path, _ = make_corpus_file(tmp_path, rows)
    assert main(["preprocess", "--in", str(path), "--out-dir", str(tmp_path / "pre")]) == 0
    parts = (tmp_path / "pre" / "cleaned.jsonl").read_text(encoding="utf-8").splitlines()
    decoded = write_lines(tmp_path / "decoded.txt", [json.loads(part)["mt"] for part in parts])
    return path, tmp_path / "pre" / "changelog.jsonl", decoded


def _with_ff_on_line_2(path):
    """Put a 0xff byte after the first space of line 2; return the byte's 1-based position there."""
    lines = path.read_bytes().split(b"\n")
    at = lines[1].index(b" ") + 1
    lines[1] = lines[1][:at] + b"\xff" + lines[1][at:]
    path.write_bytes(b"\n".join(lines))
    return at + 1


@pytest.mark.parametrize("command", ["stats", "filter", "preprocess", "postprocess-outputs",
                                     "postprocess-changelog", "evaluate", "significance", "buckets"])
def test_bytes_that_are_not_utf8_name_file_and_line(tmp_path, capsys, command):
    corpus, changelog, decoded = _preprocessed(tmp_path, [("a b", "<i>c d</i>", "e f"), ("g h", "i j", "k l")])
    out = str(tmp_path / "out" / "r.json")
    argv, bad = {
        "stats": (["stats", "--in", str(corpus), "--out", out], corpus),
        "filter": (["filter", "--in", str(corpus), "--out-dir", str(tmp_path / "out")], corpus),
        "preprocess": (["preprocess", "--in", str(corpus), "--out-dir", str(tmp_path / "out")], corpus),
        "postprocess-outputs": (["postprocess", "--outputs", str(decoded), "--changelog", str(changelog),
                                 "--out", out], decoded),
        "postprocess-changelog": (["postprocess", "--outputs", str(decoded), "--changelog", str(changelog),
                                   "--out", out], changelog),
        "evaluate": (_line_file_argv("evaluate", tmp_path, decoded), decoded),
        "significance": (_line_file_argv("significance", tmp_path, decoded), decoded),
        "buckets": (_line_file_argv("buckets", tmp_path, decoded), decoded),
    }[command]
    write_lines(tmp_path / "clean.txt", ["a b", "c d"])  # as long as the decoded file
    position = _with_ff_on_line_2(bad)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 2: byte {position} is not UTF-8 (invalid start byte)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["stats", "filter", "preprocess"])
def test_duplicate_id_names_both_lines(tmp_path, capsys, command):
    path = tmp_path / "c.jsonl"
    rows = [{"id": i, "src": "a b", "mt": "c d", "pe": "e f"} for i in ("a", "b", "a")]
    path.write_text("".join(json.dumps(row) + "\n\n" for row in rows), encoding="utf-8")
    out = tmp_path / "out"
    argv = {"stats": ["stats", "--in", str(path), "--out", str(out / "s.json")],
            "filter": ["filter", "--in", str(path), "--out-dir", str(out)],
            "preprocess": ["preprocess", "--in", str(path), "--out-dir", str(out)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: line 5: duplicate triplet id 'a' (first on line 1)\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("payload", "<i>\nX"), ("payload", "<i>\r"), ("replacement", "\n"),
                                        ("replacement", "\r")])
def test_postprocess_rejects_a_line_break_in_a_changelog_record(tmp_path, capsys, key, value):
    _, changelog, decoded = _preprocessed(tmp_path, [("a", "<i>b</i>", "c"), ("d", "e", "f")])
    lines = changelog.read_text(encoding="utf-8").splitlines()
    log = json.loads(lines[1])
    log["records"][0][key] = value
    lines[1] = json.dumps(log)
    write_lines(changelog, lines)
    out = tmp_path / "restored.txt"
    assert main(["postprocess", "--outputs", str(decoded), "--changelog", str(changelog), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {changelog}: line 2: malformed changelog (change record {key} {value!r} holds a line break)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["ablate", "buckets"])
def test_out_csv_creates_its_directory(tmp_path, command):
    if command == "ablate":
        path, _ = make_corpus_file(tmp_path, synthetic_rows(20))
        argv = ["ablate", "--in", str(path), "--sizes", "5,10", "--replicates", "2"]
    else:
        argv = _line_file_argv("buckets", tmp_path, write_lines(tmp_path / "ape.txt", ["a b", "d e f", "g"]))
    csv_path = tmp_path / "no" / "dir" / "table.csv"
    assert main([*argv, "--out", str(tmp_path / "rep" / "r.json"), "--out-csv", str(csv_path)]) == 0
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ("size,mean,min,max" if command == "ablate" else "bucket,count,baseline_ter,ape_ter,delta_ter")


@pytest.mark.parametrize("command", ["evaluate", "significance"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_n_samples_below_one_is_a_usage_error(tmp_path, capsys, command, value):
    argv = [*_line_file_argv(command, tmp_path, write_lines(tmp_path / "h.txt", ["a", "b", "c"])),
            "--n-samples", value]
    assert main(argv) == 1
    assert "argument --n-samples: must be at least 1" in capsys.readouterr().err


def test_evaluate_n_samples_needs_a_second_system(tmp_path, capsys):
    argv = [*_line_file_argv("evaluate", tmp_path, write_lines(tmp_path / "h.txt", ["a", "b", "c"])),
            "--n-samples", "7"]
    assert main(argv) == 1
    assert "error: evaluate --n-samples needs --hyp-b" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


class TestStatsCommand:
    def test_stats_report(self, tmp_path):
        path, _ = make_corpus_file(tmp_path, [("a b", "c", "d e f")])
        out = tmp_path / "stats.json"
        assert main(["stats", "--in", str(path), "--out", str(out)]) == 0
        stats = load_json(out)["stats"]
        assert stats["n_triplets"] == 1
        assert (stats["tokens_src"], stats["tokens_mt"], stats["tokens_pe"]) == (2, 1, 3)


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


# Arguments each subcommand requires, so a parse fails only on the flag
# under test; the named files need not exist.
REQUIRED_ARGS = {
    "filter": ["--in", "c.jsonl", "--out-dir", "o"],
    "preprocess": ["--in", "c.jsonl", "--out-dir", "o"],
    "postprocess": ["--outputs", "o.txt", "--changelog", "c.jsonl", "--out", "r.txt"],
    "evaluate": ["--hyp", "h.txt", "--ref", "r.txt"],
    "significance": ["--hyp-a", "a.txt", "--hyp-b", "b.txt", "--ref", "r.txt"],
    "agreement": ["--csv", "a.csv"],
    "adequacy": ["--csv", "a.csv"],
    "ablate": ["--sizes", "10", "--scores", "s.csv"],
    "buckets": ["--baseline", "b.txt", "--ape", "a.txt", "--ref", "r.txt"],
    "stats": ["--in", "c.jsonl"],
}
FLAG_VALUES = {"--seed": "1", "--threads": "64", "--format": "tsv", "--config": "bogus.json"}
UNREAD_FLAGS = (
    [(command, "--config") for command in REQUIRED_ARGS if command != "filter"]
    + [(command, "--format") for command in
       ("postprocess", "evaluate", "significance", "agreement", "adequacy", "buckets")]
    + [(command, "--seed") for command in ("agreement", "adequacy", "stats")]
    + [(command, "--threads") for command in ("agreement", "adequacy", "stats", "ablate")]
)


SEEDED_COMMANDS = ["filter", "preprocess", "postprocess", "evaluate", "significance", "ablate", "buckets"]


def test_main_calls_share_one_parser_that_a_usage_error_leaves_unchanged(tmp_path, monkeypatch, capsys):
    built = []
    real_build_parser = apekit.cli.build_parser

    def counting_build_parser():
        built.append(1)
        return real_build_parser()

    monkeypatch.setattr(apekit.cli, "build_parser", counting_build_parser)
    apekit.cli._parser.cache_clear()
    hyp = write_lines(tmp_path / "hyp.txt", ["The cat sat .", "A dog ran"])
    ref = write_lines(tmp_path / "ref.txt", ["the cat sat .", "a dog ran fast"])
    argv = ["evaluate", "--hyp", str(hyp), "--ref", str(ref)]

    assert main([*argv, "--out", str(tmp_path / "before.json")]) == 0
    # --lowercase is parsed before the bad seed stops the call
    assert main([*argv, "--lowercase", "--seed", "x", "--out", str(tmp_path / "failed.json")]) == 1
    assert "argument --seed: " in capsys.readouterr().err
    assert main([*argv, "--out", str(tmp_path / "after.json")]) == 0

    assert len(built) == 1
    assert not (tmp_path / "failed.json").exists()
    reports = [load_json(tmp_path / name) for name in ("before.json", "after.json")]
    for report in reports:
        del report["manifest"]["timestamp"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
@pytest.mark.parametrize("value", ["-1", str(2**64), "1.5", "x"])
def test_seed_outside_the_seed_rule_is_a_usage_error(tmp_path, monkeypatch, capsys, command, value):
    monkeypatch.chdir(tmp_path)
    assert main([command, *REQUIRED_ARGS[command], "--seed", value]) == 1
    err = capsys.readouterr().err
    assert "argument --seed: " in err
    if value.lstrip("-").isdigit():
        assert f"must be an integer from 0 to 2**64 - 1, got {value}" in err


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_largest_seed_parses(command):
    args = build_parser().parse_args([command, *REQUIRED_ARGS[command], "--seed", str(2**64 - 1)])
    assert args.seed == 2**64 - 1


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    assert main([command, *REQUIRED_ARGS[command], flag, FLAG_VALUES[flag]]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_every_benchmark_command_line_still_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    parser = build_parser()
    argvs = [command.argv for workload in workloads.WORKLOADS.values() for command in workload.commands(7)]
    assert {argv[0] for argv in argvs} == {"filter", "preprocess", "postprocess", "evaluate",
                                          "significance", "buckets"}
    for argv in argvs:
        parser.parse_args(argv)


@pytest.mark.parametrize("command, data, line", [
    pytest.param("agreement", b'A,i1,nmt,3\nA,i2,ape,\xff4\n', 2, id="agreement"),
    pytest.param("adequacy", b'A,i1,nmt,3\nA,i2,ape,\xff4\n', 2, id="adequacy"),
    pytest.param("agreement", b'A,i1,nmt,3\nA,"i\n\xff2",ape,4\n', 3, id="inside-a-quoted-field"),
    pytest.param("ablate", b'size,replicate,value\n10,0,50\n10,1,\xff5\n', 3, id="ablate-scores"),
])
def test_csv_bytes_that_are_not_utf8_name_file_and_line(tmp_path, capsys, command, data, line):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    argv = ["ablate", "--scores", str(path), "--sizes", "10"] if command == "ablate" else [command, "--csv", str(path)]
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
    assert f"error: {path}: line {line}: byte " in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_rejected_preprocess_and_postprocess_keep_earlier_outputs(tmp_path, capsys):
    """A rejected run leaves the files of an earlier run as they were, and no temporary file."""
    corpus, changelog, decoded = _preprocessed(tmp_path, [("a", "<i>b</i>", "c"), ("d", "- e", "f")])
    restored = tmp_path / "restored.txt"
    assert main(["postprocess", "--outputs", str(decoded), "--changelog", str(changelog), "--out", str(restored)]) == 0
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    bad, _ = make_corpus_file(tmp_path, [("a", "b", "c"), ("d", "e\nf", "g")], name="bad.jsonl")
    before[bad] = bad.read_bytes()
    assert main(["preprocess", "--in", str(bad), "--out-dir", str(tmp_path / "pre")]) == 2
    short = write_lines(tmp_path / "short.txt", ["b"])
    before[short] = short.read_bytes()
    assert main(["postprocess", "--outputs", str(short), "--changelog", str(changelog), "--out", str(restored)]) == 2
    assert main(["postprocess", "--outputs", str(decoded), "--changelog", str(changelog), "--out", str(restored),
                 "--orig", str(bad)]) == 2
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
