"""Each output check accepts the real program's output and rejects a
deliberately corrupted copy of it."""

import json

import pytest
from apekit.cli import main

import checks
import generate
import run
import workloads

SUBTITLE = dict(workloads.SUBTITLE_PAIRS, n=12)


@pytest.fixture
def build(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    manifest = generate.write_build_inputs(tmp_path / "in", 4, 600, 30, 30)
    commands = workloads._build_commands(4)
    for command in commands[:2]:
        assert main(command.argv) == 0
    manifest["unedited"] = generate.write_decoded(tmp_path / "pre" / "cleaned.jsonl",
                                                  tmp_path / "in" / "decoded.txt", 4)
    assert main(commands[2].argv) == 0
    return tmp_path, manifest


@pytest.fixture
def subtitle(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    manifest = generate.write_eval_inputs(tmp_path / "in", 4, **SUBTITLE)
    for command in workloads._subtitle_commands(4):
        assert main(command.argv) == 0
    return tmp_path, manifest


def _rewrite_json(path, edit):
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")


def test_build_outputs_pass(build):
    work, manifest = build
    assert workloads._build_check(work, manifest) == {"filter": [], "preprocess": [], "postprocess": []}


def test_filter_check_rejects_a_split_holding_a_planted_id(build):
    work, manifest = build
    planted_id = manifest["planted"]["langid"][0]
    corpus = {json.loads(line)["id"]: line for line in (work / "in" / "corpus.jsonl").open(encoding="utf-8")}
    with open(work / "filtered" / "dev.jsonl", "a", encoding="utf-8") as handle:
        handle.write(corpus[planted_id])
    errors = checks.check_filter(work / "filtered", manifest)
    assert any("planted langid" in e for e in errors)
    assert any("dev.jsonl has" in e for e in errors)


def test_filter_check_rejects_unreconciled_counts(build):
    work, manifest = build
    _rewrite_json(work / "filtered" / "filter_report.json",
                  lambda d: d["report"].update(removed_by_dedup=d["report"]["removed_by_dedup"] + 1))
    assert any("reconcile" in e for e in checks.check_filter(work / "filtered", manifest))


def test_preprocess_check_rejects_surviving_markup(build):
    work, _ = build
    path = work / "pre" / "cleaned.jsonl"
    rows = [json.loads(line) for line in path.open(encoding="utf-8")]
    rows[0]["mt"] = "<i>" + rows[0]["mt"]
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    assert any("keeps markup" in e for e in checks.check_preprocess(work / "pre", work / "filtered" / "train.jsonl"))


def test_postprocess_check_rejects_a_flipped_restored_line(build):
    work, manifest = build
    train = [json.loads(line) for line in (work / "filtered" / "train.jsonl").open(encoding="utf-8")]
    position = next(i for i, t in enumerate(train) if t["id"] == manifest["unedited"][0])
    path = work / "restored" / "mt.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[position] = lines[position][::-1] + "x"
    path.write_text("\n".join(lines), encoding="utf-8")
    errors = checks.check_postprocess(path, work / "filtered" / "train.jsonl", manifest["unedited"])
    assert errors and manifest["unedited"][0] in errors[0]


def test_eval_outputs_pass(subtitle):
    work, manifest = subtitle
    assert workloads._subtitle_check(work, manifest) == {"evaluate": [], "significance": [], "buckets": []}


def test_evaluate_check_rejects_ter_above_the_shift_free_rate(subtitle):
    work, _ = subtitle
    report = work / "reports" / "evaluate.json"
    _rewrite_json(report, lambda d: d["per_sentence"][0]["ter"].update(score=5.0))
    errors = checks.check_evaluate(report, work / "in" / "ape.txt", work / "in" / "ref.txt", workloads.N_SAMPLES)
    assert len(errors) == 1 and errors[0].startswith("line 1: TER 5.0 above shift-free")


def test_evaluate_check_rejects_nonzero_ter_on_an_identical_pair(subtitle):
    work, _ = subtitle
    ape = (work / "in" / "ape.txt").read_text(encoding="utf-8").splitlines()
    ref = (work / "in" / "ref.txt").read_text(encoding="utf-8").splitlines()
    i = next(k for k, (a, r) in enumerate(zip(ape, ref)) if a == r)
    report = work / "reports" / "evaluate.json"
    _rewrite_json(report, lambda d: d["per_sentence"][i]["ter"].update(score=-0.5))
    errors = checks.check_evaluate(report, work / "in" / "ape.txt", work / "in" / "ref.txt", workloads.N_SAMPLES)
    assert errors == [f"line {i + 1}: identical pair scored TER -0.5"]


def test_bootstrap_checks_reject_counts_that_do_not_sum(subtitle):
    work, _ = subtitle
    for name in ("evaluate.json", "significance.json"):
        _rewrite_json(work / "reports" / name, lambda d: d["bootstrap"].update(ties=d["bootstrap"]["ties"] + 1))
    assert checks.check_significance(work / "reports" / "significance.json", workloads.N_SAMPLES)
    assert checks.check_evaluate(work / "reports" / "evaluate.json", work / "in" / "ape.txt",
                                 work / "in" / "ref.txt", workloads.N_SAMPLES)


def test_buckets_check_rejects_lost_items(subtitle):
    work, manifest = subtitle
    _rewrite_json(work / "reports" / "buckets.json", lambda d: d["analysis"]["buckets"][0].update(count=-1))
    assert checks.check_buckets(work / "reports" / "buckets.json", manifest["n"])


def test_report_digest_ignores_only_the_timestamp(subtitle):
    work, _ = subtitle
    path = work / "reports" / "buckets.json"
    before = checks.output_digest(path)
    _rewrite_json(path, lambda d: d["manifest"].update(timestamp="2000-01-01T00:00:00+00:00"))
    assert checks.output_digest(path) == before
    _rewrite_json(path, lambda d: d["manifest"].update(seed=99))
    assert checks.output_digest(path) != before


def test_tally_fails_a_command_whose_outputs_changed_between_runs():
    def command(digest, code=0):
        return {"name": "evaluate", "exit_code": code, "wall_s": 1.0, "digests": {"r.json": digest}, "error": None}

    runs = [command("a"), command("a"), command("b"), command("a", code=2)]
    worker = {"iterations": [{"traced": False, "commands": [c]} for c in runs]}
    attempted, failed, messages = run.tally(worker, {})
    assert (attempted, failed) == (4, 2)
    assert run.tally(worker, {"evaluate": ["bad"]})[1] == 4


def test_missing_outputs_count_as_failed_checks(subtitle):
    work, manifest = subtitle
    (work / "reports" / "buckets.json").unlink()
    errors = workloads._subtitle_check(work, manifest)
    assert errors["evaluate"] == [] and errors["buckets"][0].startswith("check_buckets could not read")
