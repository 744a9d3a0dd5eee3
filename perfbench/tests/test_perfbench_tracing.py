"""The traced run wraps every binding, accounts for all wall time, and
fails loudly when a wrapper on the workload's path never fires."""

import json
import os
import subprocess
import sys

import apekit.analysis
import apekit.bleu
import apekit.bootstrap
import apekit.cli
import apekit.ter
import pytest

import generate
import run
import tracing
import workloads
from conftest import PERFBENCH, SRC


@pytest.fixture
def tracer():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    yield tracer
    tracer.restore()


def test_install_wraps_every_binding_and_restore_undoes_it():
    original = apekit.ter.ter_sentence
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for module in (apekit.ter, apekit.cli, apekit.bootstrap, apekit.analysis):
            assert module.ter_sentence.__wrapped__ is original
        assert apekit.bleu.tokenize is apekit.ter.tokenize
        assert apekit.bleu.tokenize.__wrapped__ is apekit.tokenizer.tokenize.__wrapped__
    finally:
        tracer.restore()
    assert apekit.cli.ter_sentence is original
    assert not hasattr(apekit.bleu.tokenize, "__wrapped__")


def test_install_rejects_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [("apekit.ter", "renamed_away", tracing.SPAN, None)])
    tracer = tracing.Tracer()
    try:
        with pytest.raises(RuntimeError, match="renamed_away"):
            tracing.install(tracer)
    finally:
        tracer.restore()


def test_layer_self_times_add_up_to_the_traced_wall(tmp_path, monkeypatch, tracer):
    monkeypatch.chdir(tmp_path)
    spec = dict(workloads.SUBTITLE_PAIRS, n=8)
    generate.write_eval_inputs(tmp_path / "in", 2, **spec)
    for run_id in range(2):
        tracer.run_id = run_id
        for command in workloads._subtitle_commands(2):
            assert apekit.cli.main(command.argv) == 0
    tracer.dump(tmp_path / "trace.json")
    metrics = tracing.summarize(tmp_path / "trace.json")
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(metrics["trace.wall_s"], rel=1e-6)
    assert metrics["ter.sentence_calls"] == 8 * 8  # 3 + 2 + 3 passes over the pairs
    ape, mt, ref = ((tmp_path / "in" / f).read_text(encoding="utf-8").splitlines()
                    for f in ("ape.txt", "mt.txt", "ref.txt"))
    distinct = set(zip(ape, ref)) | set(zip(mt, ref))
    assert metrics["ter.distinct_pair_ratio"] == pytest.approx(len(distinct) / 64)
    assert metrics["bootstrap.calls"] == 2 and metrics["bootstrap.samples"] == 2 * workloads.N_SAMPLES
    assert metrics["ter.sentence_samples"] == 2 * 64
    assert metrics["langid.classify_calls"] == 0


def test_worker_fails_loudly_when_a_wrapper_never_fires(tmp_path):
    spec = dict(workloads.NEWS_PAIRS, n=2, min_len=4, max_len=6)
    generate.write_eval_inputs(tmp_path / "in", 1, **spec)
    (tmp_path / "plan.json").write_text(workloads.plan_json(workloads._news_commands(1)), encoding="utf-8")
    argv = [sys.executable, str(PERFBENCH / "worker.py"), "--plan", "plan.json", "--result", "result.json",
            "--seconds", "0", "--min-iterations", "2", "--trace", "trace.json", "--expect"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ok = subprocess.run(argv + list(workloads.METRIC_PATH), cwd=tmp_path, env=env, capture_output=True, text=True)
    assert ok.returncode == 0, ok.stderr
    silent = subprocess.run(argv + ["langid.classify"], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert silent.returncode == 3
    assert "langid.classify" in silent.stderr


def test_benchmark_json_lists_every_reported_metric(tmp_path, monkeypatch, tracer):
    monkeypatch.chdir(tmp_path)
    generate.write_eval_inputs(tmp_path / "in", 3, **dict(workloads.NEWS_PAIRS, n=2, min_len=4, max_len=6))
    tracer.run_id = 1
    assert apekit.cli.main(workloads._news_commands(3)[0].argv) == 0
    tracer.dump(tmp_path / "trace.json")
    reported = set(tracing.summarize(tmp_path / "trace.json"))
    reported |= {f"{name}_s" for name in run.COMMAND_METRICS}
    reported |= {"failed_ops_ratio", "items_per_s", "calibration_ms", "trace.overhead_ratio"}
    bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {name: run._unit(name) for name in reported}
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "items_per_norm_s", "peak_rss_mb"}
    assert set(workloads.WORKLOADS) == {w["name"] for w in bench["workloads"]}


def test_summarize_rejects_removal_counts_that_do_not_repeat(tmp_path):
    def spans(run_id, removed):
        main = ["cli.main", 0.0, 1.0, None, run_id, 0.5, None]
        stage = ["filtering.dedup", 0.2, 0.7, 0, run_id, 0.5, {"dedup": removed}]
        return [main, stage]

    trace = {"spans": spans(1, 3) + spans(3, 4), "counters": []}
    (tmp_path / "trace.json").write_text(json.dumps(trace), encoding="utf-8")
    with pytest.raises(RuntimeError, match="'dedup' in different repetitions"):
        tracing.summarize(tmp_path / "trace.json")
