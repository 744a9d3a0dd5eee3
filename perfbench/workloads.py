"""The benchmark workloads: inputs, command sequence, output checks.

Each workload is what one researcher runs one command after another
(a closed loop with one client): every command is a real ``apekit``
subcommand with ``--threads 1`` and an explicit ``--seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import checks
import generate

# About a twentieth of the paper's 161,413 triplets, with dev and test
# scaled alike (10k each at paper scale), so one filter, preprocess and
# postprocess pass takes a few seconds.
BUILD_TRIPLETS = 8000
BUILD_HELDOUT = 400
N_SAMPLES = 1000  # bootstrap samples, the toolkit default

# Subtitle lines: short, many, and a large share the APE system left as
# the MT, so TER runs over two distinct pair sets.
SUBTITLE_PAIRS = dict(n=32, min_len=3, max_len=17, edit_rate=0.2, block_move_share=0.3,
                      length_change_share=0.3, ape_identical_share=0.4, mt_exact_share=0.1)
# WMT-APE news lines: few and long, where the shift search dominates.
NEWS_PAIRS = dict(n=10, min_len=16, max_len=30, edit_rate=0.2, block_move_share=0.3,
                  length_change_share=0.3, ape_identical_share=0.4, mt_exact_share=0.1)

BUILD_PATH = (
    "cli.main", "corpus.read_corpus", "corpus.write_corpus", "filtering.run_filter_pipeline",
    "filtering.compute_global_ratio", "filtering.ratio_filter", "filtering.normalize_corpus",
    "filtering.dedup", "filtering.language_filter", "filtering.split_holdout", "langid.classify",
    "segments.preprocess", "segments.strip_markup", "segments.postprocess_with_report",
)
METRIC_PATH = (
    "cli.main", "tokenizer.tokenize", "ter.ter_corpus", "ter.ter_sentence", "ter.edit_distance",
    "bleu.bleu_corpus", "bleu.corpus_stats_matrix", "bleu.sentence_stats", "chrf.chrf",
    "chrf.chrf_sentence_stats",
)


@dataclass(frozen=True)
class Command:
    name: str
    argv: List[str]
    outputs: List[str]  # files the command writes, relative to the work directory


@dataclass(frozen=True)
class Workload:
    items: int  # input triplets or sentence pairs one command sequence processes
    write_inputs: Callable[[Path, int], dict]
    commands: Callable[[int], List[Command]]
    check: Callable[[Path, dict], Dict[str, List[str]]]
    trace_path: tuple  # traced functions that must fire at least once
    prepare: Optional[Callable[[Path, int, dict, Callable], None]] = None


def _checked(check, *args) -> List[str]:
    """Run one output check; outputs it cannot read count as wrong."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{check.__name__} could not read the outputs: {exc!r}"]


def _common(seed: int) -> List[str]:
    return ["--seed", str(seed), "--threads", "1"]


# ------------------------------------------------------------------ build


def _build_commands(seed: int) -> List[Command]:
    return [
        Command("filter",
                ["filter", "--in", "in/corpus.jsonl", "--out-dir", "filtered", "--config", "in/filter.json"]
                + _common(seed),
                [f"filtered/{name}" for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "filter_report.json")]),
        Command("preprocess",
                ["preprocess", "--in", "filtered/train.jsonl", "--out-dir", "pre"] + _common(seed),
                [f"pre/{name}" for name in ("cleaned.jsonl", "changelog.jsonl", "preprocess_report.json")]),
        Command("postprocess",
                ["postprocess", "--outputs", "in/decoded.txt", "--changelog", "pre/changelog.jsonl",
                 "--out", "restored/mt.txt", "--field", "mt", "--orig", "filtered/train.jsonl"] + _common(seed),
                ["restored/mt.txt"]),
    ]


def _build_inputs(work: Path, seed: int) -> dict:
    return generate.write_build_inputs(work / "in", seed, BUILD_TRIPLETS, BUILD_HELDOUT, BUILD_HELDOUT)


def _build_prepare(work: Path, seed: int, manifest: dict, run_commands: Callable) -> None:
    """The decoded file must match the cleaned parts, so filter and
    preprocess run once, untimed, before the decoded file is written."""
    run_commands(_build_commands(seed)[:2])
    manifest["unedited"] = generate.write_decoded(work / "pre" / "cleaned.jsonl", work / "in" / "decoded.txt", seed)


def _build_check(work: Path, manifest: dict) -> Dict[str, List[str]]:
    train = work / "filtered" / "train.jsonl"
    return {
        "filter": _checked(checks.check_filter, work / "filtered", manifest),
        "preprocess": _checked(checks.check_preprocess, work / "pre", train),
        "postprocess": _checked(checks.check_postprocess, work / "restored" / "mt.txt", train,
                                manifest["unedited"]),
    }


# ------------------------------------------------------------------- eval


def _eval_inputs(spec: dict) -> Callable[[Path, int], dict]:
    return lambda work, seed: generate.write_eval_inputs(work / "in", seed, **spec)


def _subtitle_commands(seed: int) -> List[Command]:
    common = _common(seed)
    return [
        Command("evaluate",
                ["evaluate", "--hyp", "in/ape.txt", "--ref", "in/ref.txt", "--hyp-b", "in/mt.txt",
                 "--per-sentence", "--n-samples", str(N_SAMPLES), "--out", "reports/evaluate.json"] + common,
                ["reports/evaluate.json"]),
        Command("significance",
                ["significance", "--hyp-a", "in/ape.txt", "--hyp-b", "in/mt.txt", "--ref", "in/ref.txt",
                 "--statistic", "ter", "--n-samples", str(N_SAMPLES), "--out", "reports/significance.json"]
                + common,
                ["reports/significance.json"]),
        Command("buckets",
                ["buckets", "--baseline", "in/mt.txt", "--ape", "in/ape.txt", "--ref", "in/ref.txt",
                 "--out", "reports/buckets.json"] + common,
                ["reports/buckets.json"]),
    ]


def _subtitle_check(work: Path, manifest: dict) -> Dict[str, List[str]]:
    reports, inputs = work / "reports", work / "in"
    return {
        "evaluate": _checked(checks.check_evaluate, reports / "evaluate.json", inputs / "ape.txt",
                             inputs / "ref.txt", N_SAMPLES),
        "significance": _checked(checks.check_significance, reports / "significance.json", N_SAMPLES),
        "buckets": _checked(checks.check_buckets, reports / "buckets.json", manifest["n"]),
    }


def _news_commands(seed: int) -> List[Command]:
    return [
        Command("evaluate",
                ["evaluate", "--hyp", "in/ape.txt", "--ref", "in/ref.txt", "--out", "reports/evaluate.json"]
                + _common(seed),
                ["reports/evaluate.json"]),
    ]


def _news_check(work: Path, manifest: dict) -> Dict[str, List[str]]:
    return {"evaluate": _checked(checks.check_evaluate, work / "reports" / "evaluate.json",
                                 work / "in" / "ape.txt", work / "in" / "ref.txt")}


WORKLOADS = {
    "build": Workload(BUILD_TRIPLETS, _build_inputs, _build_commands, _build_check, BUILD_PATH,
                      _build_prepare),
    "eval_subtitle": Workload(SUBTITLE_PAIRS["n"], _eval_inputs(SUBTITLE_PAIRS),
                              _subtitle_commands, _subtitle_check,
                              METRIC_PATH + ("bootstrap.bootstrap_significance", "analysis.ter_buckets")),
    "eval_news": Workload(NEWS_PAIRS["n"], _eval_inputs(NEWS_PAIRS), _news_commands, _news_check,
                          METRIC_PATH),
}


def plan_json(commands: List[Command]) -> str:
    return json.dumps([{"name": c.name, "argv": c.argv, "outputs": c.outputs} for c in commands])
