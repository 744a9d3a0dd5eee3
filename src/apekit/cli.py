"""Command-line interface: the whole toolkit as subcommands.

Every command reads plain files and writes a UTF-8 JSON report with a
stable key order, led by a run manifest: the toolkit version, the digest
of the filter config (null for every other command), the SHA-256 of each
input file, the seed and a timestamp. Scoring options such as the
tokenizer are not recorded yet. A command writes only to the paths that
``main``'s ``staged_outputs`` block stages for it, none of them one of
its input files, so its files appear once it has succeeded and a failed
command leaves no file behind.
Exit codes: 0 success, 1 usage or config error, 2 data or validation
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

from . import __version__
from .agreement import (
    adequacy_summary,
    pairwise_average_kappa,
    read_adequacy_csv,
    shared_decided_ratings,
)
from .analysis import (
    DEFAULT_REPLICATES,
    SampleSpec,
    curve_report,
    draw_samples,
    read_scores,
    ter_buckets,
)
from .bleu import bleu_corpus
from .bootstrap import DEFAULT_SAMPLES, STATISTICS, bootstrap_significance
from .chrf import chrf
from .corpus import (
    FORMATS,
    TEXT_FIELDS,
    corpus_stats,
    decode_json,
    iter_corpus,
    open_lines,
    read_corpus,
    read_lines,
    require_file,
    staged_outputs,
    write_corpus,
)
from .filtering import SEED_RULE, FilterConfig, is_seed, run_filter_pipeline
from .langid import NgramLanguageClassifier
from .segments import postprocess_all, preprocess_all, read_changelog, write_changelog
from .ter import EmptyReferenceError, ter_corpus, ter_sentence
from .tokenizer import SCHEMES, TER_NORMALIZED_TOKENIZER, TokenizerConfig

WMT_APE_EN_DE_SIZE = 13_441  # reference marker for data-size curves


class ConfigError(Exception):
    """Bad configuration: maps to exit code 1."""


class _Input(str):
    """A path option's value that names a file the command reads."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not argparse's 2
        raise ConfigError(message)


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(subcommand: str, inputs, seed=None, config: dict = None) -> dict:
    return {
        "toolkit_version": __version__,
        "subcommand": subcommand,
        "config_digest": hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()
        if config else None,
        "input_digests": {str(p): _sha256_file(p) for p in inputs},
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _record_json(record) -> dict:
    """The JSON of a report record: its ``to_dict`` if it has one, else its
    fields in declaration order (``vars``, at half the cost of ``asdict``)."""
    return record.to_dict() if hasattr(record, "to_dict") else vars(record)


def _write_report(path, manifest: dict, /, **body) -> None:
    """Write ``{"manifest": manifest, **body}`` as indented UTF-8 JSON."""
    with open_lines(path) as handle:
        json.dump({"manifest": manifest, **body}, handle, ensure_ascii=False, indent=2, default=_record_json,
                  allow_nan=False)
        handle.write("\n")


def _write_csv(path, header: list, rows) -> None:
    with open_lines(path) as handle:  # no newline translation: csv's \r\n row ends pass through as written
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def _scoring_inputs(*paths):
    """Read a scoring command's line files, one item per line, and yield them.

    Each must have as many lines as the last, the reference. A path of
    None (an optional input left out) reads as None. An empty reference
    that TER rejects inside the block is named by file and line: TER
    scores lines in file order and stops at the first empty one, so that
    is the first line with the rejected text.
    """
    files = [list(read_lines(path)) if path else None for path in paths]
    refs = files[-1]
    for path, lines in zip(paths, files):
        if lines is not None and len(lines) != len(refs):
            raise ValueError(f"line count mismatch: {path} has {len(lines)}, {paths[-1]} has {len(refs)}")
    try:
        yield files
    except EmptyReferenceError as exc:
        raise ValueError(f"{paths[-1]}: line {refs.index(exc.ref) + 1}: {exc}") from exc


# ---------------------------------------------------------------- filter


def cmd_filter(args, stage) -> str:
    if args.config:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            config_data = decode_json(config_path.read_text(encoding="utf-8"))
            config = FilterConfig.from_dict(config_data)
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            raise ConfigError(f"invalid filter config: {exc}") from exc
    else:
        config = FilterConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    classifier = NgramLanguageClassifier.default()
    for key in ("expected_src_lang", "expected_tgt_lang"):
        lang = getattr(config, key)
        if lang not in classifier.languages:
            raise ConfigError(
                f"filter config {key} = {lang!r}: the built-in language classifier "
                f"knows only {', '.join(classifier.languages)}"
            )

    corpus = read_corpus(args.input, args.format)
    train, dev, test, report = run_filter_pipeline(corpus, config, classifier)

    out_dir = Path(args.out_dir)
    for split, name in zip((train, dev, test), ("train.jsonl", "dev.jsonl", "test.jsonl")):
        write_corpus(split, stage(out_dir / name))
    manifest = _manifest("filter", [args.input], seed=config.seed, config=vars(config))
    _write_report(stage(out_dir / "filter_report.json"), manifest, config=config, report=report)
    return f"filter: kept {report.kept_count}/{report.input_count} -> {out_dir}"


# ---------------------------------------------------- preprocess / postprocess


def cmd_preprocess(args, stage) -> str:
    require_file(args.input)
    manifest = _manifest("preprocess", [args.input])  # hashes the input once, for the changelog too
    input_sha256 = manifest["input_digests"][args.input]
    out_dir = Path(args.out_dir)
    outputs = ("cleaned.jsonl", "changelog.jsonl", "preprocess_report.json")
    cleaned_path, changelog_path, report_path = (stage(out_dir / name) for name in outputs)
    with open_lines(cleaned_path) as cleaned:
        header = write_changelog(changelog_path, preprocess_all(iter_corpus(args.input, args.format), cleaned),
                                 input_sha256)
    _write_report(report_path, manifest, n_triplets=header["n_triplets"], n_parts=header["n_parts"])
    return f"preprocess: {header['n_triplets']} triplets -> {header['n_parts']['mt']} mt parts in {out_dir}"


def cmd_postprocess(args, stage) -> str:
    header, triplets = read_changelog(args.changelog)
    restored = dropped_total = 0
    with open_lines(stage(args.out)) as handle:
        for text, dropped in postprocess_all(read_lines(args.outputs), triplets, header, args.field):
            handle.write(text + "\n")
            restored += 1
            dropped_total += dropped
    if args.orig:
        orig_digest = _sha256_file(require_file(args.orig))
        if orig_digest != header.get("input_sha256"):
            raise ValueError(
                f"changelog digest mismatch: changelog was produced from input "
                f"{header.get('input_sha256')}, but {args.orig} hashes to {orig_digest}"
            )
    return (f"postprocess: restored {restored} segment(s) to {Path(args.out)}"
            + (f" ({dropped_total} irrecoverable record(s) dropped)" if dropped_total else ""))


# ---------------------------------------------------------------- evaluate


def _metric_report(hyps, refs, bleu_tok, ter_tok, per_sentence=False) -> dict:
    bleu = bleu_corpus(hyps, refs, bleu_tok)
    chrf_score = chrf(hyps, refs)
    ter = ter_corpus(hyps, refs, ter_tok)
    report = {"bleu": bleu, "chrf": chrf_score, "ter": ter}
    if per_sentence:
        report["per_sentence"] = [{"ter": ter_sentence(hyp, ref, ter_tok)[0]} for hyp, ref in zip(hyps, refs)]
    return report


def cmd_evaluate(args, stage) -> str:
    if args.n_samples is not None and not args.hyp_b:
        raise ConfigError("evaluate --n-samples needs --hyp-b (it sets the bootstrap's resample count)")
    bleu_tok = TokenizerConfig(scheme=args.tokenizer, lowercase=args.lowercase)
    ter_tok = TER_NORMALIZED_TOKENIZER if args.ter_normalize else bleu_tok
    seed = args.seed if args.seed is not None else 0
    with _scoring_inputs(args.hyp, args.hyp_b, args.ref) as (hyps, hyps_b, refs):
        report = _metric_report(hyps, refs, bleu_tok, ter_tok, args.per_sentence)
        if args.hyp_b:
            report["system_b"] = _metric_report(hyps_b, refs, bleu_tok, ter_tok)
            report["bootstrap"] = bootstrap_significance(
                hyps, hyps_b, refs, n_samples=args.n_samples or DEFAULT_SAMPLES, seed=seed, tok=bleu_tok
            )
    manifest = _manifest("evaluate", [path for path in (args.hyp, args.ref, args.hyp_b) if path], seed=seed)
    _write_report(stage(args.out), manifest, **report)
    return "evaluate: BLEU {:.2f} ChrF {:.2f} TER {:.2f}".format(
        report["bleu"].score, report["chrf"], report["ter"].score * 100.0
    )


def cmd_significance(args, stage) -> str:
    seed = args.seed if args.seed is not None else 0
    with _scoring_inputs(args.hyp_a, args.hyp_b, args.ref) as (hyps_a, hyps_b, refs):
        result = bootstrap_significance(
            hyps_a, hyps_b, refs, n_samples=args.n_samples, seed=seed, statistic=args.statistic
        )
    _write_report(stage(args.out), _manifest("significance", [args.hyp_a, args.hyp_b, args.ref], seed=seed),
                  bootstrap=result)
    return f"significance: wins_a={result.wins_a} wins_b={result.wins_b} ties={result.ties} p={result.p_value:.4f}"


# ------------------------------------------------------- agreement / adequacy


def cmd_agreement(args, stage) -> str:
    table = read_adequacy_csv(require_file(args.csv))
    items, ratings = shared_decided_ratings(table)
    plain = pairwise_average_kappa(ratings, weighting="none")
    weighted = pairwise_average_kappa(ratings, weighting="quadratic")
    _write_report(stage(args.out), _manifest("agreement", [args.csv]),
                  n_shared_items=len(items), cohen_kappa=plain, weighted_kappa=weighted)
    return f"agreement: {len(items)} shared items, kappa={plain.mean_kappa:.4f} weighted={weighted.mean_kappa:.4f}"


def cmd_adequacy(args, stage) -> str:
    summary = adequacy_summary(read_adequacy_csv(require_file(args.csv)))
    _write_report(stage(args.out), _manifest("adequacy", [args.csv]), summary=summary)
    return "\n".join(
        f"adequacy: {row['annotator']}: "
        + " ".join(f"{s}={m:.1f}" if m is not None else f"{s}=n/a" for s, m in row["means"].items())
        + f" ({row['used']} / {row['assigned']})"
        for row in (*summary.per_annotator, summary.overall)
    )


# ------------------------------------------------------------ ablate / buckets


def _sample_spec(args, seed: int = 0) -> SampleSpec:
    """``--sizes`` and ``--replicates`` as a SampleSpec; a fault in either is a usage error."""
    try:
        return SampleSpec(tuple(int(s) for s in args.sizes.split(",") if s.strip()), args.replicates, seed)
    except ValueError as exc:
        raise ConfigError(f"invalid --sizes value {args.sizes!r}: {exc}") from exc


def cmd_draw(args, stage) -> str:
    spec = _sample_spec(args, args.seed or 0)
    samples = []
    for size, replicate, sample in draw_samples(read_corpus(args.input, args.format), spec):
        path = Path(args.emit_samples) / f"sample_{size}_{replicate}.jsonl"
        staged = stage(path)
        write_corpus(sample, staged)
        samples.append({"size": size, "replicate": replicate, "path": str(path), "sha256": _sha256_file(staged)})
    _write_report(stage(args.out), _manifest("ablate", [args.input], seed=spec.base_seed),
                  replicates=args.replicates, samples=samples)
    return f"ablate: drew {len(samples)} samples -> {args.emit_samples}"


def cmd_curve(args, stage) -> str:
    if args.baseline is not None and not math.isfinite(args.baseline):
        raise ConfigError(f"argument --baseline: must be a finite number, got {args.baseline}")
    results = read_scores(args.scores, _sample_spec(args))
    points = curve_report(results, metric=args.metric)
    _write_report(stage(args.out), _manifest("ablate", [args.scores]), metric=args.metric, replicates=args.replicates,
                  n_samples=len(results), baseline=args.baseline, wmt_size_marker=WMT_APE_EN_DE_SIZE,
                  results=[{"size": s, "replicate": r, "value": v} for s, r, v in results], points=points)
    if args.out_csv:
        rows = ([p.metric, p.size, p.mean, p.min, p.max] for p in points)
        _write_csv(stage(args.out_csv), ["metric", "size", "mean", "min", "max"], rows)
    return f"ablate: {len(results)} runs -> {len(points)} curve points"


def cmd_buckets(args, stage) -> str:
    with _scoring_inputs(args.baseline, args.ape, args.ref) as (baseline, ape, refs):
        analysis = ter_buckets(baseline, ape, refs)
    _write_report(stage(args.out), _manifest("buckets", [args.baseline, args.ape, args.ref]), analysis=analysis)
    if args.out_csv:
        rows = ([b.label, b.count, b.baseline_ter, b.ape_ter, b.delta_ter] for b in analysis.buckets)
        _write_csv(stage(args.out_csv), ["bucket", "count", "baseline_ter", "ape_ter", "delta_ter"], rows)
    return f"buckets: {analysis.total} items over {len(analysis.buckets)} buckets"


# ------------------------------------------------------------------- stats


def cmd_stats(args, stage) -> str:
    stats = corpus_stats(iter_corpus(args.input, args.format))
    _write_report(stage(args.out), _manifest("stats", [args.input]), stats=stats)
    return (f"stats: {stats.n_triplets} triplets, tokens src/mt/pe = "
            f"{stats.tokens_src}/{stats.tokens_mt}/{stats.tokens_pe}")


# ------------------------------------------------------------------ parser


def build_parser() -> _Parser:
    parser = _Parser(prog="apekit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)

    def count(raw: str) -> int:  # argparse type; a non-integer is an "invalid count value"
        value = int(raw)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        return value

    def seed(raw: str) -> int:  # argparse type; a non-integer is an "invalid seed value"
        value = int(raw)
        if not is_seed(value):
            raise argparse.ArgumentTypeError(f"must be {SEED_RULE}, got {value}")
        return value

    def path(raw: str) -> str:  # argparse type for every output file and directory option
        if not raw:
            raise argparse.ArgumentTypeError("must be a non-empty path")
        return raw

    def input_path(raw: str) -> _Input:  # argparse type for every input file option
        return _Input(path(raw))

    def flag(*names, **kwargs):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    seeded = flag("--seed", type=seed, default=None, help="seed for all randomness")
    inert_seed = flag("--seed", type=seed, default=None, help="accepted for scripts; has no effect")
    threads = flag("--threads", type=count, default=1, help="accepted for scripts; has no effect")
    fmt = flag("--format", choices=FORMATS, default="jsonl", help="corpus format")
    grid = flag("--sizes", required=True, help="comma-separated sample sizes")
    grid.add_argument("--replicates", type=count, default=DEFAULT_REPLICATES)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", parents=[seeded, threads, fmt], help="run the corpus filter pipeline")
    p.add_argument("--in", type=input_path, dest="input", required=True, help="input corpus")
    p.add_argument("--out-dir", type=path, required=True, help="directory for splits and report")
    p.add_argument("--config", type=input_path, default=None, help="JSON filter config file")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("preprocess", parents=[inert_seed, threads, fmt], help="split and strip subtitle markup")
    p.add_argument("--in", type=input_path, dest="input", required=True, help="input corpus")
    p.add_argument("--out-dir", type=path, required=True, help="directory for cleaned corpus and changelog")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("postprocess", parents=[inert_seed, threads], help="restore tracked changes")
    p.add_argument("--outputs", type=input_path, required=True, help="decoded text, one cleaned part per line")
    p.add_argument("--changelog", type=input_path, required=True, help="changelog from the matching preprocess run")
    p.add_argument("--out", type=path, required=True, help="restored text output path")
    p.add_argument("--field", choices=TEXT_FIELDS, default="mt")
    p.add_argument("--orig", type=input_path, default=None, help="original corpus to digest-check against")
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("evaluate", parents=[seeded, threads], help="BLEU, ChrF, and TER report")
    p.add_argument("--hyp", type=input_path, required=True)
    p.add_argument("--ref", type=input_path, required=True)
    p.add_argument("--hyp-b", type=input_path, default=None, help="second system; adds a bootstrap block")
    p.add_argument("--out", type=path, default="metric_report.json")
    p.add_argument("--tokenizer", choices=SCHEMES, default="punct_split")
    p.add_argument("--lowercase", action="store_true")
    p.add_argument("--no-ter-normalize", dest="ter_normalize", action="store_false",
                   help="score TER with the BLEU tokenizer instead of lowercased punct split")
    p.add_argument("--per-sentence", action="store_true", help="include per-sentence TER rows")
    p.add_argument("--n-samples", type=count, default=None,
                   help=f"bootstrap resample count (default {DEFAULT_SAMPLES}); needs --hyp-b")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("significance", parents=[seeded, threads], help="paired bootstrap test")
    p.add_argument("--hyp-a", type=input_path, required=True)
    p.add_argument("--hyp-b", type=input_path, required=True)
    p.add_argument("--ref", type=input_path, required=True)
    p.add_argument("--out", type=path, default="significance.json")
    p.add_argument("--statistic", choices=list(STATISTICS), default="bleu")
    p.add_argument("--n-samples", type=count, default=DEFAULT_SAMPLES)
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("agreement", help="pairwise kappa matrix")
    p.add_argument("--csv", type=input_path, required=True, help="annotator_id,item_id,system,score rows")
    p.add_argument("--out", type=path, default="agreement.json")
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("adequacy", help="adequacy summary table")
    p.add_argument("--csv", type=input_path, required=True, help="annotator_id,item_id,system,score rows")
    p.add_argument("--out", type=path, default="adequacy.json")
    p.set_defaults(func=cmd_adequacy)

    ablate = sub.add_parser("ablate", help="data-size curve protocol").add_subparsers(dest="mode", required=True)
    p = ablate.add_parser("draw", parents=[seeded, fmt, grid], help="draw the training subsets")
    p.add_argument("--in", type=input_path, dest="input", required=True, help="training corpus to sample")
    p.add_argument("--emit-samples", type=path, required=True, help="directory to write the drawn samples")
    p.add_argument("--out", type=path, default="draw.json")
    p.set_defaults(func=cmd_draw)

    p = ablate.add_parser("curve", parents=[grid], help="aggregate external scores into a curve")
    p.add_argument("--scores", type=input_path, required=True, help="external size,replicate,value CSV")
    p.add_argument("--metric", default=None, help="label of the --scores values")
    p.add_argument("--baseline", type=float, default=None, help="do-nothing baseline reference line")
    p.add_argument("--out", type=path, default="curve.json")
    p.add_argument("--out-csv", type=path, default=None)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("buckets", parents=[inert_seed, threads], help="TER-bucket delta analysis")
    p.add_argument("--baseline", type=input_path, required=True, help="do-nothing system output, one line per item")
    p.add_argument("--ape", type=input_path, required=True, help="post-edited system output, one line per item")
    p.add_argument("--ref", type=input_path, required=True)
    p.add_argument("--out", type=path, default="buckets.json")
    p.add_argument("--out-csv", type=path, default=None)
    p.set_defaults(func=cmd_buckets)

    p = sub.add_parser("stats", parents=[fmt], help="corpus statistics")
    p.add_argument("--in", type=input_path, dest="input", required=True)
    p.add_argument("--out", type=path, default="stats.json")
    p.set_defaults(func=cmd_stats)

    return parser


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser, built on first use and shared by every later ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with staged_outputs(value for value in vars(args).values() if isinstance(value, _Input)) as stage:
            summary = args.func(args, stage)
        print(summary)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
