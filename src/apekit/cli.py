"""Command-line interface: the whole toolkit as subcommands.

Every command reads plain files, writes UTF-8 JSON reports with a stable
key order, and embeds a run manifest (version, config digest, input file
digests, seeds, timestamp) so results stay traceable and re-runnable.
Exit codes: 0 success, 1 usage or config error, 2 data or validation
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
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
    SampleSpec,
    curve_report,
    draw_samples,
    mock_scorer,
    run_size_ablation,
    ter_buckets,
)
from .bleu import bleu_corpus
from .bootstrap import DEFAULT_SAMPLES, STATISTICS, bootstrap_significance
from .chrf import chrf
from .corpus import (
    TEXT_FIELDS,
    corpus_stats,
    iter_corpus,
    open_lines,
    read_corpus,
    read_csv,
    read_lines,
    require_file,
    staged_outputs,
    write_corpus,
)
from .filtering import SEED_RULE, FilterConfig, is_seed, run_filter_pipeline
from .langid import NgramLanguageClassifier
from .segments import postprocess_all, preprocess, read_changelog, write_changelog
from .ter import EmptyReferenceError, ter_corpus, ter_sentence
from .tokenizer import TER_NORMALIZED_TOKENIZER, TokenizerConfig

WMT_APE_EN_DE_SIZE = 13_441  # reference marker for data-size curves


class ConfigError(Exception):
    """Bad configuration: maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not argparse's 2
        raise ConfigError(message)


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _manifest(subcommand: str, inputs, seed=None, config: dict = None) -> dict:
    return {
        "toolkit_version": __version__,
        "subcommand": subcommand,
        "config_digest": _sha256_text(json.dumps(config, sort_keys=True)) if config else None,
        "input_digests": {str(p): _sha256_file(p) for p in inputs},
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _record_json(record) -> dict:
    """The JSON of a report record: its ``to_dict`` if it has one, else its
    fields in declaration order (``vars``, at half the cost of ``asdict``)."""
    return record.to_dict() if hasattr(record, "to_dict") else vars(record)


def _write_report(path, payload: dict) -> None:
    with open_lines(path) as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2, default=_record_json)
        handle.write("\n")


def _write_csv(path, header: list, rows) -> None:
    with open_lines(path) as handle:  # no newline translation: csv's \r\n row ends pass through as written
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _read_aligned(*paths) -> list:
    """Read a subcommand's line files, one item per line; each must have as
    many lines as the last, the reference. A path of None (an optional
    input left out) reads as None."""
    files = [list(read_lines(path)) if path else None for path in paths]
    refs = files[-1]
    for path, lines in zip(paths, files):
        if lines is not None and len(lines) != len(refs):
            raise ValueError(f"line count mismatch: {path} has {len(lines)}, {paths[-1]} has {len(refs)}")
    return files


def _tokenizer_from_args(args) -> TokenizerConfig:
    return TokenizerConfig(scheme=args.tokenizer, lowercase=args.lowercase)


@contextmanager
def _naming_empty_reference(path, refs):
    """Name the file and line of the empty reference TER rejected.

    TER scores lines in file order and stops at the first empty one, so
    that is the first line with the rejected text.
    """
    try:
        yield
    except EmptyReferenceError as exc:
        raise ValueError(f"{path}: line {refs.index(exc.ref) + 1}: {exc}") from exc


# ---------------------------------------------------------------- filter


def cmd_filter(args) -> int:
    if args.config:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            config_data = json.loads(config_path.read_text(encoding="utf-8"))
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
    for name, split in (("train", train), ("dev", dev), ("test", test)):
        write_corpus(split, out_dir / f"{name}.jsonl", format="jsonl")
    payload = {
        "manifest": _manifest("filter", [args.input], seed=config.seed, config=vars(config)),
        "config": config,
        "report": report,
    }
    _write_report(out_dir / "filter_report.json", payload)
    print(f"filter: kept {report.kept_count}/{report.input_count} -> {out_dir}")
    return 0


# ---------------------------------------------------- preprocess / postprocess


def _line_break_fault(triplet):
    for name in TEXT_FIELDS:
        if "\n" in triplet.text(name) or "\r" in triplet.text(name):
            return ValueError(f"triplet {triplet.id!r}: field {name!r} contains a newline or carriage return; "
                              "line-oriented decoding files cannot represent it")
    return None


def _preprocessed(triplets, cleaned):
    """Write each triplet's cleaned parts to ``cleaned`` and yield its log. The
    first field holding a line break is raised after every triplet is read,
    so a fault of the corpus itself is raised first."""
    fault = None
    for triplet in triplets:
        fault = fault or _line_break_fault(triplet)
        if fault is None:
            parts, log = preprocess(triplet)
            # vars: the fields in declaration order, at half asdict's cost
            cleaned.writelines(json.dumps(vars(part), ensure_ascii=False) + "\n" for part in parts)
            yield log
    if fault is not None:
        raise fault


def cmd_preprocess(args) -> int:
    input_sha256 = _sha256_file(require_file(args.input))
    out_dir = Path(args.out_dir)
    outputs = (out_dir / name for name in ("cleaned.jsonl", "changelog.jsonl", "preprocess_report.json"))
    with staged_outputs(*outputs) as (cleaned_path, changelog_path, report_path):
        with open_lines(cleaned_path) as cleaned:
            header = write_changelog(changelog_path, _preprocessed(iter_corpus(args.input, args.format), cleaned),
                                     input_sha256)
        payload = {
            "manifest": _manifest("preprocess", [args.input]),
            "n_triplets": header["n_triplets"],
            "n_parts": header["n_parts"],
        }
        _write_report(report_path, payload)
    print(f"preprocess: {header['n_triplets']} triplets -> {header['n_parts']['mt']} mt parts in {out_dir}")
    return 0


def cmd_postprocess(args) -> int:
    header, logs = read_changelog(args.changelog)
    restored = dropped_total = 0
    with staged_outputs(args.out) as (out,):
        with open_lines(out) as handle:
            for text, dropped in postprocess_all(read_lines(args.outputs), logs, args.field):
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
    print(
        f"postprocess: restored {restored} segment(s) to {Path(args.out)}"
        + (f" ({dropped_total} irrecoverable record(s) dropped)" if dropped_total else "")
    )
    return 0


# ---------------------------------------------------------------- evaluate


def _metric_report(hyps, refs, bleu_tok, ter_tok, per_sentence=False) -> dict:
    bleu = bleu_corpus(hyps, refs, bleu_tok)
    chrf_score = chrf(hyps, refs)
    ter = ter_corpus(hyps, refs, ter_tok)
    report = {"bleu": bleu, "chrf": chrf_score, "ter": ter}
    if per_sentence:
        report["per_sentence"] = [{"ter": ter_sentence(hyp, ref, ter_tok)[0]} for hyp, ref in zip(hyps, refs)]
    return report


def cmd_evaluate(args) -> int:
    hyps, hyps_b, refs = _read_aligned(args.hyp, args.hyp_b, args.ref)
    bleu_tok = _tokenizer_from_args(args)
    ter_tok = TER_NORMALIZED_TOKENIZER if args.ter_normalize else bleu_tok
    seed = args.seed if args.seed is not None else 0

    inputs = [args.hyp, args.ref]
    payload = {"manifest": None}
    with _naming_empty_reference(args.ref, refs):
        payload.update(_metric_report(hyps, refs, bleu_tok, ter_tok, args.per_sentence))

    if args.hyp_b:
        inputs.append(args.hyp_b)
        payload["system_b"] = _metric_report(hyps_b, refs, bleu_tok, ter_tok)
        payload["bootstrap"] = bootstrap_significance(
            hyps, hyps_b, refs, n_samples=args.n_samples or DEFAULT_SAMPLES, seed=seed, tok=bleu_tok
        )

    payload["manifest"] = _manifest("evaluate", inputs, seed=seed)
    _write_report(args.out, payload)
    print(
        "evaluate: BLEU {:.2f} ChrF {:.2f} TER {:.2f}".format(
            payload["bleu"].score, payload["chrf"], payload["ter"].score * 100.0
        )
    )
    return 0


def cmd_significance(args) -> int:
    hyps_a, hyps_b, refs = _read_aligned(args.hyp_a, args.hyp_b, args.ref)
    seed = args.seed if args.seed is not None else 0
    with _naming_empty_reference(args.ref, refs):
        result = bootstrap_significance(
            hyps_a, hyps_b, refs, n_samples=args.n_samples, seed=seed, statistic=args.statistic
        )
    payload = {
        "manifest": _manifest("significance", [args.hyp_a, args.hyp_b, args.ref], seed=seed),
        "bootstrap": result,
    }
    _write_report(args.out, payload)
    print(
        f"significance: wins_a={result.wins_a} wins_b={result.wins_b} "
        f"ties={result.ties} p={result.p_value:.4f}"
    )
    return 0


# ------------------------------------------------------- agreement / adequacy


def cmd_agreement(args) -> int:
    table = read_adequacy_csv(require_file(args.csv))
    items, ratings = shared_decided_ratings(table)
    plain = pairwise_average_kappa(ratings, weighting="none")
    weighted = pairwise_average_kappa(ratings, weighting="quadratic")
    payload = {
        "manifest": _manifest("agreement", [args.csv]),
        "n_shared_items": len(items),
        "cohen_kappa": plain,
        "weighted_kappa": weighted,
    }
    _write_report(args.out, payload)
    print(
        f"agreement: {len(items)} shared items, "
        f"kappa={plain.mean_kappa:.4f} weighted={weighted.mean_kappa:.4f}"
    )
    return 0


def cmd_adequacy(args) -> int:
    summary = adequacy_summary(read_adequacy_csv(require_file(args.csv)))
    payload = {"manifest": _manifest("adequacy", [args.csv]), "summary": summary}
    _write_report(args.out, payload)
    for row in (*summary.per_annotator, summary.overall):
        means = " ".join(f"{s}={m:.1f}" if m is not None else f"{s}=n/a" for s, m in row["means"].items())
        print(f"adequacy: {row['annotator']}: {means} ({row['used']} / {row['assigned']})")
    return 0


# ------------------------------------------------------------ ablate / buckets


def _parse_sizes(raw: str):
    try:
        return tuple(int(s) for s in raw.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"invalid --sizes value {raw!r}: {exc}") from exc


def _read_scores(path, spec: SampleSpec) -> list:
    """Read external size,replicate,value rows (a header on line 1 only); each
    must be a distinct run that the --sizes and --replicates of ``spec`` describe."""
    rows = []
    runs = set()
    for line_no, row in read_csv(path):
        if not row or (line_no == 1 and row[0].strip().lower() == "size"):
            continue
        where = f"{path}: line {line_no}"
        if len(row) != 3:
            raise ValueError(f"{where}: expected size,replicate,value")
        try:
            size, replicate, value = int(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if size not in spec.sizes:
            raise ValueError(f"{where}: size {size} is not in --sizes")
        if not 0 <= replicate < spec.replicates:
            raise ValueError(f"{where}: replicate {replicate} is outside 0..{spec.replicates - 1}")
        if (size, replicate) in runs:
            raise ValueError(f"{where}: size {size} replicate {replicate} repeats")
        runs.add((size, replicate))
        rows.append((size, replicate, value))
    missing = sorted(set(spec.sizes) - {size for size, _ in runs})
    if missing:
        raise ValueError(f"{path}: no rows for --sizes {','.join(map(str, missing))}")
    return rows


def cmd_ablate(args) -> int:
    sizes = _parse_sizes(args.sizes)
    spec = SampleSpec(sizes=sizes, replicates=args.replicates, base_seed=args.seed or 0)

    if args.scores:
        results = _read_scores(args.scores, spec)
        points = curve_report(results, metric=args.metric)
    else:
        corpus = read_corpus(args.input, args.format)
        samples = draw_samples(corpus, spec)
        if args.emit_samples:
            samples_dir = Path(args.emit_samples)
            for size, replicate, sample in samples:
                write_corpus(sample, samples_dir / f"sample_{size}_{replicate}.jsonl")
        results, points = run_size_ablation(samples, scorer=mock_scorer, metric=args.metric)

    payload = {
        "manifest": _manifest("ablate", [args.scores or args.input], seed=spec.base_seed),
        "metric": args.metric,
        "replicates": args.replicates,
        "n_samples": len(results),
        "baseline": args.baseline,
        "wmt_size_marker": WMT_APE_EN_DE_SIZE,
        "results": [{"size": s, "replicate": r, "value": v} for s, r, v in results],
        "points": points,
    }
    _write_report(args.out, payload)
    if args.out_csv:
        _write_csv(args.out_csv, ["size", "mean", "min", "max"], ([p.size, p.mean, p.min, p.max] for p in points))
    print(f"ablate: {len(results)} runs -> {len(points)} curve points")
    return 0


def cmd_buckets(args) -> int:
    baseline, ape, refs = _read_aligned(args.baseline, args.ape, args.ref)
    with _naming_empty_reference(args.ref, refs):
        analysis = ter_buckets(baseline, ape, refs)
    payload = {
        "manifest": _manifest("buckets", [args.baseline, args.ape, args.ref]),
        "analysis": analysis,
    }
    _write_report(args.out, payload)
    if args.out_csv:
        rows = ([b.label, b.count, b.baseline_ter, b.ape_ter, b.delta_ter] for b in analysis.buckets)
        _write_csv(args.out_csv, ["bucket", "count", "baseline_ter", "ape_ter", "delta_ter"], rows)
    print(f"buckets: {analysis.total} items over {len(analysis.buckets)} buckets")
    return 0


# ------------------------------------------------------------------- stats


def cmd_stats(args) -> int:
    stats = corpus_stats(iter_corpus(args.input, args.format))
    payload = {"manifest": _manifest("stats", [args.input]), "stats": stats}
    _write_report(args.out, payload)
    print(
        f"stats: {stats.n_triplets} triplets, tokens src/mt/pe = "
        f"{stats.tokens_src}/{stats.tokens_mt}/{stats.tokens_pe}"
    )
    return 0


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

    def flag(*names, **kwargs):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    seeded = flag("--seed", type=seed, default=None, help="seed for all randomness")
    threads = flag("--threads", type=int, default=1, help="accepted for scripts; has no effect")
    fmt = flag("--format", choices=["jsonl", "tsv"], default="jsonl", help="corpus format")
    config = flag("--config", default=None, help="JSON filter config file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", parents=[seeded, threads, fmt, config], help="run the corpus filter pipeline")
    p.add_argument("--in", dest="input", required=True, help="input corpus")
    p.add_argument("--out-dir", required=True, help="directory for splits and report")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("preprocess", parents=[seeded, threads, fmt], help="split and strip subtitle markup")
    p.add_argument("--in", dest="input", required=True, help="input corpus")
    p.add_argument("--out-dir", required=True, help="directory for cleaned corpus and changelog")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("postprocess", parents=[seeded, threads], help="restore tracked changes")
    p.add_argument("--outputs", required=True, help="decoded text, one cleaned part per line")
    p.add_argument("--changelog", required=True, help="changelog from the matching preprocess run")
    p.add_argument("--out", required=True, help="restored text output path")
    p.add_argument("--field", choices=["src", "mt", "pe"], default="mt")
    p.add_argument("--orig", default=None, help="original corpus to digest-check against")
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("evaluate", parents=[seeded, threads], help="BLEU, ChrF, and TER report")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp-b", default=None, help="second system; adds a bootstrap block")
    p.add_argument("--out", default="metric_report.json")
    p.add_argument("--tokenizer", choices=["whitespace", "punct_split"], default="punct_split")
    p.add_argument("--lowercase", action="store_true")
    p.add_argument("--no-ter-normalize", dest="ter_normalize", action="store_false",
                   help="score TER with the BLEU tokenizer instead of lowercased punct split")
    p.add_argument("--per-sentence", action="store_true", help="include per-sentence TER rows")
    p.add_argument("--n-samples", type=count, default=None,
                   help=f"bootstrap resample count (default {DEFAULT_SAMPLES}); needs --hyp-b")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("significance", parents=[seeded, threads], help="paired bootstrap test")
    p.add_argument("--hyp-a", required=True)
    p.add_argument("--hyp-b", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", default="significance.json")
    p.add_argument("--statistic", choices=list(STATISTICS), default="bleu")
    p.add_argument("--n-samples", type=count, default=DEFAULT_SAMPLES)
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("agreement", help="pairwise kappa matrix")
    p.add_argument("--csv", required=True, help="annotator_id,item_id,system,score rows")
    p.add_argument("--out", default="agreement.json")
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("adequacy", help="adequacy summary table")
    p.add_argument("--csv", required=True, help="annotator_id,item_id,system,score rows")
    p.add_argument("--out", default="adequacy.json")
    p.set_defaults(func=cmd_adequacy)

    p = sub.add_parser("ablate", parents=[seeded, fmt], help="data-size curve protocol")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="input", help="training corpus to sample")
    source.add_argument("--scores", help="external size,replicate,value CSV to aggregate")
    p.add_argument("--sizes", required=True, help="comma-separated sample sizes")
    p.add_argument("--replicates", type=count, default=3)
    p.add_argument("--metric", default="mock")
    p.add_argument("--emit-samples", default=None, help="directory to write sampled corpora")
    p.add_argument("--baseline", type=float, default=None, help="do-nothing baseline reference line")
    p.add_argument("--out", default="curve.json")
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("buckets", parents=[seeded, threads], help="TER-bucket delta analysis")
    p.add_argument("--baseline", required=True, help="do-nothing system output, one line per item")
    p.add_argument("--ape", required=True, help="post-edited system output, one line per item")
    p.add_argument("--ref", required=True)
    p.add_argument("--out", default="buckets.json")
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_buckets)

    p = sub.add_parser("stats", parents=[fmt], help="corpus statistics")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default="stats.json")
    p.set_defaults(func=cmd_stats)

    return parser


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser, built on first use and shared by every later ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "ablate" and args.input and args.metric != "mock":
            raise ConfigError(f"ablate --metric {args.metric} needs --scores (--in samples are mock-scored)")
        if args.command == "ablate" and args.scores and args.emit_samples:
            raise ConfigError("ablate --emit-samples needs --in (--scores draws no samples)")
        if args.command == "evaluate" and args.n_samples is not None and not args.hyp_b:
            raise ConfigError("evaluate --n-samples needs --hyp-b (it sets the bootstrap's resample count)")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
