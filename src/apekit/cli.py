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
from datetime import datetime, timezone
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
from .corpus import Corpus, CorpusFormatError, corpus_stats, read_corpus, read_lines, write_corpus
from .filtering import FilterConfig, run_filter_pipeline
from .langid import NgramLanguageClassifier
from .segments import ChangeLog, PartCountError, postprocess_with_report, preprocess
from .ter import EmptyReferenceError, ter_corpus, ter_sentence
from .tokenizer import TER_NORMALIZED_TOKENIZER, TokenizerConfig

WMT_APE_EN_DE_SIZE = 13_441  # reference marker for data-size curves


class ConfigError(Exception):
    """Bad configuration: maps to exit code 1."""


class DataError(Exception):
    """Bad input data: maps to exit code 2."""


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


def _require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"input file not found: {p}")
    return p


def _manifest(subcommand: str, inputs, seed=None, config: dict = None) -> dict:
    return {
        "toolkit_version": __version__,
        "subcommand": subcommand,
        "config_digest": _sha256_text(json.dumps(config, sort_keys=True)) if config else None,
        "input_digests": {str(p): _sha256_file(p) for p in inputs},
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _write_report(path, payload: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2)
        handle.write("\n")


def _read_lines(path) -> list:
    try:
        return list(read_lines(_require_file(path)))
    except CorpusFormatError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_corpus_checked(path, format: str) -> Corpus:
    try:
        return read_corpus(_require_file(path), format=format)
    except CorpusFormatError as exc:
        raise DataError(f"{path}: {exc}") from exc


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
        raise DataError(f"{path}: line {refs.index(exc.ref) + 1}: {exc}") from exc


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
        config = FilterConfig.from_dict({**config.to_dict(), "seed": args.seed})
    classifier = NgramLanguageClassifier.default()
    for key in ("expected_src_lang", "expected_tgt_lang"):
        lang = getattr(config, key)
        if lang not in classifier.languages:
            raise ConfigError(
                f"filter config {key} = {lang!r}: the built-in language classifier "
                f"knows only {', '.join(classifier.languages)}"
            )

    corpus = _read_corpus_checked(args.input, args.format)
    try:
        train, dev, test, report = run_filter_pipeline(corpus, config, classifier)
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, split in (("train", train), ("dev", dev), ("test", test)):
        write_corpus(split, out_dir / f"{name}.jsonl", format="jsonl")
    payload = {
        "manifest": _manifest("filter", [args.input], seed=config.seed, config=config.to_dict()),
        "config": config.to_dict(),
        "report": report.to_dict(),
    }
    _write_report(out_dir / "filter_report.json", payload)
    print(f"filter: kept {report.kept_count}/{report.input_count} -> {out_dir}")
    return 0


# ---------------------------------------------------- preprocess / postprocess


def cmd_preprocess(args) -> int:
    corpus = _read_corpus_checked(args.input, args.format)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cleaned_records = []
    logs = []
    total_parts = {"src": 0, "mt": 0, "pe": 0}
    for triplet in corpus:
        for name in ("src", "mt", "pe"):
            if "\n" in triplet.text(name) or "\r" in triplet.text(name):
                raise DataError(
                    f"triplet {triplet.id!r}: field {name!r} contains a newline or carriage return; "
                    "line-oriented decoding files cannot represent it"
                )
        parts, log = preprocess(triplet)
        logs.append(log)
        for field_name in total_parts:
            total_parts[field_name] += log.part_count(field_name)
        cleaned_records.extend(parts)

    with open(out_dir / "cleaned.jsonl", "w", encoding="utf-8") as handle:
        for part in cleaned_records:
            handle.write(
                json.dumps(
                    {
                        "parent_id": part.parent_id,
                        "part_index": part.part_index,
                        "src": part.src,
                        "mt": part.mt,
                        "pe": part.pe,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    with open(out_dir / "changelog.jsonl", "w", encoding="utf-8") as handle:
        header = {
            "type": "header",
            "toolkit_version": __version__,
            "input_sha256": _sha256_file(args.input),
            "n_triplets": len(corpus),
            "n_parts": total_parts,
        }
        handle.write(json.dumps(header, ensure_ascii=False) + "\n")
        for log in logs:
            handle.write(log.to_json() + "\n")

    payload = {
        "manifest": _manifest("preprocess", [args.input]),
        "n_triplets": len(corpus),
        "n_parts": total_parts,
    }
    _write_report(out_dir / "preprocess_report.json", payload)
    print(f"preprocess: {len(corpus)} triplets -> {total_parts['mt']} mt parts in {out_dir}")
    return 0


def _read_changelogs(path):
    lines = _read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty changelog")
    try:
        header = json.loads(lines[0])
        if header.get("type") != "header":
            raise DataError(f"{path}: missing changelog header")
        logs = [ChangeLog.from_json(line) for line in lines[1:] if line.strip()]
    except (json.JSONDecodeError, KeyError) as exc:
        raise DataError(f"{path}: malformed changelog ({exc})") from exc
    return header, logs


def cmd_postprocess(args) -> int:
    header, logs = _read_changelogs(args.changelog)
    outputs = _read_lines(args.outputs)

    expected = sum(log.part_count(args.field) for log in logs)
    if len(outputs) != expected:
        raise DataError(
            f"outputs/changelog mismatch: changelog expects {expected} {args.field} part(s), "
            f"decoded file has {len(outputs)} line(s); is this the changelog of another corpus?"
        )
    if args.orig:
        orig_digest = _sha256_file(_require_file(args.orig))
        if orig_digest != header.get("input_sha256"):
            raise DataError(
                f"changelog digest mismatch: changelog was produced from input "
                f"{header.get('input_sha256')}, but {args.orig} hashes to {orig_digest}"
            )

    restored = []
    dropped_total = 0
    cursor = 0
    for log in logs:
        n = log.part_count(args.field)
        try:
            text, dropped = postprocess_with_report(outputs[cursor : cursor + n], log, args.field)
        except PartCountError as exc:
            raise DataError(str(exc)) from exc
        restored.append(text)
        dropped_total += dropped
        cursor += n

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        for line in restored:
            handle.write(line + "\n")
    print(
        f"postprocess: restored {len(restored)} segment(s) to {out_path}"
        + (f" ({dropped_total} irrecoverable record(s) dropped)" if dropped_total else "")
    )
    return 0


# ---------------------------------------------------------------- evaluate


def _metric_report(hyps, refs, bleu_tok, ter_tok, per_sentence=False) -> dict:
    bleu = bleu_corpus(hyps, refs, bleu_tok)
    chrf_score = chrf(hyps, refs)
    ter = ter_corpus(hyps, refs, ter_tok)
    report = {"bleu": bleu.to_dict(), "chrf": chrf_score, "ter": ter.to_dict()}
    if per_sentence:
        rows = []
        for hyp, ref in zip(hyps, refs):
            sentence_ter, _ = ter_sentence(hyp, ref, ter_tok)
            rows.append({"ter": sentence_ter.to_dict()})
        report["per_sentence"] = rows
    return report


def cmd_evaluate(args) -> int:
    hyps = _read_lines(args.hyp)
    refs = _read_lines(args.ref)
    if len(hyps) != len(refs):
        raise DataError(f"line count mismatch: {args.hyp} has {len(hyps)}, {args.ref} has {len(refs)}")
    bleu_tok = _tokenizer_from_args(args)
    ter_tok = TER_NORMALIZED_TOKENIZER if args.ter_normalize else bleu_tok
    seed = args.seed if args.seed is not None else 0

    inputs = [args.hyp, args.ref]
    payload = {"manifest": None}
    with _naming_empty_reference(args.ref, refs):
        payload.update(_metric_report(hyps, refs, bleu_tok, ter_tok, args.per_sentence))

    if args.hyp_b:
        hyps_b = _read_lines(args.hyp_b)
        if len(hyps_b) != len(refs):
            raise DataError(
                f"line count mismatch: {args.hyp_b} has {len(hyps_b)}, {args.ref} has {len(refs)}"
            )
        inputs.append(args.hyp_b)
        payload["system_b"] = _metric_report(hyps_b, refs, bleu_tok, ter_tok)
        payload["bootstrap"] = bootstrap_significance(
            hyps, hyps_b, refs, n_samples=args.n_samples, seed=seed, tok=bleu_tok
        ).to_dict()

    payload["manifest"] = _manifest("evaluate", inputs, seed=seed)
    _write_report(args.out, payload)
    print(
        "evaluate: BLEU {:.2f} ChrF {:.2f} TER {:.2f}".format(
            payload["bleu"]["score"], payload["chrf"], payload["ter"]["score"] * 100.0
        )
    )
    return 0


def cmd_significance(args) -> int:
    hyps_a = _read_lines(args.hyp_a)
    hyps_b = _read_lines(args.hyp_b)
    refs = _read_lines(args.ref)
    seed = args.seed if args.seed is not None else 0
    try:
        with _naming_empty_reference(args.ref, refs):
            result = bootstrap_significance(
                hyps_a, hyps_b, refs, n_samples=args.n_samples, seed=seed, statistic=args.statistic
            )
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    payload = {
        "manifest": _manifest("significance", [args.hyp_a, args.hyp_b, args.ref], seed=seed),
        "bootstrap": result.to_dict(),
    }
    _write_report(args.out, payload)
    print(
        f"significance: wins_a={result.wins_a} wins_b={result.wins_b} "
        f"ties={result.ties} p={result.p_value:.4f}"
    )
    return 0


# ------------------------------------------------------- agreement / adequacy


def cmd_agreement(args) -> int:
    try:
        table = read_adequacy_csv(_require_file(args.csv))
        items, ratings = shared_decided_ratings(table)
        plain = pairwise_average_kappa(ratings, weighting="none")
        weighted = pairwise_average_kappa(ratings, weighting="quadratic", scale_min=1, scale_max=5)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    payload = {
        "manifest": _manifest("agreement", [args.csv]),
        "n_shared_items": len(items),
        "cohen_kappa": plain.to_dict(),
        "weighted_kappa": weighted.to_dict(),
    }
    _write_report(args.out, payload)
    print(
        f"agreement: {len(items)} shared items, "
        f"kappa={plain.mean_kappa:.4f} weighted={weighted.mean_kappa:.4f}"
    )
    return 0


def cmd_adequacy(args) -> int:
    try:
        table = read_adequacy_csv(_require_file(args.csv))
        summary = adequacy_summary(table)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    payload = {"manifest": _manifest("adequacy", [args.csv]), "summary": summary.to_dict()}
    _write_report(args.out, payload)
    for row in summary.per_annotator:
        means = " ".join(
            f"{s}={row['means'][s]:.1f}" if row["means"][s] is not None else f"{s}=n/a"
            for s in ("nmt", "ape", "human")
        )
        print(f"adequacy: {row['annotator']}: {means} ({row['used']} / {row['assigned']})")
    overall = summary.overall
    print(
        "adequacy: overall: "
        + " ".join(
            f"{s}={overall['means'][s]:.1f}" if overall["means"][s] is not None else f"{s}=n/a"
            for s in ("nmt", "ape", "human")
        )
        + f" ({overall['used']} / {overall['assigned']})"
    )
    return 0


# ------------------------------------------------------------ ablate / buckets


def _parse_sizes(raw: str):
    try:
        sizes = tuple(int(s) for s in raw.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"invalid --sizes value {raw!r}: {exc}") from exc
    if not sizes:
        raise ConfigError("--sizes must name at least one size")
    return sizes


def _read_scores(path, spec: SampleSpec) -> list:
    """Read external size,replicate,value rows; each must be a distinct run
    that the --sizes and --replicates of ``spec`` describe."""
    rows = []
    runs = set()
    with open(_require_file(path), encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or row[0].strip().lower() == "size":
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) != 3:
                raise DataError(f"{where}: expected size,replicate,value")
            try:
                size, replicate, value = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from exc
            if size not in spec.sizes:
                raise DataError(f"{where}: size {size} is not in --sizes")
            if not 0 <= replicate < spec.replicates:
                raise DataError(f"{where}: replicate {replicate} is outside 0..{spec.replicates - 1}")
            if (size, replicate) in runs:
                raise DataError(f"{where}: size {size} replicate {replicate} repeats")
            runs.add((size, replicate))
            rows.append((size, replicate, value))
    missing = sorted(set(spec.sizes) - {size for size, _ in runs})
    if missing:
        raise DataError(f"{path}: no rows for --sizes {','.join(map(str, missing))}")
    return rows


def cmd_ablate(args) -> int:
    sizes = _parse_sizes(args.sizes)
    spec = SampleSpec(sizes=sizes, replicates=args.replicates, base_seed=args.seed or 0)

    if args.scores:
        results = _read_scores(args.scores, spec)
        points = curve_report(results, metric=args.metric)
    else:
        corpus = _read_corpus_checked(args.input, args.format)
        try:
            samples = draw_samples(corpus, spec)
            if args.emit_samples:
                samples_dir = Path(args.emit_samples)
                samples_dir.mkdir(parents=True, exist_ok=True)
                for size, replicate, sample in samples:
                    write_corpus(sample, samples_dir / f"sample_{size}_{replicate}.jsonl")
            results, points = run_size_ablation(samples, scorer=mock_scorer, metric=args.metric)
        except ValueError as exc:
            raise DataError(str(exc)) from exc

    payload = {
        "manifest": _manifest("ablate", [args.scores or args.input], seed=spec.base_seed),
        "metric": args.metric,
        "replicates": args.replicates,
        "n_samples": len(results),
        "baseline": args.baseline,
        "wmt_size_marker": WMT_APE_EN_DE_SIZE,
        "results": [{"size": s, "replicate": r, "value": v} for s, r, v in results],
        "points": [p.to_dict() for p in points],
    }
    _write_report(args.out, payload)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["size", "mean", "min", "max"])
            for p in points:
                writer.writerow([p.size, p.mean, p.min, p.max])
    print(f"ablate: {len(results)} runs -> {len(points)} curve points")
    return 0


def cmd_buckets(args) -> int:
    baseline = _read_lines(args.baseline)
    ape = _read_lines(args.ape)
    refs = _read_lines(args.ref)
    try:
        with _naming_empty_reference(args.ref, refs):
            analysis = ter_buckets(baseline, ape, refs)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    payload = {
        "manifest": _manifest("buckets", [args.baseline, args.ape, args.ref]),
        "analysis": analysis.to_dict(),
    }
    _write_report(args.out, payload)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["bucket", "count", "baseline_ter", "ape_ter", "delta_ter"])
            for b in analysis.buckets:
                writer.writerow([b.label, b.count, b.baseline_ter, b.ape_ter, b.delta_ter])
    print(f"buckets: {analysis.total} items over {len(analysis.buckets)} buckets")
    return 0


# ------------------------------------------------------------------- stats


def cmd_stats(args) -> int:
    corpus = _read_corpus_checked(args.input, args.format)
    stats = corpus_stats(corpus)
    payload = {"manifest": _manifest("stats", [args.input]), "stats": stats.to_dict()}
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

    def flag(*names, **kwargs):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    seed = flag("--seed", type=int, default=None, help="seed for all randomness")
    threads = flag("--threads", type=int, default=1, help="accepted for scripts; has no effect")
    fmt = flag("--format", choices=["jsonl", "tsv"], default="jsonl", help="corpus format")
    config = flag("--config", default=None, help="JSON filter config file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", parents=[seed, threads, fmt, config], help="run the corpus filter pipeline")
    p.add_argument("--in", dest="input", required=True, help="input corpus")
    p.add_argument("--out-dir", required=True, help="directory for splits and report")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("preprocess", parents=[seed, threads, fmt], help="split and strip subtitle markup")
    p.add_argument("--in", dest="input", required=True, help="input corpus")
    p.add_argument("--out-dir", required=True, help="directory for cleaned corpus and changelog")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("postprocess", parents=[seed, threads], help="restore tracked changes")
    p.add_argument("--outputs", required=True, help="decoded text, one cleaned part per line")
    p.add_argument("--changelog", required=True, help="changelog from the matching preprocess run")
    p.add_argument("--out", required=True, help="restored text output path")
    p.add_argument("--field", choices=["src", "mt", "pe"], default="mt")
    p.add_argument("--orig", default=None, help="original corpus to digest-check against")
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("evaluate", parents=[seed, threads], help="BLEU, ChrF, and TER report")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp-b", default=None, help="second system; adds a bootstrap block")
    p.add_argument("--out", default="metric_report.json")
    p.add_argument("--tokenizer", choices=["whitespace", "punct_split"], default="punct_split")
    p.add_argument("--lowercase", action="store_true")
    p.add_argument("--no-ter-normalize", dest="ter_normalize", action="store_false",
                   help="score TER with the BLEU tokenizer instead of lowercased punct split")
    p.add_argument("--per-sentence", action="store_true", help="include per-sentence TER rows")
    p.add_argument("--n-samples", type=count, default=DEFAULT_SAMPLES)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("significance", parents=[seed, threads], help="paired bootstrap test")
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

    p = sub.add_parser("ablate", parents=[seed, fmt], help="data-size curve protocol")
    p.add_argument("--in", dest="input", default=None, help="training corpus to sample")
    p.add_argument("--sizes", required=True, help="comma-separated sample sizes")
    p.add_argument("--replicates", type=count, default=3)
    p.add_argument("--metric", default="mock")
    p.add_argument("--scores", default=None, help="external size,replicate,value CSV to aggregate")
    p.add_argument("--emit-samples", default=None, help="directory to write sampled corpora")
    p.add_argument("--baseline", type=float, default=None, help="do-nothing baseline reference line")
    p.add_argument("--out", default="curve.json")
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("buckets", parents=[seed, threads], help="TER-bucket delta analysis")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "ablate" and not args.scores and not args.input:
            raise ConfigError("ablate needs --in (corpus to sample) or --scores (external results)")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
