"""Output checks, written independently of the code under test.

Each check reads the files one command wrote and returns a list of
error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

TYPOGRAPHIC = "\u201c\u201d\u201e\u201f\u2033\u00ab\u00bb\u2018\u2019\u201a\u201b\u2032\u2039\u203a\u00a0\u202f\u2009"
MARKUP = ("<i>", "</i>", "<br", "♪")
_TIMESTAMP_LINE = re.compile(rb'^\s*"timestamp": "[^"]*",?\n', re.MULTILINE)


def output_digest(path: Path) -> str:
    """sha256 of a file; JSON reports are hashed without the manifest
    timestamp, the one field allowed to differ between identical runs."""
    data = Path(path).read_bytes()
    if path.suffix == ".json":
        data = _TIMESTAMP_LINE.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def _read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _read_lines(path: Path) -> list:
    with open(path, encoding="utf-8", newline="\n") as handle:
        return [line[:-1] if line.endswith("\n") else line for line in handle]


# ------------------------------------------------------------------ build


def check_filter(out_dir: Path, planted: dict) -> list:
    """Counts reconcile, and no planted fault reaches train, dev or test."""
    errors = []
    report = json.loads((out_dir / "filter_report.json").read_text(encoding="utf-8"))["report"]
    removed = report["removed_by_ratio"] + report["removed_by_dedup"] + report["removed_by_langid"]
    if report["input_count"] != planted["n"]:
        errors.append(f"filter read {report['input_count']} triplets, the corpus has {planted['n']}")
    if report["input_count"] != report["kept_count"] + removed:
        errors.append("filter counts do not reconcile: input != kept + removed")
    split_ids = {}
    for name in ("train", "dev", "test"):
        rows = _read_jsonl(out_dir / f"{name}.jsonl")
        if len(rows) != report["split_sizes"][name]:
            errors.append(f"{name}.jsonl has {len(rows)} rows, the report says {report['split_sizes'][name]}")
        for row in rows:
            if row["id"] in split_ids:
                errors.append(f"id {row['id']} is in both {split_ids[row['id']]} and {name}")
            split_ids[row["id"]] = name
            if any(ch in row[f] for f in ("src", "mt", "pe") for ch in TYPOGRAPHIC):
                errors.append(f"{name} row {row['id']} still holds typographic punctuation")
    if len(split_ids) != report["kept_count"]:
        errors.append(f"splits hold {len(split_ids)} triplets, the report kept {report['kept_count']}")
    for kind, ids in planted["planted"].items():
        leaked = sorted(set(ids) & set(split_ids))
        if leaked:
            errors.append(f"planted {kind} fault(s) survived filtering: {leaked[:5]}")
    return errors


def check_preprocess(pre_dir: Path, train_path: Path) -> list:
    """Every train triplet is logged once and no markup survives cleaning."""
    errors = []
    train = _read_jsonl(train_path)
    changelog = _read_lines(pre_dir / "changelog.jsonl")
    header = json.loads(changelog[0])
    if header.get("n_triplets") != len(train) or len(changelog) != len(train) + 1:
        errors.append(f"changelog covers {len(changelog) - 1} triplets, train has {len(train)}")
    cleaned = _read_jsonl(pre_dir / "cleaned.jsonl")
    if [pid for pid in dict.fromkeys(r["parent_id"] for r in cleaned)] != [t["id"] for t in train]:
        errors.append("cleaned.jsonl parents do not follow train order")
    if len(cleaned) != header["n_parts"]["mt"]:
        errors.append(f"cleaned.jsonl has {len(cleaned)} parts, the changelog says {header['n_parts']['mt']}")
    for record in cleaned:
        for f in ("src", "mt", "pe"):
            text = record[f]
            if any(m in text for m in MARKUP) or text.startswith("-"):
                errors.append(f"part {record['parent_id']}#{record['part_index']} {f} keeps markup: {text!r}")
                break
    return errors


def check_postprocess(restored_path: Path, train_path: Path, unedited_ids: list) -> list:
    """Every triplet whose decoded parts were left alone restores byte for
    byte to its train mt."""
    train = _read_jsonl(train_path)
    restored = _read_lines(restored_path)
    if len(restored) != len(train):
        return [f"restored {len(restored)} lines for {len(train)} train triplets"]
    position = {t["id"]: i for i, t in enumerate(train)}
    errors = []
    for triplet_id in unedited_ids:
        i = position.get(triplet_id)
        if i is None:
            errors.append(f"unedited {triplet_id} is missing from train")
        elif restored[i] != train[i]["mt"]:
            errors.append(f"unedited {triplet_id} restored as {restored[i]!r}, expected {train[i]['mt']!r}")
    return errors


# ------------------------------------------------------------------- eval


def ter_tokens(text: str) -> list:
    """TER normalisation: punctuation split off every word, lowercased."""
    tokens = []
    for word in text.split():
        current = ""
        for ch in word:
            if not ch.isalnum() and not ch.isspace():
                if current:
                    tokens.append(current)
                    current = ""
                tokens.append(ch)
            else:
                current += ch
        if current:
            tokens.append(current)
    return [t.lower() for t in tokens]


def levenshtein(a: list, b: list) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        curr = [i]
        for j, y in enumerate(b, start=1):
            curr.append(min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = curr
    return prev[-1]


def _check_bootstrap(block: dict, n_samples: int) -> list:
    total = block["wins_a"] + block["wins_b"] + block["ties"]
    if block["n_samples"] != n_samples or total != n_samples:
        return [f"bootstrap wins_a + wins_b + ties = {total}, n_samples = {block['n_samples']}, asked {n_samples}"]
    return []


def check_evaluate(report_path: Path, hyp_path: Path, ref_path: Path, n_samples: int = None) -> list:
    """TER never exceeds the shift-free edit rate and is 0 on identical
    pairs, per sentence when rows are reported and for the corpus."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    hyps, refs = _read_lines(hyp_path), _read_lines(ref_path)
    errors = []
    edits = [levenshtein(ter_tokens(h), ter_tokens(r)) for h, r in zip(hyps, refs)]
    ref_lens = [len(ter_tokens(r)) for r in refs]
    corpus = report["ter"]
    if corpus["ref_len"] != sum(ref_lens):
        errors.append(f"corpus TER ref_len {corpus['ref_len']}, expected {sum(ref_lens)}")
    elif corpus["score"] > sum(edits) / sum(ref_lens) + 1e-12:
        errors.append(f"corpus TER {corpus['score']} above shift-free {sum(edits) / sum(ref_lens)}")
    rows = report.get("per_sentence")
    if rows is not None:
        if len(rows) != len(hyps):
            errors.append(f"{len(rows)} per-sentence rows for {len(hyps)} pairs")
        for i, (row, hyp, ref, ed, ref_len) in enumerate(zip(rows, hyps, refs, edits, ref_lens)):
            score = row["ter"]["score"]
            if row["ter"]["ref_len"] != ref_len or score > ed / ref_len + 1e-12:
                errors.append(f"line {i + 1}: TER {score} above shift-free {ed}/{ref_len}")
            elif hyp == ref and score != 0:
                errors.append(f"line {i + 1}: identical pair scored TER {score}")
    for name in ("bleu", "chrf"):
        value = report[name]["score"] if name == "bleu" else report[name]
        if not 0.0 <= value <= 100.0:
            errors.append(f"{name} {value} outside [0, 100]")
    if "bootstrap" in report:
        errors += _check_bootstrap(report["bootstrap"], n_samples)
    return errors


def check_significance(report_path: Path, n_samples: int) -> list:
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    return _check_bootstrap(report["bootstrap"], n_samples)


def check_buckets(report_path: Path, n_items: int) -> list:
    analysis = json.loads(Path(report_path).read_text(encoding="utf-8"))["analysis"]
    counted = sum(b["count"] for b in analysis["buckets"])
    if analysis["total"] != n_items or counted != n_items:
        return [f"buckets hold {counted} of total {analysis['total']}, expected {n_items}"]
    return []
