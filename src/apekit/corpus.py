"""Post-editing triplet data model, corpus container, and serialization.

A triplet is one (source, machine translation, post-edit) record. Corpora
are immutable ordered sequences of triplets; every downstream stage relies
on insertion order being stable, so seeded operations stay deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

TEXT_FIELDS = ("src", "mt", "pe")


class CorpusFormatError(ValueError):
    """A corpus file violates the JSONL/TSV record schema."""


@dataclass(frozen=True)
class Triplet:
    """One (src, mt, pe) record with an opaque id and optional provenance."""

    id: str
    src: str
    mt: str
    pe: str
    meta: Optional[Mapping[str, str]] = None

    def text(self, field_name: str) -> str:
        """Return one of the three text fields by selector name."""
        if field_name not in TEXT_FIELDS:
            raise ValueError(f"unknown field selector {field_name!r}, expected one of {TEXT_FIELDS}")
        return getattr(self, field_name)

    def with_meta(self, **entries: str) -> "Triplet":
        """Copy with extra meta entries merged in."""
        merged = dict(self.meta or {})
        merged.update(entries)
        return replace(self, meta=merged)


@dataclass(frozen=True)
class Corpus:
    """Ordered, immutable collection of triplets with its language pair.

    Iteration order equals insertion order. Triplet ids must be unique.
    """

    triplets: tuple = ()
    src_lang: str = "en"
    tgt_lang: str = "de"

    def __post_init__(self) -> None:
        object.__setattr__(self, "triplets", tuple(self.triplets))
        seen = set()
        for t in self.triplets:
            if t.id in seen:
                raise ValueError(f"duplicate triplet id {t.id!r}")
            seen.add(t.id)

    def __len__(self) -> int:
        return len(self.triplets)

    def __iter__(self) -> Iterator[Triplet]:
        return iter(self.triplets)

    def __getitem__(self, index: int) -> Triplet:
        return self.triplets[index]

    def replaced(self, triplets: Iterable[Triplet]) -> "Corpus":
        """New corpus with the same language pair but different content."""
        return Corpus(tuple(triplets), self.src_lang, self.tgt_lang)


@dataclass(frozen=True)
class CorpusStats:
    """Size statistics: triplet, whitespace-token, and character counts."""

    n_triplets: int = 0
    tokens_src: int = 0
    tokens_mt: int = 0
    tokens_pe: int = 0
    chars_src: int = 0
    chars_mt: int = 0
    chars_pe: int = 0

    def __add__(self, other: "CorpusStats") -> "CorpusStats":
        return CorpusStats(
            self.n_triplets + other.n_triplets,
            self.tokens_src + other.tokens_src,
            self.tokens_mt + other.tokens_mt,
            self.tokens_pe + other.tokens_pe,
            self.chars_src + other.chars_src,
            self.chars_mt + other.chars_mt,
            self.chars_pe + other.chars_pe,
        )

    def to_dict(self) -> dict:
        return {
            "n_triplets": self.n_triplets,
            "tokens_src": self.tokens_src,
            "tokens_mt": self.tokens_mt,
            "tokens_pe": self.tokens_pe,
            "chars_src": self.chars_src,
            "chars_mt": self.chars_mt,
            "chars_pe": self.chars_pe,
        }


def count_tokens(text: str) -> int:
    """Whitespace tokens: split on Unicode whitespace runs after trimming."""
    return len(text.split())


def count_chars(text: str) -> int:
    """Unicode scalar values after trimming; internal whitespace counts."""
    return len(text.strip())


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Aggregate token and character counts over a corpus.

    Additive and order invariant: stats(A ++ B) == stats(A) + stats(B).
    """
    stats = CorpusStats()
    for t in corpus:
        stats += CorpusStats(
            n_triplets=1,
            tokens_src=count_tokens(t.src),
            tokens_mt=count_tokens(t.mt),
            tokens_pe=count_tokens(t.pe),
            chars_src=count_chars(t.src),
            chars_mt=count_chars(t.mt),
            chars_pe=count_chars(t.pe),
        )
    return stats


def _ordinal_id(line_no: int) -> str:
    return f"{line_no:06d}"


def _triplet_from_json_line(line: str, line_no: int) -> Triplet:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise CorpusFormatError(f"line {line_no}: expected a JSON object")
    for name in TEXT_FIELDS:
        if name not in record:
            raise CorpusFormatError(f"line {line_no}: missing field {name!r}")
        if not isinstance(record[name], str):
            raise CorpusFormatError(f"line {line_no}: field {name!r} must be a string")
    triplet_id = record.get("id")
    if triplet_id is None:
        triplet_id = _ordinal_id(line_no)
    elif not isinstance(triplet_id, str):
        raise CorpusFormatError(f"line {line_no}: field 'id' must be a string")
    meta = record.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise CorpusFormatError(f"line {line_no}: field 'meta' must be an object")
    return Triplet(id=triplet_id, src=record["src"], mt=record["mt"], pe=record["pe"], meta=meta)


def _triplet_from_tsv_line(line: str, line_no: int) -> Triplet:
    columns = line.split("\t")
    if len(columns) != 3:
        raise CorpusFormatError(
            f"line {line_no}: expected 3 tab-separated columns, found {len(columns)}"
        )
    return Triplet(id=_ordinal_id(line_no), src=columns[0], mt=columns[1], pe=columns[2])


def read_lines(path) -> Iterator[str]:
    """Yield the lines of a UTF-8 file without their endings, LF or CRLF.

    Any other carriage return raises CorpusFormatError naming the line; it
    is never a line break, so it cannot shift one file against another.
    """
    with open(path, encoding="utf-8", newline="\n") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line[:-2] if line.endswith("\r\n") else line.rstrip("\n")
            if "\r" in line:
                raise CorpusFormatError(
                    f"line {line_no}: carriage return inside a line "
                    "(line files end lines with \\n or \\r\\n only)"
                )
            yield line


def read_corpus(path, format: str = "jsonl", src_lang: str = "en", tgt_lang: str = "de") -> Corpus:
    """Read a corpus from JSONL or TSV, preserving file order.

    Lines are framed by read_lines. Ids are auto-assigned as zero-padded
    1-based line ordinals when absent. Malformed records raise
    CorpusFormatError naming the line; duplicate explicit ids raise too
    (via the Corpus id-uniqueness check).
    """
    if format not in ("jsonl", "tsv"):
        raise ValueError(f"unknown corpus format {format!r}")
    parse = _triplet_from_json_line if format == "jsonl" else _triplet_from_tsv_line
    triplets = []
    for line_no, line in enumerate(read_lines(path), start=1):
        if format == "jsonl" and not line.strip():
            continue
        triplets.append(parse(line, line_no))
    return Corpus(tuple(triplets), src_lang=src_lang, tgt_lang=tgt_lang)


def write_corpus(corpus: Corpus, path, format: str = "jsonl") -> None:
    """Write a corpus to JSONL or TSV.

    TSV carries only the three text columns (no ids, no meta) and refuses
    texts containing tabs, carriage returns or newlines rather than
    corrupt the framing (read_corpus rejects a carriage return that does
    not end a line).
    JSONL round-trips every field bit-exactly.
    """
    if format not in ("jsonl", "tsv"):
        raise ValueError(f"unknown corpus format {format!r}")
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for t in corpus:
            if format == "jsonl":
                record = {"id": t.id, "src": t.src, "mt": t.mt, "pe": t.pe}
                if t.meta:
                    record["meta"] = dict(t.meta)
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            else:
                for name in TEXT_FIELDS:
                    text = t.text(name)
                    if "\t" in text or "\r" in text or "\n" in text:
                        raise ValueError(
                            f"triplet {t.id!r}: field {name!r} contains a tab, carriage return "
                            "or newline, which TSV cannot encode; use jsonl"
                        )
                handle.write(f"{t.src}\t{t.mt}\t{t.pe}\n")
