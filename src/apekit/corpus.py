"""Post-editing triplet data model, corpora as tuples of triplets, and line files.

A triplet is one (source, machine translation, post-edit) record. A corpus
is a tuple of triplets; every downstream stage relies on its order being
stable, so seeded operations stay deterministic. Ids are checked where
they are made: ``iter_corpus`` rejects an id repeated in a file.
Every line-framed file (corpus, line file, changelog, CSV input) is read
by ``read_lines``. Every text file a command writes is opened by
``open_lines``, directly or through ``write_lines``; ``staged_outputs``
makes a command's writes all or nothing.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from json.encoder import encode_basestring as _quote  # the string encoder of json.dumps(..., ensure_ascii=False)
from operator import add
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, List, Mapping, Optional, Tuple

TEXT_FIELDS = ("src", "mt", "pe")
RECORD_KEYS = ("id", *TEXT_FIELDS, "meta")  # the keys a JSONL corpus record may hold
_RECORD_KEY_SET = frozenset(RECORD_KEYS)
FORMATS = ("jsonl", "tsv")


class CorpusFormatError(ValueError):
    """A corpus file violates the JSONL/TSV record schema."""


class DuplicateIdError(ValueError):
    """Two triplets share the id ``triplet_id``."""

    def __init__(self, triplet_id: str):
        super().__init__(f"duplicate triplet id {triplet_id!r}")
        self.triplet_id = triplet_id


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


Corpus = Tuple[Triplet, ...]


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
        return CorpusStats(*map(add, vars(self).values(), vars(other).values()))


def count_tokens(text: str) -> int:
    """Whitespace tokens: split on Unicode whitespace runs after trimming."""
    return len(text.split())


def count_chars(text: str) -> int:
    """Unicode scalar values after trimming; internal whitespace counts."""
    return len(text.strip())


def corpus_stats(triplets: Iterable[Triplet]) -> CorpusStats:
    """Aggregate token and character counts over triplets, one at a time.

    Additive and order invariant: stats(A ++ B) == stats(A) + stats(B).
    """
    n_triplets, tokens, chars = 0, [0] * len(TEXT_FIELDS), [0] * len(TEXT_FIELDS)
    for n_triplets, t in enumerate(triplets, start=1):
        for k, name in enumerate(TEXT_FIELDS):
            text = t.text(name)
            tokens[k] += count_tokens(text)
            chars[k] += count_chars(text)
    return CorpusStats(n_triplets, *tokens, *chars)


def _ordinal_id(line_no: int) -> str:
    return f"{line_no:06d}"


def _unique_keys(pairs) -> dict:
    """A ``json`` object_pairs_hook: ``dict(pairs)``, or a ValueError naming the first repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(key for i, key in enumerate(keys) if key in keys[:i])!r}")
    return obj


def _not_json(constant: str):
    """A ``json`` parse_constant: JSON has no NaN or Infinity (RFC 8259 section 6)."""
    raise ValueError(f"{constant} is not JSON (RFC 8259 has no NaN or Infinity)")


def _finite_float(literal: str) -> float:
    """A ``json`` parse_float that rejects a literal too large for a float, which would be written back as Infinity."""
    value = float(literal)
    if math.isinf(value):
        raise ValueError(f"number {literal} is too large for a float, and JSON has no Infinity")
    return value


# One decoder serves every call: json.loads given a hook builds a new one each
# time, which doubled the cost of reading a corpus line.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_constant=_not_json, parse_float=_finite_float)


def _reject_lone_surrogates(value, where: str = "a JSON string") -> None:
    """Raise ValueError naming the key of the first string in the decoded ``value`` that UTF-8 cannot encode."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"lone surrogate {exc.object[exc.start]!r} in {where}; "
                             "no UTF-8 output can hold it") from None
    elif isinstance(value, dict):
        for key, item in value.items():
            _reject_lone_surrogates(key, f"key {key!r}")
            _reject_lone_surrogates(item, f"the value of key {key!r}")
    elif isinstance(value, list):
        for item in value:
            _reject_lone_surrogates(item, where)


def decode_json(text: str):
    """``json.loads(text)``, except that what no UTF-8 JSON output could hold raises ValueError:
    a repeated key in any object, NaN, Infinity, a number too large for a float, or a lone surrogate."""
    if text.startswith("\ufeff"):  # the filter config's, or a later line's: read_lines rejects a file's first
        return json.loads(text)  # raises json's own error for a byte order mark
    value = _DECODER.decode(text)
    if "\\u" in text:  # text decoded as strict UTF-8, so only an escape can spell a lone surrogate
        _reject_lone_surrogates(value)
    return value


def triplet_from_record(record, line_no: int) -> Triplet:
    """The triplet of a decoded JSONL record; CorpusFormatError names its fault."""
    if not isinstance(record, dict):
        raise CorpusFormatError("expected a JSON object")
    if not _RECORD_KEY_SET.issuperset(record):
        unknown = next(key for key in record if key not in _RECORD_KEY_SET)
        raise CorpusFormatError(f"unknown key {unknown!r}, expected only {', '.join(RECORD_KEYS)}")
    for name in TEXT_FIELDS:
        if name not in record:
            raise CorpusFormatError(f"missing field {name!r}")
        if not isinstance(record[name], str):
            raise CorpusFormatError(f"field {name!r} must be a string")
    triplet_id = record.get("id")
    if triplet_id is None:
        triplet_id = _ordinal_id(line_no)
    elif not isinstance(triplet_id, str):
        raise CorpusFormatError("field 'id' must be a string")
    meta = record.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise CorpusFormatError("field 'meta' must be an object")
    return Triplet(id=triplet_id, src=record["src"], mt=record["mt"], pe=record["pe"], meta=meta)


def _triplet_from_json_line(line: str, line_no: int) -> Triplet:
    try:
        record = decode_json(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # a repeated key
        raise CorpusFormatError(str(exc)) from exc
    return triplet_from_record(record, line_no)


def _triplet_from_tsv_line(line: str, line_no: int) -> Triplet:
    columns = line.split("\t")
    if len(columns) != 3:
        raise CorpusFormatError(f"expected 3 tab-separated columns, found {len(columns)}")
    return Triplet(id=_ordinal_id(line_no), src=columns[0], mt=columns[1], pe=columns[2])


def require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"input file not found: {p}")
    return p


def read_lines(path) -> Iterator[str]:
    """Yield the lines of a UTF-8 file without their endings, LF or CRLF.

    A missing file raises ValueError; a UTF-8 byte order mark at its start
    (never text, so it is not read as such, nor written back), any other
    carriage return (never a line break, so it cannot shift one file
    against another) or bytes that are not UTF-8 raise CorpusFormatError
    naming ``path`` and the line.
    """
    with open(require_file(path), "rb") as handle:
        if handle.read(3) == codecs.BOM_UTF8:
            raise CorpusFormatError(f"{path}: line 1: starts with a UTF-8 byte order mark; "
                                    "save the file as UTF-8 without one")
        handle.seek(0)
        for line_no, raw in enumerate(handle, start=1):
            raw = raw[:-2] if raw.endswith(b"\r\n") else raw.rstrip(b"\n")
            if b"\r" in raw:
                raise CorpusFormatError(f"{path}: line {line_no}: carriage return inside a line "
                                        "(line files end lines with \\n or \\r\\n only)")
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {line_no}: byte {exc.start + 1} is not UTF-8 "
                                        f"({exc.reason})") from None
            yield line


def read_csv(path) -> Iterator[Tuple[int, List[str]]]:
    """Yield each CSV row with the number of its last physical line.

    Physical lines are framed and decoded by read_lines, so a fault names
    its line even inside a quoted field that spans lines; such a field
    holds its line breaks as \\n.
    """
    reader = csv.reader(line + "\n" for line in read_lines(path))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise CorpusFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def open_lines(path) -> IO[str]:
    """Open a UTF-8 file for writing, creating its directory; newlines are written untranslated."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each line and a \\n to a UTF-8 file, creating its directory; ``lines`` is consumed lazily."""
    with open_lines(path) as handle:
        handle.writelines(line + "\n" for line in lines)


@contextmanager
def staged_outputs(inputs: Iterable = ()) -> Iterator[Callable[[object], Path]]:
    """Make a command's writes all or nothing.

    Yields ``stage(path)``, which makes the path's directory if needed and
    returns ``<path>.tmp`` to write instead; it rejects a path that is an
    existing directory, names one of the command's ``inputs`` (symbolic
    links resolved) or was staged before. When the block ends normally
    each staged file is renamed over its path in the order staged; when it
    raises they are removed, with every directory made for them.
    """
    read = {os.path.realpath(path) for path in inputs}
    staged, made = {}, []  # absolute target -> its temporary file, in staging order; directories made

    def stage(path) -> Path:
        target, key = Path(path), os.path.abspath(path)
        if target.is_dir():
            raise ValueError(f"output path is a directory: {target}")
        if os.path.realpath(path) in read:
            raise ValueError(f"output path is also an input: {target}")
        if key in staged:
            raise ValueError(f"output path is given twice: {target}")
        directory = target.parent
        while not directory.exists():
            made.append(directory)
            directory = directory.parent
        target.parent.mkdir(parents=True, exist_ok=True)
        staged[key] = target.with_name(target.name + ".tmp")
        return staged[key]

    try:
        yield stage
        for target, temp in staged.items():
            os.replace(temp, target)
    except BaseException:
        for temp in staged.values():
            temp.unlink(missing_ok=True)
        for directory in sorted(made, key=lambda d: len(d.parts), reverse=True):
            with suppress(OSError):
                directory.rmdir()
        raise


def _records(path, format: str) -> Iterator[Tuple[int, str]]:
    """The numbered lines that hold a record: every TSV line, every non-blank JSONL line."""
    return ((n, line) for n, line in enumerate(read_lines(path), start=1) if format == "tsv" or line.strip())


def iter_corpus(path, format: str = "jsonl") -> Iterator[Triplet]:
    """Yield the triplets of a JSONL or TSV corpus one at a time, in file order.

    Lines are framed by read_lines. Ids are auto-assigned as zero-padded
    1-based line ordinals when absent. A malformed record raises
    CorpusFormatError naming ``path`` and the line as it is met. Only the
    ids are kept: the first repeated id is raised, naming both of its
    lines, once the rest of the file has framed and parsed.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format {format!r}")
    parse = _triplet_from_json_line if format == "jsonl" else _triplet_from_tsv_line
    seen = set()
    repeat = None  # (line, id) of the first repeated id
    for line_no, line in _records(path, format):
        try:
            triplet = parse(line, line_no)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{path}: line {line_no}: {exc}") from exc
        if repeat is None and triplet.id in seen:
            repeat = (line_no, triplet.id)
        seen.add(triplet.id)
        yield triplet
    if repeat is not None:  # only a failed read maps the id back to its first line
        line_no, triplet_id = repeat
        first = next(n for n, line in _records(path, format) if parse(line, n).id == triplet_id)
        raise CorpusFormatError(f"{path}: line {line_no}: {DuplicateIdError(triplet_id)} (first on line {first})")


def read_corpus(path, format: str = "jsonl") -> Corpus:
    """Read a whole corpus through iter_corpus, preserving file order."""
    return tuple(iter_corpus(path, format))


def jsonl_record(t: Triplet) -> str:
    """The JSONL line of ``t``, without its \\n, as ``write_corpus`` writes it: the string
    ``json.dumps(record, ensure_ascii=False)`` gives, built from json's own string encoder."""
    line = f'{{"id": {_quote(t.id)}, "src": {_quote(t.src)}, "mt": {_quote(t.mt)}, "pe": {_quote(t.pe)}'
    if t.meta:
        return f'{line}, "meta": {json.dumps(dict(t.meta), ensure_ascii=False)}}}'
    return line + "}"


def write_corpus(corpus: Corpus, path) -> None:
    """Write a corpus as JSONL through write_lines; every field round-trips bit-exactly."""
    write_lines(path, map(jsonl_record, corpus))
