"""Change-tracked subtitle cleanup and its exact inverse.

Preprocessing splits multi-line segments at ``<br>`` (only when all three
fields agree on the count), removes HTML tags, musical note symbols, and
leading hyphens, and records every change. Postprocessing replays the
records in reverse; if the system output equals the cleaned text, the
original is restored byte for byte. When the output was edited, records
anchored at segment boundaries (leading hyphens, whole-segment tags) are
re-attached and interior ones are dropped and tallied.

A changelog file is a header line, then each triplet as ``write_corpus``
writes it. The records are a pure function of the triplet, so
``postprocess_all`` re-derives them for the field it restores; the
header's counts and digest of the cleaned parts catch a changelog that was
edited or written under other cleaning rules.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring as _quote  # the string encoder of json.dumps(..., ensure_ascii=False)
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from . import __version__
from .corpus import TEXT_FIELDS, Triplet, decode_json, jsonl_record, read_lines, triplet_from_record, write_lines

TAG_RE = re.compile(r"<[a-zA-Z/][^>]*>")
# The group makes BR_RE.split keep each separator literal between the parts.
BR_RE = re.compile(r"(<br\s*/?>)", re.IGNORECASE)
MUSIC_CHARS = "♪♫♩♬"
# Where markup can start: "<" and the music symbols.
MARKUP_START_RE = re.compile(f"[{re.escape('<' + MUSIC_CHARS)}]")
LEADING_HYPHEN_RE = re.compile(r"(?:- ?)+")


class PartCountError(ValueError):
    """Decoded outputs do not match the part count recorded in the log."""


@dataclass(frozen=True)
class ChangeRecord:
    """One tracked change.

    ``offset`` is the character position in the cleaned text at the moment
    of the change, ``payload`` the removed literal, and ``replacement``
    what now occupies the spot (empty for pure removals, a single space
    for the unsplittable-``<br>`` fallback). ``anchor`` classifies where
    the record may be re-attached when the decoded text was edited:
    "start", "end", "interior", or "boundary" for part joins.
    """

    kind: str
    field: str = ""
    part: int = 0
    offset: int = 0
    payload: str = ""
    replacement: str = ""
    anchor: str = "interior"


@dataclass(frozen=True)
class ChangeLog:
    """All tracked changes for one triplet, and its cleaned parts, on some or
    all of its fields.

    Replaying the records in reverse onto the cleaned parts reconstructs
    every logged field exactly.
    """

    triplet_id: str
    records: Tuple[ChangeRecord, ...]
    cleaned: Mapping[str, Tuple[str, ...]]


@dataclass(frozen=True)
class CleanTriplet:
    """One cleaned training instance derived from a (possibly split) triplet."""

    parent_id: str
    part_index: int
    src: str
    mt: str
    pe: str

    @property
    def id(self) -> str:
        return f"{self.parent_id}#p{self.part_index}"


def strip_markup(text: str, *, field: str = "", part: int = 0) -> Tuple[str, List[ChangeRecord]]:
    """Remove tags, music symbols, and leading runs of hyphens (each may
    be followed by a space), recording each as a change to ``field`` and
    ``part``; a hyphen run is one change, and one that follows only
    removed markup is still leading.

    A removal absorbs one adjacent space into its payload whenever keeping
    the space would leave a doubled, leading, or trailing space, so the
    cleaned text never gains whitespace artifacts and every removed
    character is still accounted for. A "<" that never closes is not
    markup and stays put.
    """
    if not text.startswith("-") and MARKUP_START_RE.search(text) is None:
        return text, []
    clean: List[str] = []
    removals: List[Tuple[str, int, str]] = []  # (kind, offset, payload)
    i = 0
    n = len(text)

    def remove(kind: str, payload: str, end_i: int) -> int:
        offset = len(clean)
        if clean and clean[-1] == " " and (end_i == n or text[end_i] == " "):
            # keeping the preceding space would double or trail it
            clean.pop()
            offset -= 1
            payload = " " + payload
        elif (not clean or clean[-1] == " ") and end_i < n and text[end_i] == " ":
            # keeping the following space would double or lead it
            payload = payload + " "
            end_i += 1
        removals.append((kind, offset, payload))
        return end_i

    while i < n:
        ch = text[i]
        if not clean and ch == "-":
            payload = LEADING_HYPHEN_RE.match(text, i).group()
            removals.append(("removed_leading_hyphen", 0, payload))
            i += len(payload)
            continue
        match = TAG_RE.match(text, i)
        if match:
            i = remove("removed_tag", match.group(), match.end())
            continue
        if ch in MUSIC_CHARS:
            i = remove("removed_music", ch, i + 1)
            continue
        # ch is kept, so no leading hyphen can follow, and nothing before the
        # next "<" or music symbol is markup: keep that whole run.
        stop = MARKUP_START_RE.search(text, i + 1)
        end = stop.start() if stop else n
        clean.extend(text[i:end])
        i = end

    clean_text = "".join(clean)
    final_len = len(clean_text)
    records = [
        ChangeRecord(
            kind=kind,
            field=field,
            part=part,
            offset=offset,
            payload=payload,
            anchor="start" if offset == 0 else ("end" if offset == final_len else "interior"),
        )
        for kind, offset, payload in removals
    ]
    return clean_text, records


def _change_log(triplet: Triplet, fields: Sequence[str] = TEXT_FIELDS) -> ChangeLog:
    """Split ``triplet`` at ``<br>`` and strip each of ``fields``, logging every change.

    Whether to split depends on all three fields, so it is decided here for
    any of them: ``preprocess`` logs all three, ``postprocess_all`` the one
    it restores. A field with no "<", no music symbol and no leading "-"
    holds no ``<br>``, so the triplet cannot split, and ``strip_markup``
    keeps it whole: when all of ``fields`` are such fields, the log has no
    record and each field is its own one part, without ``_split_and_strip``.
    """
    for f in fields:
        text = getattr(triplet, f)
        if text.startswith("-") or MARKUP_START_RE.search(text):
            return _split_and_strip(triplet, fields)
    return ChangeLog(triplet.id, (), {f: (getattr(triplet, f),) for f in fields})


def _split_and_strip(triplet: Triplet, fields: Sequence[str]) -> ChangeLog:
    """``_change_log`` of any triplet: the ``<br>`` decision over the three fields, then ``strip_markup``."""
    # [part, separator, part, ..., part]: one <br> pass per field decides both
    # whether to split and, when not, where the separators become spaces.
    pieces = {f: BR_RE.split(getattr(triplet, f)) for f in TEXT_FIELDS}
    br_counts = {len(p) // 2 for p in pieces.values()}
    do_split = len(br_counts) == 1 and br_counts != {0}

    records: List[ChangeRecord] = []
    cleaned: Dict[str, Tuple[str, ...]] = {}
    for f in fields:
        raw_parts, literals = pieces[f][::2], pieces[f][1::2]
        if do_split:
            records.extend(
                ChangeRecord(kind="split_br", field=f, part=k, payload=literal, anchor="boundary")
                for k, literal in enumerate(literals)
            )
        else:
            offset = 0
            for raw, literal in zip(raw_parts, literals):
                offset += len(raw)
                records.append(
                    ChangeRecord(kind="split_br", field=f, offset=offset, payload=literal, replacement=" ")
                )
                offset += 1
            raw_parts = [" ".join(raw_parts)]
        stripped = [strip_markup(raw, field=f, part=k) for k, raw in enumerate(raw_parts)]
        # From lists, not generators: a tuple grown from a generator skips
        # CPython's per-length free lists when made but lands in them when
        # freed, so they fill up over a corpus.
        cleaned[f] = tuple([clean for clean, _ in stripped])
        records.extend(r for _, part_records in stripped for r in part_records)
    return ChangeLog(triplet.id, tuple(records), cleaned)


def preprocess(triplet: Triplet) -> Tuple[List[CleanTriplet], ChangeLog]:
    """Split and strip one triplet, logging every change on every field."""
    log = _change_log(triplet)
    parts = zip(*log.cleaned.values())  # src, mt, pe: the fields all have the same part count
    return [CleanTriplet(triplet.id, k, *fields) for k, fields in enumerate(parts)], log


def jsonl_part(part: CleanTriplet) -> str:
    """The JSONL line of ``part``, without its \\n, as ``preprocess_all`` writes it: the
    string ``json.dumps(vars(part), ensure_ascii=False)`` gives, built from json's own string encoder."""
    return (f'{{"parent_id": {_quote(part.parent_id)}, "part_index": {part.part_index}, '
            f'"src": {_quote(part.src)}, "mt": {_quote(part.mt)}, "pe": {_quote(part.pe)}}}')


def _line_break_fault(triplet: Triplet):
    for name in TEXT_FIELDS:
        text = getattr(triplet, name)
        if "\n" in text or "\r" in text:
            return ValueError(f"triplet {triplet.id!r}: field {name!r} contains a newline or carriage return; "
                              "line-oriented decoding files cannot represent it")
    return None


def preprocess_all(triplets: Iterable[Triplet], cleaned: IO[str]) -> Iterator[Tuple[Triplet, ChangeLog]]:
    """Write each triplet's cleaned parts to ``cleaned`` as JSON lines and yield it with its log.
    A field holding a line break, which a decoding file could not hold, is raised
    after every triplet is read, so a fault of ``triplets`` itself is raised first."""
    fault = None
    for triplet in triplets:
        fault = fault or _line_break_fault(triplet)
        if fault is None:
            parts, log = preprocess(triplet)
            cleaned.writelines(jsonl_part(part) + "\n" for part in parts)
            yield triplet, log
    if fault is not None:
        raise fault


def _restore_exact(text: str, part_records: Sequence[ChangeRecord]) -> str:
    for record in reversed(part_records):
        end = record.offset + len(record.replacement)
        text = text[: record.offset] + record.payload + text[end:]
    return text


def _restore_edited(text: str, part_records: Sequence[ChangeRecord]) -> Tuple[str, int]:
    # Boundary-anchored removals re-attach around the edited text: suffixes
    # rebuild in creation order, prefixes in reverse, so nesting survives.
    appends = [r for r in part_records if not r.replacement and r.anchor == "end"]
    prepends = [r for r in part_records if not r.replacement and r.anchor == "start"]
    dropped = len(part_records) - len(appends) - len(prepends)
    for record in appends:
        text = text + record.payload
    for record in reversed(prepends):
        text = record.payload + text
    return text, dropped


def postprocess_with_report(
    outputs: Sequence[str], log: ChangeLog, field_name: str = "mt"
) -> Tuple[str, int]:
    """Restore tracked changes onto decoded outputs.

    A part equal to its cleaned part restores exactly. Returns the restored
    text and the count of records that could not be re-attached because the
    output was edited away from the cleaned text.
    """
    cleaned = log.cleaned[field_name]
    expected = len(cleaned)
    if len(outputs) != expected:
        raise PartCountError(
            f"triplet {log.triplet_id!r}: expected {expected} output part(s) "
            f"for field {field_name!r}, got {len(outputs)}"
        )
    boundary: Dict[int, str] = {}
    by_part: Dict[int, List[ChangeRecord]] = {k: [] for k in range(expected)}
    for record in log.records:
        if record.field != field_name:
            continue
        if record.anchor == "boundary":
            boundary[record.part] = record.payload
        else:
            by_part[record.part].append(record)

    restored: List[str] = []
    dropped = 0
    for k, output in enumerate(outputs):
        if output == cleaned[k]:
            restored.append(_restore_exact(output, by_part[k]))
        else:
            text, part_dropped = _restore_edited(output, by_part[k])
            restored.append(text)
            dropped += part_dropped

    joined = restored[0]
    for k in range(1, expected):
        joined += boundary[k - 1] + restored[k]
    return joined, dropped


def _until_fault(lines: Iterable[str], faults: list) -> Iterator[str]:
    """Yield ``lines`` until reading one raises OSError or ValueError, then
    end, holding that fault in ``faults``."""
    try:
        yield from lines
    except (OSError, ValueError) as exc:
        faults.append(exc)


def _no_counts(fields: Sequence[str]) -> dict:
    return {"n_triplets": 0, "n_parts": dict.fromkeys(fields, 0),
            "clean_sha256": {f: hashlib.sha256() for f in fields}}


def _tally(counts: dict, log: ChangeLog) -> None:
    """Add ``log``'s triplet, part counts and cleaned parts, each followed by \\n, to ``counts``."""
    counts["n_triplets"] += 1
    for f, parts in log.cleaned.items():
        counts["n_parts"][f] += len(parts)
        counts["clean_sha256"][f].update(("\n".join(parts) + "\n").encode("utf-8"))


def postprocess_all(
    outputs: Iterable[str], triplets: Iterable[Triplet], header: Mapping, field_name: str = "mt"
) -> Iterator[Tuple[str, int]]:
    """Restore one field of every triplet of a changelog from decoded parts, one per line.

    Walks ``triplets`` and ``outputs`` in step, re-derives each triplet's
    log of ``field_name``, and yields the restored text with its count of
    dropped records. A fault of ``triplets`` is raised as it is met. Once
    every triplet is read, a ``header`` whose triplet count, or part count
    or cleaned-parts digest of the field, differs from the re-derived one
    is raised; then a fault in reading ``outputs``; then a total part count
    that differs from the number of decoded lines.
    """
    faults = []
    lines = _until_fault(outputs, faults)
    counts = _no_counts([field_name])
    read = 0
    for triplet in triplets:
        log = _change_log(triplet, [field_name])
        _tally(counts, log)
        parts = list(islice(lines, len(log.cleaned[field_name])))
        read += len(parts)
        if read == counts["n_parts"][field_name]:  # else outputs failed or ran out, here or before this triplet
            yield postprocess_with_report(parts, log, field_name)
    read += sum(1 for _ in lines)
    derived = (counts["n_triplets"], counts["n_parts"][field_name], counts["clean_sha256"][field_name].hexdigest())
    try:
        stated = (header["n_triplets"], header["n_parts"][field_name], header["clean_sha256"][field_name])
    except (KeyError, TypeError):
        stated = None
    if stated != derived:
        raise ValueError(f"changelog header states (n_triplets, n_parts[{field_name!r}], "
                         f"clean_sha256[{field_name!r}]) = {stated}, but its triplets re-derive {derived}; "
                         "was the changelog edited, or written under other cleaning rules?")
    if faults:
        raise faults[0]
    if read != derived[1]:
        raise PartCountError(
            f"outputs/changelog mismatch: changelog expects {derived[1]} {field_name} part(s), "
            f"decoded file has {read} line(s); is this the changelog of another corpus?"
        )


def write_changelog(path, logged: Iterable[Tuple[Triplet, ChangeLog]], input_sha256: str) -> dict:
    """Write the header line, then each triplet of ``logged`` as ``write_corpus``
    writes it, consuming ``logged`` lazily; return the header.

    The header states the totals and the SHA-256 of each field's cleaned
    parts, so the triplets go to ``<path>.logs`` first and are copied after it.
    """
    body = Path(f"{path}.logs")
    counts = _no_counts(TEXT_FIELDS)

    def tallied():
        for triplet, log in logged:
            _tally(counts, log)
            yield jsonl_record(triplet)

    try:
        write_lines(body, tallied())
        digests = {f: digest.hexdigest() for f, digest in counts["clean_sha256"].items()}
        header = {"type": "header", "toolkit_version": __version__, "input_sha256": input_sha256,
                  **counts, "clean_sha256": digests}
        write_lines(path, [json.dumps(header, ensure_ascii=False)])
        with open(path, "ab") as handle, open(body, "rb") as written:
            while chunk := written.read(1 << 16):
                handle.write(chunk)
    finally:
        body.unlink(missing_ok=True)
    return header


def read_changelog(path) -> Tuple[dict, Iterator[Triplet]]:
    """Read the header of a changelog, and return it with a stream of its triplets.

    Blank lines are skipped. Raises ValueError naming ``path``, and the
    line for a line that does not frame or parse, a line that is not a
    corpus record, or a triplet with a field that holds a line break, which
    would split a restored line. A line that does not frame comes first
    wherever it is, so a bad header is raised, and a bad triplet is raised
    by the stream, only once every later line has framed.
    """
    lines = enumerate(read_lines(path), start=1)
    first = next(lines, None)
    if first is None:
        raise ValueError(f"{path}: empty changelog")
    try:
        header = decode_json(first[1])
        fault = None if header.get("type") == "header" else ValueError(f"{path}: missing changelog header")
    except (ValueError, AttributeError) as exc:
        fault = ValueError(f"{path}: line 1: malformed changelog ({exc})")
    if fault is not None:
        for _ in lines:
            pass
        raise fault
    return header, _read_triplets(path, lines)


def _read_triplets(path, lines: Iterator[Tuple[int, str]]) -> Iterator[Triplet]:
    """Parse each non-blank line as a corpus record.
    The first line that does not parse is raised after the rest have framed."""
    fault = None
    for number, line in lines:
        if fault is not None or not line.strip():
            continue
        try:
            triplet = triplet_from_record(decode_json(line), number)
            broken = _line_break_fault(triplet)
            if broken is not None:
                raise broken
        except ValueError as exc:
            fault = ValueError(f"{path}: line {number}: malformed changelog ({exc})")
            continue
        yield triplet
    if fault is not None:
        raise fault
