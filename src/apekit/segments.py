"""Change-tracked subtitle cleanup and its exact inverse.

Preprocessing splits multi-line segments at ``<br>`` (only when all three
fields agree on the count), removes HTML tags, musical note symbols, and
leading hyphens, and records every change. Postprocessing replays the
records in reverse; if the system output equals the cleaned text, the
original is restored byte for byte. When the output was edited, records
anchored at segment boundaries (leading hyphens, whole-segment tags) are
re-attached and interior ones are dropped and tallied.

A changelog file is a header line, then one log per triplet and line:
``ChangeLog.to_json`` writes a log, and ``ChangeLog.from_json`` reads
one back and rejects counts and records that do not fit.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from . import __version__
from .corpus import TEXT_FIELDS, Triplet, read_lines, write_lines

TAG_RE = re.compile(r"<[a-zA-Z/][^>]*>")
# The group makes BR_RE.split keep each separator literal between the parts.
BR_RE = re.compile(r"(<br\s*/?>)", re.IGNORECASE)
MUSIC_CHARS = "♪♫♩♬"
# Where markup can start: "<" and the music symbols.
MARKUP_START_RE = re.compile(f"[{re.escape('<' + MUSIC_CHARS)}]")
LEADING_HYPHEN_RE = re.compile(r"(?:- ?)+")
ANCHORS = ("start", "end", "interior", "boundary")


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

    @classmethod
    def from_dict(cls, data: dict) -> "ChangeRecord":
        """Read a record written as ``vars(record)``; raise ValueError on a bad value."""
        record = cls(**data)  # an unknown key raises TypeError naming it
        missing = cls.__dataclass_fields__.keys() - data.keys()
        if missing:
            raise ValueError(f"change record lacks {', '.join(sorted(missing))}")
        for name in ("part", "offset"):
            if type(data[name]) is not int or data[name] < 0:
                raise ValueError(f"change record {name} must be an int >= 0, got {data[name]!r}")
        for name in ("kind", "payload", "replacement"):
            if type(data[name]) is not str:
                raise ValueError(f"change record {name} must be a string, got {data[name]!r}")
            if name != "kind" and ("\n" in data[name] or "\r" in data[name]):
                raise ValueError(f"change record {name} {data[name]!r} holds a line break")
        if record.field not in TEXT_FIELDS:
            raise ValueError(f"change record field {record.field!r} is not one of {TEXT_FIELDS}")
        if record.anchor not in ANCHORS:
            raise ValueError(f"change record anchor {record.anchor!r} is not one of {ANCHORS}")
        return record


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ChangeLog:
    """All tracked changes for one triplet, across fields and parts.

    Replaying the records in reverse reconstructs every pre-transform
    field exactly; the per-part digests let postprocessing detect whether
    a decoded output is the cleaned text verbatim.
    """

    triplet_id: str
    records: Tuple[ChangeRecord, ...]
    parts: Mapping[str, int]
    clean_digests: Mapping[str, Tuple[str, ...]]

    def to_json(self) -> str:
        data = {
            "triplet_id": self.triplet_id,
            "parts": dict(self.parts),
            "clean_digests": {f: list(v) for f, v in self.clean_digests.items()},
            "records": [vars(r) for r in self.records],
        }
        return json.dumps(data, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "ChangeLog":
        """Read a log written by ``to_json``; raise ValueError on counts that do not fit."""
        data = json.loads(text)
        # From lists, not generators: a tuple grown from a generator skips
        # CPython's per-length free lists when made but lands in them when
        # freed, so they filled up as a changelog was read.
        records = tuple([ChangeRecord.from_dict(r) for r in data["records"]])
        parts = {f: data["parts"][f] for f in TEXT_FIELDS}
        digests = {f: data["clean_digests"][f] for f in TEXT_FIELDS}
        for f, n in parts.items():
            if type(n) is not int or n < 1:
                raise ValueError(f"parts[{f!r}] must be an int >= 1, got {n!r}")
            # Once the digest count matches, n is no larger than the input.
            listed = digests[f]
            if type(listed) is not list or len(listed) != n or set(map(type, listed)) != {str}:
                raise ValueError(f"clean_digests[{f!r}] must be a list of {n} string(s), got {listed!r}")
        joins = {f: set() for f in TEXT_FIELDS}
        for r in records:
            if r.part >= parts[r.field]:
                raise ValueError(
                    f"change record part {r.part} is not below parts[{r.field!r}] = {parts[r.field]}"
                )
            if r.anchor == "boundary":
                joins[r.field].add(r.part)
        for f, n in parts.items():
            if joins[f] != set(range(n - 1)):
                raise ValueError(
                    f"boundary records of {f!r} join parts {sorted(joins[f])}, expected {[*range(n - 1)]}"
                )
        return cls(data["triplet_id"], records, parts, {f: tuple(v) for f, v in digests.items()})


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


def preprocess(triplet: Triplet) -> Tuple[List[CleanTriplet], ChangeLog]:
    """Split and strip one triplet, logging every change on every field."""
    # [part, separator, part, ..., part]: one <br> pass per field decides both
    # whether to split and, when not, where the separators become spaces.
    pieces = {f: BR_RE.split(triplet.text(f)) for f in TEXT_FIELDS}
    br_counts = {len(p) // 2 for p in pieces.values()}
    do_split = len(br_counts) == 1 and br_counts != {0}

    records: List[ChangeRecord] = []
    cleaned: Dict[str, List[str]] = {}
    for f, field_pieces in pieces.items():
        raw_parts, literals = field_pieces[::2], field_pieces[1::2]
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
        cleaned[f] = [clean for clean, _ in stripped]
        records.extend(r for _, part_records in stripped for r in part_records)

    n_parts = len(cleaned["src"])
    clean_triplets = [
        CleanTriplet(
            parent_id=triplet.id,
            part_index=k,
            src=cleaned["src"][k],
            mt=cleaned["mt"][k],
            pe=cleaned["pe"][k],
        )
        for k in range(n_parts)
    ]
    log = ChangeLog(
        triplet_id=triplet.id,
        records=tuple(records),
        parts={f: len(cleaned[f]) for f in TEXT_FIELDS},
        clean_digests={f: tuple([_digest(p) for p in cleaned[f]]) for f in TEXT_FIELDS},  # see from_json
    )
    return clean_triplets, log


def _line_break_fault(triplet: Triplet):
    for name in TEXT_FIELDS:
        if "\n" in triplet.text(name) or "\r" in triplet.text(name):
            return ValueError(f"triplet {triplet.id!r}: field {name!r} contains a newline or carriage return; "
                              "line-oriented decoding files cannot represent it")
    return None


def preprocess_all(triplets: Iterable[Triplet], cleaned: IO[str]) -> Iterator[ChangeLog]:
    """Write each triplet's cleaned parts to ``cleaned`` as JSON lines and yield its log.
    A field holding a line break, which a decoding file could not hold, is raised
    after every triplet is read, so a fault of ``triplets`` itself is raised first."""
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

    Returns the restored text and the count of records that could not be
    re-attached because the output was edited away from the cleaned text.
    """
    expected = log.parts[field_name]
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
    digests = log.clean_digests[field_name]
    for k, output in enumerate(outputs):
        if _digest(output) == digests[k]:
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


def postprocess_all(
    outputs: Iterable[str], logs: Iterable[ChangeLog], field_name: str = "mt"
) -> Iterator[Tuple[str, int]]:
    """Restore one field of every logged triplet from decoded parts, one per line.

    Walks ``logs`` and ``outputs`` in step and yields each restored text
    with its count of dropped records. A fault of ``logs`` is raised as it
    is met; one in reading ``outputs``, and then a total part count that
    differs from the number of decoded lines, once every log is read.
    """
    faults = []
    lines = _until_fault(outputs, faults)
    expected = read = 0
    for log in logs:
        n = log.parts[field_name]
        expected += n
        parts = list(islice(lines, n))
        read += len(parts)
        if read == expected:  # else outputs failed or ran out, here or before this log
            yield postprocess_with_report(parts, log, field_name)
    read += sum(1 for _ in lines)
    if faults:
        raise faults[0]
    if read != expected:
        raise PartCountError(
            f"outputs/changelog mismatch: changelog expects {expected} {field_name} part(s), "
            f"decoded file has {read} line(s); is this the changelog of another corpus?"
        )


def _tally(counts: dict, log: ChangeLog) -> ChangeLog:
    """Add ``log`` to the header counts in ``counts`` and return it."""
    counts["n_triplets"] += 1
    for f in TEXT_FIELDS:
        counts["n_parts"][f] += log.parts[f]
    return log


def _no_counts() -> dict:
    return {"n_triplets": 0, "n_parts": dict.fromkeys(TEXT_FIELDS, 0)}


def write_changelog(path, logs: Iterable[ChangeLog], input_sha256: str) -> dict:
    """Write the header line and one log per line, consuming ``logs`` lazily; return the header.

    The header states the totals, so the logs go to ``<path>.logs`` first
    and are copied after it.
    """
    body = Path(f"{path}.logs")
    counts = _no_counts()
    try:
        write_lines(body, (ChangeLog.to_json(_tally(counts, log)) for log in logs))
        header = {"type": "header", "toolkit_version": __version__, "input_sha256": input_sha256, **counts}
        write_lines(path, [json.dumps(header, ensure_ascii=False)])
        with open(path, "ab") as handle, open(body, "rb") as written:
            while chunk := written.read(1 << 16):
                handle.write(chunk)
    finally:
        body.unlink(missing_ok=True)
    return header


def read_changelog(path) -> Tuple[dict, Iterator[ChangeLog]]:
    """Read the header of a changelog, and return it with a stream of its logs.

    Blank log lines are skipped. Raises ValueError naming ``path``, and the
    line for a line that does not frame or parse or a header whose counts
    disagree with the logs. A line that does not frame comes first wherever
    it is, so a bad header is raised, and a bad log is raised by the
    stream, only once every later line has framed; the stream checks the
    header counts after the last log.
    """
    lines = enumerate(read_lines(path), start=1)
    first = next(lines, None)
    if first is None:
        raise ValueError(f"{path}: empty changelog")
    try:
        header = json.loads(first[1])
        fault = None if header.get("type") == "header" else ValueError(f"{path}: missing changelog header")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        fault = ValueError(f"{path}: line 1: malformed changelog ({exc})")
    if fault is not None:
        for _ in lines:
            pass
        raise fault
    return header, _read_logs(path, header, lines)


def _read_logs(path, header: dict, lines: Iterator[Tuple[int, str]]) -> Iterator[ChangeLog]:
    """Parse each non-blank line, then check the header counts against the logs.
    The first line that does not parse is raised after the rest have framed."""
    counts = _no_counts()
    fault = None
    for number, line in lines:
        if fault is not None or not line.strip():
            continue
        try:
            log = ChangeLog.from_json(line)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            fault = ValueError(f"{path}: line {number}: malformed changelog ({exc})")
            continue
        yield _tally(counts, log)
    if fault is not None:
        raise fault
    if (header.get("n_triplets"), header.get("n_parts")) != (counts["n_triplets"], counts["n_parts"]):
        raise ValueError(f"{path}: line 1: header counts {header.get('n_triplets')!r} triplet(s) with parts "
                         f"{header.get('n_parts')!r}, but the logs hold {counts['n_triplets']} triplet(s) "
                         f"with parts {counts['n_parts']}")
