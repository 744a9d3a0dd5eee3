"""Change-tracked subtitle cleanup and its exact inverse.

Preprocessing splits multi-line segments at ``<br>`` (only when all three
fields agree on the count), removes HTML tags, musical note symbols, and
leading hyphens, and records every change. Postprocessing replays the
records in reverse; if the system output equals the cleaned text, the
original is restored byte for byte. When the output was edited, records
anchored at segment boundaries (leading hyphens, whole-segment tags) are
re-attached and interior ones are dropped and tallied.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple

from .corpus import TEXT_FIELDS, Triplet

TAG_RE = re.compile(r"<[a-zA-Z/][^>]*>")
# The group makes BR_RE.split keep each separator literal between the parts.
BR_RE = re.compile(r"(<br\s*/?>)", re.IGNORECASE)
MUSIC_CHARS = "♪♫♩♬"
LEADING_HYPHEN_RE = re.compile(r"- ?")

KINDS = ("split_br", "removed_tag", "removed_music", "removed_leading_hyphen")


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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "field": self.field,
            "part": self.part,
            "offset": self.offset,
            "payload": self.payload,
            "replacement": self.replacement,
            "anchor": self.anchor,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChangeRecord":
        return cls(**data)


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

    def part_count(self, field_name: str) -> int:
        return self.parts[field_name]

    def to_dict(self) -> dict:
        return {
            "triplet_id": self.triplet_id,
            "parts": dict(self.parts),
            "clean_digests": {f: list(v) for f, v in self.clean_digests.items()},
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False)

    @classmethod
    def from_dict(cls, data: dict) -> "ChangeLog":
        return cls(
            triplet_id=data["triplet_id"],
            records=tuple(ChangeRecord.from_dict(r) for r in data["records"]),
            parts=dict(data["parts"]),
            clean_digests={f: tuple(v) for f, v in data["clean_digests"].items()},
        )

    @classmethod
    def from_json(cls, text: str) -> "ChangeLog":
        return cls.from_dict(json.loads(text))


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


def contains_artifacts(text: str, music_chars: str = MUSIC_CHARS) -> bool:
    """Scanner for the cleanliness invariant: no tags, notes, leading
    hyphen, or ``<br>`` (which is a tag too) may survive preprocessing."""
    if TAG_RE.search(text) or any(ch in text for ch in music_chars):
        return True
    return text.startswith("-")


@lru_cache(maxsize=16)
def _markup_start_re(music_chars: str) -> re.Pattern:
    """Matches the characters where markup can start: "<" and the music symbols."""
    return re.compile(f"[{re.escape('<' + music_chars)}]")


def strip_markup(
    text: str, music_chars: str = MUSIC_CHARS, *, field: str = "", part: int = 0
) -> Tuple[str, List[ChangeRecord]]:
    """Remove tags, music symbols, and one leading hyphen, recording each
    as a change to ``field`` and ``part``.

    A removal absorbs one adjacent space into its payload whenever keeping
    the space would leave a doubled, leading, or trailing space, so the
    cleaned text never gains whitespace artifacts and every removed
    character is still accounted for. A "<" that never closes is not
    markup and stays put.
    """
    stop_re = _markup_start_re(music_chars)
    if not text.startswith("-") and stop_re.search(text) is None:
        return text, []
    clean: List[str] = []
    removals: List[Tuple[str, int, str]] = []  # (kind, offset, payload)
    i = 0
    n = len(text)
    hyphen_allowed = True

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
        if hyphen_allowed and not clean and ch == "-":
            payload = LEADING_HYPHEN_RE.match(text, i).group()
            removals.append(("removed_leading_hyphen", 0, payload))
            i += len(payload)
            hyphen_allowed = False
            continue
        match = TAG_RE.match(text, i)
        if match:
            i = remove("removed_tag", match.group(), match.end())
            continue
        if ch in music_chars:
            i = remove("removed_music", ch, i + 1)
            continue
        # ch is kept, so no leading hyphen can follow, and nothing before the
        # next "<" or music symbol is markup: keep that whole run.
        stop = stop_re.search(text, i + 1)
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


def preprocess(triplet: Triplet, music_chars: str = MUSIC_CHARS) -> Tuple[List[CleanTriplet], ChangeLog]:
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
        stripped = [strip_markup(raw, music_chars, field=f, part=k) for k, raw in enumerate(raw_parts)]
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
        clean_digests={f: tuple(_digest(p) for p in cleaned[f]) for f in TEXT_FIELDS},
    )
    return clean_triplets, log


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
    expected = log.part_count(field_name)
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


def postprocess(outputs: Sequence[str], log: ChangeLog, field_name: str = "mt") -> str:
    """Restore tracked changes; exact inverse when outputs are unedited."""
    text, _ = postprocess_with_report(outputs, log, field_name)
    return text
