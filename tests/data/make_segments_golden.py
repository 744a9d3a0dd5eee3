"""Generate segments_golden.jsonl: seeded triplets with their preprocess and
postprocess results.

Each line pins, for one triplet, the cleaned parts, the change log (its
part counts and every record, as JSON), and ``postprocess_with_report`` on
every field for two kinds of decoded output: the cleaned parts verbatim
(which must restore the original) and edited parts (which re-attach the
boundary records and drop the rest). Changes to the preprocessing
internals can be checked against it for identical results. Regenerate only when a change of preprocessing results is
intended:

    PYTHONPATH=src python tests/data/make_segments_golden.py

The triplets cover matched and mismatched ``<br>`` counts in all spellings
(``<br>``, ``<BR>``, ``<br/>``, ``<br />``), ``<br>`` at the start, at the
end, doubled and inside ``<i>...</i>``, ``<br>``-like tags that are not
separators, other tags, all four music symbols, leading hyphens, unclosed
``<``, and empty fields.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from apekit.corpus import TEXT_FIELDS, Triplet
from apekit.segments import postprocess_with_report, preprocess

import golden

SEED = 2026
N_TRIPLETS = 200
OUT = Path(__file__).with_name("segments_golden.jsonl")
WORDS = ("where are you going tonight Hallo Welt wir gehen jetzt nobody knew "
         "la da oh immer Nacht a b").split()
BR_SPELLINGS = ("<br>", "<BR>", "<br/>", "<br />", "<Br>", "<br  />")
NOT_BR = ("<br clear=all>", "<brx>", "<b>r")


def _line(rng) -> str:
    """One subtitle line with random decoration, possibly empty."""
    if rng.random() < 0.06:
        return ""
    words = " ".join(rng.choices(WORDS, k=rng.randint(1, 5)))
    roll = rng.random()
    if roll < 0.2:
        words = f"<i>{words}</i>"
    elif roll < 0.3:
        words = f'<font color="red">{words}</font>'
    elif roll < 0.4:
        cut = words.find(" ")
        if cut > 0:
            words = f"{words[:cut]} <b>{words[cut + 1:]}</b>"
    elif roll < 0.45:
        words = f"{words} < 3"
    elif roll < 0.5:
        words = f"{words} {rng.choice(NOT_BR)} x"
    if rng.random() < 0.3:
        words = rng.choice(("♪ ", "♫", "♪♪ ")) + words
    if rng.random() < 0.25:
        words = words + rng.choice((" ♪", "♬", " ♩ "))
    if rng.random() < 0.35:
        words = rng.choice(("- ", "-", "- - ", "-- ")) + words
    return words


def _field(rng, n_br: int) -> str:
    text = _line(rng)
    for _ in range(n_br):
        separator = rng.choice(BR_SPELLINGS)
        if rng.random() < 0.1:
            separator += rng.choice(BR_SPELLINGS)  # adjacent separators
        text += separator + _line(rng)
    roll = rng.random()
    if n_br and roll < 0.1:
        text = f"<i>{text}</i>"  # separators inside one italic span
    elif roll < 0.15:
        text = rng.choice(BR_SPELLINGS) + text  # separator at the start
    elif roll < 0.2:
        text = text + rng.choice(BR_SPELLINGS)  # separator at the end
    return text


def triplets():
    """Yield the triplets, deterministically."""
    rng = random.Random(SEED)
    for index in range(N_TRIPLETS):
        n_br = rng.choice((0, 0, 1, 1, 2, 3))
        counts = [n_br, n_br, n_br]
        if rng.random() < 0.35:
            counts[rng.randrange(3)] = rng.choice((0, 1, 2, 4))  # likely mismatched
        fields = [_field(rng, n) for n in counts]
        rng.randrange(5)  # unused draw: it keeps the random stream, and so every pinned triplet, as it is
        yield Triplet(id=f"s{index:03d}", src=fields[0], mt=fields[1], pe=fields[2])


def _edit(rng, part: str) -> str:
    roll = rng.random()
    if roll < 0.3:
        return part + " ja"
    if roll < 0.6:
        return part.upper() if part != part.upper() else part + "!"
    if roll < 0.8:
        return "Neu " + part
    return ""


def record(triplet: Triplet, rng) -> dict:
    parts, log = preprocess(triplet)
    cleaned = {name: [getattr(p, name) for p in parts] for name in TEXT_FIELDS}
    restored = {}
    edited = {}
    for name in TEXT_FIELDS:
        restored[name] = list(postprocess_with_report(cleaned[name], log, name))
        outputs = [_edit(rng, part) for part in cleaned[name]]
        if outputs == cleaned[name]:
            outputs[0] += " ja"
        edited[name] = {"outputs": outputs, "result": list(postprocess_with_report(outputs, log, name))}
    return {
        "id": triplet.id,
        "src": triplet.src,
        "mt": triplet.mt,
        "pe": triplet.pe,
        "parts": [[p.id, p.src, p.mt, p.pe] for p in parts],
        "log": json.dumps({"triplet_id": log.triplet_id, "parts": {f: len(p) for f, p in log.cleaned.items()},
                           "records": [vars(r) for r in log.records]}, ensure_ascii=False),
        "restored": restored,
        "edited": edited,
    }


def records():
    rng = random.Random(SEED + 1)
    return [record(triplet, rng) for triplet in triplets()]


if __name__ == "__main__":
    golden.write_jsonl(OUT, records())
