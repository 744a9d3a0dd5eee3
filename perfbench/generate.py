"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and writes byte-identical
files for the same seed. Shares and counts are fixed quotas, not
per-row coin flips, so the amount of work in a workload barely moves
between seeds; the seed only picks which rows carry which feature and
which words fill them.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Parallel everyday vocabulary. The built-in n-gram classifier is seeded
# with similar prose, so word salads drawn from either column classify as
# the intended language.
LEXICON = [
    ("the", "der"), ("and", "und"), ("was", "war"), ("is", "ist"), ("not", "nicht"),
    ("we", "wir"), ("they", "sie"), ("he", "er"), ("have", "haben"), ("would", "würde"),
    ("should", "sollte"), ("could", "konnte"), ("with", "mit"), ("after", "nach"),
    ("before", "bevor"), ("because", "weil"), ("when", "wenn"), ("where", "wo"),
    ("what", "was"), ("nobody", "niemand"), ("everyone", "alle"), ("nothing", "nichts"),
    ("weather", "Wetter"), ("morning", "Morgen"), ("streets", "Straßen"), ("quiet", "ruhig"),
    ("train", "Zug"), ("bread", "Brot"), ("shop", "Geschäft"), ("closed", "geschlossen"),
    ("today", "heute"), ("yesterday", "gestern"), ("house", "Haus"), ("work", "Arbeit"),
    ("dinner", "Abendessen"), ("better", "besser"), ("warm", "warm"), ("cup", "Tasse"),
    ("tea", "Tee"), ("outside", "draußen"), ("keys", "Schlüssel"), ("old", "alte"),
    ("car", "Auto"), ("children", "Kinder"), ("garden", "Garten"), ("mother", "Mutter"),
    ("book", "Buch"), ("window", "Fenster"), ("meeting", "Besprechung"), ("week", "Woche"),
    ("earlier", "früher"), ("dark", "dunkel"), ("village", "Dorf"), ("lake", "See"),
    ("brother", "Bruder"), ("city", "Stadt"), ("holidays", "Ferien"), ("coffee", "Kaffee"),
    ("station", "Bahnhof"), ("answer", "Antwort"), ("question", "Frage"), ("time", "Zeit"),
    ("small", "kleine"), ("finally", "endlich"), ("still", "noch"), ("already", "schon"),
    ("there", "dort"), ("think", "glaube"), ("remember", "erinnern"), ("playing", "spielten"),
    ("reached", "erreichten"), ("visits", "besucht"), ("only", "nur"), ("more", "mehr"),
    ("cold", "kalt"), ("asked", "fragte"), ("knew", "wusste"), ("tell", "sag"),
    ("broken", "kaputten"), ("agreed", "einig"), ("start", "beginnen"), ("another", "anderen"),
    ("leave", "aufbrechen"), ("much", "viel"), ("left", "gelassen"), ("buy", "kaufen"),
]
EN_WORDS = [en for en, _ in LEXICON]
DE_WORDS = [de for _, de in LEXICON]
END_PUNCT = (".", "?", "!")
NBSP = "\u00a0"

# Build corpus composition, as shares of the generated rows. The first
# four are planted faults the filter must remove; the rest are features
# the filter keeps and preprocess must clean and restore.
BUILD_SHARES = {
    "ratio": 0.02,  # src or pe three times as long: far outside the ratio band
    "degenerate": 0.01,  # empty pe
    "dedup": 0.03,  # same (src, mt) as a kept row, shorter pe; half only after normalization
    "langid": 0.02,  # src in German or pe in English
    "typographic": 0.05,  # typographic quotes and no-break spaces
    "br_matched": 0.08,  # two-line dialog, same <br> count in all fields, leading hyphens
    "br_mismatched": 0.03,  # <br> in src and mt but not in pe
    "italic": 0.06,  # whole segment wrapped in <i>...</i>
    "music": 0.03,  # lyrics between ♪ symbols
    "hyphen": 0.03,  # one leading dialog hyphen
}
PLANTED = ("ratio", "degenerate", "dedup", "langid")
MT_EXACT_SHARE = 0.2  # rows whose mt already equals pe
DECODED_UNEDITED_SHARE = 0.7  # triplets whose decoded parts equal the cleaned mt


def _sentence(rng: random.Random, n_words: int):
    idx = [rng.randrange(len(LEXICON)) for _ in range(n_words)]
    punct = rng.choice(END_PUNCT)
    en = " ".join(EN_WORDS[i] for i in idx)
    de = " ".join(DE_WORDS[i] for i in idx)
    return en[0].upper() + en[1:] + punct, de[0].upper() + de[1:] + punct


def _machine_translate(rng: random.Random, pe: str, exact: bool) -> str:
    if exact:
        return pe
    words = pe.split(" ")
    for _ in range(1 + rng.randrange(2)):
        pos = rng.randrange(len(words))
        words[pos] = rng.choice(DE_WORDS) + (words[pos][-1] if words[pos][-1] in END_PUNCT else "")
    mt = " ".join(words)
    return mt if mt != pe else mt + " ja"


def _quotas(n: int) -> dict:
    return {kind: max(1, round(share * n)) for kind, share in BUILD_SHARES.items()}


def _ratio(src: str, pe: str) -> float:
    return len(src.strip()) / len(pe.strip())


def build_corpus(seed: int, n: int):
    """Return (rows, manifest): n subtitle-like EN->DE triplets with planted
    faults, and the ids of every planted row by kind."""
    rng = random.Random(f"build-{seed}")
    quotas = _quotas(n)
    n_pairs = quotas["dedup"]
    n_base = n - sum(quotas[k] for k in PLANTED)
    base = []
    for _ in range(n_base):
        src, pe = _sentence(rng, rng.randint(4, 11))
        base.append({"src": src, "mt": None, "pe": pe, "kind": "plain"})
    exact = set(rng.sample(range(n_base), round(MT_EXACT_SHARE * n_base)))
    for i, row in enumerate(base):
        row["mt"] = _machine_translate(rng, row["pe"], i in exact)

    # Features on kept rows. Duplicate keepers are drawn from untouched
    # rows whose own ratio sits near the corpus mean, so both the keeper
    # and its planted twin pass the ratio band.
    r0 = sum(len(r["src"]) for r in base) / sum(len(r["pe"]) for r in base)
    order = list(range(n_base))
    rng.shuffle(order)
    near_mean = [
        i for i in order
        if 0.9 * r0 <= _ratio(base[i]["src"], base[i]["pe"][:-1] + " ja.") <= 1.1 * r0
        and 0.9 * r0 <= _ratio(base[i]["src"], base[i]["pe"][:-1]) <= 1.1 * r0
    ]
    keepers = near_mean[:n_pairs]
    kept_apart = set(keepers)
    rest = [i for i in order if i not in kept_apart]
    cursor = 0
    for kind in ("typographic", "br_matched", "br_mismatched", "italic", "music", "hyphen"):
        for i in rest[cursor : cursor + quotas[kind]]:
            _apply_feature(rng, base[i], kind)
            base[i]["kind"] = kind
        cursor += quotas[kind]

    planted = []
    for k, i in enumerate(keepers):
        keeper = base[i]
        twin = {"src": keeper["src"], "mt": keeper["mt"], "pe": keeper["pe"][:-1].rstrip(), "kind": "dedup"}
        keeper["pe"] = keeper["pe"][:-1] + " ja" + keeper["pe"][-1]
        if k % 2:  # collides with its keeper only after punctuation normalization
            twin["src"] = twin["src"].replace(" ", NBSP, 1)
            twin["mt"] = twin["mt"].replace(" ", NBSP, 1)
        planted.append(twin)
    for _ in range(quotas["ratio"]):
        src, pe = _sentence(rng, rng.randint(4, 8))
        if rng.random() < 0.5:
            src = " ".join([src] * 3)
        else:
            pe = " ".join([pe] * 3)
        planted.append({"src": src, "mt": _machine_translate(rng, pe, False), "pe": pe, "kind": "ratio"})
    for _ in range(quotas["degenerate"]):
        src, pe = _sentence(rng, rng.randint(4, 8))
        planted.append({"src": src, "mt": _machine_translate(rng, pe, False), "pe": "", "kind": "degenerate"})
    for j in range(quotas["langid"]):
        src, pe = _sentence(rng, rng.randint(7, 11))
        if j % 2:
            src = pe  # German source
        else:
            pe = src  # English post-edit
        planted.append({"src": src, "mt": _machine_translate(rng, pe, False), "pe": pe, "kind": "langid"})

    rows = base + planted
    rng.shuffle(rows)
    manifest = {"n": len(rows), "planted": {kind: [] for kind in PLANTED}, "features": {}}
    for pos, row in enumerate(rows):
        row["id"] = f"t{pos:06d}"
        kind = row.pop("kind")
        if kind in PLANTED:
            manifest["planted"][kind].append(row["id"])
        elif kind != "plain":
            manifest["features"].setdefault(kind, []).append(row["id"])
    return rows, manifest


def _apply_feature(rng: random.Random, row: dict, kind: str) -> None:
    fields = ("src", "mt", "pe")
    if kind == "typographic":
        quotes = {"src": ("“", "”"), "mt": ("„", "“"), "pe": ("„", "“")}
        for f in fields:
            words = row[f].split(" ")
            open_q, close_q = quotes[f]
            words[0] = open_q + words[0] + close_q
            row[f] = NBSP.join(words[:2]) + (" " + " ".join(words[2:]) if len(words) > 2 else "")
    elif kind == "br_matched":
        src2, pe2 = _sentence(rng, rng.randint(3, 6))
        mt2 = _machine_translate(rng, pe2, rng.random() < MT_EXACT_SHARE)
        for f, second in (("src", src2), ("mt", mt2), ("pe", pe2)):
            row[f] = f"- {row[f]}<br>- {second}"
    elif kind == "br_mismatched":
        src2, pe2 = _sentence(rng, rng.randint(3, 6))
        row["src"] = f"{row['src']}<br>{src2}"
        row["mt"] = f"{row['mt']}<br>{pe2}"
        row["pe"] = f"{row['pe']} {pe2}"
    elif kind == "italic":
        for f in fields:
            row[f] = f"<i>{row[f]}</i>"
    elif kind == "music":
        for f in fields:
            row[f] = f"♪ {row[f]} ♪"
    elif kind == "hyphen":
        for f in fields:
            row[f] = f"- {row[f]}"


def write_build_inputs(out_dir: Path, seed: int, n: int, dev_size: int, test_size: int) -> dict:
    """Write corpus.jsonl, filter.json and planted.json; return the manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, manifest = build_corpus(seed, n)
    with open(out_dir / "corpus.jsonl", "w", encoding="utf-8", newline="\n") as handle:
        for row in rows:
            record = {"id": row["id"], "src": row["src"], "mt": row["mt"], "pe": row["pe"]}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    config = {"dev_size": dev_size, "test_size": test_size, "seed": seed}
    (out_dir / "filter.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    (out_dir / "planted.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest


def write_decoded(cleaned_path: Path, out_path: Path, seed: int) -> list:
    """Write a decoded mt file for a preprocess run: one line per cleaned part.

    A fixed share of triplets keeps every part equal to the cleaned mt;
    the other triplets have every part edited. Returns the parent ids of
    the unedited triplets, in file order.
    """
    parts = []
    with open(cleaned_path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            parts.append((record["parent_id"], record["mt"]))
    parents = list(dict.fromkeys(pid for pid, _ in parts))
    rng = random.Random(f"decoded-{seed}")
    unedited = set(rng.sample(parents, round(DECODED_UNEDITED_SHARE * len(parents))))
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        for pid, mt in parts:
            handle.write((mt if pid in unedited else f"{mt} bitte".lstrip()) + "\n")
    return [pid for pid in parents if pid in unedited]


# ------------------------------------------------------------- eval pairs

PAIR_PUNCT = (",", ".", "?", "!")
# German-looking compounds widen the pair vocabulary, so chance repeats of
# a word inside one sentence (which open extra shift moves) stay rare.
NOUNS = [w for w in DE_WORDS if w[0].isupper()]
PAIR_WORDS = DE_WORDS + [a + b.lower() for a in NOUNS for b in NOUNS if a != b]


def _render(tokens) -> str:
    out = ""
    for tok in tokens:
        if tok in PAIR_PUNCT:
            out += tok
        else:
            out += (" " if out else "") + tok
    return out


def _ref_tokens(rng: random.Random, length: int):
    tokens = []
    while len(tokens) < length - 1:
        tokens.append(rng.choice(PAIR_WORDS))
        if len(tokens) < length - 1 and rng.random() < 0.12:
            tokens.append(",")
    tokens.append(rng.choice(PAIR_PUNCT[1:]))
    return tokens[:length]


def _edit(rng: random.Random, tokens, n_subs: int, length_change: int, block_move: bool):
    """Substitute n_subs distinct positions, then insert (+1) or delete (-1)
    one word, then move one 2-3 token block at least 3 positions away."""
    out = list(tokens)
    for pos in rng.sample(range(len(out)), min(n_subs, len(out))):
        out[pos] = rng.choice([w for w in PAIR_WORDS if w != out[pos]])
    if length_change > 0:
        out.insert(rng.randrange(len(out)), rng.choice(PAIR_WORDS))
    elif length_change < 0 and len(out) > 2:
        del out[rng.randrange(len(out))]
    if block_move and len(out) >= 8:
        size = rng.randint(2, 3)
        start = rng.randrange(len(out) - size + 1)
        block = out[start : start + size]
        del out[start : start + size]
        dest = rng.choice([d for d in range(len(out) + 1) if abs(d - start) >= 3])
        out[dest:dest] = block
    return out


def _spread(candidates, count: float, offset: float) -> list:
    """round(count) members of candidates, evenly spaced through the list."""
    candidates = list(candidates)
    k = round(count)
    return [candidates[int((j + offset) * len(candidates) / k)] for j in range(k)] if k else []


def eval_pairs(seed: int, n: int, min_len: int, max_len: int, edit_rate: float,
               block_move_share: float, length_change_share: float,
               ape_identical_share: float, mt_exact_share: float):
    """Return (mt, ape, ref) line lists and a manifest.

    Reference lengths (tokens after punctuation split) are spread evenly
    over [min_len, max_len]. A fixed share of pairs has mt equal to the
    reference. Every other mt has round(edit_rate * len) substituted
    words; fixed shares of pairs also gain or lose one word, and get one
    2-3 token block move. The ape line equals the mt on a fixed share of
    pairs; elsewhere it has half as many substituted words as the mt and
    no length change or move.
    """
    rng = random.Random(f"pairs-{seed}")
    # Pair kinds are tied to length ranks, not drawn by seed: TER cost
    # grows steeply with length, so which lengths carry a block move or
    # an exact mt must not change between seeds.
    lengths = [min_len + (i * (max_len - min_len + 1)) // n for i in range(n)]
    exact = set(_spread(range(n), mt_exact_share * n, 0.5))
    others = [i for i in range(n) if i not in exact]
    moved = set(_spread(others, block_move_share * n, 0.25))
    resized = _spread(others, length_change_share * n, 0.75)
    length_change = {i: (1 if k % 2 else -1) for k, i in enumerate(resized)}
    identical = set(_spread(others, ape_identical_share * n, 0.0))
    mt_lines, ape_lines, ref_lines = [], [], []
    for i, length in enumerate(lengths):
        ref = _ref_tokens(rng, length)
        if i in exact:
            mt = ape = ref
        else:
            n_subs = max(1, round(edit_rate * length))
            edit_seed = rng.randrange(1 << 30)
            mt = _edit(random.Random(edit_seed), ref, n_subs, length_change.get(i, 0), i in moved)
            if i in identical:
                ape = mt
            else:
                ape = _edit(random.Random(edit_seed), ref, n_subs // 2, 0, False)
        ref_lines.append(_render(ref))
        mt_lines.append(_render(mt))
        ape_lines.append(_render(ape))
    order = list(range(n))
    rng.shuffle(order)
    mt_lines, ape_lines, ref_lines = ([lines[i] for i in order] for lines in (mt_lines, ape_lines, ref_lines))
    manifest = {"n": n, "lengths": [min_len, max_len], "edit_rate": edit_rate,
                "block_move_share": block_move_share, "length_change_share": length_change_share,
                "ape_identical_share": ape_identical_share, "mt_exact_share": mt_exact_share}
    return mt_lines, ape_lines, ref_lines, manifest


def write_eval_inputs(out_dir: Path, seed: int, **spec) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    mt, ape, ref, manifest = eval_pairs(seed, **spec)
    for name, lines in (("mt.txt", mt), ("ape.txt", ape), ("ref.txt", ref)):
        with open(out_dir / name, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("".join(line + "\n" for line in lines))
    return manifest
