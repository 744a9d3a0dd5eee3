"""Generate langid_golden.jsonl: seeded texts with their n-gram counts,
per-language scores and labels under the built-in classifier.

The file pins the exact output of ``_char_ngrams`` (the 1- to
``_NGRAM_ORDER``-grams: grams, counts and insertion order) and of
``NgramLanguageClassifier`` (every score as ``float.hex`` and the label),
so changes to the classifier internals can be checked for bit-identical
results. Scores come from ``reference_scores``
below, a copy of the original scoring loop. Regenerate only when a
change of langid results is intended:

    PYTHONPATH=src python tests/data/make_langid_golden.py

Scores are summed left to right in plain double precision, as
``reference_scores`` does with an explicit loop: the builtin ``sum`` of
floats compensates rounding from Python 3.12 on, which would move the
last bits.

Texts come in seven kinds: English and German subtitle-like lines,
mixed-language lines, punctuation-only and digit-only lines, non-Latin
script, whitespace-heavy lines (tabs, no-break and other Unicode spaces)
and case-folding edge cases.
"""

from __future__ import annotations

import random
from pathlib import Path

from apekit.langid import NgramLanguageClassifier, _char_ngrams

import golden

SEED = 1994
OUT = Path(__file__).with_name("langid_golden.jsonl")
EN = ("where are you going tonight I told him we should leave now nobody knew "
      "the train was late again what do you want from me it is cold outside").split()
DE = ("wohin gehst du heute Abend ich habe ihm gesagt wir sollten jetzt gehen "
      "niemand wusste dass der Zug wieder zu spät war was willst du draußen Straße").split()
NON_LATIN = ("Привет как дела", "Καλημέρα σας", "こんにちは世界", "مرحبا بالعالم",
             "שלום עולם", "你好，世界", "안녕하세요", "नमस्ते दुनिया")
SPACES = ("\t", "\u00a0", "\u2003", "\u3000", "\u202f", "\u2009", "\u2028", "\u0085", "\x0b",
          "\x0c", "\x1f", "  ")
CASE_EDGES = ("İstanbul", "STRASSE", "Straße", "ẞ", "ΣΊΣΥΦΟΣ", "ǅemal", "ﬁnden", "Ǆ")


def _line(rng, words, k):
    line = " ".join(rng.choices(words, k=k))
    return line[0].upper() + line[1:] + rng.choice((".", "?", "!", "...", ""))


def texts():
    """Yield (kind, text) pairs, deterministically; every text is non-blank."""
    rng = random.Random(SEED)
    for _ in range(60):
        words = EN if rng.random() < 0.5 else DE
        line = _line(rng, words, rng.randint(1, 12))
        decor = rng.choice(("", "- ", "♪ ", "<i>", "„", "»"))
        yield "subtitle", decor + line
    for _ in range(40):
        words = rng.choices(EN, k=rng.randint(1, 6)) + rng.choices(DE, k=rng.randint(1, 6))
        rng.shuffle(words)
        yield "mixed", " ".join(words)
    for _ in range(25):
        yield "punct", "".join(rng.choices("!?.,;:-—…'\"()[]«»„“♪", k=rng.randint(1, 12)))
    for _ in range(25):
        digits = "".join(rng.choices("0123456789 .,:/", k=rng.randint(1, 14)))
        yield "digits", digits if digits.strip() else "0"
    for _ in range(25):
        parts = rng.sample(NON_LATIN, rng.randint(1, 3))
        if rng.random() < 0.4:
            parts.append(rng.choice(EN + DE))
        yield "non_latin", " ".join(parts)
    for _ in range(40):
        words = rng.choices(EN + DE, k=rng.randint(1, 6))
        glue = [rng.choice(SPACES) * rng.randint(1, 3) for _ in words]
        yield "whitespace", "".join(g + w for g, w in zip(glue, words)) + rng.choice(SPACES)
    for word in CASE_EDGES:
        yield "case", f"{word} {rng.choice(EN + DE)}"


def reference_scores(classifier, text) -> dict:
    """Summed log-probability per language, in the original loop's order."""
    grams = _char_ngrams(text)
    scores = {}
    for lang in sorted(classifier._log_probs):
        score = 0.0
        for gram, n in grams.items():
            score += n * classifier._log_probs[lang].get(gram, classifier._fallback[lang])
        scores[lang] = score
    return scores


def record(classifier, kind, text) -> dict:
    return {
        "kind": kind,
        "text": text,
        "ngrams": [[gram, n] for gram, n in _char_ngrams(text).items()],
        "scores": {lang: score.hex() for lang, score in reference_scores(classifier, text).items()},
        "label": classifier.classify(text),
    }


if __name__ == "__main__":
    classifier = NgramLanguageClassifier.default()
    # ASCII escapes keep the odd whitespace characters intact in any editor.
    golden.write_jsonl(OUT, (record(classifier, kind, text) for kind, text in texts()), ensure_ascii=True)
