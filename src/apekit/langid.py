"""Language identification backends for corpus filtering.

The filter stage only needs ``classify(text) -> language code``. Two
implementations ship here: a hermetic character n-gram classifier seeded
with small English/German profiles, and an adapter that replays decisions
from an external tool's "text TAB lang" output.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from operator import mul
from typing import Dict, Iterable, Mapping, Protocol

from .corpus import read_lines
from .tokenizer import ngrams_by_order


class LanguageClassifier(Protocol):
    def classify(self, text: str) -> str:
        """Return a language code for non-empty text."""
        ...


# Seed text for the built-in profiles. Plain everyday prose, written for
# this package; enough mass to separate unambiguous EN/DE sentences.
_ENGLISH_SEED = """
The weather was cold this morning and the streets were still quiet.
She asked whether the train would arrive on time, but nobody knew.
We should have bought more bread yesterday because the shop is closed today.
I think they will come to the house after work and stay for dinner.
There is nothing better than a warm cup of tea when it rains outside.
He could not remember where he had left the keys to the old car.
The children were playing in the garden while their mother read a book.
Please tell me what you want to do about the broken window downstairs.
Everyone agreed that the meeting should start earlier next week.
It was already dark when they finally reached the small village by the lake.
My brother works in another city and only visits us during the holidays.
Would you like some more coffee before we leave for the station?
The answer to your question depends on how much time we have left.
"""

_GERMAN_SEED = """
Das Wetter war heute Morgen kalt und die Straßen waren noch ruhig.
Sie fragte, ob der Zug pünktlich ankommen würde, aber niemand wusste es.
Wir hätten gestern mehr Brot kaufen sollen, weil das Geschäft heute geschlossen ist.
Ich glaube, dass sie nach der Arbeit zum Haus kommen und zum Abendessen bleiben.
Es gibt nichts Besseres als eine warme Tasse Tee, wenn es draußen regnet.
Er konnte sich nicht erinnern, wo er die Schlüssel für das alte Auto gelassen hatte.
Die Kinder spielten im Garten, während ihre Mutter ein Buch las.
Bitte sag mir, was du mit dem kaputten Fenster unten machen willst.
Alle waren sich einig, dass die Besprechung nächste Woche früher beginnen sollte.
Es war schon dunkel, als sie endlich das kleine Dorf am See erreichten.
Mein Bruder arbeitet in einer anderen Stadt und besucht uns nur in den Ferien.
Möchtest du noch etwas Kaffee, bevor wir zum Bahnhof aufbrechen?
Die Antwort auf deine Frage hängt davon ab, wie viel Zeit uns noch bleibt.
"""

_NGRAM_ORDER = 3


def _char_ngrams(text: str) -> Counter:
    """Counts of the character 1- to ``_NGRAM_ORDER``-grams of the padded text.

    Grams are counted by order, then by position, so the counter's
    insertion order (which fixes the order scores are summed in) is that
    of a plain loop over orders and positions.
    """
    # Pad with spaces so word boundaries contribute n-grams too.
    padded = f" {' '.join(text.lower().split())} "
    return Counter(chain.from_iterable(ngrams_by_order(padded, _NGRAM_ORDER)))


class NgramLanguageClassifier:
    """Character n-gram frequency classifier over a fixed set of languages.

    Scores a text by the summed log-probability of its character n-grams
    under each language profile (add-one smoothed) and returns the argmax.
    ``languages`` holds the profile codes in sorted order, which is also
    the order that breaks ties.
    """

    def __init__(self, profiles: Mapping[str, Counter]):
        if not profiles:
            raise ValueError("at least one language profile is required")
        self.languages = tuple(sorted(profiles))
        self._log_probs: Dict[str, Dict[str, float]] = {}
        self._fallback: Dict[str, float] = {}
        for lang, counts in profiles.items():
            total = sum(counts.values())
            vocab = len(counts) + 1
            self._log_probs[lang] = {
                gram: math.log((n + 1) / (total + vocab)) for gram, n in counts.items()
            }
            self._fallback[lang] = math.log(1 / (total + vocab))

    @classmethod
    def default(cls) -> "NgramLanguageClassifier":
        """The classifier over the built-in English and German profiles."""
        return cls({"en": _char_ngrams(_ENGLISH_SEED), "de": _char_ngrams(_GERMAN_SEED)})

    def scores(self, text: str) -> Dict[str, float]:
        """Summed log-probability of the text's n-grams per language.

        Each score adds count times log-probability over the n-grams in
        the counter's insertion order.
        """
        if not text.strip():
            raise ValueError("cannot classify empty text")
        grams = _char_ngrams(text)
        scores = {}
        for lang in self.languages:
            log_probs = map(self._log_probs[lang].get, grams, repeat(self._fallback[lang]))
            scores[lang] = sum(map(mul, grams.values(), log_probs))
        return scores

    def classify(self, text: str) -> str:
        scores = self.scores(text)
        # the first language in sorted order wins a tie
        return max(self.languages, key=scores.__getitem__)


class TabFileClassifier:
    """Replays language decisions produced by an external tool.

    The source is a file (or iterable of lines) of "text TAB lang" pairs.
    Texts not present in the table raise KeyError, which the filter stage
    turns into a removal with a reason code.
    """

    def __init__(self, table: Mapping[str, str]):
        self._table = dict(table)

    @classmethod
    def from_lines(cls, lines: Iterable[str], prefix: str = "") -> "TabFileClassifier":
        """Build the table; a malformed line raises ValueError naming it after `prefix`."""
        table = {}
        for i, raw in enumerate(lines, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{prefix}line {i}: expected 'text<TAB>lang', found {len(parts)} columns")
            table[parts[0]] = parts[1]
        return cls(table)

    @classmethod
    def from_file(cls, path) -> "TabFileClassifier":
        return cls.from_lines(read_lines(path), f"{path}: ")

    def classify(self, text: str) -> str:
        return self._table[text]
