"""Language identification backends for corpus filtering.

The filter stage only needs ``classify(text) -> language code``. Two
implementations ship here: a hermetic character n-gram classifier seeded
with small English/German profiles, and an adapter that replays decisions
from an external tool's "text TAB lang" output.

The n-gram classifier's label is the argmax of its exact ``scores()``,
ties going to the first language in sorted order. ``classify`` reaches it
from one sum per other language of precomputed per-gram score
differences against the first language. A text's n-grams are those of
its padded words plus one trigram across each gap, so the sum is taken
by word: each distinct word's sums are computed on its first sighting
and cached per classifier, up to ``WORD_CACHE_ENTRIES`` words. When the
winner's lead is above a bound on the rounding error of that sum and of
the exact scores (``8 (N+2k+2)^2 u L`` for N n-gram occurrences and k
words, u = 2**-53 and L the largest log-probability magnitude), the
label is the exact rule's; otherwise ``classify`` computes the exact
scores and applies the rule.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import reduce
from itertools import chain, repeat
from operator import add, mul
from typing import Dict, Mapping, Protocol, Sequence

from .corpus import read_lines


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
# u, the unit roundoff of IEEE double precision.
_EPS = 2.0**-53
# Most words a classifier keeps table sums for; full, the store of a
# two-language classifier takes about 2.7 MB. A store that a text's new
# words would take past it is emptied first.
WORD_CACHE_ENTRIES = 1 << 14


def ngrams_by_order(units: Sequence, max_n: int) -> list:
    """The 1- to ``max_n``-grams of ``units``, one sequence per order.

    Units are the characters of a string (n-grams are substrings) or
    1-tuples of tokens (n-grams are token tuples). Order 1 is ``units``
    itself; each higher order lists its n-grams by position. Empty for
    ``max_n < 1``.
    """
    if max_n < 1:
        return []
    by_order = [units]
    for n in range(2, max_n + 1):
        # each n-gram is the (n-1)-gram at the same position plus the next unit
        by_order.append(list(map(add, by_order[-1], units[n - 1 :])))
    return by_order


def _words(text: str) -> list:
    """The lowercased text's whitespace-separated words."""
    return text.lower().split()


def _padded(words: Sequence[str]) -> str:
    """The words joined by single spaces, padded with spaces so word
    boundaries contribute n-grams too."""
    return f" {' '.join(words)} "


def _char_ngrams(text: str) -> Counter:
    """Counts of the character 1- to ``_NGRAM_ORDER``-grams of the padded text.

    Grams are counted by order, then by position, so the counter's
    insertion order (which fixes the order scores are summed in) is that
    of a plain loop over orders and positions.
    """
    return Counter(chain.from_iterable(ngrams_by_order(_padded(_words(text)), _NGRAM_ORDER)))


class NgramLanguageClassifier:
    """Character n-gram frequency classifier over a fixed set of languages.

    Scores a text by the summed log-probability of its character n-grams
    under each language profile (add-one smoothed) and returns the argmax.
    ``languages`` holds the profile codes in sorted order, which is also
    the order that breaks ties.

    ``classify`` returns that argmax without computing the scores in
    full. At construction each language after the first gets a table of
    its log-probability minus the first language's, per gram of either
    profile, and the difference of the two fallbacks for grams of
    neither; ``classify`` sums each table over the text's n-gram
    occurrences, by word (see the module docstring). When
    the best of these leads is too close to call, by a bound on the
    rounding error (see ``classify``), it computes ``scores()`` and
    applies the exact rule, which also settles ties.
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
        # (table, fallback difference) per language after the first: a
        # gram missing from a table is in neither profile.
        first = self.languages[0]
        first_log_probs, first_fallback = self._log_probs[first], self._fallback[first]
        self._differences = []
        for lang in self.languages[1:]:
            log_probs, fallback = self._log_probs[lang], self._fallback[lang]
            table = {gram: fallback - lp for gram, lp in first_log_probs.items()}
            table.update((gram, lp - first_log_probs.get(gram, first_fallback)) for gram, lp in log_probs.items())
            self._differences.append((table, fallback - first_fallback))
        # B per (N+2k+2)^2: the lead that decides without the exact scores.
        self._bound_scale = 8 * _EPS * max(map(abs, self._fallback.values()))
        # word -> its padded n-grams' sum per table, filled by classify.
        self._word_sums: Dict[str, tuple] = {}

    @classmethod
    def default(cls) -> "NgramLanguageClassifier":
        """The classifier over the built-in English and German profiles."""
        return cls({"en": _char_ngrams(_ENGLISH_SEED), "de": _char_ngrams(_GERMAN_SEED)})

    def scores(self, text: str) -> Dict[str, float]:
        """Summed log-probability of the text's n-grams per language.

        Each score adds count times log-probability over the n-grams in
        the counter's insertion order, left to right: the built-in sum of
        floats compensates from Python 3.12 on and would change the result.
        """
        if not text.strip():
            raise ValueError("cannot classify empty text")
        grams = _char_ngrams(text)
        scores = {}
        for lang in self.languages:
            log_probs = map(self._log_probs[lang].get, grams, repeat(self._fallback[lang]))
            scores[lang] = reduce(add, map(mul, grams.values(), log_probs), 0.0)
        return scores

    def classify(self, text: str) -> str:
        """The language of the highest score, the first in sorted order on a tie.

        Let u = 2**-53, k the number of words, N = 3 len(padded) - 3 the
        number of n-gram occurrences, M = N + 2k and L the largest
        fallback magnitude. Counts are non-negative, so every
        log-probability lies in [-L, 0] and the real score R of a
        language, summed with the stored log-probabilities, is a sum of
        count times log-probability over at most N grams whose magnitudes
        add up to at most N L. Within M u <= 1/2:

        - an exact score from ``scores()`` is within 2 N^2 u L of R (a
          dot product of at most N terms), with plain or compensated
          summation alike;
        - a table entry is one rounded subtraction of two such
          log-probabilities, so it is within u L of the real difference
          and at most L in magnitude;
        - a lead is R minus the first language's R, summed by word: the
          cached sums over each padded word's 3 len(word) + 3 entries,
          plus the k - 1 entries of the trigrams across the gaps, less
          k - 1 times the space's entry (which each padded word counts
          once too often), in one rounded product. So the lead adds up at
          most M entries (the product standing for k - 1 of them), each at
          most L in magnitude and within u L of its real value, and no
          entry passes through more than M roundings. It is therefore
          within 2 (M+1)^2 u L of its real value, with plain or
          compensated summation alike.

        ``classify`` returns the language b of the largest lead when the
        rounded difference between it and every other language's lead
        exceeds B = 8 (M+2)^2 u L. Rounding is monotone, so the unrounded
        difference exceeds B too; b's real score then leads every other by
        more than B - 4 (M+1)^2 u L, and its exact score by more than
        B - 4 (M+1)^2 u L - 4 N^2 u L, which is positive with room for B's
        own rounding. So ``scores()`` ranks b first, with no tie.
        Otherwise ``classify`` computes ``scores()`` and applies the exact
        rule.
        """
        if not text.strip():
            raise ValueError("cannot classify empty text")
        if not self._differences:
            return self.languages[0]
        words = _words(text)
        k = len(words)
        try:
            rows = [self._word_sums[word] for word in words]
        except KeyError:
            rows = self._word_rows(words)
        length = sum(map(len, words)) + k + 1  # of the padded text
        gaps = [left[-1] + " " + right[0] for left, right in zip(words, words[1:])]
        leads = [0.0]  # each language's score minus the first language's
        for (table, fallback), word_sums in zip(self._differences, zip(*rows)):
            leads.append(sum(chain(word_sums, map(table.get, gaps, repeat(fallback))))
                         - (k - 1) * table.get(" ", fallback))
        *_, (second, _), (best, lang) = sorted(zip(leads, self.languages))
        if best - second > self._bound_scale * (3 * length + 2 * k - 1) ** 2:  # (M+2)^2
            return lang
        scores = self.scores(text)
        return max(self.languages, key=scores.__getitem__)

    def _word_rows(self, words: list) -> list:
        """Each word's sums per table, computing and caching those of the
        words not cached yet.

        A store that the new words would take past ``WORD_CACHE_ENTRIES``
        is emptied first; a text of more new words than that is summed
        from its own rows and caches none.
        """
        word_sums = self._word_sums
        new = {}
        for word in set(words).difference(word_sums):
            grams = list(chain.from_iterable(ngrams_by_order(_padded((word,)), _NGRAM_ORDER)))
            new[word] = tuple(sum(map(table.get, grams, repeat(fallback))) for table, fallback in self._differences)
        rows = [new.get(word) or word_sums[word] for word in words]
        if len(new) <= WORD_CACHE_ENTRIES:
            if len(word_sums) + len(new) > WORD_CACHE_ENTRIES:
                word_sums.clear()
            word_sums.update(new)
        return rows


class TabFileClassifier:
    """Replays language decisions produced by an external tool.

    The source is a file of "text TAB lang" pairs.
    Texts not present in the table raise KeyError, which the filter stage
    turns into a removal with a reason code.
    """

    def __init__(self, table: Mapping[str, str]):
        self._table = dict(table)

    @classmethod
    def from_file(cls, path) -> "TabFileClassifier":
        """Build the table; a malformed line raises ValueError naming ``path`` and the line."""
        table = {}
        for i, line in enumerate(read_lines(path), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {i}: expected 'text<TAB>lang', found {len(parts)} columns")
            table[parts[0]] = parts[1]
        return cls(table)

    def classify(self, text: str) -> str:
        return self._table[text]
