"""Translation edit rate with block shifts.

The sentence scorer runs the classic greedy loop: repeatedly apply the
single block shift that most reduces the word-level edit distance to the
reference (unit cost per shift), then charge the remaining edit distance.
Distances come from a bit-parallel kernel with the reference as the
pattern, which scores a batch of shift candidates in one pass of array
operations. A swap of two adjacent runs of at most MAX_SHIFT_SPAN tokens
each is scored once, not once per run that could move. The shift search
stops once it reaches the multiset floor, a lower bound on the distance
that no shift can change.

numpy is imported inside the shift-search functions, not at module
level, so commands that never run a shift search (every corpus-build
and human-evaluation command) never pay for loading it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .tokenizer import TER_NORMALIZED_TOKENIZER, TokenizerConfig, overlap_stats, tokenize

MAX_SHIFT_SPAN = 10
MAX_SHIFT_DISTANCE = 50
SCAN_CELLS = 1 << 18  # candidate tokens scored in one batch, which bounds its memory

if TYPE_CHECKING:
    import numpy as np


class EmptyReferenceError(ValueError):
    """TER divides by the reference length; `ref` is the offending line."""

    def __init__(self, ref: str):
        super().__init__("TER needs a non-empty reference after tokenization")
        self.ref = ref


def score_from_ter_stats(stats: Sequence[int]) -> float:
    """TER of a statistics row, or of a sum of rows: total edits over the
    reference length. This is the one place the score is defined."""
    insertions, deletions, substitutions, shifts, ref_len = stats
    return (insertions + deletions + substitutions + shifts) / ref_len


@dataclass(frozen=True)
class TerScore:
    """Edit counts over a sentence or corpus; the score is derived from them.

    The fields, in order, are the per-sentence statistics row: corpus TER
    over any multiset of sentences is the TerScore of the componentwise
    sum of their rows. Counting convention: a deletion is a reference
    token the hypothesis dropped, an insertion is a spurious hypothesis
    token. An empty hypothesis therefore scores ref_len deletions.
    """

    insertions: int
    deletions: int
    substitutions: int
    shifts: int
    ref_len: int

    @property
    def score(self) -> float:
        return score_from_ter_stats(self.stats)

    @property
    def stats(self) -> Tuple[int, int, int, int, int]:
        return (self.insertions, self.deletions, self.substitutions, self.shifts, self.ref_len)

    def to_dict(self) -> dict:
        return {"score": self.score, **vars(self)}


@dataclass(frozen=True)
class ShiftOp:
    """Move hyp tokens [start..end] so the block lands at `destination`
    in the sequence that remains after removing the block."""

    start: int
    end: int
    destination: int


@dataclass(frozen=True)
class EditOp:
    kind: str  # match | sub | ins | del
    hyp_token: str = ""
    ref_token: str = ""


@dataclass(frozen=True)
class EditScript:
    """Shifts followed by aligned edit operations that turn hyp into ref."""

    shifts: Tuple[ShiftOp, ...]
    ops: Tuple[EditOp, ...]


def _match_masks(pattern: Sequence[str]) -> Dict[str, int]:
    """Bit i of masks[token] is set iff pattern[i] == token."""
    masks: Dict[str, int] = {}
    bit = 1
    for token in pattern:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    return masks


def _bit_distance(text: Sequence[str], masks: Dict[str, int], m: int) -> int:
    """Levenshtein distance between text and a non-empty pattern of length m.

    Bit-parallel over tokens (Myers 1999, in Hyyro's 2001 global-distance
    form): one column of the DP matrix is held as vertical +1/-1 delta
    bit vectors, so each text token costs a handful of big-int operations
    instead of m cell updates.
    """
    full = (1 << m) - 1
    top = 1 << (m - 1)
    get = masks.get
    vp, vn, score = full, 0, m
    for token in text:
        eq = get(token, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ~(xh | vp)  # negative in Python; vp's mask below trims it
        mh = vp & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = (ph << 1) | 1
        vp = ((mh << 1) | ~(xv | ph)) & full
        vn = ph & xv
    return score


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Word-level Levenshtein distance with unit costs."""
    if not b:
        return len(a)
    return _bit_distance(a, _match_masks(b), len(b))


def _multiset_floor(hyp: Sequence[str], ref: Sequence[str]) -> int:
    """A lower bound on edit_distance(hyp, ref) that no shift can change.

    Every reference token the hypothesis multiset lacks needs a
    substitution or deletion, every surplus hypothesis token a
    substitution or insertion, and one substitution serves one of each.
    """
    # missing = len(ref) - overlap and extra = len(hyp) - overlap
    return max(len(hyp), len(ref)) - overlap_stats(hyp, ref, 1)[2]


def _align(hyp: Sequence[str], ref: Sequence[str]) -> List[EditOp]:
    """Full DP alignment with a deterministic backtrace.

    Tie order during backtrace: match, then substitution, then deletion
    (missing ref token), then insertion (spurious hyp token).
    """
    lh, lr = len(hyp), len(ref)
    width = lr + 1
    d = list(range(width))
    rows = [d[:]]
    for i in range(1, lh + 1):
        prev_row = rows[i - 1]
        row = [i] + [0] * lr
        hi = hyp[i - 1]
        for j in range(1, width):
            sub = prev_row[j - 1] + (hi != ref[j - 1])
            best = sub
            if row[j - 1] + 1 < best:
                best = row[j - 1] + 1
            if prev_row[j] + 1 < best:
                best = prev_row[j] + 1
            row[j] = best
        rows.append(row)

    ops: List[EditOp] = []
    i, j = lh, lr
    while i > 0 or j > 0:
        here = rows[i][j]
        if i > 0 and j > 0 and hyp[i - 1] == ref[j - 1] and rows[i - 1][j - 1] == here:
            ops.append(EditOp("match", hyp[i - 1], ref[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and rows[i - 1][j - 1] + 1 == here:
            ops.append(EditOp("sub", hyp[i - 1], ref[j - 1]))
            i, j = i - 1, j - 1
        elif j > 0 and rows[i][j - 1] + 1 == here:
            ops.append(EditOp("del", ref_token=ref[j - 1]))
            j -= 1
        else:
            ops.append(EditOp("ins", hyp_token=hyp[i - 1]))
            i -= 1
    ops.reverse()
    return ops


def _apply_shift(tokens: Sequence[str], start: int, end: int, destination: int) -> List[str]:
    block = list(tokens[start : end + 1])
    rest = list(tokens[:start]) + list(tokens[end + 1 :])
    return rest[:destination] + block + rest[destination:]


def _shift_grid(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, end and destination of every shift within the span and
    distance caps, as arrays in scan order: by start, then end, then
    destination.

    A shift swaps two adjacent runs, the block and the tokens it jumps
    over, so the same sequence is reachable as a forward move of either
    run or a backward move of the other. A backward move over at most
    MAX_SHIFT_SPAN tokens is left out: moving the jumped-over tokens
    forward past the block gives the same sequence, is always within both
    caps, and starts earlier, so it comes first in scan order and the
    first-best shift is the one a scan of every move finds. This halves
    the candidates of short sentences and cuts those of long ones by
    about a tenth.
    """
    import numpy as np

    start = np.arange(n)[:, None, None]
    length = np.arange(1, MAX_SHIFT_SPAN + 1)[None, :, None]
    destination = np.arange(n)[None, None, :]
    valid = (
        (start + length <= n)
        & (destination <= n - length)
        # forward, or backward over more tokens than a block may hold
        & ((destination > start) | (start - destination > MAX_SHIFT_SPAN))
        & (np.abs(destination - start) <= MAX_SHIFT_DISTANCE)
    )
    start, extra, destination = np.nonzero(valid)  # row-major, so scan order
    return start, start + extra, destination  # the block has extra + 1 tokens


def _shifted_positions(n: int, start: np.ndarray, end: np.ndarray, destination: np.ndarray) -> np.ndarray:
    """Row r holds, for each position of the r-th shifted sequence, the
    position of its token before the shift (as _apply_shift moves them).

    A shift offsets two adjacent runs of positions, the moved block and
    the tokens it jumps over, so each row is a running sum of the offset
    changes at the three run boundaries.
    """
    import numpy as np

    length = end - start + 1
    backward = destination < start
    # Backward, the block comes first, then the tokens it jumped over;
    # forward, the jumped tokens come first, then the block.
    first = np.minimum(start, destination)
    second = np.where(backward, destination + length, destination)
    stop = np.where(backward, end + 1, destination + length)
    first_offset = np.where(backward, start - destination, length)
    second_offset = np.where(backward, -length, start - destination)
    rows = np.arange(len(start))
    steps = np.zeros((len(start), n + 1), dtype=np.int32)
    steps[rows, first] = first_offset
    steps[rows, second] = second_offset - first_offset
    steps[rows, stop] = -second_offset
    np.cumsum(steps, axis=1, out=steps)
    positions = steps[:, :n]
    positions += np.arange(n, dtype=np.int32)
    return positions


def _word_tables(pattern: Sequence[str]) -> Tuple[Dict[str, int], List[np.ndarray]]:
    """Token ids for the pattern's vocabulary and, per 64-bit word of the
    pattern, each id's match mask; the id one past the vocabulary stands
    for every other token and matches nothing."""
    import numpy as np

    ids: Dict[str, int] = {}
    for token in pattern:
        ids.setdefault(token, len(ids))
    masks = _match_masks(pattern)
    words = (len(pattern) + 63) // 64
    tables = [np.zeros(len(ids) + 1, dtype=np.uint64) for _ in range(words)]
    for token, i in ids.items():
        for w, table in enumerate(tables):
            table[i] = (masks[token] >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    return ids, tables


def _batch_distances(columns: np.ndarray, tables: List[np.ndarray], m: int) -> np.ndarray:
    """Levenshtein distances of many texts to one pattern of length m.

    columns[j] holds the token ids at position j of every text. The same
    bit-parallel recurrence as _bit_distance, run on all texts at once
    with the pattern split into 64-bit words (carries cross words in the
    addition and the shifts).
    """
    import numpy as np

    # uint64 scalars, not Python ints: numpy 1.x rejects a uint64 array
    # shifted by a Python int. Made once per call; each costs about as
    # much as one array operation of the loop below.
    one, zero, top_shift = np.uint64(1), np.uint64(0), np.uint64(63)

    def shift_left(words: List[np.ndarray], fill: np.uint64) -> List[np.ndarray]:
        """Bit vectors split into 64-bit words (lowest first), shifted left
        by one with `fill` as the new lowest bit."""
        out = [(words[0] << one) | fill]
        for low, high in zip(words, words[1:]):
            out.append((high << one) | (low >> top_shift))
        return out

    count = columns.shape[1]
    k = len(tables)
    full = [np.uint64(0xFFFFFFFFFFFFFFFF)] * (k - 1) + [np.uint64((1 << (m - 64 * (k - 1))) - 1)]
    top_word, top_bit = (m - 1) // 64, np.uint64((m - 1) % 64)
    vp = [np.full(count, f, dtype=np.uint64) for f in full]
    vn = [np.zeros(count, dtype=np.uint64) for _ in range(k)]
    score = np.full(count, m, dtype=np.int64)
    for column in columns:
        eq = [table[column] for table in tables]
        xv = [e | n for e, n in zip(eq, vn)]
        xh, carry = [], None
        for e, p in zip(eq, vp):
            a = e & p
            total = a + p
            overflow = total < a
            if carry is not None:
                total += carry
                overflow |= total < carry
            carry = overflow.astype(np.uint64)
            xh.append((total ^ p) | e)
        ph = [n | ~(x | p) for n, x, p in zip(vn, xh, vp)]
        mh = [p & x for p, x in zip(vp, xh)]
        score += ((ph[top_word] >> top_bit) & one).astype(np.int64)
        score -= ((mh[top_word] >> top_bit) & one).astype(np.int64)
        ph, mh = shift_left(ph, one), shift_left(mh, zero)
        vp = [(h | ~(x | p)) & f for h, x, p, f in zip(mh, xv, ph, full)]
        vn = [p & x for p, x in zip(ph, xv)]
    return score


def _best_shift(
    current: List[str],
    ref_ids: Dict[str, int],
    tables: List[np.ndarray],
    ref_len: int,
    current_ed: int,
    floor: int,
):
    """The first shift (in scan order) achieving the largest distance drop.

    Candidates are scored in batches of up to SCAN_CELLS tokens, in scan
    order; all candidates of a sentence of up to 36 tokens fit in one,
    as _shift_grid leaves out the backward twins of forward moves.
    The scan stops after the batch in which a candidate reaches the
    multiset floor: no later candidate can beat it, and ties never
    replace the earlier winner.
    """
    import numpy as np

    n = len(current)
    other = len(ref_ids)
    current_ids = np.array([ref_ids.get(token, other) for token in current], dtype=np.int32)
    best = None
    best_ed = current_ed
    starts, ends, destinations = _shift_grid(n)
    rows = max(1, SCAN_CELLS // n)
    for lo in range(0, len(starts), rows):
        chunk = slice(lo, lo + rows)
        positions = _shifted_positions(n, starts[chunk], ends[chunk], destinations[chunk])
        distances = _batch_distances(current_ids[positions.T], tables, ref_len)
        i = int(distances.argmin())
        if distances[i] < best_ed:
            best = (int(starts[lo + i]), int(ends[lo + i]), int(destinations[lo + i]))
            best_ed = int(distances[i])
            if best_ed <= floor:
                break
    return best, best_ed


def ter_sentence(
    hyp: str, ref: str, tok: TokenizerConfig = TER_NORMALIZED_TOKENIZER
) -> Tuple[TerScore, EditScript]:
    """Greedy shift-based TER for one sentence pair.

    Shifts move at most MAX_SHIFT_SPAN tokens over at most
    MAX_SHIFT_DISTANCE positions; each costs 1 and is applied only while
    it strictly reduces the edit distance, so the total never exceeds the
    shift-free edit distance. Iterations are capped at 2 * ref_len.
    """
    hyp_tokens = tokenize(hyp, tok)
    ref_tokens = tokenize(ref, tok)
    if not ref_tokens:
        raise EmptyReferenceError(ref)

    current = list(hyp_tokens)
    current_ed = edit_distance(current, ref_tokens)
    floor = _multiset_floor(current, ref_tokens)
    shifts: List[ShiftOp] = []
    if current_ed > floor:
        ref_ids, tables = _word_tables(ref_tokens)
        while current_ed > floor and len(shifts) < 2 * len(ref_tokens):
            best, best_ed = _best_shift(current, ref_ids, tables, len(ref_tokens), current_ed, floor)
            if best is None:
                break
            start, end, destination = best
            current = _apply_shift(current, start, end, destination)
            current_ed = best_ed
            shifts.append(ShiftOp(start, end, destination))

    ops = _align(current, ref_tokens)
    counts = Counter(op.kind for op in ops)
    ter = TerScore(counts["ins"], counts["del"], counts["sub"], len(shifts), len(ref_tokens))
    return ter, EditScript(shifts=tuple(shifts), ops=tuple(ops))


def ter_corpus(
    hyps: Sequence[str], refs: Sequence[str], tok: TokenizerConfig = TER_NORMALIZED_TOKENIZER
) -> TerScore:
    """Corpus TER: summed edit totals over summed reference lengths.

    This is not the mean of per-sentence scores; long references weigh
    more, matching the corpus-level definition.
    """
    if len(hyps) != len(refs):
        raise ValueError(f"hypothesis/reference length mismatch: {len(hyps)} vs {len(refs)}")
    if len(hyps) == 0:
        raise ValueError("corpus TER needs at least one sentence pair")
    rows = [ter_sentence(hyp, ref, tok)[0].stats for hyp, ref in zip(hyps, refs)]
    return TerScore(*(sum(col) for col in zip(*rows)))
