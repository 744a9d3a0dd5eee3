"""Translation edit rate with block shifts.

The sentence scorer runs the classic greedy loop: repeatedly apply the
single block shift that most reduces the word-level edit distance to the
reference (unit cost per shift), then charge the remaining edit distance.
Distances come from a bit-parallel kernel with the reference as the
pattern, which scores a batch of shift candidates in one pass of array
operations: the match masks of the whole batch are gathered once, by
position in the current hypothesis, the bit vectors are updated in
place, and each distance is read from the last column. A swap of two
adjacent runs of at most MAX_SHIFT_SPAN tokens each is scored once, not
once per run that could move. The shift search stops once it reaches
the multiset floor, a lower bound on the distance that no shift can
change. When the final distance is that floor, the insertion, deletion
and substitution counts follow from the two lengths alone. Otherwise
they come from a backtrace that reads its cells from the DP columns,
which the scalar form of the kernel keeps as bit vectors.

A shift never changes the hypothesis length, and the candidates depend
on nothing else, so a length whose whole grid fits in one batch of
SCAN_CELLS cells (up to 36 tokens at the default) gets a shift table:
its grid and the shifted positions of every candidate, built on first
use and kept for the life of the process, in one byte per entry. At the
default SCAN_CELLS the tables of all 36 lengths together map under
2.4 MB. A longer sentence's batches are built at every step. Only
candidates are kept, never a score.

numpy is imported inside the shift-search functions, not at module
level, so commands that never run a shift search (every corpus-build
and human-evaluation command) never pay for loading it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .tokenizer import TER_NORMALIZED_TOKENIZER, TokenizerConfig, tokenize

MAX_SHIFT_SPAN = 10
MAX_SHIFT_DISTANCE = 50
# Candidate tokens scored in one batch, which bounds its memory: 8 bytes a
# cell for the positions and 8 more per 64-bit word of the reference for
# the match masks (16 to 32 bytes a cell up to 192 reference tokens), plus
# about 200 bytes per candidate.
SCAN_CELLS = 1 << 18

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


def _match_masks(pattern: Sequence[str]) -> Dict[str, int]:
    """Bit i of masks[token] is set iff pattern[i] == token."""
    masks: Dict[str, int] = {}
    bit = 1
    for token in pattern:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    return masks


def _bit_columns(text: Sequence[str], masks: Dict[str, int], m: int) -> List[Tuple[int, int]]:
    """The columns of the Levenshtein DP matrix of text against a
    non-empty pattern of length m, the column before any text first.

    Bit-parallel over tokens (Myers 1999, in Hyyro's 2001 global-distance
    form): column i is held as its vertical +1/-1 delta bit vectors
    (vp, vn), so each text token costs a handful of big-int operations
    instead of m cell updates. Bit j - 1 of vp (vn) is set when cell
    (i, j) is one more (less) than cell (i, j - 1), and cell (i, 0) is i.
    """
    full = (1 << m) - 1
    get = masks.get
    vp, vn = full, 0
    columns = [(vp, vn)]
    for token in text:
        eq = get(token, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ~(xh | vp)  # negative in Python; vp's mask below trims it
        mh = vp & xh
        ph = (ph << 1) | 1
        vp = ((mh << 1) | ~(xv | ph)) & full
        vn = ph & xv
        columns.append((vp, vn))
    return columns


def _bit_distance(text: Sequence[str], masks: Dict[str, int], m: int) -> int:
    """Levenshtein distance between text and a non-empty pattern of length m."""
    vp, vn = _bit_columns(text, masks, m)[-1]
    return len(text) + vp.bit_count() - vn.bit_count()


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
    hyp_counts, ref_counts = Counter(hyp), Counter(ref)
    common = hyp_counts.keys() & ref_counts.keys()
    overlap = sum(map(min, map(hyp_counts.__getitem__, common), map(ref_counts.__getitem__, common)))
    # missing = len(ref) - overlap and extra = len(hyp) - overlap
    return max(len(hyp), len(ref)) - overlap


def _floor_counts(n: int, m: int, floor: int) -> Tuple[int, int, int]:
    """Insertions, deletions and substitutions of an optimal alignment of
    n hypothesis tokens to m reference tokens whose distance is the
    multiset floor.

    Such an alignment matches every token of the multiset overlap,
    max(n, m) - floor of them, and pairs each other token of the shorter
    side with one of the longer side, so every optimal alignment has
    these counts, whatever the tie order.
    """
    return max(n - m, 0), max(m - n, 0), min(n, m) - (max(n, m) - floor)


def _edit_counts(hyp: Sequence[str], ref: Sequence[str]) -> Tuple[int, int, int]:
    """Insertions, deletions and substitutions of an optimal alignment of
    hyp to a non-empty ref.

    The backtrace reads each DP cell from _bit_columns instead of filling
    the matrix. Tie order: match, then substitution, then deletion
    (missing ref token), then insertion (spurious hyp token).
    """
    columns = _bit_columns(hyp, _match_masks(ref), len(ref))

    def cell(i: int, j: int) -> int:
        vp, vn = columns[i]
        low = (1 << j) - 1
        return i + (vp & low).bit_count() - (vn & low).bit_count()

    insertions = deletions = substitutions = 0
    i, j = len(hyp), len(ref)
    here = cell(i, j)
    while i and j:
        diagonal = cell(i - 1, j - 1)
        if hyp[i - 1] == ref[j - 1] and diagonal == here:
            i, j, here = i - 1, j - 1, diagonal
        elif diagonal + 1 == here:
            substitutions += 1
            i, j, here = i - 1, j - 1, diagonal
        elif cell(i, j - 1) + 1 == here:
            deletions += 1
            j, here = j - 1, here - 1
        else:
            insertions += 1
            i, here = i - 1, here - 1
    # Along an edge only one move is left: row 0 is all deletions, column 0
    # all insertions.
    return insertions + i, deletions + j, substitutions


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
    extra += start  # the block's end (it has extra + 1 tokens), in place: the three views share one buffer
    return start, extra, destination


def _shifted_positions(n: int, start: np.ndarray, end: np.ndarray, destination: np.ndarray) -> np.ndarray:
    """Row r holds, for each position of the r-th shifted sequence, the
    position of its token before the shift (as _apply_shift moves them).

    A shift offsets two adjacent runs of positions, the moved block and
    the tokens it jumps over, so each row is a running sum of the offset
    changes at the three run boundaries. The array is built position by
    position and returned transposed: its transpose, one row per position,
    is C-contiguous intp, ready to gather each position's column of a
    batch at once (numpy would copy any other index dtype to intp first).
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
    candidates = np.arange(len(start))
    steps = np.zeros((n + 1, len(start)), dtype=np.intp)
    steps[first, candidates] = first_offset
    steps[second, candidates] = second_offset - first_offset
    steps[stop, candidates] = -second_offset
    # A row at a time: np.cumsum along axis 0 is several times slower.
    for j in range(1, n):
        steps[j] += steps[j - 1]
    positions = steps[:n]
    positions += np.arange(n, dtype=np.intp)[:, None]
    return positions.T


# The shift tables of the lengths whose whole grid fits one batch, by
# length: (starts, ends, destinations, columns), see _shift_batches.
_SHIFT_TABLES: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def _shift_batches(n: int, rows: int):
    """The shift grid of length n, and its batches of at most `rows`
    candidates in scan order, each as (index of its first candidate, its
    columns: _shifted_positions transposed, one row per position).

    A grid that fits one batch comes from _SHIFT_TABLES, which it joins
    on first use. A table is used only while its grid fits the `rows`
    asked for, so a smaller SCAN_CELLS still splits the scan; a longer
    grid is built, and its batches computed, anew at every call.
    """
    table = _SHIFT_TABLES.get(n)
    if table is None or len(table[0]) > rows:
        grid = _shift_grid(n)
        # No candidate, or more batches than one; so also a table that is
        # there but spans more than `rows`, as this is its grid.
        if not 0 < len(grid[0]) <= rows:
            return grid, (
                (lo, _shifted_positions(n, *(axis[lo : lo + rows] for axis in grid)).T)
                for lo in range(0, len(grid[0]), rows)
            )
        table = _SHIFT_TABLES[n] = _shift_table(n, grid)
    return table[:3], ((0, table[3]),)


def _shift_table(n: int, grid: Tuple[np.ndarray, np.ndarray, np.ndarray]):
    """(starts, ends, destinations, columns) of a grid of length n, as
    _shift_batches gives its one batch, in the narrowest unsigned type
    that holds n - 1: one byte per entry up to 256 tokens.

    The four arrays share one anonymous memory map, not the malloc heap.
    Held on the heap, the tables changed how glibc reuses memory for the
    batch arrays that longer sentences build at every step: after an
    80-token search, then every table, each step of the same search took
    13,040 minor page faults (Linux), against none with the tables mapped
    apart, as with no table at all.
    """
    import mmap

    import numpy as np

    narrow = np.min_scalar_type(n - 1)
    count = len(grid[0])
    table = np.frombuffer(mmap.mmap(-1, (n + 3) * count * narrow.itemsize), dtype=narrow).reshape(n + 3, count)
    table[:3] = grid
    table[3:] = _shifted_positions(n, *grid).T
    return (*table[:3], table[3:])


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

    columns[j] holds, for every text, the index of its token at position
    j into tables, whose w-th array gives each index's match mask for the
    w-th 64-bit word of the pattern. The same bit-parallel recurrence as
    _bit_distance, run on all texts at once with the pattern split into
    words (carries cross words in the addition and the shifts). Every
    mask of the batch is gathered once, one array per word, and the
    column steps update their arrays in place. As in _bit_distance, each
    distance is read from the last column: n + popcount(vp) -
    popcount(vn) for texts of n tokens. The bits of the top word above m
    are never masked during the steps: additions and left shifts carry
    only upward, so they cannot reach the bits below m; vp's are cleared
    once before the count, and vn has none, as the masks have none.
    """
    import numpy as np

    n, count = columns.shape
    k = len(tables)
    masks = [table[columns] for table in tables]
    vp = [np.full(count, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64) for _ in range(k)]
    vn, xv, xh, ph = ([np.zeros(count, dtype=np.uint64) for _ in range(k)] for _ in range(4))
    carry = [np.zeros(count, dtype=bool) for _ in range(k - 1)]
    for j in range(n):
        for w in range(k):
            eq = masks[w][j]
            np.bitwise_or(eq, vn[w], out=xv[w])
            # xh = ((eq & vp) + vp + carry in) ^ vp | eq; a sum is below
            # an addend exactly when the addition wrapped.
            np.bitwise_and(eq, vp[w], out=xh[w])
            xh[w] += vp[w]
            if w < k - 1:
                np.less(xh[w], vp[w], out=carry[w])
            if w:
                xh[w] += carry[w - 1]
                if w < k - 1:
                    np.less(xh[w], carry[w - 1], out=carry[w - 1])
                    carry[w] |= carry[w - 1]
            xh[w] ^= vp[w]
            xh[w] |= eq
            np.bitwise_or(xh[w], vp[w], out=ph[w])
            np.invert(ph[w], out=ph[w])
            ph[w] |= vn[w]
            vp[w] &= xh[w]  # now mh
        # Shift ph and mh left by one, the top word first so that each
        # word still reads the unshifted top bit of the word below.
        for w in range(k - 1, 0, -1):
            for h in (ph, vp):
                np.right_shift(h[w - 1], 63, out=xh[w])
                h[w] <<= 1
                h[w] |= xh[w]
        ph[0] <<= 1
        ph[0] |= 1
        vp[0] <<= 1
        for w in range(k):
            np.bitwise_or(xv[w], ph[w], out=xh[w])
            np.invert(xh[w], out=xh[w])
            vp[w] |= xh[w]
            np.bitwise_and(ph[w], xv[w], out=vn[w])
    vp[-1] &= (1 << (m - 64 * (k - 1))) - 1
    # bitwise_count gives uint8, which the subtraction would wrap.
    return n + sum(np.bitwise_count(p).astype(np.int64) - np.bitwise_count(q).astype(np.int64)
                   for p, q in zip(vp, vn))


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
    as _shift_grid leaves out the backward twins of forward moves. Such
    a one-batch length takes its grid and its batch from a shift table
    kept for the process (_shift_batches; all of them map under 2.4 MB
    at the default SCAN_CELLS), so only the distances are computed at
    each step. The match masks are looked up once per call, by position
    in `current`, so a batch's masks come from one gather by its shifted
    positions. The scan stops after the batch in which a candidate
    reaches the multiset floor: no later candidate can beat it, and ties
    never replace the earlier winner.
    """
    import numpy as np

    n = len(current)
    other = len(ref_ids)
    current_ids = np.array([ref_ids.get(token, other) for token in current], dtype=np.intp)
    position_tables = [table[current_ids] for table in tables]
    best = None
    best_ed = current_ed
    (starts, ends, destinations), batches = _shift_batches(n, max(1, SCAN_CELLS // n))
    for lo, columns in batches:
        distances = _batch_distances(columns, position_tables, ref_len)
        i = int(distances.argmin())
        if distances[i] < best_ed:
            best = (int(starts[lo + i]), int(ends[lo + i]), int(destinations[lo + i]))
            best_ed = int(distances[i])
            if best_ed <= floor:
                break
    return best, best_ed


def ter_sentence(
    hyp: str, ref: str, tok: TokenizerConfig = TER_NORMALIZED_TOKENIZER
) -> Tuple[TerScore, Tuple[ShiftOp, ...]]:
    """Greedy shift-based TER for one sentence pair: its score and the
    shifts applied, in order.

    Shifts move at most MAX_SHIFT_SPAN tokens over at most
    MAX_SHIFT_DISTANCE positions; each costs 1 and is applied only while
    it strictly reduces the edit distance, so the total never exceeds the
    shift-free edit distance. The search stops at the multiset floor,
    which no shift changes, so a pair of n hypothesis and m reference
    tokens makes at most edit_distance - floor <= min(n, m) shifts.
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
        while current_ed > floor:
            best, best_ed = _best_shift(current, ref_ids, tables, len(ref_tokens), current_ed, floor)
            if best is None:
                break
            start, end, destination = best
            current = _apply_shift(current, start, end, destination)
            current_ed = best_ed
            shifts.append(ShiftOp(start, end, destination))

    if current_ed == floor:
        insertions, deletions, substitutions = _floor_counts(len(current), len(ref_tokens), floor)
    else:
        insertions, deletions, substitutions = _edit_counts(current, ref_tokens)
    return TerScore(insertions, deletions, substitutions, len(shifts), len(ref_tokens)), tuple(shifts)


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
