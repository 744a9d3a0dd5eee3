import json
import mmap
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apekit import ter as ter_mod
from apekit.ter import (
    ShiftOp,
    edit_distance,
    ter_corpus,
    ter_sentence,
)
from apekit.tokenizer import TokenizerConfig, tokenize

import make_ter_golden
from oracles import align, apply_shifts, edit_counts, replay, ter_oracle, total_edits

WS = TokenizerConfig(scheme="whitespace")
GOLDEN = Path(__file__).parent / "data" / "ter_golden.jsonl"


def greedy_cost(hyp, ref):
    score, _ = ter_sentence(hyp, ref, WS)
    return total_edits(score)


def replayed(hyp, ref):
    """The reference tokens as rebuilt from ter_sentence's shifts and the
    reference aligner's ops on the shifted hypothesis, which must have
    the score's edit counts."""
    score, shifts = ter_sentence(hyp, ref, WS)
    hyp_tokens, ref_tokens = tokenize(hyp, WS), tokenize(ref, WS)
    ops = align(apply_shifts(hyp_tokens, shifts), ref_tokens)
    assert edit_counts(ops) == (score.insertions, score.deletions, score.substitutions)
    assert len(shifts) == score.shifts
    return replay(shifts, ops, hyp_tokens)


# Hand-scored cases: (hyp, ref, expected edits, expected score)
HAND_CASES = [
    ("a b c", "a b c", 0, 0.0),
    ("b a c", "a b c", 1, 1 / 3),  # one shift
    ("a x c", "a b c", 1, 1 / 3),  # one substitution, no shift helps
    ("", "a b c", 3, 1.0),  # three deletions
    ("a b", "a b c", 1, 1 / 3),  # one deletion
    ("a b c d", "a b c", 1, 1 / 3),  # one insertion
    ("c a b", "a b c", 1, 1 / 3),  # rotate via one shift
    ("b c a", "a b c", 1, 1 / 3),  # block shift of two tokens
    ("a b c", "c b a", 2, 2 / 3),  # no single shift helps enough
    ("a a", "a", 1, 1.0),
    ("a", "a a", 1, 1 / 2),
    ("x y z", "a b c", 3, 1.0),  # three substitutions
    ("a c b d", "a b c d", 1, 1 / 4),
    ("d a b c", "a b c d", 1, 1 / 4),
    ("b a", "a b", 1, 1 / 2),
    ("the cat sat", "the cat sat", 0, 0.0),
    ("sat the cat", "the cat sat", 1, 1 / 3),
    ("a b x c", "a b c", 1, 1 / 3),
    ("a b c c", "c a b c", 1, 1 / 4),
    ("b b a", "a b b", 1, 1 / 3),
]


@pytest.mark.parametrize("hyp,ref,edits,score", HAND_CASES)
def test_hand_scored_cases(hyp, ref, edits, score):
    result, _ = ter_sentence(hyp, ref, WS)
    assert total_edits(result) == edits
    assert result.score == pytest.approx(score)
    assert replayed(hyp, ref) == tokenize(ref, WS)


def test_identity_empty_script():
    result, shifts = ter_sentence("a b c", "a b c", WS)
    assert result.score == 0.0
    assert shifts == ()
    assert result.stats == (0, 0, 0, 0, 3)


def test_substitution_preferred_over_shift():
    result, _ = ter_sentence("a x c", "a b c", WS)
    assert result.shifts == 0
    assert result.substitutions == 1


def test_empty_hyp_scores_all_deletions():
    result, _ = ter_sentence("", "a b c", WS)
    assert result.deletions == 3
    assert result.score == 1.0
    assert replayed("", "a b c") == ["a", "b", "c"]


def test_empty_ref_rejected():
    with pytest.raises(ValueError):
        ter_sentence("a", "", WS)


def test_normalized_tokenizer_folds_case_and_punct():
    result, _ = ter_sentence("Hello, World", "hello , world")
    assert result.score == 0.0


class TestOracle:
    def test_identity(self):
        assert ter_oracle("a b c", "a b c", tok=WS) == 0

    def test_single_shift_found(self):
        assert ter_oracle("b a c", "a b c", tok=WS) == 1

    def test_rejects_long_inputs(self):
        nine = " ".join("a" * 1 for _ in range(9))
        with pytest.raises(ValueError):
            ter_oracle(nine, "a", tok=WS)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            ter_oracle("a", "a", max_depth=4, tok=WS)

    def test_depth_zero_is_plain_edit_distance(self):
        assert ter_oracle("b a c", "a b c", max_depth=0, tok=WS) == 2


def test_bounds_on_random_small_pairs():
    rng = random.Random(11)
    vocab = "a b c".split()
    for _ in range(300):
        hyp = " ".join(rng.choices(vocab, k=rng.randint(0, 6)))
        ref = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
        plain = edit_distance(tokenize(hyp, WS), tokenize(ref, WS))
        greedy = greedy_cost(hyp, ref)
        oracle = ter_oracle(hyp, ref, tok=WS)
        assert oracle <= greedy <= plain, (hyp, ref, oracle, greedy, plain)


def test_zero_iff_equal_after_normalization():
    rng = random.Random(13)
    vocab = "a b c".split()
    for _ in range(200):
        hyp = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        ref = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        score, _ = ter_sentence(hyp, ref, WS)
        assert (score.score == 0.0) == (tokenize(hyp, WS) == tokenize(ref, WS))


def test_edit_script_replay_on_random_pairs():
    rng = random.Random(17)
    vocab = "a b c d".split()
    for _ in range(200):
        hyp = " ".join(rng.choices(vocab, k=rng.randint(0, 7)))
        ref = " ".join(rng.choices(vocab, k=rng.randint(1, 7)))
        assert replayed(hyp, ref) == tokenize(ref, WS)


def test_relabeling_invariance():
    # Token identity matters only through equality, so greedy and oracle
    # costs survive any bijective renaming. The acceptance suite relies on
    # this to cache results by canonical form.
    rng = random.Random(19)
    vocab = "a b c".split()
    mapping = {"a": "Q", "b": "R", "c": "S"}
    for _ in range(150):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 5))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
        hyp_m = " ".join(mapping[t] for t in hyp)
        ref_m = " ".join(mapping[t] for t in ref)
        assert greedy_cost(" ".join(hyp), " ".join(ref)) == greedy_cost(hyp_m, ref_m)
        assert ter_oracle(" ".join(hyp), " ".join(ref), tok=WS) == ter_oracle(hyp_m, ref_m, tok=WS)


class TestTerCorpus:
    def test_all_equal_is_zero(self):
        hyps = ["a b", "c d e"]
        assert ter_corpus(hyps, list(hyps), WS).score == 0.0

    def test_corpus_sum_not_mean_of_sentences(self):
        # (1 edit / 2 ref) and (0 edits / 8 ref): corpus 1/10, mean would be 0.25
        hyps = ["a x", "a b c d e f g h"]
        refs = ["a b", "a b c d e f g h"]
        assert ter_corpus(hyps, refs, WS).score == pytest.approx(0.1)

    def test_single_sentence_matches_sentence_score(self):
        sentence, _ = ter_sentence("b a c", "a b c", WS)
        corpus = ter_corpus(["b a c"], ["a b c"], WS)
        assert corpus.score == sentence.score
        assert total_edits(corpus) == total_edits(sentence)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ter_corpus(["a"], ["a", "b"], WS)


def test_shift_op_semantics():
    s = ShiftOp(start=0, end=0, destination=1)
    tokens = ["b", "a", "c"]
    block = tokens[s.start : s.end + 1]
    rest = tokens[: s.start] + tokens[s.end + 1 :]
    moved = rest[: s.destination] + block + rest[s.destination :]
    assert moved == ["a", "b", "c"]
    assert apply_shifts(tokens, [s]) == moved


def dp_edit_distance(a, b):
    """Plain O(len(a) * len(b)) Levenshtein distance, the reference."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        curr = [i]
        for j, y in enumerate(b, start=1):
            curr.append(min(prev[j - 1] + (x != y), prev[j] + 1, curr[j - 1] + 1))
        prev = curr
    return prev[-1]


@st.composite
def token_pairs(draw):
    alphabet = [f"t{i}" for i in range(draw(st.integers(2, 6)))]
    side = st.lists(st.sampled_from(alphabet), min_size=0, max_size=80)
    return draw(side), draw(side)


@settings(max_examples=300, deadline=None)
@given(token_pairs())
def test_edit_distance_matches_dp(pair):
    a, b = pair
    assert edit_distance(a, b) == dp_edit_distance(a, b)
    assert edit_distance(b, a) == dp_edit_distance(a, b)


def reference_multiset_floor(hyp, ref):
    """The original Counter.subtract balance, kept as the reference."""
    balance = Counter(ref)
    balance.subtract(hyp)
    missing = sum(n for n in balance.values() if n > 0)
    extra = missing - len(ref) + len(hyp)
    return max(missing, extra)


@settings(max_examples=300, deadline=None)
@given(token_pairs())
def test_multiset_floor_matches_reference_balance(pair):
    hyp, ref = pair
    floor = reference_multiset_floor(hyp, ref)
    assert ter_mod._multiset_floor(hyp, ref) == floor
    assert ter_mod._multiset_floor(tuple(hyp), tuple(ref)) == floor
    assert floor <= dp_edit_distance(hyp, ref)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 80])
def test_edit_distance_at_word_boundaries(n):
    rng = random.Random(n)
    a = rng.choices("xyz", k=n)
    b = rng.choices("xyz", k=n + rng.randint(-1, 1))
    assert edit_distance(a, b) == dp_edit_distance(a, b)
    assert edit_distance(a, []) == n
    assert edit_distance([], a) == n
    assert edit_distance(a, a) == 0


def test_edit_counts_match_the_reference_aligner():
    # Tie-heavy vocabularies of 1-4 tokens, empty hypotheses, and
    # references past one 64-bit word, where the cells read from the bit
    # columns span several words.
    rng = random.Random(23)
    cases = [([], ["a"]), ([], list("ab" * 40)), (list("ab" * 40), list("ba" * 45))]
    for _ in range(3000):
        vocab = "abcd"[: rng.randint(1, 4)]
        cases.append((rng.choices(vocab, k=rng.randint(0, 9)), rng.choices(vocab, k=rng.randint(1, 9))))
    for _ in range(60):
        vocab = "abcd"[: rng.randint(1, 4)]
        cases.append((rng.choices(vocab, k=rng.randint(0, 140)), rng.choices(vocab, k=rng.randint(65, 140))))
    for hyp, ref in cases:
        assert ter_mod._edit_counts(hyp, ref) == edit_counts(align(hyp, ref)), (hyp, ref)


@st.composite
def tie_heavy_pairs(draw):
    vocab = "abcd"[: draw(st.integers(1, 4))]
    hyp = draw(st.lists(st.sampled_from(vocab), max_size=9))
    ref = draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=9))
    return hyp, ref


@settings(max_examples=500, deadline=None)
@given(tie_heavy_pairs())
def test_floor_counts_match_the_backtrace_at_the_floor(pair):
    hyp, ref = pair
    floor = ter_mod._multiset_floor(hyp, ref)
    assume(edit_distance(hyp, ref) == floor)
    assert ter_mod._floor_counts(len(hyp), len(ref), floor) == ter_mod._edit_counts(hyp, ref)


@pytest.mark.parametrize(
    "hyp, ref, columns",
    [
        ("a x c", "a b c", 1),  # a substitution, at the floor from the start
        ("c a b", "a b c", 1),  # one shift reaches the floor
        ("a b b b a b", "b b b b a a", 2),  # no shift helps; two substitutions above the floor
    ],
)
def test_counts_at_the_floor_reuse_no_dp_columns(monkeypatch, hyp, ref, columns):
    calls = []

    def counting(*args):
        calls.append(args)
        return bit_columns(*args)

    bit_columns = ter_mod._bit_columns
    monkeypatch.setattr(ter_mod, "_bit_columns", counting)
    ter_sentence(hyp, ref, WS)
    assert len(calls) == columns
    assert replayed(hyp, ref) == ref.split()


@pytest.mark.parametrize("scan_cells", [ter_mod.SCAN_CELLS, 3000])
def test_golden_sentence_scores(scan_cells, monkeypatch):
    # Pinned by tests/data/make_ter_golden.py; any change in the seeded
    # pairs, greedy TER results, shift choices or alignment tie-breaking
    # shows up here, and the pinned ops must give the pinned edit counts.
    # The small batches split long scans, so ties across batches are
    # checked.
    monkeypatch.setattr(ter_mod, "SCAN_CELLS", scan_cells)
    records = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    pairs = list(make_ter_golden.pairs())
    assert len(records) == len(pairs) == 180
    for pair, rec in zip(pairs, records):
        assert make_ter_golden.record(*pair) == rec, (rec["hyp"], rec["ref"])
        score = rec["score"]
        assert edit_counts(rec["ops"]) == (score["insertions"], score["deletions"], score["substitutions"])


def test_golden_corpus_score():
    records = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    plain = [r for r in records if r["kind"] in ("tie", "small_block")]
    corpus = ter_corpus([r["hyp"] for r in plain], [r["ref"] for r in plain], WS)
    totals = {k: sum(r["score"][k] for r in plain)
              for k in ("insertions", "deletions", "substitutions", "shifts", "ref_len")}
    assert corpus.to_dict() == {
        "score": (totals["insertions"] + totals["deletions"] + totals["substitutions"]
                  + totals["shifts"]) / totals["ref_len"],
        **totals,
    }


class TestFloorEarlyExit:
    @pytest.fixture
    def scored(self, monkeypatch):
        """Batch sizes of the shift candidates scored, in order."""
        sizes = []
        kernel = ter_mod._batch_distances

        def counting(columns, tables, m):
            sizes.append(columns.shape[1])
            return kernel(columns, tables, m)

        monkeypatch.setattr(ter_mod, "_batch_distances", counting)
        return sizes

    def test_substitution_only_pair_scans_no_candidates(self, scored):
        result, _ = ter_sentence("a x c y e", "a b c d e", WS)
        assert result.substitutions == 2 and result.shifts == 0
        assert scored == []

    def test_block_move_stops_after_the_batch_of_the_first_floor_candidate(self, scored, monkeypatch):
        monkeypatch.setattr(ter_mod, "SCAN_CELLS", 8 * 10)  # 8 candidates of 10 tokens
        ref = "a b c d e f g h i j".split()
        hyp = "a b f g h c d e i j".split()
        result, shifts = ter_sentence(" ".join(hyp), " ".join(ref), WS)
        assert total_edits(result) == 1 and shifts == (ShiftOp(2, 4, 5),)
        scan = [ter_mod._apply_shift(hyp, s, e, d) for s, e, d in reference_scan(len(hyp))]
        first = scan.index(ref)
        assert scored == [8] * (first // 8 + 1)
        assert sum(scored) < len(scan)


def full_scan(n):
    """Every shift within the span and distance caps, in scan order, as
    nested loops."""
    for start in range(n):
        for end in range(start, min(start + ter_mod.MAX_SHIFT_SPAN, n)):
            for destination in range(n - (end - start + 1) + 1):
                if destination != start and abs(destination - start) <= ter_mod.MAX_SHIFT_DISTANCE:
                    yield start, end, destination


def reference_scan(n):
    """The shift candidates in scan order: the full scan less the backward
    moves over at most MAX_SHIFT_SPAN tokens."""
    for start, end, destination in full_scan(n):
        if not 0 < start - destination <= ter_mod.MAX_SHIFT_SPAN:
            yield start, end, destination


def grid_triples(n):
    """The (start, end, destination) triples of ter._shift_grid, in order."""
    return list(zip(*(axis.tolist() for axis in ter_mod._shift_grid(n))))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 30, 61])
def test_shift_grid_keeps_scan_order_and_shifted_positions(n):
    triples = grid_triples(n)
    assert triples == list(reference_scan(n))
    if triples:
        positions = ter_mod._shifted_positions(n, *ter_mod._shift_grid(n))
        assert positions.tolist() == [ter_mod._apply_shift(range(n), *t) for t in triples]
        # _best_shift gathers a batch's masks with positions.T as the index,
        # one contiguous row per position, with no copy to intp.
        assert positions.T.flags.c_contiguous and positions.dtype == np.intp


DEFAULT_SCAN_CELLS = ter_mod.SCAN_CELLS


def one_batch_limit():
    """The longest hypothesis whose whole shift grid fits one batch."""
    n = 1
    while len(ter_mod._shift_grid(n + 1)[0]) * (n + 1) <= ter_mod.SCAN_CELLS:
        n += 1
    return n


def check_scan(n, monkeypatch):
    """Run _best_shift on n tokens under the SCAN_CELLS in force, with a
    kernel that lowers the distance of one candidate only. Every batch it
    scans must be, in order, a batch of SCAN_CELLS // n rows of the grid's
    _shifted_positions, and the shift it returns must be that candidate's."""
    grid = ter_mod._shift_grid(n)
    rows = max(1, ter_mod.SCAN_CELLS // n)
    target = 7 * n % max(len(grid[0]), 1)
    # One byte a cell, built a slice at a time: 16 MB at 150 tokens.
    positions = np.concatenate([np.zeros((n, 0), dtype=np.uint8)] + [
        ter_mod._shifted_positions(n, *(axis[lo : lo + 4096] for axis in grid)).T.astype(np.uint8)
        for lo in range(0, len(grid[0]), 4096)], axis=1)
    seen = []  # the widths of the batches scanned

    def kernel(columns, tables, m):
        lo = rows * len(seen)
        expected = positions[:, lo : lo + rows]
        assert columns.shape == expected.shape and np.array_equal(columns, expected), (n, lo)
        seen.append(columns.shape[1])
        distances = np.ones(columns.shape[1], dtype=np.int64)
        if lo <= target < lo + len(distances):
            distances[target - lo] = 0
        return distances

    monkeypatch.setattr(ter_mod, "_batch_distances", kernel)
    # A floor of -1 is never reached, so every batch is scanned.
    best, best_ed = ter_mod._best_shift(["t"] * n, {"t": 0}, [np.zeros(2, dtype=np.uint64)], 1, 1, -1)
    assert sum(seen) == len(grid[0]) and seen[:-1] == [rows] * (len(seen) - 1)
    assert (best, best_ed) == ((grid_triples(n)[target], 0) if seen else (None, 1))


@pytest.mark.parametrize("scan_cells", [DEFAULT_SCAN_CELLS, 3000, 80])
def test_best_shift_scans_the_grid_batch_by_batch(scan_cells, monkeypatch):
    # The first scan of a length builds its table, if it fits one batch;
    # the second looks it up. At 80 cells, 150 tokens would take 106,000
    # batches of one candidate (half a minute); 60 tokens scans that way.
    monkeypatch.setattr(ter_mod, "SCAN_CELLS", scan_cells)
    monkeypatch.setattr(ter_mod, "_SHIFT_TABLES", {})
    limit = one_batch_limit()
    for n in [*range(1, limit + 1), 37, 60, *([150] if scan_cells >= 150 else [])]:
        for _ in range(2 if n <= limit else 1):
            check_scan(n, monkeypatch)
    assert all(len(table[0]) * n <= scan_cells for n, table in ter_mod._SHIFT_TABLES.items())


@pytest.mark.parametrize("built, used", [(DEFAULT_SCAN_CELLS, 80), (DEFAULT_SCAN_CELLS, 3000),
                                         (3000, 80), (80, DEFAULT_SCAN_CELLS), (3000, DEFAULT_SCAN_CELLS)])
def test_a_table_built_under_one_scan_cells_serves_another(built, used, monkeypatch):
    monkeypatch.setattr(ter_mod, "_SHIFT_TABLES", {})
    lengths = range(1, one_batch_limit() + 1)  # at the default SCAN_CELLS
    for scan_cells in (built, used):
        monkeypatch.setattr(ter_mod, "SCAN_CELLS", scan_cells)
        for n in lengths:
            check_scan(n, monkeypatch)


def test_the_one_batch_tables_stay_within_their_budget(monkeypatch):
    # ter's docstring: up to 36 tokens at the default SCAN_CELLS, one
    # byte an entry, and under 2.4 MB for all of their tables together,
    # each mapped in whole pages.
    monkeypatch.setattr(ter_mod, "_SHIFT_TABLES", {})
    limit = one_batch_limit()
    assert limit == 36
    for n in range(1, limit + 5):
        ter_mod._shift_batches(n, max(1, ter_mod.SCAN_CELLS // n))
    tables = ter_mod._SHIFT_TABLES
    assert sorted(tables) == list(range(2, limit + 1))  # one token has no shift
    assert all(array.itemsize == 1 for table in tables.values() for array in table)
    sizes = [sum(array.nbytes for array in table) for table in tables.values()]
    assert sum(-(-size // mmap.PAGESIZE) * mmap.PAGESIZE for size in sizes) <= 2_400_000


def test_a_long_pair_adds_no_table(monkeypatch):
    monkeypatch.setattr(ter_mod, "_SHIFT_TABLES", {})
    rng = random.Random(60)
    ref = rng.choices([f"w{i}" for i in range(400)], k=60)
    hyp = ref[3:40] + ref[:3] + ref[40:]
    score, shifts = ter_sentence(" ".join(hyp), " ".join(ref), WS)
    assert shifts and total_edits(score) == 1
    assert ter_mod._SHIFT_TABLES == {}


def test_every_dropped_shift_repeats_an_earlier_kept_one():
    # The greedy search keeps the first best shift in scan order, so a
    # candidate may be dropped only if an earlier kept one gives its sequence.
    for n in range(62):
        kept = set(grid_triples(n))
        seen = set()
        for triple in full_scan(n):
            shifted = tuple(ter_mod._apply_shift(range(n), *triple))
            if triple in kept:
                seen.add(shifted)
            else:
                assert shifted in seen, (n, triple)


def full_scan_greedy(hyp, ref):
    """Greedy TER over the full scan, one edit_distance call per candidate:
    the reference for the batched search over the grid without twins."""
    current, current_ed, shifts = list(hyp), edit_distance(hyp, ref), []
    while len(shifts) < 2 * len(ref):
        best, best_ed = None, current_ed
        for triple in full_scan(len(current)):
            distance = edit_distance(ter_mod._apply_shift(current, *triple), ref)
            if distance < best_ed:
                best, best_ed = triple, distance
        if best is None:
            break
        current, current_ed = ter_mod._apply_shift(current, *best), best_ed
        shifts.append(ShiftOp(*best))
    return (*edit_counts(align(current, ref)), len(shifts), len(ref)), tuple(shifts)


@st.composite
def short_pairs(draw):
    alphabet = [f"t{i}" for i in range(draw(st.integers(2, 5)))]
    hyp = draw(st.lists(st.sampled_from(alphabet), max_size=12))
    ref = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=12))
    return hyp, ref


@settings(max_examples=200, deadline=None)
@given(short_pairs())
def test_greedy_matches_a_search_over_the_full_scan(pair):
    hyp, ref = pair
    score, shifts = ter_sentence(" ".join(hyp), " ".join(ref), WS)
    assert (score.stats, shifts) == full_scan_greedy(hyp, ref)


@st.composite
def shift_heavy_pairs(draw):
    alphabet = [f"t{i}" for i in range(draw(st.integers(2, 8)))]
    hyp = draw(st.lists(st.sampled_from(alphabet), max_size=30))
    ref = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=30))
    return hyp, ref


@settings(max_examples=300, deadline=None)
@given(shift_heavy_pairs())
def test_shifts_stay_within_the_multiset_overlap(pair):
    # Each shift lowers the distance by at least 1, and no shift moves the
    # multiset floor, where the search stops.
    hyp, ref = pair
    score, _ = ter_sentence(" ".join(hyp), " ".join(ref), WS)
    assert score.shifts <= edit_distance(hyp, ref) - ter_mod._multiset_floor(hyp, ref) <= min(len(hyp), len(ref))


@st.composite
def batches(draw):
    alphabet = [f"t{i}" for i in range(draw(st.integers(2, 6)))]
    pattern = draw(st.lists(st.sampled_from(alphabet + ["t-rare"]), min_size=1, max_size=140))
    n = draw(st.integers(0, 150))
    texts = draw(st.lists(st.lists(st.sampled_from(alphabet + ["t-other"]), min_size=n, max_size=n),
                          min_size=1, max_size=5))
    return pattern, texts


def batch_distances(texts, pattern):
    """ter._batch_distances of texts of one length against pattern, which
    must leave its index and table arrays as they were: _best_shift
    reuses its tables for every batch, ter_sentence for every shift."""
    ids, tables = ter_mod._word_tables(pattern)
    columns = np.array([[ids.get(t, len(ids)) for t in text] for text in texts], dtype=np.intp).T
    kept = [columns.copy()] + [table.copy() for table in tables]
    got = ter_mod._batch_distances(columns, tables, len(pattern))
    for before, after in zip(kept, [columns] + tables):
        np.testing.assert_array_equal(after, before)
    return got.tolist()


@settings(max_examples=200, deadline=None)
@given(batches())
def test_batch_distances_match_dp(batch):
    # Patterns of 1-140 tokens take one to three 64-bit words; texts of
    # 0-150 tokens run past 64 tokens and past the pattern's length.
    pattern, texts = batch
    assert batch_distances(texts, pattern) == [dp_edit_distance(text, pattern) for text in texts]


@pytest.mark.parametrize("m", [1, 63, 64, 65, 127, 128, 129, 200])
def test_batch_distances_across_words(m):
    # Near-copies of the pattern give long runs of matches, whose carries
    # and shifted-out bits must cross 64-bit words.
    rng = random.Random(m)
    pattern = rng.choices("xyz", k=m)
    n = m + rng.randint(-1, 1) if m > 1 else 1
    texts = []
    for edits in (0, 1, 3, n):
        text = (pattern + ["x"])[:n]
        for i in rng.sample(range(n), min(edits, n)):
            text[i] = rng.choice("xyzw")
        texts.append(text)
    assert batch_distances(texts, pattern) == [dp_edit_distance(text, pattern) for text in texts]


def test_a_batch_stays_within_the_memory_scan_cells_states():
    # SCAN_CELLS's comment: 8 bytes a cell for the positions, 8 more per
    # 64-bit word of the reference, about 200 bytes per candidate. The
    # shift grid grows with the square of the length, not with SCAN_CELLS,
    # so its bytes are measured apart; it holds no array besides the three
    # it returns.
    n = 150
    rng = random.Random(n)
    vocab = [f"w{i}" for i in range(400)]
    ref, hyp = rng.choices(vocab, k=n), rng.choices(vocab, k=n)
    ids, tables = ter_mod._word_tables(ref)
    tracemalloc.start()
    try:
        grid = ter_mod._shift_grid(n)
        grid_bytes = tracemalloc.get_traced_memory()[0]
        returned_bytes = sum(axis.nbytes for axis in grid)
        del grid
        tracemalloc.reset_peak()
        # A floor of -1 is never reached, so every batch is scored.
        ter_mod._best_shift(hyp, ids, tables, n, edit_distance(hyp, ref), -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid_bytes <= returned_bytes + 4096
    assert len(tables) == 3
    candidates = ter_mod.SCAN_CELLS // n
    assert peak - grid_bytes <= ter_mod.SCAN_CELLS * 8 * (1 + len(tables)) + candidates * 256
