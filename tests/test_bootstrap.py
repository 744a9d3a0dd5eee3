import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit import bleu as bleu_mod
from apekit import bootstrap as bootstrap_mod
from apekit.bootstrap import STATISTICS, BootstrapResult, _sample_scores, bootstrap_significance
from apekit.ter import ter_sentence
from apekit.tokenizer import BLEU_TOKENIZER, TER_NORMALIZED_TOKENIZER

from oracles import total_edits


def make_test_set(n=40, seed=2):
    rng = random.Random(seed)
    words = "der zug kommt heute nicht an weil es schneit draußen".split()
    refs = [" ".join(rng.choices(words, k=rng.randint(4, 9))) for _ in range(n)]
    # System A copies the reference with occasional errors, B errs more.
    def corrupt(text, p):
        tokens = text.split()
        return " ".join("xxx" if rng.random() < p else t for t in tokens)

    hyps_a = [corrupt(r, 0.1) for r in refs]
    hyps_b = [corrupt(r, 0.45) for r in refs]
    return hyps_a, hyps_b, refs


def test_identical_systems_tie_everywhere():
    _, _, refs = make_test_set()
    hyps = [r.upper() for r in refs]
    result = bootstrap_significance(hyps, list(hyps), refs, n_samples=200, seed=1)
    assert result.ties == 200
    assert result.wins_a == result.wins_b == 0
    assert result.p_value == 1.0


def test_identical_systems_never_significant_across_seeds():
    _, _, refs = make_test_set(n=25)
    hyps = list(refs)
    for seed in range(100):
        result = bootstrap_significance(hyps, list(hyps), refs, n_samples=50, seed=seed)
        assert result.p_value == 1.0


def test_dominant_system_wins_every_sample():
    _, _, refs = make_test_set()
    hyps_a = list(refs)
    hyps_b = ["" for _ in refs]
    result = bootstrap_significance(hyps_a, hyps_b, refs, n_samples=1000, seed=7)
    assert result.wins_a == 1000
    assert result.p_value == 0.0


def test_default_sample_count_is_1000():
    _, _, refs = make_test_set(n=10)
    result = bootstrap_significance(list(refs), list(refs), refs, seed=0)
    assert result.n_samples == 1000


def test_deterministic_per_seed():
    hyps_a, hyps_b, refs = make_test_set()
    one = bootstrap_significance(hyps_a, hyps_b, refs, n_samples=300, seed=99)
    two = bootstrap_significance(hyps_a, hyps_b, refs, n_samples=300, seed=99)
    assert one == two


def test_tallies_always_sum_to_n_samples():
    hyps_a, hyps_b, refs = make_test_set(seed=5)
    for statistic in ("bleu", "ter", "sentence_bleu"):
        result = bootstrap_significance(
            hyps_a, hyps_b, refs, n_samples=100, seed=3, statistic=statistic
        )
        assert result.wins_a + result.wins_b + result.ties == 100
        assert 0.0 <= result.p_value <= 1.0


def test_better_system_wins_with_ter_statistic():
    hyps_a, hyps_b, refs = make_test_set(seed=6)
    result = bootstrap_significance(hyps_a, hyps_b, refs, n_samples=200, seed=4, statistic="ter")
    assert result.wins_a > result.wins_b


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        bootstrap_significance(["a"], ["b", "c"], ["r"], n_samples=10, seed=0)


def test_bad_statistic_rejected():
    with pytest.raises(ValueError):
        bootstrap_significance(["a"], ["b"], ["r"], n_samples=10, seed=0, statistic="comet")


# The three per-statistic sample scorers the single resampling path
# replaced, kept verbatim as the reference the property below checks.
def _old_bleu_sample_scores(hyps, refs, indices, tok):
    stats = np.asarray(bleu_mod.corpus_stats_matrix(hyps, refs, tok), dtype=np.int64)
    return np.array(
        [bleu_mod.score_from_stats(stats[row].sum(axis=0)).score for row in indices]
    )


def _old_ter_sample_scores(hyps, refs, indices, tok):
    per_sentence = np.array(
        [(total_edits(s), s.ref_len) for s, _ in (ter_sentence(h, r, tok) for h, r in zip(hyps, refs))],
        dtype=np.int64,
    )
    sums = np.array([per_sentence[row].sum(axis=0) for row in indices])
    return -(sums[:, 0] / sums[:, 1])


def _old_sentence_bleu_sample_scores(hyps, refs, indices, tok):
    per_sentence = np.array([bleu_mod.sentence_bleu(h, r, tok) for h, r in zip(hyps, refs)])
    return np.array([per_sentence[row].mean() for row in indices])


OLD_SCORERS = {
    "bleu": _old_bleu_sample_scores,
    "ter": _old_ter_sample_scores,
    "sentence_bleu": _old_sentence_bleu_sample_scores,
}


def _old_bootstrap(hyps_a, hyps_b, refs, n_samples, seed, statistic):
    tok = TER_NORMALIZED_TOKENIZER if statistic == "ter" else BLEU_TOKENIZER
    indices = np.random.default_rng(seed).integers(0, len(refs), size=(n_samples, len(refs)))
    scorer = OLD_SCORERS[statistic]
    scores_a = scorer(hyps_a, refs, indices, tok)
    scores_b = scorer(hyps_b, refs, indices, tok)
    wins_a = int(np.sum(scores_a > scores_b))
    wins_b = int(np.sum(scores_b > scores_a))
    return BootstrapResult(
        n_samples=n_samples,
        wins_a=wins_a,
        wins_b=wins_b,
        ties=n_samples - wins_a - wins_b,
        p_value=1.0 - max(wins_a, wins_b) / n_samples,
        seed=seed,
        statistic=statistic,
    )


WORDS = st.sampled_from("a b c Der zug , . ! kommt".split())
LINE = st.lists(WORDS, max_size=12).map(" ".join)  # may be empty: an empty hypothesis
REF = st.lists(WORDS, min_size=1, max_size=12).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(
    triples=st.lists(st.tuples(LINE, LINE, REF), min_size=1, max_size=30),
    statistic=st.sampled_from(sorted(STATISTICS)),
    seed=st.integers(0, 2**32 - 1),
    n_samples=st.integers(1, 60),
)
def test_single_resampling_path_matches_the_old_scorers(triples, statistic, seed, n_samples):
    hyps_a, hyps_b, refs = (list(column) for column in zip(*triples))
    new = bootstrap_significance(hyps_a, hyps_b, refs, n_samples=n_samples, seed=seed, statistic=statistic)
    assert new == _old_bootstrap(hyps_a, hyps_b, refs, n_samples, seed, statistic)


@pytest.mark.parametrize("statistic", sorted(STATISTICS))
def test_sample_scores_match_the_old_scorers_bit_for_bit(statistic):
    hyps_a, hyps_b, refs = make_test_set(n=150, seed=8)
    rows, score = STATISTICS[statistic]
    tok = TER_NORMALIZED_TOKENIZER if statistic == "ter" else BLEU_TOKENIZER
    indices = np.random.default_rng(11).integers(0, len(refs), size=(300, len(refs)))
    old = OLD_SCORERS[statistic](hyps_a, refs, indices, tok)
    assert _sample_scores(rows(hyps_a, refs, tok), indices, score).tolist() == old.tolist()


@pytest.mark.parametrize("block_cells", [1, 7, 64, 1300])
@pytest.mark.parametrize("n", [3, 32])
def test_blocked_draws_match_one_draw_of_every_sample(monkeypatch, block_cells, n):
    # A sample gathers 3 or 32 rows of 10 (BLEU), 5 (TER) or 1
    # (sentence_bleu) cells, so these give blocks of 1 to 43 samples or
    # one block of all 45; 64 cells on 3 sentences and 1,300 on 32 give
    # several samples per block and a short last one. The blocks continue
    # the random stream that one draw of all 45 samples reads.
    hyps_a, hyps_b, refs = make_test_set(n=n, seed=5)
    monkeypatch.setattr(bootstrap_mod, "BLOCK_CELLS", block_cells)
    gathered = []

    def recording(rows, indices, score):
        rows = np.asarray(rows)
        gathered.append((len(indices) * rows.size, rows.size))
        return _sample_scores(rows, indices, score)

    monkeypatch.setattr(bootstrap_mod, "_sample_scores", recording)
    for statistic in sorted(STATISTICS):
        new = bootstrap_significance(hyps_a, hyps_b, refs, n_samples=45, seed=9, statistic=statistic)
        assert new == _old_bootstrap(hyps_a, hyps_b, refs, 45, 9, statistic)
    assert all(cells <= max(block_cells, size) for cells, size in gathered)


def _peak_bytes(n_samples, hyps_a, hyps_b, refs):
    tracemalloc.start()
    try:
        bootstrap_significance(hyps_a, hyps_b, refs, n_samples=n_samples, statistic="sentence_bleu")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resample_memory_does_not_grow_with_n_samples():
    # A single draw of every sample's indices holds n_samples x 2,000 int64
    # cells at once: 45.8 MiB more at 4,000 samples than at 1,000.
    hyps_a, hyps_b, refs = make_test_set(n=2000, seed=3)
    _peak_bytes(1, hyps_a, hyps_b, refs)  # numpy's first-use allocations
    rise = _peak_bytes(4000, hyps_a, hyps_b, refs) - _peak_bytes(1000, hyps_a, hyps_b, refs)
    assert rise < 2 * 2**20
