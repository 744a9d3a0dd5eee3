"""The input generators are deterministic per seed and keep their stated
composition."""

import checks
import generate


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_build_inputs_are_byte_identical_per_seed(tmp_path):
    generate.write_build_inputs(tmp_path / "a", 7, 500, 20, 20)
    generate.write_build_inputs(tmp_path / "b", 7, 500, 20, 20)
    generate.write_build_inputs(tmp_path / "c", 8, 500, 20, 20)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["corpus.jsonl"] != _files(tmp_path / "c")["corpus.jsonl"]


def test_build_corpus_plants_every_fault_and_feature():
    rows, manifest = generate.build_corpus(3, 1000)
    assert len(rows) == manifest["n"] == 1000
    assert len({r["id"] for r in rows}) == 1000
    for kind in generate.PLANTED:
        assert manifest["planted"][kind], kind
    assert set(manifest["features"]) == set(generate.BUILD_SHARES) - set(generate.PLANTED)
    texts = [r[f] for r in rows for f in ("src", "mt", "pe")]
    for marker in ("<br>", "<i>", "♪", "- ", "„", generate.NBSP):
        assert any(marker in t for t in texts), marker


def test_eval_inputs_are_byte_identical_per_seed(tmp_path):
    spec = dict(n=20, min_len=3, max_len=17, edit_rate=0.2, block_move_share=0.3,
                length_change_share=0.3, ape_identical_share=0.4, mt_exact_share=0.1)
    generate.write_eval_inputs(tmp_path / "a", 5, **spec)
    generate.write_eval_inputs(tmp_path / "b", 5, **spec)
    generate.write_eval_inputs(tmp_path / "c", 6, **spec)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["ref.txt"] != _files(tmp_path / "c")["ref.txt"]


def test_eval_pairs_follow_the_stated_distribution():
    mt, ape, ref, _ = generate.eval_pairs(9, n=40, min_len=16, max_len=30, edit_rate=0.2,
                                          block_move_share=0.3, length_change_share=0.3,
                                          ape_identical_share=0.4, mt_exact_share=0.1)
    lengths = sorted(len(checks.ter_tokens(r)) for r in ref)
    assert lengths == sorted(16 + (i * 15) // 40 for i in range(40))
    assert sum(m == r for m, r in zip(mt, ref)) == 4
    assert sum(a == m for a, m, r in zip(ape, mt, ref) if m != r) == 16
    for m, r in zip(mt, ref):
        if m != r:
            edits = checks.levenshtein(checks.ter_tokens(m), checks.ter_tokens(r))
            assert edits >= round(0.2 * len(checks.ter_tokens(r))) - 1
