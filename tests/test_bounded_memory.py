"""preprocess and postprocess hold one triplet, one log and one decoded line at a time.

Their peak traced allocation must not grow with the corpus beyond the set
of triplet ids that preprocess keeps to reject a repeated id.
"""

import contextlib
import io
import json
import tracemalloc
from pathlib import Path

from apekit.cli import main

GOLDEN = Path(__file__).parent / "data" / "segments_golden.jsonl"
SMALL, LARGE = 500, 4000
# What the id set may add per extra triplet: a short str and its set slot.
ID_BYTES = 200


def _write_corpus(path: Path, n: int) -> None:
    """n triplets: the segments_golden triplets over and over, each copy with new ids."""
    rows = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for k in range(n):
            row = rows[k % len(rows)]
            record = {"id": f"{row['id']}-{k // len(rows)}", "src": row["src"], "mt": row["mt"], "pe": row["pe"]}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _peak(argv) -> int:
    """Peak bytes allocated while main(argv) runs, above what was allocated before."""
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def _round_trip_peaks(work: Path, n: int) -> tuple:
    _write_corpus(work / "corpus.jsonl", n)
    pre = _peak(["preprocess", "--in", str(work / "corpus.jsonl"), "--out-dir", str(work / "pre")])
    mt = [json.loads(line)["mt"] for line in (work / "pre" / "cleaned.jsonl").read_text(encoding="utf-8").splitlines()]
    (work / "mt.txt").write_text("".join(line + "\n" for line in mt), encoding="utf-8")
    post = _peak(["postprocess", "--outputs", str(work / "mt.txt"), "--changelog", str(work / "pre" / "changelog.jsonl"),
                  "--out", str(work / "restored.txt"), "--orig", str(work / "corpus.jsonl")])
    assert (work / "restored.txt").read_text(encoding="utf-8").splitlines() == [
        json.loads(line)["mt"] for line in (work / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    return pre, post


def test_peak_memory_does_not_grow_with_the_corpus(tmp_path):
    for name in ("warm", "small", "large"):
        (tmp_path / name).mkdir()
    _round_trip_peaks(tmp_path / "warm", 20)  # one-time allocations (caches, compiled patterns) come first
    pre_small, post_small = _round_trip_peaks(tmp_path / "small", SMALL)
    pre_large, post_large = _round_trip_peaks(tmp_path / "large", LARGE)
    allowance = (LARGE - SMALL) * ID_BYTES
    assert pre_large - pre_small <= allowance, (pre_small, pre_large)
    assert post_large - post_small <= allowance, (post_small, post_large)
