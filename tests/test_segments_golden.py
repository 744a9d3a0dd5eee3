"""Preprocessing and postprocessing match the golden file exactly.

The golden triplets and results come from tests/data/make_segments_golden.py;
any change in a cleaned part, a change record (kind, field, part, offset,
payload, replacement, anchor, order), a digest or a restored text shows
up here.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "segments_golden.jsonl"
_spec = importlib.util.spec_from_file_location(
    "make_segments_golden", Path(__file__).parent / "data" / "make_segments_golden.py"
)
make_segments_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_segments_golden)


def test_preprocess_and_postprocess_match_golden():
    expected = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    actual = make_segments_golden.records()
    assert len(actual) == len(expected) == make_segments_golden.N_TRIPLETS
    for got, want in zip(actual, expected):
        assert got == want, f"triplet {want['id']} differs from the golden file"
