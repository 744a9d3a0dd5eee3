"""Every golden set still comes out byte for byte, timestamp aside.

Each directory set ``tests/data/<set>_golden/`` holds the inputs under
``in/`` and the outputs of the commands that tests/data/make_<set>_golden.py
runs on them: reports without their timestamp, written files and console
files with each command's exit code, stdout and stderr. Any change in a
score, a written byte, a console line, an error message or an exit code
shows up here. segments_golden.jsonl pins preprocess and postprocess
record by record.
"""

import importlib
import json
from pathlib import Path

import pytest

import make_segments_golden

DATA = Path(__file__).parent / "data"
SETS = ("build_cli", "report", "human_eval", "metric", "input_fault")


def _generator(name: str):
    return importlib.import_module(f"make_{name}_golden")


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def _assert_files_match(got: dict, directory: Path) -> None:
    want = _files(directory)
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert got[name] == want[name], name


@pytest.mark.parametrize("name", SETS)
def test_inputs_match_golden(tmp_path, name):
    _generator(name).write_inputs(tmp_path)
    _assert_files_match(_files(tmp_path / "in"), DATA / f"{name}_golden" / "in")


@pytest.mark.parametrize("name", SETS)
def test_outputs_match_golden(golden_outputs, name):
    _assert_files_match(golden_outputs(name), DATA / f"{name}_golden")


def test_rejected_runs_write_nothing(golden_outputs):
    """No rejected preprocess, postprocess or filter adds, removes or changes a file or directory under out/."""
    console = golden_outputs("input_fault")["console.txt"].decode("utf-8")
    verdicts = [line for line in console.splitlines() if line.startswith("out/ ")]
    assert len(verdicts) == 21
    assert set(verdicts) == {"out/ unchanged"}


def test_preprocess_and_postprocess_match_golden():
    golden = DATA / "segments_golden.jsonl"
    expected = [json.loads(line) for line in golden.read_text(encoding="utf-8").splitlines()]
    actual = make_segments_golden.records()
    assert len(actual) == len(expected) == make_segments_golden.N_TRIPLETS
    for got, want in zip(actual, expected):
        assert got == want, f"triplet {want['id']} differs from the golden file"
