"""filter, stats and ablate outputs match the golden files byte for byte, timestamp aside.

The golden corpus, config, scores file, reports, splits, curve CSV and
console lines come from tests/data/make_report_golden.py; any change in a
written byte, a key order, a console line or an exit code shows up here.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "data" / "report_golden"
_spec = importlib.util.spec_from_file_location(
    "make_report_golden", Path(__file__).parent / "data" / "make_report_golden.py"
)
make_report_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_report_golden)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("report_golden")
    shutil.copytree(GOLDEN_DIR / "in", work / "in")
    return make_report_golden.run_commands(work)


def test_inputs_are_the_generated_ones(tmp_path):
    make_report_golden.write_inputs(tmp_path)
    written = sorted(p.name for p in (tmp_path / "in").iterdir())
    assert written == sorted(p.name for p in (GOLDEN_DIR / "in").iterdir())
    for name in written:
        assert (tmp_path / "in" / name).read_bytes() == (GOLDEN_DIR / "in" / name).read_bytes()


def test_outputs_match_golden(outputs):
    golden = sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_file())
    assert sorted(outputs) == golden
    for name in golden:
        assert outputs[name] == (GOLDEN_DIR / name).read_text(encoding="utf-8"), name
