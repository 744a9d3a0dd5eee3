"""Every input fault the CLI rejects keeps its console line and exit code.

The golden inputs and console lines come from
tests/data/make_input_fault_golden.py; any change in an error message, the
order in which inputs are checked, or an exit code shows up here.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "data" / "input_fault_golden"
_spec = importlib.util.spec_from_file_location(
    "make_input_fault_golden", Path(__file__).parent / "data" / "make_input_fault_golden.py"
)
make_input_fault_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_input_fault_golden)


def test_inputs_are_the_generated_ones(tmp_path):
    make_input_fault_golden.write_inputs(tmp_path)
    written = sorted(p.name for p in (tmp_path / "in").iterdir())
    assert written == sorted(p.name for p in (GOLDEN_DIR / "in").iterdir())
    for name in written:
        assert (tmp_path / "in" / name).read_bytes() == (GOLDEN_DIR / "in" / name).read_bytes()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("input_fault_golden")
    shutil.copytree(GOLDEN_DIR / "in", work / "in")
    return make_input_fault_golden.run_commands(work)


def test_console_matches_golden(outputs):
    golden = sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_file())
    assert sorted(outputs) == golden
    for name in golden:
        assert outputs[name] == (GOLDEN_DIR / name).read_text(encoding="utf-8"), name


def test_rejected_runs_write_nothing(outputs):
    """No rejected preprocess or postprocess adds, removes or changes a file or directory under out/."""
    verdicts = [line for line in outputs["console.txt"].splitlines() if line.startswith("out/ ")]
    assert len(verdicts) == 16
    assert set(verdicts) == {"out/ unchanged"}
