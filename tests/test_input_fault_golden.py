"""Every input fault the CLI rejects keeps its console line and exit code.

The golden inputs and console lines come from
tests/data/make_input_fault_golden.py; any change in an error message, the
order in which inputs are checked, or an exit code shows up here.
"""

import importlib.util
import shutil
from pathlib import Path

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


def test_console_matches_golden(tmp_path):
    shutil.copytree(GOLDEN_DIR / "in", tmp_path / "in")
    outputs = make_input_fault_golden.run_commands(tmp_path)
    golden = sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_file())
    assert sorted(outputs) == golden
    for name in golden:
        assert outputs[name] == (GOLDEN_DIR / name).read_text(encoding="utf-8"), name
