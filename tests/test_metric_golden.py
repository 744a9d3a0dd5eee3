"""Metric reports match the golden files byte for byte, timestamp aside.

The golden reports and their inputs come from
tests/data/make_metric_golden.py; any change in a corpus score, a
per-sentence row or a bootstrap tally shows up here.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "data" / "metric_golden"
_spec = importlib.util.spec_from_file_location(
    "make_metric_golden", Path(__file__).parent / "data" / "make_metric_golden.py"
)
make_metric_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_metric_golden)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    work = tmp_path_factory.mktemp("metric_golden")
    shutil.copytree(GOLDEN_DIR / "in", work / "in")
    return make_metric_golden.run_reports(work)


def test_inputs_are_the_seeded_pairs(tmp_path):
    make_metric_golden.write_inputs(tmp_path)
    for name in ("mt.txt", "ape.txt", "ref.txt"):
        assert (tmp_path / "in" / name).read_bytes() == (GOLDEN_DIR / "in" / name).read_bytes()


@pytest.mark.parametrize("name", [name for name, _ in make_metric_golden.COMMANDS])
def test_report_matches_golden(reports, name):
    assert reports[name] == (GOLDEN_DIR / name).read_text(encoding="utf-8")
