"""Each metric report matches its golden file byte for byte, timestamp aside.

The golden reports and their inputs come from
tests/data/make_metric_golden.py; any change in a corpus score, a
per-sentence row or a bootstrap tally shows up here, one report per
test. tests/test_goldens.py checks the inputs and the set of report
names; both share one run of the commands.
"""

from pathlib import Path

import pytest

import make_metric_golden

GOLDEN_DIR = Path(__file__).parent / "data" / "metric_golden"


@pytest.mark.parametrize("name", [name for name, _ in make_metric_golden.COMMANDS])
def test_report_matches_golden(golden_outputs, name):
    assert golden_outputs("metric")[name] == (GOLDEN_DIR / name).read_bytes()
