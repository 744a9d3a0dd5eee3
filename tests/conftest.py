import importlib
import shutil
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DATA = TESTS / "data"
# tests/data holds the golden generators and their shared harness, golden.py.
for path in (str(SRC), str(DATA)):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="session")
def golden_outputs(tmp_path_factory):
    """golden_outputs(set) -> {file name: UTF-8 bytes} its commands write on a copy of its in/; each set runs once."""
    done = {}

    def run(name: str) -> dict:
        if name not in done:
            work = tmp_path_factory.mktemp(name)
            shutil.copytree(DATA / f"{name}_golden" / "in", work / "in")
            generator = importlib.import_module(f"make_{name}_golden")
            done[name] = {file: text.encode("utf-8") for file, text in generator.run_commands(work).items()}
        return done[name]

    return run
