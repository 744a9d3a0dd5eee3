"""The README's documented library imports resolve."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_import_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert block.count("from apekit.") == 9
    exec(compile(block, str(README), "exec"), {})
