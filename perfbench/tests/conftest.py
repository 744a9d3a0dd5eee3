import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
SRC = PERFBENCH.parent / "src"
for path in (str(SRC), str(PERFBENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)
