"""Make the benchmark modules and the package importable from the tests."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE.parent.parent / "src", HERE.parent):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
