"""Make the program's sources importable for the benchmark's own tests.

Run them from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
