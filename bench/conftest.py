"""Test set-up: miqueldyn from src/ and the benchmark modules from here."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
for _path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
