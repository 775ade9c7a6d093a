"""Where the checkout is, and ``src/`` on ``sys.path``.

The ledger runs from a plain checkout — nothing is installed — so every
entry point (``run.py``, ``child.py``, the tests) calls :func:`add_src`
before importing ``repro``.
"""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SRC = ROOT / "src"


def add_src() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
