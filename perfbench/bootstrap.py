"""Puts the checkout's own ``src`` first on ``sys.path``.

Every entry script of the benchmark imports this module before ``patbench``,
so the package measured is always the one in this checkout, never an
installed copy.  Importing it fails when the checkout holds no
``src/patbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "patbench" / "__init__.py").is_file():
    raise ImportError(f"no patbench package under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
