"""Thread pinning and package import shared by the benchmark's scripts.

Nothing here imports numpy, so a script can pin the BLAS and OpenMP
thread pools before the first numpy import.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> dict:
    """Run every numeric library single-threaded, in this process and its children."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_alohagame():
    """Import the package from this checkout's ``src``, never from elsewhere.

    Exits with status 2 when the checkout has no sources, so the
    benchmark cannot silently measure an installed copy.
    """
    package = SRC / "alohagame"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run the benchmark from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import alohagame

    if Path(alohagame.__file__).resolve().parent != package.resolve():
        print(f"error: imported alohagame from {alohagame.__file__}, expected {package}", file=sys.stderr)
        sys.exit(2)
    return alohagame
