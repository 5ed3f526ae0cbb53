"""Where the benchmark tests write their result files.

The committed results live in ``benchmarks/results/``.  A plain test run
writes to the git-ignored ``benchmarks/results/local/`` instead, so
verifying a checkout never rewrites them; set ``REPRO_BENCH_RECORD=1`` to
record new committed numbers.
"""

import os
from pathlib import Path

RECORD_ENV = "REPRO_BENCH_RECORD"
RESULTS_DIR = Path(__file__).parent / "results"


def results_path(filename: str) -> Path:
    """``results/<filename>`` when recording, else ``results/local/<filename>``."""
    if os.environ.get(RECORD_ENV) == "1":
        return RESULTS_DIR / filename
    return RESULTS_DIR / "local" / filename
