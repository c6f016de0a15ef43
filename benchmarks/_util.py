"""Shared helpers for the benchmark harness.

Every bench prints the table/figure series it regenerates (run pytest
with ``-s`` to see them inline) and appends it to
``benchmarks/results.txt`` so the output survives capture.
"""

from __future__ import annotations

import os
import sys

# the §5.2 profile comparison lives in repro.tools, shared with the tests
from repro.tools.mpip import canonical_profile, profiles_close  # noqa: F401

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")


def emit(text: str) -> None:
    print(text)
    sys.stdout.flush()
    with open(RESULTS_PATH, "a") as fh:
        fh.write(text + "\n")


def reset_results(header: str) -> None:
    with open(RESULTS_PATH, "a") as fh:
        fh.write("\n" + "=" * 72 + "\n" + header + "\n" + "=" * 72 + "\n")
