"""Measurement and verification tools: the mpiP-style profiler (§5.2),
ScalaReplay (§5.2), trace comparison, and report rendering."""

from repro.tools.compare import (compression_ratio, normalized_stream,
                                 total_recorded_time, traces_equivalent)
from repro.tools.matrix import (communication_matrix, hotspots,
                                matrices_equal, render_matrix)
from repro.tools.mpip import (DATA_OPS, MpiPHook, OpStats, canonical_profile,
                              profiles_close, stats_match)
from repro.tools.replay import replay_program, replay_trace
from repro.tools.report import render_table

__all__ = [
    "DATA_OPS",
    "communication_matrix",
    "hotspots",
    "matrices_equal",
    "render_matrix",
    "MpiPHook",
    "OpStats",
    "canonical_profile",
    "compression_ratio",
    "normalized_stream",
    "profiles_close",
    "render_table",
    "replay_program",
    "replay_trace",
    "stats_match",
    "total_recorded_time",
    "traces_equivalent",
]
