"""Differential tests: the planned merge against the trial-merge oracle.

The shipped pair merge decides every LCS cell from interned structure
and builds merged nodes only along the chosen alignment; the oracle
(:mod:`tests.scalatrace.merge_oracle`) builds a real merged node for
every cell it tests.  Both must serialize to the same bytes, with the
identical-sequence fast path on and off, on the per-rank traces of
every registry app, on the re-traced inputs Algorithms 1 and 2 merge,
and on drawn streams shaped to defeat the fast path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps import APPS, make_app
from repro.apps.registry import valid_rank_counts
from repro.generator.api import trace_application
from repro.generator.rebuild import retrace_ranks
from repro.generator.traversal import TraceScheduler
from repro.mpi import run_spmd
from repro.mpi.hooks import MPIHook
from repro.scalatrace import (CompressionQueue, Trace, dumps_trace,
                              ingest_event, merge_node_lists, merge_traces,
                              set_merge_fastpath)
from repro.scalatrace.rsd import count_nodes
from repro.util.callsite import Callsite
from tests.scalatrace.merge_oracle import merger


class PerRankHook(MPIHook):
    """Collect every rank's compressed node list, unmerged."""

    def __init__(self):
        self._queues = {}
        self._last_end = {}
        self.traces = None

    def on_event(self, event):
        q = self._queues.get(event.rank)
        if q is None:
            q = self._queues[event.rank] = CompressionQueue(event.rank)
        ingest_event(q, self._last_end, event)

    def on_run_end(self, world):
        comm_table = {c.id: c.world_ranks
                      for c in world.registry.all_comms()}
        self.traces = [Trace(world.size,
                             self._queues[r].nodes
                             if r in self._queues else [],
                             dict(comm_table))
                       for r in range(world.size)]


def per_rank_traces(app, np):
    hook = PerRankHook()
    run_spmd(make_app(app, np), nranks=np, hooks=[hook])
    return hook.traces


def merged_bytes(traces, mode, fastpath=True):
    prev = set_merge_fastpath(fastpath)
    try:
        with merger(mode):
            return dumps_trace(merge_traces(traces))
    finally:
        set_merge_fastpath(prev)


def assert_matches_oracle(traces, fastpath=True):
    assert merged_bytes(traces, "planned", fastpath) \
        == merged_bytes(traces, "trial", fastpath)


def _app_cells():
    for app in sorted(APPS):
        for np in (valid_rank_counts(app, [8, 9])[0], 16):
            yield f"{app}/np{np}"


class TestRegistryApps:
    @pytest.mark.parametrize("cell", list(_app_cells()))
    def test_per_rank_merge_matches_oracle(self, cell):
        app, np = cell.split("/np")
        assert_matches_oracle(per_rank_traces(app, int(np)))


def rebuild_input(app, np, block_p2p):
    """The re-traced per-rank traces ``rebuild_trace`` merges."""
    trace = trace_application(make_app(app, np), np)
    result = TraceScheduler(trace, block_p2p=block_p2p).run()
    return retrace_ranks(trace, result)


class TestRebuildInputs:
    # sweep3d needs Algorithm 1 (collective alignment), lu Algorithm 2
    # (wildcard resolution, which blocks on point-to-point)
    @pytest.mark.parametrize("app,block_p2p", [("sweep3d", False),
                                               ("lu", True)])
    @pytest.mark.parametrize("fastpath", [True, False])
    def test_rebuild_merge_matches_oracle(self, app, block_p2p, fastpath):
        assert_matches_oracle(rebuild_input(app, 16, block_p2p), fastpath)

    def test_merged_nodes_built_only_along_the_alignment(self):
        # Every node the pair merge builds is in its output, so the
        # build count is bounded by the output's size.  A merge that
        # builds a node per tested DP cell exceeds it several times
        # over on this pair (ranks 0 and 1 differ in structure, so the
        # DP runs and scores loop cells).
        per_rank = rebuild_input("sweep3d", 16, False)
        with obs.instrumented() as inst:
            out = merge_node_lists(per_rank[0].nodes, per_rank[1].nodes,
                                   per_rank[0].comm_table)
        counters = {r["name"]: r["value"] for r in inst.counter_records()}
        assert counters.get("scalatrace.lcs_cells", 0) > 0
        assert 0 < counters["scalatrace.merge_nodes_built"] \
            <= count_nodes(out)


WORLD = 4

#: (op, call-site line); a small alphabet so blocks share call sites
_op = st.sampled_from([("Isend", 1), ("Isend", 2), ("Irecv", 3),
                       ("Allreduce", 4), ("Barrier", 5), ("Bcast", 6)])
#: (body, repetitions): repeated bodies fold into loops; equal counts
#: over shared call sites give distinct equal-count loops that share
#: events — where the diagonal fast path must decline
_block = st.tuples(st.lists(_op, min_size=1, max_size=3),
                   st.integers(1, 3))
_program = st.lists(_block, min_size=1, max_size=5)


def build_trace(rank, program):
    q = CompressionQueue(rank)
    for body, reps in program:
        for _ in range(reps):
            for op, line in body:
                cs = Callsite.synthetic("m", line)
                if op == "Isend":
                    q.append_event(op, cs, 0, peer=(rank + 1) % WORLD,
                                   size=64, tag=0)
                elif op == "Irecv":
                    q.append_event(op, cs, 0, peer=(rank - 1) % WORLD,
                                   size=0, tag=0)
                elif op == "Bcast" and rank % 2:
                    # same call site, another parameter presence pattern:
                    # these events must not merge with the even ranks'
                    q.append_event(op, cs, 0, size=8)
                elif op == "Bcast":
                    q.append_event(op, cs, 0, size=8, root=0)
                else:
                    q.append_event(op, cs, 0, size=8)
    return Trace(WORLD, q.nodes, {0: tuple(range(WORLD))})


class TestDrawnStreams:
    # one program shared by every rank exercises the fast path; up to
    # WORLD distinct programs exercise the DP on mixed structure
    @given(st.lists(_program, min_size=1, max_size=WORLD))
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("fastpath", [True, False])
    def test_merge_matches_oracle(self, fastpath, programs):
        traces = [build_trace(r, programs[r % len(programs)])
                  for r in range(WORLD)]
        assert_matches_oracle(traces, fastpath)
