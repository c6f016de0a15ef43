"""Re-trace a transformed event stream back into compressed form.

Algorithms 1 and 2 conceptually rewrite the trace (unified collective call
sites; resolved wildcard sources).  Both apply their outputs here, by
decompressing each rank's stream, substituting, and feeding the result
through the same on-the-fly compression and radix merge the tracer uses —
which is exactly the paper's "append an RSD to the output queue, then
compress" step and preserves its guarantees: one RSD per collective,
per-rank event order intact, output still compressed.
"""

from __future__ import annotations

from typing import List

from repro import obs
from repro.mpi.hooks import P2P_OPS, WAIT_OPS
from repro.scalatrace.compress import CompressionQueue, compress_node_list
from repro.scalatrace.merge import merge_traces
from repro.scalatrace.rsd import Trace, replay_deltas
from repro.generator.traversal import TraversalResult


def retrace_ranks(trace: Trace, result: TraversalResult) -> List[Trace]:
    """Every rank's event stream with the traversal's substitutions
    applied, re-compressed on its own without folding loops around
    collectives (the input :func:`rebuild_trace` merges)."""
    per_rank = []
    with obs.span("generator.retrace", ranks=trace.world_size):
        for rank in range(trace.world_size):
            queue = CompressionQueue(rank, fold_collectives=False)
            for ev, delta in replay_deltas(trace.iter_rank(rank)):
                node = ev.node
                key = (id(node), rank, ev.instance)
                callsite = result.callsite_map.get(key, node.callsite)
                peer = result.resolutions.get(key, ev.peer)
                kwargs = {}
                if ev.op in P2P_OPS:
                    kwargs.update(peer=peer, size=ev.size, tag=ev.tag)
                elif ev.op in WAIT_OPS:
                    kwargs.update(wait_offsets=ev.wait_offsets)
                else:
                    kwargs.update(size=ev.size, root=ev.root)
                queue.append_event(ev.op, callsite, ev.comm_id,
                                   delta_t=delta, **kwargs)
            per_rank.append(Trace(trace.world_size, queue.nodes,
                                  dict(trace.comm_table)))
    return per_rank


def rebuild_trace(trace: Trace, result: TraversalResult) -> Trace:
    """New compressed trace with the traversal's substitutions applied.

    Each rank is re-traced without folding loops around collectives,
    the ranks are merged, and one global pass recompresses the result.
    Collectives then occupy one structural slot per logical operation on
    every rank, so the merge unifies them (Algorithm 1), and per-rank
    streams that would fold differently once their wildcard sources
    differ cannot split already-aligned collectives (Algorithm 2); the
    global pass restores the loop structure (§4.3's output-queue
    compression).
    """
    rebuilt = merge_traces(retrace_ranks(trace, result))
    rebuilt.nodes = compress_node_list(rebuilt.nodes)
    return rebuilt
