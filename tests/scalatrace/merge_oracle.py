"""The reference pairwise merge: a trial-merge differential oracle.

:func:`repro.scalatrace.merge.merge_node_lists` plans its alignment on
interned structure ids and builds merged nodes only along the chosen
alignment.  This module keeps the straightforward weighted LCS it is
contracted to match: every cell the DP tests builds a real merged node
(:func:`_try_merge_nodes`, which for a loop pair merges the whole body
recursively), the node's own weight drives the DP, and the nodes on the
traceback are kept.  The suites diff the two and require byte-identical
dumps.

The oracle honours :func:`~repro.scalatrace.merge.set_merge_fastpath`:
with it on, two pairwise structurally identical lists that
:func:`~repro.scalatrace.merge._diagonal_safe` admits are spliced
position by position, exactly as the shipped merge decides.

Swap it in with :func:`merger`, which patches the pair merge that
:class:`~repro.scalatrace.merge.TraceMergeAccumulator` (and so
``merge_traces`` and the tracer) calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple
from unittest import mock

from repro.mpi.hooks import COLLECTIVE_OPS
from repro.scalatrace import merge as _merge
from repro.scalatrace.rsd import EventNode, LoopNode, Node
from repro.util.rankset import RankSet

#: executor names for ``pytest.mark.parametrize``: the oracle, then the
#: merge as shipped
MODES = ("trial", "planned")


@contextmanager
def merger(mode: str):
    """Run every pair merge started inside the block on ``mode``'s
    merge: ``"planned"`` is the merge as shipped, ``"trial"`` the
    oracle."""
    if mode == "planned":
        yield
        return
    if mode != "trial":
        raise ValueError(f"unknown merge {mode!r}: expected {MODES}")
    with mock.patch("repro.scalatrace.merge.merge_node_lists",
                    merge_node_lists):
        yield


def _try_merge_nodes(a: Node, b: Node,
                     comm_table: Dict[int, Tuple[int, ...]]) -> Optional[Node]:
    """Merged node covering both rank sets, or None if incompatible."""
    if isinstance(a, EventNode) and isinstance(b, EventNode):
        if a.signature() != b.signature() or a.instances != b.instances:
            return None
        comm_ranks = comm_table.get(a.comm_id)
        comm_size = len(comm_ranks) if comm_ranks else None
        index = {w: i for i, w in enumerate(comm_ranks)} if comm_ranks else {}
        a_cranks = [index.get(r, r) for r in a.ranks]
        b_cranks = [index.get(r, r) for r in b.ranks]
        merged = {}
        for name in ("peer", "size", "tag", "root"):
            fa, fb = getattr(a, name), getattr(b, name)
            if (fa is None) != (fb is None):
                return None
            if fa is None:
                merged[name] = None
                continue
            merged[name] = fa.merge_ranks(RankSet(a_cranks), fb,
                                          RankSet(b_cranks), comm_size)
        time_first = a.time_first.copy()
        time_first.merge(b.time_first)
        time_rest = a.time_rest.copy()
        time_rest.merge(b.time_rest)
        return EventNode(a.op, a.callsite, a.comm_id, a.ranks | b.ranks,
                         a.instances, merged["peer"], merged["size"],
                         merged["tag"], merged["root"], a.wait_offsets,
                         time_first, time_rest)
    if isinstance(a, LoopNode) and isinstance(b, LoopNode):
        if a.count != b.count:
            return None
        body = merge_node_lists(a.body, b.body, comm_table)
        if len(body) == len(a.body) + len(b.body):
            return None
        return LoopNode(a.count, body, a.ranks | b.ranks)
    return None


def _match_weight(node: Node) -> int:
    if isinstance(node, EventNode):
        return 10_000 if node.op in COLLECTIVE_OPS else 1
    return sum(_match_weight(n) for n in node.body)


def _identical_structure(a: Node, b: Node) -> bool:
    if isinstance(a, EventNode):
        return (isinstance(b, EventNode)
                and a.sig == b.sig
                and a.instances == b.instances
                and (a.peer is None) == (b.peer is None)
                and (a.size is None) == (b.size is None)
                and (a.tag is None) == (b.tag is None)
                and (a.root is None) == (b.root is None))
    if not isinstance(b, LoopNode):
        return False
    return (a.count == b.count
            and len(a.body) == len(b.body)
            and all(_identical_structure(x, y)
                    for x, y in zip(a.body, b.body)))


def _splice_identical(xs, ys, comm_table) -> Optional[List[Node]]:
    out: List[Node] = []
    for x, y in zip(xs, ys):
        merged = _try_merge_nodes(x, y, comm_table)
        if merged is None:
            return None
        out.append(merged)
    return out


def _lcs_pairs(xs, ys, comm_table) -> List[Tuple[int, int, Node]]:
    n, m = len(xs), len(ys)
    merged_cache: Dict[Tuple[int, int], Optional[Node]] = {}

    def mergeable(i, j):
        key = (i, j)
        if key not in merged_cache:
            merged_cache[key] = _try_merge_nodes(xs[i], ys[j], comm_table)
        return merged_cache[key]

    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            best = max(dp[i + 1][j], dp[i][j + 1])
            node = mergeable(i, j)
            if node is not None:
                best = max(best, dp[i + 1][j + 1] + _match_weight(node))
            dp[i][j] = best
    pairs = []
    i = j = 0
    while i < n and j < m:
        node = mergeable(i, j)
        if node is not None and \
                dp[i][j] == dp[i + 1][j + 1] + _match_weight(node):
            pairs.append((i, j, node))
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def merge_node_lists(xs: List[Node], ys: List[Node],
                     comm_table) -> List[Node]:
    """The reference order-preserving merge: the diagonal splice when
    the fast path is on and admits the pair, else the trial-merge DP."""
    if _merge._FASTPATH and xs and len(xs) == len(ys) \
            and all(_identical_structure(x, y) for x, y in zip(xs, ys)) \
            and _merge._diagonal_safe(xs):
        out = _splice_identical(xs, ys, comm_table)
        if out is not None:
            return out
    out: List[Node] = []
    xi = yi = 0
    for i, j, merged in _lcs_pairs(xs, ys, comm_table):
        out.extend(xs[xi:i])
        out.extend(ys[yi:j])
        out.append(merged)
        xi, yi = i + 1, j + 1
    out.extend(xs[xi:])
    out.extend(ys[yi:])
    return out
