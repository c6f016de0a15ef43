"""Inter-rank (radix) trace merging.

At MPI_Finalize time ScalaTrace combines the per-rank compressed traces
into one global trace whose RSDs carry rank *sets* (§3.1).  We reproduce
that with a binary merge tree: traces are merged pairwise, aligning the
two node sequences with a weighted LCS over mergeable nodes.

Nodes that align merge by unioning their rank sets and re-expressing
parameter differences as closed-form :class:`~repro.util.expr.ParamExpr`
(e.g. a ring's ``dest = rank+1 mod N``) when possible, falling back to
per-rank tables — never discarding information.  Nodes that do not align
are interleaved in an order preserving both inputs' program orders, each
keeping its own rank set (this is how e.g. "rank 0 sends, ranks 1..N-1
receive" coexists inside one merged loop body).

A pair merge first **plans** on interned structure ids (an event's id
stands for its signature, instance count and parameter presence, a
loop's for its count and children's ids, so equal ids mean identical
structure): events merge iff their ids are equal (``merge_ranks`` never
fails), loops iff their counts are equal and their bodies align on at
least one pair, and a loop pair's plan is memoized on its id pair.  It
then **builds** merged nodes only along the chosen alignment.  On top:

* an **identical-sequence fast path** — in the common SPMD case every
  rank records the same call structure, so equal id sequences align
  diagonally without the O(n·m) LCS DP.  It is only taken when the
  diagonal is *provably* what the DP would pick (see
  :func:`_diagonal_safe`), so output bytes never depend on which path
  ran;
* a **streaming accumulator** (:class:`TraceMergeAccumulator`) — a
  binomial binary counter over per-rank node lists that keeps at most
  ``log2(P)+1`` partial merges live while producing the exact same merge
  association tree as the level-order pairwise reduction it replaced.
  Ranks can be fed (in rank order) as they finish and their queues
  dropped immediately, which is what bounds the tracer's peak memory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.mpi.hooks import COLLECTIVE_OPS
from repro.scalatrace.rsd import EventNode, LoopNode, Node, Trace
from repro.util.rankset import RankSet

_PARAM_FIELDS = ("peer", "size", "tag", "root")

#: Process-wide toggle for the identical-sequence fast path; flipped by
#: :func:`set_merge_fastpath` (benchmarks and the byte-identity
#: regression tests use it to time/compare the pure-LCS baseline).
_FASTPATH = True


def set_merge_fastpath(enabled: bool) -> bool:
    """Enable/disable the identical-sequence merge fast path.

    Returns the previous setting so callers can restore it in a
    ``try/finally``.  The fast path never changes merge output — this
    exists so baselines and regression tests can exercise the LCS path
    on inputs the splice would otherwise shortcut."""
    global _FASTPATH
    prev = _FASTPATH
    _FASTPATH = bool(enabled)
    return prev


def _event_keys(node: Node) -> set:
    """(signature, instances) of every event in a node's subtree."""
    keys = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, EventNode):
            keys.add((n.sig, n.instances))
        else:
            stack.extend(n.body)
    return keys


def _diagonal_safe(nodes: List[Node]) -> bool:
    """True when the all-diagonal alignment of ``nodes`` against a
    structurally identical copy is provably the alignment the weighted
    LCS DP picks — the condition for the splice to be byte-identical.

    Event↔event cross matches are weight-conserving (the merged node
    weighs exactly what each side weighs), so any alignment built from
    them totals at most the diagonal's weight, and the traceback's
    match-first tie-break then yields the diagonal.  The only way an
    off-diagonal alignment can *out-weigh* the diagonal is a loop↔loop
    cross merge, whose supersequence body can weigh more than either
    side.  Such a merge needs equal counts and at least one shared body
    node — so the fast path is safe whenever no two distinct loops in
    the list have equal counts and overlapping event sets.  Compressed
    SPMD traces almost never trip this (distinct phases use distinct
    call sites); when they do we conservatively fall back to the DP."""
    loops = [n for n in nodes if isinstance(n, LoopNode)]
    if len(loops) < 2:
        return True
    by_count: Dict[int, List[LoopNode]] = {}
    for n in loops:
        by_count.setdefault(n.count, []).append(n)
    for group in by_count.values():
        if len(group) < 2:
            continue
        keysets = [_event_keys(n) for n in group]
        for i in range(len(keysets)):
            for j in range(i + 1, len(keysets)):
                if keysets[i] & keysets[j]:
                    return False
    return True


class _PairMerge:
    """Interned structure ids, memoized plans and the builder of one
    top-level :func:`merge_node_lists` call.  Ids are keyed on
    ``id(node)``, which a dropped accumulator partial can hand on to a
    new node, so an instance must never outlive its call."""

    def __init__(self, comm_table: Dict[int, Tuple[int, ...]]):
        self.comm_table = comm_table
        self._sid: Dict[int, int] = {}
        self._interned: Dict[tuple, int] = {}
        #: structure id -> weight of a node with that structure
        self._weight: List[int] = []
        #: (loop id, loop id) -> (merged weight, body pairs), or None
        self._plans: Dict[Tuple[int, int], Optional[tuple]] = {}
        #: comm id -> (world → comm rank map, None for the identity;
        #: comm size)
        self._comms: Dict[int, tuple] = {}
        self.built = 0

    def sid(self, node: Node) -> int:
        """Interned structure id; equal ids mean identical structure."""
        s = self._sid.get(id(node))
        if s is None:
            if isinstance(node, EventNode):
                key = (node.sig, node.instances, node.peer is None,
                       node.size is None, node.tag is None,
                       node.root is None)
                # Collectives dominate: when matching a point-to-point
                # pair conflicts in order with matching a collective
                # pair, the collective must win — this is how the merge
                # realizes Algorithm 1's guarantee that one logical
                # collective becomes one RSD.
                weight = 10_000 if node.op in COLLECTIVE_OPS else 1
            else:
                body = tuple([self.sid(n) for n in node.body])
                key = (node.count, body)
                # loops inherit the weight of their contents
                weight = sum(self._weight[c] for c in body)
            s = self._interned.get(key)
            if s is None:
                s = self._interned[key] = len(self._weight)
                self._weight.append(weight)
            self._sid[id(node)] = s
        return s

    def weight(self, a: Node, b: Node) -> Optional[int]:
        """Weight of the node merging ``a`` and ``b`` would make, or
        None when they do not merge."""
        sa, sb = self.sid(a), self.sid(b)
        if isinstance(a, EventNode):
            # merge_ranks never fails: identical structure is the test
            return self._weight[sa] if sa == sb else None
        if not isinstance(b, LoopNode) or a.count != b.count:
            return None
        if (sa, sb) not in self._plans:
            # bodies merge as an order-preserving supersequence: nodes
            # present on only one side keep their own rank sets (this is
            # how "rank 0 sends, interior ranks receive then send"
            # coexists in one loop).  Require at least one genuinely
            # shared node, though — otherwise any two equal-count loops
            # would merge, and those spurious matches displace
            # collective alignment in the outer LCS.
            pairs = self.align(a.body, b.body)
            plan = None
            if pairs:
                # the merged body is both bodies with each matched
                # couple replaced by its merged node
                plan = (self._weight[sa] + self._weight[sb] + sum(
                    w - self._weight[self.sid(a.body[i])]
                    - self._weight[self.sid(b.body[j])]
                    for i, j, w in pairs), pairs)
            self._plans[(sa, sb)] = plan
        plan = self._plans[(sa, sb)]
        return None if plan is None else plan[0]

    def align(self, xs: List[Node], ys: List[Node]) -> List[tuple]:
        """(i, j, merged weight) of each pair the maximum-weight
        alignment matches.

        Identical-sequence fast path: equal id sequences align
        diagonally, skipping the O(n·m) DP.  Gated by
        :func:`_diagonal_safe` so the diagonal is what the DP's
        traceback would produce; any doubt falls through to the DP."""
        if _FASTPATH and xs \
                and [self.sid(x) for x in xs] == [self.sid(y) for y in ys] \
                and _diagonal_safe(xs):
            pairs = [(i, i, self.weight(x, y))
                     for i, (x, y) in enumerate(zip(xs, ys))]
            if all(w is not None for _, _, w in pairs):
                obs.count("scalatrace.merge_fastpath_hits", 1)
                return pairs
        n, m = len(xs), len(ys)
        obs.count("scalatrace.lcs_cells", n * m)
        weights = [[self.weight(x, y) for y in ys] for x in xs]
        dp = [[0] * (m + 1) for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            row, below, wrow = dp[i], dp[i + 1], weights[i]
            for j in range(m - 1, -1, -1):
                best = max(below[j], row[j + 1])
                if wrow[j] is not None:
                    best = max(best, below[j + 1] + wrow[j])
                row[j] = best
        pairs = []
        i = j = 0
        while i < n and j < m:
            w = weights[i][j]
            if w is not None and dp[i][j] == dp[i + 1][j + 1] + w:
                pairs.append((i, j, w))
                i += 1
                j += 1
            elif dp[i + 1][j] >= dp[i][j + 1]:
                i += 1
            else:
                j += 1
        obs.count("scalatrace.lcs_alignments", len(pairs))
        return pairs

    def weave(self, xs: List[Node], ys: List[Node],
              pairs: List[tuple]) -> List[Node]:
        """Shortest common supersequence around ``pairs``, building a
        merged node for each pair."""
        out: List[Node] = []
        xi = yi = 0
        for i, j, _ in pairs:
            out.extend(xs[xi:i])
            out.extend(ys[yi:j])
            out.append(self.build(xs[i], ys[j]))
            xi, yi = i + 1, j + 1
        out.extend(xs[xi:])
        out.extend(ys[yi:])
        return out

    def build(self, a: Node, b: Node) -> Node:
        """The merged node of a planned pair."""
        self.built += 1
        if isinstance(a, LoopNode):
            _, pairs = self._plans[(self.sid(a), self.sid(b))]
            return LoopNode(a.count, self.weave(a.body, b.body, pairs),
                            a.ranks | b.ranks)
        hit = self._comms.get(a.comm_id)
        if hit is None:
            ranks = self.comm_table.get(a.comm_id) or ()
            identity = all(w == i for i, w in enumerate(ranks))
            hit = self._comms[a.comm_id] = (
                None if identity else {w: i for i, w in enumerate(ranks)},
                len(ranks) or None)
        index, comm_size = hit
        if index is None:
            a_cranks, b_cranks = a.ranks, b.ranks
        else:
            a_cranks = RankSet([index.get(r, r) for r in a.ranks])
            b_cranks = RankSet([index.get(r, r) for r in b.ranks])
        merged = {}
        for name in _PARAM_FIELDS:
            fa = getattr(a, name)
            # merge in communicator-rank space (peers are comm-relative);
            # always succeeds (irregular variation falls back to the
            # lossless per-rank map)
            merged[name] = None if fa is None else fa.merge_ranks(
                a_cranks, getattr(b, name), b_cranks, comm_size)
        time_first = a.time_first.copy()
        time_first.merge(b.time_first)
        time_rest = a.time_rest.copy()
        time_rest.merge(b.time_rest)
        return EventNode(a.op, a.callsite, a.comm_id, a.ranks | b.ranks,
                         a.instances, merged["peer"], merged["size"],
                         merged["tag"], merged["root"], a.wait_offsets,
                         time_first, time_rest)


def merge_node_lists(xs: List[Node], ys: List[Node],
                     comm_table) -> List[Node]:
    """Order-preserving merge (shortest common supersequence around the
    maximum-weight alignment of mergeable nodes): plan the alignment on
    structure ids, then build merged nodes along it."""
    merge = _PairMerge(comm_table)
    out = merge.weave(xs, ys, merge.align(xs, ys))
    if merge.built:
        obs.count("scalatrace.merge_nodes_built", merge.built)
    return out


class TraceMergeAccumulator:
    """Streaming binary-counter merge of per-rank node lists.

    Feed node lists one rank at a time, **in rank order**, and read the
    merged result off :meth:`result`.  Internally this is a binomial
    binary counter: singleton lists merge into span-2 partials, equal
    span partials merge on arrival, so at most ``log2(P)+1`` partial
    merges are ever live — the seam that lets the tracer drop each
    rank's compression queue the moment that rank finalizes, instead of
    holding all P per-rank traces until run end.

    Byte-identity contract: finalizing the counter by folding the
    remaining partials smallest-first produces *exactly* the merge
    association tree of the level-order pairwise reduction this class
    replaced (the tie-off of an incomplete binary tree is the same
    either way; ``tests/scalatrace/test_merge.py`` pins this against a
    reference reduction on every app preset), so results are
    byte-identical to the pre-streaming merge for any rank count.
    """

    def __init__(self, world_size: Optional[int] = None,
                 comm_table: Optional[Dict[int, Tuple[int, ...]]] = None):
        self.world_size = world_size
        #: comm_id -> ordered world ranks; grows as rank tables arrive.
        #: Any comm referenced by a fed node list must already be
        #: present (callers feed each rank's table alongside its nodes).
        self.comm_table: Dict[int, Tuple[int, ...]] = dict(comm_table or {})
        #: (span, nodes) partial merges, largest span first.
        self._partials: List[Tuple[int, List[Node]]] = []
        #: How many per-rank lists have been fed.
        self.fed = 0

    def add(self, trace: Trace) -> None:
        """Feed one per-rank trace (nodes + comm table)."""
        if self.world_size is None:
            self.world_size = trace.world_size
        self.comm_table.update(trace.comm_table)
        self.add_nodes(trace.nodes)

    def add_nodes(self, nodes: List[Node],
                  comm_table: Optional[Dict[int, Tuple[int, ...]]] = None
                  ) -> None:
        """Feed one rank's node list (the Trace-free seam the streaming
        tracer uses); merges equal-span partials immediately."""
        if comm_table:
            self.comm_table.update(comm_table)
        span = 1
        while self._partials and self._partials[-1][0] == span:
            _, prev = self._partials.pop()
            nodes = merge_node_lists(prev, nodes, self.comm_table)
            obs.count("scalatrace.pair_merges", 1)
            span *= 2
        self._partials.append((span, nodes))
        self.fed += 1

    def live_node_count(self) -> int:
        """Nodes currently held across all partial merges (the term the
        tracer samples into ``scalatrace.nodes_live_peak``)."""
        from repro.scalatrace.rsd import count_nodes
        return sum(count_nodes(nodes) for _, nodes in self._partials)

    def result(self) -> Trace:
        """Finalize: fold remaining partials smallest-first (earlier
        ranks stay the left operand) and return the merged trace."""
        if not self._partials:
            raise ValueError("no traces to merge")
        obs.count("scalatrace.merge_depth", (self.fed - 1).bit_length())
        span, nodes = self._partials[-1]
        for pspan, prev in reversed(self._partials[:-1]):
            nodes = merge_node_lists(prev, nodes, self.comm_table)
            obs.count("scalatrace.pair_merges", 1)
            span += pspan
        self._partials = [(span, nodes)]
        if self.world_size is None:
            raise ValueError("accumulator was never told a world size")
        return Trace(self.world_size, nodes, self.comm_table)


def merge_traces(traces: List[Trace]) -> Trace:
    """Binary (radix-tree) merge of per-rank traces into a global trace.

    Implemented on :class:`TraceMergeAccumulator`; output is
    byte-identical to the level-order pairwise reduction."""
    if not traces:
        raise ValueError("no traces to merge")
    world_size = traces[0].world_size
    comm_table: Dict[int, Tuple[int, ...]] = {}
    for t in traces:
        comm_table.update(t.comm_table)
    with obs.span("scalatrace.merge", traces=len(traces)):
        if len(traces) == 1:
            obs.count("scalatrace.merge_depth", 0)
            result = traces[0]
        else:
            acc = TraceMergeAccumulator(world_size, comm_table)
            for t in traces:
                acc.add_nodes(t.nodes)
            result = acc.result()
    result.comm_table = comm_table
    return result
