"""mpiP-style lightweight MPI profiling (Vetter & McCracken).

The paper's §5.2 correctness check links both the original application and
the generated benchmark against mpiP and compares, per MPI operation type,
the event counts and message volumes.  :class:`MpiPHook` gathers exactly
those statistics from the interposition stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.mpi.hooks import COLLECTIVE_OPS, MPIEvent, MPIHook, P2P_OPS

#: Operations counted as data movement (waits and communicator management
#: are bookkeeping, not traffic, and their counts legitimately differ
#: between an application and its generated benchmark).
DATA_OPS = (P2P_OPS | COLLECTIVE_OPS) - {
    "Finalize", "Comm_split", "Comm_dup"}


@dataclass
class OpStats:
    calls: int = 0
    bytes: int = 0

    def add(self, nbytes: int) -> None:
        self.calls += 1
        self.bytes += nbytes


class MpiPHook(MPIHook):
    """Collects per-op call counts and message volumes, per rank and
    aggregated."""

    def __init__(self, track_ops: Optional[Set[str]] = None):
        self.track_ops = track_ops if track_ops is not None else DATA_OPS
        self.per_rank: Dict[Tuple[int, str], OpStats] = {}
        self.total: Dict[str, OpStats] = {}

    def on_event(self, event: MPIEvent) -> None:
        if event.op not in self.track_ops:
            return
        nbytes = event.total_bytes
        if event.op == "Alltoall":
            # scalar alltoall records the per-destination payload; scale
            # to the full per-rank volume so it is commensurable with
            # Alltoallv's size vector
            nbytes *= event.comm.size
        self.per_rank.setdefault((event.rank, event.op),
                                 OpStats()).add(nbytes)
        self.total.setdefault(event.op, OpStats()).add(nbytes)

    # -- queries ------------------------------------------------------------
    def calls(self, op: str) -> int:
        return self.total.get(op, OpStats()).calls

    def bytes(self, op: str) -> int:
        return self.total.get(op, OpStats()).bytes

    def snapshot(self) -> Dict[str, Tuple[int, int]]:
        """op -> (calls, bytes), aggregated over ranks."""
        return {op: (s.calls, s.bytes) for op, s in sorted(self.total.items())}

    def rank_snapshot(self, rank: int) -> Dict[str, Tuple[int, int]]:
        out = {}
        for (r, op), s in self.per_rank.items():
            if r == rank:
                out[op] = (s.calls, s.bytes)
        return dict(sorted(out.items()))

    def report(self) -> str:
        lines = ["op | calls | bytes"]
        for op, s in sorted(self.total.items()):
            lines.append(f"{op} | {s.calls} | {s.bytes}")
        return "\n".join(lines)


def stats_match(a: MpiPHook, b: MpiPHook,
                per_rank: bool = True) -> Tuple[bool, str]:
    """Compare two profiles; returns (equal, human-readable diff)."""
    diffs = []
    if a.snapshot() != b.snapshot():
        sa, sb = a.snapshot(), b.snapshot()
        for op in sorted(set(sa) | set(sb)):
            if sa.get(op) != sb.get(op):
                diffs.append(f"{op}: {sa.get(op)} vs {sb.get(op)}")
    if per_rank and not diffs:
        ranks = {r for r, _ in a.per_rank} | {r for r, _ in b.per_rank}
        for r in sorted(ranks):
            ra, rb = a.rank_snapshot(r), b.rank_snapshot(r)
            if ra != rb:
                for op in sorted(set(ra) | set(rb)):
                    if ra.get(op) != rb.get(op):
                        diffs.append(
                            f"rank {r} {op}: {ra.get(op)} vs {rb.get(op)}")
    if diffs:
        return False, "; ".join(diffs[:20])
    return True, "profiles identical"


#: Table 1 substitution families: each vector collective is compared
#: through its scalar counterpart
_FAMILIES = {"Alltoallv": "Alltoall", "Gatherv": "Gather",
             "Scatterv": "Scatter", "Allgatherv": "Allgather"}


def canonical_profile(hook: MpiPHook) -> Dict[str, Tuple[int, int]]:
    """Substitution-aware canonicalization of an mpiP profile.

    Table 1 maps each vector collective onto its scalar counterpart with
    averaged sizes, so for comparison purposes the families are merged:
    Alltoallv→Alltoall, Gatherv→Gather, Scatterv→Scatter,
    Allgatherv→Allgather.  Counts stay exact; volumes may differ by the
    averaging remainder (checked with a tolerance by
    :func:`profiles_close`).
    """
    out: Dict[str, Tuple[int, int]] = {}
    for op, (calls, nbytes) in hook.snapshot().items():
        key = _FAMILIES.get(op, op)
        c, b = out.get(key, (0, 0))
        out[key] = (c + calls, b + nbytes)
    return out


def profiles_close(a: Dict[str, Tuple[int, int]],
                   b: Dict[str, Tuple[int, int]],
                   vol_tol: float = 0.01) -> Tuple[bool, str]:
    """The §5.2 check on two canonical profiles: per-op counts must match
    exactly, volumes within ``vol_tol`` relative."""
    if set(a) != set(b):
        return False, f"op sets differ: {sorted(a)} vs {sorted(b)}"
    for op in a:
        ca, ba = a[op]
        cb, bb = b[op]
        if ca != cb:
            return False, f"{op}: {ca} vs {cb} calls"
        denom = max(ba, bb, 1)
        if abs(ba - bb) / denom > vol_tol:
            return False, f"{op}: {ba} vs {bb} bytes"
    return True, "profiles match"
