"""The reference executor: a one-op-at-a-time differential oracle.

:func:`repro.sim.exec_batch.run_batch` is the engine's only executor.
This module keeps the straightforward loop it is contracted to match —
one generator step at a time through :func:`_step` / :func:`_apply`, an
``isinstance`` dispatch per op, a drain right after every post, the
canonical single-heap pop — so the suites can diff the two and require
bit-identical makespans, clocks, link stats and counters.

The oracle binds the reference scan :func:`repro.sim.policy.drain_policy`
as the engine's drain, never the candidate-heap ``drain_batch``.  Under
the canonical policy that scan takes the ``(est, src, seq)`` minimum the
goldens pin; under a seeded policy it enumerates candidates — and draws
from the policy's RNG — in the order ``run_batch`` does.

Swap it in with :func:`executor`, which patches
``repro.sim.engine.run_batch``.  Profiling is not modelled: an oracle
run leaves ``Engine.profile_phases`` unset, so it publishes no
``engine.profile.*`` counters.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from types import MethodType
from unittest import mock

from repro.errors import MPIUsageError, SimulationError
from repro.sim.exec_batch import _CollInstance
from repro.sim.matching import _PendingRecv
from repro.sim.ops import (ANY_SOURCE, Collective, Compute, PostRecv,
                           PostSend, Test, WaitAll, WaitAny)
from repro.sim.policy import drain_policy
from repro.sim.requests import Request
from repro.sim.sched import BLOCKED, DONE, READY

#: executor names for ``pytest.mark.parametrize``: the oracle, then the
#: engine as shipped
MODES = ("scalar", "batch")

#: returned by :func:`_apply` when a rank blocks
_BLOCK = object()


@contextmanager
def executor(mode: str):
    """Run every engine started inside the block on ``mode``'s executor:
    ``"batch"`` is the engine as shipped, ``"scalar"`` the oracle."""
    if mode == "batch":
        yield
        return
    if mode != "scalar":
        raise ValueError(f"unknown executor {mode!r}: expected {MODES}")
    with mock.patch("repro.sim.engine.run_batch", run_scalar):
        yield


def run_scalar(eng) -> None:
    """The reference main loop, a drop-in for ``run_batch(eng)``."""
    eng._drain = MethodType(drain_policy, eng)
    sched = eng._sched
    policy = eng.policy
    while True:
        eng.steps += 1
        if eng.max_steps is not None and eng.steps > eng.max_steps:
            raise SimulationError(
                f"exceeded max_steps={eng.max_steps}; likely livelock")
        deferred = eng._deferred_dsts
        if deferred:
            for dst in sorted(deferred):
                deferred.discard(dst)
                eng._drain(dst, relaxed=False)
        if eng._dirty:
            _resume_dirty(eng)
        rs = pop_ready(sched) if policy.canonical \
            else sched.pop_ready_policy(policy)
        if rs is not None:
            _step(eng, rs)
            continue
        if eng._done_count == eng.nranks:
            break
        # everyone blocked: try relaxed matching / resumption
        eng.deadlock_checks += 1
        if eng._relaxed_progress():
            continue
        if eng.crashed_ranks:
            eng._starve_blocked()
            break
        eng._raise_deadlock()


def pop_ready(sched):
    """Smallest-(clock, rank) READY rank via the lazy-deletion heap.

    An entry is pushed whenever a rank becomes READY; it is stale if
    the rank has since been stepped (state changed) or was re-queued
    at a later clock.
    """
    heap = sched.ready_heap
    ranks = sched.ranks
    while heap:
        clock, rank = heapq.heappop(heap)
        rs = ranks[rank]
        if rs.state == READY and rs.clock == clock:
            return rs
    return None


def _step(eng, rs) -> None:
    value = rs.pending_value
    rs.pending_value = None
    while True:
        if eng._crash_at is not None and \
                rs.clock >= eng._crash_at[rs.rank]:
            eng._crash_rank(rs)
            return
        eng.steps += 1
        if eng.max_steps is not None and eng.steps > eng.max_steps:
            raise SimulationError(
                f"exceeded max_steps={eng.max_steps}; likely livelock")
        try:
            op = rs.gen.send(value)
        except StopIteration:
            rs.state = DONE
            eng._done_count += 1
            eng._on_rank_done(rs)
            return
        value = _apply(eng, rs, op)
        if value is _BLOCK:
            rs.state = BLOCKED
            return


def _apply(eng, rs, op):
    if isinstance(op, Compute):
        if eng._faults is not None:
            rs.clock += op.duration * eng._faults.compute_factor(rs.rank)
        else:
            rs.clock += op.duration
        return None
    if isinstance(op, PostSend):
        return eng._apply_send(rs, op)
    if isinstance(op, PostRecv):
        return _apply_recv(eng, rs, op)
    if isinstance(op, WaitAll):
        done = eng._try_waitall(rs, op.requests, relaxed=False)
        if done is not None:
            return done
        rs.blocked_kind = "waitall"
        rs.blocked_data = op.requests
        _register_waiter(eng, rs, op.requests)
        return _BLOCK
    if isinstance(op, WaitAny):
        done = eng._try_waitany(rs, op.requests, relaxed=False)
        if done is not None:
            return done
        rs.blocked_kind = "waitany"
        rs.blocked_data = op.requests
        _register_waiter(eng, rs, op.requests)
        return _BLOCK
    if isinstance(op, Test):
        # a test succeeds only if the operation has completed by the
        # rank's current virtual time (MPI_Test never advances the clock)
        req = op.request
        if req.complete and req.completion <= rs.clock:
            return (True, req.status)
        return (False, None)
    if isinstance(op, Collective):
        return _apply_collective(eng, rs, op)
    raise MPIUsageError(f"rank {rs.rank} yielded non-op {op!r}")


def _register_waiter(eng, rs, requests) -> None:
    """Route future completions of ``requests`` to the blocking rank.

    A rank blocking on WaitAny with an already-complete request goes
    straight onto the dirty set: its resumability depends on the safety
    horizon (which moves as other ranks run), not on any new completion,
    so it must be re-examined every scheduler pass.
    """
    any_complete = False
    for req in requests:
        if req.complete:
            any_complete = True
        else:
            req.waiter = rs.rank
    if any_complete and rs.blocked_kind == "waitany":
        eng._dirty.add(rs.rank)


def _apply_recv(eng, rs, op: PostRecv) -> Request:
    if op.src != ANY_SOURCE and op.src >= eng.nranks:
        raise MPIUsageError(
            f"rank {rs.rank} receives from nonexistent rank {op.src}")
    req = Request("recv", rs.rank)
    req.peer = op.src
    pr = _PendingRecv(eng._pr_seq, rs.rank, op.src, op.tag, op.comm_id,
                      rs.clock, req)
    eng._pr_seq += 1
    eng._match.add_recv(pr)
    eng._drain(rs.rank, relaxed=False)
    return req


def _apply_collective(eng, rs, op: Collective):
    if rs.rank not in op.group:
        raise MPIUsageError(
            f"rank {rs.rank} called collective on group excluding it")
    seq = rs.coll_seq.get(op.comm_id, 0)
    rs.coll_seq[op.comm_id] = seq + 1
    key = (op.comm_id, seq)
    inst = eng._coll.get(key)
    if inst is None:
        inst = _CollInstance(op.key, op.group, op.nbytes)
        eng._coll[key] = inst
    else:
        if inst.group != op.group or inst.key != op.key:
            raise MPIUsageError(
                f"collective mismatch on comm {op.comm_id} seq {seq}: "
                f"{inst.key}/{inst.group} vs {op.key}/{op.group}")
        inst.nbytes = max(inst.nbytes, op.nbytes)
    inst.arrivals[rs.rank] = rs.clock
    inst.nleft -= 1
    if len(inst.arrivals) == len(inst.group):
        start = max(inst.arrivals.values())
        inst.completion = start + eng.model.collective_cost(
            inst.key, len(inst.group), inst.nbytes)
        # the caller resumes immediately; blocked participants are
        # woken through the dirty set on the next scheduler pass
        for r in inst.arrivals:
            if r != rs.rank:
                eng._dirty.add(r)
        rs.clock = inst.completion
        return None
    rs.blocked_kind = "collective"
    rs.blocked_data = inst
    return _BLOCK


def _resume_dirty(eng) -> None:
    """Wake blocked ranks flagged by completions since the last pass.

    A WaitAny rank holding a complete request stays dirty even when it
    cannot resume yet: it is waiting on the safety horizon, which moves
    whenever any other rank advances, so it must be polled.  Everything
    else leaves the dirty set until a new completion re-flags it.
    """
    dirty = eng._dirty
    for rank in sorted(dirty):
        rs = eng._ranks[rank]
        if rs.state != BLOCKED:
            dirty.discard(rank)
            continue
        if eng._try_resume(rs, relaxed=False):
            dirty.discard(rank)
        elif not (rs.blocked_kind == "waitany"
                  and any(r.complete for r in rs.blocked_data)):
            dirty.discard(rank)
