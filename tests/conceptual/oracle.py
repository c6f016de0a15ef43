"""The reference executor: the coNCePTuaL tree-walking interpreter.

:class:`repro.conceptual.ConceptualProgram` lowers a program to per-rank
op lists once and replays them.  This module keeps the straightforward
interpreter it is contracted to match — every rank walks every
statement on every repetition, evaluates every expression and selector
itself, and swaps the statement's call site in and out around it — so
the suites can diff the two and require identical MPI event streams,
log reports and ``float.hex`` clocks.

Swap it in with :func:`executor`, which patches
``ConceptualProgram.instantiate`` (and turns lowering into a no-op, so
an oracle run never touches the op lists).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence
from unittest import mock

from repro.conceptual.ast_nodes import (AwaitStmt, ComputeStmt, ForEach,
                                        ForRep, IfStmt, LogStmt,
                                        MulticastStmt, RecvStmt, ReduceStmt,
                                        ResetStmt, SendStmt, Stmt, SyncStmt,
                                        TaskSelector)
from repro.conceptual.compiler import (ConceptualProgram, _RankState,
                                       _task_var, _uses_task_var, eval_expr,
                                       select_ranks)
from repro.conceptual.runtime import LogDatabase
from repro.errors import ConceptualSemanticError
from repro.mpi.api import ANY_SOURCE, MPIProcess
from repro.mpi.hooks import RecordingHook
from repro.util.callsite import Callsite

#: executor names for ``pytest.mark.parametrize``: the oracle, then the
#: compiler as shipped
MODES = ("walk", "lowered")


@contextmanager
def executor(mode: str):
    """Run every program instantiated inside the block on ``mode``'s
    executor: ``"lowered"`` is the compiler as shipped, ``"walk"`` the
    tree-walking oracle."""
    if mode == "lowered":
        yield
        return
    if mode != "walk":
        raise ValueError(f"unknown executor {mode!r}: expected {MODES}")
    with mock.patch.object(ConceptualProgram, "instantiate", instantiate), \
            mock.patch.object(ConceptualProgram, "lower",
                              lambda self, nranks: None):
        yield


def instantiate(program: ConceptualProgram, logs: LogDatabase):
    """Drop-in for ``ConceptualProgram.instantiate``: the SPMD program
    function that walks the AST on every rank."""
    walker = _Walker(program)

    def spmd(mpi: MPIProcess):
        state = _RankState(mpi, logs)
        env = {"num_tasks": mpi.size}
        yield from walker.seq(program.ast.stmts, state, env)
        # the compiler's finalize captures an empty application stack
        # (every frame is framework code); this module's frames are not
        mpi.callsite_override = Callsite(())
        yield from mpi.finalize()
    return spmd


class _Walker:
    def __init__(self, program: ConceptualProgram):
        self.sites = program._sites

    def seq(self, stmts: Sequence[Stmt], state: _RankState, env):
        for stmt in stmts:
            yield from self.stmt(stmt, state, env)

    def stmt(self, stmt: Stmt, state: _RankState, env):
        mpi = state.mpi
        mpi.callsite_override = self.sites[id(stmt)]
        try:
            if isinstance(stmt, ForRep):
                count = int(eval_expr(stmt.count, env))
                for _ in range(count):
                    yield from self.seq(stmt.body, state, env)
            elif isinstance(stmt, ForEach):
                lo = int(eval_expr(stmt.lo, env))
                hi = int(eval_expr(stmt.hi, env))
                for i in range(lo, hi + 1):
                    inner = {**env, stmt.var: i}
                    yield from self.seq(stmt.body, state, inner)
            elif isinstance(stmt, IfStmt):
                if eval_expr(stmt.cond, env):
                    yield from self.seq(stmt.then, state, env)
                else:
                    yield from self.seq(stmt.otherwise, state, env)
            elif isinstance(stmt, SendStmt):
                yield from self.send(stmt, state, env)
            elif isinstance(stmt, RecvStmt):
                yield from self.recv(stmt, state, env)
            elif isinstance(stmt, MulticastStmt):
                yield from self.multicast(stmt, state, env)
            elif isinstance(stmt, ReduceStmt):
                yield from self.reduce(stmt, state, env)
            elif isinstance(stmt, SyncStmt):
                group = sorted(r for r, _ in select_ranks(stmt.sel, env,
                                                           mpi.size))
                if mpi.rank in group:
                    yield from mpi.barrier(comm=mpi.group_comm(group))
            elif isinstance(stmt, ComputeStmt):
                for r, inner in select_ranks(stmt.sel, env, mpi.size):
                    if r == mpi.rank:
                        usecs = float(eval_expr(stmt.usecs, inner))
                        yield from mpi.compute(usecs * 1e-6)
            elif isinstance(stmt, ResetStmt):
                if _selected(stmt.sel, env, mpi):
                    state.counters.reset(mpi.now())
            elif isinstance(stmt, AwaitStmt):
                if _selected(stmt.sel, env, mpi) and state.pending:
                    yield from mpi.waitall(state.pending)
                    state.pending = []
            elif isinstance(stmt, LogStmt):
                if _selected(stmt.sel, env, mpi):
                    value = state.counters.value(stmt.counter, mpi.now())
                    state.logs.record(stmt.label, stmt.aggregate,
                                      mpi.rank, value)
            else:
                raise ConceptualSemanticError(f"cannot execute {stmt!r}")
        finally:
            mpi.callsite_override = None

    # -- point-to-point ----------------------------------------------------
    def send(self, stmt: SendStmt, state: _RankState, env):
        mpi = state.mpi
        pairs = []  # (src, dst, size, count)
        for src, inner in select_ranks(stmt.sel, env, mpi.size):
            dst = int(eval_expr(stmt.dest, inner))
            size = int(eval_expr(stmt.size, inner))
            count = int(eval_expr(stmt.count, inner))
            pairs.append((src, dst, size, count))
        me = mpi.rank
        if not stmt.unsuspecting:
            for src, dst, size, count in pairs:
                if dst != me:
                    continue
                for _ in range(count):
                    if stmt.is_async:
                        req = yield from mpi.irecv(source=src, tag=stmt.tag)
                        state.pending.append(req)
                    else:
                        st = yield from mpi.recv(source=src, tag=stmt.tag)
                        state.counters.msgs_received += 1
                        state.counters.bytes_received += st.nbytes
        for src, dst, size, count in pairs:
            if src != me:
                continue
            for _ in range(count):
                if stmt.is_async:
                    req = yield from mpi.isend(dest=dst, nbytes=size,
                                               tag=stmt.tag)
                    state.pending.append(req)
                else:
                    yield from mpi.send(dest=dst, nbytes=size, tag=stmt.tag)
                state.counters.msgs_sent += 1
                state.counters.bytes_sent += size

    def recv(self, stmt: RecvStmt, state: _RankState, env):
        mpi = state.mpi
        for dst, inner in select_ranks(stmt.sel, env, mpi.size):
            if dst != mpi.rank:
                continue
            count = int(eval_expr(stmt.count, inner))
            if stmt.source is None:
                src = ANY_SOURCE
            else:
                src = int(eval_expr(stmt.source, inner))
            for _ in range(count):
                if stmt.is_async:
                    req = yield from mpi.irecv(source=src, tag=stmt.tag)
                    state.pending.append(req)
                else:
                    st = yield from mpi.recv(source=src, tag=stmt.tag)
                    state.counters.msgs_received += 1
                    state.counters.bytes_received += st.nbytes

    # -- collectives -------------------------------------------------------
    @staticmethod
    def groups(stmt, env, num_tasks):
        sources = [r for r, _ in select_ranks(stmt.sel, env, num_tasks)]
        targets = [r for r, _ in select_ranks(stmt.targets, env, num_tasks)]
        if not sources or not targets:
            raise ConceptualSemanticError(
                f"collective with empty source or target set: {stmt!r}")
        return sources, targets

    def multicast(self, stmt: MulticastStmt, state: _RankState, env):
        mpi = state.mpi
        sources, targets = self.groups(stmt, env, mpi.size)
        size = int(eval_expr(stmt.size, env)) if not _uses_task_var(
            stmt.sel, stmt.size) else None
        if size is None:
            for r, inner in select_ranks(stmt.sel, env, mpi.size):
                if r == mpi.rank:
                    size = int(eval_expr(stmt.size, inner))
                    break
            else:
                size = int(eval_expr(stmt.size, {**env, _task_var(stmt.sel):
                                                 mpi.rank}))
        if set(sources) == set(targets) and len(sources) > 1:
            group = sorted(set(sources))
            if mpi.rank in group:
                comm = mpi.group_comm(group)
                yield from mpi.alltoall(size, comm=comm)
                state.counters.msgs_sent += len(group) - 1
                state.counters.bytes_sent += size * (len(group) - 1)
            return
        for src in sorted(set(sources)):
            group = sorted(set(targets) | {src})
            if mpi.rank not in group:
                continue
            comm = mpi.group_comm(group)
            yield from mpi.bcast(size, root=comm.rank_of_world(src),
                                 comm=comm)
            if mpi.rank == src:
                state.counters.msgs_sent += len(group) - 1
                state.counters.bytes_sent += size * (len(group) - 1)
            else:
                state.counters.msgs_received += 1
                state.counters.bytes_received += size

    def reduce(self, stmt: ReduceStmt, state: _RankState, env):
        mpi = state.mpi
        sources, targets = self.groups(stmt, env, mpi.size)
        size = int(eval_expr(stmt.size, env))
        src_set, tgt_set = set(sources), set(targets)
        group = sorted(src_set | tgt_set)
        if mpi.rank not in group:
            return
        comm = mpi.group_comm(group)
        if src_set == tgt_set:
            yield from mpi.allreduce(size, comm=comm)
            state.counters.msgs_sent += 1
            state.counters.bytes_sent += size
            return
        root = min(tgt_set)
        yield from mpi.reduce(size, root=comm.rank_of_world(root), comm=comm)
        if mpi.rank in src_set:
            state.counters.msgs_sent += 1
            state.counters.bytes_sent += size
        rest = sorted(tgt_set - {root})
        if rest:
            bgroup = sorted({root} | set(rest))
            if mpi.rank in bgroup:
                bcomm = mpi.group_comm(bgroup)
                yield from mpi.bcast(size, root=bcomm.rank_of_world(root),
                                     comm=bcomm)


def _selected(sel: TaskSelector, env, mpi: MPIProcess) -> bool:
    return any(r == mpi.rank for r, _ in select_ranks(sel, env, mpi.size))


# -- differential runs ------------------------------------------------------
def _observe(program, nranks, mode, hooks, kwargs):
    """Run ``program`` on ``mode``'s executor and record what a user can
    see of the run: per-rank event streams, the log report and the
    ``float.hex`` clocks, or the exception it raised."""
    recorder = RecordingHook()
    with executor(mode):
        try:
            result, logs = program.run(nranks, hooks=hooks + [recorder],
                                       **kwargs)
        except Exception as exc:
            return (("raised", type(exc), str(exc),
                     _streams(recorder.events, nranks)), exc)
    seen = ("ok", _streams(recorder.events, nranks), logs.report(),
            [t.hex() for t in result.per_rank_times],
            result.total_time.hex(), result.messages_sent,
            result.bytes_sent)
    return seen, (result, logs)


def _streams(events, nranks):
    out = [[] for _ in range(nranks)]
    for e in events:
        out[e.rank].append((e.op, e.peer, e.nbytes, e.tag, e.root,
                            e.callsite.serialize()))
    return out


def diff_run(program, nranks, hooks=None, **kwargs):
    """``program.run`` on the oracle and on the compiler as shipped;
    asserts the two are indistinguishable and returns (or raises) the
    shipped run's outcome.  ``hooks`` observe only the shipped run, so
    ``model`` (shared by both runs) must be stateless."""
    want, _ = _observe(program, nranks, "walk", [], kwargs)
    got, outcome = _observe(program, nranks, "lowered", list(hooks or []),
                            kwargs)
    assert got == want, "lowered execution diverged from the tree-walker"
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
