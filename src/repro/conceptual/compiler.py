"""The coNCePTuaL compiler backend targeting the simulated MPI layer.

Real coNCePTuaL compiles its source to C+MPI, so each rank runs only its
own operations; our backend does the same in two steps.  A *lowering*
pass walks the checked AST once per rank count and projects it onto one
flat op list per rank: every expression and selector is evaluated once
for all ranks, ``FOR EACH`` loops are unrolled, ``IF`` statements are
folded, and ``FOR n REPETITIONS`` becomes a repeat node over one shared
body.  Each rank's generator then *replays* its list against
:class:`repro.mpi.MPIProcess`.  Every statement carries a synthetic
call-site signature derived from its AST path, so ScalaTrace applied to a
*generated* benchmark sees stable, per-statement call sites (just as the
C backend's source lines would).

Execution semantics of the communication statements:

* ``SEND`` (implicit pairing) — sources send, destinations post matching
  receives, synchronously or asynchronously per ``ASYNCHRONOUSLY``.  A
  rank posts all of a statement's receives before its sends.
* ``SEND ... TO UNSUSPECTING`` — send side only; some explicit ``RECEIVE``
  statement consumes the data.
* ``MULTICAST`` — one source: a broadcast over sources ∪ targets; sources
  equal to targets: an all-to-all exchange; otherwise one broadcast per
  source.
* ``REDUCE``  — targets equal to sources: allreduce; single target: rooted
  reduce; otherwise reduce to the first target then multicast to the rest.
* ``SYNCHRONIZE`` — barrier over the selected tasks.
* ``AWAIT COMPLETION`` — waitall on the rank's outstanding asynchronous
  operations.

Collective groups are static, so sub-communicators are interned when the
collective runs (no setup traffic), mirroring coNCePTuaL's implicit
communicator handling.  An error raised while lowering a statement
becomes a raise op at that statement in the lists of the ranks that
would have evaluated the failing expression, so it surfaces at run time
exactly where a rank reaches it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.conceptual.ast_nodes import (AllTasks, AwaitStmt, BinOp,
                                        ComputeStmt, Expr, ForEach, ForRep,
                                        IfStmt, IsIn, LogStmt, MulticastStmt,
                                        Num, Program, RecvStmt, ReduceStmt,
                                        ResetStmt, SendStmt, SingleTask,
                                        SuchThat, SyncStmt, TaskSelector,
                                        Var)
from repro.conceptual.parser import parse
from repro.conceptual.printer import print_program
from repro.conceptual.runtime import LogDatabase, TaskCounters
from repro.conceptual.semantics import check_program
from repro.errors import ConceptualSemanticError
from repro import obs
from repro.mpi.api import ANY_SOURCE, MPIProcess
from repro.mpi.world import SpmdResult, run_spmd
from repro.util.callsite import Callsite


# --------------------------------------------------------------- evaluation
def eval_expr(expr: Expr, env: Dict[str, float]):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise ConceptualSemanticError(
                f"unbound variable {expr.name!r} at run time") from None
    if isinstance(expr, IsIn):
        item = eval_expr(expr.item, env)
        return any(eval_expr(m, env) == item for m in expr.members)
    if isinstance(expr, BinOp):
        op = expr.op
        if op == "/\\":
            return bool(eval_expr(expr.left, env)) and \
                bool(eval_expr(expr.right, env))
        if op == "\\/":
            return bool(eval_expr(expr.left, env)) or \
                bool(eval_expr(expr.right, env))
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left // right if isinstance(left, int) and \
                isinstance(right, int) else left / right
        if op == "MOD":
            return left % right
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
        if op == "DIVIDES":
            return left != 0 and right % left == 0
    raise ConceptualSemanticError(f"cannot evaluate {expr!r}")


def select_ranks(sel: TaskSelector, env: Dict[str, float],
                 num_tasks: int) -> List[Tuple[int, Dict[str, float]]]:
    """Ranks matched by a selector, each with the environment extended by
    the selector's task-variable binding."""
    if isinstance(sel, AllTasks):
        if sel.var:
            return [(r, {**env, sel.var: r}) for r in range(num_tasks)]
        return [(r, env) for r in range(num_tasks)]
    if isinstance(sel, SingleTask):
        r = int(eval_expr(sel.expr, env))
        if not 0 <= r < num_tasks:
            raise ConceptualSemanticError(
                f"TASK {r} out of range (num_tasks={num_tasks})")
        return [(r, env)]
    if isinstance(sel, SuchThat):
        out = []
        for r in range(num_tasks):
            inner = {**env, sel.var: r}
            if eval_expr(sel.predicate, inner):
                out.append((r, inner))
        return out
    raise ConceptualSemanticError(f"unknown selector {sel!r}")


# ------------------------------------------------------------------ op lists
# One lowered op is a tuple whose first item is its opcode:
#   (RECV, site, source, tag, count, is_async)
#   (SEND, site, dest, size, tag, count, is_async)
#   (COMPUTE, seconds)
#   (AWAIT, site)
#   (REPEAT, count, body)          body: this rank's shared op list
#   (BCAST, site, group, root, size, role)
#   (ALLTOALL, site, group, size)
#   (ALLREDUCE, site, group, size)
#   (REDUCE, site, group, root, size, is_source)
#   (BARRIER, site, group)
#   (RESET,)
#   (LOG, label, aggregate, counter)
#   (RAISE, exception)
# ``group`` is a sorted tuple of world ranks; a BCAST's ``role`` says
# which counters it updates (the multicast root, a multicast receiver, or
# none for the broadcast half of a REDUCE).
(RECV, SEND, COMPUTE, AWAIT, REPEAT, BCAST, ALLTOALL, ALLREDUCE, REDUCE,
 BARRIER, RESET, LOG, RAISE) = range(13)
_ROLE_NONE, _ROLE_ROOT, _ROLE_LEAF = range(3)


class _Lowering:
    """One walk of a checked AST that projects it onto per-rank op lists.

    Control flow never depends on the rank (no expression outside a
    selector can name one), so every expression is evaluated once per
    loop binding and its ops are handed to the ranks they concern.
    ``dead`` holds the ranks whose list already ends in a raise op:
    nothing after it can run, and once every rank is dead the walk stops.
    """

    def __init__(self, sites: Dict[int, Callsite], nranks: int):
        self.sites = sites
        self.n = nranks
        self.dead = set()

    def block(self, stmts, env) -> List[list]:
        out = [[] for _ in range(self.n)]
        self.seq(stmts, env, out)
        return out

    def seq(self, stmts, env, out: List[list]) -> None:
        for stmt in stmts:
            if len(self.dead) == self.n:
                return
            try:
                self.stmt(stmt, env, out)
            except Exception as exc:
                # not handled, only deferred: any error an expression
                # raises (a semantic error, a division by zero, ...) is
                # re-raised by each rank that reaches this statement
                self.fail(out, range(self.n), exc)

    def fail(self, out: List[list], ranks, exc: Exception) -> None:
        for r in ranks:
            if r not in self.dead:
                out[r].append((RAISE, exc))
                self.dead.add(r)

    def stmt(self, stmt, env, out: List[list]) -> None:
        n = self.n
        site = self.sites[id(stmt)]
        if isinstance(stmt, ForRep):
            count = int(eval_expr(stmt.count, env))
            if count <= 0:
                return
            body = self.block(stmt.body, env)
            for r, ops in enumerate(body):
                if count == 1:
                    out[r].extend(ops)
                elif ops:
                    out[r].append((REPEAT, count, ops))
        elif isinstance(stmt, ForEach):
            lo = int(eval_expr(stmt.lo, env))
            hi = int(eval_expr(stmt.hi, env))
            for i in range(lo, hi + 1):
                self.seq(stmt.body, {**env, stmt.var: i}, out)
        elif isinstance(stmt, IfStmt):
            branch = stmt.then if eval_expr(stmt.cond, env) \
                else stmt.otherwise
            self.seq(branch, env, out)
        elif isinstance(stmt, SendStmt):
            self.send(stmt, site, env, out)
        elif isinstance(stmt, RecvStmt):
            for dst, inner in select_ranks(stmt.sel, env, n):
                try:
                    count = int(eval_expr(stmt.count, inner))
                    src = ANY_SOURCE if stmt.source is None \
                        else int(eval_expr(stmt.source, inner))
                except Exception as exc:
                    self.fail(out, (dst,), exc)
                    continue
                if count > 0:
                    out[dst].append((RECV, site, src, stmt.tag, count,
                                     stmt.is_async))
        elif isinstance(stmt, MulticastStmt):
            self.multicast(stmt, site, env, out)
        elif isinstance(stmt, ReduceStmt):
            self.reduce(stmt, site, env, out)
        elif isinstance(stmt, SyncStmt):
            group = tuple(sorted(r for r, _ in select_ranks(stmt.sel, env,
                                                             n)))
            for r in group:
                out[r].append((BARRIER, site, group))
        elif isinstance(stmt, ComputeStmt):
            for r, inner in select_ranks(stmt.sel, env, n):
                try:
                    usecs = float(eval_expr(stmt.usecs, inner))
                except Exception as exc:
                    self.fail(out, (r,), exc)
                    continue
                out[r].append((COMPUTE, usecs * 1e-6))
        elif isinstance(stmt, ResetStmt):
            for r, _ in select_ranks(stmt.sel, env, n):
                out[r].append((RESET,))
        elif isinstance(stmt, AwaitStmt):
            for r, _ in select_ranks(stmt.sel, env, n):
                out[r].append((AWAIT, site))
        elif isinstance(stmt, LogStmt):
            op = (LOG, stmt.label, stmt.aggregate, stmt.counter)
            for r, _ in select_ranks(stmt.sel, env, n):
                out[r].append(op)
        else:
            raise ConceptualSemanticError(f"cannot execute {stmt!r}")

    # -- point-to-point ----------------------------------------------------
    def send(self, stmt: SendStmt, site, env, out: List[list]) -> None:
        n = self.n
        pairs = []  # (src, dst, size, count)
        for src, inner in select_ranks(stmt.sel, env, n):
            dst = int(eval_expr(stmt.dest, inner))
            size = int(eval_expr(stmt.size, inner))
            count = int(eval_expr(stmt.count, inner))
            if count > 0:
                pairs.append((src, dst, size, count))
        # receive side first (posting receives early is both deterministic
        # and what a careful MPI programmer does); a rank that is both a
        # source and a destination of a blocking statement self-deadlocks,
        # which is the author's responsibility exactly as in MPI
        if not stmt.unsuspecting:
            for src, dst, _, count in pairs:
                if 0 <= dst < n:
                    out[dst].append((RECV, site, src, stmt.tag, count,
                                     stmt.is_async))
        for src, dst, size, count in pairs:
            out[src].append((SEND, site, dst, size, stmt.tag, count,
                             stmt.is_async))

    # -- collectives -------------------------------------------------------
    def groups(self, stmt, env):
        sources = [r for r, _ in select_ranks(stmt.sel, env, self.n)]
        targets = [r for r, _ in select_ranks(stmt.targets, env, self.n)]
        if not sources or not targets:
            raise ConceptualSemanticError(
                f"collective with empty source or target set: {stmt!r}")
        return set(sources), set(targets)

    def multicast(self, stmt: MulticastStmt, site, env,
                  out: List[list]) -> None:
        n = self.n
        sources, targets = self.groups(stmt, env)
        if _uses_task_var(stmt.sel, stmt.size):
            # the size depends on the task variable: every rank evaluates
            # it under its own binding, whether or not it is a source
            var = _task_var(stmt.sel)
            sizes = {}
            for r in range(n):
                try:
                    sizes[r] = int(eval_expr(stmt.size, {**env, var: r}))
                except Exception as exc:
                    self.fail(out, (r,), exc)
        else:
            size = int(eval_expr(stmt.size, env))
            sizes = dict.fromkeys(range(n), size)
        if sources == targets and len(sources) > 1:
            group = tuple(sorted(sources))
            for r in group:
                if r in sizes:
                    out[r].append((ALLTOALL, site, group, sizes[r]))
            return
        for src in sorted(sources):
            group = tuple(sorted(targets | {src}))
            for r in group:
                if r in sizes:
                    role = _ROLE_ROOT if r == src else _ROLE_LEAF
                    out[r].append((BCAST, site, group, src, sizes[r], role))

    def reduce(self, stmt: ReduceStmt, site, env, out: List[list]) -> None:
        sources, targets = self.groups(stmt, env)
        size = int(eval_expr(stmt.size, env))
        group = tuple(sorted(sources | targets))
        if sources == targets:
            for r in group:
                out[r].append((ALLREDUCE, site, group, size))
            return
        root = min(targets)
        for r in group:
            out[r].append((REDUCE, site, group, root, size, r in sources))
        if len(targets) > 1:
            bgroup = tuple(sorted(targets))
            for r in bgroup:
                out[r].append((BCAST, site, bgroup, root, size, _ROLE_NONE))


def _task_var(sel: TaskSelector) -> Optional[str]:
    if isinstance(sel, AllTasks):
        return sel.var
    if isinstance(sel, SuchThat):
        return sel.var
    return None


def _uses_task_var(sel: TaskSelector, expr: Expr) -> bool:
    var = _task_var(sel)
    if var is None:
        return False

    def walk(e):
        if isinstance(e, Var):
            return e.name == var
        if isinstance(e, BinOp):
            return walk(e.left) or walk(e.right)
        if isinstance(e, IsIn):
            return walk(e.item) or any(walk(m) for m in e.members)
        return False

    return walk(expr)


# ------------------------------------------------------------------- replay
class _RankState:
    def __init__(self, mpi: MPIProcess, logs: LogDatabase):
        self.mpi = mpi
        self.counters = TaskCounters()
        self.pending = []
        self.logs = logs


def _replay(ops: list, state: _RankState):
    """Run one rank's lowered op list: the same MPI calls, call sites,
    counter updates and log records as the statements it came from."""
    mpi = state.mpi
    counters = state.counters
    for op in ops:
        code = op[0]
        if code == RECV:
            _, mpi.callsite_override, src, tag, count, is_async = op
            for _ in range(count):
                if is_async:
                    req = yield from mpi.irecv(source=src, tag=tag)
                    state.pending.append(req)
                else:
                    st = yield from mpi.recv(source=src, tag=tag)
                    counters.msgs_received += 1
                    counters.bytes_received += st.nbytes
        elif code == SEND:
            _, mpi.callsite_override, dst, size, tag, count, is_async = op
            for _ in range(count):
                if is_async:
                    req = yield from mpi.isend(dest=dst, nbytes=size,
                                               tag=tag)
                    state.pending.append(req)
                else:
                    yield from mpi.send(dest=dst, nbytes=size, tag=tag)
                counters.msgs_sent += 1
                counters.bytes_sent += size
        elif code == COMPUTE:
            yield from mpi.compute(op[1])
        elif code == AWAIT:
            if state.pending:
                mpi.callsite_override = op[1]
                yield from mpi.waitall(state.pending)
                state.pending = []
        elif code == REPEAT:
            body = op[2]
            for _ in range(op[1]):
                yield from _replay(body, state)
        elif code == BCAST:
            _, mpi.callsite_override, group, root, size, role = op
            comm = mpi.group_comm(group)
            yield from mpi.bcast(size, root=comm.rank_of_world(root),
                                 comm=comm)
            if role == _ROLE_ROOT:
                counters.msgs_sent += len(group) - 1
                counters.bytes_sent += size * (len(group) - 1)
            elif role == _ROLE_LEAF:
                counters.msgs_received += 1
                counters.bytes_received += size
        elif code == ALLTOALL:
            _, mpi.callsite_override, group, size = op
            yield from mpi.alltoall(size, comm=mpi.group_comm(group))
            counters.msgs_sent += len(group) - 1
            counters.bytes_sent += size * (len(group) - 1)
        elif code == ALLREDUCE:
            _, mpi.callsite_override, group, size = op
            yield from mpi.allreduce(size, comm=mpi.group_comm(group))
            counters.msgs_sent += 1
            counters.bytes_sent += size
        elif code == REDUCE:
            _, mpi.callsite_override, group, root, size, is_source = op
            comm = mpi.group_comm(group)
            yield from mpi.reduce(size, root=comm.rank_of_world(root),
                                  comm=comm)
            if is_source:
                counters.msgs_sent += 1
                counters.bytes_sent += size
        elif code == BARRIER:
            mpi.callsite_override = op[1]
            yield from mpi.barrier(comm=mpi.group_comm(op[2]))
        elif code == RESET:
            counters.reset(mpi.now())
        elif code == LOG:
            _, label, aggregate, counter = op
            state.logs.record(label, aggregate, mpi.rank,
                              counters.value(counter, mpi.now()))
        else:
            raise op[1]


# ------------------------------------------------------------- compiled form
class ConceptualProgram:
    """A checked, executable coNCePTuaL program."""

    def __init__(self, ast: Program, name: str = "benchmark"):
        with obs.span("conceptual.compile", program=name):
            check_program(ast)
            self.ast = ast
            self.name = name
            self._sites: Dict[int, Callsite] = {}
            self._lowered: Dict[int, List[list]] = {}
            self._number_statements()
            obs.count("conceptual.statements_compiled", len(self._sites))

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_source(cls, text: str, name: str = "benchmark"):
        return cls(parse(text), name)

    @property
    def source(self) -> str:
        """Canonical source text of this program."""
        return print_program(self.ast)

    @property
    def statement_count(self) -> int:
        """Number of statements, each with its own call site."""
        return len(self._sites)

    def _number_statements(self) -> None:
        counter = [0]

        def walk(stmts):
            for stmt in stmts:
                self._sites[id(stmt)] = Callsite.synthetic(
                    self.name, counter[0])
                counter[0] += 1
                if isinstance(stmt, (ForRep, ForEach)):
                    walk(stmt.body)
                elif isinstance(stmt, IfStmt):
                    walk(stmt.then)
                    walk(stmt.otherwise)

        walk(self.ast.stmts)

    # -- execution -----------------------------------------------------------
    def lower(self, nranks: int) -> List[list]:
        """The per-rank op lists for a run on ``nranks`` ranks, lowered on
        first use and memoized on the program."""
        lowered = self._lowered.get(nranks)
        if lowered is None:
            with obs.span("conceptual.lower", program=self.name,
                          nranks=nranks):
                lowered = _Lowering(self._sites, nranks).block(
                    self.ast.stmts, {"num_tasks": nranks})
            self._lowered[nranks] = lowered
        return lowered

    def instantiate(self, logs: LogDatabase):
        """SPMD program function suitable for :func:`repro.mpi.run_spmd`."""
        def program(mpi: MPIProcess):
            ops = self.lower(mpi.size)[mpi.rank]
            yield from _replay(ops, _RankState(mpi, logs))
            mpi.callsite_override = None
            yield from mpi.finalize()
        return program

    def run(self, nranks: int, model=None, hooks=None,
            max_steps=None, faults=None, profile=False,
            schedule_policy=None, schedule_seed=None,
            queue_discipline=None,
            queue_params=None) -> Tuple[SpmdResult, LogDatabase]:
        """Compile-and-run convenience: returns the simulation result and
        the program's log database."""
        logs = LogDatabase()
        self.lower(nranks)  # before the engine starts, outside its profile
        result = run_spmd(self.instantiate(logs), nranks, model=model,
                          hooks=hooks, max_steps=max_steps, faults=faults,
                          profile=profile, schedule_policy=schedule_policy,
                          schedule_seed=schedule_seed,
                          queue_discipline=queue_discipline,
                          queue_params=queue_params)
        return result, logs
