"""Lowered execution against the tree-walking oracle.

``ConceptualProgram`` lowers a program to per-rank op lists once and
replays them; ``oracle.py`` keeps the interpreter that walks the whole
AST on every rank.  The two must be indistinguishable: identical
per-rank ``(op, peer, bytes, tag, root, call site)`` streams, log
reports and ``float.hex`` clocks, or the same exception.  This module
diffs them on every paper-suite and proxy app's generated benchmark, on
the error paths, and on random programs; the other tests in this
package diff every program they run through ``oracle.diff_run``.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps import PAPER_SUITE, make_app, valid_rank_counts
from repro.conceptual import ConceptualProgram
from repro.conceptual.ast_nodes import (AllTasks, AwaitStmt, BinOp,
                                        ComputeStmt, ForEach, ForRep,
                                        IfStmt, LogStmt, MulticastStmt,
                                        Num, Program, RecvStmt, ReduceStmt,
                                        ResetStmt, SendStmt, SingleTask,
                                        SuchThat, SyncStmt, Var)
from repro.conceptual.compiler import REPEAT
from repro.errors import ConceptualSemanticError
from repro.generator import generate_from_application, scale_compute
from repro.mpi import RecordingHook
from repro.sim import LogGPModel, SimpleModel
from tests.conceptual.oracle import diff_run

PROXIES = ("amg", "halo3d", "kripke", "laghos")


# -- generated benchmarks ---------------------------------------------------
@pytest.mark.parametrize("app", PAPER_SUITE + PROXIES)
def test_generated_benchmark_matches_oracle(app):
    nranks = valid_rank_counts(app, [8, 9])[0]
    bench = generate_from_application(make_app(app, nranks, "S"), nranks)
    diff_run(bench.program, nranks, model=LogGPModel())


# -- error paths ------------------------------------------------------------
def test_unbound_variable_at_run_time():
    with mock.patch("repro.conceptual.compiler.check_program"):
        prog = ConceptualProgram.from_source(
            "ALL TASKS SYNCHRONIZE THEN "
            "ALL TASKS COMPUTE FOR bogus MICROSECONDS")
    with pytest.raises(ConceptualSemanticError, match="unbound variable"):
        diff_run(prog, 3, model=SimpleModel())


def test_task_out_of_range_at_run_time():
    prog = ConceptualProgram.from_source(
        "TASK 0 SENDS A 8 BYTE MESSAGE TO TASK 1 THEN "
        "TASK num_tasks COMPUTES FOR 5 MICROSECONDS")
    with pytest.raises(ConceptualSemanticError, match="out of range"):
        diff_run(prog, 2, model=SimpleModel())


@pytest.mark.parametrize("guard", [
    "FOR 0 REPETITIONS", "FOR EACH i IN {1, ..., 0}", "IF num_tasks < 0 THEN",
])
def test_bad_selector_under_dead_code_raises_nothing(guard):
    prog = ConceptualProgram.from_source(
        f"{guard} {{ TASK 99 SENDS A 8 BYTE MESSAGE TO TASK 0 }} THEN "
        "ALL TASKS SYNCHRONIZE")
    result, _ = diff_run(prog, 2, model=SimpleModel())
    assert result.total_time > 0


def test_per_rank_error_surfaces_on_its_rank_only():
    # only rank 2 divides by zero, and it gets there last: ranks 0 and 1
    # pass the statement and exchange a message before the run fails
    prog = ConceptualProgram.from_source(
        "TASK 2 COMPUTES FOR 1000 MICROSECONDS THEN "
        "ALL TASKS t COMPUTE FOR 10 / (2 - t) MICROSECONDS THEN "
        "TASK 0 SENDS A 8 BYTE MESSAGE TO TASK 1 THEN "
        "ALL TASKS SYNCHRONIZE")
    hook = RecordingHook()
    with pytest.raises(ZeroDivisionError):
        diff_run(prog, 3, model=SimpleModel(), hooks=[hook])
    assert sorted((e.rank, e.op) for e in hook.events) == \
        [(0, "Send"), (1, "Recv")]


# -- the lowered form -------------------------------------------------------
_RING = ("FOR 50 REPETITIONS { ALL TASKS t ASYNCHRONOUSLY SEND A 64 BYTE "
         "MESSAGE TO TASK (t + 1) MOD num_tasks THEN "
         "ALL TASKS AWAIT COMPLETION } THEN "
         "TASK 0 COMPUTES FOR 7 MICROSECONDS")


def test_repetitions_share_one_body_and_selectors_project():
    ops = ConceptualProgram.from_source(_RING).lower(4)
    assert len(ops) == 4
    for rank, rank_ops in enumerate(ops):
        (code, count, body), *rest = rank_ops
        assert (code, count) == (REPEAT, 50)
        assert len(body) == 3  # irecv, isend, await
        assert len(rest) == (1 if rank == 0 else 0)


def test_lowering_is_lazy_and_memoized_per_rank_count():
    inst = obs.Instrumentation()
    with obs.instrumented(inst):
        prog = ConceptualProgram.from_source(_RING)
        assert "conceptual.lower" not in inst.span_totals()
        prog.run(4, model=SimpleModel())
        prog.run(4, model=SimpleModel())
        prog.run(2, model=SimpleModel())
    assert inst.span_totals()["conceptual.lower"][0] == 2
    assert prog.lower(4) is prog.lower(4)


def test_scaled_program_lowers_its_own_ops():
    prog = ConceptualProgram.from_source(_RING)
    base = prog.lower(2)
    scaled = scale_compute(prog, 0.5)
    assert scaled.lower(2)[0][-1] != base[0][-1]
    diff_run(scaled, 2, model=SimpleModel())


def test_statement_count():
    assert ConceptualProgram.from_source(_RING).statement_count == 4


# -- random programs --------------------------------------------------------
# Mostly well-formed programs (async rings, valid task numbers, a closing
# AWAIT) so most examples run to completion; a "wild" expression now and
# then drives both executors into the same run-time error.
def _wild(names):
    atoms = st.integers(0, 5).map(Num)
    if names:
        atoms = st.one_of(atoms, st.sampled_from(sorted(names)).map(Var))
    return st.recursive(
        atoms, lambda kids: st.builds(
            BinOp, st.sampled_from(["+", "-", "*", "/", "MOD"]), kids, kids),
        max_leaves=3)


def _value(names, tame):
    """A non-negative value: usually ``tame``, sometimes wild."""
    return st.one_of(tame, tame, tame, _wild(names))


def _scaled(names, var):
    """``c`` or ``var * k + c``."""
    consts = st.integers(0, 64).map(Num)
    if var is None:
        return _value(names, consts)
    return _value(names, st.one_of(consts, st.builds(
        lambda k, c: BinOp("+", BinOp("*", Var(var), Num(k)), Num(c)),
        st.integers(1, 8), st.integers(0, 64))))


def _selector(names):
    """(selector, its task variable or None)."""
    return st.one_of(
        st.just((AllTasks(), None)),
        st.just((AllTasks("t"), "t")),
        st.builds(lambda k: (SingleTask(Num(k)), None), st.integers(0, 1)),
        st.builds(lambda k: (SingleTask(k), None), _wild(names)),
        st.builds(lambda op, k: (SuchThat("t", BinOp(op, Var("t"), Num(k))),
                                 "t"),
                  st.sampled_from(["<", ">=", "<>", "DIVIDES"]),
                  st.integers(0, 3)),
    )


@st.composite
def _simple(draw, names):
    sel, var = draw(_selector(names))
    inner = names | {var} if var else names
    kind = draw(st.sampled_from(["send"] * 4 + [
        "recv", "mcast", "reduce", "sync", "compute", "compute", "reset",
        "await", "log"]))
    if kind == "send":
        shift = draw(st.integers(1, 3))
        peer = Var(var) if var else Num(0)
        dest = draw(_value(inner, st.just(BinOp(
            "MOD", BinOp("+", peer, Num(shift)), Var("num_tasks")))))
        return SendStmt(sel, draw(_scaled(inner, var)), dest,
                        Num(draw(st.sampled_from([1, 1, 2, 0]))),
                        draw(st.sampled_from([True, True, False])),
                        draw(st.sampled_from([False, False, True])),
                        draw(st.integers(0, 1)))
    if kind == "recv":
        source = draw(st.one_of(st.none(), _wild(inner)))
        return RecvStmt(sel, Num(8), source, Num(draw(st.integers(0, 1))),
                        draw(st.booleans()), draw(st.integers(0, 1)))
    if kind in ("mcast", "reduce"):
        targets, _ = draw(_selector(names))
        size = draw(_scaled(inner, var)) if kind == "mcast" else Num(8)
        cls = MulticastStmt if kind == "mcast" else ReduceStmt
        return cls(sel, size, targets)
    if kind == "compute":
        return ComputeStmt(sel, draw(_scaled(inner, var)))
    if kind == "log":
        return LogStmt(sel, draw(st.sampled_from(["SUM", "FINAL", "MEAN"])),
                       draw(st.sampled_from(["elapsed_usecs", "msgs_sent",
                                             "bytes_received"])), "x")
    return {"sync": SyncStmt, "reset": ResetStmt, "await": AwaitStmt}[
        kind](sel)


@st.composite
def _stmts(draw, names=frozenset(), depth=0):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["simple"] * 3 + (["rep", "each", "if"] if depth < 2 else [])))
        if kind == "simple":
            out.append(draw(_simple(names)))
        elif kind == "rep":
            out.append(ForRep(Num(draw(st.integers(0, 3))),
                              draw(_stmts(names, depth + 1))))
        elif kind == "each":
            var = f"i{depth}"
            out.append(ForEach(var, Num(0), Num(draw(st.integers(-1, 2))),
                               draw(_stmts(names | {var}, depth + 1))))
        else:
            cond = BinOp(draw(st.sampled_from(["=", "<", "<>"])),
                         draw(_wild(names)), Num(draw(st.integers(0, 2))))
            out.append(IfStmt(cond, draw(_stmts(names, depth + 1)),
                              draw(_stmts(names, depth + 1))))
    return out


@given(_stmts(), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_random_programs_match_oracle(stmts, nranks):
    prog = ConceptualProgram(Program(stmts + [AwaitStmt(AllTasks())]))
    try:
        diff_run(prog, nranks, model=SimpleModel(), max_steps=20_000)
    except AssertionError:
        raise
    except Exception:
        pass  # both executors raised the same error: diff_run checked it
