"""Property-based engine/oracle equivalence.

The engine's cohort-batched executor (``batch``) is contracted to be
bit-identical to the one-op-at-a-time reference loop kept in
``oracle.py`` (``scalar``).  The golden suites pin a fixed grid of real
apps; this suite drives randomly generated small programs through
*both* and requires identical makespans, per-rank clocks, per-link
contention stats, and engine counter totals — exercising exactly the
machinery the golden grid cannot enumerate: wildcard candidate heaps vs
the reference scan, rendezvous fallbacks, mixed directed/wildcard
communicators, throttle charging, WaitAny horizon deferrals, collective
cohort completion, per-op crash checks (with and without message drops)
and the ``--profile`` phase timers.  The profile's wall-time counters
(``engine.profile.*``) are the one thing allowed to differ.

Programs are deadlock-free by construction: each phase posts all
nonblocking receives, then all sends, then waits on everything, with an
optional full-group collective between phases.  Directed traffic rides
communicator 0 (per-source multisets match the sends exactly) and
wildcard traffic rides communicator 1 (every receive is
ANY_SOURCE/ANY_TAG), so a wildcard can never steal a message a directed
receive needs.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import obs
from repro.faults import FaultInjector, FaultPlan
from repro.sim.engine import Engine
from repro.sim.network import make_model
from repro.sim.ops import (ANY_SOURCE, ANY_TAG, Collective, Compute,
                           PostRecv, PostSend, WaitAll, WaitAny)
from repro.topology import make_topology_model
from tests.sim.oracle import executor

#: payload sizes crossing the presets' eager/rendezvous thresholds
_SIZES = [1, 64, 4096, 1 << 15, 1 << 20]


@st.composite
def plans(draw):
    nranks = draw(st.integers(2, 4))
    preset = draw(st.sampled_from(["simple", "bluegene", "ethernet"]))
    routed = draw(st.booleans())
    nphases = draw(st.integers(1, 3))
    phases = []
    for _ in range(nphases):
        nmsgs = draw(st.integers(0, 6))
        msgs = []
        for _ in range(nmsgs):
            src = draw(st.integers(0, nranks - 1))
            dst = draw(st.integers(0, nranks - 1).filter(
                lambda d, s=src: d != s))
            msgs.append({
                "src": src,
                "dst": dst,
                "nbytes": draw(st.sampled_from(_SIZES)),
                "tag": draw(st.integers(0, 3)),
                "wild": draw(st.booleans()),
                # directed receives may use the exact tag or ANY_TAG
                "any_tag": draw(st.booleans()),
            })
        phases.append({
            "msgs": msgs,
            # per-rank compute before posting (staggers the clocks so
            # wildcard horizon deferrals actually trigger)
            "compute": [draw(st.floats(0.0, 1e-4, allow_nan=False))
                        for _ in range(nranks)],
            # per-rank: drain the phase's requests via WaitAny loop
            # instead of one WaitAll
            "waitany": [draw(st.booleans()) for _ in range(nranks)],
            "coll": draw(st.sampled_from(
                [None, "barrier", "allreduce", "bcast"])),
        })
    # crash schedule: up to two ranks stop at a plan time (0.0 crashes
    # before the first op); drops exercise the fault send path alongside
    crashes = draw(st.lists(
        st.tuples(st.integers(0, nranks - 1),
                  st.sampled_from([0.0, 1e-6, 2e-5, 1e-4])),
        max_size=2, unique_by=lambda c: c[0]))
    drop_rate = draw(st.sampled_from([0.0, 0.2]))
    return {"nranks": nranks, "preset": preset, "routed": routed,
            "phases": phases, "crashes": tuple(crashes),
            "drop_rate": drop_rate, "profile": draw(st.booleans())}


def _rank_program(plan, rank):
    nranks = plan["nranks"]
    group = tuple(range(nranks))
    for phase in plan["phases"]:
        if phase["compute"][rank]:
            yield Compute(phase["compute"][rank])
        reqs = []
        for m in phase["msgs"]:
            if m["dst"] != rank:
                continue
            if m["wild"]:
                req = yield PostRecv(ANY_SOURCE, ANY_TAG, comm_id=1)
            else:
                tag = ANY_TAG if m["any_tag"] else m["tag"]
                req = yield PostRecv(m["src"], tag, comm_id=0)
            reqs.append(req)
        for m in phase["msgs"]:
            if m["src"] != rank:
                continue
            req = yield PostSend(m["dst"], m["nbytes"], tag=m["tag"],
                                 comm_id=1 if m["wild"] else 0)
            reqs.append(req)
        if reqs:
            if phase["waitany"][rank]:
                remaining = list(reqs)
                while remaining:
                    i, _ = yield WaitAny(remaining)
                    remaining.pop(i)
            else:
                yield WaitAll(reqs)
        if phase["coll"] is not None:
            yield Collective(group, phase["coll"], nbytes=256)


def _model_for(plan):
    base = make_model(plan["preset"])
    if plan["routed"]:
        return make_topology_model(
            base, "torus3d", plan["nranks"],
            topology_params={"dims": [plan["nranks"], 1, 1]})
    return base


def _faults_for(plan):
    if not plan["crashes"] and not plan["drop_rate"]:
        return None
    # a generous retry budget: no message is ever lost outright, so a
    # crash-free plan cannot deadlock
    return FaultInjector(FaultPlan(seed=3, drop_rate=plan["drop_rate"],
                                   max_retries=12,
                                   crashes=plan["crashes"]))


def _run(plan, mode):
    eng = Engine(plan["nranks"], _model_for(plan), max_steps=200_000,
                 faults=_faults_for(plan), profile=plan["profile"])
    with executor(mode), obs.instrumented() as inst:
        total = eng.run([_rank_program(plan, r)
                         for r in range(plan["nranks"])])
    counters = {r["name"]: r["value"] for r in inst.counter_records()}
    profiled = {name for name in counters
                if name.startswith("engine.profile.")}
    return {
        "total_hex": total.hex(),
        "per_rank_hex": [eng.now(r).hex() for r in range(plan["nranks"])],
        "link_stats": eng.link_stats,
        "crashed": eng.crashed_ranks,
        "starved": eng.starved_ranks,
        "counters": {name: value for name, value in counters.items()
                     if name not in profiled},
        "profiled": profiled,
    }


@settings(max_examples=60, deadline=None)
@given(plans())
def test_scalar_and_batch_executors_are_bit_identical(plan):
    scalar = _run(plan, "scalar")
    batch = _run(plan, "batch")
    assert batch["total_hex"] == scalar["total_hex"]
    assert batch["per_rank_hex"] == scalar["per_rank_hex"]
    assert batch["link_stats"] == scalar["link_stats"]
    assert batch["crashed"] == scalar["crashed"]
    assert batch["starved"] == scalar["starved"]
    assert batch["counters"] == scalar["counters"]
    # the engine times all four phases when asked; the oracle never does
    assert batch["profiled"] == ({
        "engine.profile.execute_s", "engine.profile.fabric_s",
        "engine.profile.match_s", "engine.profile.schedule_s"}
        if plan["profile"] else set())
