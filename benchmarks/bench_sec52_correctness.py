"""§5.2: communication correctness of generated benchmarks.

Two checks per application, exactly following the paper's methodology:

1. **mpiP statistics** — link original and generated benchmark against
   the mpiP-style profiler; per MPI operation type, event counts and
   message volumes must match (vector collectives are compared through
   their Table 1 substitution family, with volumes within 1% from size
   averaging).
2. **per-event semantics** — trace the generated benchmark with
   ScalaTrace and compare against the application's trace replayed
   through ScalaReplay, erasing call-site differences (the paper's
   "fair" comparison).  Wildcard receives compare modulo Algorithm 2's
   resolved sources.

Run with:  pytest benchmarks/bench_sec52_correctness.py --benchmark-only -s
"""

import pytest

from repro.apps import PAPER_SUITE, valid_rank_counts
from repro.mpi import run_spmd
from repro.pipeline import (Pipeline, PipelineConfig, RunContext,
                            TraceStage, generation_stages)
from repro.scalatrace import ScalaTraceHook
from repro.sim import LogGPModel
from repro.tools import (MpiPHook, canonical_profile, profiles_close,
                         render_table, traces_equivalent)

from _util import emit, reset_results

_rows = []


@pytest.mark.parametrize("app", PAPER_SUITE)
def test_sec52_app(benchmark, app):
    nranks = valid_rank_counts(app, [16])[0]
    model = LogGPModel()
    ctx = RunContext(PipelineConfig(app=app, nranks=nranks, cls="S",
                                    platform=None),
                     model=model)
    program = ctx.program

    def generate():
        # the explicit Fig. 1 pipeline, minus execution
        return Pipeline([TraceStage()] + generation_stages()) \
            .run(context=ctx)

    benchmark.pedantic(generate, rounds=1, iterations=1)
    generated = ctx.artifacts["benchmark"]

    # check 1: aggregate statistics (mpiP)
    orig_prof, gen_prof = MpiPHook(), MpiPHook()
    run_spmd(program, nranks, model=model, hooks=[orig_prof])
    gen_tracer = ScalaTraceHook()
    generated.run(nranks, model=model, hooks=[gen_prof, gen_tracer])
    stats_ok, stats_why = profiles_close(canonical_profile(orig_prof),
                                         canonical_profile(gen_prof))
    assert stats_ok, f"{app}: {stats_why}"

    # check 2: per-event semantics (trace of generated vs processed
    # app trace; sources compare modulo wildcard resolution)
    events_ok, events_why = traces_equivalent(
        ctx.artifacts["trace"], gen_tracer.trace, check_wildcards=False)
    # Table 1 substitutions legitimately change the event stream; skip
    # the per-event check only for apps that required substitution
    substituted = {"is"}
    if app not in substituted:
        assert events_ok, f"{app}: {events_why}"

    _rows.append([app, nranks, "yes" if stats_ok else "no",
                  ("substituted" if app in substituted
                   else ("yes" if events_ok else "no")),
                  "A1" if ctx.artifacts["was_aligned"] else "-",
                  "A2" if ctx.artifacts["was_resolved"] else "-"])


def test_sec52_summary(benchmark):
    assert _rows
    reset_results("Section 5.2: communication correctness")
    emit(render_table(
        ["app", "ranks", "mpiP stats match", "per-event match",
         "align", "wildcards"], _rows))
    emit("\n(per-event 'substituted' = Table 1 replaced a vector "
         "collective,\n so the generated event stream intentionally "
         "differs; volumes still match within 1%)")
    benchmark.pedantic(lambda: len(_rows), rounds=1, iterations=1)
    assert all(r[2] == "yes" for r in _rows)
