"""The pipeline stages: Fig. 1 of the paper, one class per arrow.

``TraceStage → AlignStage → ResolveStage → EmitStage → CompileStage →
RunStage`` is the full application-to-executed-benchmark flow;
``ReplayStage`` is the ScalaReplay variant that executes a trace
directly.  Stages communicate exclusively through the
:class:`~repro.pipeline.context.RunContext` artifact store, so any
suffix/prefix of the chain is a valid pipeline (the CLI's ``generate``
command, for example, runs ``Align → Resolve → Emit → Compile`` from a
loaded trace).

Caching: every stage contributes ``key_parts`` to the rolling content
address; the two stages whose artifacts are worth persisting (the
serialized trace and the generated source — the expensive, serializable
ones) additionally declare ``cacheable = True`` and implement
``serialize``/``deserialize``.  The alignment/resolution passes are
re-validated on every run (they are also the deadlock detector), reading
their input from the cached trace when one was hit.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from repro.errors import PipelineError, SimulationError
from repro.pipeline.context import RunContext


def _fault_injector(ctx: RunContext, execution: bool = False):
    """A FaultInjector for the stage's effective plan, or None when no
    plan applies — the fault-free path never touches the faults package.

    ``execution=True`` marks the run/replay stages: only there does a
    scenario's fault content (its base plan plus expanded adversaries)
    engage.  The trace stage never sees it, which is what keeps the
    canonical trace — and its cache address — scenario-independent.
    """
    plan = ctx.config.fault_plan
    if execution:
        scn = ctx.config.scenario
        if scn is not None and scn.has_fault_content():
            # config.fault_plan + scenario fault content is rejected at
            # config construction, so the scenario's plan stands alone
            from repro.scenarios import scenario_fault_plan
            plan = scenario_fault_plan(scn, ctx.config.app,
                                       ctx.config.nranks)
    if plan is None or plan.is_null():
        return None
    from repro.faults import FaultInjector
    return FaultInjector(plan)


def _salvage(ctx: RunContext, exc: SimulationError, faults):
    """Partial-artifact salvage: when a faulted simulation dies, keep the
    :class:`SpmdResult` prefix the launcher attached to the error instead
    of propagating.  Returns the partial result, or None when the failure
    is not salvageable (no injector, or the error carries no partial)."""
    partial = getattr(exc, "partial", None)
    if faults is None or partial is None:
        return None
    ctx.artifacts["degraded"] = True
    ctx.artifacts["fault_report"] = partial.fault_report
    ctx.artifacts["fault_error"] = str(exc)
    return partial


def _schedule_kwargs(ctx: RunContext, execution: bool = False) -> dict:
    """``run_spmd`` keyword arguments for the stage's schedule policy.

    Empty for the canonical default, so the untouched-path call sites
    stay exactly as before; a non-canonical policy is rebuilt fresh per
    stage (each simulated run must see the same seeded RNG sequence a
    standalone ``repro run --schedule-policy ... --schedule-seed ...``
    would).

    ``execution=True`` marks the run/replay stages: only there does a
    scenario's schedule pin engage (the trace stays canonical, so a
    schedule-pinning scenario still shares the canonical trace cache).
    A config-level non-canonical policy keys the trace and wins
    everywhere; the combination of both is rejected at config time.
    """
    c = ctx.config
    policy, seed = c.schedule_policy, c.schedule_seed
    if execution and policy == "canonical":
        scn = c.scenario
        if scn is not None and scn.pins_schedule():
            policy, seed = scn.schedule_policy, scn.schedule_seed
    if policy == "canonical":
        return {}
    return {"schedule_policy": policy, "schedule_seed": seed}


def _queue_kwargs(ctx: RunContext) -> dict:
    """``run_spmd`` keyword arguments for the scenario's queue discipline.

    Empty for the FIFO default (the call sites — and the engine's inline
    fold — stay byte-identical to the pre-queueing code path); only the
    execution stages call this, because queue disciplines act on the
    routed execution fabric.
    """
    scn = ctx.config.scenario
    if scn is None or scn.queue_discipline in (None, "fifo"):
        return {}
    return {"queue_discipline": scn.queue_discipline,
            "queue_params": dict(scn.queue_params or ())}


class Stage:
    """One step of the pipeline.

    Subclasses set ``name`` (stable identifier, also the report row
    label) and ``produces`` (the artifact key written to the context),
    and implement :meth:`run` returning a one-line human detail string.
    """

    name = "stage"
    produces: Optional[str] = None
    cacheable = False
    suffix = ""  # cache file suffix

    def key_parts(self, ctx: RunContext) -> Optional[Tuple]:
        """Stage configuration folded into the rolling cache key; None
        declares the stage (and everything downstream) unkeyable."""
        return ()

    def run(self, ctx: RunContext) -> str:
        """Execute the stage against ``ctx``; returns the report detail."""
        raise NotImplementedError

    def serialize(self, ctx: RunContext) -> str:
        """Render the produced artifact as cacheable text."""
        raise NotImplementedError(f"{self.name} is not cacheable")

    def deserialize(self, ctx: RunContext, text: str) -> str:
        """Install the cached artifact into the context; returns the
        report detail string."""
        raise NotImplementedError(f"{self.name} is not cacheable")


class TraceStage(Stage):
    """Application → merged global ScalaTrace trace (cacheable)."""

    name = "trace"
    produces = "trace"
    cacheable = True
    suffix = ".trace"

    def key_parts(self, ctx):
        """Everything that determines the trace bytes."""
        c = ctx.config
        plan = c.fault_plan
        # the plan digest keys the faulted trace separately from the
        # clean one (and from other plans) so the cache cannot serve a
        # degraded artifact to a fault-free run or vice versa
        fault = (None if plan is None or plan.is_null() else plan.digest())
        # the schedule policy changes which wildcard matches the trace
        # records, so (policy, seed) must key the artifact; canonical
        # folds to None so all canonical runs share one address
        sched = (None if c.schedule_policy == "canonical"
                 else (c.schedule_policy, c.schedule_seed))
        return ("trace", c.app, c.nranks, c.cls, c.platform, c.max_steps,
                fault, sched)

    def run(self, ctx):
        """Run the application under ScalaTrace on the simulator."""
        from repro.mpi.world import run_spmd
        from repro.scalatrace.tracer import ScalaTraceHook
        tracer = ScalaTraceHook()
        hooks = [tracer] + list(ctx.hooks or [])
        nranks = ctx.config.nranks
        if nranks is None:
            raise PipelineError("TraceStage requires config.nranks")
        faults = _fault_injector(ctx)
        try:
            result = run_spmd(ctx.program, nranks, model=ctx.model,
                              hooks=hooks, max_steps=ctx.config.max_steps,
                              faults=faults, profile=ctx.config.profile,
                              **_schedule_kwargs(ctx))
        except SimulationError as exc:
            partial = _salvage(ctx, exc, faults)
            if partial is None:
                raise
            ctx.artifacts["trace_run_result"] = partial
            trace = tracer.trace
            ctx.artifacts["trace"] = trace
            return ("salvaged",
                    f"{trace.event_count()} events in "
                    f"{trace.node_count()} nodes (prefix; {exc})")
        trace = tracer.trace
        ctx.artifacts["trace"] = trace
        # the traced application's own SpmdResult: trace-mode harnesses
        # (the fuzzer) read the makespan from here without a run stage
        ctx.artifacts["trace_run_result"] = result
        detail = (f"{trace.event_count()} events in "
                  f"{trace.node_count()} nodes")
        if faults is not None:
            ctx.artifacts["fault_report"] = result.fault_report
            if result.degraded:
                ctx.artifacts["degraded"] = True
                return ("degraded", detail + " (crashed-rank prefix)")
        return detail

    def serialize(self, ctx):
        """The trace's text serialization."""
        from repro.scalatrace.serialize import dumps_trace
        return dumps_trace(ctx.artifacts["trace"])

    def deserialize(self, ctx, text):
        """Install a cached trace into the context."""
        from repro.scalatrace.serialize import loads_trace
        trace = loads_trace(text)
        ctx.artifacts["trace"] = trace
        return (f"{trace.event_count()} events in "
                f"{trace.node_count()} nodes (cached)")


class AlignStage(Stage):
    """Algorithm 1: one RSD per logical collective (when needed)."""

    name = "align"
    produces = "trace"

    def key_parts(self, ctx):
        """Alignment toggles the artifact; fold the switch in."""
        return ("align", ctx.config.align)

    def run(self, ctx):
        """Apply Algorithm 1 when enabled and the trace needs it."""
        from repro.generator.align import align_collectives
        trace = ctx.require("trace")
        ctx.artifacts["was_aligned"] = False
        if not ctx.config.align:
            return ("skipped", "disabled")
        aligned = align_collectives(trace)
        if aligned is trace:
            return ("skipped", "not needed")
        ctx.artifacts["trace"] = aligned
        ctx.artifacts["was_aligned"] = True
        return "collectives aligned (Algorithm 1)"


class ResolveStage(Stage):
    """Algorithm 2: bind wildcard receives; detect trace deadlocks."""

    name = "resolve"
    produces = "trace"

    def key_parts(self, ctx):
        """Resolution toggles the artifact; fold the switch in."""
        return ("resolve", ctx.config.resolve)

    def run(self, ctx):
        """Apply Algorithm 2 when enabled and the trace has wildcards."""
        from repro.generator.wildcard import resolve_wildcards
        trace = ctx.require("trace")
        ctx.artifacts["was_resolved"] = False
        if not ctx.config.resolve:
            return ("skipped", "disabled")
        resolved = resolve_wildcards(trace)
        if resolved is trace:
            return ("skipped", "no wildcards")
        ctx.artifacts["trace"] = resolved
        ctx.artifacts["was_resolved"] = True
        return "wildcards resolved (Algorithm 2)"


class EmitStage(Stage):
    """Processed trace → coNCePTuaL source text (cacheable)."""

    name = "emit"
    produces = "source"
    cacheable = True
    suffix = ".ncptl"

    def key_parts(self, ctx):
        """The emitter settings that shape the generated source."""
        c = ctx.config
        return ("emit", c.include_timing, c.split_first_rest, c.name)

    def run(self, ctx):
        """Emit the processed trace as coNCePTuaL source."""
        from repro.conceptual.printer import print_program
        from repro.generator.emit_conceptual import ConceptualEmitter
        c = ctx.config
        emitter = ConceptualEmitter(ctx.require("trace"),
                                    include_timing=c.include_timing,
                                    split_first_rest=c.split_first_rest)
        ast = emitter.generate()
        ctx.artifacts["ast"] = ast
        ctx.artifacts["source"] = print_program(ast)
        return f"{len(ctx.artifacts['source'].splitlines())} lines"

    def serialize(self, ctx):
        """JSON envelope: the source plus the generator flags."""
        env = {"was_aligned": ctx.artifacts.get("was_aligned", False),
               "was_resolved": ctx.artifacts.get("was_resolved", False),
               "source": ctx.artifacts["source"]}
        return json.dumps(env)

    def deserialize(self, ctx, text):
        """Install a cached source envelope into the context."""
        env = json.loads(text)
        # the generator flags ride with the source so a cache hit
        # reconstructs the exact GeneratedBenchmark metadata
        ctx.artifacts["was_aligned"] = env["was_aligned"]
        ctx.artifacts["was_resolved"] = env["was_resolved"]
        ctx.artifacts["source"] = env["source"]
        ctx.artifacts.pop("ast", None)
        return (f"{len(env['source'].splitlines())} lines (cached)")


class CompileStage(Stage):
    """Source text (or the just-emitted AST) → runnable program."""

    name = "compile"
    produces = "benchmark"

    def run(self, ctx):
        """Compile the source (or the freshly emitted AST)."""
        from repro.conceptual.compiler import ConceptualProgram
        ast = ctx.artifacts.get("ast")
        if ast is not None:
            program = ConceptualProgram(ast, name=ctx.config.name)
        else:
            program = ConceptualProgram.from_source(ctx.require("source"),
                                                    name=ctx.config.name)
        ctx.artifacts["benchmark"] = program
        ctx.artifacts.setdefault("source", program.source)
        return f"{program.statement_count} statements"


class RunStage(Stage):
    """Execute the compiled benchmark on the simulated platform."""

    name = "run"
    produces = "run_result"

    def key_parts(self, ctx):
        """None: execution is never cached."""
        return None

    def run(self, ctx):
        """Run the benchmark under the execution-stage model, applying
        the §5.4 what-if knobs (compute scaling, platform overrides)."""
        program = ctx.require("benchmark")
        nranks = ctx.config.nranks
        if nranks is None:
            raise PipelineError("RunStage requires config.nranks")
        if ctx.config.compute_scale != 1.0:
            # §5.4 what-if: scale the benchmark's COMPUTE statements at
            # the last moment, so the cached trace/source stay pristine
            from repro.generator.api import scale_compute
            program = scale_compute(program, ctx.config.compute_scale)
        faults = _fault_injector(ctx, execution=True)
        try:
            result, logs = program.run(nranks, model=ctx.run_model,
                                       hooks=ctx.hooks,
                                       max_steps=ctx.config.max_steps,
                                       faults=faults,
                                       profile=ctx.config.profile,
                                       **_queue_kwargs(ctx),
                                       **_schedule_kwargs(
                                           ctx, execution=True))
        except SimulationError as exc:
            partial = _salvage(ctx, exc, faults)
            if partial is None:
                raise
            ctx.artifacts["run_result"] = partial
            return ("salvaged",
                    f"{partial.total_time * 1e6:.1f} us simulated "
                    f"(prefix; {exc})")
        ctx.artifacts["run_result"] = result
        ctx.artifacts["logs"] = logs
        detail = f"{result.total_time * 1e6:.1f} us simulated"
        if ctx.config.compute_scale != 1.0:
            detail += f" (compute x{ctx.config.compute_scale:g})"
        if faults is not None:
            ctx.artifacts["fault_report"] = result.fault_report
            if result.degraded:
                ctx.artifacts["degraded"] = True
                return ("degraded", detail + " (crashed-rank prefix)")
        return detail


class ReplayStage(Stage):
    """ScalaReplay: execute the trace itself, event by event."""

    name = "replay"
    produces = "run_result"

    def key_parts(self, ctx):
        """None: replays are never cached."""
        return None

    def run(self, ctx):
        """Re-execute the trace event by event under the run model."""
        from repro.tools.replay import replay_program
        from repro.mpi.world import run_spmd
        trace = ctx.require("trace")
        faults = _fault_injector(ctx, execution=True)
        try:
            result = run_spmd(
                replay_program(trace,
                               include_timing=ctx.config.include_timing),
                trace.world_size, model=ctx.run_model, hooks=ctx.hooks,
                max_steps=ctx.config.max_steps, faults=faults,
                profile=ctx.config.profile, **_queue_kwargs(ctx),
                **_schedule_kwargs(ctx, execution=True))
        except SimulationError as exc:
            partial = _salvage(ctx, exc, faults)
            if partial is None:
                raise
            ctx.artifacts["run_result"] = partial
            return ("salvaged",
                    f"{partial.total_time * 1e6:.1f} us simulated, "
                    f"{partial.messages_sent} messages (prefix; {exc})")
        ctx.artifacts["run_result"] = result
        if faults is not None:
            ctx.artifacts["fault_report"] = result.fault_report
            if result.degraded:
                ctx.artifacts["degraded"] = True
        return (f"{result.total_time * 1e6:.1f} us simulated, "
                f"{result.messages_sent} messages")
