"""In-memory span recorder and the probes that feed it.

Spans are recorded by the benchmark's own code around calls into each
layer's public functions; nothing inside ``src/`` is edited.  A probe
replaces a public function (or method) with a wrapper for the duration
of a ``with probes(...)`` block and restores the original on exit.

Two probe sets exist:

* ``light`` — only ``Pipeline.run`` and ``ConceptualProgram.run``, with
  no ``repro.obs`` collector.  The untraced run uses it to split each
  cell's wall time into generation and benchmark execution; it costs
  two clock reads per cell.
* ``full`` — every layer call named in ``perfbench/README.md``.  Each
  call runs under a fresh ``repro.obs`` collector whose counters are
  stored on that call's span, so counters of the trace run, the
  benchmark run and the replay run are never summed together, and the
  program's own span names never enter the attribution.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Recorder:
    """Spans kept in memory: name, start, end, parent and cell id."""

    def __init__(self, cell_key=None) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        #: id of the cell the next spans belong to
        self.cell: Optional[str] = None
        #: names the cell of a ``Pipeline.run`` called with no cell set
        #: (the points of a sweep), from its config
        self.cell_key = cell_key
        self._retimed = 0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record one span around the block; yields the mutable record."""
        rec: Dict[str, Any] = {
            "id": len(self.spans) + 1, "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "cell": self.cell, "start": time.perf_counter(), "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def retime(self, clock) -> None:
        """Move the spans closed since the last call onto ``clock``.

        ``start`` and ``end`` become reference seconds (see
        ``refclock``); ``wall_start`` and ``wall_s`` keep the span's
        wall-clock start and duration.
        """
        for s in self.spans[self._retimed:]:
            s["wall_start"], s["wall_s"] = s["start"], s["end"] - s["start"]
            s["start"], s["end"] = clock(s["start"]), clock(s["end"])
        self._retimed = len(self.spans)

    def inside(self, name: str) -> bool:
        """True when an open span of this name encloses the caller."""
        return any(s["name"] == name for s in self._stack)

    def write_jsonl(self, path: str, origin: float) -> None:
        """Write every span, with its self time, one JSON object a line.

        Times are seconds relative to ``origin``, on the spans' clock.
        """
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {k: v for k, v in s.items()
                       if k not in ("start", "end", "wall_start", "result")}
                rec["start_s"] = round(s["start"] - origin, 9)
                rec["end_s"] = round(s["end"] - origin, 9)
                rec["dur_s"] = round(s["end"] - s["start"], 9)
                rec["self_s"] = round(selfs[s["id"]], 9)
                fh.write(json.dumps(rec, sort_keys=True, default=str)
                         + "\n")


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"],
                                                         s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


# -- probes ------------------------------------------------------------------

def _engine_counters(counters: Dict[str, float], run: str) -> Dict[str, float]:
    """The engine's counters of one simulated run, labelled by run kind."""
    return {f"sim.steps.{run}": counters.get("engine.steps", 0),
            f"sim.messages.{run}": counters.get("engine.messages_sent", 0),
            f"sim.bytes.{run}": counters.get("engine.bytes_sent", 0)}


def _digest(result, keep_trace: bool) -> Dict[str, Any]:
    """What the benchmark reads from a ``PipelineResult``.

    Only the source text (and, in traced passes, the processed trace
    for the replay) outlives the call, so the next cell never runs with
    the previous cell's artifacts still in memory.
    """
    cache = result.cache
    return {"config": result.config,
            "stages": [(r.stage, r.seconds) for r in result.records],
            "source": result.source,
            "cache_hits": cache.hits if cache is not None else 0,
            "cache_misses": cache.misses if cache is not None else 0,
            "trace": result.trace if keep_trace else None}


def _scoped(rec: Recorder, name: str, fn, args, kwargs, collect: bool,
            run: Optional[str] = None):
    """Call ``fn`` inside a span, under a fresh collector when asked.

    ``run`` labels the engine counters of a simulated run
    (``trace``, ``benchmark`` or ``replay``).
    """
    from repro import obs
    with rec.span(name) as span:
        if not collect:
            return fn(*args, **kwargs)
        inst = obs.Instrumentation()
        with obs.instrumented(inst):
            out = fn(*args, **kwargs)
        counters = dict(inst.counters)
        if run is not None:
            counters.update(_engine_counters(inst.counters, run))
        span["counters"] = counters
        return out


def _wrap(rec: Recorder, name: str, fn, collect: bool):
    def wrapper(*args, **kwargs):
        return _scoped(rec, name, fn, args, kwargs, collect)
    return wrapper


def _probe_table(rec: Recorder, full: bool):
    """(owner, attribute, replacement) for every probe of the set."""
    from repro.conceptual import compiler, printer
    from repro.generator import align, api, emit_conceptual, wildcard
    from repro.mpi import world
    from repro import pipeline, scenarios, sweep, topology
    from repro.scalatrace import serialize
    from repro.scalatrace.tracer import ScalaTraceHook

    Program = compiler.ConceptualProgram
    orig_pipeline_run = pipeline.Pipeline.run
    orig_bench_run = Program.run

    def pipeline_run(self, config=None, **kwargs):
        outer = rec.cell
        if (outer is None and rec.cell_key is not None
                and config is not None):
            rec.cell = rec.cell_key(config)
        try:
            with rec.span("pipeline.Pipeline.run") as span:
                result = orig_pipeline_run(self, config, **kwargs)
                span["result"] = _digest(result, keep_trace=full)
                return result
        finally:
            rec.cell = outer

    def bench_run(self, *args, **kwargs):
        return _scoped(rec, "conceptual.run", orig_bench_run,
                       (self,) + args, kwargs, full, "benchmark")

    table = [(pipeline.Pipeline, "run", pipeline_run),
             (Program, "run", bench_run)]
    if not full:
        return table

    orig_run_spmd = world.run_spmd

    def run_spmd(*args, **kwargs):
        hooks = kwargs.get("hooks") or (args[3] if len(args) > 3 else ())
        if any(isinstance(h, ScalaTraceHook) for h in hooks or ()):
            name, run = "scalatrace.trace", "trace"
        elif not rec.inside("conceptual.run"):
            name, run = "sim.replay", "replay"
        else:
            return orig_run_spmd(*args, **kwargs)
        return _scoped(rec, name, orig_run_spmd, args, kwargs, True, run)

    from_source = Program.__dict__["from_source"].__func__
    init = Program.__init__
    generate = emit_conceptual.ConceptualEmitter.generate
    table += [
        (world, "run_spmd", run_spmd),
        (serialize, "dumps_trace",
         _wrap(rec, "scalatrace.dumps_trace", serialize.dumps_trace, True)),
        (serialize, "loads_trace",
         _wrap(rec, "scalatrace.loads_trace", serialize.loads_trace, True)),
        (align, "needs_alignment",
         _wrap(rec, "generator.needs_alignment", align.needs_alignment,
               False)),
        (align, "align_collectives",
         _wrap(rec, "generator.align_collectives", align.align_collectives,
               True)),
        (wildcard, "has_wildcards",
         _wrap(rec, "generator.has_wildcards", wildcard.has_wildcards,
               False)),
        (wildcard, "resolve_wildcards",
         _wrap(rec, "generator.resolve_wildcards",
               wildcard.resolve_wildcards, True)),
        (emit_conceptual.ConceptualEmitter, "generate",
         _wrap(rec, "generator.emit", generate, True)),
        (api, "scale_compute",
         _wrap(rec, "generator.scale_compute", api.scale_compute, False)),
        (printer, "print_program",
         _wrap(rec, "conceptual.print_program", printer.print_program,
               False)),
        (Program, "from_source",
         classmethod(_wrap(rec, "conceptual.from_source", from_source,
                           True))),
        (Program, "__init__",
         _wrap(rec, "conceptual.compile", init, True)),
        (topology, "make_topology_model",
         _wrap(rec, "topology.make_topology_model",
               topology.make_topology_model, False)),
        (scenarios, "scenario_fault_plan",
         _wrap(rec, "scenarios.scenario_fault_plan",
               scenarios.scenario_fault_plan, False)),
        (sweep, "run_sweep",
         _wrap(rec, "sweep.run_sweep", sweep.run_sweep, False)),
    ]
    return table


@contextmanager
def probes(rec: Recorder, full: bool) -> Iterator[Recorder]:
    """Install the light or full probe set; restore the originals on exit."""
    table = _probe_table(rec, full)
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in table]
    try:
        for owner, attr, new in table:
            setattr(owner, attr, new)
        yield rec
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)
