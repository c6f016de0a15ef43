"""The three workloads, one pass of each, and the metrics of a pass.

A *pass* runs every cell of a workload once, in an order permuted by
the run's seed and the pass's index.  The cold workloads run ``full_pipeline()`` per cell
against an empty artifact cache, so every cacheable stage misses and
writes.  ``whatif-warm`` runs one ``repro.sweep.run_sweep`` over a
cache that set-up filled, so every point reads its trace and source.
"""

from __future__ import annotations

import math
import os
import random
import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from spantree import self_times

#: stages from the application to a compiled benchmark (``generate_s``)
GEN_STAGES = ("trace", "align", "resolve", "emit", "compile")


@dataclass(frozen=True)
class Cell:
    """One pipeline run: an app at a rank count, class and what-if point."""

    app: str
    nranks: int
    cls: str
    compute_scale: float = 1.0
    scenario: Optional[str] = None

    @property
    def base_id(self) -> str:
        """The generated benchmark this cell runs (shared by what-ifs)."""
        return f"{self.app}.{self.nranks}.{self.cls}"

    @property
    def id(self) -> str:
        if self.scenario is None:
            return self.base_id
        return f"{self.base_id}/cs{self.compute_scale:g}/{self.scenario}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    platform: str
    cells: Tuple[Cell, ...]
    warm: bool = False

    def order(self, seed: int, npass: int = 0) -> List[Cell]:
        """The cells in pass ``npass``'s order under ``seed`` (outputs do
        not depend on it; each pass of a run gets its own)."""
        cells = list(self.cells)
        random.Random(f"{seed}/{npass}").shuffle(cells)
        return cells

    def bases(self) -> List[Cell]:
        """One cell per distinct generated benchmark, in cell order."""
        seen: Dict[str, Cell] = {}
        for c in self.cells:
            seen.setdefault(c.base_id, Cell(c.app, c.nranks, c.cls))
        return list(seen.values())


PAPER_APPS = ("bt", "cg", "ep", "ft", "is", "lu", "mg", "sp", "sweep3d")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="paper-suite",
        why="the paper's nine apps at np 16 class W, cold: the only "
            "workload where Algorithms 1 and 2 (align, resolve) do real "
            "work",
        platform="bluegene",
        cells=tuple(Cell(a, 16, "W") for a in PAPER_APPS)),
    Workload(
        name="proxy-scaling",
        why="halo3d and laghos at np 8/16/32 class S, cold: running the "
            "generated program dominates and grows superlinearly in np",
        platform="bluegene",
        cells=tuple(Cell(a, n, "S") for a in ("halo3d", "laghos")
                    for n in (8, 16, 32))),
    Workload(
        name="whatif-warm",
        why="a cached bt np16 W trace swept over compute scale x scenario "
            "on arc: cache hits, parsing, routed fabric, queueing, "
            "adversaries",
        platform="arc",
        warm=True,
        cells=tuple(Cell("bt", 16, "W", cs, scn)
                    for cs in (1.0, 0.5, 0.0)
                    for scn in ("calm", "torus-hotlink", "codel-pressure"))),
)}


def config_for(wl: Workload, cell: Cell, cache_dir: Optional[str]):
    """The ``PipelineConfig`` of one cell (cache on when a dir is given)."""
    from repro.pipeline import PipelineConfig
    return PipelineConfig(app=cell.app, nranks=cell.nranks, cls=cell.cls,
                          platform=wl.platform,
                          use_cache=cache_dir is not None,
                          cache_dir=cache_dir or ".repro-cache")


def fill_cache(wl: Workload, cache_dir: str) -> None:
    """Set-up of the warm workload: trace and emit every base cell."""
    from repro.pipeline import Pipeline, TraceStage, generation_stages
    for base in wl.bases():
        Pipeline([TraceStage()] + generation_stages()).run(
            config_for(wl, base, cache_dir))


def cell_key(config) -> str:
    """Cell id of a pipeline config (names sweep points in the spans)."""
    base = f"{config.app}.{config.nranks}.{config.cls}"
    if config.scenario is None:
        return base
    return f"{base}/cs{config.compute_scale:g}/{config.scenario.name}"


# -- one pass ----------------------------------------------------------------

def run_pass(wl: Workload, order: Sequence[Cell], rec, work_dir: str):
    """Run every cell once; returns the pass span and per-cell outcomes.

    An outcome maps makespan ids to values plus the error text of a cell
    that raised or failed (None when it ran).
    """
    outcomes: Dict[str, Tuple[Dict[str, Optional[float]],
                              Optional[str]]] = {}
    if wl.warm:
        import repro.sweep
        plan = repro.sweep.SweepPlan(
            name=wl.name,
            base={"app": order[0].app, "nranks": order[0].nranks,
                  "cls": order[0].cls, "platform": wl.platform},
            extra_points=tuple({"compute_scale": c.compute_scale,
                                "scenario": c.scenario} for c in order))
        with rec.span("bench.pass") as pspan:
            result = repro.sweep.run_sweep(plan, workers=1,
                                           cache_dir=work_dir)
        for cell, point in zip(order, result.points):
            error = point.error or (None if point.status == "ok"
                                    else f"point {point.status}")
            outcomes[cell.id] = ({cell.id: point.metrics.get("makespan_s")},
                                 error)
        return pspan, outcomes
    from repro.pipeline import full_pipeline
    with rec.span("bench.pass") as pspan:
        for cell in order:
            rec.cell = cell.id
            with rec.span("bench.cell"):
                try:
                    outcomes[cell.id] = _makespans(cell, full_pipeline().run(
                        config_for(wl, cell,
                                   os.path.join(work_dir, cell.id))))
                except Exception as exc:  # counted as a failed cell
                    outcomes[cell.id] = {}, f"{type(exc).__name__}: {exc}"
            rec.cell = None
    return pspan, outcomes


def _makespans(cell: Cell, res):
    """A cold cell's outcome: its original and generated makespans."""
    orig = res.artifacts.get("trace_run_result")
    gen = res.run_result
    return ({f"{cell.id}/original": orig.total_time if orig else None,
             f"{cell.id}/generated": gen.total_time if gen else None},
            None)


# -- reading a pass's spans --------------------------------------------------

def descendants(spans: List[Dict[str, Any]], root: int) -> List[Dict]:
    """Every span below ``root`` (not including it)."""
    kids: Dict[int, List[Dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    out, todo = [], [root]
    while todo:
        for s in kids.get(todo.pop(), ()):
            out.append(s)
            todo.append(s["id"])
    return out


def dur(s: Dict[str, Any]) -> float:
    return s["end"] - s["start"]


def total(spans: Sequence[Dict], name: str) -> float:
    """Summed duration of the spans of one name."""
    return sum(dur(s) for s in spans if s["name"] == name)


def counter(spans: Sequence[Dict], name: str, key: str) -> float:
    """Summed counter ``key`` over the spans of one name."""
    return sum(s.get("counters", {}).get(key, 0) for s in spans
               if s["name"] == name)


def pass_figures(spans: List[Dict], pspan: Dict, clock) -> Dict[str, Any]:
    """The end-to-end figures of one pass, read from its spans.

    Spans are on the reference clock already.  A pipeline's stage
    records are wall seconds; the generation stages run first, so they
    cover the start of the pipeline span, and ``clock`` maps that
    stretch.
    """
    below = descendants(spans, pspan["id"])
    pipes = [s for s in below if s["name"] == "pipeline.Pipeline.run"]
    generate, cells, lines, results = 0.0, {}, {}, {}
    for s in pipes:
        res = s.get("result")
        cells[s["cell"]] = dur(s)
        if res is None:
            continue
        gen_wall = sum(sec for stage, sec in res["stages"]
                       if stage in GEN_STAGES)
        generate += (clock(s["wall_start"] + gen_wall)
                     - clock(s["wall_start"]))
        if res["source"] is not None:
            lines[s["cell"].split("/")[0]] = len(
                res["source"].splitlines())
        results[s["cell"]] = res
    return {"e2e_s": dur(pspan), "wall_s": pspan["wall_s"],
            "generate_s": generate,
            "bench_exec_s": total(below, "conceptual.run"),
            "cells": cells, "lines": lines, "results": results,
            "n_cells": len(cells)}


def trace_bytes(cache_root: str) -> int:
    """Total size of the serialized traces under a cache directory."""
    size = 0
    for dirpath, _, files in os.walk(cache_root):
        size += sum(os.path.getsize(os.path.join(dirpath, f))
                    for f in files if f.endswith(".trace"))
    return size


def layer_metrics(spans: List[Dict], pspan: Dict,
                  replay: Optional[Dict]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (and its replays)."""
    below = descendants(spans, pspan["id"])
    selfs = self_times(spans)
    rep = descendants(spans, replay["id"]) if replay else []
    m: Dict[str, float] = {}
    m["scalatrace.trace_s"] = total(below, "scalatrace.trace")
    for key in ("events_in", "lcs_cells", "merge_fastpath_hits"):
        m[f"scalatrace.{key}"] = counter(below, "scalatrace.trace",
                                         f"scalatrace.{key}")
    m["scalatrace.events_per_s"] = _ratio(m["scalatrace.events_in"],
                                          m["scalatrace.trace_s"])
    m["scalatrace.dump_s"] = total(below, "scalatrace.dumps_trace")
    m["scalatrace.load_s"] = total(below, "scalatrace.loads_trace")
    m["generator.check_s"] = (total(below, "generator.needs_alignment")
                              + total(below, "generator.has_wildcards"))
    m["generator.align_s"] = total(below, "generator.align_collectives")
    m["generator.align_lcs_cells"] = counter(
        below, "generator.align_collectives", "scalatrace.lcs_cells")
    m["generator.rsds_aligned"] = counter(
        below, "generator.align_collectives", "generator.rsds_aligned")
    m["generator.resolve_s"] = total(below, "generator.resolve_wildcards")
    for key in ("wildcards_resolved", "scheduler_iterations"):
        m[f"generator.{key}"] = counter(
            below, "generator.resolve_wildcards", f"generator.{key}")
    m["generator.emit_s"] = total(below, "generator.emit")
    m["generator.statements_emitted"] = counter(
        below, "generator.emit", "generator.statements_emitted")
    m["generator.scale_s"] = total(below, "generator.scale_compute")
    m["conceptual.print_s"] = total(below, "conceptual.print_program")
    m["conceptual.parse_s"] = total(below, "conceptual.from_source")
    m["conceptual.compile_s"] = total(below, "conceptual.compile")
    m["conceptual.run_s"] = total(below, "conceptual.run")
    m["sim.replay_s"] = total(rep, "sim.replay")
    m["conceptual.run_over_replay"] = _ratio(m["conceptual.run_s"],
                                             m["sim.replay_s"])
    for run, where, span in (("trace", below, "scalatrace.trace"),
                             ("benchmark", below, "conceptual.run"),
                             ("replay", rep, "sim.replay")):
        for key in ("steps", "messages", "bytes"):
            m[f"sim.{key}.{run}"] = counter(where, span,
                                            f"sim.{key}.{run}")
    m["sim.steps_per_s"] = _ratio(m["sim.steps.benchmark"],
                                  m["conceptual.run_s"])
    m["sim.link_wait_s"] = counter(below, "conceptual.run",
                                   "engine.link_wait_s_total")
    m["sim.link_drops"] = counter(below, "conceptual.run",
                                  "engine.link_drops_total")
    m["sim.links_used"] = counter(below, "conceptual.run",
                                  "engine.links_used")
    m["topology.build_s"] = total(below, "topology.make_topology_model")
    pipes = [s for s in below if s["name"] == "pipeline.Pipeline.run"]
    m["pipeline.overhead_s"] = sum(selfs[s["id"]] for s in pipes)
    hits = sum(s["result"]["cache_hits"] for s in pipes if "result" in s)
    misses = sum(s["result"]["cache_misses"] for s in pipes
                 if "result" in s)
    m["pipeline.cache_hits"] = hits
    m["pipeline.cache_misses"] = misses
    m["pipeline.cache_hit_ratio"] = _ratio(hits, hits + misses)
    sweeps = [s for s in below if s["name"] == "sweep.run_sweep"]
    sweep_ids = {s["id"] for s in sweeps}
    m["sweep.point_s"] = sum(dur(s) for s in pipes
                             if s["parent"] in sweep_ids)
    m["sweep.overhead_s"] = sum(selfs[s["id"]] for s in sweeps)
    m["scenarios.expand_s"] = total(below, "scenarios.scenario_fault_plan")
    m["bench.uncovered_s"] = selfs[pspan["id"]] + sum(
        selfs[s["id"]] for s in below if s["name"] == "bench.cell")
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- statistics --------------------------------------------------------------

def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    if sxx == 0.0:
        raise ValueError("need at least two distinct x values")
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def scaling_exponent(cell_walls: Dict[Cell, float]) -> Optional[float]:
    """The largest per-app slope of log(cell wall) against log(np).

    None when no app runs at two or more rank counts.
    """
    by_app: Dict[str, Dict[int, float]] = {}
    for cell, wall in cell_walls.items():
        by_app.setdefault(cell.app, {})[cell.nranks] = wall
    slopes = [loglog_slope(list(pts), list(pts.values()))
              for pts in by_app.values() if len(pts) >= 2]
    return max(slopes) if slopes else None


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, the highest percentile with at least ten samples beyond
    it (None below eleven samples), and the sample count."""
    xs = sorted(samples)
    n = len(xs)
    out: Dict[str, Any] = {"median": statistics.median(xs), "n": n,
                           "tail": None}
    if n >= 11:
        out["tail"] = (math.floor(100 * (n - 10) / n), xs[n - 11])
    return out
