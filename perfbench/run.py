"""End-to-end pipeline benchmark over the public pipeline API.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-suite --seed 1 \\
        --seconds 10 --trace 0

Runs whole passes of the workload for ``--seconds`` (at least one
pass), checks every output against the
committed references, and prints a report followed, on the last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, writing
every span to ``.perfbench/spans/<workload>-seed<n>.jsonl``.

Every time is in reference seconds: wall time rescaled by the speed of
the shared host, measured throughout the run with a fixed kernel (see
``perfbench/refclock.py``).  The report also prints the raw wall time.

Metric names and units come from ``BENCHMARK.json``; see
``perfbench/README.md`` for what each one measures.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import refclock
from gate import (REFERENCES, GateMemo, check_makespans, code_digest,
                  gate_cell, load_references, write_references)
from spantree import Recorder, probes
from workloads import (WORKLOADS, cell_key, config_for, fill_cache,
                       layer_metrics, pass_figures, run_pass,
                       scaling_exponent, summarize, trace_bytes)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
#: set-ups measured per run; ``setup_s`` is their median
SETUP_REPEATS = 5


def bootstrap() -> None:
    """Put the checkout's ``src`` and ``benchmarks`` on the path.

    Exits with an error, printing no result, when the checkout has no
    sources: the benchmark never measures an installed copy instead.
    """
    src = os.path.join(ROOT, "src")
    if not (os.path.isfile(os.path.join(src, "repro", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "benchmarks",
                                            "_util.py"))):
        sys.exit(f"perfbench: {ROOT} has no src/repro or "
                 "benchmarks/_util.py; run from a full checkout")
    sys.path[:0] = [src, os.path.join(ROOT, "benchmarks")]
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def pin_to_one_cpu() -> None:
    """Keep the benchmark, its set-up children included, on one CPU.

    The kernel samples then time the core the measured work runs on.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not offered here: run unpinned
        pass


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark at the current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:  # no /proc: the peak spans the whole process
        pass


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as fh:
            hwm = re.search(r"^VmHWM:\s+(\d+) kB", fh.read(), re.M)
        if hwm:
            return int(hwm.group(1)) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_layers() -> None:
    """The set-up's imports: every module a pass reaches."""
    import repro.apps  # noqa: F401
    import repro.conceptual.compiler  # noqa: F401
    import repro.conceptual.parser  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.generator.align  # noqa: F401
    import repro.generator.api  # noqa: F401
    import repro.generator.emit_conceptual  # noqa: F401
    import repro.generator.wildcard  # noqa: F401
    import repro.pipeline  # noqa: F401
    import repro.scalatrace.serialize  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.sim.queueing  # noqa: F401
    import repro.sweep  # noqa: F401
    import repro.tools  # noqa: F401
    import repro.tools.replay  # noqa: F401
    import repro.topology  # noqa: F401


def measure_setup(name: str, work: str):
    """Time ``SETUP_REPEATS`` fresh set-ups, each in its own interpreter.

    A set-up is the interpreter start, the imports and, on the warm
    workload, filling an empty artifact cache.  The kernel cannot run
    beside a child on the same CPU, so each set-up is timed in reference
    seconds from the kernel measured right before and after it.
    Returns the samples and the cache directory the last set-up filled.
    """
    samples, cache_dir = [], ""
    for k in range(SETUP_REPEATS):
        cache_dir = os.path.join(work, f"setup{k}")
        before = refclock.bracket()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--setup-only", "--workload", name,
                        "--cache-dir", cache_dir],
                       check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        kernel_s = (before + refclock.bracket()) / 2
        samples.append(wall * refclock.REF_KERNEL_S / kernel_s)
    return samples, cache_dir


class Run:
    """One benchmark run: passes, the gate, and the metrics."""

    def __init__(self, wl, args, work: str):
        self.wl, self.args, self.work = wl, args, work
        #: None while recording new references: nothing to compare to
        self.refs = (None if args.write_references
                     else load_references().get(wl.name, {}))
        self.rec = Recorder(cell_key=cell_key)
        self.sampler = refclock.Sampler()
        self.attempted = 0
        self.failed = 0
        self.misses = []
        self.observed = {}
        self.untraced, self.traced, self.layers = [], [], []
        self.results = {}
        self.trace_bytes = 0
        self.npass = 0

    # -- passes ------------------------------------------------------------
    def one_pass(self, full: bool, cache_dir: str) -> None:
        wl, rec = self.wl, self.rec
        pass_dir = (cache_dir if wl.warm
                    else os.path.join(self.work, f"pass{self.npass}"))
        order = wl.order(self.args.seed, self.npass)
        self.npass += 1
        reset_peak_rss()
        with probes(rec, full):
            pspan, outcomes = run_pass(wl, order, rec, pass_dir)
        rss_mb = peak_rss_mb()
        clock = self.clock()
        rec.retime(clock)
        figs = pass_figures(rec.spans, pspan, clock)
        figs["peak_rss_mb"] = rss_mb
        for cell_id, (observed, error) in outcomes.items():
            misses = self._check(observed)
            if error:
                misses.insert(0, f"{cell_id}: {error}")
            self._account(misses + self._observe(observed))
        if full:
            replay = self._replay(figs["results"])
            self.layers.append(layer_metrics(rec.spans, pspan, replay))
            self.traced.append(figs)
        else:
            self.untraced.append(figs)
        self.results = figs.pop("results")
        self.trace_bytes = trace_bytes(pass_dir)
        for s in rec.spans:
            s.pop("result", None)
        if not wl.warm:
            shutil.rmtree(pass_dir, ignore_errors=True)

    def _replay(self, results):
        """The same traces through ScalaReplay (``sim.replay_s``)."""
        from repro.pipeline import Pipeline, ReplayStage, RunContext
        rec = self.rec
        with probes(rec, True), rec.span("bench.replay") as rspan:
            for cell_id, res in sorted(results.items()):
                rec.cell = cell_id
                ctx = RunContext(res["config"])
                ctx.artifacts["trace"] = res["trace"]
                Pipeline([ReplayStage()]).run(context=ctx)
            rec.cell = None
        rec.retime(self.clock())
        return rspan

    def clock(self) -> refclock.RefClock:
        """The reference clock of the kernel samples taken so far."""
        return refclock.RefClock(self.sampler.samples)

    def _account(self, misses) -> None:
        """Count one checked cell, failed when it has any miss."""
        self.attempted += 1
        self.failed += bool(misses)
        self.misses += misses

    def _check(self, observed):
        """Misses of the observed makespans against the references."""
        if self.refs is None:
            return []
        return check_makespans(self.refs, observed)

    def _observe(self, observed):
        """Record makespans; a value that changes between passes misses."""
        misses = []
        for key, value in observed.items():
            seen = self.observed.setdefault(key, value)
            if seen != value:
                misses.append(f"{key}: makespan differs between passes "
                              f"({seen!r} vs {value!r})")
        return misses

    def passes(self, cache_dir: str) -> None:
        """Whole passes for ``--seconds``: at least one, then another
        while it is expected to end within the time.  Traced runs
        alternate an untraced and a traced pass."""
        kinds = [False, True] if self.args.trace else [False]
        t0 = time.perf_counter()
        with self.sampler.running():
            while True:
                t_round = time.perf_counter()
                for full in kinds:
                    self.one_pass(full, cache_dir)
                now = time.perf_counter()
                if now - t0 + (now - t_round) > self.args.seconds:
                    return

    # -- the gate ----------------------------------------------------------
    def gate(self, memo) -> None:
        """§5.2 profiles and makespans of every generated benchmark.

        ``memo`` (a :class:`gate.GateMemo`, or None to always run)
        supplies the outcome of a cell gated before with the same code
        and generated source.
        """
        from repro.conceptual.compiler import ConceptualProgram
        from repro.pipeline import RunContext
        for base in self.wl.bases():
            source = next((r["source"] for cid, r
                           in sorted(self.results.items())
                           if cid.split("/")[0] == base.base_id
                           and r["source"] is not None), None)
            if source is None:
                self._account([f"{base.base_id}: no generated benchmark "
                               "to gate"])
                continue
            key = memo and memo.key(base.base_id, self.wl.platform, source)
            hit = memo and memo.get(key)
            if hit:
                observed, misses = hit
            else:
                ctx = RunContext(config_for(self.wl, base, None))
                benchmark = ConceptualProgram.from_source(
                    source, name=ctx.config.name)
                observed, misses = gate_cell(base.base_id, ctx.program,
                                             benchmark, base.nranks,
                                             ctx.model, ctx.run_model)
                if memo and observed:
                    memo.put(key, observed, misses)
            self._account(misses + self._check(observed)
                          + self._observe(observed))

    def timing_err_pct(self) -> float:
        """§5.3 mean absolute % error, generated vs original makespan."""
        errs = []
        for base in self.wl.bases():
            orig = self.observed.get(f"{base.base_id}/original")
            gen = self.observed.get(f"{base.base_id}/generated")
            if orig and gen is not None:
                errs.append(abs(gen - orig) / orig * 100.0)
        # no pair at all only when every gate run failed (correct=false)
        return statistics.fmean(errs) if errs else 0.0


def e2e_metrics(run: Run, setup):
    """The end-to-end metrics: a list of samples or one value each."""
    passes = run.untraced
    walls = {}
    for c in run.wl.cells:
        samples = [p["cells"][c.id] for p in passes if c.id in p["cells"]]
        if samples:
            walls[c] = statistics.median(samples)
    scaling = scaling_exponent(walls)
    lines = {}
    for p in passes:
        lines.update(p["lines"])
    return {
        "e2e_s": [p["e2e_s"] for p in passes],
        "generate_s": [p["generate_s"] for p in passes],
        "bench_exec_s": [p["bench_exec_s"] for p in passes],
        "setup_s": setup,
        # later passes' peaks creep up with the pass count, which
        # follows the host's speed; the first pass is the same in every run
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        # 1.0 where the workload runs each app at one rank count only
        "scaling_exp": 1.0 if scaling is None else scaling,
        "points_per_s": [p["n_cells"] / p["e2e_s"] for p in passes],
        "timing_err_pct": run.timing_err_pct(),
        "trace_bytes": run.trace_bytes,
        "bench_lines": sum(lines.values()),
        "ok_ratio": 1.0 - run.failed / run.attempted,
    }


def layer_values(run: Run):
    """The per-layer metrics: samples over the traced passes."""
    samples = {}
    for m in run.layers:
        for k, v in m.items():
            samples.setdefault(k, []).append(v)
    traced = statistics.median(p["e2e_s"] for p in run.traced)
    untraced = statistics.median(p["e2e_s"] for p in run.untraced)
    samples["bench.e2e_traced_s"] = [p["e2e_s"] for p in run.traced]
    samples["bench.e2e_untraced_s"] = [p["e2e_s"] for p in run.untraced]
    samples["bench.tracing_overhead_s"] = traced - untraced
    samples["bench.host_slowdown"] = run.clock().slowdown()
    return samples


def report(run: Run, metrics: dict, specs: list) -> dict:
    """Print one line per metric; returns the result's metrics block."""
    wl, args = run.wl, run.args
    walls = [p["wall_s"] for p in run.untraced]
    print(f"perfbench: workload {wl.name}, seed {args.seed}, "
          f"trace {args.trace}, {run.npass} pass(es)")
    print(f"  why: {wl.why}")
    print(f"  host: {run.clock().slowdown():.4g} wall s per reference s "
          f"(median); untraced pass wall median "
          f"{statistics.median(walls):.6g} s")
    out = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        raw = metrics[name]
        if isinstance(raw, list):
            s = summarize(raw)
            value = s["median"]
            tail = (f"  p{s['tail'][0]} {s['tail'][1]:.6g}"
                    if s["tail"] else "")
            detail = f"  (median of n={s['n']}{tail})"
        else:
            value, detail = raw, ""
        print(f"  {name:<34s} {value:>14.6g} {unit}{detail}")
        out[name] = {"value": value, "unit": unit}
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-references", action="store_true",
                   help="record this run's makespans as the references")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--cache-dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    bootstrap()
    args = parse_args(argv)
    pin_to_one_cpu()
    wl = WORKLOADS[args.workload]
    import_layers()
    if args.setup_only:
        if wl.warm:
            fill_cache(wl, args.cache_dir)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    work = os.path.join(OUT, "work", f"{wl.name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    # temporary files stay inside the checkout, set-up children included
    os.environ["TMPDIR"] = tempfile.tempdir = work
    try:
        setup, cache_dir = measure_setup(wl.name, work)
        run = Run(wl, args, work)
        origin = time.perf_counter()
        run.passes(cache_dir)
        origin = run.clock()(origin)
        memo = (None if args.write_references else
                GateMemo(os.path.join(OUT, "gate"), code_digest(ROOT)))
        run.gate(memo)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.write_references:
        refs = load_references() if os.path.exists(REFERENCES) else {}
        refs[wl.name] = {k: v.hex() for k, v in run.observed.items()
                         if v is not None}
        write_references(refs)
    if args.trace:
        spans_dir = os.path.join(OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        run.rec.write_jsonl(os.path.join(
            spans_dir, f"{wl.name}-seed{args.seed}.jsonl"), origin)
        metrics, specs = layer_values(run), bench["per_layer"]
    else:
        metrics = e2e_metrics(run, setup)
        specs = bench["end_to_end"]
    block = report(run, metrics, specs)
    if memo is not None:
        print(f"  gate: {len(wl.bases())} benchmark(s), {memo.hits} "
              "outcome(s) reused from .perfbench/gate")
    for miss in run.misses:
        print(f"  FAIL {miss}")
    print(json.dumps({"correct": not run.misses,
                      "attempted": run.attempted,
                      "failed": run.failed, "metrics": block}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
