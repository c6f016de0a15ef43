"""Tests of the benchmark's own machinery.

Run from the root of the checkout::

    python -m pytest perfbench/tests -q
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)

import refclock  # noqa: E402
from gate import check_makespans, check_profiles, gate_cell  # noqa: E402
from spantree import Recorder, self_times  # noqa: E402
from workloads import (WORKLOADS, Cell, loglog_slope,  # noqa: E402
                       scaling_exponent, summarize)


def _span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "start": start, "end": end}


class TestSelfTime:
    def test_nested_and_adjacent_children(self):
        spans = [_span(1, None, 0.0, 10.0),
                 _span(2, 1, 1.0, 3.0),    # child
                 _span(3, 1, 3.0, 5.0),    # adjacent to the first child
                 _span(4, 2, 1.5, 2.5),    # nested inside child 2 only
                 _span(5, 1, 8.0, 9.0)]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(10.0 - 5.0)
        assert selfs[2] == pytest.approx(2.0 - 1.0)
        assert selfs[3] == pytest.approx(2.0)
        assert selfs[4] == pytest.approx(1.0)

    def test_overlapping_children_are_covered_once(self):
        spans = [_span(1, None, 0.0, 4.0), _span(2, 1, 0.5, 2.0),
                 _span(3, 1, 1.5, 3.0)]
        assert self_times(spans)[1] == pytest.approx(4.0 - 2.5)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span(1, None, 1.0, 2.0), _span(2, 1, 0.0, 1.5)]
        assert self_times(spans)[1] == pytest.approx(0.5)

    def test_recorder_links_parents_and_cells(self):
        rec = Recorder()
        rec.cell = "c0"
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            with rec.span("next"):
                pass
        outer, inner, nxt = rec.spans
        assert outer["parent"] is None
        assert inner["parent"] == nxt["parent"] == outer["id"]
        assert {s["cell"] for s in rec.spans} == {"c0"}
        assert outer["start"] <= inner["start"] <= inner["end"] \
            <= nxt["start"] <= nxt["end"] <= outer["end"]


class TestScalingFit:
    def test_power_law_slope(self):
        xs = [16, 32, 64, 128]
        assert loglog_slope(xs, [3.0 * x ** 2.8 for x in xs]) == \
            pytest.approx(2.8)

    def test_largest_app_exponent(self):
        walls = {Cell("halo3d", n, "S"): 1e-4 * n ** 2.8
                 for n in (16, 32, 64)}
        walls.update({Cell("laghos", n, "S"): 2e-3 * n ** 1.5
                      for n in (16, 32, 64)})
        walls[Cell("bt", 16, "W")] = 5.0  # one rank count: no slope
        assert scaling_exponent(walls) == pytest.approx(2.8)

    def test_no_rank_axis(self):
        assert scaling_exponent({Cell("bt", 16, "W"): 1.0,
                                 Cell("cg", 16, "W"): 2.0}) is None
        with pytest.raises(ValueError):
            loglog_slope([16, 16], [1.0, 2.0])


class TestSummary:
    def test_tail_has_ten_samples_beyond(self):
        s = summarize([float(x) for x in range(1, 21)])
        assert s["n"] == 20 and s["median"] == 10.5
        pct, value = s["tail"]
        assert pct == 50 and value == 10.0
        assert sum(1 for x in range(1, 21) if x > value) == 10

    def test_no_tail_below_eleven_samples(self):
        assert summarize([1.0, 2.0, 3.0])["tail"] is None


def test_seed_permutes_cells_only():
    wl = WORKLOADS["paper-suite"]
    orders = {tuple(c.id for c in wl.order(seed)) for seed in range(5)}
    assert len(orders) > 1
    assert all(sorted(o) == sorted(c.id for c in wl.cells) for o in orders)


class TestGate:
    @pytest.fixture(scope="class")
    def ep(self):
        from repro.pipeline import PipelineConfig, RunContext, full_pipeline
        config = PipelineConfig(app="ep", nranks=4)
        result = full_pipeline().run(config)
        return RunContext(config), result

    def _gate(self, ep, benchmark):
        ctx, _ = ep
        return gate_cell("ep.4.S", ctx.program, benchmark, 4, ctx.model,
                         ctx.run_model)

    def test_clean_cell_passes(self, ep):
        observed, misses = self._gate(ep, ep[1].benchmark)
        assert misses == []
        refs = {k: v.hex() for k, v in observed.items()}
        assert check_makespans(refs, observed) == []

    def test_tampered_reference_is_flagged(self, ep):
        observed, _ = self._gate(ep, ep[1].benchmark)
        refs = {k: v.hex() for k, v in observed.items()}
        key = "ep.4.S/generated"
        refs[key] = math.nextafter(observed[key], math.inf).hex()
        misses = check_makespans(refs, observed)
        assert len(misses) == 1 and misses[0].startswith(key)
        del refs[key]
        assert check_makespans(refs, observed) == [
            f"{key}: no committed reference"]

    def test_dropped_op_is_flagged(self, ep):
        from repro.conceptual.compiler import ConceptualProgram
        line = "ALL TASKS REDUCE A 8 BYTES VALUE TO ALL TASKS THEN\n"
        source = ep[1].source
        assert line in source
        dropped = ConceptualProgram.from_source(source.replace(line, "", 1))
        _, misses = self._gate(ep, dropped)
        assert len(misses) == 1 and "§5.2" in misses[0]

    def test_profile_check(self):
        orig = {"Allreduce": (3, 96), "Send": (10, 10240)}
        assert check_profiles(orig, dict(orig)) is None
        assert "Allreduce" in check_profiles(
            orig, {"Allreduce": (2, 64), "Send": (10, 10240)})
        assert "op sets differ" in check_profiles(orig,
                                                  {"Send": (10, 10240)})


class TestRefClock:
    def test_constant_speed_scales_durations(self):
        ref = refclock.REF_KERNEL_S
        clock = refclock.RefClock([(t, 2 * ref) for t in range(5)])
        # the kernel ran at half the reference speed: half as long
        assert clock(3.0) - clock(1.0) == pytest.approx(1.0)

    def test_speed_changes_between_sample_midpoints(self):
        ref = refclock.REF_KERNEL_S
        samples = [(t, ref) for t in range(5)] \
            + [(t, ref / 2) for t in range(5, 10)]
        clock = refclock.RefClock(samples)
        assert clock(4.5) - clock(0.0) == pytest.approx(4.5)
        # past the midpoint of samples 4 and 5 the host runs twice as fast
        assert clock(9.0) - clock(4.5) == pytest.approx(9.0)
        assert clock(2.0) < clock(4.5) < clock(6.0)

    def test_running_median_drops_a_lone_outlier(self):
        durations = [1.0, 1.0, 9.0, 1.0, 1.0]
        assert refclock.smooth(durations) == [1.0] * 5

    def test_sampler_records_while_running(self):
        sampler = refclock.Sampler()
        with sampler.running():
            pass
        assert len(sampler.samples) == 2
        assert all(d > 0 for _, d in sampler.samples)
