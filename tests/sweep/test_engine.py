"""Sweep engine: parallel-vs-serial byte-identity, failure isolation,
modes, and observability."""

import json

import pytest

from repro import obs
from repro.errors import SweepError
from repro.sweep import SweepPlan, run_sweep

FAULTY = {"seed": 2011, "drop_rate": 0.05, "max_retries": 12}


def tiny_plan(**kw):
    defaults = dict(name="tiny", base={"app": "jacobi", "nranks": 4},
                    axes=[{"field": "compute_scale",
                           "values": [1.0, 0.5, 0.0]}])
    defaults.update(kw)
    return SweepPlan(**defaults)


class TestParallelSerialIdentity:
    """ISSUE 4's core guarantee: canonical results are byte-identical
    whether points ran serially or across racing worker processes."""

    def test_clean_grid(self, tmp_path):
        plan = tiny_plan()
        serial = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "c1"))
        parallel = run_sweep(plan, workers=2,
                             cache_dir=str(tmp_path / "c2"))
        assert serial.canonical_json() == parallel.canonical_json()
        assert serial.canonical_jsonl() == parallel.canonical_jsonl()

    def test_with_fault_plan_axis(self, tmp_path):
        plan = tiny_plan(axes=[{"field": "fault_plan",
                                "values": [None, FAULTY]}])
        serial = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "c1"))
        parallel = run_sweep(plan, workers=2,
                             cache_dir=str(tmp_path / "c2"))
        assert serial.canonical_json() == parallel.canonical_json()
        faulted = serial.points[1]
        assert faulted.fault is not None
        assert faulted.fault["counters"].get("drops", 0) > 0

    def test_shared_vs_cold_cache_identical(self, tmp_path):
        """Artifacts served from the cache reproduce the exact results
        of computing them fresh."""
        plan = tiny_plan()
        cached_dir = str(tmp_path / "shared")
        run_sweep(plan, workers=1, cache_dir=cached_dir)  # warm it
        warm = run_sweep(plan, workers=1, cache_dir=cached_dir)
        cold = run_sweep(plan, workers=1, use_cache=False)
        assert warm.canonical_json() == cold.canonical_json()
        assert warm.cache_hits > 0 and cold.cache_hits == 0

    def test_makespans_vary_across_points(self, tmp_path):
        result = run_sweep(tiny_plan(), workers=1,
                           cache_dir=str(tmp_path / "c"))
        times = [p.metrics["makespan_s"] for p in result.points]
        assert times == sorted(times, reverse=True)  # less compute, faster


class TestFailureIsolation:
    def test_single_bad_point_does_not_kill_sweep(self, tmp_path):
        # max_steps=1 trips the livelock guard (a SimulationError) on
        # the middle point only
        plan = tiny_plan(axes=[{"field": "max_steps",
                                "values": [None, 1, None]}])
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "c"))
        statuses = [p.status for p in result.points]
        assert statuses == ["ok", "failed", "ok"]
        failed = result.points[1]
        assert failed.error and "SimulationError" in failed.error
        assert result.failed == [failed]
        assert result.counts() == {"ok": 2, "degraded": 0, "failed": 1}

    def test_invalid_point_config_is_isolated(self, tmp_path):
        plan = tiny_plan(axes=[{"field": "nranks", "values": [4, -1]}])
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "c"))
        assert [p.status for p in result.points] == ["ok", "failed"]
        assert "PipelineConfigError" in result.points[1].error

    def test_failures_identical_in_parallel(self, tmp_path):
        plan = tiny_plan(axes=[{"field": "max_steps",
                                "values": [None, 1, None]}])
        serial = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "c1"))
        parallel = run_sweep(plan, workers=3,
                             cache_dir=str(tmp_path / "c2"))
        assert serial.canonical_json() == parallel.canonical_json()

    def test_crash_plan_reports_degraded(self, tmp_path):
        crash = {"seed": 1, "crashes": [{"rank": 0, "time": 0.0}]}
        plan = tiny_plan(axes=[{"field": "fault_plan",
                                "values": [crash]}])
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "c"))
        point = result.points[0]
        assert point.status == "degraded"
        assert point.fault is not None and point.fault["degraded"]


class TestModes:
    def test_trace_mode_metrics(self, tmp_path):
        plan = tiny_plan(mode="trace",
                         axes=[{"field": "nranks", "values": [4, 8]}])
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "c"))
        for p in result.points:
            assert p.metrics["trace_events"] > 0
            assert "makespan_s" not in p.metrics

    def test_generate_mode_metrics(self, tmp_path):
        plan = tiny_plan(mode="generate")
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "c"))
        for p in result.points:
            assert p.metrics["source_lines"] > 0
            assert "makespan_s" not in p.metrics

    def test_run_platform_params_axis(self, tmp_path):
        plan = tiny_plan(
            axes=[{"field": "scenario",
                   "values": [{"name": f"lat-{lat:g}",
                               "run_platform": "bluegene",
                               "run_platform_params": {"latency": lat}}
                              for lat in (3e-6, 3e-4)]}])
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "c"))
        slow, fast = result.points[1], result.points[0]
        assert slow.metrics["makespan_s"] > fast.metrics["makespan_s"]
        # the trace was computed once and shared across both points
        assert result.cache_misses == 2  # trace + emit
        assert result.cache_hits == 2

    def test_topology_placement_axis(self, tmp_path):
        # topology/placement are execution-only: the torus points share
        # one cached trace+emit with the flat baseline, and the routed
        # points pay per-hop latency the flat point does not
        plan = tiny_plan(
            base={"app": "jacobi", "nranks": 4},
            axes=[{"field": "scenario",
                   "values": [{"name": f"{topo}-{place}",
                               "topology": topo,
                               "topology_params": {"nodes": 2},
                               "placement": place}
                              for topo in ("flat", "torus3d")
                              for place in ("block", "roundrobin")]}])
        result = run_sweep(plan, workers=1,
                           cache_dir=str(tmp_path / "c"))
        assert all(p.error is None for p in result.points)
        by_key = {(p.params["scenario"]["topology"],
                   p.params["scenario"]["placement"]):
                  p.metrics["makespan_s"] for p in result.points}
        assert len(by_key) == 4
        assert by_key[("torus3d", "block")] > by_key[("flat", "block")]
        # four points, one shared trace + emit
        assert result.cache_misses == 2
        assert result.cache_hits == 6


class TestEngineSurface:
    def test_bad_worker_count(self):
        with pytest.raises(SweepError, match="workers"):
            run_sweep(tiny_plan(), workers=0)

    def test_result_jsonl_lines_parse(self, tmp_path):
        result = run_sweep(tiny_plan(), workers=1,
                           cache_dir=str(tmp_path / "c"))
        lines = result.canonical_jsonl().splitlines()
        assert len(lines) == 3
        assert [json.loads(line)["index"] for line in lines] == [0, 1, 2]

    def test_to_dict_separates_execution(self, tmp_path):
        result = run_sweep(tiny_plan(), workers=1,
                           cache_dir=str(tmp_path / "c"))
        full = result.to_dict()
        assert "execution" in full
        assert "execution" not in result.canonical_dict()
        assert full["plan_digest"] == result.plan.digest()

    def test_obs_counters_and_point_events(self, tmp_path):
        inst = obs.Instrumentation()
        with obs.instrumented(inst):
            run_sweep(tiny_plan(), workers=1,
                      cache_dir=str(tmp_path / "c"))
        assert inst.counters["sweep.points"] == 3
        assert inst.counters["sweep.points_ok"] == 3
        done = [e for e in inst.events if e["kind"] == "point_done"]
        assert sorted(e["index"] for e in done) == [0, 1, 2]
        spans = [e for e in inst.events
                 if e["kind"] == "span_end" and e["name"] == "sweep.run"]
        assert len(spans) == 1

    def test_progress_callback_sees_every_point(self, tmp_path):
        seen = []
        run_sweep(tiny_plan(), workers=1, cache_dir=str(tmp_path / "c"),
                  progress=lambda rec: seen.append(rec["index"]))
        assert sorted(seen) == [0, 1, 2]
