"""Unit tests for the coNCePTuaL runtime: counters, log database, and
the §5.4 phase-selective compute scaling.  Programs run on the compiler
as shipped and on the tree-walking oracle (``oracle.diff_run``)."""

import pytest

from repro.conceptual import ConceptualProgram, LogDatabase, TaskCounters
from repro.conceptual.ast_nodes import Num
from repro.conceptual.runtime import _aggregate
from repro.generator import scale_compute
from repro.sim import SimpleModel
from tests.conceptual.oracle import diff_run


class TestTaskCounters:
    def test_initial_zero(self):
        c = TaskCounters()
        assert c.value("bytes_sent", now=0.0) == 0
        assert c.value("elapsed_usecs", now=0.0) == 0

    def test_elapsed_relative_to_reset(self):
        c = TaskCounters()
        c.reset(now=2.0)
        assert c.value("elapsed_usecs", now=2.5) == pytest.approx(5e5)

    def test_totals(self):
        c = TaskCounters()
        c.bytes_sent = 100
        c.bytes_received = 50
        c.msgs_sent = 3
        c.msgs_received = 2
        assert c.value("total_bytes", 0.0) == 150
        assert c.value("total_msgs", 0.0) == 5

    def test_reset_clears(self):
        c = TaskCounters()
        c.bytes_sent = 100
        c.reset(1.0)
        assert c.value("bytes_sent", 1.0) == 0

    def test_unknown_counter(self):
        with pytest.raises(KeyError):
            TaskCounters().value("flux_capacitance", 0.0)


class TestLogDatabase:
    def test_value_uses_declared_aggregate(self):
        db = LogDatabase()
        for rank, v in enumerate([1.0, 5.0, 3.0]):
            db.record("T", "MEDIAN", rank, v)
        assert db.value("T") == 3.0

    @pytest.mark.parametrize("agg,expected", [
        ("MEAN", 3.0), ("MEDIAN", 3.0), ("MINIMUM", 1.0),
        ("MAXIMUM", 5.0), ("SUM", 9.0), ("FINAL", 3.0),
    ])
    def test_aggregates(self, agg, expected):
        assert _aggregate(agg, [1.0, 5.0, 3.0]) == expected

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            _aggregate("MEAN", [])

    def test_unknown_aggregate(self):
        with pytest.raises(ValueError):
            _aggregate("MODE", [1.0])

    def test_missing_label(self):
        with pytest.raises(KeyError):
            LogDatabase().value("nothing")

    def test_samples_filtering(self):
        db = LogDatabase()
        db.record("A", "SUM", 0, 1.0)
        db.record("A", "SUM", 1, 2.0)
        db.record("B", "SUM", 0, 9.0)
        assert sorted(db.samples("A")) == [1.0, 2.0]
        assert db.labels() == [("A", "SUM"), ("B", "SUM")]


class TestCounterProgram:
    def test_all_counters_log(self):
        text = (
            'ALL TASKS RESET THEIR COUNTERS THEN '
            'TASK 0 SENDS 3 128 BYTE MESSAGES TO TASK 1 THEN '
            'TASK 0 LOGS THE SUM OF msgs_sent AS "ms" THEN '
            'TASK 1 LOGS THE SUM OF msgs_received AS "mr" THEN '
            'TASK 1 LOGS THE SUM OF bytes_received AS "br" THEN '
            'TASK 1 LOGS THE SUM OF total_msgs AS "tm"')
        prog = ConceptualProgram.from_source(text)
        _, logs = diff_run(prog, 2, model=SimpleModel())
        assert logs.value("ms") == 3
        assert logs.value("mr") == 3
        assert logs.value("br") == 384
        assert logs.value("tm") == 3


class TestPhaseSelectiveScaling:
    def _program(self):
        text = ('ALL TASKS COMPUTE FOR 1000 MICROSECONDS THEN '
                'ALL TASKS SYNCHRONIZE THEN '
                'ALL TASKS COMPUTE FOR 3000 MICROSECONDS')
        return ConceptualProgram.from_source(text)

    def test_uniform_scaling(self):
        prog = self._program()
        half, _ = diff_run(scale_compute(prog, 0.5), 2,
                           model=SimpleModel())
        full, _ = diff_run(prog, 2, model=SimpleModel())
        assert half.total_time == pytest.approx(full.total_time / 2,
                                                rel=0.01)

    def test_selective_scaling_by_predicate(self):
        # accelerate only the long phase (different speedup factors for
        # different computational phases, §5.4)
        prog = self._program()
        accel = scale_compute(
            prog, 0.0,
            where=lambda s: isinstance(s.usecs, Num)
            and s.usecs.value >= 3000)
        t, _ = diff_run(accel, 2, model=SimpleModel())
        assert t.total_time == pytest.approx(1e-3, rel=0.05)

    def test_where_preserves_unselected(self):
        prog = self._program()
        noop = scale_compute(prog, 0.0, where=lambda s: False)
        t_noop, _ = diff_run(noop, 2, model=SimpleModel())
        t_full, _ = diff_run(prog, 2, model=SimpleModel())
        assert t_noop.total_time == pytest.approx(t_full.total_time)
