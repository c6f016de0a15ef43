"""The instrumentation bus: probe fast paths, event shapes, reports."""

import io
import json

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def clean_collector():
    yield
    obs.uninstall()


class TestProbesWithoutCollector:
    def test_count_is_a_noop(self):
        obs.count("engine.steps")  # must not raise

    def test_span_is_a_null_contextmanager(self):
        with obs.span("engine.run", nranks=4):
            pass


class TestCollector:
    def test_counters_aggregate(self):
        with obs.instrumented() as inst:
            obs.count("engine.steps", 3)
            obs.count("engine.steps", 2)
        recs = inst.counter_records()
        assert [(r["name"], r["value"]) for r in recs] == \
            [("engine.steps", 5)]
        assert recs[0]["layer"] == "engine"

    def test_span_pairs_share_id_and_measure(self):
        with obs.instrumented() as inst:
            with obs.span("generator.align", nranks=8):
                pass
        begin, end = inst.records()
        assert begin["kind"] == "span_begin"
        assert end["kind"] == "span_end"
        assert begin["id"] == end["id"]
        assert begin["nranks"] == 8
        assert end["dur_s"] >= 0

    def test_span_records_errors(self):
        with obs.instrumented() as inst:
            with pytest.raises(ValueError):
                with obs.span("generator.emit"):
                    raise ValueError("boom")
        end = inst.records()[-1]
        assert end["kind"] == "span_end" and "error" in end

    def test_install_uninstall_restores_previous(self):
        outer = obs.install()
        with obs.instrumented() as inner:
            assert obs.current() is inner
        assert obs.current() is outer
        obs.uninstall()
        assert obs.current() is None

    def test_layer_of(self):
        assert obs.layer_of("engine.steps") == "engine"
        assert obs.layer_of("flat") == "flat"


class TestOutput:
    def test_jsonl_dump_is_parseable_and_ordered(self):
        with obs.instrumented() as inst:
            with obs.span("scalatrace.compress"):
                obs.count("scalatrace.nodes_folded", 7)
        buf = io.StringIO()
        n = inst.dump_jsonl(buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(lines) == n == 3  # begin, end, counter total
        assert [r["seq"] for r in lines] == [1, 2, 3]

    def test_report_groups_by_layer(self):
        with obs.instrumented() as inst:
            with obs.span("engine.run"):
                obs.count("engine.steps", 10)
            obs.count("generator.rsds_aligned", 2)
        report = inst.report()
        assert "[engine]" in report and "[generator]" in report
        assert "engine.steps" in report


class TestSpanNamesAreUnique:
    """One name per measured region: the pipeline's own span is not
    confused with a stage's, nor the tracer's end-of-run merge with the
    align stage's re-merge."""

    @pytest.fixture(scope="class")
    def spans(self):
        from repro.pipeline import PipelineConfig, full_pipeline
        with obs.instrumented() as inst:
            result = full_pipeline().run(
                PipelineConfig(app="sweep3d", nranks=8))
        assert result.artifacts["was_aligned"]
        begins = {e["id"]: e for e in inst.events
                  if e["kind"] == "span_begin"}
        ends = {e["id"]: e for e in inst.events if e["kind"] == "span_end"}
        return [(b["name"], b["seq"], ends[i]["seq"])
                for i, b in begins.items()], result

    @staticmethod
    def _enclosing(spans, name):
        """The pipeline.stage.* span enclosing each span called name."""
        out = []
        for inner, b, e in spans:
            if inner != name:
                continue
            out.extend(outer for outer, ob, oe in spans
                       if outer.startswith("pipeline.stage.")
                       and ob < b and e < oe)
        return out

    def test_one_pipeline_run_span(self, spans):
        spans, result = spans
        names = [n for n, _, _ in spans]
        assert names.count("pipeline.run") == 1
        assert sorted(n for n in names if n.startswith("pipeline.stage.")) \
            == sorted(f"pipeline.stage.{r.stage}" for r in result.records)

    def test_finalize_and_re_merge_are_named_apart(self, spans):
        spans, _ = spans
        assert self._enclosing(spans, "scalatrace.finalize") == \
            ["pipeline.stage.trace"]
        assert self._enclosing(spans, "scalatrace.merge") == \
            ["pipeline.stage.align"]
