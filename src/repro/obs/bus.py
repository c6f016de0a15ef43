"""Lightweight instrumentation bus: counters, spans, JSON-lines events.

The pipeline layers (simulator engine, ScalaTrace compression/merge, the
generator's traversal passes, the coNCePTuaL compiler) carry *probe
points* that report what the hot paths actually did — steps scheduled,
nodes folded, wildcards resolved, statements compiled.  Probes are
no-ops unless an :class:`Instrumentation` collector is installed, so the
cost in the common (uninstrumented) path is one thread-local load and a
``None`` check.  Collectors are installed per thread.

Usage::

    from repro import obs

    inst = obs.Instrumentation()
    with obs.instrumented(inst):
        ...  # anything: trace an app, run a benchmark, a full pipeline
    print(inst.report())          # human-readable per-layer summary
    inst.write_jsonl("m.jsonl")   # machine-readable event log

Event records are flat JSON objects (one per line in the JSONL sink):

* counters — ``{"kind": "counter", "name": "engine.steps",
  "layer": "engine", "value": 12034}`` (final totals, emitted at dump
  time);
* spans — paired ``span_begin`` / ``span_end`` records sharing an
  ``id``, the end record carrying ``dur_s`` (wall seconds).

The ``layer`` field is the dotted prefix of the probe name, which maps
1:1 onto the package that owns the probe (``engine``, ``scalatrace``,
``generator``, ``conceptual``, ``pipeline``).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, IO, List, Optional


def layer_of(name: str) -> str:
    """The subsystem a probe name belongs to (its dotted prefix)."""
    return name.split(".", 1)[0]


class Span:
    """Context manager emitting paired begin/end events with wall time."""

    __slots__ = ("_inst", "name", "labels", "span_id", "_t0")

    def __init__(self, inst: "Instrumentation", name: str,
                 labels: Dict[str, Any]):
        self._inst = inst
        self.name = name
        self.labels = labels
        self.span_id = None
        self._t0 = 0.0

    def __enter__(self):
        self.span_id = self._inst._next_span_id()
        self._t0 = time.perf_counter()
        self._inst.emit("span_begin", self.name, id=self.span_id,
                        **self.labels)
        return self

    def __exit__(self, exc_type, exc, tb):
        dur = time.perf_counter() - self._t0
        fields = dict(self.labels)
        if exc_type is not None:
            fields["error"] = exc_type.__name__
        self._inst.emit("span_end", self.name, id=self.span_id,
                        dur_s=round(dur, 9), **fields)
        return False


class _NullSpan:
    """Shared do-nothing span used when no collector is installed."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class Instrumentation:
    """An in-memory event collector with a JSON-lines sink.

    ``sink`` may be a writable text file object; when given, span events
    are streamed to it as they happen and counter totals are appended by
    :meth:`close`.  Without a sink everything stays in memory until
    :meth:`write_jsonl` / :meth:`dump_jsonl` is called.
    """

    def __init__(self, sink: Optional[IO[str]] = None):
        self.counters: Dict[str, float] = {}
        self.events: List[Dict[str, Any]] = []
        self._sink = sink
        self._seq = 0
        self._span_seq = 0

    # -- recording ---------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str, **labels) -> Span:
        """A context manager timing a region; emits begin/end events."""
        return Span(self, name, labels)

    def emit(self, kind: str, name: str, **fields) -> Dict[str, Any]:
        """Record one event; streamed to the sink when one is attached."""
        self._seq += 1
        rec: Dict[str, Any] = {"seq": self._seq, "ts": round(time.time(), 6),
                               "kind": kind, "name": name,
                               "layer": layer_of(name)}
        rec.update(fields)
        self.events.append(rec)
        if self._sink is not None:
            self._sink.write(json.dumps(rec) + "\n")
        return rec

    def _next_span_id(self) -> int:
        self._span_seq += 1
        return self._span_seq

    # -- reading -----------------------------------------------------------
    def counter_records(self) -> List[Dict[str, Any]]:
        """The current counter totals as ``counter`` event records
        (sequenced after the span events they summarize)."""
        return [{"seq": self._seq + i, "kind": "counter", "name": name,
                 "layer": layer_of(name), "value": value}
                for i, (name, value)
                in enumerate(sorted(self.counters.items()), start=1)]

    def records(self) -> List[Dict[str, Any]]:
        """All events plus the counter totals (the full JSONL content)."""
        return list(self.events) + self.counter_records()

    def span_totals(self) -> Dict[str, Any]:
        """Aggregate span durations: name -> (calls, total seconds)."""
        out: Dict[str, Any] = {}
        for rec in self.events:
            if rec["kind"] != "span_end":
                continue
            calls, total = out.get(rec["name"], (0, 0.0))
            out[rec["name"]] = (calls + 1, total + rec.get("dur_s", 0.0))
        return out

    def layers(self) -> List[str]:
        """Distinct layers that produced at least one record."""
        return sorted({rec["layer"] for rec in self.records()})

    # -- output ------------------------------------------------------------
    def dump_jsonl(self, out: IO[str]) -> int:
        """Write every record as one JSON object per line; returns the
        number of lines written."""
        recs = self.records()
        for rec in recs:
            out.write(json.dumps(rec) + "\n")
        return len(recs)

    def write_jsonl(self, path: str) -> int:
        with open(path, "w") as fh:
            return self.dump_jsonl(fh)

    def report(self) -> str:
        """Human-readable per-layer summary (see :mod:`repro.obs.report`)."""
        from repro.obs.report import render_report
        return render_report(self)


# -- per-thread current collector (the probe fast path) ---------------------
class _Slot(threading.local):
    """Each thread's installed collector: overlapping executions on
    different threads (the service's executor pool) never see, or
    restore, each other's collector."""

    inst: Optional[Instrumentation] = None


_slot = _Slot()


def current() -> Optional[Instrumentation]:
    """This thread's installed collector, or None when instrumentation
    is off."""
    return _slot.inst


def install(inst: Optional[Instrumentation] = None) -> Instrumentation:
    """Install ``inst`` (or a fresh collector) as this thread's current
    one."""
    _slot.inst = inst if inst is not None else Instrumentation()
    return _slot.inst


def uninstall() -> None:
    _slot.inst = None


@contextmanager
def instrumented(inst: Optional[Instrumentation] = None):
    """Scoped install: probes on this thread feed ``inst`` inside the
    block, and the thread's previously installed collector (if any) is
    restored on exit."""
    previous = _slot.inst
    _slot.inst = inst if inst is not None else Instrumentation()
    try:
        yield _slot.inst
    finally:
        _slot.inst = previous


def count(name: str, value: float = 1) -> None:
    """Probe: bump a counter on the current collector (no-op when off)."""
    inst = _slot.inst
    if inst is not None:
        inst.count(name, value)


def span(name: str, **labels):
    """Probe: time a region on the current collector (no-op when off)."""
    inst = _slot.inst
    if inst is not None:
        return inst.span(name, **labels)
    return _NULL_SPAN


def event(kind: str, name: str, **fields) -> None:
    """Probe: record a free-form event (no-op when off)."""
    inst = _slot.inst
    if inst is not None:
        inst.emit(kind, name, **fields)
