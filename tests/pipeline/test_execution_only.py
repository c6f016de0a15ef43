"""Contract: execution-only config fields never key cached artifacts.

``EXECUTION_ONLY_FIELDS`` names every :class:`PipelineConfig` field
that may change *how* a benchmark executes but not *what* trace or
source the pipeline produces: ``compute_scale`` and ``scenario``, the
carrier of every execution dimension.  The artifact cache (and the
sweep's cross-point sharing, and the scenario axis) all rest on this:
varying any of them must leave the trace/align/resolve/emit cache keys
byte-identical, so one cached trace serves every execution variant.

Each field — and each scenario dimension, varied inside an inline
scenario — gets a representative non-default value (plus whatever
companion dimensions its validation requires) and the rolling key
parts of every generation-side stage are compared against the
baseline.  A new config field that leaks into a generation key — or a
key_parts change that starts consulting an execution-only field —
fails here by name.
"""

import pytest

from repro.pipeline.config import EXECUTION_ONLY_FIELDS, PipelineConfig
from repro.pipeline.context import RunContext
from repro.pipeline.stages import (AlignStage, EmitStage, ResolveStage,
                                   TraceStage)
from repro.scenarios import DIMENSIONS


def _inline(**dims):
    return {"scenario": {"name": "varied", **dims}}


#: per-case variation: the kwargs that flip that field (or scenario
#: dimension) to a non-default value (companion dimensions included
#: where validation demands them, e.g. codel requires a routed topology)
_VARIATIONS = {
    "compute_scale": {"compute_scale": 2.5},
    "scenario": {"scenario": "torus-hotlink"},
    "run_platform": _inline(run_platform="ethernet"),
    "run_platform_params": _inline(run_platform="ethernet",
                                   run_platform_params={"latency": 1e-5}),
    "topology": _inline(topology="torus3d"),
    "topology_params": _inline(topology="torus3d",
                               topology_params={"dims": [2, 2, 1]}),
    "placement": _inline(topology="torus3d", placement="roundrobin"),
    "queue_discipline": _inline(topology="torus3d",
                                queue_discipline="codel"),
    "queue_params": _inline(topology="torus3d", queue_discipline="codel",
                            queue_params={"target": 1e-6}),
}

_GENERATION_STAGES = (TraceStage, AlignStage, ResolveStage, EmitStage)


def _generation_keys(**kwargs):
    ctx = RunContext(PipelineConfig(app="ring", nranks=4, **kwargs))
    return tuple(stage().key_parts(ctx) for stage in _GENERATION_STAGES)


def test_every_execution_only_field_has_a_variation():
    """A field added to EXECUTION_ONLY_FIELDS, or a dimension added to
    the scenario, must be covered here."""
    assert EXECUTION_ONLY_FIELDS == ("compute_scale", "scenario")
    assert set(_VARIATIONS) == set(EXECUTION_ONLY_FIELDS) | set(DIMENSIONS)


def test_execution_only_fields_exist_on_the_config():
    config_fields = set(vars(PipelineConfig(app="ring", nranks=4)))
    assert set(EXECUTION_ONLY_FIELDS) <= config_fields
    # the dimensions live on the scenario only
    assert not set(DIMENSIONS) & config_fields


@pytest.mark.parametrize("field", sorted(_VARIATIONS))
def test_field_does_not_change_generation_cache_keys(field):
    baseline = _generation_keys()
    varied = _generation_keys(**_VARIATIONS[field])
    assert varied == baseline, (
        f"execution-only {field!r} leaked into a generation "
        f"stage's cache key")


@pytest.mark.parametrize("field", sorted(_VARIATIONS))
def test_field_does_change_the_config_fingerprint(field):
    """The flip side: the *config* fingerprint (which identifies the
    whole run, execution included) must still see every field — the
    cache-key exclusion is a stage property, not field invisibility."""
    base = PipelineConfig(app="ring", nranks=4).fingerprint()
    varied = PipelineConfig(app="ring", nranks=4,
                            **_VARIATIONS[field]).fingerprint()
    assert varied != base, (
        f"execution-only {field!r} is invisible to the config "
        f"fingerprint")


def test_trace_key_still_sees_generation_fields():
    """Guard against over-exclusion: fields that DO shape the trace
    must keep keying it."""
    base = _generation_keys()
    assert _generation_keys(cls="W") != base
    assert _generation_keys(platform="ethernet") != base
