"""PipelineConfig: validation, fingerprinting, replacement."""

import pytest

from repro.errors import PipelineConfigError, PipelineError, ReproError
from repro.pipeline import PipelineConfig


class TestValidation:
    def test_defaults_are_valid(self):
        c = PipelineConfig()
        assert c.cls == "S" and c.platform == "bluegene"
        assert c.align and c.resolve and c.include_timing

    def test_unknown_app(self):
        with pytest.raises(PipelineConfigError, match="unknown app"):
            PipelineConfig(app="quicksort")

    def test_bad_nranks(self):
        with pytest.raises(PipelineConfigError, match="nranks"):
            PipelineConfig(app="ring", nranks=0)
        with pytest.raises(PipelineConfigError, match="nranks"):
            PipelineConfig(app="ring", nranks=-4)

    def test_bad_class(self):
        with pytest.raises(PipelineConfigError, match="class"):
            PipelineConfig(app="lu", nranks=8, cls="X")

    def test_bad_platform(self):
        with pytest.raises(PipelineConfigError, match="platform"):
            PipelineConfig(platform="cray")

    def test_bad_max_steps(self):
        with pytest.raises(PipelineConfigError, match="max_steps"):
            PipelineConfig(max_steps=0)

    def test_empty_name(self):
        with pytest.raises(PipelineConfigError, match="name"):
            PipelineConfig(name="")

    def test_error_hierarchy(self):
        # config errors are catchable as pipeline and repro errors
        assert issubclass(PipelineConfigError, PipelineError)
        assert issubclass(PipelineError, ReproError)

    def test_none_platform_allowed(self):
        assert PipelineConfig(platform=None).platform is None


class TestFingerprint:
    def test_excludes_cache_bookkeeping(self):
        a = PipelineConfig(app="lu", nranks=8)
        b = PipelineConfig(app="lu", nranks=8, use_cache=True,
                           cache_dir="/elsewhere")
        assert a.fingerprint() == b.fingerprint()

    def test_differs_by_content_fields(self):
        base = PipelineConfig(app="lu", nranks=8)
        assert base.fingerprint() != \
            PipelineConfig(app="lu", nranks=16).fingerprint()
        assert base.fingerprint() != \
            PipelineConfig(app="cg", nranks=8).fingerprint()
        assert base.fingerprint() != \
            PipelineConfig(app="lu", nranks=8, cls="W").fingerprint()


class TestReplace:
    def test_replace_revalidates(self):
        c = PipelineConfig(app="lu", nranks=8)
        assert c.replace(nranks=16).nranks == 16
        assert c.nranks == 8  # frozen original untouched
        with pytest.raises(PipelineConfigError):
            c.replace(nranks=-1)


def _scenario(**dims):
    """An inline scenario spec pinning ``dims``."""
    return {"name": "what-if", **dims}


class TestWhatIfFields:
    """The §5.4 what-if hooks: compute_scale on the config, the run
    platform on the scenario."""

    def test_defaults(self):
        config = PipelineConfig(app="jacobi", nranks=4)
        assert config.compute_scale == 1.0
        assert config.scenario is None
        # the run platform is a scenario dimension, not a config field
        assert not hasattr(config, "run_platform")
        assert not hasattr(config, "run_platform_params")

    def test_negative_compute_scale_rejected(self):
        with pytest.raises(PipelineConfigError, match="compute_scale"):
            PipelineConfig(app="jacobi", nranks=4, compute_scale=-0.1)

    def test_zero_compute_scale_allowed(self):
        PipelineConfig(app="jacobi", nranks=4, compute_scale=0.0)

    def test_unknown_run_platform_rejected(self):
        with pytest.raises(PipelineConfigError, match="run_platform"):
            PipelineConfig(app="jacobi", nranks=4,
                           scenario=_scenario(run_platform="mars"))

    def test_params_mapping_normalized_to_sorted_tuple(self):
        config = PipelineConfig(app="jacobi", nranks=4,
                                scenario=_scenario(
                                    run_platform="bluegene",
                                    run_platform_params={
                                        "latency": 1e-5,
                                        "bandwidth": 1e8}))
        assert config.scenario.run_platform_params == (("bandwidth", 1e8),
                                                       ("latency", 1e-5))

    def test_params_bad_key_rejected(self):
        with pytest.raises(PipelineConfigError, match="keys"):
            PipelineConfig(app="jacobi", nranks=4,
                           scenario=_scenario(
                               run_platform="bluegene",
                               run_platform_params={3: 1.0}))

    def test_params_without_run_platform_rejected_at_construction(self):
        # no preset to parameterize: this used to pass construction and
        # fail mid-run; the scenario's rule now rejects it up front
        with pytest.raises(PipelineConfigError, match="without a "
                                                      "run_platform"):
            PipelineConfig(app="jacobi", nranks=4, platform=None,
                           scenario=_scenario(
                               run_platform_params={"latency": 1e-5}))

    def test_whatif_fields_enter_fingerprint(self):
        base = PipelineConfig(app="jacobi", nranks=4).fingerprint()
        scaled = PipelineConfig(app="jacobi", nranks=4,
                                compute_scale=0.5).fingerprint()
        assert base != scaled

    def test_run_model_resolves_override(self):
        from repro.pipeline import RunContext
        from repro.sim.network import CongestionModel, LogGPModel
        ctx = RunContext(PipelineConfig(
            app="jacobi", nranks=4,
            scenario=_scenario(run_platform="ethernet")))
        assert isinstance(ctx.model, LogGPModel)
        assert isinstance(ctx.run_model, CongestionModel)

    def test_run_model_params_applied(self):
        from repro.pipeline import RunContext
        ctx = RunContext(PipelineConfig(
            app="jacobi", nranks=4,
            scenario=_scenario(run_platform="bluegene",
                               run_platform_params={"latency": 0.25})))
        assert ctx.run_model.latency == 0.25
        assert ctx.model.latency != 0.25

    def test_bad_param_name_rejected_at_construction(self):
        # an unknown parameter fails when the config is *built* (so
        # `repro sweep validate` catches it), not mid-fan-out when a
        # worker first resolves the run model
        with pytest.raises(PipelineConfigError,
                           match="run_platform_params"):
            PipelineConfig(app="jacobi", nranks=4,
                           scenario=_scenario(
                               run_platform="bluegene",
                               run_platform_params={"warp": 9.0}))

    def test_preset_incompatible_param_rejected(self):
        # SimpleModel takes no eager_threshold; the other presets do
        with pytest.raises(PipelineConfigError, match="simple"):
            PipelineConfig(app="jacobi", nranks=4,
                           scenario=_scenario(
                               run_platform="simple",
                               run_platform_params={"eager_threshold": 1}))
        PipelineConfig(app="jacobi", nranks=4,
                       scenario=_scenario(
                           run_platform="bluegene",
                           run_platform_params={"eager_threshold": 1}))


class TestTopologyFields:
    """The routed-fabric what-if hooks: topology, topology_params,
    placement (scenario dimensions, all execution-only)."""

    def test_defaults(self):
        c = PipelineConfig(app="jacobi", nranks=4)
        for name in ("topology", "topology_params", "placement",
                     "queue_discipline", "queue_params"):
            assert not hasattr(c, name), name
        assert c.scenario is None

    def test_unknown_topology_rejected(self):
        with pytest.raises(PipelineConfigError, match="topology"):
            PipelineConfig(app="jacobi", nranks=4,
                           scenario=_scenario(topology="hypercube"))

    def test_params_without_topology_rejected(self):
        with pytest.raises(PipelineConfigError, match="without"):
            PipelineConfig(app="jacobi", nranks=4,
                           scenario=_scenario(topology_params={"nodes": 2}))

    def test_bad_topology_param_rejected_at_construction(self):
        with pytest.raises(PipelineConfigError, match="torus3d"):
            PipelineConfig(app="jacobi", nranks=4,
                           scenario=_scenario(topology="torus3d",
                                              topology_params={"arity": 4}))

    def test_params_normalized_to_sorted_tuple(self):
        c = PipelineConfig(app="jacobi", nranks=4,
                           scenario=_scenario(
                               topology="fattree",
                               topology_params={"nodes": 2, "arity": 2}))
        assert c.scenario.topology_params == (("arity", 2), ("nodes", 2))

    def test_bad_placement_spec_rejected(self):
        with pytest.raises(PipelineConfigError, match="placement"):
            PipelineConfig(app="jacobi", nranks=4,
                           scenario=_scenario(topology="torus3d",
                                              placement="scatter"))
        with pytest.raises(PipelineConfigError, match="placement"):
            PipelineConfig(app="jacobi", nranks=4,
                           scenario=_scenario(topology="torus3d",
                                              placement=""))

    def test_placement_without_topology_rejected(self):
        # a placement acts only on a routed fabric; it used to be
        # accepted and silently ignored on the flat network
        with pytest.raises(PipelineConfigError, match="without a topology"):
            PipelineConfig(app="ring", nranks=4,
                           scenario=_scenario(placement="roundrobin"))

    def test_topology_enters_fingerprint(self):
        base = PipelineConfig(app="jacobi", nranks=4).fingerprint()
        topo = PipelineConfig(app="jacobi", nranks=4,
                              scenario=_scenario(
                                  topology="torus3d")).fingerprint()
        assert base != topo

    def test_profile_excluded_from_fingerprint(self):
        # profiling is execution policy: it must not invalidate cached
        # trace/source artifacts
        base = PipelineConfig(app="jacobi", nranks=4).fingerprint()
        prof = PipelineConfig(app="jacobi", nranks=4,
                              profile=True).fingerprint()
        assert base == prof

    def test_run_model_is_routed(self):
        from repro.pipeline import RunContext
        from repro.topology import TopologyModel
        ctx = RunContext(PipelineConfig(
            app="jacobi", nranks=4, scenario=_scenario(topology="torus3d")))
        assert not getattr(ctx.model, "routed", False)
        assert isinstance(ctx.run_model, TopologyModel)

    def test_run_model_composes_with_run_platform(self):
        from repro.pipeline import RunContext
        from repro.sim.network import CongestionModel
        ctx = RunContext(PipelineConfig(
            app="jacobi", nranks=4,
            scenario=_scenario(run_platform="ethernet", topology="fattree",
                               topology_params={"arity": 2})))
        model = ctx.run_model
        assert model.routed
        assert isinstance(model.base, CongestionModel)

    def test_bad_map_file_raises_pipeline_error_lazily(self):
        # the spec parses (so the config builds — sweep plans validate
        # without touching the filesystem) but resolution fails
        from repro.pipeline import RunContext
        ctx = RunContext(PipelineConfig(
            app="jacobi", nranks=4,
            scenario=_scenario(topology="torus3d",
                               placement="map:/nonexistent/nodes.json")))
        with pytest.raises(PipelineError, match="topology config"):
            ctx.run_model
