"""CLI tests for the scenario surface: the ``scenarios`` subcommand
group, the topology and queueing flags on run/replay/pipeline (which
compose into one scenario), ``--scenario`` on the pipeline, and the
per-app ``pattern`` metadata in ``apps --json``.

``scenarios run`` compiles to the same one-point sweep plan the service
executes, so the ``-o`` artifact here is pinned byte-for-byte against a
direct ``run_sweep`` of the equivalent job.
"""

import json

import pytest

from repro import obs
from repro.apps import APPS, PATTERNS
from repro.cli import _execution_scenario, build_parser, main
from repro.pipeline import PipelineConfig, full_pipeline
from repro.scenarios import (SCENARIOS, Scenario, ScenarioJob,
                             dumps_scenario, load_scenario, loads_scenario,
                             scenario_fault_plan)
from repro.sweep import run_sweep


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestAppsPatternMetadata:
    def test_json_listing_carries_pattern(self, capsys):
        assert main(["apps", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        for name, entry in listing.items():
            assert entry["pattern"] in PATTERNS, name
        assert listing["sweep3d"]["pattern"] == "sweep"
        assert listing["amg"]["pattern"] == "multigrid"
        assert listing["ep"]["pattern"] == "embarrassingly-parallel"

    def test_plain_listing_shows_pattern(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "[sweep]" in out and "[stencil]" in out

    def test_new_skeletons_registered(self, capsys):
        assert main(["apps", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        for name in ("amg", "kripke", "laghos"):
            assert name in listing
            assert listing[name]["description"]


class TestScenariosList:
    def test_plain_lists_every_curated_scenario(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_json_listing(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert set(listing) == set(SCENARIOS)
        entry = listing["torus-hotlink"]
        assert entry["digest"] == SCENARIOS["torus-hotlink"].digest()
        assert entry["topology"] == "torus3d"
        assert listing["codel-pressure"]["queue_discipline"] == "codel"


class TestScenariosShow:
    def test_show_round_trips_through_loads(self, capsys):
        assert main(["scenarios", "show", "torus-hotlink"]) == 0
        out = capsys.readouterr().out
        yaml_part = out.rsplit("# ", 1)[0]
        again = loads_scenario(yaml_part)
        assert again.digest() == SCENARIOS["torus-hotlink"].digest()

    def test_show_a_file(self, workdir, capsys):
        with open("mine.yaml", "w") as fh:
            fh.write("name: mine\nadversaries:\n  - kind: hotspot\n")
        assert main(["scenarios", "show", "mine.yaml"]) == 0
        assert "mine" in capsys.readouterr().out

    def test_show_unknown_fails(self, capsys):
        assert main(["scenarios", "show", "nope"]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestScenariosTemplate:
    def test_template_validates(self, workdir, capsys):
        assert main(["scenarios", "template", "-o", "scn.yaml"]) == 0
        scn = loads_scenario(open("scn.yaml").read())
        assert scn.name


class TestScenariosRun:
    def test_run_reports_link_metrics(self, workdir, capsys):
        assert main(["scenarios", "run", "torus-hotlink", "--app",
                     "sweep3d", "--np", "8", "--workers", "1",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "torus-hotlink" in out
        assert "links_used=" in out

    def test_output_matches_direct_sweep(self, workdir, capsys):
        assert main(["scenarios", "run", "torus-hotlink", "--app",
                     "sweep3d", "--np", "8", "--workers", "1",
                     "--cache-dir", "c1", "-o", "out.json"]) == 0
        job = ScenarioJob(scenario="torus-hotlink", app="sweep3d",
                          nranks=8)
        direct = run_sweep(job.to_sweep_plan(), workers=1,
                           cache_dir="c2")
        assert open("out.json").read() == direct.canonical_json()

    def test_unknown_scenario_exits_2(self, workdir, capsys):
        assert main(["scenarios", "run", "nope", "--app", "ring",
                     "--np", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_incompatible_cell_fails_the_point(self, workdir, capsys):
        # amg needs a power-of-two rank count; the cell fails at run
        # time like any other sweep point, with a nonzero exit
        assert main(["scenarios", "run", "calm", "--app", "amg",
                     "--np", "6", "--workers", "1",
                     "--no-cache"]) == 1
        assert "power-of-two" in capsys.readouterr().out


class TestPipelineScenario:
    def test_pipeline_accepts_a_scenario(self, workdir, capsys):
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--no-run",
                     "--scenario", "torus-hotlink"]) == 0

    def test_pipeline_scenario_from_file(self, workdir, capsys):
        with open("mine.yaml", "w") as fh:
            fh.write("name: mine\ntopology: torus3d\n"
                     "adversaries:\n  - kind: hot-link\n")
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--no-run",
                     "--scenario", "mine.yaml"]) == 0


class TestQueueingFlags:
    def test_pipeline_codel(self, workdir, capsys):
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--no-run",
                     "--topology", "torus3d",
                     "--queue-discipline", "codel",
                     "--queue-param", "target=1e-6"]) == 0

    def test_queue_param_requires_discipline(self, workdir, capsys):
        with pytest.raises(SystemExit):
            main(["pipeline", "--app", "ring", "--np", "4",
                  "--no-cache", "--no-run",
                  "--queue-param", "target=1e-6"])

    def test_bad_param_syntax_rejected(self, workdir, capsys):
        with pytest.raises(SystemExit):
            main(["pipeline", "--app", "ring", "--np", "4",
                  "--no-cache", "--no-run",
                  "--queue-discipline", "codel",
                  "--queue-param", "target"])


class TestPlacementNeedsTopology:
    def test_placement_without_topology_exits_2(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--app", "ring", "--np", "4", "--no-cache",
                  "--no-run", "--placement", "roundrobin"])
        assert exc.value.code == 2
        assert "without a topology" in capsys.readouterr().err

    def test_run_and_replay_reject_it_too(self, workdir, capsys):
        assert main(["trace", "--app", "ring", "--np", "4",
                     "-o", "r.trace"]) == 0
        assert main(["generate", "r.trace", "-o", "r.ncptl"]) == 0
        for argv in (["run", "r.ncptl", "--np", "4"],
                     ["replay", "r.trace"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--placement", "roundrobin"])
            assert exc.value.code == 2

    def test_default_placement_counts_as_unset(self, workdir, capsys):
        assert main(["pipeline", "--app", "ring", "--np", "4",
                     "--no-cache", "--no-run", "--placement", "block"]) == 0


def _flag_scenario(*flags):
    """The scenario ``repro pipeline`` builds from ``flags``."""
    args = build_parser().parse_args(
        ["pipeline", "--app", "ring", "--np", "4", *flags])
    return _execution_scenario(args)


class TestFlagComposition:
    def test_no_flags_no_scenario(self):
        assert _flag_scenario() is None
        assert _flag_scenario("--scenario", "calm") is SCENARIOS["calm"]

    def test_flags_build_a_scenario(self):
        scn = _flag_scenario("--topology", "torus3d",
                             "--topology-param", "dims=[2,2,1]",
                             "--placement", "roundrobin",
                             "--queue-discipline", "codel",
                             "--queue-param", "target=1e-6")
        assert scn == Scenario(name="inline", topology="torus3d",
                               topology_params={"dims": [2, 2, 1]},
                               placement="roundrobin",
                               queue_discipline="codel",
                               queue_params={"target": 1e-6})

    def test_flag_defaults_adopt_the_scenario(self):
        scn = _flag_scenario("--scenario", "codel-pressure")
        assert scn is SCENARIOS["codel-pressure"]

    def test_conflicting_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _flag_scenario("--scenario", "torus-hotlink",
                           "--topology", "fattree")
        assert exc.value.code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_flag_topology_drives_adversaries(self):
        # the composed scenario both routes the run and places the
        # topology-free adversaries on that fabric
        scn = _flag_scenario("--scenario", "hotspot-ranks",
                             "--topology", "torus3d")
        assert scn.name == "hotspot-ranks"
        assert scn.topology == "torus3d"
        config = PipelineConfig(app="sweep3d", nranks=8, scenario=scn)
        assert config.scenario.topology == "torus3d"
        assert scenario_fault_plan(config.scenario, "sweep3d", 8) != \
            scenario_fault_plan(SCENARIOS["hotspot-ranks"], "sweep3d", 8)


def _dimension_flags(dims):
    """The CLI flags spelling a scenario's execution dimensions."""
    assert set(dims) <= {"topology", "topology_params", "placement",
                         "queue_discipline", "queue_params"}, dims
    flags = ["--topology", dims["topology"]]
    for key, value in dims.get("topology_params") or ():
        flags += ["--topology-param", f"{key}={json.dumps(value)}"]
    if "placement" in dims:
        flags += ["--placement", dims["placement"]]
    if "queue_discipline" in dims:
        flags += ["--queue-discipline", dims["queue_discipline"]]
    for key, value in dims.get("queue_params") or ():
        flags += ["--queue-param", f"{key}={json.dumps(value)}"]
    return flags


def _observed_run(scenario, cache_dir):
    config = PipelineConfig(app="jacobi", nranks=8, scenario=scenario,
                            use_cache=True, cache_dir=str(cache_dir))
    with obs.instrumented() as inst:
        result = full_pipeline().run(config)
    keys = {e["stage"]: e["key"] for e in inst.events
            if e["kind"] == "cache_miss"}
    engine = {k: v for k, v in inst.counters.items()
              if k.startswith("engine.")}
    return result.run_result.total_time.hex(), engine, keys


@pytest.mark.parametrize("name", [n for n, s in SCENARIOS.items()
                                  if s.topology is not None])
def test_flag_form_matches_spec_file(name, tmp_path):
    """The flags and a spec file with the same dimensions give the same
    run: makespan bits, engine counters and trace/emit cache keys."""
    dims = SCENARIOS[name].dimensions()
    from_flags = _flag_scenario(*_dimension_flags(dims))
    path = tmp_path / "dims.yaml"
    path.write_text(dumps_scenario(Scenario(name="from-file", **dims)))
    from_file = load_scenario(str(path))
    flags_run = _observed_run(from_flags, tmp_path / "c1")
    file_run = _observed_run(from_file, tmp_path / "c2")
    assert flags_run == file_run
    assert set(flags_run[2]) == {"trace", "emit"}
