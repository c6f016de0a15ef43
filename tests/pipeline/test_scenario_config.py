"""Scenarios on PipelineConfig, and the flag-composition rule.

The scenario is the config's only carrier of execution dimensions
(platform/topology/placement/queueing).  Loose dimensions — the CLI's
``--topology``/``--placement``/``--queue-*`` flags, a fuzz campaign's
``topologies`` axis — fold into it through
:func:`repro.scenarios.compose_scenario` under three rules:
adopt-if-unset, pass-if-equal, error-if-conflict.  The scenario's
fault content and schedule pin stay out of the config fields entirely
(they apply only at the execution stages)."""

import dataclasses

import pytest

from repro.errors import PipelineConfigError, ScenarioError
from repro.faults import FaultPlan
from repro.pipeline import PipelineConfig
from repro.scenarios import SCENARIOS, Scenario, compose_scenario


class TestExpansion:
    def test_name_resolves_and_dimensions_adopt(self):
        c = PipelineConfig(app="sweep3d", nranks=8,
                           scenario="codel-pressure")
        assert isinstance(c.scenario, Scenario)
        assert c.scenario.topology == "torus3d"
        assert c.scenario.placement == "roundrobin"
        assert c.scenario.queue_discipline == "codel"
        # a dimension the scenario leaves unset is adopted; the name
        # and the fault content are the scenario's own
        scn = compose_scenario("hotspot-ranks", topology="torus3d",
                               placement="roundrobin")
        assert scn.name == "hotspot-ranks"
        assert (scn.topology, scn.placement) == ("torus3d", "roundrobin")
        assert scn.adversaries == SCENARIOS["hotspot-ranks"].adversaries

    def test_inline_mapping_resolves(self):
        c = PipelineConfig(app="ring", nranks=4,
                           scenario={"name": "inline",
                                     "topology": "fattree"})
        assert c.scenario.name == "inline"
        assert c.scenario.topology == "fattree"

    def test_equal_value_passes(self):
        scn = compose_scenario("torus-hotlink", topology="torus3d")
        assert scn.digest() == SCENARIOS["torus-hotlink"].digest()
        # params compare in canonical (sorted-pair) form
        scn = compose_scenario(
            "codel-pressure", queue_discipline="codel",
            queue_params={"target": 1e-6, "penalty": 5e-5,
                          "interval": 1e-5})
        assert scn.digest() == SCENARIOS["codel-pressure"].digest()

    def test_conflicting_dimension_errors(self):
        with pytest.raises(ScenarioError, match="conflicts"):
            compose_scenario("torus-hotlink", topology="fattree")

    def test_unset_dimensions_are_ignored(self):
        assert compose_scenario() is None
        assert compose_scenario(topology=None, placement=None) is None
        assert compose_scenario("calm") is SCENARIOS["calm"]
        scn = compose_scenario(topology="torus3d", topology_params={})
        assert scn == Scenario(name="inline", topology="torus3d")

    def test_fault_content_conflicts_with_config_plan(self):
        with pytest.raises(PipelineConfigError, match="one or the other"):
            PipelineConfig(app="sweep3d", nranks=8,
                           scenario="torus-hotlink",
                           fault_plan=FaultPlan(seed=1, drop_rate=0.1))

    def test_schedule_pin_conflicts_with_config_policy(self):
        with pytest.raises(PipelineConfigError, match="schedule"):
            PipelineConfig(app="ring", nranks=4,
                           scenario="adversarial-schedule",
                           schedule_policy="random", schedule_seed=1)

    def test_schedule_pin_stays_out_of_config_fields(self):
        c = PipelineConfig(app="ring", nranks=4,
                           scenario="adversarial-schedule")
        # the pin applies at execution; the config stays canonical
        assert c.schedule_policy == "canonical"
        assert c.schedule_seed is None

    def test_expansion_is_idempotent_under_replace(self):
        c = PipelineConfig(app="sweep3d", nranks=8,
                           scenario="codel-pressure")
        again = dataclasses.replace(c)
        assert again == c

    def test_unknown_scenario_is_a_config_error(self):
        with pytest.raises(PipelineConfigError, match="unknown scenario"):
            PipelineConfig(app="ring", nranks=4, scenario="nope")

    def test_codel_without_topology_rejected(self):
        with pytest.raises(PipelineConfigError, match="routed"):
            PipelineConfig(app="ring", nranks=4,
                           scenario={"name": "q",
                                     "queue_discipline": "codel"})

    def test_unknown_queue_discipline_rejected(self):
        with pytest.raises(PipelineConfigError, match="queue"):
            PipelineConfig(app="ring", nranks=4,
                           scenario={"name": "q", "topology": "torus3d",
                                     "queue_discipline": "nope"})


class TestFingerprint:
    def test_scenario_digest_reaches_the_fingerprint(self):
        base = PipelineConfig(app="ring", nranks=4).fingerprint()
        calm = PipelineConfig(app="ring", nranks=4,
                              scenario="calm").fingerprint()
        assert calm != base
        assert calm["scenario"] == SCENARIOS["calm"].digest()

    def test_distinct_scenarios_fingerprint_distinctly(self):
        def fp(name):
            return PipelineConfig(app="sweep3d", nranks=8,
                                  scenario=name).fingerprint()
        assert fp("torus-hotlink") != fp("torus-bisection")
