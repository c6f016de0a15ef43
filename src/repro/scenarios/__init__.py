"""First-class execution scenarios: adversarial traffic, congestion,
and degradation compositions over the what-if dimensions.

The package layers (see ``docs/SCENARIOS.md``):

* :mod:`repro.scenarios.spec` — the digest-keyed :class:`Scenario`
  value object (YAML + programmatic), the only carrier of a pipeline
  run's execution dimensions, plus a list of adversaries, and
  :func:`compose_scenario`, the rule that folds loose dimensions
  (command-line flags, a fuzz campaign's topology axis) into one;
* :mod:`repro.scenarios.adversaries` — topology-aware generators that
  expand adversary specs into concrete link-targeted fault-plan
  content for a concrete (app, nranks) run;
* :mod:`repro.scenarios.registry` — the curated named scenarios;
* :mod:`repro.scenarios.job` — :class:`ScenarioJob`, one scenario ×
  app cell compiled to a one-point sweep plan (the byte-parity bridge
  between ``repro scenarios run`` and the service's ``scenario`` job
  kind).
"""

from repro.scenarios.adversaries import (ADVERSARIES,
                                         scenario_fault_plan)
from repro.scenarios.job import ScenarioJob, loads_scenario_job
from repro.scenarios.registry import SCENARIOS, get_scenario, \
    scenario_names
from repro.scenarios.spec import (DIMENSIONS, TEMPLATE, AdversarySpec,
                                  Scenario, compose_scenario,
                                  dumps_scenario, load_scenario,
                                  loads_scenario)

__all__ = [
    "ADVERSARIES",
    "AdversarySpec",
    "DIMENSIONS",
    "SCENARIOS",
    "Scenario",
    "ScenarioJob",
    "TEMPLATE",
    "compose_scenario",
    "dumps_scenario",
    "get_scenario",
    "load_scenario",
    "loads_scenario",
    "loads_scenario_job",
    "scenario_fault_plan",
    "scenario_names",
]
