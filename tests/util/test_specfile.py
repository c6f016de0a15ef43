"""The shared spec-file codec and the five formats built on it.

Three groups:

* the codec itself (:mod:`repro.util.specfile`): parse, read, dump,
  digest, check_keys;
* every format without PyYAML: JSON loads, bad JSON is the format's
  typed ``unparsable`` error, and ``dumps_*`` writes sorted JSON that
  round-trips;
* pinned digests and dump bytes: cache keys, sweep ``plan_digest``s
  and service dedup keys must never move.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.errors import (FaultPlanError, FuzzCampaignError, ScenarioError,
                          SweepPlanError)
from repro.faults import TEMPLATE as FAULT_TEMPLATE
from repro.faults import dumps_fault_plan, load_fault_plan, loads_fault_plan
from repro.fuzz import TEMPLATE as FUZZ_TEMPLATE
from repro.fuzz import dumps_campaign, loads_campaign
from repro.scenarios import SCENARIOS, ScenarioJob
from repro.scenarios import TEMPLATE as SCENARIO_TEMPLATE
from repro.scenarios import dumps_scenario, loads_scenario, loads_scenario_job
from repro.sweep import TEMPLATE as SWEEP_TEMPLATE
from repro.sweep import dumps_sweep_plan, loads_sweep_plan
from repro.util import specfile


#: the template pins and YAML dumps need PyYAML; the rest runs without
HAVE_YAML = specfile._yaml() is not None
needs_yaml = pytest.mark.skipif(not HAVE_YAML, reason="PyYAML not installed")


class _Bad(Exception):
    pass


@pytest.fixture
def no_yaml(monkeypatch):
    """Hide PyYAML, as on an install with only the runtime deps."""
    monkeypatch.setitem(sys.modules, "yaml", None)


class TestCodec:
    @pytest.mark.parametrize("hide_yaml", [False, True],
                             ids=["yaml", "no-yaml"])
    def test_empty_text_is_an_empty_mapping(self, monkeypatch, hide_yaml):
        if hide_yaml:
            monkeypatch.setitem(sys.modules, "yaml", None)
        assert specfile.parse("", _Bad, "thing") == {}
        assert specfile.parse(" \n", _Bad, "thing") == {}

    def test_unparsable_names_the_spec(self):
        with pytest.raises(_Bad, match="^unparsable thing: "):
            specfile.parse("a: [1\n", _Bad, "thing")

    def test_read_error_names_the_spec_and_path(self, tmp_path):
        path = str(tmp_path / "missing.yaml")
        with pytest.raises(_Bad, match=f"^cannot read thing {path!r}: "):
            specfile.read(path, _Bad, "thing")

    def test_digest_is_order_independent(self):
        assert specfile.digest({"a": 1, "b": [2]}) == \
            specfile.digest({"b": [2], "a": 1})
        assert len(specfile.digest({})) == 16

    @needs_yaml
    def test_dump_honours_sort_keys(self):
        assert specfile.dump({"b": 1, "a": 2}, sort_keys=False) == \
            "b: 1\na: 2\n"
        assert specfile.dump({"b": 1, "a": 2}, sort_keys=True) == \
            "a: 2\nb: 1\n"

    def test_check_keys(self):
        specfile.check_keys({"a": 1}, ("a", "b"), _Bad, "thing")
        with pytest.raises(_Bad, match="^thing must be a mapping, got list"):
            specfile.check_keys([1], ("a",), _Bad, "thing")
        with pytest.raises(_Bad, match=r"^unknown big-thing keys: \['c'\]; "
                                       r"known keys: \['a', 'b'\]"):
            specfile.check_keys({"c": 1}, ("a", "b"), _Bad, "big thing")
        with pytest.raises(_Bad, match="unknown thing fields"):
            specfile.check_keys({"c": 1}, ("a",), _Bad, "thing",
                                noun="fields")

    def test_importing_the_formats_does_not_import_yaml(self):
        code = ("import sys; import repro.faults, repro.sweep, repro.fuzz, "
                "repro.scenarios, repro.topology; "
                "assert 'yaml' not in sys.modules, 'yaml imported'")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


#: (format, loads, dumps or None, typed error, a valid JSON spec)
FORMATS = [
    ("fault plan", loads_fault_plan, dumps_fault_plan, FaultPlanError,
     {"seed": 3, "drop_rate": 0.1,
      "stragglers": [{"rank": 1, "factor": 2.0}]}),
    ("sweep plan", loads_sweep_plan, dumps_sweep_plan, SweepPlanError,
     {"name": "tiny", "base": {"app": "jacobi", "nranks": 4},
      "axes": [{"field": "compute_scale", "values": [1.0, 0.5]}]}),
    ("fuzz campaign", loads_campaign, dumps_campaign, FuzzCampaignError,
     {"name": "hunt", "apps": [{"app": "race", "nranks": 5, "cls": "W"}],
      "policies": ["random"], "seeds": 2}),
    ("scenario", loads_scenario, dumps_scenario, ScenarioError,
     {"name": "t", "topology": "torus3d",
      "adversaries": [{"kind": "hot-link", "params": {"count": 1}}]}),
    ("scenario job", loads_scenario_job, None, ScenarioError,
     {"scenario": "calm", "app": "bt", "nranks": 16, "cls": "W"}),
]


@pytest.mark.parametrize("what,loads,dumps,error,data", FORMATS,
                         ids=[f[0] for f in FORMATS])
class TestWithoutPyYAML:
    def test_json_loads(self, no_yaml, what, loads, dumps, error, data):
        spec = loads(json.dumps(data))
        assert spec.to_dict() == loads(json.dumps(spec.to_dict())).to_dict()

    def test_bad_json_is_the_typed_error(self, no_yaml, what, loads, dumps,
                                         error, data):
        with pytest.raises(error, match=f"^unparsable {what}: "):
            loads("name: not json\n")

    def test_dumps_sorted_json_round_trips(self, no_yaml, what, loads,
                                           dumps, error, data):
        if dumps is None:
            pytest.skip(f"a {what} has no dumps function")
        spec = loads(json.dumps(data))
        text = dumps(spec)
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"
        assert loads(text).digest() == spec.digest()


def test_missing_file_is_the_typed_error(tmp_path):
    with pytest.raises(FaultPlanError, match="^cannot read fault plan "):
        load_fault_plan(str(tmp_path / "missing.yaml"))


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: TEMPLATE digests and sha256 of their dumps_* text (PyYAML 6)
PINNED_TEMPLATES = [
    (FAULT_TEMPLATE, loads_fault_plan, dumps_fault_plan, "bc24e6a86c0695ae",
     "4f7773b0c269855265c5fa14f4254eee7e2250953708ba7f17f45202b4a7505d"),
    (SWEEP_TEMPLATE, loads_sweep_plan, dumps_sweep_plan, "1a39b8f6ac462aad",
     "e3da3a8f23a589308687cdeb72add80d0a913d6795274c791daa329ce2dabf9a"),
    (FUZZ_TEMPLATE, loads_campaign, dumps_campaign, "b0caf85861f790d5",
     "4319b9dc25a6d99b66cbf46ca79de41610b08831930d053aadef38c370e276d9"),
    (SCENARIO_TEMPLATE, loads_scenario, dumps_scenario, "20037b78275c90d8",
     "70973522114bb14539c247941688bfe334bd60133aa0de15b2d232fc1b8e443f"),
]


@needs_yaml
@pytest.mark.parametrize("template,loads,dumps,digest,dump_sha",
                         PINNED_TEMPLATES,
                         ids=["fault", "sweep", "fuzz", "scenario"])
def test_template_digest_and_dump_pinned(template, loads, dumps, digest,
                                         dump_sha):
    spec = loads(template)
    assert spec.digest() == digest
    assert _sha(dumps(spec)) == dump_sha


#: curated scenario digests and sha256 of their dumps_scenario text
PINNED_SCENARIOS = {
    "calm": ("07d3e186b5065787",
             "c8497eeb9586fa93838caba291c8ef7ba4085b4cdd19bd2ca7e1a4567834c7af"),
    "torus-hotlink": (
        "5f1e5820dc87a975",
        "3a9c7850ac1d4b553c4960826b968ed4f92d573b65e024082235377b696bceb8"),
    "torus-bisection": (
        "f0ff6cafdf513b49",
        "2b458cc94aa80fd3bf3988a4e78a9e5570915baab3dca36957efd8e9bcc9696a"),
    "fattree-uplink-loss": (
        "904c50355e181fae",
        "aadedcf7f4f528fcd427a23eeb67bc56d1bfd1f427586af3ed671ca2819c0097"),
    "incast-burst": (
        "60dce4da7d307c1b",
        "5a6eb664234891efa105513cbd7106922766dc5fb1fe05746f743ee845688789"),
    "hotspot-ranks": (
        "9632e777cf76225c",
        "1ba7db9cb0f88bb22516687ab52f54455bd492fc928ded5ff317729525445068"),
    "straggler-wavefront": (
        "b0a373c2c172fe62",
        "5c3471421c9f5f96e852cec9e1ca94959021e7130fb785529bd67f3f910faac1"),
    "codel-pressure": (
        "ec3966918aed4b02",
        "259017e60ffe90f5997b2a43671ac15a97e157697573fa3e5c7bd7aea243f287"),
    "adversarial-schedule": (
        "16d2a83724748157",
        "a2aaba88fb1defa7dfff58b6d6f43c5fef416653ecb49fddbd7e18175220a33d"),
}


def test_every_curated_scenario_is_pinned():
    assert set(SCENARIOS) == set(PINNED_SCENARIOS)


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
def test_curated_scenario_digest_pinned(name):
    digest, dump_sha = PINNED_SCENARIOS[name]
    assert SCENARIOS[name].digest() == digest
    if HAVE_YAML:
        assert _sha(dumps_scenario(SCENARIOS[name])) == dump_sha


def test_scenario_job_digest_pinned():
    assert ScenarioJob("calm", "bt", 16, cls="W").digest() == \
        "de918174fa33a42e"
