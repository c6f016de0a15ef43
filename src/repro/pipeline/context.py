"""The run context threaded through every pipeline stage.

A :class:`RunContext` is the single mutable object a pipeline run owns:
the validated config, lazily resolved program/model, the artifact store
(``trace``, ``source``, ``benchmark``, ``run_result`` …), the rolling
cache key, and the per-stage execution records that become the run
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import PipelineError
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.config import PipelineConfig


@dataclass
class StageRecord:
    """What one stage execution did: how long, and how it was satisfied
    (``hit``/``miss`` for cached stages, ``off`` when caching did not
    apply, ``skipped`` when the stage decided it had nothing to do)."""

    stage: str
    seconds: float
    cache: str
    detail: str = ""


class RunContext:
    """Mutable state for one pipeline run.

    ``program`` / ``model`` / ``hooks`` may be supplied directly (the
    public API wrappers do this); supplying any of them makes the run
    *unkeyable* — its inputs are arbitrary Python objects with no stable
    content address — so caching disengages automatically.
    """

    def __init__(self, config: PipelineConfig,
                 program: Optional[Callable] = None,
                 model=None, hooks=None,
                 cache: Optional[ArtifactCache] = None):
        self.config = config
        self.hooks = hooks
        self._program = program
        self._model = model
        self._model_resolved = model is not None or config.platform is None
        self.cache = cache
        if cache is None and config.use_cache:
            self.cache = ArtifactCache(config.cache_dir)
        self.artifacts: Dict[str, Any] = {}
        self.records: List[StageRecord] = []
        # rolling content address; None whenever any input lacks one
        keyable = (config.app is not None and program is None
                   and model is None and hooks is None
                   and config.platform is not None)
        self.key: Optional[str] = "" if keyable else None

    # -- lazy resolution ---------------------------------------------------
    @property
    def program(self) -> Callable:
        """The SPMD application program (built from the registry on
        first use when not supplied directly)."""
        if self._program is None:
            if self.config.app is None:
                raise PipelineError(
                    "no application: config.app is unset and no program "
                    "was supplied to the RunContext")
            from repro.apps import make_app
            if self.config.nranks is None:
                raise PipelineError("config.nranks is required to build "
                                    f"app {self.config.app!r}")
            self._program = make_app(self.config.app, self.config.nranks,
                                     self.config.cls)
        return self._program

    @property
    def model(self):
        """The network model (platform preset, supplied model, or None
        for the simulator default)."""
        if not self._model_resolved:
            from repro.sim.network import make_model
            self._model = make_model(self.config.platform)
            self._model_resolved = True
        return self._model

    @property
    def run_model(self):
        """The network model the *execution* stages run under.

        Identical to :attr:`model` unless the config's scenario pins a
        run platform or a routed topology — the paper's §5.4
        methodology of re-running one generated specification on a
        changed platform.  Trace and generation stages never see this
        model, so their cached artifacts are shared across a
        platform-parameter sweep.
        """
        c = self.config
        scn = c.scenario
        if scn is None or scn.run_platform is None:
            base = self.model
        else:
            from repro.sim.network import make_model
            try:
                base = make_model(scn.run_platform,
                                  **dict(scn.run_platform_params or ()))
            except (TypeError, ValueError) as exc:
                raise PipelineError(
                    f"bad run_platform_params for platform "
                    f"{scn.run_platform!r}: {exc}") from None
        if scn is None or scn.topology is None:
            return base
        if c.nranks is None:
            raise PipelineError(
                "config.nranks is required to place ranks on a "
                f"{scn.topology!r} topology")
        if base is None:
            from repro.sim.network import LogGPModel
            base = LogGPModel()
        from repro.topology import make_topology_model
        placement = scn.placement or "block"
        try:
            return make_topology_model(
                base, scn.topology, c.nranks,
                topology_params=dict(scn.topology_params or ()),
                placement=placement)
        except ValueError as exc:
            raise PipelineError(
                f"bad topology configuration ({scn.topology!r}, "
                f"placement {placement!r}): {exc}") from None

    # -- bookkeeping -------------------------------------------------------
    def record(self, stage: str, seconds: float, cache: str,
               detail: str = "") -> StageRecord:
        """Append one per-stage report row (timing + cache status)."""
        rec = StageRecord(stage, seconds, cache, detail)
        self.records.append(rec)
        return rec

    def require(self, artifact: str) -> Any:
        """The named artifact, or a :class:`PipelineError` naming what
        *is* available — the error a stage raises when run out of order."""
        try:
            return self.artifacts[artifact]
        except KeyError:
            raise PipelineError(
                f"stage requires missing artifact {artifact!r}; "
                f"have {sorted(self.artifacts)}") from None


@dataclass
class PipelineResult:
    """Everything a finished pipeline run produced."""

    config: PipelineConfig
    records: List[StageRecord]
    artifacts: Dict[str, Any]
    cache: Optional[ArtifactCache] = None
    seconds: float = 0.0

    @property
    def trace(self):
        """The (possibly aligned/resolved) ScalaTrace trace, if produced."""
        return self.artifacts.get("trace")

    @property
    def source(self) -> Optional[str]:
        """The generated coNCePTuaL source text, if produced."""
        return self.artifacts.get("source")

    @property
    def benchmark(self):
        """The compiled ``ConceptualProgram``, if produced."""
        return self.artifacts.get("benchmark")

    @property
    def run_result(self):
        """The execution stage's ``SpmdResult``, if the pipeline ran one."""
        return self.artifacts.get("run_result")

    @property
    def fault_report(self):
        """The FaultReport of the last faulted simulation stage, if any."""
        return self.artifacts.get("fault_report")

    @property
    def degraded(self) -> bool:
        """True when some stage salvaged a partial (crashed/hung) run."""
        return bool(self.artifacts.get("degraded"))

    def cache_hits(self) -> int:
        """How many stages were served from the artifact cache."""
        return sum(1 for r in self.records if r.cache == "hit")

    def report(self) -> str:
        """The per-stage timing/cache table printed by ``repro pipeline``."""
        what = self.config.app or self.config.name
        header = (f"pipeline report: {what}"
                  + (f" class {self.config.cls}" if self.config.app else "")
                  + (f", np={self.config.nranks}"
                     if self.config.nranks else "")
                  + (f", platform={self.config.platform}"
                     if self.config.platform else ""))
        lines = [header,
                 f"  {'stage':<10s} {'time':>10s}  {'cache':<7s} detail"]
        for rec in self.records:
            lines.append(f"  {rec.stage:<10s} {rec.seconds * 1e3:>8.1f}ms"
                         f"  {rec.cache:<7s} {rec.detail}")
        total = sum(r.seconds for r in self.records)
        tail = f"  total      {total * 1e3:>8.1f}ms"
        if self.cache is not None:
            tail += f"  cache: {self.cache.stats()} ({self.cache.root})"
        lines.append(tail)
        return "\n".join(lines)
