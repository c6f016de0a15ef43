"""The benchmark's correctness gate, run outside the timed region.

Two checks, each counted per cell:

* **makespans** — the original application's and the generated
  benchmark's simulated makespans, and every what-if point's makespan,
  must equal the committed ``float.hex`` references in
  ``references.json`` bit for bit;
* **§5.2 profiles** — per MPI operation, the call counts and volumes of
  the original and the generated run, recorded by the mpiP hook, must
  match (``benchmarks/_util.canonical_profile`` / ``profiles_close``).

Every miss or exception makes its cell count as failed.

The mpiP runs of a cell are a pure function of the program's code and
the generated source, so :class:`GateMemo` keeps their outcome under
``.perfbench/gate/``, keyed by a digest of both; a later run of the
same code reuses it instead of re-running the generated benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")


def load_references() -> Dict[str, Dict[str, str]]:
    """workload -> {makespan id -> float.hex string}."""
    with open(REFERENCES) as fh:
        return json.load(fh)


def write_references(refs: Dict[str, Dict[str, str]]) -> None:
    """Rewrite the committed references (``run.py --write-references``)."""
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_makespans(refs: Dict[str, str],
                    observed: Dict[str, Optional[float]]) -> List[str]:
    """Every observed makespan that differs from its reference, and why."""
    misses = []
    for key, value in sorted(observed.items()):
        want = refs.get(key)
        if want is None:
            misses.append(f"{key}: no committed reference")
        elif value is None:
            misses.append(f"{key}: no makespan produced")
        elif value.hex() != want:
            misses.append(f"{key}: makespan {value.hex()} != "
                          f"reference {want}")
    return misses


def check_profiles(original: dict, generated: dict) -> Optional[str]:
    """None when the §5.2 canonical mpiP profiles match, else why."""
    from _util import profiles_close
    ok, why = profiles_close(original, generated)
    return None if ok else f"§5.2 profile mismatch: {why}"


def gate_cell(cell_id: str, program, benchmark, nranks: int, model,
              run_model) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """Run the original and the generated program under the mpiP hook.

    Returns the two makespans keyed ``<cell>/original`` and
    ``<cell>/generated``, and the §5.2 miss (or the exception) if any.
    """
    from repro.mpi.world import run_spmd
    from repro.tools import MpiPHook
    from _util import canonical_profile
    orig_prof, gen_prof = MpiPHook(), MpiPHook()
    try:
        orig = run_spmd(program, nranks, model=model, hooks=[orig_prof])
        gen, _ = benchmark.run(nranks, model=run_model, hooks=[gen_prof])
    except Exception as exc:  # the gate reports a failure, never aborts
        return {}, [f"{cell_id}: gate run raised "
                    f"{type(exc).__name__}: {exc}"]
    observed = {f"{cell_id}/original": orig.total_time,
                f"{cell_id}/generated": gen.total_time}
    miss = check_profiles(canonical_profile(orig_prof),
                          canonical_profile(gen_prof))
    return observed, [f"{cell_id}: {miss}"] if miss else []


def code_digest(root: str) -> str:
    """sha256 over the program's sources and the gate's own code."""
    files = [os.path.join(root, "benchmarks", "_util.py"),
             os.path.abspath(__file__)]
    for dirpath, _, names in os.walk(os.path.join(root, "src", "repro")):
        files += [os.path.join(dirpath, n) for n in names
                  if n.endswith(".py")]
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class GateMemo:
    """Outcomes of :func:`gate_cell` keyed by code, cell and source."""

    def __init__(self, directory: str, code: str):
        self.directory = directory
        self.code = code
        self.hits = 0

    def key(self, cell_id: str, platform: str, source: str) -> str:
        h = hashlib.sha256()
        for part in (self.code, cell_id, platform, source):
            h.update(part.encode() + b"\0")
        return h.hexdigest()

    def get(self, key: str):
        """``(observed, misses)`` of an earlier gate run, or None."""
        try:
            with open(os.path.join(self.directory, key + ".json")) as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            return None
        self.hits += 1
        return ({k: float.fromhex(v) for k, v in rec["observed"].items()},
                rec["misses"])

    def put(self, key: str, observed: Dict[str, float],
            misses: List[str]) -> None:
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, key + ".json")
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump({"observed": {k: v.hex()
                                    for k, v in observed.items()},
                       "misses": misses}, fh)
        os.replace(tmp, path)
