"""Topology sweep: BT under flat, torus, and fat-tree fabrics (Fig. 7 style).

The paper's §5.4 what-if methodology re-runs one generated communication
specification under changed platform parameters.  The routed-fabric
layer extends that axis set from endpoint knobs to *wire structure*: the
BT benchmark is generated once on the ARC Ethernet protocol stack, then
replayed on a flat crossbar, a 3D torus, and a fat-tree — and, on the
torus, under several rank→node placement policies — without re-tracing
anything (topology and placement are execution-only scenario
dimensions, so every point shares the cached trace/emit artifacts).

Recorded invariants, asserted here and by CI:

* the whole grid shares exactly one trace + one emit artifact
  (``cache_misses == 2`` regardless of point count);
* routed fabrics never beat the contention-free flat baseline at any
  compute-acceleration level (per-hop latency and link serialization
  only add time);
* placement policies produce measurably different makespans on the
  torus (the acceptance criterion for the fabric layer);
* repeated sweeps are byte-identical (canonical JSON comparison).

Results land in ``benchmarks/BENCH_topology.json``.

Run:

    PYTHONPATH=src python benchmarks/bench_topology.py
    PYTHONPATH=src python benchmarks/bench_topology.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.sweep import SweepPlan, run_sweep  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(__file__),
                           "BENCH_topology.json")

APP = "bt"
CLS = "S"
PLATFORM = "ethernet"
SEED = 2011  # fixed seed for the random placement policy

NRANKS = 16
SCALES = [1.0, 0.5, 0.25]
TOPOLOGIES = [None, "torus3d", "fattree"]
PLACEMENTS = ["block", "roundrobin", f"random:{SEED}"]
QUICK_NRANKS = 4
QUICK_SCALES = [1.0, 0.5]
QUICK_TOPOLOGIES = [None, "torus3d"]
QUICK_PLACEMENTS = ["block", f"random:{SEED}"]


def topology_plan(nranks, scales, topologies) -> SweepPlan:
    """compute_scale x topology grid on one generated BT spec (each
    routed fabric an inline scenario; null is the flat network)."""
    scenarios = [None if t is None else {"name": t, "topology": t}
                 for t in topologies]
    return SweepPlan(
        name="topology-whatif",
        base={"app": APP, "nranks": nranks, "cls": CLS,
              "platform": PLATFORM},
        axes=[{"field": "compute_scale", "values": scales},
              {"field": "scenario", "values": scenarios}])


def placement_plan(nranks, placements) -> SweepPlan:
    """Placement axis on a torus with two ranks per node (so policy
    choices actually move neighbours across the fabric)."""
    nodes = max(nranks // 2, 1)
    return SweepPlan(
        name="topology-placement",
        base={"app": APP, "nranks": nranks, "cls": CLS,
              "platform": PLATFORM},
        axes=[{"field": "scenario",
               "values": [{"name": f"torus3d-{p}", "topology": "torus3d",
                           "topology_params": {"nodes": nodes},
                           "placement": p} for p in placements]}])


def sweep(plan: SweepPlan, cache_dir: str):
    result = run_sweep(plan, workers=1, cache_dir=cache_dir)
    assert not result.failed, \
        f"{plan.name}: {[p.error for p in result.failed]}"
    return result


def run_grids(nranks, scales, topologies, placements) -> dict:
    tmp = tempfile.mkdtemp(prefix="bench-topology-")
    try:
        topo = sweep(topology_plan(nranks, scales, topologies),
                     os.path.join(tmp, "topo"))
        again = sweep(topology_plan(nranks, scales, topologies),
                      os.path.join(tmp, "topo-again"))
        assert topo.canonical_json() == again.canonical_json(), \
            "repeated topology sweeps must be byte-identical"
        # topology and placement are execution-only: N points, 1 trace+emit
        assert topo.cache_misses == 2, \
            (f"expected one shared trace+emit, got "
             f"{topo.cache_misses} cache miss(es)")
        place = sweep(placement_plan(nranks, placements),
                      os.path.join(tmp, "place"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    grid: dict = {}
    for p in topo.points:
        fabric = (p.params["scenario"] or {}).get("topology") or "flat"
        grid.setdefault(f"{p.params['compute_scale']:g}", {})[fabric] = \
            p.metrics["makespan_s"]
    placements_row = {p.params["scenario"]["placement"]:
                      p.metrics["makespan_s"] for p in place.points}
    return {"grid": grid, "placements": placements_row,
            "topology_digest": topo.plan.digest(),
            "placement_digest": place.plan.digest()}


def check_invariants(data: dict, scales, topologies, placements) -> None:
    for scale in scales:
        row = data["grid"][f"{scale:g}"]
        flat = row["flat"]
        for name in topologies:
            if name is None:
                continue
            assert row[name] > flat, \
                (f"compute {scale:g}: routed {name} ({row[name]:.6g}s) "
                 f"must not beat the flat crossbar ({flat:.6g}s)")
    times = set(data["placements"].values())
    assert len(times) > 1, \
        (f"placement policies {placements} all produced the same "
         f"makespan — the fabric layer is not placement-sensitive")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small CI-sized grid")
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help="output JSON path (default benchmarks/"
                         "BENCH_topology.json); '-' to skip writing")
    args = ap.parse_args(argv)

    nranks = QUICK_NRANKS if args.quick else NRANKS
    scales = QUICK_SCALES if args.quick else SCALES
    topologies = QUICK_TOPOLOGIES if args.quick else TOPOLOGIES
    placements = QUICK_PLACEMENTS if args.quick else PLACEMENTS

    data = run_grids(nranks, scales, topologies, placements)
    check_invariants(data, scales, topologies, placements)

    fabrics = [(t or "flat") for t in topologies]
    print(f"topology sweep: {APP} class {CLS}, np={nranks}, {PLATFORM} "
          f"(makespans in us)")
    print("scale ->  " + "".join(f"{f:>12}" for f in fabrics))
    for scale in scales:
        row = data["grid"][f"{scale:g}"]
        print(f"  {scale:>5g}  "
              + "".join(f"{row[f] * 1e6:>12.1f}" for f in fabrics))
    print("torus3d placement (nodes = np/2):")
    for spec in placements:
        print(f"  {spec:>12}: {data['placements'][spec] * 1e6:>10.1f}")

    results = {"app": APP, "nranks": nranks, "cls": CLS,
               "platform": PLATFORM, "seed": SEED,
               "mode": "quick" if args.quick else "full",
               "python": platform.python_version(), **data}
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    print("invariants ok: shared trace/emit, deterministic, routed >= "
          "flat, placement-sensitive")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
