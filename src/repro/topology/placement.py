"""Rank→node placement policies.

A placement assigns each MPI rank to a topology node.  It is the third
ingredient of a routed fabric (topology + placement + link parameters)
and the knob the paper's what-if methodology most obviously lacks: the
same communication specification can behave very differently when
neighbouring ranks land on distant nodes.

Policies (all deterministic):

* ``block`` — ranks fill nodes in contiguous blocks
  (``rank // ceil(nranks / nodes)``), the common scheduler default;
* ``roundrobin`` — ranks deal across nodes like cards
  (``rank % nodes``), the cyclic layout;
* ``random`` / ``random:<seed>`` — a seeded deterministic shuffle of
  the block layout (same seed, same placement, bit-identical runs);
* ``map:<file>`` — an explicit rank→node list loaded from a JSON (or
  YAML) file, for replaying a real machine's allocation.
"""

from __future__ import annotations

import json
import random
from typing import Optional, Sequence, Tuple

from repro.util import specfile

#: policy names accepted by :func:`make_placement`
PLACEMENTS = ("block", "roundrobin", "random", "map")


def block_placement(nranks: int, num_nodes: int) -> Tuple[int, ...]:
    """Contiguous blocks of ranks per node."""
    per = -(-nranks // num_nodes)  # ceil
    return tuple(min(r // per, num_nodes - 1) for r in range(nranks))


def roundrobin_placement(nranks: int, num_nodes: int) -> Tuple[int, ...]:
    """Cyclic rank-to-node dealing."""
    return tuple(r % num_nodes for r in range(nranks))


def random_placement(nranks: int, num_nodes: int,
                     seed: int = 0) -> Tuple[int, ...]:
    """Seeded deterministic shuffle of the block layout."""
    assignment = list(block_placement(nranks, num_nodes))
    random.Random(seed).shuffle(assignment)
    return tuple(assignment)


def load_placement_map(path: str, nranks: int,
                       num_nodes: int) -> Tuple[int, ...]:
    """An explicit rank→node assignment from a JSON/YAML file.

    The file holds either a bare list (``[0, 0, 1, 1]``, index = rank)
    or a mapping with a ``placement`` key holding that list.
    """
    text = specfile.read(path, ValueError, "placement map")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = specfile.parse(text, ValueError, f"placement map {path!r}")
    if isinstance(data, dict):
        data = data.get("placement")
    if not isinstance(data, list):
        raise ValueError(
            f"placement map {path!r} must be a list of node ids (or a "
            f"mapping with a 'placement' list)")
    return _check_assignment(tuple(int(n) for n in data), nranks, num_nodes,
                             where=path)


def _check_assignment(assignment: Tuple[int, ...], nranks: int,
                      num_nodes: int, where: str) -> Tuple[int, ...]:
    if len(assignment) != nranks:
        raise ValueError(
            f"placement {where!r} assigns {len(assignment)} rank(s), "
            f"but the run has {nranks}")
    bad = sorted({n for n in assignment if not 0 <= n < num_nodes})
    if bad:
        raise ValueError(
            f"placement {where!r} names node(s) {bad} outside "
            f"[0, {num_nodes})")
    return assignment


def parse_placement_spec(spec: str) -> Tuple[str, Optional[str]]:
    """Split a placement spec string into (policy, argument).

    ``"block"`` → ``("block", None)``; ``"random:7"`` → ``("random",
    "7")``; ``"map:nodes.json"`` → ``("map", "nodes.json")``.  Raises
    :class:`ValueError` for unknown policies or malformed arguments —
    without touching the filesystem, so sweep plans validate cheaply.
    """
    policy, _, arg = spec.partition(":")
    if policy not in PLACEMENTS:
        raise ValueError(
            f"unknown placement policy {policy!r}; choose from "
            f"{PLACEMENTS} (optionally 'random:<seed>' or 'map:<file>')")
    if policy in ("block", "roundrobin") and arg:
        raise ValueError(f"placement {policy!r} takes no argument, "
                         f"got {arg!r}")
    if policy == "random" and arg:
        try:
            int(arg)
        except ValueError:
            raise ValueError(
                f"random placement seed must be an integer, got {arg!r}"
            ) from None
    if policy == "map" and not arg:
        raise ValueError("map placement needs a file: 'map:<path>'")
    return policy, (arg or None)


def make_placement(spec: str, nranks: int,
                   num_nodes: int) -> Tuple[int, ...]:
    """The rank→node assignment described by a placement spec string."""
    if nranks <= 0 or num_nodes <= 0:
        raise ValueError("nranks and num_nodes must be positive")
    policy, arg = parse_placement_spec(spec)
    if policy == "block":
        return block_placement(nranks, num_nodes)
    if policy == "roundrobin":
        return roundrobin_placement(nranks, num_nodes)
    if policy == "random":
        return random_placement(nranks, num_nodes,
                                seed=int(arg) if arg else 0)
    return load_placement_map(arg or "", nranks, num_nodes)


def explicit_placement(assignment: Sequence[int], nranks: int,
                       num_nodes: int) -> Tuple[int, ...]:
    """Validate a caller-supplied rank→node assignment."""
    return _check_assignment(tuple(int(n) for n in assignment), nranks,
                             num_nodes, where="explicit assignment")
