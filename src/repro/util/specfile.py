"""The one codec behind every declarative spec file.

Fault plans, sweep plans, fuzz campaigns, scenarios and scenario jobs
(and placement maps) are all the same kind of file: a YAML mapping,
parsed with PyYAML when it is installed and as JSON when it is not.
This module is the only place that knows that format decision.
:func:`parse`, :func:`read` and :func:`check_keys` take the caller's
typed error class and a human name for the spec (``"fault plan"``), so
a bad file fails as, e.g., ``FaultPlanError: unparsable fault plan:
...``.

PyYAML is imported lazily, on the first parse or dump, so importing a
spec module never pays for it.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from typing import Any, Iterable, Type


def _yaml():
    """PyYAML, or None when it is not installed (spec files are then
    read and written as JSON)."""
    try:
        import yaml
    except ImportError:
        return None
    return yaml


def parse(text: str, error: Type[Exception], what: str) -> Any:
    """The data in spec-file ``text``; empty text is an empty mapping."""
    yaml = _yaml()
    if yaml is None and not text.strip():
        return {}
    bad = ValueError if yaml is None else yaml.YAMLError
    try:
        data = json.loads(text) if yaml is None else yaml.safe_load(text)
    except bad as exc:
        raise error(f"unparsable {what}: {exc}") from None
    return {} if data is None else data


def read(path: str, error: Type[Exception], what: str) -> str:
    """The text of the spec file at ``path``."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path!r}: {exc}") from None


def dump(data: Any, sort_keys: bool) -> str:
    """``data`` as YAML, or as sorted, indented JSON without PyYAML."""
    yaml = _yaml()
    if yaml is None:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    return yaml.safe_dump(data, sort_keys=sort_keys)


def digest(data: Any) -> str:
    """Stable 16-hex content address of a spec's plain-data form."""
    payload = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def check_keys(data: Any, known: Iterable[str], error: Type[Exception],
               what: str, noun: str = "keys") -> None:
    """Reject ``data`` unless it is a mapping whose keys are all
    ``known`` (the prologue of every ``from_dict``)."""
    if not isinstance(data, Mapping):
        raise error(f"{what} must be a mapping, got {type(data).__name__}")
    known = set(known)
    unknown = set(data) - known
    if unknown:
        label = what.replace(" ", "-")
        raise error(f"unknown {label} {noun}: {sorted(unknown)}; "
                    f"known {noun}: {sorted(known)}")
