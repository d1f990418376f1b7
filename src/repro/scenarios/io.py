"""Scenario (de)serialisation.

Experiments should be reproducible from an artifact, not a shell history:
these helpers round-trip a complete :class:`ScenarioConfig` — including the
nested :class:`DsrConfig` — through JSON.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.config import DsrConfig, ExpiryMode
from repro.errors import ConfigurationError
from repro.scenarios.config import ScenarioConfig

PathLike = Union[str, Path]

# Fields added after cache-format v1 shipped, with the values that reproduce
# the pre-field behaviour exactly.  scenario_to_dict elides them when they
# hold exactly these defaults, so the canonical JSON — and therefore every
# content-addressed cache key computed before the field existed — is
# unchanged for scenarios that don't use the new knob.  Non-default values
# appear in the canonical JSON and key a distinct cache entry.  Entries here
# are append-only: removing (or changing) one silently re-keys the cache.
_POST_V1_COMPAT_DEFAULTS: Dict[str, Any] = {
    "radio_profile": "wavelan",
    "link_loss": 0.0,
    "walk_epoch": 10.0,
}


# The field plans, resolved once and sorted: the encoder reads exactly these
# names, in this order, and the decoder accepts exactly these names.  Every
# field of both records is an immutable scalar (``dsr`` and ``expiry_mode`` are
# encoded by hand below), so a shallow read is a full copy;
# tests/analysis/test_field_plans.py fails, naming this module, when a field of
# another shape is added.
_SCENARIO_FIELDS: Tuple[str, ...] = tuple(
    sorted(field.name for field in dataclasses.fields(ScenarioConfig))
)
_DSR_FIELDS: Tuple[str, ...] = tuple(
    sorted(field.name for field in dataclasses.fields(DsrConfig))
)
_read_scenario = operator.attrgetter(*_SCENARIO_FIELDS)
_read_dsr = operator.attrgetter(*_DSR_FIELDS)

# json.dumps with these arguments builds this encoder anew on every call.
# ``sort_keys`` stays: scenario_to_dict's output is already in key order, so
# the sort is one linear pass, and a hand-built payload is still canonical.
_canonical_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# Where a DsrConfig keeps its canonical JSON once encoded: an entry in the
# frozen instance's own ``__dict__``, never a table keyed by value.  ``1 ==
# 1.0 == True`` and ``0.0 == -0.0`` compare and hash alike but encode
# differently, so a value-keyed memo would hand one spelling's key to another;
# the instance holds exactly the values it encodes.  A pickled or copied
# config carries the entry along, which is just as sound.
_DSR_JSON = "_canonical_json"

# The placeholder that holds the ``dsr`` slot while the other fields are
# encoded.  ``"dsr":`` occurs exactly once in the encoding — a ``"`` inside a
# JSON string is escaped, and a string value is never followed by ``:`` — so
# replacing the first ``"dsr":0`` splices the fragment into its sorted slot.
_DSR_PLACEHOLDER = '"dsr":0'


def _dsr_to_dict(dsr: DsrConfig) -> Dict[str, Any]:
    dsr_payload = dict(zip(_DSR_FIELDS, _read_dsr(dsr)))
    dsr_payload["expiry_mode"] = dsr_payload["expiry_mode"].value
    return dsr_payload


def _dsr_canonical_json(dsr: DsrConfig) -> str:
    """``_canonical_encode(_dsr_to_dict(dsr))``, encoded once per instance."""
    state = vars(dsr)
    fragment: Optional[str] = state.get(_DSR_JSON)
    if fragment is None:
        # Frozen: __setattr__ refuses, the instance dict does not.
        fragment = state[_DSR_JSON] = _canonical_encode(_dsr_to_dict(dsr))
    return fragment


def _elide_compat_defaults(payload: Dict[str, Any]) -> Dict[str, Any]:
    for key, compat_default in _POST_V1_COMPAT_DEFAULTS.items():
        if payload[key] == compat_default:
            del payload[key]
    return payload


def scenario_to_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """A plain-JSON-types dict capturing the full configuration.

    The dict and its nested ``"dsr"`` dict are fresh on every call, and
    both list their keys in sorted order.
    """
    payload = dict(zip(_SCENARIO_FIELDS, _read_scenario(config)))
    payload["dsr"] = _dsr_to_dict(config.dsr)  # replaced in place: the key keeps its slot
    return _elide_compat_defaults(payload)


def scenario_canonical_json(config: Union[ScenarioConfig, Dict[str, Any]]) -> str:
    """A canonical (sorted-key, no-whitespace) JSON encoding of a scenario.

    Two configurations describe the same simulation iff their canonical
    encodings are byte-equal — dict key order, float formatting via
    ``json``'s repr, and nothing else.  The sweep result cache hashes this
    string, so its stability is what makes cache keys durable.

    A :class:`ScenarioConfig` encodes its own fields and splices in its
    ``DsrConfig``'s encoding, which every config sharing that instance —
    a grid row — reuses; the result is byte-equal to encoding
    :func:`scenario_to_dict`'s payload, which is what a dict gets.
    """
    if isinstance(config, dict):
        return _canonical_encode(config)
    payload = dict(zip(_SCENARIO_FIELDS, _read_scenario(config)))
    payload["dsr"] = 0  # holds the slot: encodes as _DSR_PLACEHOLDER
    return _canonical_encode(_elide_compat_defaults(payload)).replace(
        _DSR_PLACEHOLDER, f'"dsr":{_dsr_canonical_json(config.dsr)}', 1
    )


def scenario_from_dict(payload: Dict[str, Any]) -> ScenarioConfig:
    """Inverse of :func:`scenario_to_dict` (unknown keys are rejected)."""
    data = dict(payload)
    dsr_data = dict(data.pop("dsr", {}))
    if "expiry_mode" in dsr_data:
        dsr_data["expiry_mode"] = ExpiryMode(dsr_data["expiry_mode"])
    unknown = dsr_data.keys() - _DSR_FIELDS
    if unknown:
        raise ConfigurationError(f"unknown DsrConfig fields: {sorted(unknown)}")
    unknown = data.keys() - _SCENARIO_FIELDS
    if unknown:
        raise ConfigurationError(f"unknown ScenarioConfig fields: {sorted(unknown)}")
    return ScenarioConfig(dsr=DsrConfig(**dsr_data), **data)


def save_scenario(config: ScenarioConfig, path: PathLike) -> Path:
    path = Path(path)
    path.write_text(json.dumps(scenario_to_dict(config), indent=2, sort_keys=True))
    return path


def load_scenario(path: PathLike) -> ScenarioConfig:
    payload = json.loads(Path(path).read_text())
    return scenario_from_dict(payload)
