"""Mini scenario serialisation for CACHE001 fixtures (field-plan-based)."""

import dataclasses
import json
from typing import Tuple

from .config import ScenarioConfig

_SCENARIO_FIELDS: Tuple[str, ...] = tuple(
    field.name for field in dataclasses.fields(ScenarioConfig)
)


def scenario_to_dict(config):
    return {name: getattr(config, name) for name in _SCENARIO_FIELDS}


def scenario_canonical_json(config):
    return json.dumps(scenario_to_dict(config), sort_keys=True, separators=(",", ":"))
