"""Mini scenario serialisation for CACHE001 fixtures (hand-listed keys:
``duration`` never reaches the canonical JSON)."""

import json


def scenario_to_dict(config):
    return {"num_nodes": config.num_nodes, "seed": config.seed}


def scenario_canonical_json(config):
    return json.dumps(scenario_to_dict(config), sort_keys=True, separators=(",", ":"))
