"""Reads every ScenarioConfig field: clean iff every field is canonical."""


def describe(config):
    return f"{config.num_nodes} nodes, {config.duration} s, seed {config.seed}"
