"""Mini scenario schema for CACHE001 fixtures."""

from dataclasses import dataclass


@dataclass(frozen=True)
class ScenarioConfig:
    num_nodes: int = 10
    duration: float = 100.0
    seed: int = 1

    @property
    def offered_load(self) -> float:
        return self.num_nodes * 1.0

    def but(self, **changes):
        return self
