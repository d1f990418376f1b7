"""Guards for the field-plan encoders.

``scenario_to_dict`` and ``result_to_payload`` read each record's fields
shallowly, where ``dataclasses.asdict`` used to recurse and deep-copy, and
``SimulationResult.from_payload`` fills a result's instance dict in one
update.  That is a full copy only while every field is an immutable scalar,
so these tests pin the shape of the three records and name the encoder or
rebuild to update when a field of another shape is added.
"""

import dataclasses
import enum
import typing

import pytest

from repro.analysis.cache import result_from_payload, result_to_payload
from repro.core.config import DsrConfig
from repro.metrics.collector import SimulationResult
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.io import scenario_to_dict

from tests.analysis.test_cache import _config, _result

_SCALARS = (bool, int, float, str, type(None))

# (record, encoder to update, fields that encoder handles by hand)
RECORDS = [
    (
        ScenarioConfig,
        "repro.scenarios.io.scenario_to_dict / scenario_from_dict",
        {"dsr": DsrConfig},
    ),
    (DsrConfig, "repro.scenarios.io.scenario_to_dict / scenario_from_dict", {}),
    (
        SimulationResult,
        "repro.analysis.cache.result_to_payload and the one-step rebuild "
        "repro.metrics.collector.SimulationResult.from_payload",
        {"drop_reasons": typing.Dict[str, int]},
    ),
]


def _is_scalar_type(hint) -> bool:
    if typing.get_origin(hint) is typing.Union:
        return all(_is_scalar_type(arg) for arg in typing.get_args(hint))
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return True
    return hint in _SCALARS


@pytest.mark.parametrize(
    ("record", "encoder", "by_hand"), RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_every_field_is_a_json_scalar(record, encoder, by_hand):
    hints = typing.get_type_hints(record)
    for field in dataclasses.fields(record):
        hint = hints[field.name]
        if field.name in by_hand:
            assert hint == by_hand[field.name], (
                f"{record.__name__}.{field.name} changed type to {hint}: "
                f"update {encoder}, which encodes it by hand"
            )
            continue
        assert _is_scalar_type(hint), (
            f"{record.__name__}.{field.name}: {hint} is not a JSON scalar or "
            f"Enum, so a shallow read no longer copies it: update {encoder} "
            "(and this test's by-hand list) to encode and copy it explicitly"
        )


def test_enum_fields_are_the_ones_the_encoder_converts():
    """``scenario_to_dict`` writes ``expiry_mode.value`` by name; another
    Enum field would reach ``json.dumps`` as an Enum and fail there."""
    hints = typing.get_type_hints(DsrConfig)
    enums = {
        name
        for name, hint in hints.items()
        if isinstance(hint, type) and issubclass(hint, enum.Enum)
    }
    assert enums == {"expiry_mode"}
    assert not any(
        isinstance(hint, type) and issubclass(hint, enum.Enum)
        for hint in typing.get_type_hints(ScenarioConfig).values()
    )


def test_scenario_payload_does_not_alias_the_config():
    config = _config()
    before = dataclasses.replace(config)
    payload = scenario_to_dict(config)
    payload["seed"] = -1
    payload["dsr"]["cache_capacity"] = -1
    payload["dsr"]["surprise"] = True
    del payload["num_nodes"]
    assert config == before
    again = scenario_to_dict(config)
    assert again is not payload and again["dsr"] is not payload["dsr"]
    assert again["seed"] == config.seed
    assert again["dsr"]["cache_capacity"] == config.dsr.cache_capacity
    assert "surprise" not in again["dsr"]


def test_result_payload_does_not_alias_the_result():
    result = _result()
    reasons = dict(result.drop_reasons)
    payload = result_to_payload(result)
    payload["data_sent"] = -1
    payload["drop_reasons"]["injected"] = 99
    payload["drop_reasons"].pop("no-route-to-salvage")
    assert result.drop_reasons == reasons
    assert result == _result()


def test_rebuilt_result_does_not_alias_its_payload():
    payload = result_to_payload(_result())
    rebuilt = result_from_payload(payload)
    payload["drop_reasons"]["injected"] = 99
    assert rebuilt == _result()


_REQUIRED = [
    field.name
    for field in dataclasses.fields(SimulationResult)
    if field.default is dataclasses.MISSING
    and field.default_factory is dataclasses.MISSING
]


def test_the_rebuild_copies_every_default_factory_field():
    """``SimulationResult.from_payload`` fills absent fields from one template
    and copies ``drop_reasons`` by name: a field with another factory would
    share the template's value between every rebuilt result."""
    factories = {
        field.name: field.default_factory
        for field in dataclasses.fields(SimulationResult)
        if field.default_factory is not dataclasses.MISSING
    }
    assert factories == {"drop_reasons": dict}, (
        f"SimulationResult default_factory fields are now {factories}: update "
        "the one-step rebuild repro.metrics.collector.SimulationResult."
        "from_payload, which copies only drop_reasons (a dict)"
    )
    empty = {name: 0 for name in _REQUIRED}
    rebuilt = result_from_payload(empty)
    assert rebuilt == SimulationResult(**empty), (
        "the one-step rebuild repro.metrics.collector.SimulationResult."
        "from_payload no longer fills the dataclass defaults"
    )
    assert result_from_payload(empty).drop_reasons is not rebuilt.drop_reasons
