"""The scenario document layer: one key tuple, one shape check, one reader table."""

from dataclasses import fields

import pytest

from hfon import ConfigurationError, ScenarioConfig
from hfon.scenarios import _KEYS, _READERS, _scenario_from_dict


def test_key_tuple_names_exactly_the_config_fields():
    assert len(_KEYS) == len(set(_KEYS))
    assert set(_KEYS) == {f.name for f in fields(ScenarioConfig)}


def test_reader_table_covers_every_optional_key():
    # name, kind, b and initial keep their own rules: a null name or b is an error, not an absent key
    assert set(_READERS) == set(_KEYS) - {"name", "kind", "b", "initial"}


_INITIAL = {"centers": "ramp", "low": 5.0, "high": 25.0, "sigma": 1.0}


@pytest.mark.parametrize("doc, message", [
    ([], "scenario document must be a JSON object"),
    ({"zz": 1, "aa": 2, "schema_version": 2}, "unknown scenario key 'aa'"),
    ({"schema_version": 2}, "key 'schema_version' must be 1, got 2"),
    ({"initial": _INITIAL}, "key 'schema_version' must be 1, got None"),
    ({"schema_version": 1}, "scenario is missing key 'kind'"),
    ({"schema_version": 1, "kind": "bcfon"}, "scenario is missing key 'initial'"),
    ({"schema_version": 1, "kind": "bcfon", "initial": [1]}, "key 'initial' must be an object"),
    ({"schema_version": 1, "kind": "bcfon", "initial": {"x": 1}}, "unknown initial key 'x'"),
    ({"schema_version": 1, "kind": "bcfon", "initial": {"sigma": 1.0}}, "initial is missing key 'centers'"),
])
def test_shape_refusals_in_order(doc, message):
    # an unknown key first, then schema_version, then the missing keys in their listed order
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        _scenario_from_dict(doc, "fallback")
