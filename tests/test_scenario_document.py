"""The scenario document layer: one key tuple, one shape check, one list reader."""

import copy
import re
from dataclasses import fields

import pytest

from hfon import ConfigurationError, HierarchySpec, Phase, ScenarioConfig
from hfon.scenarios import _KEYS, _scenario_from_dict


def test_key_tuple_names_exactly_the_config_fields():
    assert len(_KEYS) == len(set(_KEYS))
    assert set(_KEYS) == {f.name for f in fields(ScenarioConfig)}


_INITIAL = {"centers": "ramp", "low": 5.0, "high": 25.0, "sigma": 1.0}


@pytest.mark.parametrize("doc, message", [
    ([], "scenario document must be a JSON object"),
    ({"zz": 1, "aa": 2, "schema_version": 2}, "unknown scenario key 'aa'"),
    ({"schema_version": 2}, "key 'schema_version' must be 1, got 2"),
    ({"schema_version": True}, "key 'schema_version' must be 1, got True"),
    ({"schema_version": 1.0}, r"key 'schema_version' must be 1, got 1\.0"),
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


_BLFG = {"schema_version": 1, "kind": "blfg", "n": 3, "steps": 2, "d": 0.6, "b": 0.01,
         "scheme": "local", "leader": 10.0, "initial": _INITIAL}
_BOTTOMUP = {"schema_version": 1, "kind": "bottomup", "n": 3, "b": 0.5,
             "phases": [{"d": 0.5, "steps": 2}], "initial": _INITIAL}
_TOPDOWN = {key: value for key, value in _BLFG.items() if key != "n"} | {"kind": "topdown", "group_sizes": [2, 3]}


def test_the_reader_decodes_only_the_phase_rows():
    # group sizes reach HierarchySpec as the document has them, so a document and a library call
    # get one refusal; phase rows become Phases, each value named by its place
    with pytest.raises(ConfigurationError) as from_document:
        _scenario_from_dict({**_TOPDOWN, "group_sizes": [2, 0]}, "fallback")
    with pytest.raises(ConfigurationError) as from_library:
        HierarchySpec([2, 0])
    assert str(from_document.value) == str(from_library.value) == "key 'group_sizes[1]' must be an integer >= 1, got 0"
    assert _scenario_from_dict(_TOPDOWN, "fallback").group_sizes == (2, 3)
    assert _scenario_from_dict(_BOTTOMUP, "fallback").phases == (Phase(0.5, 2),)


@pytest.mark.parametrize("phases, message", [
    (0.5, "key 'phases' must be a non-empty list of Phase, got 0.5"),
    ([], r"key 'phases' must be a non-empty list of Phase, got \[\]"),
    ([0.5], r"key 'phases\[0\]' must be an object"),
    ([{"d": 0.5, "steps": 2}, {"d": 0.5}], r"phases\[1\] is missing key 'steps'"),
    ([{"d": 0.5, "steps": 2, "t": 0}], r"unknown phases\[0\] key 't'"),
    ([{"d": "x", "steps": 2}, {"d": 0.5}], r"phases\[1\] is missing key 'steps'"),  # every row's shape first
], ids=["number", "empty", "number-row", "missing", "unknown", "shape-before-value"])
def test_phase_rows_are_refused_naming_their_place(phases, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        _scenario_from_dict({**_BOTTOMUP, "phases": phases}, "fallback")


_NUMBER_KEYS = ("d", "b", "leader", "initial.low", "initial.high", "initial.sigma", "phases[0].d")
_WRONG_NUMBERS = {"list": [1.0], "object": {}, "1e400": 10**400}
_WRONG_STRINGS = {"list": ["blfg"], "object": {}}


@pytest.mark.parametrize("key, value", [
    *(pytest.param(key, value, id=f"{key}-{what}") for key in _NUMBER_KEYS for what, value in _WRONG_NUMBERS.items()),
    *(pytest.param(key, value, id=f"{key}-{what}") for key in ("name", "kind", "scheme")
      for what, value in _WRONG_STRINGS.items()),
])
def test_each_reader_refuses_wrong_json_types_naming_its_key(key, value):
    doc = copy.deepcopy(_BOTTOMUP if key.startswith("phases") else _BLFG)
    *path, last = key.replace("[0]", ".0").split(".")
    target = doc
    for step in path:
        target = target[int(step) if step.isdigit() else step]
    target[last] = value
    with pytest.raises(ConfigurationError, match=f"^key {re.escape(repr(key))} must be a "):
        _scenario_from_dict(doc, "fallback")
