"""Every scalar number input of the library meets one rule, errors._number: a real number that is
not a bool, finite and in its range, or a ConfigurationError that names the key or argument.

The CLI's number flags call the same rule; tests/test_cli.py checks their messages."""

import json
import math
import re

import numpy as np
import pytest

from hfon import (
    ConfigurationError,
    ExternalReference,
    HierarchySpec,
    InitialSpec,
    LocalReference,
    NetworkState,
    Phase,
    ScenarioConfig,
    detect_consensus_partition,
    detect_consensus_time,
    run_bcfon,
    run_blfg,
    run_td,
    steps_to_error_fraction,
)

_STATE = NetworkState([0.0, 1.0], [1.0, 1.0], 0.5, 0.3)
_RECORD = run_bcfon(_STATE, 2)


def _config(**overrides):
    values = dict(name="x", kind="blfg", initial=InitialSpec("ramp", 5.0, 25.0, 1.0), b=0.1, n=2, d=0.5,
                  scheme="local", leader=10.0, steps=2)
    return ScenarioConfig(**{**values, **overrides})


# (site, call with the value, what the refusal names, range, a value outside the range, an accepted value)
SITES = [
    ("signal", lambda v: run_bcfon(_STATE, 1, ExternalReference(lambda t, i: v)),
     "external reference signal at (t=0, agent=0)", "", -math.inf, 3),
    ("gap", lambda v: detect_consensus_partition([0.0, 1.0], v), "gap", ">= 0", -1.0, 0),
    ("leader", lambda v: run_blfg(_STATE, 1, LocalReference(), v), "leader center", "", -math.inf, 10),
    ("moving-leader", lambda v: run_blfg(_STATE, 1, LocalReference(), lambda t: v), "leader center at t=0", "",
     -math.inf, 10),
    ("top-leader", lambda v: run_td(HierarchySpec((2,)), _STATE, 1, LocalReference(), v), "leader center", "",
     -math.inf, 10),
    ("tol", lambda v: detect_consensus_time(_RECORD, v), "tol", ">= 0", -1.0, 0),
    ("epsilon", lambda v: steps_to_error_fraction(5, v), "epsilon", "in (0, 1)", 1.0, 0.5),
    ("phase-d", lambda v: Phase(d=v, steps=1), "key 'd'", "in [0, 1]", 1.5, 1),
    ("initial-low", lambda v: InitialSpec("ramp", v, 25.0, 1.0), "key 'initial.low'", "", -math.inf, 5),
    ("initial-high", lambda v: InitialSpec("ramp", 5.0, v, 1.0), "key 'initial.high'", "", -math.inf, 25),
    ("initial-sigma", lambda v: InitialSpec("ramp", 5.0, 25.0, v), "key 'initial.sigma'", ">= 0", -1.0, 1),
    ("scenario-d", lambda v: _config(d=v), "key 'd'", "in [0, 1]", 1.5, 1),
    ("scenario-b", lambda v: _config(b=v), "key 'b'", "> 0", 0.0, 1),
    ("scenario-leader", lambda v: _config(leader=v), "key 'leader'", "", -math.inf, 10),
]


def _refusals():
    for site, call, what, within, outside, _ in SITES:
        # the constructors' type refusals are test_api.py's test_public_constructors_type_their_values
        wrong_types = () if site.startswith(("phase", "initial", "scenario")) else (True, "x", None)
        for value in (*wrong_types, math.nan, math.inf, outside):
            if value is None and site == "tol":  # None asks for the default tol
                continue
            if isinstance(value, float):
                message = f"{what} must be finite{' and ' + within if within else ''}, got {value!r}"
            else:
                message = f"{what} must be a number, got {value!r}"
            yield pytest.param(call, value, message, id=f"{site}-{value!r}")


@pytest.mark.parametrize("call, value, message", _refusals())
def test_every_number_site_refuses_naming_its_input(call, value, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call(value)


def _accepted():
    for site, call, *_, accepted in SITES:
        for kind in (np.float32, np.int64):
            if kind(accepted) == accepted:  # no integer lies in (0, 1)
                yield pytest.param(call, kind(accepted), id=f"{site}-{kind.__name__}")


@pytest.mark.parametrize("call, value", _accepted())
def test_numpy_scalars_are_numbers(call, value):
    call(value)


def test_constructors_store_numpy_scalars_as_floats():
    config = _config(d=np.float32(0.5), b=np.int64(1), leader=np.float32(10.0),
                     initial=InitialSpec("ramp", np.int64(5), np.float32(25.0), np.float32(1.0)))
    values = (config.d, config.b, config.leader, config.initial.low, config.initial.high, config.initial.sigma)
    assert [type(v) for v in values] == [float] * 6
    assert Phase(np.float32(0.5), 1) == Phase(0.5, 1) and type(Phase(np.int64(1), 1).d) is float
    assert json.loads(json.dumps(config.echo()))["b"] == 1.0
