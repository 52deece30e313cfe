"""The package's public surface.

The list is literal on purpose: adding or removing a public name must edit it.
"""

import dataclasses
import inspect
import re

import pytest

import hfon
import hfon.hierarchy
import hfon.scenarios

PUBLIC_NAMES = [
    "ClusterReport",
    "ConfigurationError",
    "ConsensusReport",
    "ConvergenceConditions",
    "ExternalReference",
    "HierarchySpec",
    "InitialSpec",
    "LeaderReference",
    "LocalReference",
    "NetworkState",
    "Phase",
    "ScenarioConfig",
    "ScenarioRun",
    "TrajectoryRecord",
    "build_summary",
    "builtin_scenarios",
    "closeness_matrix",
    "convergence_conditions",
    "detect_consensus_partition",
    "detect_consensus_time",
    "execute_scenario",
    "leader_weight_matrix",
    "parse_scenario",
    "phase_summary",
    "predict_center",
    "predict_sigma_leader_ref",
    "predict_sigma_limit",
    "read_trajectory_csv",
    "run_bcfon",
    "run_blfg",
    "run_bu",
    "run_td",
    "steps_to_error_fraction",
    "steps_to_target",
    "write_summary_json",
    "write_trajectory_csv",
]


def test_public_names_are_pinned():
    assert sorted(hfon.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 36


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(hfon, name) is not None, name


def test_engine_signatures_are_pinned():
    # each engine takes one NetworkState and only the inputs the state does not hold
    expected = {
        hfon.run_bcfon: ["initial", "steps", "scheme"],
        hfon.run_blfg: ["initial", "steps", "scheme", "leader"],
        hfon.run_td: ["spec", "initial", "steps", "scheme", "leader"],
        hfon.run_bu: ["initial", "phases"],
    }
    for engine, names in expected.items():
        assert list(inspect.signature(engine).parameters) == names, engine.__name__


def test_hierarchy_spec_holds_only_the_shape():
    # the top leader is a run input, passed as run_blfg takes a group's leader
    assert [f.name for f in dataclasses.fields(hfon.HierarchySpec)] == ["group_sizes"]
    params = ["spec", "centers", "sigmas", "d", "b", "leader", "scheme"]
    assert list(inspect.signature(hfon.hierarchy.step_td).parameters) == params


_RAMP = hfon.InitialSpec("ramp", 5.0, 25.0, 1.0)
_RECORD = hfon.run_bcfon(hfon.NetworkState([0.0, 1.0], [1.0, 1.0], 0.5, 0.3), 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: hfon.Phase(0.5, True), "phase steps must be an integer >= 0, got True"),
        (lambda tmp: hfon.HierarchySpec((True, 2)), "key 'group_sizes[0]' must be an integer >= 1, got True"),
        (lambda tmp: hfon.ScenarioConfig(name="x", kind="bcfon", initial=_RAMP, b=0.1, n=True, d=0.5, steps=2),
         "key 'n' must be an integer >= 1, got True"),
        (lambda tmp: hfon.ScenarioConfig(name="x", kind="bcfon", initial=_RAMP, b=0.1, n=2, d=0.5, steps=True),
         "key 'steps' must be an integer >= 0, got True"),
        (lambda tmp: hfon.scenarios.ramp_initials(True), "n must be an integer >= 1, got True"),
        (lambda tmp: hfon.predict_center(1.0, 0.0, True, 1), "n must be an integer >= 1, got True"),
        (lambda tmp: hfon.predict_center(1.0, 0.0, 2, True), "t_offset must be an integer >= 0, got True"),
        (lambda tmp: hfon.steps_to_error_fraction(True, 0.5), "n must be an integer >= 1, got True"),
        (lambda tmp: hfon.write_trajectory_csv(_RECORD, tmp / "run.csv", stride=True),
         "stride must be an integer >= 1, got True"),
    ],
    ids=["phase-steps", "group-size", "scenario-n", "scenario-steps", "ramp-n", "predictor-n", "predictor-t_offset",
         "error-fraction-n", "stride"],
)
def test_a_bool_is_not_a_count(tmp_path, call, message):
    # True is an int to isinstance; every count check refuses it rather than reading it as 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)


def _config(**overrides):
    values = dict(name="x", kind="blfg", initial=_RAMP, b=0.1, n=2, d=0.5, scheme="local", leader=10.0, steps=2)
    return hfon.ScenarioConfig(**{**values, **overrides})


def _initial(**overrides):
    return hfon.InitialSpec(**{"centers": "ramp", "low": 5.0, "high": 25.0, "sigma": 1.0, **overrides})


@pytest.mark.parametrize(
    "call, key",
    [
        (lambda: _config(d=True), "d"),
        (lambda: _config(b=True), "b"),
        (lambda: _config(leader=True), "leader"),
        (lambda: _config(seed=True), "seed"),
        (lambda: _config(kind=["blfg"]), "kind"),
        (lambda: _config(scheme=["local"]), "scheme"),
        (lambda: _config(d=[0.6]), "d"),
        (lambda: _config(seed="1"), "seed"),
        (lambda: _config(leader="10"), "leader"),
        (lambda: _config(name=123), "name"),
        (lambda: _initial(low=True), "initial.low"),
        (lambda: _initial(low=[5.0]), "initial.low"),
        (lambda: _initial(high="25"), "initial.high"),
        (lambda: _initial(sigma=[1.0]), "initial.sigma"),
        (lambda: _initial(sigma="x"), "initial.sigma"),
        (lambda: hfon.Phase(d=True, steps=2), "d"),
        (lambda: hfon.Phase(d="0.5", steps=2), "d"),
    ],
)
def test_public_constructors_type_their_values(call, key):
    # the document readers' checks, for a library caller: no coercion, no bare TypeError
    with pytest.raises(hfon.ConfigurationError, match=f"^key {re.escape(repr(key))} must be "):
        call()


_TOPDOWN = dict(kind="topdown", n=None)
_BOTTOMUP = dict(kind="bottomup", d=None, scheme=None, leader=None, steps=None, n=2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _config(group_sizes=3, **_TOPDOWN), "key 'group_sizes' must be a non-empty list, got 3"),
        (lambda: _config(group_sizes=(), **_TOPDOWN), "key 'group_sizes' must be a non-empty list, got ()"),
        (lambda: _config(group_sizes=[2, 0], **_TOPDOWN), "key 'group_sizes[1]' must be an integer >= 1, got 0"),
        (lambda: hfon.HierarchySpec(3), "key 'group_sizes' must be a non-empty list, got 3"),
        (lambda: hfon.HierarchySpec("22"), "key 'group_sizes' must be a non-empty list, got '22'"),
        (lambda: _config(phases=0.5, **_BOTTOMUP), "key 'phases' must be a non-empty list of Phase, got 0.5"),
        (lambda: _config(phases=(0.5,), **_BOTTOMUP), "key 'phases' must be a non-empty list of Phase, got (0.5,)"),
        (lambda: _config(phases=(), **_BOTTOMUP), "key 'phases' must be a non-empty list of Phase, got ()"),
        (lambda: _config(initial=3), "key 'initial' must be an InitialSpec, got 3"),
    ],
    ids=["sizes-int", "sizes-empty", "size-zero", "spec-int", "spec-str", "phases-float", "phases-of-floats",
         "phases-empty", "initial-int"],
)
def test_list_fields_are_refused_naming_their_key(call, message):
    # a value that is not a non-empty list of the right elements is refused at construction, not deep in a run
    with pytest.raises(hfon.ConfigurationError, match=f"^{re.escape(message)}$"):
        call()


def test_list_fields_are_stored_as_tuples():
    phases = [hfon.Phase(0.5, 2), hfon.Phase(0.2, 1)]
    tree, phased = _config(group_sizes=[2, 3], **_TOPDOWN), _config(phases=phases, **_BOTTOMUP)
    assert tree.group_sizes == (2, 3) and phased.phases == tuple(phases)
    assert hfon.HierarchySpec([2, 3]).group_sizes == (2, 3)
    assert len({tree, phased, _config(group_sizes=(2, 3), **_TOPDOWN)}) == 2  # a config is hashable and equal by value
