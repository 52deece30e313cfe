"""The package's public surface.

The list is literal on purpose: adding or removing a public name must edit it.
"""

import dataclasses
import inspect

import hfon
import hfon.hierarchy

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
    "PhaseSpan",
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
    "neighbor_mask",
    "parse_scenario",
    "phase_summary",
    "predict_center",
    "predict_sigma_leader_ref",
    "predict_sigma_limit",
    "ramp_initials",
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
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 39


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
