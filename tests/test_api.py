"""The package's public surface.

The list is literal on purpose: adding or removing a public name must edit it.
"""

import hfon

PUBLIC_NAMES = [
    "AddressError",
    "BlfgConfig",
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
    "PhaseSchedule",
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
    "step_bcfon",
    "step_td",
    "steps_to_error_fraction",
    "steps_to_target",
    "write_summary_json",
    "write_trajectory_csv",
]


def test_public_names_are_pinned():
    assert sorted(hfon.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 44


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(hfon, name) is not None, name
