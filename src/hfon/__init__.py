"""Fuzzy opinion network simulator.

Agents hold Gaussian fuzzy opinions (center = opinion, sigma = uncertainty)
and average the opinions of whoever they find close enough.  The package
covers flat bounded-confidence networks, leader-follower groups with their
closed-form tracking predictions, top-down hierarchies of such groups, and
bottom-up emergence under falling confidence thresholds.
"""

from .errors import AddressError, ConfigurationError
from .opinions import (
    NetworkState,
    closeness_matrix,
    neighbor_mask,
)
from .engine import (
    ExternalReference,
    LeaderReference,
    LocalReference,
    PhaseSpan,
    TrajectoryRecord,
    detect_consensus_partition,
    run_bcfon,
    step_bcfon,
    steps_to_target,
)
from .leader import (
    BlfgConfig,
    ConsensusReport,
    ConvergenceConditions,
    convergence_conditions,
    detect_consensus_time,
    leader_weight_matrix,
    predict_center,
    predict_sigma_leader_ref,
    predict_sigma_limit,
    run_blfg,
    steps_to_error_fraction,
)
from .hierarchy import (
    HierarchySpec,
    run_td,
    step_td,
)
from .phases import (
    ClusterReport,
    Phase,
    PhaseSchedule,
    phase_summary,
    run_bu,
)
from .scenarios import (
    InitialSpec,
    ScenarioConfig,
    ScenarioRun,
    builtin_scenarios,
    execute_scenario,
    parse_scenario,
    ramp_initials,
)
from .output import (
    build_summary,
    read_trajectory_csv,
    write_summary_json,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AddressError",
    "BlfgConfig",
    "ClusterReport",
    "ConfigurationError",
    "ConsensusReport",
    "ExternalReference",
    "HierarchySpec",
    "InitialSpec",
    "ConvergenceConditions",
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
    "detect_consensus_partition",
    "detect_consensus_time",
    "execute_scenario",
    "convergence_conditions",
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
