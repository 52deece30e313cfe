"""Benchmark workloads: their inputs and the per-operation output checks.

A pass of a workload is its list of `hfon run` calls followed by rounds of
`hfon clusters` calls, one per trajectory written.  See README.md for why
each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the seed whose emergence outputs are pinned in golden.json; other seeds are
# checked against invariants of the dynamics instead
DEFAULT_SEED = 0

EMERGENCE_AGENTS = 1000
EMERGENCE_THRESHOLDS = (0.95, 0.7, 0.45, 0.2, 0.05)
EMERGENCE_PHASE_STEPS = 40

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[str, ...]  # built-in names; empty for a generated document
    stride: int
    # rounds of clusters calls per pass: short calls are repeated so that a
    # run holds enough samples for a steady median
    clusters_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("group", ("example1-local", "example1-leader"), stride=1, clusters_rounds=1),
        Workload(
            "tree",
            tuple(f"example2-{depth}-{scheme}" for depth in ("3level", "4level") for scheme in ("local", "leader")),
            stride=10,
            clusters_rounds=5,
        ),
        Workload("emergence", (), stride=10, clusters_rounds=20),
    )
}


def scenario_seed(seed: int) -> int:
    """The benchmark's seed as hfon accepts it: any integer maps to one in [0, 2**64)."""
    return seed % 2**64


def emergence_document(seed: int) -> dict:
    """Bottom-up scenario: uniform initials drawn by hfon from `seed`, five falling thresholds."""
    return {
        "schema_version": 1,
        "name": "emergence",
        "kind": "bottomup",
        "n": EMERGENCE_AGENTS,
        "b": 0.5,
        "phases": [{"d": d, "steps": EMERGENCE_PHASE_STEPS} for d in EMERGENCE_THRESHOLDS],
        "initial": {"centers": "uniform", "low": 5.0, "high": 25.0, "sigma": "uniform"},
        "seed": scenario_seed(seed),
    }


def prepare(workload: Workload, work_dir: Path, seed: int) -> list[tuple[str, str]]:
    """Write the workload's inputs into work_dir; returns (scenario argument, output stem) pairs."""
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload.scenarios:
        return [(name, name) for name in workload.scenarios]
    path = work_dir / "emergence.json"
    path.write_text(json.dumps(emergence_document(seed), indent=2) + "\n", encoding="utf-8")
    return [(str(path), "emergence")]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Checker:
    """Output checks for one operation at a time; each returns None or a failure message."""

    def __init__(self, work_dir: Path, seed: int):
        self.work_dir = work_dir
        self.seed = seed

    def _pins(self, stem: str) -> dict | None:
        if stem == "emergence":
            return GOLDEN.get(f"emergence-seed{self.seed}")
        return GOLDEN[stem]

    def check_run(self, stem: str) -> str | None:
        csv_path = self.work_dir / f"{stem}.trajectory.csv"
        json_path = self.work_dir / f"{stem}.summary.json"
        pins = self._pins(stem)
        if pins is not None:
            for kind, path in (("csv", csv_path), ("json", json_path)):
                if _sha256(path) != pins[kind]:
                    return f"{path.name}: sha256 differs from the pinned output"
            return None
        summary = json.loads(json_path.read_text(encoding="utf-8"))
        if summary["seed"] != scenario_seed(self.seed) or len(summary["clusters"]) != len(EMERGENCE_THRESHOLDS):
            return f"{json_path.name}: wrong seed or phase count"
        return trajectory_invariants(csv_path, EMERGENCE_AGENTS)

    def check_clusters(self, stem: str, stdout: str) -> str | None:
        pins = self._pins(stem)
        if pins is not None:
            if hashlib.sha256(stdout.encode()).hexdigest() != pins["clusters"]:
                return f"clusters {stem}: stdout differs from the pinned output"
            return None
        # the clusters command reads the final state back from the CSV, the summary's
        # last phase takes it from memory; with the same default gap they must agree,
        # and the cluster centers match bit for bit only while the CSV round-trips doubles
        summary = json.loads((self.work_dir / f"{stem}.summary.json").read_text(encoding="utf-8"))
        final = summary["clusters"][-1]
        lines = stdout.splitlines()
        head = dict(field.split("=", 1) for field in lines[0].split()) if lines else {}
        rows = [dict(field.split("=", 1) for field in line.split()) for line in lines[1:]]
        sizes = [int(row["size"]) for row in rows]
        centers = [float(row["center"]) for row in rows]
        if (head.get("t") != str(final["t_end"]) or head.get("clusters") != str(final["count"])
                or sizes != final["sizes"]):
            return f"clusters {stem}: report disagrees with the run summary"
        if centers != final["representatives"]:
            return f"clusters {stem}: cluster centers differ from the run summary's representatives"
        return None


def trajectory_invariants(csv_path: Path, n_agents: int) -> str | None:
    """Checks that hold for every bounded-confidence trajectory, read back from the CSV.

    Centers stay inside the initial hull (up to rounding of a mean, far below
    1e-9 of the range), sigmas stay finite and >= 0, and the number of distinct
    (center, sigma) states never rises, because merged agents never split.
    """
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=(0, 1, 4, 5), ndmin=2)
    if data.shape[0] == 0 or data.shape[0] % n_agents:
        return f"{csv_path.name}: {data.shape[0]} rows is not a whole number of steps"
    steps = data.shape[0] // n_agents
    t, agent, centers, sigmas = (col.reshape(steps, n_agents) for col in data.T)
    if not ((t == t[:, :1]).all() and (agent == np.arange(n_agents)).all() and (np.diff(t[:, 0]) > 0).all()):
        return f"{csv_path.name}: rows are not ordered by step and agent"
    if not (np.isfinite(centers).all() and np.isfinite(sigmas).all()):
        return f"{csv_path.name}: non-finite center or sigma"
    if (sigmas < 0.0).any():
        return f"{csv_path.name}: negative sigma"
    low, high = centers[0].min(), centers[0].max()
    slack = 1e-9 * (high - low)
    if (centers < low - slack).any() or (centers > high + slack).any():
        return f"{csv_path.name}: a center left the initial hull"
    distinct = [np.unique(np.stack([c, s], axis=1), axis=0).shape[0] for c, s in zip(centers, sigmas)]
    if any(b > a for a, b in zip(distinct, distinct[1:])):
        return f"{csv_path.name}: the distinct state count rose"
    return None
