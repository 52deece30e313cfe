"""Outside-in layer tracing for the benchmark.

The tracer replaces module-level names that hfon looks up at call time with
wrappers that record a span (name, start, end, parent) per call.  No program
file changes: installing patches the module attributes, uninstalling puts the
originals back.  Spans live in flat arrays in memory and are written out once
the run ends.  Everything derived from the spans (self time, percentiles,
work counts) is computed after a pass, outside the timed path.
"""

from __future__ import annotations

import importlib
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (module, attribute) pairs the program resolves when it calls them.  A
# function imported into several modules is wrapped at each lookup site.
TARGETS = (
    ("hfon.cli", "parse_scenario"),
    ("hfon.cli", "execute_scenario"),
    ("hfon.cli", "write_trajectory_csv"),
    ("hfon.cli", "build_summary"),
    ("hfon.cli", "write_summary_json"),
    ("hfon.cli", "read_trajectory_csv"),
    ("hfon.engine", "neighbor_mask"),
    ("hfon.leader", "neighbor_mask"),
    ("hfon.leader", "group_update"),
    ("hfon.hierarchy", "group_update"),
    ("hfon.leader", "step_blfg"),
    ("hfon.hierarchy", "step_td"),
    ("hfon.phases", "step_bcfon"),
    ("hfon.scenarios", "run_bu"),
)


def _span_name(fn) -> str:
    """Layer-qualified name: the defining module without the package prefix."""
    return f"{fn.__module__.removeprefix('hfon.')}.{fn.__qualname__}"


# What a span keeps beyond its timing, taken from (args, result) after the
# span has closed.  Kernel inputs are never mutated by the program (each step
# builds a new state), so keeping references is safe.
_KEEP = {
    "opinions.neighbor_mask": lambda args, result: (args[0], args[1]),
    "scenarios.execute_scenario": lambda args, result: result.record.centers.shape,
    "output.write_trajectory_csv": lambda args, result: Path(args[1]),
    "output.read_trajectory_csv": lambda args, result: Path(args[0]),
}


class Tracer:
    """Span recorder for one process; install() before a traced pass, uninstall() after."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.kept: list[tuple[int, object]] = []  # (span index, kept value)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        keep = _KEEP.get(name)
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if keep is not None:
                self.kept.append((idx, keep(args, result)))
            return result

        return traced

    def install(self):
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(_span_name(original), original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __len__(self):
        return len(self.start)

    def write(self, path: Path):
        """All spans of the run: names table plus per-span name id, parent, start, end (ns)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

    def pass_layers(self, lo: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded from index lo on (one traced pass).

        Consumes the values kept during that pass.
        """
        hi = len(self)
        # slicing copies, so the arrays stay free to grow while these views exist
        name_id = np.frombuffer(self.name_id[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int64)
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.int64)
               - np.frombuffer(self.start[lo:hi], dtype=np.int64)).astype(np.float64) * 1e-9
        nested = parent >= lo
        # children run one at a time on one thread, so the time they cover is their sum
        child = np.bincount(parent[nested] - lo, weights=dur[nested], minlength=hi - lo)
        self_time = dur - child
        layers = {}

        for name in ("cli.main", "scenarios.parse_scenario", "scenarios.execute_scenario",
                     "output.write_trajectory_csv", "output.read_trajectory_csv",
                     "output.build_summary", "output.write_summary_json",
                     "opinions.neighbor_mask", "leader.group_update", "leader.step_blfg",
                     "hierarchy.step_td", "engine.step_bcfon", "phases.run_bu"):
            sel = name_id == self._name_ids.get(name, -1)
            us = dur[sel] * 1e6
            layers[f"{name}.calls"] = int(sel.sum())
            layers[f"{name}.s"] = float(dur[sel].sum())
            layers[f"{name}.self_s"] = float(self_time[sel].sum())
            layers[f"{name}.us_p50"] = float(np.percentile(us, 50)) if us.size else 0.0
            layers[f"{name}.us_p99"] = float(np.percentile(us, 99)) if us.size else 0.0

        kept = [(i - lo, v) for i, v in self.kept]
        self.kept.clear()
        group_update = self._name_ids.get("leader.group_update", -1)
        pairs = useful = consensus_calls = group_calls = 0
        agent_steps = 0
        written: list[Path] = []
        read: list[Path] = []
        for i, value in kept:
            name = self.names[name_id[i]]
            if name == "opinions.neighbor_mask":
                centers, sigmas = value
                k = centers.shape[0]
                distinct = len(set(zip(centers.tolist(), sigmas.tolist())))
                pairs += k * k
                useful += distinct * distinct
                p = parent[i]
                if p >= lo and name_id[p - lo] == group_update:
                    group_calls += 1
                    consensus_calls += distinct == 1
            elif name == "scenarios.execute_scenario":
                samples, agents = value
                agent_steps += (samples - 1) * agents
            elif name == "output.write_trajectory_csv":
                written.append(value)
            else:
                read.append(value)

        mask_s = layers["opinions.neighbor_mask.s"]
        layers["opinions.neighbor_mask.pairs"] = pairs
        layers["opinions.neighbor_mask.ns_per_pair"] = mask_s * 1e9 / pairs if pairs else 0.0
        layers["opinions.useful_pair_ratio"] = useful / pairs if pairs else 0.0
        layers["leader.post_consensus_step_share"] = consensus_calls / group_calls if group_calls else 0.0
        run_s = layers["scenarios.execute_scenario.s"]
        layers["scenarios.agent_steps_per_s"] = agent_steps / run_s if run_s else 0.0
        rows_written = sum(_data_rows(p) for p in written)
        rows_read = sum(_data_rows(p) for p in read)
        write_s = layers["output.write_trajectory_csv.s"]
        read_s = layers["output.read_trajectory_csv.s"]
        layers["output.write_trajectory_csv.rows"] = rows_written
        layers["output.write_trajectory_csv.bytes"] = sum(p.stat().st_size for p in written)
        layers["output.write_trajectory_csv.rows_per_s"] = rows_written / write_s if write_s else 0.0
        layers["output.read_trajectory_csv.rows_per_s"] = rows_read / read_s if read_s else 0.0
        return layers


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
