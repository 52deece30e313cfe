"""The benchmark tracer wraps module attributes by name (bench/tracing.py TARGETS).

Each name must still resolve, and the engines must still call the step
functions through those module globals, or a traced run silently reports 0.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from hfon.cli import main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    # read the literal from the source: nothing under bench/ is imported or written
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


TARGETS = _targets()

SCENARIOS = {
    "group": {"kind": "blfg", "n": 3, "steps": 4, "d": 0.6, "scheme": "local", "leader": 10.0},
    "tree": {"kind": "topdown", "group_sizes": [2, 2], "steps": 3, "d": 0.6, "scheme": "leader",
             "leader": 10.0},
    "phased": {"kind": "bottomup", "n": 4, "phases": [{"d": 0.9, "steps": 2}, {"d": 0.1, "steps": 3}]},
}

# calls per target over the three runs above and one `clusters` call
EXPECTED_CALLS = {
    ("hfon.cli", "parse_scenario"): 3,
    ("hfon.cli", "execute_scenario"): 3,
    ("hfon.cli", "write_trajectory_csv"): 3,
    ("hfon.cli", "build_summary"): 3,
    ("hfon.cli", "write_summary_json"): 3,
    ("hfon.cli", "read_trajectory_csv"): 1,
    ("hfon.leader", "step_blfg"): 4,
    ("hfon.leader", "group_update"): 4,
    ("hfon.hierarchy", "step_td"): 3,
    ("hfon.hierarchy", "group_update"): 3,  # one call per distinct group size
    ("hfon.phases", "step_bcfon"): 2,  # each phase's first step is a fixed point, so the rest are copied
    ("hfon.scenarios", "run_bu"): 1,
}


@pytest.mark.parametrize("module, attr", TARGETS)
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_engines_call_through_the_traced_names(tmp_path, monkeypatch):
    calls = dict.fromkeys(TARGETS, 0)
    for module, attr in TARGETS:
        original = getattr(importlib.import_module(module), attr)

        def counted(*args, _key=(module, attr), _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module(module), attr, counted)
    for name, doc in SCENARIOS.items():
        doc = {"schema_version": 1, "name": name, "b": 0.01, **doc,
               "initial": {"centers": "ramp", "low": 5.0, "high": 25.0, "sigma": 1.0}}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert main(["clusters", str(tmp_path / "out" / "phased.trajectory.csv")]) == 0
    assert {key: calls[key] for key in EXPECTED_CALLS} == EXPECTED_CALLS
