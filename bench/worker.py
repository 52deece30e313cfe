"""Benchmark worker: one fresh interpreter per workload.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It imports
hfon.cli, writes the workload's inputs and prints "ready".  It then reads one
line from stdin: "go" runs the workload in a closed loop (one client, one
thread, the next call only after the previous one returned) until the time
budget is spent; anything else exits, which is how run.py times set-up alone.
Every timed call is followed by a host-speed probe (see calibrate.py), outside
the timed call.  The last line on stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import hfon.cli
import numpy as np

import workloads
from calibrate import SpeedProbe
from tracing import Tracer


def _call(main, argv) -> tuple[int, float, float, str]:
    """Exit code, start, wall time and stdout of one call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = perf_counter()
        rc = main(argv)
        dt = perf_counter() - t0
    return rc, t0, dt, out.getvalue()


class Loop:
    """Closed-loop passes over one workload with per-operation checks."""

    def __init__(self, workload, ops, work_dir: Path, checker):
        self.workload = workload
        self.ops = ops
        self.work_dir = work_dir
        self.checker = checker
        self.attempted = 0
        self.failures: list[str] = []
        self.probe = SpeedProbe()

    def _timed(self, main, argv) -> tuple[int, tuple[float, float], str]:
        """One call, then a host-speed probe: exit code, (start, wall time), stdout."""
        rc, start, dt, out = _call(main, argv)
        self.probe()
        return rc, (start, dt), out

    def _record(self, argv, rc, check, *check_args):
        self.attempted += 1
        if rc != 0:
            problem = f"exit {rc}"
        else:
            try:
                problem = check(*check_args)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is not None:
            self.failures.append(f"hfon {' '.join(argv)}: {problem}")

    def one_pass(self, main) -> dict[str, list[list[tuple[float, float]]]]:
        """Every run call, then rounds of every clusters call.

        Returns the (start, wall time) of each call: the run calls as one
        group, and each clusters round as one group.
        """
        calls = {"run": [[]], "clusters": []}
        self.probe()
        for scenario, stem in self.ops:
            argv = ["run", scenario, "--out", str(self.work_dir), "--stride", str(self.workload.stride), "--check"]
            rc, call, _ = self._timed(main, argv)
            calls["run"][0].append(call)
            self._record(argv, rc, self.checker.check_run, stem)
        for _ in range(self.workload.clusters_rounds):
            calls["clusters"].append([])
            for _, stem in self.ops:
                argv = ["clusters", str(self.work_dir / f"{stem}.trajectory.csv")]
                rc, call, out = self._timed(main, argv)
                calls["clusters"][-1].append(call)
                self._record(argv, rc, self.checker.check_clusters, stem, out)
        return calls


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    ops = workloads.prepare(workload, args.work, args.seed)
    loop = Loop(workload, ops, args.work, workloads.Checker(args.work, args.seed))
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = Tracer() if args.trace else None
    traced_main = tracer.wrap("cli.main", hfon.cli.main) if tracer is not None else None
    # a traced run alternates untraced and traced passes, so the overhead is
    # measured under the same host conditions
    min_passes = 4 if tracer is not None else 3
    calls = {False: {"run": [], "clusters": []}, True: {"run": [], "clusters": []}}
    layer_passes: list[dict] = []
    start = perf_counter()
    # the first pass in a fresh process pays for first-touch allocation and
    # lazy imports; it is checked but not timed
    loop.one_pass(hfon.cli.main)
    passes = 0
    while not loop.failures:
        traced = tracer is not None and passes % 2 == 1
        gc.collect()
        t0 = perf_counter()
        if traced:
            first_span = len(tracer)
            tracer.install()
            try:
                pass_calls = loop.one_pass(traced_main)
            finally:
                tracer.uninstall()
            layer_passes.append(tracer.pass_layers(first_span))
        else:
            pass_calls = loop.one_pass(hfon.cli.main)
        pass_s = perf_counter() - t0
        for kind, groups in pass_calls.items():
            calls[traced][kind].extend(groups)
        passes += 1
        if passes >= min_passes and perf_counter() - start + pass_s > args.seconds:
            break

    result = {
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:5],
        "passes": passes,
        **{
            f"{kind}{suffix}": [sum(time(start, dt) for start, dt in group) for group in groups]
            for kind, groups in calls[False].items()
            for suffix, time in (("_s", loop.probe.scaled), ("_wall_s", lambda start, dt: dt))
        },
        "probe_s": loop.probe.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "hfon": hfon.cli.__file__,
    }
    if layer_passes:
        # counts repeat exactly from pass to pass; times are medians over the traced passes
        layers = {
            key: (statistics.median_low if isinstance(value, int) else statistics.median)([p[key] for p in layer_passes])
            for key, value in layer_passes[0].items()
        }
        # wall times, like the span times they are read against
        untraced = statistics.median(result["run_wall_s"])
        traced_wall = [sum(dt for _, dt in group) for group in calls[True]["run"]]
        traced_run = statistics.median(traced_wall)
        layers["trace.untraced_run_s"] = untraced
        layers["trace.traced_run_s"] = traced_run
        layers["trace.overhead_s"] = traced_run - untraced
        result["layers"] = layers
        result["traced_run_wall_s"] = traced_wall
        tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
