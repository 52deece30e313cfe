"""hfon benchmark: closed-loop `hfon run` + `hfon clusters` workloads, measured from outside.

    python3 bench/run.py --workload group|tree|emergence|all --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from src/ next to this directory.
Each workload runs in its own fresh worker process (see worker.py), so peak
RSS is that workload's alone.  Set-up time is the median of several fresh
interpreters timed from spawn until hfon.cli is imported and the inputs are
written.  The set-up, run and clusters times reported under their metric
names are scaled to a nominal host speed by a probe timed around each spawn
and call (calibrate.py); the report also gives their wall times.  With --trace 0 the
result line carries the end-to-end metrics of BENCHMARK.json; with --trace 1
a run alternating untraced and traced passes gives the per-layer metrics
instead, and set-up is not timed.  Reports, results and spans go to
bench_out/.  The last stdout line is the result as JSON; the exit code is 0
only when every operation succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"

SETUP_SPAWNS = 9  # timed spawns per run; one more, untimed, fills the bytecode cache first
RUN_MARGIN_S = 130  # a workload run, set-up included, is killed this long after its --seconds budget


class BenchError(Exception):
    pass


def _spawn(workload: str, seed: int, seconds: int, trace: int):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # same string hashing in every worker
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--work", str(OUT / f"work-{workload}"), "--spans", str(OUT / f"spans-{workload}-seed{seed}.npz"),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline().strip()
    setup = time.perf_counter() - t0
    if ready != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {workload} failed during set-up")
    return proc, setup


def _finish(proc, command: str, timeout: float) -> str:
    try:
        out, _ = proc.communicate(command + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Time set-up over fresh interpreters, then run the workload in the last one.

    A traced run reports no set-up time, so it starts only the worker that runs.
    """
    deadline = time.monotonic() + seconds + RUN_MARGIN_S
    shutil.rmtree(OUT / f"work-{workload}", ignore_errors=True)
    spawns = 1 if trace else SETUP_SPAWNS + 1
    probe = SpeedProbe()
    setups = []  # (start, wall time) of each timed spawn
    for i in range(spawns):
        if i == 1:
            probe()
        start = time.perf_counter()
        proc, setup = _spawn(workload, seed, seconds, trace)
        if i < spawns - 1:
            _finish(proc, "quit", timeout=30)
        if i > 0:
            setups.append((start, setup))
            probe()
    try:
        out = _finish(proc, "go", timeout=deadline - time.monotonic())
    finally:
        shutil.rmtree(OUT / f"work-{workload}", ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    if not Path(result["hfon"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"worker imported hfon from {result['hfon']}, not from {SRC}")
    result["setup_s"] = [probe.scaled(start, dt) for start, dt in setups]
    result["setup_wall_s"] = [dt for _, dt in setups]
    return result


def _tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, as the report states it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples beyond it at n={n}; max {max(samples):.4f}"
    p = math.floor(100 * (1 - 10 / n))
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"p{p} {value:.4f}"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "run_s": statistics.median(result["run_s"]),
        "clusters_s": statistics.median(result["clusters_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(workload: str, result: dict, env: dict) -> list[str]:
    lines = [
        f"== {workload}: {result['passes']} passes, python {env['python']}, numpy {result['numpy']}, "
        f"{env['cpu']}, nproc {env['nproc']}, load {env['load_start']} -> {env['load_end']}",
    ]
    lines.append(
        f"times scaled to a probe of {NOMINAL_S} s; probe median {statistics.median(result['probe_s']):.4f} s, "
        f"wall-time medians in brackets"
    )
    for name, unit in (("setup_s", "fresh interpreters"), ("run_s", "passes"), ("clusters_s", "rounds")):
        samples, wall = result[name], result[name.replace("_s", "_wall_s")]
        if not samples:
            continue
        lines.append(
            f"{name:<12} {statistics.median(samples):.4f} s ({statistics.median(wall):.4f} s)   "
            f"median of {len(samples)} {unit}; {_tail(samples)}"
        )
    lines.append(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    lines.append(f"failed_frac  {result['failed'] / result['attempted']:.4f}   {result['failed']} of {result['attempted']} operations")
    lines.extend(f"FAILED {message}" for message in result["failures"])
    if "layers" in result:
        lines.extend(f"  {key:<44} {value:.6g}" for key, value in result["layers"].items())
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hfon" / "cli.py").is_file():
        print(f"error: no hfon sources at {SRC}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)

    chosen = names if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in chosen:
        env = {
            "python": platform.python_version(),
            "cpu": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "load_start": os.getloadavg(),
        }
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        env["load_end"] = os.getloadavg()
        values = {}
        if result["failed"] == 0:
            values = result["layers"] if args.trace else end_to_end(result)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted})
        attempted += result["attempted"]
        failed += result["failed"]
        lines = report(workload, result, env)
        print("\n".join(lines), flush=True)
        (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"env": env, "result": result, "metrics": values}, indent=1) + "\n", encoding="utf-8"
        )
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
