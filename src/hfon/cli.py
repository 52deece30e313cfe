"""Command line interface: run scenarios, evaluate closed-form predictors, report clusters.

Exit codes: 0 success, 1 configuration or input error, 2 a --check comparison
failed, 3 unexpected internal failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import AddressError, ConfigurationError
from .engine import _default_gap
from .leader import predict_center, predict_sigma_leader_ref, predict_sigma_limit, steps_to_error_fraction
from .output import build_summary, read_trajectory_csv, write_summary_json, write_trajectory_csv
from .phases import _cluster_report
from .scenarios import _SEED_LIMIT, builtin_scenarios, execute_scenario, parse_scenario


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors: exit 1, not argparse's default 2
    def error(self, message):
        raise ConfigurationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hfon", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    names = ", ".join(sorted(builtin_scenarios()))
    run = sub.add_parser("run", help="run a scenario and write trajectory + summary files")
    run.add_argument("scenario", help=f"scenario file path or built-in name ({names})")
    run.add_argument("--seed", type=int, default=None, help="64-bit seed override for random initials")
    run.add_argument("--out", default=".", help="output directory (created if missing)")
    run.add_argument("--stride", type=int, default=1, help="keep every k-th step in the CSV")
    run.add_argument("--gap", type=float, default=None, help="cluster gap override for reports")
    run.add_argument("--tol", type=float, default=None, help="consensus detection tolerance override")
    run.add_argument("--check", action="store_true", help="exit 2 when a predictor check fails")
    run.set_defaults(func=_run_command)

    predict = sub.add_parser("predict", help="evaluate the closed-form tracking predictions")
    predict.add_argument("--n", type=int, required=True, help="follower count")
    predict.add_argument("--epsilon", type=float, required=True, help="target error fraction in (0, 1)")
    predict.add_argument("--center", type=float, default=None, help="common center at consensus")
    predict.add_argument("--sigma", type=float, default=None, help="common sigma at consensus")
    predict.add_argument("--leader", type=float, default=None, help="constant leader center")
    predict.add_argument("--b", type=float, default=None, help="uncertainty gain")
    predict.add_argument("--t-offset", type=int, default=0, help="steps after consensus")
    predict.set_defaults(func=_predict_command)

    clusters = sub.add_parser("clusters", help="cluster report for a trajectory file's final step")
    clusters.add_argument("trajectory", help="trajectory CSV produced by the run command")
    clusters.add_argument("--gap", type=float, default=None, help="cluster gap (default: 5%% of initial range)")
    clusters.set_defaults(func=_clusters_command)
    return parser


def _check_nonnegative(value: float | None, flag: str):
    if value is not None and not (math.isfinite(value) and value >= 0.0):
        raise ConfigurationError(f"{flag} must be finite and >= 0, got {value!r}")


def _run_command(args) -> int:
    if args.seed is not None and not 0 <= args.seed < _SEED_LIMIT:
        raise ConfigurationError("--seed must fit in 64 bits")
    if args.stride < 1:
        raise ConfigurationError("--stride must be >= 1")
    _check_nonnegative(args.gap, "--gap")
    _check_nonnegative(args.tol, "--tol")
    config = parse_scenario(args.scenario)
    run = execute_scenario(config, seed=args.seed)
    summary = build_summary(run, gap=args.gap, tol=args.tol)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.name}.trajectory.csv"
    json_path = out_dir / f"{config.name}.summary.json"
    write_trajectory_csv(run.record, csv_path, stride=args.stride)
    try:
        write_summary_json(summary, json_path)
    except BaseException:
        csv_path.unlink(missing_ok=True)  # a trajectory without its summary is no run's output
        raise
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    failed = [c for c in summary["predictor_checks"] if not c["pass"]]
    if args.check and failed:
        for c in failed:
            print(
                f"check failed: {c['name']} expected={c['expected']!r} "
                f"actual={c['actual']!r} tolerance={c['tolerance']!r}",
                file=sys.stderr,
            )
        return 2
    return 0


def _fmt(x: float) -> str:
    return "%.17g" % x


def _predict_command(args) -> int:
    """Closed-form predictions only, no simulation."""
    n, center, sigma, leader, b, t = args.n, args.center, args.sigma, args.leader, args.b, args.t_offset
    print(f"steps_to_error_fraction(n={n}, epsilon={_fmt(args.epsilon)}): "
          f"{_fmt(steps_to_error_fraction(n, args.epsilon))}")
    if center is not None and leader is not None:
        print(f"predicted_center(t_offset={t}): {_fmt(predict_center(center, leader, n, t))}")
        if sigma is not None and b is not None:
            print(f"predicted_sigma_leader_ref(t_offset={t}): "
                  f"{_fmt(predict_sigma_leader_ref(sigma, center, leader, n, b, t))}")
            print(f"sigma_limit: {_fmt(predict_sigma_limit(sigma, center, leader, n, b))}")
    return 0


def _clusters_command(args) -> int:
    _check_nonnegative(args.gap, "--gap")
    record = read_trajectory_csv(args.trajectory)
    gap = _default_gap(record) if args.gap is None else args.gap
    report = _cluster_report(record, -1, gap)
    print(f"t={report.t_end} clusters={report.cluster_count} gap={gap!r}")
    for center, size in zip(report.representatives, report.cluster_sizes):
        print(f"center={center!r} size={size}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigurationError, AddressError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
