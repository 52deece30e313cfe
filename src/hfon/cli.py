"""Command line interface: run scenarios, evaluate closed-form predictors, report clusters.

Exit codes: 0 success, 1 configuration or input error, 2 a --check comparison
failed, 3 unexpected internal failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import ConfigurationError, _integer, _number
from .engine import _default_gap
from .leader import predict_center, predict_sigma_leader_ref, predict_sigma_limit, steps_to_error_fraction
from .output import _FLOAT_FORMAT, build_summary, read_trajectory_csv, write_summary_json, write_trajectory_csv
from .phases import _cluster_report
from .scenarios import builtin_scenarios, execute_scenario, parse_scenario


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors: exit 1, not argparse's default 2
    def error(self, message):
        raise ConfigurationError(message)


# argparse reads a value that starts with "-" as an option unless it looks like -1 or -1.5, so
# main writes a float flag followed by a value such as -1e3 as --flag=-1e3 before parsing
_FLOAT_FLAGS = ("--epsilon", "--center", "--sigma", "--leader", "--b", "--gap", "--tol")


def _join_float_values(argv: list[str]) -> list[str]:
    """argv with each float flag, or a prefix of one, joined to a following value that
    starts with "-" and parses as a float."""
    out, i = [], 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--":  # everything after it is positional
            return out + argv[i:]
        float_flag = arg.startswith("--") and any(flag.startswith(arg) for flag in _FLOAT_FLAGS)
        if float_flag and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            try:
                float(argv[i + 1])
            except ValueError:
                pass
            else:
                arg, i = f"{arg}={argv[i + 1]}", i + 1
        out.append(arg)
        i += 1
    return out


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
    predict.add_argument("--t-offset", type=int, default=None, help="steps after consensus (default 0)")
    predict.set_defaults(func=_predict_command)

    clusters = sub.add_parser("clusters", help="cluster report for a trajectory file's final step")
    clusters.add_argument("trajectory", help="trajectory CSV produced by the run command")
    clusters.add_argument("--gap", type=float, default=None, help="cluster gap (default: 5%% of initial range)")
    clusters.set_defaults(func=_clusters_command)
    return parser


def _check_flags(*checks):
    """Each (flag, value, range) whose flag was given meets errors._number's range."""
    for flag, value, within in checks:
        if value is not None:
            _number(value, flag, within)


def _run_command(args) -> int:
    _integer(args.stride, "--stride", 1)
    _check_flags(("--gap", args.gap, ">= 0"), ("--tol", args.tol, ">= 0"))
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


# each optional predict flag is used only together with the flags it maps to
_PREDICT_NEEDS = {
    "--center": ("--leader",),
    "--leader": ("--center",),
    "--t-offset": ("--center", "--leader"),
    "--sigma": ("--b", "--center", "--leader"),
    "--b": ("--sigma", "--center", "--leader"),
}


def _predict_command(args) -> int:
    """Closed-form predictions only, no simulation; every flag and every prediction is checked
    before any line is printed."""
    n, center, sigma, leader, b, t = args.n, args.center, args.sigma, args.leader, args.b, args.t_offset
    _check_flags(("--epsilon", args.epsilon, "in (0, 1)"), ("--center", center, ""), ("--leader", leader, ""),
                 ("--sigma", sigma, ">= 0"), ("--b", b, "> 0"))
    if t is not None:
        _integer(t, "--t-offset", 0)
    given = {"--center": center, "--leader": leader, "--t-offset": t, "--sigma": sigma, "--b": b}
    for flag, needs in _PREDICT_NEEDS.items():
        missing = [other for other in needs if given[other] is None]
        if given[flag] is not None and missing:
            raise ConfigurationError(f"{flag} is unused without {' and '.join(missing)}")
    t = 0 if t is None else t
    given.update({"--n": n, "--epsilon": args.epsilon})
    track = ("--center", "--leader", "--n", "--t-offset")
    # (label, flags behind the value, formula); --sigma comes only with --center
    predictions = [(f"steps_to_error_fraction(n={n}, epsilon={_FLOAT_FORMAT % args.epsilon})",
                    ("--n", "--epsilon"), lambda: steps_to_error_fraction(n, args.epsilon))]
    if center is not None:
        predictions.append((f"predicted_center(t_offset={t})", track, lambda: predict_center(center, leader, n, t)))
    if sigma is not None:
        predictions += [
            (f"predicted_sigma_leader_ref(t_offset={t})", ("--sigma", "--b", *track),
             lambda: predict_sigma_leader_ref(sigma, center, leader, n, b, t)),
            ("sigma_limit", ("--sigma", "--b", *track[:3]), lambda: predict_sigma_limit(sigma, center, leader, n, b)),
        ]
    lines = []
    for label, inputs, predict in predictions:
        try:
            value = predict()
        except ArithmeticError as exc:  # the formula itself divided by zero or overflowed
            value = exc
        if isinstance(value, ArithmeticError) or not math.isfinite(value):
            used = ", ".join(f"{flag} {given[flag]!r}" for flag in inputs if given[flag] is not None)
            raise ConfigurationError(f"{label.split('(')[0]} is not finite ({value}) for {used}")
        lines.append(f"{label}: {_FLOAT_FORMAT % value}")
    print("\n".join(lines))
    return 0


def _clusters_command(args) -> int:
    _check_flags(("--gap", args.gap, ">= 0"))
    record = read_trajectory_csv(args.trajectory)
    gap = _default_gap(record) if args.gap is None else args.gap
    if not math.isfinite(gap):  # --gap is checked above, so this is the default
        raise ConfigurationError(f"the default gap, 5% of the first row's center range, is {gap!r}; set one with --gap")
    report = _cluster_report(record, -1, gap)
    print(f"t={report.t_end} clusters={report.cluster_count} gap={gap!r}")
    for center, size in zip(report.representatives, report.cluster_sizes):
        print(f"center={center!r} size={size}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_float_values(sys.argv[1:] if argv is None else list(argv)))
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigurationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
