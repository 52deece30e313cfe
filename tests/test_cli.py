"""CLI behavior: run/predict/clusters, flags, exit codes, file outputs."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hfon.cli
from hfon import predict_center, predict_sigma_leader_ref, predict_sigma_limit, steps_to_error_fraction
from hfon.cli import main


def scenario_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "tiny",
        "kind": "blfg",
        "n": 3,
        "steps": 8,
        "d": 0.6,
        "b": 0.01,
        "scheme": "local",
        "leader": 10.0,
        "initial": {"centers": "ramp", "low": 5.0, "high": 25.0, "sigma": 1.0},
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def seeded_doc():
    return scenario_doc(
        name="seeded",
        kind="bcfon",
        n=15,
        steps=20,
        d=0.5,
        b=0.3,
        scheme=None,
        leader=None,
        seed=11,
        initial={"centers": "uniform", "low": 5.0, "high": 25.0, "sigma": "uniform"},
    )


def drop_nones(doc):
    return {k: v for k, v in doc.items() if v is not None}


class TestRunCommand:
    def test_writes_both_files(self, tmp_path, capsys):
        src = write_doc(tmp_path, scenario_doc())
        out = tmp_path / "out"
        assert main(["run", src, "--out", str(out)]) == 0
        csv_path = out / "tiny.trajectory.csv"
        json_path = out / "tiny.summary.json"
        assert csv_path.is_file() and json_path.is_file()
        printed = capsys.readouterr().out
        assert str(csv_path) in printed and str(json_path) in printed
        summary = json.loads(json_path.read_text(encoding="utf-8"))
        assert summary["scenario"]["name"] == "tiny"
        assert summary["scenario"]["kind"] == "blfg"

    def test_creates_nested_out_dir(self, tmp_path):
        src = write_doc(tmp_path, scenario_doc())
        out = tmp_path / "a" / "b" / "c"
        assert main(["run", src, "--out", str(out)]) == 0
        assert (out / "tiny.trajectory.csv").is_file()

    def test_stride_thins_trajectory(self, tmp_path):
        src = write_doc(tmp_path, scenario_doc(steps=10, n=2))
        out1, out2 = tmp_path / "full", tmp_path / "thin"
        assert main(["run", src, "--out", str(out1)]) == 0
        assert main(["run", src, "--out", str(out2), "--stride", "4"]) == 0
        full = (out1 / "tiny.trajectory.csv").read_text().splitlines()
        thin = (out2 / "tiny.trajectory.csv").read_text().splitlines()
        assert len(full) == 1 + 11 * 2
        assert len(thin) == 1 + 4 * 2  # t = 0, 4, 8 plus the final step 10

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_bad_stride_rejected_before_simulating(self, tmp_path, monkeypatch, capsys, stride):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before checking --stride")

        monkeypatch.setattr(hfon.cli, "execute_scenario", no_run)
        out = tmp_path / "never"
        assert main(["run", "example1-local", "--out", str(out), "--stride", stride]) == 1
        assert not out.exists()
        assert "--stride" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,flag", [("example1-local", "--gap"), ("example1-leader", "--tol"), ("example3", "--gap")]
    )
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_gap_or_tol_rejected_before_simulating(self, tmp_path, monkeypatch, capsys, name, flag, value):
        def no_run(*args, **kwargs):
            raise AssertionError(f"simulated before checking {flag}")

        monkeypatch.setattr(hfon.cli, "execute_scenario", no_run)
        out = tmp_path / "never"
        assert main(["run", name, "--out", str(out), flag, value]) == 1
        assert not out.exists()
        assert f"{flag} must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gap", "--tol"])
    def test_negative_exponent_value_meets_the_range_check(self, tmp_path, capsys, flag):
        assert main(["run", "example3", "--out", str(tmp_path / "never"), flag, "-1e3"]) == 1
        assert not (tmp_path / "never").exists()
        assert f"{flag} must be finite and >= 0, got -1000.0" in capsys.readouterr().err

    def test_zero_gap_and_tol_accepted(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", write_doc(tmp_path, scenario_doc()), "--out", str(out), "--gap", "0", "--tol", "0"]) == 0
        assert (out / "tiny.summary.json").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        src = write_doc(tmp_path, drop_nones(seeded_doc()))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", src, "--out", str(out1)]) == 0
        assert main(["run", src, "--out", str(out2)]) == 0
        for name in ("seeded.trajectory.csv", "seeded.summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_overrides_file(self, tmp_path):
        src = write_doc(tmp_path, drop_nones(seeded_doc()))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", src, "--out", str(out1), "--seed", "99"]) == 0
        assert main(["run", src, "--out", str(out2)]) == 0
        assert (out1 / "seeded.trajectory.csv").read_bytes() != (
            out2 / "seeded.trajectory.csv"
        ).read_bytes()
        summary = json.loads((out1 / "seeded.summary.json").read_text(encoding="utf-8"))
        assert summary["seed"] == 99

    def test_oversized_seed_rejected(self, tmp_path, capsys):
        src = write_doc(tmp_path, drop_nones(seeded_doc()))
        assert main(["run", src, "--seed", str(2**64), "--out", str(tmp_path / "x")]) == 1
        assert "64" in capsys.readouterr().err

    def test_invalid_scenario_leaves_no_files(self, tmp_path, capsys):
        src = write_doc(tmp_path, scenario_doc(kind="mesh"))
        out = tmp_path / "never"
        assert main(["run", src, "--out", str(out)]) == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
            (b'{"schema_version": 1, "d": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
            (b'{"schema_version": 1, "name": "caf\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
        ],
        ids=["deep", "digits", "latin-1"],
    )
    def test_unreadable_json_names_the_file(self, tmp_path, capsys, text, message):
        src = tmp_path / "scenario.json"
        src.write_bytes(text)
        out = tmp_path / "out"
        assert main(["run", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario file {src} is not valid JSON: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "", ".hidden", "/abs"])
    def test_name_must_be_a_plain_stem(self, tmp_path, monkeypatch, capsys, name):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated a scenario whose name escapes --out")

        monkeypatch.setattr(hfon.cli, "execute_scenario", no_run)
        src = write_doc(tmp_path, scenario_doc(name=name))
        out = tmp_path / "out" / "inner"
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", src, "--out", str(out)]) == 1
        assert "plain file stem" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before  # nothing written anywhere

    @pytest.mark.parametrize(
        "key, value",
        [("n", True), ("n", 3.0), ("steps", 2.7), ("steps", "8"), ("seed", False), ("seed", 1.5)],
    )
    def test_integer_keys_are_strict(self, tmp_path, capsys, key, value):
        src = write_doc(tmp_path, scenario_doc(**{key: value}))
        out = tmp_path / "out"
        assert main(["run", src, "--out", str(out)]) == 1
        bound = {"n": " >= 1", "steps": " >= 0", "seed": ""}[key]
        assert f"key '{key}' must be an integer{bound}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("b", True, "key 'b' must be a number, got True"),
            ("leader", "10", "key 'leader' must be a number, got '10'"),
            ("steps", 10**12, "(steps + 1) x agents = 3000000000003 recorded values"),
            ("seed", -1, "key 'seed' must lie in [0, 2**64), got -1"),
            ("seed", 2**70, "key 'seed' must lie in [0, 2**64), got 1180591620717411303424"),
            ("n", -1, "key 'n' must be an integer >= 1, got -1"),
            ("group_sizes", [2, 2], "scenario kind 'blfg' does not read key 'group_sizes'"),
            ("phases", [{"d": 0.5, "steps": 2}], "scenario kind 'blfg' does not read key 'phases'"),
        ],
    )
    def test_rejected_before_simulating(self, tmp_path, monkeypatch, capsys, key, value, message):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated a scenario that should have been rejected")

        monkeypatch.setattr(hfon.cli, "execute_scenario", no_run)
        src = write_doc(tmp_path, scenario_doc(**{key: value}))
        out = tmp_path / "out"
        assert main(["run", src, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"b": 1e308, "d": 0.0},
            {"kind": "bcfon", "d": 0.0, "scheme": None, "leader": None,
             "initial": {"centers": "ramp", "low": 1e308, "high": 1.7e308, "sigma": 1.0}},
        ],
        ids=["blfg-huge-b", "bcfon-huge-centers"],
    )
    def test_overflow_names_the_step(self, tmp_path, capsys, overrides):
        src = write_doc(tmp_path, drop_nones(scenario_doc(**overrides)))
        out = tmp_path / "out"
        assert main(["run", src, "--out", str(out)]) == 1
        assert "error: step 0 -> 1 overflowed: a center or sigma is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "centers, n, seed, high, message",
        [
            ("ramp", 3, None, 1e308, "initial range from -1e+308 to 1e+308 is too wide: high - low overflows"),
            ("uniform", 3, 1, 1e308, "initial range from -1e+308 to 1e+308 is too wide: high - low overflows"),
            ("uniform", 1, 1, 1e308, "initial range from -1e+308 to 1e+308 is too wide: high - low overflows"),
            # high - low is finite, but the ramp multiplies it by n - 1 = 2 before it divides
            ("ramp", 3, None, 8e307, "initial range from -8e+307 to 8e+307 is too wide for a ramp of 3 agents: "
             "(high - low) * (n - 1) overflows"),
        ],
        ids=["ramp-3-None", "uniform-3-1", "uniform-1-1", "ramp-3-None-times-n-minus-1"],
    )
    def test_initial_range_past_float_range_is_refused(self, tmp_path, capsys, centers, n, seed, high, message):
        # named before numpy would warn (ramp) or raise OverflowError (uniform)
        initial = {"centers": centers, "low": -high, "high": high, "sigma": 1.0}
        src = write_doc(tmp_path, drop_nones(scenario_doc(n=n, seed=seed, initial=initial)))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", src, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_one_agent_ramp_on_a_range_past_float_range_runs(self, tmp_path, capsys):
        # a single ramp agent sits at low and never computes high - low
        initial = {"centers": "ramp", "low": -1e308, "high": 1e308, "sigma": 1.0}
        src = write_doc(tmp_path, scenario_doc(n=1, initial=initial))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", src, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kind", ["blfg", "topdown"])
    @pytest.mark.parametrize("leader, literal", [(float("nan"), "NaN"), (float("inf"), "Infinity"),
                                                 (-float("inf"), "-Infinity")])
    def test_non_finite_leader_refused(self, tmp_path, capsys, kind, leader, literal):
        overrides = {"leader": leader}
        if kind == "topdown":
            overrides.update(kind="topdown", n=None, group_sizes=[2, 2])
        src = write_doc(tmp_path, drop_nones(scenario_doc(**overrides)))
        assert f'"leader": {literal}' in Path(src).read_text()
        out = tmp_path / "out"
        assert main(["run", src, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: key 'leader' must be finite, got {leader!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, literal, message", [
        ("d", "1.5", "key 'd' must be finite and in [0, 1], got 1.5"),
        ("b", "0", "key 'b' must be finite and > 0, got 0"),
        ("leader", "1e999", "key 'leader' must be finite, got inf"),
    ])
    def test_out_of_range_number_names_its_key(self, tmp_path, capsys, key, literal, message):
        src = tmp_path / "scenario.json"
        src.write_text(json.dumps(scenario_doc(**{key: "VALUE"})).replace('"VALUE"', literal), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_builtin_name(self, tmp_path, capsys):
        assert main(["run", "example9", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "example9" in err

    def test_unwritable_out(self, tmp_path):
        src = write_doc(tmp_path, scenario_doc())
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        assert main(["run", src, "--out", str(blocker / "sub")]) == 1

    def test_failed_summary_write_leaves_no_files(self, tmp_path, capsys, monkeypatch):
        src = write_doc(tmp_path, scenario_doc())

        def full_disk(summary, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(hfon.cli, "write_summary_json", full_disk)
        out = tmp_path / "out"
        assert main(["run", src, "--out", str(out)]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_summary_built_before_writing(self, tmp_path, capsys, monkeypatch):
        src = write_doc(tmp_path, scenario_doc())

        def bad_summary(run, gap=None, tol=None):
            raise ValueError("no summary")

        monkeypatch.setattr(hfon.cli, "build_summary", bad_summary)
        out = tmp_path / "out"
        assert main(["run", src, "--out", str(out)]) == 1
        assert "no summary" in capsys.readouterr().err
        assert not out.exists()

    def test_check_flag_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        src = write_doc(tmp_path, scenario_doc())

        def fake_summary(run, gap=None, tol=None):
            return {
                "schema_version": 1,
                "scenario": run.config.echo(),
                "seed": run.seed,
                "consensus": None,
                "predictor_checks": [
                    {"name": "x", "expected": 1.0, "actual": 2.0, "tolerance": 0.1, "pass": False}
                ],
                "clusters": None,
                "steps_to_target": None,
            }

        monkeypatch.setattr(hfon.cli, "build_summary", fake_summary)
        assert main(["run", src, "--out", str(tmp_path / "o1"), "--check"]) == 2
        assert "check failed: x" in capsys.readouterr().err
        # without --check the same failure is reported in the file but exits 0
        assert main(["run", src, "--out", str(tmp_path / "o2")]) == 0

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        src = write_doc(tmp_path, scenario_doc())

        def boom(config, seed=None):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(hfon.cli, "execute_scenario", boom)
        assert main(["run", src, "--out", str(tmp_path / "o")]) == 3
        assert "internal error" in capsys.readouterr().err


class TestPredictCommand:
    def test_formula_output(self, capsys):
        assert main(["predict", "--n", "156", "--epsilon", "0.01"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert out[0].endswith("%.17g" % steps_to_error_fraction(156, 0.01))

    def test_consensus_inputs_add_lines(self, capsys):
        code = main(
            [
                "predict", "--n", "12", "--epsilon", "0.01", "--center", "15",
                "--sigma", "1", "--leader", "10", "--b", "0.01", "--t-offset", "30",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        fmt = "%.17g"
        assert lines == [
            f"steps_to_error_fraction(n=12, epsilon={fmt % 0.01}): {fmt % steps_to_error_fraction(12, 0.01)}",
            f"predicted_center(t_offset=30): {fmt % predict_center(15.0, 10.0, 12, 30)}",
            "predicted_sigma_leader_ref(t_offset=30): "
            f"{fmt % predict_sigma_leader_ref(1.0, 15.0, 10.0, 12, 0.01, 30)}",
            f"sigma_limit: {fmt % predict_sigma_limit(1.0, 15.0, 10.0, 12, 0.01)}",
        ]
        assert float(lines[3].split(": ")[1]) == 1.65

    def test_bad_epsilon(self, capsys):
        assert main(["predict", "--n", "5", "--epsilon", "1.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["predict", "--epsilon", "0.5"]) == 1

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--center", "nan", "--leader", "10", "--sigma", "-1", "--b", "-3"], "--center"),
            (["--center", "15", "--leader", "inf"], "--leader"),
            (["--center", "15", "--leader", "10", "--sigma", "-1", "--b", "0.01"], "--sigma"),
            (["--center", "15", "--leader", "10", "--sigma", "nan", "--b", "0.01"], "--sigma"),
            (["--center", "15", "--leader", "10", "--sigma", "1", "--b", "-3"], "--b"),
            (["--center", "15", "--leader", "10", "--sigma", "1", "--b", "0"], "--b"),
            (["--center", "15", "--leader", "10", "--sigma", "1", "--b", "inf"], "--b"),
            (["--center", "15", "--leader", "10", "--t-offset", "-1"], "--t-offset"),
            (["--t-offset", "-1"], "--t-offset"),
            (["--t-offset", "3"], "--t-offset"),
            (["--center", "15"], "--center"),
            (["--leader", "10"], "--leader"),
            (["--center", "15", "--leader", "10", "--sigma", "1"], "--sigma"),
            (["--center", "15", "--leader", "10", "--b", "0.01"], "--b"),
            (["--sigma", "1", "--b", "0.01"], "--sigma"),
        ],
    )
    def test_bad_flags_refused_before_any_output(self, capsys, flags, named):
        # every flag is checked before the first line: a bad or unused one prints nothing
        assert main(["predict", "--n", "5", "--epsilon", "0.1", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named} ")


    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--center", "1e308", "--leader=-1e308", "--sigma", "1", "--b", "1e300"],
             "predicted_center is not finite (inf) for --center 1e+308, --leader -1e+308, --n 5"),
            (["--center", "1", "--leader", "-1e300", "--sigma", "1e308", "--b", "1e10", "--t-offset", "3"],
             "predicted_sigma_leader_ref is not finite (inf) for --sigma 1e+308, --b 10000000000.0, "
             "--center 1.0, --leader -1e+300, --n 5, --t-offset 3\n"),
            # at t_offset 0 the sigma is still the consensus sigma; only its limit overflows
            (["--center", "1", "--leader", "-1e300", "--sigma", "1.7e308", "--b", "1e7"],
             "sigma_limit is not finite (inf) for --sigma 1.7e+308, --b 10000000.0, "
             "--center 1.0, --leader -1e+300, --n 5\n"),
        ],
    )
    def test_non_finite_prediction_refused_before_any_output(self, capsys, flags, named):
        assert main(["predict", "--n", "5", "--epsilon", "0.1", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named}")

    def test_formula_that_divides_by_zero_refused(self, capsys):
        # log(n) - log(n + 1) rounds to 0 for n past 2**53
        assert main(["predict", "--n", str(10**20), "--epsilon", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n = {10**20} is too large: log(n) - log(n + 1) rounds to 0\n"

    @pytest.mark.parametrize("flag, value, other", [
        ("--center", "-1e3", ["--leader", "10"]),
        ("--leader", "-1e3", ["--center", "10"]),
        ("--leader", "-2.5E-1", ["--center", "10"]),
        ("--cent", "-1e3", ["--leader", "10"]),  # argparse takes a unique prefix for the flag
    ])
    def test_negative_values_in_exponent_form(self, capsys, flag, value, other):
        assert main(["predict", "--n", "5", "--epsilon", "0.1", flag, value, *other]) == 0
        joined = capsys.readouterr().out
        assert main(["predict", "--n", "5", "--epsilon", "0.1", f"{flag}={value}", *other]) == 0
        assert capsys.readouterr().out == joined
        assert "predicted_center(t_offset=0)" in joined

    @pytest.mark.parametrize("flags, message", [
        (["--center", "1", "--leader", "2", "--b", "1", "--sigma", "-1e-3"], "--sigma must be finite and >= 0"),
        (["--center", "1", "--leader", "2", "--sigma", "1", "--b", "-1e-3"], "--b must be finite and > 0"),
        (["--epsilon", "-1e-3"], "epsilon must be finite and in (0, 1), got -0.001"),
        (["--center", "-inf", "--leader", "2"], "--center must be finite"),
    ])
    def test_negative_exponent_values_meet_their_range_check(self, capsys, flags, message):
        assert main(["predict", "--n", "5", "--epsilon", "0.1", *flags]) == 1
        assert message in capsys.readouterr().err


class TestClustersCommand:
    def test_reports_final_step(self, tmp_path, capsys):
        src = write_doc(tmp_path, scenario_doc())
        out = tmp_path / "out"
        assert main(["run", src, "--out", str(out)]) == 0
        capsys.readouterr()
        traj = str(out / "tiny.trajectory.csv")
        assert main(["clusters", traj]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head.startswith("t=8 clusters=")

    def test_gap_override(self, tmp_path, capsys):
        src = write_doc(tmp_path, scenario_doc())
        out = tmp_path / "out"
        main(["run", src, "--out", str(out)])
        capsys.readouterr()
        traj = str(out / "tiny.trajectory.csv")
        assert main(["clusters", traj, "--gap", "1000"]) == 0
        assert "clusters=1" in capsys.readouterr().out.splitlines()[0]

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_gap_rejected_before_reading(self, tmp_path, monkeypatch, capsys, value):
        def no_read(*args, **kwargs):
            raise AssertionError("read the trajectory before checking --gap")

        monkeypatch.setattr(hfon.cli, "read_trajectory_csv", no_read)
        assert main(["clusters", str(tmp_path / "nope.csv"), "--gap", value]) == 1
        assert "--gap must be finite and >= 0" in capsys.readouterr().err

    def test_negative_exponent_gap_meets_the_range_check(self, tmp_path, capsys):
        assert main(["clusters", str(tmp_path / "nope.csv"), "--gap", "-1E-3"]) == 1
        assert capsys.readouterr().err == "error: --gap must be finite and >= 0, got -0.001\n"

    def test_values_after_a_double_dash_stay_positional(self, capsys):
        # only the value of a float flag is joined; after -- every token is positional
        assert main(["clusters", "--gap", "--", "-1e3"]) == 1
        assert "argument --gap: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("width", [3, 7])
    def test_row_width_is_input_error(self, tmp_path, capsys, width):
        src = write_doc(tmp_path, scenario_doc())
        out = tmp_path / "out"
        assert main(["run", src, "--out", str(out)]) == 0
        capsys.readouterr()
        traj = out / "tiny.trajectory.csv"
        lines = traj.read_text().splitlines()
        lines[5] = ",".join((lines[5].split(",") + ["1.0"])[:width])
        traj.write_text("\n".join(lines) + "\n")
        assert main(["clusters", str(traj)]) == 1
        assert f"line 6: expected 6 fields, got {width}" in capsys.readouterr().err

    def test_over_long_field_is_input_error(self, tmp_path, capsys):
        traj = tmp_path / "wide.csv"
        traj.write_bytes(b"t,agent,level,group,center,sigma\n0,0,,,1,1\n0,1,,," + b"9" * 10**7 + b",1\n")
        assert main(["clusters", str(traj)]) == 1
        assert "line 3, field 5: 10000000 bytes, more than the 64" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, gap", [
        (b"0,0,,,inf,1.0\n", "nan"),
        (b"0,0,,,1e308,1\n0,1,,,0,1\n0,2,,,-1e308,1\n", "inf"),  # finite centers whose range overflows
    ])
    def test_a_non_finite_default_gap_is_named(self, tmp_path, capsys, rows, gap):
        # the reader accepts infinite centers; a range that is not finite gives no default gap
        traj = tmp_path / "inf.csv"
        traj.write_bytes(b"t,agent,level,group,center,sigma\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["clusters", str(traj)]) == 1
        assert capsys.readouterr().err == (
            f"error: the default gap, 5% of the first row's center range, is {gap}; set one with --gap\n"
        )
        assert main(["clusters", str(traj), "--gap", "0.5"]) == 0
        assert capsys.readouterr().out.startswith("t=0 clusters=")

    def test_a_gap_past_float_range_splits_without_a_warning(self, tmp_path, capsys):
        # the sorted gap 1e308 - -1e308 overflows to inf, which is greater than any finite gap
        traj = tmp_path / "wide.csv"
        traj.write_bytes(b"t,agent,level,group,center,sigma\n0,0,,,1e308,1\n0,1,,,-1e308,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["clusters", str(traj), "--gap", "0.5"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "t=0 clusters=2 gap=0.5\ncenter=-1e+308 size=1\ncenter=1e+308 size=1\n"
        assert captured.err == ""

    def test_missing_trajectory(self, tmp_path, capsys):
        assert main(["clusters", str(tmp_path / "nope.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestParsing:
    def test_no_command_is_config_error(self):
        assert main([]) == 1

    def test_unknown_flag(self, tmp_path):
        src = write_doc(tmp_path, scenario_doc())
        assert main(["run", src, "--frobnicate"]) == 1

    @pytest.mark.parametrize("module", ["hfon", "hfon.cli"])
    def test_python_dash_m(self, tmp_path, module):
        src = str(Path(hfon.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        bad = subprocess.run(
            [sys.executable, "-m", module, "run", "example1-leader", "--tol", "nan", "--out", str(tmp_path / "bad")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert bad.returncode == 1
        assert "--tol must be finite" in bad.stderr
        assert not (tmp_path / "bad").exists()
        ok = subprocess.run(
            [sys.executable, "-m", module, "run", "example1-leader", "--out", str(tmp_path / "ok"), "--stride", "100"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert ok.returncode == 0, ok.stderr
        assert (tmp_path / "ok" / "example1-leader.summary.json").is_file()

    def test_console_main_raises_system_exit(self, monkeypatch, capsys):
        import sys

        monkeypatch.setattr(sys, "argv", ["hfon"])
        with pytest.raises(SystemExit) as info:
            hfon.cli.console_main()
        assert info.value.code == 1
