"""Trajectory CSV round trips, summary JSON structure, predictor check plumbing."""

import json
import tracemalloc

import numpy as np
import pytest

import hfon.output
from hfon import (
    BlfgConfig,
    HierarchySpec,
    InitialSpec,
    LeaderReference,
    LocalReference,
    NetworkState,
    Phase,
    ScenarioConfig,
    ScenarioRun,
    TrajectoryRecord,
    build_summary,
    detect_consensus_time,
    execute_scenario,
    read_trajectory_csv,
    run_bcfon,
    run_blfg,
    run_td,
    write_summary_json,
    write_trajectory_csv,
)

SUMMARY_KEYS = [
    "schema_version",
    "scenario",
    "seed",
    "consensus",
    "predictor_checks",
    "clusters",
    "steps_to_target",
]


def small_group_config(scheme="local", steps=25):
    # n=2 fully connected from the start (d = 0); consensus lands off the leader,
    # so the gap-ratio comparison is non-trivial
    return ScenarioConfig(
        name="pair",
        kind="blfg",
        n=2,
        steps=steps,
        d=0.0,
        b=0.01,
        scheme=scheme,
        leader=10.0,
        initial=InitialSpec(centers="ramp", low=4.0, high=17.0, sigma=1.0),
    )


def pair_run(scheme="local", steps=25):
    config = small_group_config(scheme, steps)
    state = NetworkState([4.0, 17.0], [1.0, 1.0], 0.0, 0.01)
    group = BlfgConfig(
        n=2,
        d=0.0,
        b=0.01,
        scheme=LocalReference() if scheme == "local" else LeaderReference(),
        leader=10.0,
    )
    record = run_blfg(state, group, steps)
    return ScenarioRun(config=config, seed=None, record=record, initial=state)


class TestTrajectoryCsv:
    def test_flat_round_trip(self, tmp_path):
        record = run_bcfon(NetworkState([0.0, 1.0, 5.0], [1.0, 0.5, 2.0], 0.5, 0.3), 6)
        path = tmp_path / "flat.csv"
        write_trajectory_csv(record, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.times, record.times)
        assert np.array_equal(back.centers, record.centers)  # 17 digits round-trip exactly
        assert np.array_equal(back.sigmas, record.sigmas)
        assert back.levels is None

    def test_header_and_line_endings(self, tmp_path):
        record = run_bcfon(NetworkState([1.0], [1.0], 0.5, 0.3), 1)
        path = tmp_path / "one.csv"
        write_trajectory_csv(record, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "t,agent,level,group,center,sigma"
        assert lines[1].startswith("0,0,,,")  # flat runs leave level/group empty

    def test_hierarchical_round_trip(self, tmp_path):
        spec = HierarchySpec((2, 2), 10.0)
        state = NetworkState([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 6, 0.0, 0.1)
        record = run_td(spec, state, 3, LocalReference())
        path = tmp_path / "tree.csv"
        write_trajectory_csv(record, path)
        back = read_trajectory_csv(path)
        assert back.levels.tolist() == record.levels.tolist()
        assert back.groups.tolist() == record.groups.tolist()
        assert np.array_equal(back.centers, record.centers)

    def test_stride_keeps_last_row(self, tmp_path):
        record = run_bcfon(NetworkState([0.0, 1.0], [1.0, 1.0], 0.5, 0.3), 10)
        path = tmp_path / "strided.csv"
        write_trajectory_csv(record, path, stride=4)
        back = read_trajectory_csv(path)
        assert back.times.tolist() == [0, 4, 8, 10]
        with pytest.raises(ValueError):
            write_trajectory_csv(record, path, stride=0)

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        record = run_bcfon(NetworkState([0.0, 1.0], [1.0, 1.0], 0.5, 0.3), 10)
        path = tmp_path / "run.csv"
        path.write_bytes(b"earlier run\n")
        writes = []

        class FullDisk:
            """The file being written, failing its third write: the header, one block, then this."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, text):
                writes.append(text)
                if len(writes) == 3:
                    raise OSError(28, "No space left on device")
                return self.fh.write(text)

        # two steps of two agents per block, so the 11 steps take six blocks
        monkeypatch.setattr(hfon.output, "_BLOCK_ROWS", 4)
        monkeypatch.setattr(hfon.output, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
        with pytest.raises(OSError):
            write_trajectory_csv(record, path)
        assert writes[1].count("\n") == 4
        assert path.read_bytes() == b"earlier run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]
        monkeypatch.undo()
        write_trajectory_csv(record, path)
        assert np.array_equal(read_trajectory_csv(path).centers, record.centers)
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]

    @pytest.mark.parametrize("shape, message", [((0, 3), "record has no steps"), ((4, 0), "record has no agents")])
    def test_empty_record_is_refused_before_any_file(self, tmp_path, shape, message):
        record = TrajectoryRecord(times=np.arange(shape[0]), centers=np.zeros(shape), sigmas=np.zeros(shape))
        with pytest.raises(ValueError, match=message):
            write_trajectory_csv(record, tmp_path / "empty.csv")
        assert list(tmp_path.iterdir()) == []

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        # every (center, sigma) distinct, so each row is formatted on its own; tracing makes
        # formatting about ten times slower, so the steps double from 750 to 1500, not from 1500
        rng = np.random.default_rng(0)
        peaks = []
        for rows in (751, 1501):
            record = TrajectoryRecord(
                times=np.arange(rows), centers=rng.normal(size=(rows, 156)), sigmas=rng.uniform(size=(rows, 156))
            )
            tracemalloc.start()
            try:
                write_trajectory_csv(record, tmp_path / "distinct.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 16 * 2**20
        assert peaks[1] <= 1.1 * peaks[0]

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_trajectory_csv(path)

    def test_read_rejects_gaps(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text(
            "t,agent,level,group,center,sigma\n"
            "0,0,,,1.0,1.0\n0,1,,,2.0,1.0\n1,0,,,1.5,1.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="missing"):
            read_trajectory_csv(path)

    def test_read_rejects_noncontiguous_agents(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text(
            "t,agent,level,group,center,sigma\n0,0,,,1.0,1.0\n0,2,,,2.0,1.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="contiguous"):
            read_trajectory_csv(path)

    def test_read_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,agent,level,group,center,sigma\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_trajectory_csv(path)


class TestExactConsensusIndex:
    """detect_consensus_time at tol 0 finds the first row of exact, lasting agreement."""

    def test_finds_first_row(self):
        record = TrajectoryRecord(
            times=np.arange(3),
            centers=np.array([[0.0, 1.0], [2.0, 2.0], [2.0, 2.0]]),
            sigmas=np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]),
        )
        assert detect_consensus_time(record, 0.0).t_consensus == 1
        # a difference of one ulp is no exact consensus
        record.centers[1, 1] = np.nextafter(2.0, 3.0)
        assert detect_consensus_time(record, 0.0).t_consensus == 2

    def test_requires_sigmas_too(self):
        record = TrajectoryRecord(
            times=np.arange(2),
            centers=np.array([[2.0, 2.0], [2.0, 2.0]]),
            sigmas=np.array([[1.0, 3.0], [1.0, 3.0]]),
        )
        assert detect_consensus_time(record, 0.0) is None


class TestBuildSummary:
    def test_blfg_summary(self):
        run = pair_run("local")
        summary = build_summary(run)
        assert list(summary) == SUMMARY_KEYS
        assert summary["schema_version"] == 1
        assert summary["scenario"]["kind"] == "blfg"
        assert summary["clusters"] is None
        assert summary["consensus"]["t_N"] == 1
        names = [c["name"] for c in summary["predictor_checks"]]
        assert names == ["center_gap_ratio", "sigma_constant_after_consensus"]
        assert all(c["pass"] for c in summary["predictor_checks"])
        # spread0 = 13, so the target window is 0.13 wide
        assert summary["steps_to_target"] == 4

    def test_blfg_summary_leader_scheme(self):
        run = pair_run("leader")
        summary = build_summary(run)
        names = [c["name"] for c in summary["predictor_checks"]]
        assert names == ["center_gap_ratio", "sigma_geometric_sum"]
        assert all(c["pass"] for c in summary["predictor_checks"])

    def test_bcfon_summary(self):
        config = ScenarioConfig(
            name="flat", kind="bcfon", n=4, steps=3, d=0.8, b=0.2,
            initial=InitialSpec("ramp", 0.0, 1.0, 1.0),
        )
        summary = build_summary(execute_scenario(config))
        assert summary["consensus"] is None
        assert summary["predictor_checks"] == []
        assert len(summary["clusters"]) == 1
        assert summary["clusters"][0]["t_end"] == 3

    def test_bottomup_summary(self):
        config = ScenarioConfig(
            name="phased", kind="bottomup", n=4, b=0.2,
            phases=(Phase(0.8, 2), Phase(0.0, 2)),
            initial=InitialSpec("ramp", 0.0, 10.0, 1.0),
        )
        summary = build_summary(execute_scenario(config))
        assert [c["phase"] for c in summary["clusters"]] == [0, 1]
        assert summary["clusters"][1]["t_end"] == 4

    def test_topdown_summary(self):
        config = ScenarioConfig(
            name="tree", kind="topdown", group_sizes=(5, 5), steps=300,
            d=0.6, b=0.01, scheme="local", leader=10.0,
            initial=InitialSpec("ramp", 5.0, 25.0, 1.0),
        )
        summary = build_summary(execute_scenario(config))
        names = [c["name"] for c in summary["predictor_checks"]]
        assert names == [
            "top_group_center_gap_ratio",
            "top_group_sigma_constant_after_consensus",
            "max_group_sigma_spread_final",
        ]
        assert all(c["pass"] for c in summary["predictor_checks"])
        assert summary["steps_to_target"] is not None

    def test_summary_json_bytes_are_stable(self, tmp_path):
        summary = build_summary(pair_run("local"))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_summary_json(summary, a)
        write_summary_json(summary, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")
        assert json.loads(a.read_text(encoding="utf-8"))["seed"] is None

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(b"{}\n")
        with pytest.raises(TypeError):
            write_summary_json({"seed": object()}, path)
        assert path.read_bytes() == b"{}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]



class TestPredictionLines:
    """The predict command's text lines; which lines appear depends on the inputs given."""

    def test_formula_only(self, capsys):
        from hfon import steps_to_error_fraction
        from hfon.cli import main

        # without consensus inputs only the formula line is printed
        assert main(["predict", "--n", "156", "--epsilon", "0.01"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert ("%.17g" % steps_to_error_fraction(156, 0.01)) in lines[0]

    def test_full_output(self, capsys):
        from hfon.cli import main

        # without --sigma and --b only the center line follows the formula line
        assert main(["predict", "--n", "12", "--epsilon", "0.01", "--center", "15",
                     "--leader", "10", "--t-offset", "30"]) == 0
        assert [line.split("(")[0] for line in capsys.readouterr().out.strip().splitlines()] == [
            "steps_to_error_fraction", "predicted_center"]
        assert main(["predict", "--n", "12", "--epsilon", "0.01", "--center", "15", "--sigma", "1",
                     "--leader", "10", "--b", "0.01", "--t-offset", "30"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("predicted_center")
        assert lines[2].startswith("predicted_sigma_leader_ref")
        assert lines[3].startswith("sigma_limit")
