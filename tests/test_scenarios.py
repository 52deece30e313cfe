"""Scenario configs: initials, validation, JSON files, built-ins, execution dispatch."""

import dataclasses
import json
import re
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfon import (
    ConfigurationError,
    HierarchySpec,
    InitialSpec,
    Phase,
    ScenarioConfig,
    build_summary,
    builtin_scenarios,
    execute_scenario,
    parse_scenario,
)
from hfon.scenarios import _scenario_from_dict, ramp_initials

BUILTIN_NAMES = [
    "example1-leader",
    "example1-local",
    "example2-3level-leader",
    "example2-3level-local",
    "example2-4level-leader",
    "example2-4level-local",
    "example3",
]


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def small_blfg_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "small",
        "kind": "blfg",
        "n": 3,
        "steps": 2,
        "d": 0.6,
        "b": 0.01,
        "scheme": "local",
        "leader": 10.0,
        "initial": {"centers": "ramp", "low": 5.0, "high": 25.0, "sigma": 1.0},
    }
    doc.update(overrides)
    return doc


# a small valid value for each key a kind reads besides name, kind, initial, b and seed
_KIND_FIELDS = {
    "blfg": dict(n=3, d=0.6, scheme="local", leader=10.0, steps=2),
    "bcfon": dict(n=3, d=0.6, steps=2),
    "topdown": dict(group_sizes=(2, 2), d=0.6, scheme="local", leader=10.0, steps=2),
    "bottomup": dict(n=3, phases=(Phase(0.5, 2),)),
}


class TestInitials:
    def test_ramp_endpoints_and_spot_values(self):
        x = ramp_initials(156)
        assert x[0] == 5.0
        assert x[1] == 5.129032258064516
        assert x[41] == 10.29032258064516
        assert x[155] == 25.0

    def test_ramp_small_counts(self):
        assert ramp_initials(1).tolist() == [5.0]
        assert ramp_initials(2).tolist() == [5.0, 25.0]
        assert ramp_initials(3, low=0.0, high=1.0).tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(ConfigurationError):
            ramp_initials(0)

    def test_seeded_reproducible(self):
        spec = InitialSpec("uniform", 5.0, 25.0, "uniform")
        c1, s1 = spec.build(50, 123)
        c2, s2 = spec.build(50, 123)
        assert np.array_equal(c1, c2)
        assert np.array_equal(s1, s2)
        c3, _ = spec.build(50, 124)
        assert not np.array_equal(c1, c3)

    def test_seeded_ranges(self):
        centers, sigmas = InitialSpec("uniform", 5.0, 25.0, "uniform").build(500, 0)
        assert centers.min() >= 5.0 and centers.max() <= 25.0
        assert sigmas.min() > 0.0 and sigmas.max() < 1.0


class TestInitialSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InitialSpec(centers="linspace", low=0, high=1, sigma=1.0)
        with pytest.raises(ConfigurationError):
            InitialSpec(centers="ramp", low=2.0, high=1.0, sigma=1.0)
        with pytest.raises(ConfigurationError):
            InitialSpec(centers="ramp", low=0.0, high=1.0, sigma=-1.0)
        with pytest.raises(ConfigurationError):
            InitialSpec(centers="ramp", low=0.0, high=1.0, sigma="gaussian")

    def test_needs_seed(self):
        assert not InitialSpec("ramp", 5.0, 25.0, 1.0).needs_seed
        assert InitialSpec("ramp", 5.0, 25.0, "uniform").needs_seed
        assert InitialSpec("uniform", 5.0, 25.0, 1.0).needs_seed

    def test_deterministic_spec_ignores_seed(self):
        centers, sigmas = InitialSpec("ramp", 5.0, 25.0, 1.0).build(4, None)
        assert centers.tolist() == ramp_initials(4).tolist()
        assert sigmas.tolist() == [1.0] * 4

    def test_seed_required_for_random_parts(self):
        with pytest.raises(ConfigurationError):
            InitialSpec("uniform", 5.0, 25.0, 1.0).build(4, None)

    def test_draw_order_matches_seeded_initials(self):
        # uniform centers then uniform sigmas, one generator, ascending ids
        centers, sigmas = InitialSpec("uniform", 5.0, 25.0, "uniform").build(30, 77)
        rng = np.random.default_rng(77)
        assert np.array_equal(centers, rng.uniform(5.0, 25.0, 30))
        assert np.array_equal(sigmas, rng.uniform(0.0, 1.0, 30))

    def test_ramp_with_seeded_sigmas(self):
        centers, sigmas = InitialSpec("ramp", 5.0, 25.0, "uniform").build(8, 5)
        assert np.array_equal(centers, ramp_initials(8))
        assert np.array_equal(sigmas, np.random.default_rng(5).uniform(0.0, 1.0, 8))


class TestScenarioConfig:
    def test_missing_key_is_named(self):
        with pytest.raises(ConfigurationError, match="'steps'"):
            ScenarioConfig(
                name="x",
                kind="blfg",
                initial=InitialSpec("ramp", 5, 25, 1.0),
                b=0.01,
                n=3,
                d=0.6,
                scheme="local",
                leader=10.0,
            )

    def test_rejects_unknown_kind_and_scheme(self):
        init = InitialSpec("ramp", 5, 25, 1.0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(name="x", kind="mesh", initial=init, b=0.1)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(
                name="x", kind="blfg", initial=init, b=0.1, n=3, d=0.6,
                scheme="external", leader=10.0, steps=5,
            )

    def test_flat_runs_are_local_only(self):
        init = InitialSpec("ramp", 5, 25, 1.0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(
                name="x", kind="bcfon", initial=init, b=0.1, n=3, d=0.6,
                steps=5, scheme="leader",
            )

    def test_requires_b(self):
        with pytest.raises(ConfigurationError, match="'b'"):
            ScenarioConfig(
                name="x", kind="bcfon", initial=InitialSpec("ramp", 5, 25, 1.0),
                b=None, n=3, d=0.6, steps=5,
            )

    @pytest.mark.parametrize("kind, extra, key", [
        ("bottomup", {"steps": 99, "d": 0.9, "scheme": "leader"}, "steps"),
        ("bottomup", {"scheme": "leader"}, "scheme"),
        ("bcfon", {"leader": 10.0, "group_sizes": (2, 2)}, "leader"),
        ("bcfon", {"group_sizes": (2, 2)}, "group_sizes"),
        ("blfg", {"phases": (Phase(0.5, 2),)}, "phases"),
        ("topdown", {"n": 3}, "n"),
    ])
    def test_keys_the_kind_never_reads_are_refused(self, kind, extra, key):
        # a key the run ignores would still be echoed in the summary as if it had been used
        reads = _KIND_FIELDS[kind]
        init = InitialSpec("ramp", 5, 25, 1.0)
        ScenarioConfig(name="x", kind=kind, initial=init, b=0.1, seed=3, **reads)
        with pytest.raises(ConfigurationError, match=rf"^scenario kind '{kind}' does not read key '{key}'$"):
            ScenarioConfig(name="x", kind=kind, initial=init, b=0.1, **{**reads, **extra})

    @pytest.mark.parametrize("n", [0, -1, -(10**20)])
    def test_agent_count_below_one_is_named(self, tmp_path, n):
        # refused before the size check and before any initials are built
        doc = {k: v for k, v in small_blfg_doc(kind="bcfon", n=n, scheme=None, leader=None).items() if v is not None}
        doc["initial"] = {"centers": "uniform", "low": 5.0, "high": 25.0, "sigma": "uniform"}
        doc["seed"] = 1
        with pytest.raises(ConfigurationError, match=rf"^key 'n' must be an integer >= 1, got {n}$"):
            parse_scenario(write_scenario(tmp_path, doc))

    def test_echo_key_order(self):
        scenarios = builtin_scenarios()
        assert list(scenarios["example1-local"].echo()) == [
            "schema_version", "name", "kind", "n", "steps", "d", "b", "scheme",
            "leader", "initial",
        ]
        assert list(scenarios["example3"].echo()) == [
            "schema_version", "name", "kind", "n", "b", "phases", "initial", "seed",
        ]


class TestParseScenario:
    def test_builtin_names(self):
        assert sorted(builtin_scenarios()) == BUILTIN_NAMES
        config = parse_scenario("example1-local")
        assert config.kind == "blfg"
        assert config.n == 156
        assert config.scheme == "local"

    def test_builtin_echo_round_trips(self, tmp_path):
        for name, config in builtin_scenarios().items():
            path = write_scenario(tmp_path, config.echo(), name=f"{name}.json")
            assert parse_scenario(path) == config

    def test_file_parsing(self, tmp_path):
        path = write_scenario(tmp_path, small_blfg_doc())
        config = parse_scenario(path)
        assert config.name == "small"
        assert config.steps == 2

    def test_name_falls_back_to_file_stem(self, tmp_path):
        doc = small_blfg_doc()
        del doc["name"]
        path = write_scenario(tmp_path, doc, name="renamed.json")
        assert parse_scenario(path).name == "renamed"

    def test_unknown_source(self, tmp_path):
        with pytest.raises(ConfigurationError, match="example3"):
            parse_scenario(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            parse_scenario(path)

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(extra=1), "'extra'"),
            (lambda d: d.update(schema_version=2), "'schema_version'"),
            (lambda d: d.pop("kind"), "'kind'"),
            (lambda d: d.pop("initial"), "'initial'"),
            (lambda d: d["initial"].pop("low"), "'low'"),
            (lambda d: d["initial"].update(shape=1), "'shape'"),
            (lambda d: d.update(b={}), r"key 'b' must be a number, got \{\}$"),
            (lambda d: d.update(b=True), "key 'b' must be a number, got True"),
            (lambda d: d.update(b=None), "key 'b' must be a number, got None"),
            (lambda d: d.update(d="0.6"), "key 'd' must be a number, got '0.6'"),
            (lambda d: d.update(leader="10"), "key 'leader' must be a number, got '10'"),
            (lambda d: d.update(leader=10**400),
             r"key 'leader' must be a number in double range, got 10{59}\.\.\. \(401 characters\)$"),
            (lambda d: d["initial"].update(low=False), "key 'initial.low' must be a number"),
            (lambda d: d["initial"].update(high="25"), "key 'initial.high' must be a number"),
            (lambda d: d["initial"].update(sigma=True), "key 'initial.sigma' must be a number"),
            (lambda d: d["initial"].update(sigma=None), "key 'initial.sigma' must be a number"),
            (lambda d: d.update(kind="bottomup", phases=[{"d": "0.5", "steps": 2}]),
             r"key 'phases\[0\].d' must be a number"),
            (lambda d: d.update(seed=-1), r"key 'seed' must lie in \[0, 2\*\*64\), got -1$"),
            (lambda d: d.update(seed=2**64), r"key 'seed' must lie in \[0, 2\*\*64\), got 18446744073709551616$"),
            (lambda d: d.update(seed=2**70), r"key 'seed' must lie in \[0, 2\*\*64\), got 1180591620717411303424$"),
        ],
    )
    def test_malformed_documents_name_the_problem(self, tmp_path, mutate, fragment):
        doc = small_blfg_doc()
        mutate(doc)
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ConfigurationError, match=fragment):
            parse_scenario(path)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"kind": "topdown", "group_sizes": [3, True], "n": None}, "group_sizes[1]"),
            ({"kind": "topdown", "group_sizes": [3, 2.5], "n": None}, "group_sizes[1]"),
            ({"kind": "bottomup", "phases": [{"d": 0.5, "steps": 2}, {"d": 0.2, "steps": 1.5}],
              "d": None, "steps": None}, "phases[1].steps"),
        ],
    )
    def test_integer_lists_are_strict(self, tmp_path, overrides, key):
        doc = {k: v for k, v in small_blfg_doc(**overrides).items() if v is not None}
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ConfigurationError, match=rf"key '{re.escape(key)}' must be an integer"):
            parse_scenario(path)

    def test_largest_seed_parses(self, tmp_path):
        config = parse_scenario(write_scenario(tmp_path, small_blfg_doc(seed=2**64 - 1)))
        assert config.seed == 2**64 - 1

    @pytest.mark.parametrize("name", [123, None])
    def test_name_must_be_a_string(self, tmp_path, name):
        path = write_scenario(tmp_path, small_blfg_doc(name=name))
        with pytest.raises(ConfigurationError, match="'name' must be a string"):
            parse_scenario(path)

    def test_malformed_phases(self, tmp_path):
        doc = {
            "schema_version": 1,
            "kind": "bottomup",
            "n": 4,
            "b": 0.5,
            "phases": [{"d": 0.5}],
            "initial": {"centers": "ramp", "low": 0.0, "high": 1.0, "sigma": 1.0},
        }
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ConfigurationError, match="phase"):
            parse_scenario(path)
        doc["phases"] = []
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ConfigurationError, match="phases"):
            parse_scenario(path)


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**400) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)
_KEYS = st.sampled_from(sorted(
    {"schema_version", "name", "kind", "n", "steps", "d", "b", "scheme", "leader",
     "group_sizes", "phases", "initial", "seed"}))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["blfg", "bcfon", "topdown", "bottomup"]),
    edits=st.lists(st.tuples(_KEYS, _JSON_VALUE), max_size=3),
)
def test_any_json_values_give_a_config_or_a_value_error(kind, edits):
    # ValueError covers ConfigurationError: the CLI exits 1 on both and 3 on
    # anything else, such as OverflowError from a huge integer in a float key
    doc = small_blfg_doc(kind=kind)
    for key, value in edits:
        doc[key] = value
    try:
        _scenario_from_dict(doc, "fallback")
    except ValueError:
        pass


_PYTHON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**400) | st.floats() | st.text(max_size=5)
    | st.sampled_from(["blfg", "bcfon", "topdown", "bottomup", "local", "leader", "ramp", "uniform"])
    | st.builds(Phase, st.floats(0.0, 1.0), st.integers(0, 3)),
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)
_RAMP = InitialSpec("ramp", 5.0, 25.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(_KIND_FIELDS)),
    edits=st.lists(st.tuples(st.sampled_from([f.name for f in dataclasses.fields(ScenarioConfig)]), _PYTHON_VALUE),
                   max_size=3),
    args=st.lists(_PYTHON_VALUE, min_size=4, max_size=4),
)
@example(kind="topdown", edits=[("group_sizes", 3)], args=[3, 0.5, None, None])
@example(kind="bottomup", edits=[("phases", 0.5)], args=[(), None, None, None])
@example(kind="bottomup", edits=[("phases", (0.5,))], args=[None, None, None, None])
@example(kind="bottomup", edits=[("phases", ())], args=[None, None, None, None])
@example(kind="blfg", edits=[("initial", 3)], args=[None, None, None, None])
def test_any_python_values_give_an_object_or_a_configuration_error(kind, edits, args):
    # the library side of the property above: each public constructor builds or names what it
    # refuses, and a config that builds and records at most 10^4 values runs or raises a ValueError
    for build in (HierarchySpec, Phase):
        with suppress(ConfigurationError):
            build(*args[:len(dataclasses.fields(build))])
    try:
        initial = InitialSpec(*args)
    except ConfigurationError:
        initial = _RAMP
    try:
        config = ScenarioConfig(**{"name": "x", "kind": kind, "initial": initial, "b": 0.1, **_KIND_FIELDS[kind],
                                   **dict(edits)})
    except ConfigurationError:
        return
    agents = config._spec.n_agents if config.kind == "topdown" else config.n
    steps = sum(p.steps for p in config.phases) if config.kind == "bottomup" else config.steps
    if (steps + 1) * agents <= 10**4:
        try:
            execute_scenario(config)
        except ValueError:
            pass


@pytest.mark.parametrize(
    "overrides, recorded",
    [
        ({"steps": 10**12}, 3 * (10**12 + 1)),
        ({"kind": "bcfon", "n": 1, "steps": 10**8, "scheme": None, "leader": None}, 10**8 + 1),
        ({"kind": "topdown", "group_sizes": [1000, 1000, 1000], "n": None}, 3 * (10**9 + 10**6 + 10**3)),
        ({"kind": "bottomup", "n": 10**6, "phases": [{"d": 0.5, "steps": 50}, {"d": 0.2, "steps": 50}],
          "steps": None, "d": None, "scheme": None, "leader": None}, 101 * 10**6),
    ],
)
def test_size_limit_is_checked_before_allocation(overrides, recorded):
    # only parsed, never executed: each of these would allocate gigabytes
    doc = {k: v for k, v in small_blfg_doc(**overrides).items() if v is not None}
    with pytest.raises(ConfigurationError, match=rf"\(steps \+ 1\) x agents = {recorded} "):
        _scenario_from_dict(doc, "fallback")


def test_size_limit_boundary():
    doc = small_blfg_doc(kind="bcfon", n=1, steps=10**8 - 1, scheme=None, leader=None)
    config = _scenario_from_dict({k: v for k, v in doc.items() if v is not None}, "fallback")
    assert (config.steps + 1) * config.n == 10**8


def test_huge_integer_float_key_is_malformed(tmp_path):
    path = write_scenario(tmp_path, small_blfg_doc(d=10**400))
    message = r"^key 'd' must be a number in double range, got 10{59}\.\.\. \(401 characters\)$"
    with pytest.raises(ConfigurationError, match=message):
        parse_scenario(path)


_HUGE_LIST = "[" * 900 + "]" * 900


@pytest.mark.parametrize(
    "text, key",
    [('"d": 1' + "0" * 3999, "d"), ('"leader": ' + _HUGE_LIST, "leader")],
    ids=["d-4000-digits", "leader-900-deep"],
)
def test_a_refusal_shows_a_long_value_cut_short(tmp_path, text, key):
    path = tmp_path / "long.json"
    doc = json.dumps(small_blfg_doc(**{key: 0})).replace(f'"{key}": 0', text)
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(ConfigurationError) as refused:
        parse_scenario(path)
    message = str(refused.value)
    assert message.startswith(f"key '{key}' must be a number") and len(message) < 200


def test_a_library_value_too_long_for_repr_shows_its_bit_length():
    # repr of an int past the interpreter's 4,300 digits raises ValueError, which named no key
    initial = InitialSpec("ramp", 5.0, 25.0, 1.0)
    with pytest.raises(ConfigurationError) as refused:
        ScenarioConfig(name="x", kind="bcfon", initial=initial, b=0.1, n=2, d=10**5000, steps=2)
    message = str(refused.value)
    assert message == f"key 'd' must be a number in double range, got an integer of {(10**5000).bit_length()} bits"
    assert len(message) < 200


_SEEDED = ScenarioConfig(name="x", kind="bcfon", initial=InitialSpec("uniform", 5.0, 25.0, "uniform"),
                         b=0.5, n=10, d=0.5, steps=3, seed=7)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: execute_scenario(_SEEDED, seed=True), "seed must be an integer, got True"),
        (lambda: execute_scenario(_SEEDED, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: execute_scenario(_SEEDED, seed="7"), "seed must be an integer, got '7'"),
        (lambda: execute_scenario(_SEEDED, seed=-1), "seed must lie in [0, 2**64), got -1"),
        (lambda: execute_scenario(_SEEDED, seed=2**64), f"seed must lie in [0, 2**64), got {2**64}"),
        (lambda: execute_scenario(_SEEDED, seed=2**70), f"seed must lie in [0, 2**64), got {2**70}"),
        (lambda: InitialSpec("uniform", 0.0, 1.0, 1.0).build(True, 0), "n must be an integer >= 1, got True"),
    ],
    ids=["true", "float", "string", "negative", "2**64", "2**70", "build-n-true"],
)
def test_a_caller_seed_and_n_follow_the_document_rules(call, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call()


class TestExecute:
    def test_blfg_dispatch(self, tmp_path):
        config = parse_scenario(write_scenario(tmp_path, small_blfg_doc()))
        run = execute_scenario(config)
        # ramp of 3 on [5, 25] is isolated at d = 0.6; each averages with the leader
        assert run.record.centers[0].tolist() == [5.0, 15.0, 25.0]
        assert run.record.centers[1].tolist() == [7.5, 12.5, 17.5]
        assert run.record.sigmas[1].tolist() == [1.0, 1.0, 1.0]
        assert run.seed is None
        assert run.record.levels is None

    def test_seed_argument_overrides_config(self):
        config = ScenarioConfig(
            name="x", kind="bcfon", initial=InitialSpec("uniform", 5, 25, "uniform"),
            b=0.5, n=10, d=0.5, steps=3, seed=7,
        )
        assert execute_scenario(config).seed == 7
        run = execute_scenario(config, seed=9)
        assert run.seed == 9
        rng = np.random.default_rng(9)
        assert np.array_equal(run.record.centers[0], rng.uniform(5.0, 25.0, 10))
        assert np.array_equal(run.record.sigmas[0], rng.uniform(0.0, 1.0, 10))

    def test_topdown_builds_per_group_profiles(self):
        config = ScenarioConfig(
            name="x", kind="topdown", initial=InitialSpec("ramp", 5, 25, 1.0),
            b=0.01, d=0.6, scheme="local", leader=10.0, steps=2, group_sizes=(2, 2),
        )
        run = execute_scenario(config)
        ramp2 = ramp_initials(2).tolist()
        assert run.record.centers[0].tolist() == ramp2 * 3
        assert run.record.levels.tolist() == [1, 1, 1, 1, 2, 2]

    @pytest.mark.parametrize("sizes", [(3, 1, 4, 1, 5), (2, 2, 2), (1,) * 50])
    def test_one_profile_per_distinct_group_size(self, monkeypatch, sizes):
        config = ScenarioConfig(
            name="x", kind="topdown", initial=InitialSpec("uniform", 5, 25, "uniform"),
            b=0.01, d=0.6, scheme="leader", leader=10.0, steps=0, group_sizes=sizes, seed=3,
        )
        build, built = InitialSpec.build, []
        monkeypatch.setattr(InitialSpec, "build", lambda spec, k, seed: built.append(k) or build(spec, k, seed))
        record = execute_scenario(config).record
        assert sorted(built) == sorted(set(sizes))
        # every group holds its own copy of its size's profile, agent by agent
        for level, k in enumerate(sizes, start=1):
            at = record.levels == level
            got = np.stack([record.centers[0, at], record.sigmas[0, at]]).reshape(2, -1, k)
            expected = np.broadcast_to(np.stack(build(config.initial, k, 3))[:, None, :], got.shape)
            assert got.tobytes() == expected.tobytes()

    def test_topdown_builds_its_tree_once(self, monkeypatch):
        builtin = builtin_scenarios()["example2-4level-leader"]
        post_init, built = HierarchySpec.__post_init__, []
        monkeypatch.setattr(HierarchySpec, "__post_init__", lambda spec: built.append(spec) or post_init(spec))
        build_summary(execute_scenario(dataclasses.replace(builtin)))  # size check, run and summary
        assert len(built) == 1

    def test_bottomup_dispatch(self):
        config = ScenarioConfig(
            name="x", kind="bottomup", initial=InitialSpec("ramp", 0, 10, 1.0),
            b=0.5, n=4, phases=(Phase(0.9, 2), Phase(0.1, 3)),
        )
        run = execute_scenario(config)
        assert run.record.n_samples == 6
        assert [s.d for s in run.record.phases] == [0.9, 0.1]
