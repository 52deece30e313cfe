"""Scenario descriptions: built-in experiments, JSON scenario files, seeded initials.

A scenario file is a JSON object with a schema_version field; unknown or
missing keys, and keys the scenario's kind does not read, are configuration
errors that name the offending key.  Built-in
scenarios cover the flat 156-follower group, its 3- and 4-level hierarchy
counterparts, and the 200-agent falling-threshold run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, _integer, _number, _shown, _string
from .engine import LeaderReference, LocalReference, TrajectoryRecord, run_bcfon
from .hierarchy import HierarchySpec, run_td
from .leader import run_blfg
from .opinions import NetworkState
from .phases import Phase, _phase_list, run_bu

SCHEMA_VERSION = 1

# largest (steps + 1) x agents a scenario may record: each of the two trajectory
# arrays then takes at most 800 MB
_MAX_RECORDED = 10**8
_SCHEMES = {"local": LocalReference(), "leader": LeaderReference()}
# the keys each kind reads besides name, kind, initial, b and seed, which every kind
# reads; all are required but a flat run's scheme, which can only be 'local'
_KIND_KEYS = {
    "blfg": ("n", "d", "scheme", "leader", "steps"),
    "bcfon": ("n", "d", "steps", "scheme"),
    "topdown": ("group_sizes", "d", "scheme", "leader", "steps"),
    "bottomup": ("n", "phases"),
}
_EVERY_KIND_KEYS = ("name", "kind", "initial", "b", "seed")
# a document's keys besides schema_version, in the order echo() writes them
_KEYS = ("name", "kind", "n", "group_sizes", "steps", "d", "b", "scheme", "leader", "phases", "initial", "seed")


def _seed(value, what: str) -> int:
    """value if it is an integer in [0, 2**64): every seed is a numpy generator seed of at most 64 bits."""
    if not 0 <= _integer(value, what) < 2**64:
        raise ConfigurationError(f"{what} must lie in [0, 2**64), got {_shown(value)}")
    return value


def ramp_initials(n: int, low: float = 5.0, high: float = 25.0) -> np.ndarray:
    """Evenly spaced centers from low to high; a single agent sits at low."""
    _integer(n, "n", 1)
    if n == 1:
        return np.array([float(low)])
    return low + (high - low) * np.arange(n, dtype=np.float64) / (n - 1)


def _positive_uniform_sigmas(rng: np.random.Generator, n: int) -> np.ndarray:
    sigmas = rng.uniform(0.0, 1.0, n)
    while True:
        zero = np.nonzero(sigmas == 0.0)[0]
        if zero.size == 0:
            return sigmas
        sigmas[zero] = rng.uniform(0.0, 1.0, zero.size)


@dataclass(frozen=True)
class InitialSpec:
    """How to build initial opinions: ramp or seeded-uniform centers, fixed or seeded sigmas."""

    centers: str  # "ramp" | "uniform"
    low: float
    high: float
    sigma: float | str  # constant value, or "uniform" for draws on (0, 1)

    def __post_init__(self):
        if self.centers not in ("ramp", "uniform"):
            raise ConfigurationError("initial centers must be 'ramp' or 'uniform'")
        for key in ("low", "high") if isinstance(self.sigma, str) else ("low", "high", "sigma"):
            within = ">= 0" if key == "sigma" else ""
            object.__setattr__(self, key, _number(getattr(self, key), f"key 'initial.{key}'", within))
        if not self.low <= self.high:
            raise ConfigurationError("initial range must satisfy low <= high")
        if isinstance(self.sigma, str) and self.sigma != "uniform":
            raise ConfigurationError(f"key 'initial.sigma' must be a number or 'uniform', got {_shown(self.sigma)}")

    @property
    def needs_seed(self) -> bool:
        return self.centers == "uniform" or self.sigma == "uniform"

    def build(self, n: int, seed: int | None):
        _integer(n, "n", 1)
        if seed is not None:
            _seed(seed, "seed")
        elif self.needs_seed:
            raise ConfigurationError("this scenario draws random initials and needs a seed")
        # one ramp agent sits at low; every other draw or ramp needs high - low in float range, and
        # a ramp multiplies it by n - 1 before it divides (the order every built-in's bits rest on)
        span = self.high - self.low
        if (n != 1 or self.centers == "uniform") and not np.isfinite(span):
            raise ConfigurationError(f"initial range from {self.low!r} to {self.high!r} is too wide: high - low overflows")
        if self.centers == "ramp" and n != 1 and not np.isfinite(span * (n - 1)):
            raise ConfigurationError(
                f"initial range from {self.low!r} to {self.high!r} is too wide for a ramp of {n} agents: "
                "(high - low) * (n - 1) overflows"
            )
        rng = np.random.default_rng(seed) if self.needs_seed else None
        if self.centers == "uniform":
            centers = rng.uniform(self.low, self.high, n)
        else:
            centers = ramp_initials(n, self.low, self.high)
        if self.sigma == "uniform":
            sigmas = _positive_uniform_sigmas(rng, n)
        else:
            sigmas = np.full(n, self.sigma)
        return centers, sigmas


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario, ready to execute."""

    name: str
    kind: str
    initial: InitialSpec
    b: float
    steps: int | None = None
    n: int | None = None
    d: float | None = None
    scheme: str | None = None
    leader: float | None = None
    group_sizes: tuple[int, ...] | None = None
    phases: tuple[Phase, ...] | None = None
    seed: int | None = None

    def __post_init__(self):
        # each value's type and range, numbers stored as floats; every kind reads name, kind and b, so
        # None is refused there as any other wrong type
        for key, read, *within in (("name", _string), ("kind", _string), ("scheme", _string), ("b", _number, "> 0"),
                                   ("d", _number, "in [0, 1]"), ("leader", _number, ""), ("seed", _seed)):
            if getattr(self, key) is not None or key in ("name", "kind", "b"):
                object.__setattr__(self, key, read(getattr(self, key), f"key {key!r}", *within))
        if not isinstance(self.initial, InitialSpec):
            raise ConfigurationError(f"key 'initial' must be an InitialSpec, got {_shown(self.initial)}")
        # the name becomes the stem of both output files, which must land inside --out
        if not self.name or self.name.startswith(".") or any(c in self.name for c in "/\\\0"):
            raise ConfigurationError(
                f"scenario name must be a plain file stem (not empty, no leading dot, "
                f"no path separator), got {_shown(self.name)}"
            )
        if self.kind not in _KIND_KEYS:
            raise ConfigurationError(f"unknown scenario kind {_shown(self.kind)}")
        reads = _KIND_KEYS[self.kind]
        for key in reads:
            if getattr(self, key) is None and (self.kind, key) != ("bcfon", "scheme"):
                raise ConfigurationError(f"scenario kind {self.kind!r} requires key {key!r}")
        for f in fields(self):
            if f.name not in reads + _EVERY_KIND_KEYS and getattr(self, f.name) is not None:
                raise ConfigurationError(f"scenario kind {self.kind!r} does not read key {f.name!r}")
        # both lists are stored as tuples; HierarchySpec types the group sizes
        if self.group_sizes is not None:
            object.__setattr__(self, "group_sizes", self._spec.group_sizes)
        if self.phases is not None:
            object.__setattr__(self, "phases", _phase_list(self.phases))
        if self.scheme is not None and self.scheme not in _SCHEMES:
            raise ConfigurationError("scheme must be 'local' or 'leader'")
        if self.kind == "bcfon" and self.scheme not in (None, "local"):
            raise ConfigurationError("flat runs support only the local scheme")
        for key, low in (("n", 1), ("steps", 0)):
            if getattr(self, key) is not None:
                _integer(getattr(self, key), f"key {key!r}", low)
        agents = self._spec.n_agents if self.kind == "topdown" else self.n
        steps = sum(p.steps for p in self.phases) if self.kind == "bottomup" else self.steps
        if (steps + 1) * agents > _MAX_RECORDED:
            raise ConfigurationError(
                f"(steps + 1) x agents = {_shown((steps + 1) * agents)} recorded values "
                f"is over the limit of {_MAX_RECORDED}"
            )

    @cached_property
    def _spec(self) -> HierarchySpec:
        """A topdown run's tree, built once for the group-size and size checks, the run and the summary."""
        return HierarchySpec(self.group_sizes)

    def echo(self) -> dict:
        """Scenario as a JSON-ready dict: its non-null keys in _KEYS order, tuples as lists."""
        values = asdict(self)
        return {"schema_version": SCHEMA_VERSION} | {
            key: list(values[key]) if isinstance(values[key], tuple) else values[key]
            for key in _KEYS if values[key] is not None
        }


@dataclass
class ScenarioRun:
    """A finished run: the scenario, the seed actually used, and the trajectory."""

    config: ScenarioConfig
    seed: int | None
    record: TrajectoryRecord


def execute_scenario(config: ScenarioConfig, seed: int | None = None) -> ScenarioRun:
    """Build the initial population and run the scenario to completion."""
    seed = config.seed if seed is None else seed
    if config.kind == "topdown":
        centers, sigmas = np.empty((2, config._spec.n_agents))
        # every group starts from its own copy of the one profile of its size
        for agents, _ in config._spec._blocks:
            centers[agents], sigmas[agents] = config.initial.build(agents.shape[1], seed)
    else:
        centers, sigmas = config.initial.build(config.n, seed)
    # a phased run replaces the state's d with each phase's
    d = config.phases[0].d if config.kind == "bottomup" else config.d
    state = NetworkState(centers, sigmas, d, config.b)
    if config.kind == "topdown":
        record = run_td(config._spec, state, config.steps, _SCHEMES[config.scheme], config.leader)
    elif config.kind == "blfg":
        record = run_blfg(state, config.steps, _SCHEMES[config.scheme], config.leader)
    elif config.kind == "bcfon":
        record = run_bcfon(state, config.steps, LocalReference())
    else:
        record = run_bu(state, config.phases)
    return ScenarioRun(config, seed, record)


# Examples 1 and 2: one ramp population led to 10.0, run as one flat group and as
# 3- and 4-level trees, each under both reference schemes
_EXAMPLE_SHAPES = (
    ("example1", dict(kind="blfg", n=156, steps=1500)),
    ("example2-3level", dict(kind="topdown", group_sizes=(12, 12), steps=800)),
    ("example2-4level", dict(kind="topdown", group_sizes=(5, 5, 5), steps=800)),
)
_RAMP = InitialSpec(centers="ramp", low=5.0, high=25.0, sigma=1.0)


def builtin_scenarios() -> dict[str, ScenarioConfig]:
    out = {
        f"{stem}-{scheme}": ScenarioConfig(
            name=f"{stem}-{scheme}", d=0.6, b=0.01, scheme=scheme, leader=10.0, initial=_RAMP, **shape
        )
        for stem, shape in _EXAMPLE_SHAPES
        for scheme in ("local", "leader")
    }
    out["example3"] = ScenarioConfig(
        name="example3",
        kind="bottomup",
        n=200,
        b=0.5,
        phases=tuple(Phase(d=d, steps=40) for d in (0.95, 0.7, 0.45, 0.2, 0.05)),
        initial=InitialSpec(centers="uniform", low=5.0, high=25.0, sigma="uniform"),
        seed=42,
    )
    return out


def _object(value, what: str, keys: tuple, required: tuple, version: int | None = None) -> dict:
    """value if it is a JSON object with no key outside keys, then (given a version) that
    schema_version, then every key in required; what names the object in each refusal."""
    if not isinstance(value, dict):
        raise ConfigurationError(
            "scenario document must be a JSON object" if what == "scenario" else f"key {what!r} must be an object"
        )
    unknown = sorted(set(value).difference(keys))
    if unknown:
        raise ConfigurationError(f"unknown {what} key {_shown(unknown[0])}")
    got = value.get("schema_version")
    if version is not None and (type(got) is not int or got != version):  # true and 1.0 equal 1 but are not it
        raise ConfigurationError(f"key 'schema_version' must be {version}, got {_shown(got)}")
    for key in required:
        if key not in value:
            raise ConfigurationError(f"{what} is missing key {key!r}")
    return value


def _phases(value):
    """A document's phase rows as Phases, naming each value by its place; any other value goes on as it is."""
    if not isinstance(value, list):
        return value
    rows = [_object(row, f"phases[{k}]", ("d", "steps"), ("d", "steps")) for k, row in enumerate(value)]
    return [Phase(d=_number(row["d"], f"key 'phases[{k}].d'", "in [0, 1]"),
                  steps=_integer(row["steps"], f"key 'phases[{k}].steps'")) for k, row in enumerate(rows)]


def _scenario_from_dict(doc: dict, fallback_name: str) -> ScenarioConfig:
    _object(doc, "scenario", _KEYS + ("schema_version",), ("kind", "initial"), SCHEMA_VERSION)
    keys = tuple(f.name for f in fields(InitialSpec))
    initial = InitialSpec(**_object(doc["initial"], "initial", keys, keys))
    # a null optional key reads as absent; name, kind and b, which every kind reads, go on as they are
    values = {key: _phases(doc[key]) if key == "phases" else doc[key] for key in _KEYS if doc.get(key) is not None}
    every = {"name": doc.get("name", fallback_name), "kind": doc["kind"], "b": doc.get("b"), "initial": initial}
    return ScenarioConfig(**values | every)


def parse_scenario(source: str | Path) -> ScenarioConfig:
    """Resolve a built-in scenario name or load and validate a JSON scenario file."""
    builtins = builtin_scenarios()
    if isinstance(source, str) and source in builtins:
        return builtins[source]
    path = Path(source)
    if not path.is_file():
        raise ConfigurationError(
            f"{source!r} is neither a built-in scenario ({', '.join(sorted(builtins))}) "
            "nor an existing scenario file"
        )
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, too many digits or not UTF-8
        raise ConfigurationError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return _scenario_from_dict(doc, fallback_name=path.stem)
