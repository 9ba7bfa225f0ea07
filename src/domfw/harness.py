"""Experiment orchestration: config files, seeded runs, sweeps, slope fits.

Configs are flat ``section.key = value`` text (``#`` comments allowed). The
single master seed is hashed with a role tag to derive the stream, network,
and initialization sub-seeds, so redrawing one component never disturbs the
others. Every run writes its artifacts plus a manifest, a config file that
reproduces the run bit-for-bit. This module alone writes a run's files
(``RUN_FILES``): their names, their columns, and floats as ``repr`` text,
which reads back bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import math
import platform
import sys
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .algorithm import ScheduleMode, ScheduleParams, Trajectory, inner_count, run, schedule_violations, step_size
from .network import GraphSchedule, MixingConstants, MixingReport, check_mixing, random_connected_schedule
from .problem import (
    ConstraintKind,
    ConstraintSpec,
    LossStream,
    VARIATION_SAMPLES,
    _shown,
    estimate_function_variation,
    function_variation_bound,
    generate_stream,
    problem_constants,
)
from .regret import (
    BoundReport,
    Envelopes,
    OptimumRecord,
    RegretSeries,
    RoundOptimizer,
    envelopes,
    regret_series,
    regret_upper_bound,
)


class ConfigError(ValueError):
    """Carries every violation found while parsing a config, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.violations)
        super().__init__(f"invalid config: {lines}")


def derive_seed(master: int, role: str) -> int:
    """Role-tagged 63-bit sub-seed of the master seed (SHA-256 based)."""
    digest = hashlib.sha256(f"{master}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ProblemBlock:
    n: int = 20
    T: int = 100
    d: int = 8
    lambda1: float = 5e-6
    constraint: ConstraintKind = ConstraintKind.UNIT_SIMPLEX
    radius: float = 2.0
    redraw_features: bool = False

    def spec(self) -> ConstraintSpec:
        if self.constraint is ConstraintKind.UNIT_SIMPLEX:
            return ConstraintSpec.simplex(self.d)
        return ConstraintSpec.l1_ball(self.d, self.radius)


@dataclass(frozen=True)
class NetworkBlock:
    edge_prob: float = 0.3


@dataclass(frozen=True)
class SolverBlock:
    tolerance: float = 1e-9


@dataclass(frozen=True)
class SeedsBlock:
    master: int = 0
    stream: int | None = None
    network: int | None = None
    init: int | None = None

    def stream_seed(self) -> int:
        return self.stream if self.stream is not None else derive_seed(self.master, "stream")

    def network_seed(self) -> int:
        return self.network if self.network is not None else derive_seed(self.master, "network")

    def init_seed(self) -> int:
        return self.init if self.init is not None else derive_seed(self.master, "init")


@dataclass(frozen=True)
class InitBlock:
    mode: str = "vertex"   # "vertex" or "random"


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    """A config ``domfw validate`` accepts: building one it refuses raises ``ValueError`` (:func:`_check`)."""

    problem: ProblemBlock = field(default_factory=ProblemBlock)
    network: NetworkBlock = field(default_factory=NetworkBlock)
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    solver: SolverBlock = field(default_factory=SolverBlock)
    seeds: SeedsBlock = field(default_factory=SeedsBlock)
    init: InitBlock = field(default_factory=InitBlock)
    output: OutputBlock = field(default_factory=OutputBlock)

    def __post_init__(self):
        _check(_values(self))

    def with_master_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seeds=replace(self.seeds, master=seed))


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ValueError(f"expected true/false, got {raw!r}")


#: largest accepted ``problem.T``; a run keeps its whole stream and trajectory
#: in memory but only a fixed number of n x n matrices, so the horizon's
#: memory is bounded by ``MAX_RESIDENT_BYTES`` instead
MAX_HORIZON = 1_000_000

#: largest accepted :func:`resident_bytes` estimate of a run (2 GiB)
MAX_RESIDENT_BYTES = 2 * 1024 ** 3


def resident_bytes(n: int, d: int, T: int, k_max: int, redraw_features: bool) -> int:
    """Estimated peak resident bytes of one run, from its sizes.

    Counts the interpreter with NumPy loaded (40 MiB), about 1 KiB of
    per-round records, and float64 arrays: the stream (features, noise and
    labels, each handed over without a copy), the ``(T + 1, n, d)``
    trajectory (the run's array, held without a copy), four ``(n, T)``
    regret arrays, twelve ``(K_max, n, d)`` arrays (a round's five step
    buffers plus an ``(n, d)`` scratch, the last round's iterates and the
    diagnostics' temporaries, an upper bound), twelve ``n x n`` working
    matrices (one round's weights while they are built, and the mixing
    products), and six ``(VARIATION_SAMPLES + 2 d) x n`` temporaries of the
    variation estimate (its points against every agent). Then the arrays
    that grow with ``d``, each counted in full though they do not all live
    at once: the vertex table (the l1 ball's ``2d x d``, a bound on both
    sets), four ``d x d`` arrays for ``H`` and its build temporaries, three
    ``(VARIATION_SAMPLES + 2 d) x d`` arrays for the variation estimate's
    points and their draw, and six ``(d + 1) x (d + 1)`` arrays for the active-set
    half's face of at most ``d + 1`` vertices: its ``P``, that matrix's
    temporaries and Cholesky factor, and the old and new inverse factor
    while it grows or is rebuilt.
    """
    features = n * d * (T if redraw_features else 1)
    floats = (features + 2 * n * T + (T + 1) * n * d + 4 * n * T
              + 12 * k_max * n * d + 12 * n * n + 6 * (VARIATION_SAMPLES + 2 * d) * n
              + 2 * d * d + 4 * d * d + 3 * (VARIATION_SAMPLES + 2 * d) * d + 6 * (d + 1) ** 2)
    return 40 * 2 ** 20 + 1024 * T + 8 * floats


def _gib(nbytes: int) -> str:
    try:
        return f"{nbytes / 2 ** 30:.3g} GiB"
    except OverflowError:   # too large for a float
        return "more than 1e308 GiB"


# "block.field" -> (converter, range check, range description); the schedule
# keys' ranges are algorithm.schedule_violations
_SCHEMA = {
    "problem.n": (int, lambda v: v >= 2, ">= 2"),
    "problem.T": (int, lambda v: 1 <= v <= MAX_HORIZON, f"in 1..{MAX_HORIZON}"),
    "problem.d": (int, lambda v: v >= 1, ">= 1"),
    "problem.lambda1": (float, lambda v: 0 <= v < np.inf, "finite and >= 0"),
    "problem.constraint": (ConstraintKind, None, None),
    "problem.radius": (float, lambda v: 0 < v < np.inf, "finite and > 0"),
    "problem.redraw_features": (_parse_bool, None, None),
    "network.edge_prob": (float, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "schedule.mode": (ScheduleMode, None, None),
    "schedule.epsilon": (float, None, None),
    "schedule.gamma": (float, None, None),
    "schedule.rho": (float, None, None),
    "schedule.fixed_count": (int, None, None),
    "schedule.baseline_alpha": (float, None, None),
    "solver.tolerance": (float, lambda v: 0 < v < np.inf, "finite and > 0"),
    "seeds.master": (int, None, None),
    "seeds.stream": (int, lambda v: v >= 0, ">= 0"),
    "seeds.network": (int, lambda v: v >= 0, ">= 0"),
    "seeds.init": (int, lambda v: v >= 0, ">= 0"),
    "init.mode": (str, lambda v: v in ("vertex", "random"), "vertex or random"),
    "output.directory": (str, lambda v: v != "", "non-empty"),
}

_SCHEDULE_KEYS = tuple(key for key in _SCHEMA if key.startswith("schedule."))


def _values(config) -> dict:
    """A config's value of each ``_SCHEMA`` key, in schema order."""
    return dict(zip(_SCHEMA, attrgetter(*_SCHEMA)(config)))


def _blocks(values: dict) -> dict:
    """The blocks of an :class:`ExperimentConfig` holding ``values``, each block's defaults elsewhere."""
    return {f.name: f.default_factory(**{key.split(".")[1]: value for key, value in values.items()
                                         if key.split(".")[0] == f.name}) for f in fields(ExperimentConfig)}


_DEFAULTS = _values(SimpleNamespace(**_blocks({})))   # not ExperimentConfig(), whose check reads it


def _schedule(v: dict) -> dict:
    """The :class:`ScheduleParams` fields of merged values (defaults | parsed)."""
    return {key.removeprefix("schedule."): v[key] for key in _SCHEDULE_KEYS}


def _footprint(v: dict) -> int | None:
    """:func:`resident_bytes` of merged values; None if the schedule has no inner count at round T."""
    try:
        k_max = inner_count(ScheduleParams(**_schedule(v)), v["problem.T"], v["problem.T"])
    except ValueError:
        return None
    return resident_bytes(v["problem.n"], v["problem.d"], v["problem.T"], k_max, v["problem.redraw_features"])


def _radius(v: dict) -> tuple[str, ...]:
    """``problem.radius`` if a rule reads it: on the l1 ball, as the simplex's radius is 1 whatever the key says."""
    return ("problem.radius",) if v["problem.constraint"] is ConstraintKind.L1_BALL else ()


def _schedule_rule(v, given):
    return schedule_violations(**_schedule(v))


def _step_rule(v, given):
    # the step shrinks as K_t grows, so a schedule with a step at round T has one every round
    params, horizon = ScheduleParams(**_schedule(v)), v["problem.T"]
    try:
        k_t = inner_count(params, horizon, horizon)
    except ValueError as exc:   # its message names the round
        return [("schedule.epsilon", str(exc))]
    if k_t > sys.float_info.max:   # a fixed count with no float step: the footprint rule names it
        return []
    try:
        step_size(params, k_t, horizon)
    except ValueError as exc:
        return [("schedule.rho", f"no step at round {horizon}: {exc}")]
    return []


def _footprint_rule(v, given):
    # blamed on the set key whose default would shrink the footprint most (the first such key on a tie)
    footprint = _footprint(v)
    if footprint is None or footprint <= MAX_RESIDENT_BYTES:
        return []

    def shrunk(key):   # fixed_count has no default; its least value stands in
        size = _footprint(v | {key: 2 if key == "schedule.fixed_count" else _DEFAULTS[key]})
        return math.inf if size is None else size
    key = min(given, key=shrunk)
    return [(key, f"a run needs an estimated {_gib(footprint)} resident, above the {_gib(MAX_RESIDENT_BYTES)} budget")]


def _loss_scale_rule(v, given):
    # the loss scale of the set's radius r (1 on the simplex) and lambda1, with features in [-5, 5]^d: the
    # solver's curvature u'Hu of H = A'A + 2 n lambda1 I along a pairwise step (||u|| <= 2 r) is at most
    # 4 r**2 n (25 d + 2 lambda1), and a squared gradient norm at most d (r (50 + 2 lambda1))**2. The first
    # product to overflow (to inf) fails at the set key among radius and lambda1 with the larger factor
    try:
        n, d = float(v["problem.n"]), float(v["problem.d"])
    except OverflowError:   # an n or d too large for a float counts as inf
        n = d = math.inf
    r2, lam = (v["problem.radius"] * v["problem.radius"] if _radius(v) else 1.0), v["problem.lambda1"]
    for expression, at, size, lam_factor in (
            ("4 * radius**2 * n * (25 * d + 2 * lambda1)", f"n = {v['problem.n']}, d = {v['problem.d']}", 4.0 * n,
             25.0 * d + 2 * lam),
            ("d * (radius * (50 + 2 * lambda1))**2", f"d = {v['problem.d']}", d, (50 + 2 * lam) * (50 + 2 * lam))):
        factors = {"problem.radius": r2, "problem.lambda1": lam_factor}
        blamed = [key for key in given if key in factors]
        if blamed and not math.isfinite(size * (r2 * lam_factor)):
            key = max(blamed, key=factors.get)
            return [(key, f"value {v[key]!r} out of range ({expression} must be finite at {at})")]
    return []


def _label_noise_rule(v, given):
    # labels reach about 5 r, and the last round's noise step 1/(4T) must outlast their rounding
    T, radius = v["problem.T"], v["problem.radius"]
    if "problem.radius" in given and 20 * T * radius * np.finfo(float).eps >= 1:
        return [("problem.radius", f"value {radius!r} out of range (20 * T * radius * eps must be < 1 at T = {T})")]
    return []


# validate's rules in the order they run: (rule, the keys it reads, given the
# merged values; the earlier rules whose refusal silences it). A rule takes the
# merged values and the keys it reads that the config set, in the order it
# reads them, and returns (key, message) pairs. It runs only when every key it
# reads parsed or was left unset, so it never judges a default in place of a
# key that failed to parse.
_RULES = (
    (_schedule_rule, lambda v: _SCHEDULE_KEYS, ()),
    (_step_rule, lambda v: (*_SCHEDULE_KEYS, "problem.T"), (_schedule_rule,)),
    (_footprint_rule, lambda v: ("problem.n", "problem.T", "problem.d", "problem.redraw_features", "schedule.mode",
                                 "schedule.epsilon", "schedule.gamma", "schedule.fixed_count"),
     (_schedule_rule, _step_rule)),
    (_loss_scale_rule, lambda v: (*_radius(v), "problem.lambda1", "problem.n", "problem.d", "problem.constraint"),
     (_footprint_rule,)),
    (_label_noise_rule, lambda v: (*_radius(v), "problem.constraint", "problem.T"), (_footprint_rule, _loss_scale_rule)),
)


def _judge(lines: dict, given: dict | None = None) -> tuple[dict, list]:
    """The one config gate: the values of a config's set keys, and its ``(line, message)`` violations in line
    order. ``lines`` maps each set key to its line number and value text, None if it has none; ``given`` (a
    config built from Python) to the value that text must read back as: an equal value of its type, NaN as NaN. A
    key is refused when its text does not convert (or read back) or is out of range; then ``_RULES`` run."""
    violations, values = [], {}
    for key, (lineno, raw) in lines.items():
        convert, check, describe = _SCHEMA[key]
        try:
            value = None if raw is None else convert(raw)
        except (TypeError, ValueError):
            value = None
        if given is not None and not (value is not None and type(value) is type(given[key])
                                      and (value == given[key] or value != value)):
            kind = "bool" if convert is _parse_bool else convert.__name__
            violations.append((lineno, f"{key}: {_shown(given[key], repr)} would not read back "
                                       f"from its config line as {kind}"))
        elif value is None:
            violations.append((lineno, f"{key}: cannot interpret {raw!r}"))
        elif check is not None and not check(value):
            violations.append((lineno, f"{key}: value {raw} out of range (must be {describe})"))
        else:
            values[key] = value
    seen = {key: lineno for key, (lineno, _) in lines.items()}
    merged, unparsed, refused = _DEFAULTS | values, lines.keys() - values.keys(), set()
    for rule, reads, silenced_by in _RULES:
        keys = reads(merged)
        if unparsed.isdisjoint(keys) and refused.isdisjoint(silenced_by):
            found = rule(merged, tuple(key for key in keys if key in values))
            if found:
                refused.add(rule)
            # each at its key's line, or at the mode's line for an unset schedule key
            violations += [(seen.get(key, seen.get("schedule.mode")), f"{key}: {message}") for key, message in found]
    return values, sorted(violations, key=lambda v: (v[0] or 0))


def _check(values: dict) -> None:
    """Raise one ``ValueError`` naming each key, as :func:`sweep`'s failed rows do, where config values (one
    per ``_SCHEMA`` key, ``None`` unset where it is the default) fail ``validate`` or read back otherwise."""
    lines = {}
    for position, (key, value) in enumerate(values.items(), start=1):   # the echo's line order
        if value is not None or _DEFAULTS[key] is not None:
            try:   # the text after "=" on the echo's line: its first, should the value break it, up to any "#"
                lines[key] = (position, f"={_echo_value(value)}".splitlines()[0].split("#", 1)[0][1:].strip())
            except ValueError:   # none: str() refuses an int past the interpreter's digit limit
                lines[key] = (position, None)
    violations = _judge(lines, values)[1]
    if violations:
        raise ValueError("; ".join(message for _, message in violations))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text, reporting every violation at once: each
    line's syntax, then :func:`_judge`."""
    violations, seen, lines = [], {}, {}   # seen: every key's line; lines: a _SCHEMA key's line and value text
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append((lineno, f"expected 'section.key = value', got {raw_line.strip()!r}"))
            continue
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in seen:
            violations.append((lineno, f"duplicate key {key!r} (first set on line {seen[key]})"))
            continue
        seen[key] = lineno
        if key not in _SCHEMA:
            violations.append((lineno, f"unknown key {key!r}"))
            continue
        lines[key] = (lineno, raw)
    values, judged = _judge(lines)
    if violations or judged:
        raise ConfigError(sorted(violations + judged, key=lambda v: (v[0] or 0)))
    return ExperimentConfig(**_blocks(values))


def _echo_value(value) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def config_to_text(config: ExperimentConfig) -> str:
    """Canonical full echo of a config, which :func:`parse_config` reads back as an equal config: one line
    per ``_SCHEMA`` key in schema order, optional keys left unset omitted."""
    return "".join(f"{key} = {_echo_value(value)}\n" for key, value in _values(config).items() if value is not None)


def plan_text(config: ExperimentConfig) -> str:
    """The run's plan, which ``domfw validate`` prints under its ``ok`` line:
    the inner steps and linear-oracle calls (``n`` a step) summed over the
    rounds with the run's own :func:`inner_count`, and the
    :func:`resident_bytes` estimate that ``validate`` holds to its budget."""
    horizon = config.problem.T
    steps = sum(map(inner_count, repeat(config.schedule, horizon), range(1, horizon + 1), repeat(horizon, horizon)))
    return (f"inner_steps = {steps}\nlo_calls = {config.problem.n * steps}\n"
            f"resident_bytes = {_footprint(_values(config))}\n")


_GNUPLOT = """set datafile separator ','
set key autotitle columnhead
set xlabel 't'
set ylabel 'average dynamic regret'
plot 'envelopes.csv' using 1:2 with lines, '' using 1:3 with lines, '' using 1:4 with lines
"""


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything one :func:`run_experiment` computed, the certified round
    optima included.

    ``bound.txt`` and ``manifest.txt`` are rendered from it, ``bound.txt``'s
    summaries computed from the optima and the trajectory's rounds, and
    :func:`sweep` builds its rows from it.
    """

    directory: Path
    config: ExperimentConfig
    trajectory: Trajectory
    regret: RegretSeries
    envelopes: Envelopes
    ht_estimate: float              # function variation: exact on fixed features, a lower estimate on redrawn ones
    ht_upper_bound: float | None    # analytic variation bound; needs fixed features
    bound: BoundReport | None       # regret bound; needs fixed features and a tracked schedule
    mixing: MixingReport
    optima: tuple[OptimumRecord, ...]   # the certified round optima, in round order
    wall_seconds: float

    def bound_text(self) -> str:
        """The ``bound.txt`` report: bounds, certificate margins, counters."""
        worst = float(self.regret.cumulative[:, -1].max())
        bound, mixing, traj, optima = self.bound, self.mixing, self.trajectory, self.optima
        items = [("ht_estimate", self.ht_estimate), ("ht_upper_bound", self.ht_upper_bound),
                 ("max_final_regret", worst)]
        if bound is not None:
            items += [("e1", bound.e1), ("e2", bound.e2), ("e3", bound.e3), ("bound_total", bound.total),
                      ("bound_margin", bound.total - worst)]
        items += [("mixing_deviation", mixing.deviation), ("mixing_bound", mixing.bound),
                  ("mixing_margin", mixing.margin), ("mixing_shifted_margin", mixing.shifted_margin),
                  ("mixing_holds", mixing.ok), ("solver_iterations", sum(rec.iterations for rec in optima)),
                  ("max_solver_gap", max(rec.gap for rec in optima)),
                  ("solver_margin", min(rec.tol - rec.gap for rec in optima)), ("lo_calls", traj.lo_calls),
                  ("messages", traj.messages), ("max_conservation_gap", traj.max_conservation_gap()),
                  ("max_feasibility_gap", traj.max_feasibility_gap())]
        return "".join(f"{key} = {value!r}\n" for key, value in items if value is not None)

    def manifest_text(self) -> str:
        """The ``manifest.txt`` record, a config file: the config echo under
        ``#`` lines of the versions and the wall time."""
        return (f"# package_version = {__version__}\n# python_version = {platform.python_version()}\n"
                f"# numpy_version = {np.__version__}\n# wall_seconds = {self.wall_seconds:.3f}\n\n"
                + config_to_text(self.config))


#: every file :func:`run_experiment` can leave in its directory, in the order it writes them
RUN_FILES = ("stream.csv", "network.csv", "trajectory.csv", "diagnostics.csv", "regret.csv", "envelopes.csv",
             "envelopes.gp", "bound.txt", "manifest.txt", "FAILED")


def write_stream_csv(stream: LossStream, path) -> None:
    """Dump the stream as rows ``agent, t, a_1..a_d, b`` for replay."""
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(["agent", "t"] + [f"a_{j + 1}" for j in range(stream.d)] + ["b"]) + "\n")
        for i in range(stream.n):
            if stream.fixed_features:
                rows = repeat(",".join(map(repr, stream.features[i].tolist())))
            else:
                rows = (",".join(map(repr, a)) for a in stream.features[:, i].tolist())
            for t, (row, b) in enumerate(zip(rows, stream.labels[i].tolist()), start=1):
                fh.write(f"{i},{t},{row},{b!r}\n")


def write_schedule_csv(schedule: GraphSchedule, path) -> None:
    """Dump every round's nonzero weights as rows ``round, i, j, weight``."""
    with Path(path).open("w", newline="") as fh:
        fh.write("round,i,j,weight\n")
        for t in range(1, schedule.horizon + 1):
            a = schedule.matrix(t).weights
            ii, jj = np.nonzero(a)   # row-major order
            for i, j, w in zip(ii.tolist(), jj.tolist(), a[ii, jj].tolist()):
                fh.write(f"{t},{i},{j},{w!r}\n")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Rows ``t, agent, x_1..x_d`` for every committed decision."""
    d = traj.decisions.shape[2]
    with Path(path).open("w", newline="") as fh:
        fh.write("t,agent," + ",".join(f"x_{j + 1}" for j in range(d)) + "\n")
        for t in range(1, traj.horizon + 2):
            for i, row in enumerate(traj.decisions[t - 1].tolist()):
                fh.write(f"{t},{i}," + ",".join(map(repr, row)) + "\n")


def write_diagnostics_csv(traj: Trajectory, path) -> None:
    """Per-round schedule, error, and cumulative counter columns."""
    lo_calls = messages = 0
    with Path(path).open("w", newline="") as fh:
        fh.write("t,K_t,alpha_t,consistency_error,tracking_residual,"
                 "lo_calls_cumulative,messages_cumulative\n")
        for r in traj.rounds:
            lo_calls += r.lo_calls
            messages += r.messages
            fh.write(f"{r.t},{r.inner_count},{r.alpha!r},{r.consistency_error!r},"
                     f"{r.tracking_residual!r},{lo_calls},{messages}\n")


def write_regret_csv(series: RegretSeries, path) -> None:
    """Rows ``t, agent, cumulative_regret, average_regret``."""
    cumulative = series.cumulative
    average = series.average
    with Path(path).open("w", newline="") as fh:
        fh.write("t,agent,cumulative_regret,average_regret\n")
        for t in range(1, cumulative.shape[1] + 1):
            for j, (c, a) in enumerate(zip(cumulative[:, t - 1].tolist(), average[:, t - 1].tolist())):
                fh.write(f"{t},{j},{c!r},{a!r}\n")


def write_envelopes_csv(env: Envelopes, path) -> None:
    """Rows ``t, avg, sup, inf`` of the average-regret envelopes."""
    with Path(path).open("w", newline="") as fh:
        fh.write("t,avg,sup,inf\n")
        for t, (avg, sup, inf) in enumerate(zip(env.avg.tolist(), env.sup.tolist(), env.inf.tolist()), start=1):
            fh.write(f"{t},{avg!r},{sup!r},{inf!r}\n")


def _artifact_dir(config: ExperimentConfig, out_dir) -> Path:
    """``out_dir``, else the config's ``output.directory``, created. An empty
    ``out_dir`` is refused first, as it would put the artifacts, and the
    stale-file cleanup, in the working directory."""
    if out_dir == "":
        raise ValueError("the output directory must be non-empty")
    out = Path(config.output.directory if out_dir is None else out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _clear_run_files(directory: Path) -> None:
    """Remove every file of ``RUN_FILES`` an earlier run left in ``directory``."""
    for name in RUN_FILES:
        (directory / name).unlink(missing_ok=True)


def run_experiment(config: ExperimentConfig, out_dir=None, dump_network: bool = False) -> RunResult:
    """End-to-end seeded run; returns its :class:`RunResult`.

    Writes the stream dump, the network dump if ``dump_network``, the
    trajectory and diagnostics, regret and envelope series, a bound report,
    and a manifest into the artifact directory (``result.directory``), after
    removing every file of ``RUN_FILES`` an earlier run left there; other
    files are not touched. On failure the outputs written so far are
    retained next to a new ``FAILED`` marker and the error is re-raised.
    """
    out = _artifact_dir(config, out_dir)
    _clear_run_files(out)
    started = time.perf_counter()
    try:
        prob = config.problem
        stream = generate_stream(prob.n, prob.T, prob.lambda1, prob.spec(), seed=config.seeds.stream_seed(),
                                 redraw_features=prob.redraw_features)
        ht_estimate = estimate_function_variation(stream)
        ht_upper_bound = function_variation_bound(stream) if stream.fixed_features else None
        schedule = random_connected_schedule(prob.n, prob.T, config.network.edge_prob,
                                             seed=config.seeds.network_seed())
        trajectory = run(stream, schedule, config.schedule,
                         init=config.init.mode, init_seed=config.seeds.init_seed())

        solver = RoundOptimizer(stream, tol=config.solver.tolerance)
        optima = tuple(solver.solve(t) for t in range(1, prob.T + 1))
        series = regret_series(trajectory, optima, stream, tol=config.solver.tolerance)
        env = envelopes(series)

        write_stream_csv(stream, out / "stream.csv")
        if dump_network:
            write_schedule_csv(schedule, out / "network.csv")
        write_trajectory_csv(trajectory, out / "trajectory.csv")
        write_diagnostics_csv(trajectory, out / "diagnostics.csv")
        write_regret_csv(series, out / "regret.csv")
        write_envelopes_csv(env, out / "envelopes.csv")
        (out / "envelopes.gp").write_text(_GNUPLOT)

        bound = None
        # the analytic bound needs fixed features and a tracked multi-iteration schedule
        if stream.fixed_features and config.schedule.mode is not ScheduleMode.BASELINE:
            mixing_constants = MixingConstants.from_zeta(schedule.zeta, stream.n)
            bound = regret_upper_bound(problem_constants(stream), mixing_constants, config.schedule,
                                       stream, [r.inner_count for r in trajectory.rounds], trajectory.x_init)
        mixing = check_mixing(trajectory.mixing, schedule.zeta)
        result = RunResult(directory=out, config=config, trajectory=trajectory, regret=series,
                           envelopes=env, ht_estimate=ht_estimate, ht_upper_bound=ht_upper_bound,
                           bound=bound, mixing=mixing, optima=optima, wall_seconds=time.perf_counter() - started)
        (out / "bound.txt").write_text(result.bound_text())
        (out / "manifest.txt").write_text(result.manifest_text(), encoding="utf-8")
        return result
    except Exception:
        (out / "FAILED").write_text(traceback.format_exc())
        raise


# axis -> its _SCHEMA key
_SWEEP_AXES = {
    "gamma": "schedule.gamma",
    "epsilon": "schedule.epsilon",
    "rho": "schedule.rho",
    "mode": "schedule.mode",
    "n": "problem.n",
    "T": "problem.T",
}


#: the columns of ``sweep.csv`` after the axis value's
SWEEP_COLUMNS = ("final_avg_regret", "lo_calls", "messages", "status")


@dataclass(frozen=True)
class SweepRow:
    value: object
    final_avg_regret: float | None
    lo_calls: int | None
    messages: int | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def sweep(config: ExperimentConfig, axis: str, values, out_dir=None, dump_network: bool = False):
    """One run per axis value under a shared master seed; failures recorded.

    Returns the rows (input order) and writes ``sweep.csv`` plus one artifact
    directory per value under ``out_dir``. An empty value list, or a value
    that does not convert or converts equal to an earlier one, raises
    ``ValueError`` before anything is run or written; one out of range, or
    whose config ``validate`` refuses, is a failed row naming the key.
    Before the first run, every ``run_<axis>=<value>`` directory an earlier
    sweep left under ``out_dir`` loses its ``RUN_FILES``, and is removed if
    that leaves it empty; other files are not touched.
    """
    if axis not in _SWEEP_AXES:
        raise ValueError(f"axis must be one of {sorted(_SWEEP_AXES)}, got {axis!r}")
    key = _SWEEP_AXES[axis]
    convert = _SCHEMA[key][0]
    first = {}   # converted value -> the value it was first given as
    for value in values:
        try:
            converted = convert(value)
            _echo_value(converted)   # its sweep.csv cell, which an int past the digit limit has not
        except (TypeError, ValueError):
            raise ValueError(f"sweep axis {axis}: cannot interpret {_shown(value, repr)}") from None
        if converted in first:
            raise ValueError(f"sweep axis {axis}: value {value!r} repeats {first[converted]!r}")
        first[converted] = value
    if not first:
        raise ValueError(f"sweep axis {axis}: no values given")
    out = _artifact_dir(config, out_dir)
    # an earlier sweep's run directories, on any axis: their run files go, and
    # so does each directory they leave empty
    for swept in _SWEEP_AXES:
        for run_dir in out.glob(f"run_{swept}=*"):
            if run_dir.is_dir():
                _clear_run_files(run_dir)
                if not any(run_dir.iterdir()):
                    run_dir.rmdir()
    rows, base = [], _values(config)
    for converted, value in first.items():
        try:
            result = run_experiment(ExperimentConfig(**_blocks(base | {key: converted})),
                                    out_dir=out / f"run_{axis}={value}", dump_network=dump_network)
            rows.append(SweepRow(value=converted, final_avg_regret=float(result.envelopes.avg[-1]),
                                 lo_calls=result.trajectory.lo_calls, messages=result.trajectory.messages))
        except Exception as exc:
            rows.append(SweepRow(value=converted, final_avg_regret=None,
                                 lo_calls=None, messages=None, error=f"{type(exc).__name__}: {exc}"))
    with (out / "sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([axis, *SWEEP_COLUMNS])
        for row in rows:   # each value as the config echo writes it
            cells = [repr(row.final_avg_regret), row.lo_calls, row.messages, "ok"] if row.ok else ["", "", "", row.error]
            writer.writerow([_echo_value(row.value), *cells])
    return rows


def fit_loglog_slope(pairs) -> float:
    """Least-squares slope of ``log(count)`` against ``log(T)``.

    Needs at least three points with strictly increasing ``T`` and finite
    positive values on both axes.
    """
    pairs = [(float(t), float(c)) for t, c in pairs]
    if len(pairs) < 3:
        raise ValueError("need at least three points")
    ts = np.array([p[0] for p in pairs])
    cs = np.array([p[1] for p in pairs])
    if not (np.all((0 < ts) & (ts < np.inf)) and np.all((0 < cs) & (cs < np.inf))):
        raise ValueError("log-log fit requires finite positive values")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("horizons must be strictly increasing")
    slope, _ = np.polyfit(np.log(ts), np.log(cs), 1)
    return float(slope)
