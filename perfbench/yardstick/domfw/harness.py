"""Experiment orchestration: config files, seeded runs, sweeps, slope fits.

Configs are flat ``section.key = value`` text (``#`` comments allowed). The
single master seed is hashed with a role tag to derive the stream, network,
and initialization sub-seeds, so redrawing one component never disturbs the
others. Every run writes its artifacts plus a manifest whose echoed config
reproduces the run bit-for-bit.
"""

from __future__ import annotations

import hashlib
import platform
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .algorithm import (
    ScheduleMode,
    ScheduleParams,
    inner_count,
    run,
    write_diagnostics_csv,
    write_trajectory_csv,
)
from .network import MixingConstants, check_mixing, random_connected_schedule, write_schedule_csv
from .problem import (
    ConstraintKind,
    ConstraintSpec,
    estimate_function_variation,
    function_variation_bound,
    generate_stream,
    problem_constants,
    write_stream_csv,
)
from .regret import (
    RoundOptimizer,
    envelopes,
    regret_series,
    regret_upper_bound,
    write_envelopes_csv,
    write_regret_csv,
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
class ScheduleBlock:
    mode: ScheduleMode = ScheduleMode.PER_ROUND
    epsilon: float = 4.0
    gamma: float = 0.5
    rho: float = 4.0
    fixed_count: int | None = None
    baseline_alpha: float | None = None

    def params(self, horizon: int) -> ScheduleParams:
        """Materialize schedule params, defaulting the baseline step to
        ``1 / (4 T**0.4)`` when left unset."""
        alpha = self.baseline_alpha
        if self.mode is ScheduleMode.BASELINE and alpha is None:
            alpha = 1.0 / (4.0 * horizon ** 0.4)
        return ScheduleParams(mode=self.mode, epsilon=self.epsilon, gamma=self.gamma,
                              rho=self.rho, fixed_count=self.fixed_count, baseline_alpha=alpha)


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
    formats: str = "csv"


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemBlock = field(default_factory=ProblemBlock)
    network: NetworkBlock = field(default_factory=NetworkBlock)
    schedule: ScheduleBlock = field(default_factory=ScheduleBlock)
    solver: SolverBlock = field(default_factory=SolverBlock)
    seeds: SeedsBlock = field(default_factory=SeedsBlock)
    init: InitBlock = field(default_factory=InitBlock)
    output: OutputBlock = field(default_factory=OutputBlock)

    def with_master_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seeds=replace(self.seeds, master=seed))


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ValueError(f"expected true/false, got {raw!r}")


# key -> (block, field, converter, range check, range description)
_SCHEMA = {
    "problem.n": ("problem", "n", int, lambda v: v >= 1, ">= 1"),
    "problem.T": ("problem", "T", int, lambda v: v >= 1, ">= 1"),
    "problem.d": ("problem", "d", int, lambda v: v >= 1, ">= 1"),
    "problem.lambda1": ("problem", "lambda1", float, lambda v: v >= 0, ">= 0"),
    "problem.constraint": ("problem", "constraint", lambda raw: ConstraintKind(raw), None, None),
    "problem.radius": ("problem", "radius", float, lambda v: v > 0, "> 0"),
    "problem.redraw_features": ("problem", "redraw_features", _parse_bool, None, None),
    "network.edge_prob": ("network", "edge_prob", float, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "schedule.mode": ("schedule", "mode", lambda raw: ScheduleMode(raw), None, None),
    "schedule.epsilon": ("schedule", "epsilon", float, lambda v: v > 0, "> 0"),
    "schedule.gamma": ("schedule", "gamma", float, None, None),   # range depends on the mode
    "schedule.rho": ("schedule", "rho", float, lambda v: v >= 1, ">= 1"),
    "schedule.fixed_count": ("schedule", "fixed_count", int, lambda v: v >= 2, ">= 2"),
    "schedule.baseline_alpha": ("schedule", "baseline_alpha", float, lambda v: 0 < v <= 1, "in (0, 1]"),
    "solver.tolerance": ("solver", "tolerance", float, lambda v: v > 0, "> 0"),
    "seeds.master": ("seeds", "master", int, None, None),
    "seeds.stream": ("seeds", "stream", int, None, None),
    "seeds.network": ("seeds", "network", int, None, None),
    "seeds.init": ("seeds", "init", int, None, None),
    "init.mode": ("init", "mode", str, lambda v: v in ("vertex", "random"), "vertex or random"),
    "output.directory": ("output", "directory", str, None, None),
    "output.formats": ("output", "formats", str, lambda v: v == "csv", "csv"),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text, reporting every violation at once."""
    violations = []
    seen: dict[str, int] = {}
    values: dict[str, object] = {}
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
        entry = _SCHEMA.get(key)
        if entry is None:
            violations.append((lineno, f"unknown key {key!r}"))
            continue
        _, _, convert, check, describe = entry
        try:
            value = convert(raw)
        except (TypeError, ValueError):
            violations.append((lineno, f"{key}: cannot interpret {raw!r}"))
            continue
        if check is not None and not check(value):
            violations.append((lineno, f"{key}: value {raw} out of range (must be {describe})"))
            continue
        values[key] = value

    blocks = {
        "problem": {}, "network": {}, "schedule": {}, "solver": {},
        "seeds": {}, "init": {}, "output": {},
    }
    for key, value in values.items():
        block, attr = _SCHEMA[key][0], _SCHEMA[key][1]
        blocks[block][attr] = value
    config = ExperimentConfig(
        problem=ProblemBlock(**blocks["problem"]),
        network=NetworkBlock(**blocks["network"]),
        schedule=ScheduleBlock(**blocks["schedule"]),
        solver=SolverBlock(**blocks["solver"]),
        seeds=SeedsBlock(**blocks["seeds"]),
        init=InitBlock(**blocks["init"]),
        output=OutputBlock(**blocks["output"]),
    )

    # cross-field constraints, attributed to the offending line when known
    sched = config.schedule
    if sched.mode is ScheduleMode.PER_ROUND:
        if not 0 < sched.gamma < 1:
            violations.append((seen.get("schedule.gamma"),
                               f"schedule.gamma: per-round schedule requires 0 < gamma < 1, got {sched.gamma}"))
    elif not 0 < sched.gamma <= 1:
        violations.append((seen.get("schedule.gamma"),
                           f"schedule.gamma: value must lie in (0, 1], got {sched.gamma}"))
    if sched.mode is ScheduleMode.FIXED and sched.fixed_count is None:
        violations.append((seen.get("schedule.mode"), "schedule.fixed_count is required for mode=fixed"))
    if violations:
        raise ConfigError(sorted(violations, key=lambda v: (v[0] or 0)))
    return config


def config_to_text(config: ExperimentConfig) -> str:
    """Canonical full echo of a config (parses back to an equal config)."""
    lines = [
        f"problem.n = {config.problem.n}",
        f"problem.T = {config.problem.T}",
        f"problem.d = {config.problem.d}",
        f"problem.lambda1 = {config.problem.lambda1!r}",
        f"problem.constraint = {config.problem.constraint.value}",
        f"problem.radius = {config.problem.radius!r}",
        f"problem.redraw_features = {str(config.problem.redraw_features).lower()}",
        f"network.edge_prob = {config.network.edge_prob!r}",
        f"schedule.mode = {config.schedule.mode.value}",
        f"schedule.epsilon = {config.schedule.epsilon!r}",
        f"schedule.gamma = {config.schedule.gamma!r}",
        f"schedule.rho = {config.schedule.rho!r}",
    ]
    if config.schedule.fixed_count is not None:
        lines.append(f"schedule.fixed_count = {config.schedule.fixed_count}")
    if config.schedule.baseline_alpha is not None:
        lines.append(f"schedule.baseline_alpha = {config.schedule.baseline_alpha!r}")
    lines += [
        f"solver.tolerance = {config.solver.tolerance!r}",
        f"seeds.master = {config.seeds.master}",
    ]
    for name in ("stream", "network", "init"):
        value = getattr(config.seeds, name)
        if value is not None:
            lines.append(f"seeds.{name} = {value}")
    lines += [
        f"init.mode = {config.init.mode}",
        f"output.directory = {config.output.directory}",
        f"output.formats = {config.output.formats}",
    ]
    return "\n".join(lines) + "\n"


_GNUPLOT = """set datafile separator ','
set key autotitle columnhead
set xlabel 't'
set ylabel 'average dynamic regret'
plot 'envelopes.csv' using 1:2 with lines, '' using 1:3 with lines, '' using 1:4 with lines
"""


def run_experiment(config: ExperimentConfig, out_dir=None, dump_network: bool = False) -> Path:
    """End-to-end seeded run; returns the artifact directory.

    Writes the stream dump, trajectory and diagnostics, regret and envelope
    series, a bound report, and a manifest. On failure the partial outputs
    are retained next to a ``FAILED`` marker and the error is re-raised.
    """
    out = Path(out_dir if out_dir is not None else config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        prob = config.problem
        spec = prob.spec()
        stream = generate_stream(prob.n, prob.T, prob.d, prob.lambda1, spec,
                                 seed=config.seeds.stream_seed(),
                                 redraw_features=prob.redraw_features)
        schedule = random_connected_schedule(prob.n, prob.T, config.network.edge_prob,
                                             seed=config.seeds.network_seed())
        params = config.schedule.params(prob.T)
        trajectory = run(stream, schedule, spec, params,
                         init=config.init.mode, init_seed=config.seeds.init_seed())

        solver = RoundOptimizer(stream, spec, tol=config.solver.tolerance)
        optima = [solver.solve(t) for t in range(1, prob.T + 1)]
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
        _write_bound_report(out / "bound.txt", stream, spec, schedule, params, trajectory, series)
        elapsed = time.perf_counter() - started
        _write_manifest(out / "manifest.txt", config, elapsed)
        return out
    except Exception:
        (out / "FAILED").write_text(traceback.format_exc())
        raise


def _write_bound_report(path, stream, spec, schedule, params, trajectory, series):
    counts = [inner_count(params, t, stream.T) for t in range(1, stream.T + 1)]
    lines = [f"ht_estimate = {estimate_function_variation(stream, spec)!r}"]
    worst = float(series.cumulative[:, -1].max())
    if stream.fixed_features:
        lines.append(f"ht_upper_bound = {function_variation_bound(stream, spec)!r}")
    lines.append(f"max_final_regret = {worst!r}")
    # the analytic bound needs fixed features and a tracked multi-iteration schedule
    if stream.fixed_features and params.mode is not ScheduleMode.BASELINE:
        constants = problem_constants(stream, spec)
        mixing = MixingConstants.from_zeta(schedule.zeta, stream.n)
        report = regret_upper_bound(constants, mixing, params, stream, spec, counts, trajectory.x_init)
        lines.append(f"e1 = {report.e1!r}")
        lines.append(f"e2 = {report.e2!r}")
        lines.append(f"e3 = {report.e3!r}")
        lines.append(f"bound_total = {report.total!r}")
        lines.append(f"bound_margin = {report.total - worst!r}")
    mix = check_mixing(schedule, counts, stream.T, 1)
    lines.append(f"mixing_deviation = {mix.deviation!r}")
    lines.append(f"mixing_bound = {mix.bound!r}")
    lines.append(f"mixing_margin = {mix.margin!r}")
    lines.append(f"mixing_holds = {mix.ok}")
    lines.append(f"lo_calls = {trajectory.lo_calls}")
    lines.append(f"messages = {trajectory.messages}")
    lines.append(f"max_conservation_gap = {trajectory.max_conservation_gap()!r}")
    lines.append(f"max_feasibility_gap = {trajectory.max_feasibility_gap()!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_manifest(path, config: ExperimentConfig, elapsed: float) -> None:
    body = [
        "# manifest",
        f"package_version = {__version__}",
        f"python_version = {platform.python_version()}",
        f"numpy_version = {np.__version__}",
        f"wall_seconds = {elapsed:.3f}",
        "",
        "# config",
        config_to_text(config).rstrip("\n"),
        "",
    ]
    Path(path).write_text("\n".join(body))


def read_manifest_config(path) -> ExperimentConfig:
    """Recover the echoed config from a manifest (for exact replay)."""
    lines = Path(path).read_text().splitlines()
    try:
        start = lines.index("# config") + 1
    except ValueError:
        raise ConfigError([(None, "manifest has no config section")])
    return parse_config("\n".join(lines[start:]))


_SWEEP_AXES = {
    "gamma": ("schedule", "gamma", float),
    "epsilon": ("schedule", "epsilon", float),
    "rho": ("schedule", "rho", float),
    "mode": ("schedule", "mode", lambda raw: ScheduleMode(str(raw))),
    "n": ("problem", "n", int),
    "T": ("problem", "T", int),
}


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
    directory per value under ``out_dir``.
    """
    if axis not in _SWEEP_AXES:
        raise ValueError(f"axis must be one of {sorted(_SWEEP_AXES)}, got {axis!r}")
    block, attr, convert = _SWEEP_AXES[axis]
    out = Path(out_dir if out_dir is not None else config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        converted = convert(value)
        cfg = replace(config, **{block: replace(getattr(config, block), **{attr: converted})})
        run_dir = out / f"run_{axis}={value}"
        try:
            run_experiment(cfg, out_dir=run_dir, dump_network=dump_network)
            env_rows = (run_dir / "envelopes.csv").read_text().splitlines()
            final_avg = float(env_rows[-1].split(",")[1])
            bound_text = (run_dir / "bound.txt").read_text()
            counters = dict(line.split(" = ") for line in bound_text.splitlines() if " = " in line)
            rows.append(SweepRow(value=converted, final_avg_regret=final_avg,
                                 lo_calls=int(counters["lo_calls"]), messages=int(counters["messages"])))
        except Exception as exc:
            rows.append(SweepRow(value=converted, final_avg_regret=None,
                                 lo_calls=None, messages=None, error=f"{type(exc).__name__}: {exc}"))
    import csv as _csv

    with (out / "sweep.csv").open("w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow([axis, "final_avg_regret", "lo_calls", "messages", "status"])
        for row in rows:
            value = row.value.value if isinstance(row.value, ScheduleMode) else row.value
            if row.ok:
                writer.writerow([value, repr(row.final_avg_regret), row.lo_calls, row.messages, "ok"])
            else:
                writer.writerow([value, "", "", "", row.error])
    return rows


def fit_loglog_slope(pairs) -> float:
    """Least-squares slope of ``log(count)`` against ``log(T)``.

    Needs at least three points with strictly increasing ``T`` and positive
    values on both axes.
    """
    pairs = [(float(t), float(c)) for t, c in pairs]
    if len(pairs) < 3:
        raise ValueError("need at least three points")
    ts = np.array([p[0] for p in pairs])
    cs = np.array([p[1] for p in pairs])
    if np.any(ts <= 0) or np.any(cs <= 0):
        raise ValueError("log-log fit requires positive values")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("horizons must be strictly increasing")
    slope, _ = np.polyfit(np.log(ts), np.log(cs), 1)
    return float(slope)
