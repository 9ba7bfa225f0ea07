"""Distributed online multiple Frank-Wolfe: the per-round inner loops.

Each round ``t`` runs ``K_t`` synchronized inner iterations. One iteration,
for all agents in lockstep:

1. consensus: mix the current iterates with the round's weight matrix,
2. gradient tracking: refresh the running estimate of the network-average
   gradient from the neighbors' estimates and the local gradient increment,
3. Frank-Wolfe: step from the mixed iterate toward the linear-oracle vertex
   of the tracked gradient with step ``alpha_t``.

The committed decision for round ``t + 1`` is the iterate left after the
``K_t``-th inner step. All agents' variables are stored as stacked ``(n, d)``
arrays; reductions use a fixed agent order so runs are bit-deterministic.

Each step operation has one unchecked private body. ``run_round`` is the
one function that steps a round: it checks the round's inputs once,
allocates the round's ``(K_t, n, d)`` buffers once, runs the bodies into them
step by step, then checks the tracked gradients and reads its diagnostics
from those buffers in whole-round array operations, with no loop over steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .network import GraphSchedule, MixingFold
from .problem import ConstraintSpec, LossStream, _frozen, _global_grad, _lmo, _local_grads, sample_feasible

CONSERVATION_TOL = 1e-9
FEASIBILITY_RUN_TOL = 1e-10


class ScheduleMode(Enum):
    """How the inner iteration count evolves with the round number."""

    PER_ROUND = "per_round"   # K_t = ceil(eps * t**gamma) + 1
    HORIZON = "horizon"       # K_t = ceil(eps * T**gamma) + 1
    FIXED = "fixed"           # K_t = fixed_count
    BASELINE = "baseline"     # K_t = 1 with a fixed step (single-iteration comparator)


def schedule_violations(mode: ScheduleMode, epsilon: float, gamma: float, rho: float,
                        fixed_count: int | None, baseline_alpha: float | None) -> list[tuple[str, str]]:
    """Every broken schedule rule, as ``(config key, message)`` pairs.

    Each field is range-checked whatever the mode; the mode adds two rules:
    the per-round schedule needs ``gamma < 1`` and the fixed one needs
    ``fixed_count``. The mode must be a ``ScheduleMode`` (a ``str`` would
    step the horizon rule) and ``fixed_count`` an integer, Python or NumPy,
    bool excluded.
    """
    problems = []
    if not isinstance(mode, ScheduleMode):
        problems.append(("schedule.mode", f"must be a ScheduleMode, got {mode!r}"))
    if not 0 < epsilon < math.inf:
        problems.append(("schedule.epsilon", f"must be finite and > 0, got {epsilon}"))
    if mode is ScheduleMode.PER_ROUND:
        if not 0 < gamma < 1:
            problems.append(("schedule.gamma", f"per-round schedule requires 0 < gamma < 1, got {gamma}"))
    elif not 0 < gamma <= 1:
        problems.append(("schedule.gamma", f"must lie in (0, 1], got {gamma}"))
    if not 1 <= rho < math.inf:
        problems.append(("schedule.rho", f"must be finite and >= 1, got {rho}"))
    elif not rho * rho < math.inf:   # the regret bound divides by rho**2
        problems.append(("schedule.rho", f"rho**2 must be finite, got {rho}"))
    if fixed_count is None:
        if mode is ScheduleMode.FIXED:
            problems.append(("schedule.fixed_count", "required for mode fixed"))
    elif isinstance(fixed_count, bool) or not isinstance(fixed_count, (int, np.integer)):
        problems.append(("schedule.fixed_count", f"must be an integer, got {fixed_count!r}"))
    elif not fixed_count >= 2:
        problems.append(("schedule.fixed_count", f"must be >= 2, got {fixed_count}"))
    if baseline_alpha is not None and not 0 < baseline_alpha <= 1:
        problems.append(("schedule.baseline_alpha", f"must lie in (0, 1], got {baseline_alpha}"))
    return problems


@dataclass(frozen=True)
class ScheduleParams:
    """Inner-loop schedule and step-size parameters.

    Non-baseline modes derive the step as ``alpha_t = 1 / (rho * K_t)``; the
    baseline mode runs one inner iteration per round with ``baseline_alpha``,
    or ``1 / (4 T**0.4)`` of the run's horizon ``T`` when it is unset.
    """

    mode: ScheduleMode = ScheduleMode.PER_ROUND
    epsilon: float = 4.0
    gamma: float = 0.5
    rho: float = 4.0
    fixed_count: int | None = None
    baseline_alpha: float | None = None

    def __post_init__(self):
        problems = schedule_violations(**vars(self))
        if problems:
            raise ValueError("; ".join(f"{key}: {message}" for key, message in problems))


def inner_count(params: ScheduleParams, t: int, horizon: int) -> int:
    """Number of inner iterations for round ``t`` (always >= 2 except baseline)."""
    if not 1 <= t <= horizon:
        raise ValueError(f"round {t} out of range 1..{horizon}")
    if params.mode is ScheduleMode.FIXED:
        return int(params.fixed_count)
    if params.mode is ScheduleMode.BASELINE:
        return 1
    per_round = params.mode is ScheduleMode.PER_ROUND
    try:
        return math.ceil(params.epsilon * (t if per_round else horizon) ** params.gamma) + 1
    except OverflowError:   # an infinite product, or a round number too large for a float
        raise ValueError(f"round {t}: epsilon * {'t' if per_round else 'T'}**gamma is not finite") from None


def step_size(params: ScheduleParams, k_t: int, horizon: int) -> float:
    """Inner step size: ``1 / (rho * K_t)``, or the fixed baseline step."""
    if params.mode is ScheduleMode.BASELINE:
        alpha = params.baseline_alpha
        try:
            return float(alpha if alpha is not None else 1.0 / (4.0 * horizon ** 0.4))
        except OverflowError:   # a horizon too large for a float
            raise ValueError("no baseline step 1/(4 T**0.4) for a horizon this large") from None
    if k_t < 1:
        raise ValueError("K_t must be >= 1")
    try:
        alpha = 1.0 / (params.rho * k_t)
    except OverflowError:   # a K_t too large for a float
        raise ValueError("K_t is too large for a float") from None
    if not 0 < alpha < math.inf:
        raise ValueError(f"step 1/(rho * K_t) = {alpha} is not a positive finite number at K_t = {k_t:.6g}")
    return alpha


def _mix(weights: np.ndarray, xs: np.ndarray, out=None) -> np.ndarray:
    """Consensus: row ``i`` becomes ``sum_j A[i, j] xs[j]``."""
    return np.matmul(weights, xs, out=out)


def _track(grad_tracked_prev, grad_prev, grad_fresh: np.ndarray, weights: np.ndarray, out=None):
    """Gradient tracking: ``(grad_tracked_pre, grad_tracked)``, written into
    the pair of arrays ``out`` when given. The pre-mix estimate is the fresh
    gradient at the first step (no previous state), then the last mixed
    estimate plus the gradient increment; its sum over agents stays the sum
    of the fresh gradients, as the weights are column stochastic."""
    bar, hat = (np.empty_like(grad_fresh), None) if out is None else out
    if grad_tracked_prev is None:
        bar[...] = grad_fresh
    else:
        np.add(grad_tracked_prev, grad_fresh, out=bar)
        bar -= grad_prev
    return bar, _mix(weights, bar, out=hat)


def _fw_step(x_mixed, v: np.ndarray, alpha: float, out=None) -> np.ndarray:
    """Frank-Wolfe step toward the oracle vertices ``v``:
    ``x_mixed + alpha * (v - x_mixed)``."""
    step = np.subtract(v, x_mixed, out=out)
    step *= alpha
    return np.add(x_mixed, step, out=step)


@dataclass(frozen=True)
class RoundDiagnostics:
    """Per-round monitoring quantities and counters recorded during a run."""

    t: int
    inner_count: int
    alpha: float
    consistency_error: float       # sum_i ||x_{i,t} - mean|| at round start
    tracking_residual: float       # sum_k alpha * sum_i ||tracked_i - mean grad||
    conservation_gap: float        # worst per-coordinate tracking-sum mismatch
    feasibility_gap: float         # worst constraint violation over inner iterates
    lo_calls: int                  # linear-oracle calls this round: n * K_t
    messages: int                  # messages this round: 2 * K_t * directed edges


def run_round(xs: np.ndarray, stream: LossStream, schedule: GraphSchedule, params: ScheduleParams, t: int,
              fold: MixingFold | None = None):
    """Execute round ``t``'s inner loop for all agents.

    Returns ``(xs_next, RoundDiagnostics)``. Checks the shape of ``xs`` and
    the size of the round's weights, then allocates the round's buffers once
    and fills step ``k`` of each in place through the step bodies: ``x`` has
    ``K_t + 1`` rows, ``x[k + 1]`` being step ``k``'s iterate after the
    Frank-Wolfe step and ``x[K_t]`` the committed decision; ``x_mixed``,
    ``grad_local``, ``grad_tracked_pre`` and ``grad_tracked`` have ``K_t``.
    The oracle vertices go into one ``(n, d)`` scratch array. The
    diagnostics are read straight from the buffers; the tracking residual
    takes its reference gradients from one stacked ``_global_grad`` call and
    sums its steps left to right. Raises if any tracked gradient is not
    finite. The round's weights are built once; a ``fold`` gets them with
    ``K_t``.
    """
    n, d, spec = stream.n, stream.d, stream.constraint
    wm = schedule.matrix(t)
    k_t = inner_count(params, t, schedule.horizon)
    alpha = step_size(params, k_t, schedule.horizon)
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (n, d):
        raise ValueError(f"expected ({n}, {d}) stacked decisions, got {xs.shape}")
    if wm.n != n:
        raise ValueError("schedule size does not match the stream")
    feats, labels, lambda1, weights = stream.feature_matrix(t), stream.labels[:, t - 1], stream.lambda1, wm.weights
    x = np.empty((k_t + 1, n, d))
    x[0] = xs
    x_mixed, grad_local, grad_tracked_pre, grad_tracked = (np.empty((k_t, n, d)) for _ in range(4))
    vertex = np.empty((n, d))
    grad_hat = fresh_prev = None
    for x_k, x_next, x_hat, fresh, grad_bar, hat in zip(x, x[1:], x_mixed, grad_local, grad_tracked_pre,
                                                        grad_tracked):
        _mix(weights, x_k, out=x_hat)
        _local_grads(feats, labels, lambda1, x_hat, out=fresh)
        _track(grad_hat, fresh_prev, fresh, weights, out=(grad_bar, hat))
        _fw_step(x_hat, _lmo(spec, hat, out=vertex), alpha, out=x_next)
        grad_hat, fresh_prev = hat, fresh
    if fold is not None:
        fold.add(wm, k_t)

    if not np.isfinite(grad_tracked).all():
        raise ValueError("gradient has non-finite entries")
    consistency = float(np.linalg.norm(x[0] - x[0].mean(axis=0), axis=1).sum())
    conservation_gap = float(np.abs(grad_tracked_pre.sum(axis=1) - grad_local.sum(axis=1)).max())
    feasibility_gap = max(spec.feasibility_violation(x_mixed.reshape(-1, d)),
                          spec.feasibility_violation(x[1:].reshape(-1, d)))
    mean_grads = _global_grad(feats, labels, lambda1, x[:-1].mean(axis=1)) / n
    residuals = np.linalg.norm(grad_tracked - mean_grads[:, None], axis=2).sum(axis=1)
    tracking_residual = float(np.cumsum(alpha * residuals)[-1])   # strictly left to right over the steps

    return x[-1], RoundDiagnostics(t=t, inner_count=k_t, alpha=alpha, consistency_error=consistency,
                                   tracking_residual=tracking_residual, conservation_gap=conservation_gap,
                                   feasibility_gap=feasibility_gap, lo_calls=n * k_t,
                                   messages=2 * k_t * wm.directed_edges)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Committed decisions plus the per-round diagnostics of a full run.

    ``decisions[t - 1]`` holds all agents' committed points for round ``t``,
    for ``t = 1 .. T + 1`` (the last row is the decision the agents would
    commit at round ``T + 1``). ``mixing`` is the run's fold of its rounds'
    weights, the products that ``check_mixing`` certifies. The decisions are
    held read-only, adopted or copied as ``_frozen`` rules.
    """

    decisions: np.ndarray          # (T + 1, n, d)
    rounds: tuple                  # RoundDiagnostics for t = 1 .. T
    mixing: MixingFold | None = None

    def __post_init__(self):
        object.__setattr__(self, "decisions", _frozen(self.decisions))

    @property
    def horizon(self) -> int:
        return self.decisions.shape[0] - 1

    def decision(self, t: int) -> np.ndarray:
        if not 1 <= t <= self.horizon + 1:
            raise ValueError(f"round {t} out of range 1..{self.horizon + 1}")
        return self.decisions[t - 1]

    @property
    def x_init(self) -> np.ndarray:
        return self.decisions[0]

    @property
    def lo_calls(self) -> int:
        """Linear-oracle calls over the whole run."""
        return sum(r.lo_calls for r in self.rounds)

    @property
    def messages(self) -> int:
        """Messages exchanged over the whole run."""
        return sum(r.messages for r in self.rounds)

    def max_conservation_gap(self) -> float:
        return max(r.conservation_gap for r in self.rounds)

    def max_feasibility_gap(self) -> float:
        return max(r.feasibility_gap for r in self.rounds)


def initial_decisions(spec: ConstraintSpec, n: int, init: str = "vertex",
                      seed: int | None = None) -> np.ndarray:
    """Starting points for all agents.

    ``"vertex"`` puts every agent on the same deterministic vertex (first
    basis vector, scaled to the set's radius); ``"random"`` draws seeded
    feasible points, one per agent, and raises without a ``seed``.
    """
    if init == "vertex":
        x0 = np.zeros(spec.dimension)
        x0[0] = spec.radius
        return np.tile(x0, (n, 1))
    if init == "random":
        if seed is None:
            raise ValueError("init 'random' needs a seed (init_seed)")
        return sample_feasible(spec, np.random.default_rng(seed), n)
    raise ValueError(f"unknown init mode {init!r}")


def run(stream: LossStream, schedule: GraphSchedule, params: ScheduleParams,
        init: str = "vertex", init_seed: int | None = None) -> Trajectory:
    """Run the full horizon and return the committed trajectory.

    Deterministic for fixed inputs. Raises with the offending round index if
    any round fails. Each round's weights are built once, folded into
    ``Trajectory.mixing`` and then dropped.
    """
    if schedule.n != stream.n:
        raise ValueError("schedule and stream disagree on the number of agents")
    if schedule.horizon < stream.T:
        raise ValueError("schedule horizon is shorter than the stream")

    xs = initial_decisions(stream.constraint, stream.n, init=init, seed=init_seed)
    decisions = np.empty((stream.T + 1, stream.n, stream.d))
    decisions[0] = xs
    rounds = []
    fold = MixingFold(stream.n)
    for t in range(1, stream.T + 1):
        try:
            xs, diag = run_round(xs, stream, schedule, params, t, fold)
        except Exception as exc:
            raise RuntimeError(f"round {t} failed: {exc}") from exc
        decisions[t] = xs
        rounds.append(diag)
    decisions.flags.writeable = False   # handed over without a copy
    return Trajectory(decisions=decisions, rounds=tuple(rounds), mixing=fold)


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
