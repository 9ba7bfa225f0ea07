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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .network import GraphSchedule, WeightMatrix
from .problem import ConstraintKind, ConstraintSpec, LossStream, global_grad, global_loss, lmo, local_grads, sample_feasible

CONSERVATION_TOL = 1e-9
FEASIBILITY_RUN_TOL = 1e-10


class ScheduleMode(Enum):
    """How the inner iteration count evolves with the round number."""

    PER_ROUND = "per_round"   # K_t = ceil(eps * t**gamma) + 1
    HORIZON = "horizon"       # K_t = ceil(eps * T**gamma) + 1
    FIXED = "fixed"           # K_t = fixed_count
    BASELINE = "baseline"     # K_t = 1 with a fixed step (single-iteration comparator)


@dataclass(frozen=True)
class ScheduleParams:
    """Inner-loop schedule and step-size parameters.

    Non-baseline modes derive the step as ``alpha_t = 1 / (rho * K_t)``; the
    baseline mode runs one inner iteration per round with ``baseline_alpha``.
    """

    mode: ScheduleMode
    epsilon: float = 4.0
    gamma: float = 0.5
    rho: float = 4.0
    fixed_count: int | None = None
    baseline_alpha: float | None = None

    def __post_init__(self):
        if self.mode is not ScheduleMode.BASELINE:
            if self.rho < 1:
                raise ValueError("rho must be >= 1")
        if self.mode in (ScheduleMode.PER_ROUND, ScheduleMode.HORIZON):
            if not self.epsilon > 0:
                raise ValueError("epsilon must be > 0")
            if not 0 < self.gamma <= 1:
                raise ValueError("gamma must lie in (0, 1]")
            if self.mode is ScheduleMode.PER_ROUND and self.gamma >= 1:
                raise ValueError("per-round schedule requires 0 < gamma < 1")
        if self.mode is ScheduleMode.FIXED:
            if self.fixed_count is None or self.fixed_count < 2:
                raise ValueError("fixed mode needs fixed_count >= 2")
        if self.mode is ScheduleMode.BASELINE:
            if self.baseline_alpha is None or not 0 < self.baseline_alpha <= 1:
                raise ValueError("baseline mode needs baseline_alpha in (0, 1]")


def inner_count(params: ScheduleParams, t: int, horizon: int) -> int:
    """Number of inner iterations for round ``t`` (always >= 2 except baseline)."""
    if not 1 <= t <= horizon:
        raise ValueError(f"round {t} out of range 1..{horizon}")
    if params.mode is ScheduleMode.PER_ROUND:
        return math.ceil(params.epsilon * t ** params.gamma) + 1
    if params.mode is ScheduleMode.HORIZON:
        return math.ceil(params.epsilon * horizon ** params.gamma) + 1
    if params.mode is ScheduleMode.FIXED:
        return int(params.fixed_count)
    return 1


def step_size(params: ScheduleParams, k_t: int) -> float:
    """Inner step size: ``1 / (rho * K_t)``, or the fixed baseline step."""
    if params.mode is ScheduleMode.BASELINE:
        return float(params.baseline_alpha)
    if k_t < 1:
        raise ValueError("K_t must be >= 1")
    return 1.0 / (params.rho * k_t)


def lo_call_count(params: ScheduleParams, horizon: int, n: int = 1) -> int:
    """Total linear-oracle invocations of a full run: ``n * sum_t K_t``."""
    return n * sum(inner_count(params, t, horizon) for t in range(1, horizon + 1))


def consensus_step(xs: np.ndarray, wm: WeightMatrix) -> np.ndarray:
    """Mix all agents' iterates: row ``i`` becomes ``sum_j A[i, j] xs[j]``."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[0] != wm.n:
        raise ValueError(f"expected ({wm.n}, d) stacked iterates, got {xs.shape}")
    return wm.weights @ xs


def tracking_step(grad_tracked_prev: np.ndarray | None, grad_prev: np.ndarray | None,
                  grad_fresh: np.ndarray, wm: WeightMatrix, k: int):
    """One gradient-tracking update for all agents.

    At ``k == 1`` the pre-mix estimate is the fresh local gradient; afterwards
    it is the previous mixed estimate plus the local gradient increment. The
    column stochasticity of the weights conserves the network-wide sum: the
    pre-mix estimates always sum to the sum of fresh gradients.

    Returns ``(grad_tracked_pre, grad_tracked)``; raises if the ``k > 1``
    update is requested without the previous state.
    """
    grad_fresh = np.asarray(grad_fresh, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        bar = grad_fresh.copy()
    else:
        if grad_tracked_prev is None or grad_prev is None:
            raise RuntimeError("tracking update at k > 1 requires the previous tracked and local gradients")
        bar = grad_tracked_prev + grad_fresh - grad_prev
    return bar, wm.weights @ bar


def fw_step(x_mixed: np.ndarray, grad_tracked: np.ndarray, alpha: float, spec: ConstraintSpec):
    """Frank-Wolfe update from the mixed iterates, row by row.

    ``x_mixed`` and ``grad_tracked`` are one agent's ``(d,)`` vectors or all
    agents' stacked ``(n, d)`` rows. Returns ``(x_next, vertex)`` with
    ``x_next = x_mixed + alpha * (v - x_mixed)``.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    v = lmo(spec, grad_tracked)
    return x_mixed + alpha * (v - x_mixed), v


@dataclass
class InnerTrace:
    """Optional per-inner-step record of one round (stacked over agents)."""

    x: list = field(default_factory=list)                 # x^k before consensus
    x_mixed: list = field(default_factory=list)           # after consensus
    grad_local: list = field(default_factory=list)        # fresh local gradients
    grad_tracked_pre: list = field(default_factory=list)  # before the tracking mix
    grad_tracked: list = field(default_factory=list)      # after the tracking mix
    vertex: list = field(default_factory=list)            # linear-oracle outputs
    objective: list = field(default_factory=list)         # F_t at the running average

    def agent_state(self, k: int, i: int) -> "AgentState":
        """Snapshot of agent ``i`` at inner step ``k`` (1-based)."""
        return AgentState(
            x=self.x[k - 1][i],
            x_mixed=self.x_mixed[k - 1][i],
            grad_tracked_pre=self.grad_tracked_pre[k - 1][i],
            grad_tracked=self.grad_tracked[k - 1][i],
            grad_prev=self.grad_local[k - 2][i] if k > 1 else None,
        )


@dataclass(frozen=True)
class AgentState:
    """One agent's inner-loop variables at a single inner step."""

    x: np.ndarray
    x_mixed: np.ndarray
    grad_tracked_pre: np.ndarray
    grad_tracked: np.ndarray
    grad_prev: np.ndarray | None


@dataclass(frozen=True)
class RoundDiagnostics:
    """Per-round monitoring quantities recorded during a run."""

    t: int
    inner_count: int
    alpha: float
    consistency_error: float       # sum_i ||x_{i,t} - mean|| at round start
    tracking_residual: float       # sum_k alpha * sum_i ||tracked_i - mean grad||
    conservation_gap: float        # worst per-coordinate tracking-sum mismatch
    feasibility_gap: float         # worst constraint violation over inner iterates
    avg_recursion_gap: float       # residual of the average-iterate recursion
    lo_calls_total: int
    messages_total: int
    trace: InnerTrace | None = None


def run_round(xs: np.ndarray, stream: LossStream, schedule: GraphSchedule, spec: ConstraintSpec,
              params: ScheduleParams, t: int, lo_calls: int = 0, messages: int = 0,
              record_inner: bool = False):
    """Execute round ``t``'s inner loop for all agents.

    Returns ``(xs_next, RoundDiagnostics)``. ``lo_calls`` and ``messages``
    are running totals carried into the recorded diagnostics.
    """
    n, d = stream.n, stream.d
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (n, d):
        raise ValueError(f"expected ({n}, {d}) stacked decisions, got {xs.shape}")
    wm = schedule.matrix(t)
    if wm.n != n:
        raise ValueError("schedule size does not match the stream")
    k_t = inner_count(params, t, schedule.horizon)
    alpha = step_size(params, k_t)
    edge_count = wm.directed_edges

    mean0 = xs.mean(axis=0)
    consistency = float(np.linalg.norm(xs - mean0, axis=1).sum())

    trace = InnerTrace() if record_inner else None
    x = xs
    grad_hat = None
    fresh_prev = None
    tracking_residual = 0.0
    conservation_gap = 0.0
    feasibility_gap = 0.0
    drift_sum = np.zeros(d)

    for k in range(1, k_t + 1):
        x_avg = x.mean(axis=0)
        x_hat = consensus_step(x, wm)
        fresh = local_grads(stream, t, x_hat)
        grad_bar, grad_hat = tracking_step(grad_hat, fresh_prev, fresh, wm, k)

        conservation_gap = max(conservation_gap, float(np.abs(grad_bar.sum(axis=0) - fresh.sum(axis=0)).max()))
        mean_grad = global_grad(stream, t, x_avg) / n
        tracking_residual += alpha * float(np.linalg.norm(grad_hat - mean_grad, axis=1).sum())

        x_next, v = fw_step(x_hat, grad_hat, alpha, spec)
        drift_sum += v.mean(axis=0) - x_avg

        feasibility_gap = max(feasibility_gap, spec.feasibility_violation(x_hat),
                              spec.feasibility_violation(x_next))
        if trace is not None:
            trace.x.append(x.copy())
            trace.x_mixed.append(x_hat)
            trace.grad_local.append(fresh)
            trace.grad_tracked_pre.append(grad_bar)
            trace.grad_tracked.append(grad_hat)
            trace.vertex.append(v)
            trace.objective.append(global_loss(stream, t, x_avg))
        fresh_prev = fresh
        x = x_next

    end_mean = x.mean(axis=0)
    if trace is not None:
        trace.objective.append(global_loss(stream, t, end_mean))
    recursion_gap = float(np.linalg.norm(end_mean - (mean0 + alpha * drift_sum)))

    diag = RoundDiagnostics(
        t=t,
        inner_count=k_t,
        alpha=alpha,
        consistency_error=consistency,
        tracking_residual=tracking_residual,
        conservation_gap=conservation_gap,
        feasibility_gap=feasibility_gap,
        avg_recursion_gap=recursion_gap,
        lo_calls_total=lo_calls + n * k_t,
        messages_total=messages + 2 * k_t * edge_count,
        trace=trace,
    )
    return x, diag


@dataclass(frozen=True)
class Trajectory:
    """Committed decisions plus oracle and message counters for a full run.

    ``decisions[t - 1]`` holds all agents' committed points for round ``t``,
    for ``t = 1 .. T + 1`` (the last row is the decision the agents would
    commit at round ``T + 1``).
    """

    decisions: np.ndarray          # (T + 1, n, d)
    lo_calls: int
    messages: int
    rounds: tuple

    def __post_init__(self):
        a = np.array(self.decisions, dtype=float)
        a.flags.writeable = False
        object.__setattr__(self, "decisions", a)

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

    def max_conservation_gap(self) -> float:
        return max(r.conservation_gap for r in self.rounds)

    def max_feasibility_gap(self) -> float:
        return max(r.feasibility_gap for r in self.rounds)

    def max_avg_recursion_gap(self) -> float:
        return max(r.avg_recursion_gap for r in self.rounds)


def initial_decisions(spec: ConstraintSpec, n: int, init: str = "vertex",
                      seed: int | None = None) -> np.ndarray:
    """Starting points for all agents.

    ``"vertex"`` puts every agent on the same deterministic vertex (first
    basis vector, scaled to the ball radius); ``"random"`` draws seeded
    feasible points, one per agent.
    """
    if init == "vertex":
        x0 = np.zeros(spec.dimension)
        x0[0] = 1.0 if spec.kind is ConstraintKind.UNIT_SIMPLEX else spec.radius
        return np.tile(x0, (n, 1))
    if init == "random":
        return sample_feasible(spec, np.random.default_rng(seed), n)
    raise ValueError(f"unknown init mode {init!r}")


def run(stream: LossStream, schedule: GraphSchedule, spec: ConstraintSpec, params: ScheduleParams,
        init: str = "vertex", init_seed: int | None = None, record_inner: bool = False) -> Trajectory:
    """Run the full horizon and return the committed trajectory.

    Deterministic for fixed inputs. Raises with the offending round index if
    any round fails.
    """
    if schedule.n != stream.n:
        raise ValueError("schedule and stream disagree on the number of agents")
    if schedule.horizon < stream.T:
        raise ValueError("schedule horizon is shorter than the stream")
    if spec.dimension != stream.d:
        raise ValueError("constraint dimension does not match the stream")

    xs = initial_decisions(spec, stream.n, init=init, seed=init_seed)
    decisions = np.empty((stream.T + 1, stream.n, stream.d))
    decisions[0] = xs
    rounds = []
    lo_calls = 0
    messages = 0
    for t in range(1, stream.T + 1):
        try:
            xs, diag = run_round(xs, stream, schedule, spec, params, t,
                                 lo_calls=lo_calls, messages=messages, record_inner=record_inner)
        except Exception as exc:
            raise RuntimeError(f"round {t} failed: {exc}") from exc
        lo_calls = diag.lo_calls_total
        messages = diag.messages_total
        decisions[t] = xs
        rounds.append(diag)
    return Trajectory(decisions=decisions, lo_calls=lo_calls, messages=messages, rounds=tuple(rounds))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Rows ``t, agent, x_1..x_d`` for every committed decision."""
    d = traj.decisions.shape[2]
    with Path(path).open("w", newline="") as fh:
        fh.write("t,agent," + ",".join(f"x_{j + 1}" for j in range(d)) + "\n")
        for t in range(1, traj.horizon + 2):
            xs = traj.decisions[t - 1]
            for i, row in enumerate(xs):
                fh.write(f"{t},{i}," + ",".join(repr(float(v)) for v in row) + "\n")


def write_diagnostics_csv(traj: Trajectory, path) -> None:
    """Per-round schedule, error, and counter columns."""
    with Path(path).open("w", newline="") as fh:
        fh.write("t,K_t,alpha_t,consistency_error,tracking_residual,"
                 "lo_calls_cumulative,messages_cumulative\n")
        for r in traj.rounds:
            fh.write(f"{r.t},{r.inner_count},{r.alpha!r},{r.consistency_error!r},"
                     f"{r.tracking_residual!r},{r.lo_calls_total},{r.messages_total}\n")
