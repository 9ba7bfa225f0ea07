"""Per-round optima, dynamic regret, envelope metrics, and the regret bound.

The round optimum is certified by the Frank-Wolfe gap
``max_v <x - v, grad F_t(x)>``, which upper-bounds the suboptimality of a
convex objective. The solver takes pairwise Frank-Wolfe steps (move weight
from the worst active vertex to the linear-oracle vertex, exact line search
on the quadratic): plain steps along ``v - x`` stall in a sublinear tail on
boundary optima and would need orders of magnitude more iterations to reach
tight gaps. An independent projected-gradient solver with exact Euclidean
projections cross-checks the optima; projections appear nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algorithm import ScheduleMode, ScheduleParams, Trajectory
from .network import MixingConstants
from .problem import (
    ConstraintKind,
    ConstraintSpec,
    LossStream,
    ProblemConstants,
    function_variation_bound,
    global_loss,
)


class SolverError(RuntimeError):
    """Raised when an optimum solver exhausts its iteration cap."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


@dataclass(frozen=True)
class OptimumRecord:
    """A certified per-round minimizer of the global loss."""

    t: int
    x_star: np.ndarray
    f_star: float
    gap: float
    iterations: int


def _quadratic(stream: LossStream, t: int):
    """Global loss as ``0.5 x'Hx + c'x + const`` for round ``t``."""
    feats = stream.feature_matrix(t)
    h = feats.T @ feats + 2.0 * stream.n * stream.lambda1 * np.eye(stream.d)
    c = -feats.T @ stream.labels[:, t - 1]
    return h, c


class RoundOptimizer:
    """Warm-startable pairwise Frank-Wolfe solver for the round optima.

    Keeps the active vertex decomposition between calls, so sweeping
    ``t = 1..T`` (where consecutive objectives differ only through the
    decaying label noise) costs a handful of iterations per round.
    """

    def __init__(self, stream: LossStream, spec: ConstraintSpec,
                 tol: float = 1e-9, max_iter: int = 10 ** 6):
        if tol <= 0:
            raise ValueError("tol must be > 0")
        self.stream = stream
        self.spec = spec
        self.tol = tol
        self.max_iter = max_iter
        self._active: dict[tuple[int, int], float] | None = None
        self._h = None
        if stream.fixed_features:
            self._h = _quadratic(stream, 1)[0]

    def _vertex_value(self, key, g):
        j, s = key
        return s * self.spec.radius * g[j] if self.spec.kind is ConstraintKind.L1_BALL else g[j]

    def _point(self, active):
        x = np.zeros(self.spec.dimension)
        r = self.spec.radius if self.spec.kind is ConstraintKind.L1_BALL else 1.0
        for (j, s), w in active.items():
            x[j] += s * r * w
        return x

    def solve(self, t: int) -> OptimumRecord:
        stream, spec = self.stream, self.spec
        stream._check_round(t)
        if self._h is not None:
            h = self._h
            c = -stream.features.T @ stream.labels[:, t - 1]
        else:
            h, c = _quadratic(stream, t)
        r = spec.radius if spec.kind is ConstraintKind.L1_BALL else 1.0
        ball = spec.kind is ConstraintKind.L1_BALL

        if self._active is None:
            if ball:
                j = int(np.argmax(np.abs(c)))
                active = {(j, -1 if c[j] >= 0 else 1): 1.0}
            else:
                active = {(int(np.argmin(c)), 1): 1.0}
        else:
            # renormalize carried-over weights so float drift cannot pile up
            active = dict(self._active)
            total = sum(active.values())
            active = {k: w / total for k, w in active.items()}
        x = self._point(active)

        gap = math.inf
        for it in range(self.max_iter):
            g = h @ x + c
            if ball:
                jf = int(np.argmax(np.abs(g)))
                sf = -1 if g[jf] >= 0 else 1
            else:
                jf, sf = int(np.argmin(g)), 1
            fw_key = (jf, sf)
            gap = float(x @ g) - self._vertex_value(fw_key, g)
            if gap <= self.tol:
                self._active = dict(active)
                return OptimumRecord(t=t, x_star=x.copy(), f_star=global_loss(stream, t, x),
                                     gap=gap, iterations=it)
            away_key = max(active, key=lambda key: self._vertex_value(key, g))
            direction = np.zeros(spec.dimension)
            direction[fw_key[0]] += fw_key[1] * r
            direction[away_key[0]] -= away_key[1] * r
            descent = -float(g @ direction)
            curvature = float(direction @ h @ direction)
            weight_cap = active[away_key]
            step = weight_cap if curvature <= 0 else min(weight_cap, descent / curvature)
            x = x + step * direction
            active[fw_key] = active.get(fw_key, 0.0) + step
            remaining = weight_cap - step
            if remaining <= 1e-15:
                active.pop(away_key, None)
            else:
                active[away_key] = remaining
        raise SolverError(f"round {t}: gap {gap:.3e} above tol {self.tol:.1e} "
                          f"after {self.max_iter} iterations", gap=gap)


def _project_to_sum(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto ``{x >= 0, sum x = total}`` (sorted threshold)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u * idx > css)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project(spec: ConstraintSpec, y: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the feasible set.

    Used only by the cross-check solver; the algorithm itself never projects.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.dimension,):
        raise ValueError(f"point shape {y.shape} != ({spec.dimension},)")
    if spec.kind is ConstraintKind.UNIT_SIMPLEX:
        return _project_to_sum(y, 1.0)
    if np.abs(y).sum() <= spec.radius:
        return y.copy()
    w = _project_to_sum(np.abs(y), spec.radius)
    return np.sign(y) * w


def projected_gradient_optimum(stream: LossStream, t: int, spec: ConstraintSpec,
                               tol: float = 1e-9, max_iter: int = 2 * 10 ** 6) -> OptimumRecord:
    """Independent round-optimum solver: projected gradient with step ``1/L``.

    The stopping certificate is the same Frank-Wolfe gap, but evaluated by
    brute enumeration of the vertex set rather than through the oracle.
    """
    h, c = _quadratic(stream, t)
    lips = float(np.linalg.eigvalsh(h)[-1])
    verts = spec.vertices()
    if spec.kind is ConstraintKind.UNIT_SIMPLEX:
        x = np.full(spec.dimension, 1.0 / spec.dimension)
    else:
        x = np.zeros(spec.dimension)
    gap = math.inf
    for it in range(max_iter):
        g = h @ x + c
        gap = float(x @ g - (verts @ g).min())
        if gap <= tol:
            return OptimumRecord(t=t, x_star=x, f_star=global_loss(stream, t, x),
                                 gap=gap, iterations=it)
        x = project(spec, x - g / lips)
    raise SolverError(f"projected gradient: gap {gap:.3e} above tol after {max_iter} iterations", gap=gap)


@dataclass(frozen=True)
class RegretSeries:
    """Cumulative dynamic regret of every agent, rounds ``1..T``."""

    cumulative: np.ndarray   # (n, T)

    def __post_init__(self):
        a = np.array(self.cumulative, dtype=float)
        a.flags.writeable = False
        object.__setattr__(self, "cumulative", a)

    @property
    def average(self) -> np.ndarray:
        """``R_j(t) / t`` for every agent and round."""
        t_grid = np.arange(1, self.cumulative.shape[1] + 1)
        return self.cumulative / t_grid

    def final(self, j: int) -> float:
        return float(self.cumulative[j, -1])


def regret_series(trajectory: Trajectory, optima, stream: LossStream,
                  tol: float = 1e-9) -> RegretSeries:
    """Cumulative ``F_t(x_{j,t}) - F_t(x_t^*)`` for all agents.

    Decisions are the committed round-start iterates. Raises if any per-round
    increment falls below ``-tol`` (which would contradict the optimality
    certificates) or if the optima do not cover the horizon.
    """
    T, n = stream.T, stream.n
    if len(optima) < T:
        raise ValueError(f"need optima for all {T} rounds, got {len(optima)}")
    increments = np.empty((n, T))
    for t in range(1, T + 1):
        xs = trajectory.decision(t)
        feats = stream.feature_matrix(t)
        resid = feats @ xs.T - stream.labels[:, t - 1][:, None]   # (n agents', n decisions)
        f_vals = 0.5 * np.einsum("ij,ij->j", resid, resid) + n * stream.lambda1 * np.einsum("jd,jd->j", xs, xs)
        rec = optima[t - 1]
        if rec.t != t:
            raise ValueError(f"optimum record at position {t - 1} is for round {rec.t}")
        increments[:, t - 1] = f_vals - rec.f_star
    if increments.min() < -tol:
        raise ValueError(f"negative regret increment {increments.min():.3e} below -tol")
    return RegretSeries(cumulative=np.cumsum(increments, axis=1))


@dataclass(frozen=True)
class Envelopes:
    """Pointwise mean/max/min of the per-agent average regret."""

    avg: np.ndarray
    sup: np.ndarray
    inf: np.ndarray


def envelopes(series: RegretSeries) -> Envelopes:
    a = series.average
    return Envelopes(avg=a.mean(axis=0), sup=a.max(axis=0), inf=a.min(axis=0))


@dataclass(frozen=True)
class BoundReport:
    """The evaluated regret bound ``e1 + e2 * variation + e3 * sum(1/K_t)``."""

    e1: float
    e2: float
    e3: float
    variation_bound: float
    inv_count_sum: float

    @property
    def total(self) -> float:
        return self.e1 + self.e2 * self.variation_bound + self.e3 * self.inv_count_sum


def regret_upper_bound(constants: ProblemConstants, mixing: MixingConstants,
                       params: ScheduleParams, stream: LossStream, spec: ConstraintSpec,
                       counts, x_init: np.ndarray) -> BoundReport:
    """Evaluate the analytic dynamic-regret bound for a tracked run.

    Valid for the multi-iteration modes with ``alpha_t = 1/(rho K_t)``; the
    variation term uses the analytic upper bound, so the result is a true
    upper bound on every agent's final dynamic regret.
    """
    if params.mode is ScheduleMode.BASELINE:
        raise ValueError("the bound does not cover the fixed-step baseline")
    if params.rho < 1:
        raise ValueError("rho must be >= 1")
    counts = [int(k) for k in counts]
    if len(counts) < stream.T:
        raise ValueError("need an inner count for every round")
    if counts[0] < 2:
        raise ValueError("the bound requires at least two inner iterations per round")

    n = stream.n
    m = constants.diameter
    l_x = constants.grad_norm_bound
    g_x = constants.grad_lipschitz
    sig = mixing.rate
    gam = mixing.coeff
    rho = params.rho

    x_init = np.asarray(x_init, dtype=float)
    sum_norm = float(np.linalg.norm(x_init, axis=1).sum())
    sum_dev = float(np.linalg.norm(x_init - x_init.mean(axis=0), axis=1).sum())

    one_minus_sig = 1.0 - sig
    one_minus_sig_k1 = 1.0 - sig ** counts[0]
    inv_rho_factor = 1.0 / (1.0 - math.exp(-1.0 / rho))

    d1 = ((2.0 * n * gam * g_x / one_minus_sig + g_x)
          * (n * m + (n * gam / one_minus_sig) * (sum_norm + n * m))
          + n * n * gam * l_x / one_minus_sig)
    d2 = (2.0 * n * n * gam * g_x * m / one_minus_sig) * (n * gam / one_minus_sig + 3.0) + 2.0 * n * m * g_x

    e1 = (n * n * l_x * gam / one_minus_sig_k1 * sum_norm
          + n * l_x * sum_dev
          + n * l_x * m * inv_rho_factor)
    e2 = 2.0 * n * inv_rho_factor
    e3 = (2.0 * m * (d1 / rho + d2 / rho ** 2) * inv_rho_factor
          + n * g_x * m * m / (2.0 * rho) * inv_rho_factor
          + n * n * l_x * m / rho * (n * gam / (sig * one_minus_sig * one_minus_sig_k1) + 2.0))

    variation = function_variation_bound(stream, spec)
    inv_sum = float(sum(1.0 / k for k in counts[:stream.T]))
    return BoundReport(e1=float(e1), e2=float(e2), e3=float(e3),
                       variation_bound=variation, inv_count_sum=inv_sum)


def write_regret_csv(series: RegretSeries, path) -> None:
    """Rows ``t, agent, cumulative_regret, average_regret``."""
    cumulative = series.cumulative
    average = series.average
    n, T = cumulative.shape
    with Path(path).open("w", newline="") as fh:
        fh.write("t,agent,cumulative_regret,average_regret\n")
        for t in range(1, T + 1):
            for j in range(n):
                fh.write(f"{t},{j},{float(cumulative[j, t - 1])!r},{float(average[j, t - 1])!r}\n")


def write_envelopes_csv(env: Envelopes, path) -> None:
    """Rows ``t, avg, sup, inf`` of the average-regret envelopes."""
    with Path(path).open("w", newline="") as fh:
        fh.write("t,avg,sup,inf\n")
        for t in range(env.avg.size):
            fh.write(f"{t + 1},{float(env.avg[t])!r},{float(env.sup[t])!r},{float(env.inf[t])!r}\n")
