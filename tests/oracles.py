"""Test oracles: slow, plain implementations the library is checked against.

None of these runs in the simulator. ``project`` and
``projected_gradient_optimum`` are an independent route to the round optima
(the algorithm under study never projects). ``ReferenceRoundOptimizer`` and
``reference_function_variation`` are the straightforward forms of the
library's pairwise Frank-Wolfe solver and fixed-feature variation estimate;
the library's faster forms must agree with them bit for bit. ``validate``
checks a weight matrix against the mixing assumptions, with SciPy's
strong-connectivity search as an oracle independent of the library's own
connectivity check. ``exact_zeta`` (the realized smallest weight over a
schedule) and ``lo_call_count`` (a run's oracle calls from the schedule's
definition) are totals the simulator never needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from domfw.algorithm import ScheduleParams, inner_count
from domfw.network import GraphSchedule, WeightMatrix
from domfw.problem import ConstraintKind, ConstraintSpec, LossStream, global_loss, sample_feasible
from domfw.regret import OptimumRecord, SolverError, _quadratic


def _project_to_sum(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto ``{x >= 0, sum x = total}`` (sorted threshold)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u * idx > css)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project(spec: ConstraintSpec, y: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the feasible set."""
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.dimension,):
        raise ValueError(f"point shape {y.shape} != ({spec.dimension},)")
    if spec.kind is ConstraintKind.UNIT_SIMPLEX:
        return _project_to_sum(y, 1.0)
    if np.abs(y).sum() <= spec.radius:
        return y.copy()
    w = _project_to_sum(np.abs(y), spec.radius)
    return np.sign(y) * w


def projected_gradient_optimum(stream: LossStream, t: int,
                               tol: float = 1e-9, max_iter: int = 2 * 10 ** 6) -> OptimumRecord:
    """Independent round-optimum solver: projected gradient with step ``1/L``.

    The stopping certificate is the same Frank-Wolfe gap, but evaluated by
    brute enumeration of the vertex set rather than through the oracle.
    """
    spec = stream.constraint
    h, c = _quadratic(stream, t)
    lips = float(np.linalg.eigvalsh(h)[-1])
    verts = spec.vertices()
    x = np.full(stream.d, 1.0 / stream.d) if spec.kind is ConstraintKind.UNIT_SIMPLEX else np.zeros(stream.d)
    gap = math.inf
    for it in range(max_iter):
        g = h @ x + c
        gap = float(x @ g - (verts @ g).min())
        if gap <= tol:
            return OptimumRecord(t=t, x_star=x, f_star=global_loss(stream, t, x),
                                 gap=gap, iterations=it)
        x = project(spec, x - g / lips)
    raise SolverError(f"projected gradient: gap {gap:.3e} above tol after {max_iter} iterations", gap=gap)


class ReferenceRoundOptimizer:
    """Pairwise Frank-Wolfe with every product recomputed on every step.

    The same warm-started method as ``domfw.regret.RoundOptimizer``, written
    as plainly as possible: the active set is an array rebuilt on each
    change, and each step builds its direction and curvature afresh.
    """

    def __init__(self, stream: LossStream, tol: float = 1e-9, max_iter: int = 10 ** 6):
        if tol <= 0:
            raise ValueError("tol must be > 0")
        self.stream = stream
        self.tol = tol
        self.max_iter = max_iter
        verts = stream.constraint.vertices()
        self._coord = np.abs(verts).argmax(axis=1)
        self._sign_r = verts[np.arange(len(verts)), self._coord]
        self._active: tuple[np.ndarray, np.ndarray] | None = None
        self._h = _quadratic(stream, 1)[0] if stream.fixed_features else None

    def _oracle_slot(self, g: np.ndarray) -> int:
        """Slot of the first vertex minimizing ``<v, g>``."""
        if self.stream.constraint.kind is ConstraintKind.L1_BALL:
            j = int(np.abs(g).argmax())
            return 2 * j + 1 if g[j] < 0 else 2 * j
        return int(g.argmin())

    def solve(self, t: int) -> OptimumRecord:
        stream = self.stream
        stream._check_round(t)
        if self._h is not None:
            h = self._h
            c = -stream.features.T @ stream.labels[:, t - 1]
        else:
            h, c = _quadratic(stream, t)
        coord, sign_r = self._coord, self._sign_r

        if self._active is None:
            active = np.array([self._oracle_slot(c)])
            weights = np.zeros(sign_r.size)
            weights[active] = 1.0
        else:
            # renormalize carried-over weights so float drift cannot pile up;
            # the sum runs left to right in insertion order
            weights, active = self._active
            weights = weights / sum(weights[active].tolist())
        x = np.zeros(stream.d)
        np.add.at(x, coord[active], sign_r[active] * weights[active])

        gap = math.inf
        for it in range(self.max_iter):
            g = h @ x + c
            fw = self._oracle_slot(g)
            gap = float(x @ g) - sign_r[fw] * g[coord[fw]]
            if not math.isfinite(gap):
                raise SolverError(f"round {t}: gap {gap} is not finite at iteration {it}", gap=gap)
            if gap <= self.tol:
                self._active = (weights, active)
                return OptimumRecord(t=t, x_star=x.copy(), f_star=global_loss(stream, t, x),
                                     gap=gap, iterations=it)
            # argmax takes the first maximum in insertion order: the tie-break
            away = int(active[(sign_r[active] * g[coord[active]]).argmax()])
            direction = np.zeros(stream.d)
            direction[coord[fw]] += sign_r[fw]
            direction[coord[away]] -= sign_r[away]
            descent = -float(g @ direction)
            curvature = float(direction @ h @ direction)
            weight_cap = weights[away]
            step = weight_cap if curvature <= 0 else min(weight_cap, descent / curvature)
            x = x + step * direction
            if fw not in active.tolist():
                active = np.append(active, fw)
            weights[fw] += step
            remaining = weight_cap - step
            if remaining <= 1e-15:
                active = active[active != away]
                weights[away] = 0.0
            else:
                weights[away] = remaining
        raise SolverError(f"round {t}: gap {gap:.3e} above tol {self.tol:.1e} "
                          f"after {self.max_iter} iterations", gap=gap)


def reference_function_variation(stream: LossStream, samples: int = 1000, seed: int = 0) -> float:
    """The fixed-feature variation estimate over every sample point of every round.

    Same points and the same per-entry arithmetic as
    ``domfw.problem.estimate_function_variation``, maximized over the whole
    ``(points, agents)`` array each round.
    """
    if not stream.fixed_features:
        raise ValueError("the reference loop covers fixed features only")
    spec = stream.constraint
    pts = np.vstack([spec.vertices(), sample_feasible(spec, np.random.default_rng(seed), samples)])
    total = 0.0
    z = pts @ stream.features.T   # (m, n): a_i @ x per point and agent
    for t in range(1, stream.T):
        b0 = stream.labels[:, t - 1]
        b1 = stream.labels[:, t]
        diff = np.abs((b0 - b1) * (z - 0.5 * (b0 + b1)))
        total += float(diff.max())
    return total


STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True)
class ValidationReport:
    """Per-check results of :func:`validate` with worst violation magnitudes."""

    doubly_stochastic: bool
    stochastic_violation: float
    entries_ok: bool
    entry_violation: float
    strongly_connected: bool

    @property
    def ok(self) -> bool:
        return self.doubly_stochastic and self.entries_ok and self.strongly_connected


def validate(wm: WeightMatrix, tol: float = STOCHASTIC_TOL) -> ValidationReport:
    """Check double stochasticity, the entry lower bound, and connectivity."""
    a = wm.weights
    n = wm.n
    row = np.abs(a.sum(axis=1) - 1.0).max()
    col = np.abs(a.sum(axis=0) - 1.0).max()
    neg = max(0.0, -float(a.min()))
    stoch_violation = float(max(row, col, neg))

    nonzero = a[a != 0]
    entry_violation = 0.0
    if nonzero.size:
        entry_violation = max(entry_violation, float(wm.zeta - nonzero.min()))
    diag_min = float(np.diag(a).min())
    entries_ok = entry_violation <= tol and diag_min > 0

    support = csr_matrix(a != 0)
    comps, _ = connected_components(support, directed=True, connection="strong")
    return ValidationReport(
        doubly_stochastic=stoch_violation <= tol,
        stochastic_violation=stoch_violation,
        entries_ok=entries_ok,
        entry_violation=float(max(entry_violation, -diag_min)),
        strongly_connected=(comps == 1) or (n == 1),
    )


def exact_zeta(schedule: GraphSchedule, rounds: Sequence[int] | None = None) -> float:
    """The realized smallest nonzero weight over ``rounds`` (default: all of them)."""
    rounds = range(1, schedule.horizon + 1) if rounds is None else rounds
    return min(schedule.matrix(t).zeta for t in rounds)


def lo_call_count(params: ScheduleParams, horizon: int, n: int = 1) -> int:
    """Total linear-oracle invocations of a full run: ``n * sum_t K_t``."""
    return n * sum(inner_count(params, t, horizon) for t in range(1, horizon + 1))
