"""Per-round optima, dynamic regret, envelope metrics, and the regret bound.

The round optimum is certified by the Frank-Wolfe gap
``max_v <x - v, grad F_t(x)>``, which upper-bounds the suboptimality of a
convex objective. The solver takes pairwise Frank-Wolfe steps (move weight
from the worst active vertex to the linear-oracle vertex, exact line search
on the quadratic): plain steps along ``v - x`` stall in a sublinear tail on
boundary optima. From the first round whose pairwise solve exhausts its
iteration cap, the same solver takes Wolfe's active-set method, which grows
an inverse Cholesky factor of each face (``RoundOptimizer``). The library
never projects; the tests cross-check the optima with a projected-gradient
solver of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algorithm import ScheduleMode, ScheduleParams, Trajectory, inner_count
from .network import MixingConstants
from .problem import (
    ConstraintKind,
    LossStream,
    ProblemConstants,
    _frozen,
    _left_sum,
    function_variation_bound,
    global_loss,
)


_EPS = float(np.finfo(float).eps)

#: pairwise iterations after which ``RoundOptimizer`` turns to the active-set
#: method, several times the most a certified benchmark round takes
PAIRWISE_MAX_ITER = 2 * 10 ** 4


class SolverError(RuntimeError):
    """Raised when an optimum solver cannot certify a round; ``gap`` is its last gap."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


@dataclass(frozen=True, eq=False)
class OptimumRecord:
    """A certified per-round minimizer of the global loss, its point held
    read-only and adopted or copied as ``_frozen`` rules."""

    t: int
    x_star: np.ndarray
    f_star: float
    gap: float
    iterations: int
    tol: float   # the bound the gap is certified below: the solver's tolerance or the round's rounding floor

    def __post_init__(self):
        object.__setattr__(self, "x_star", _frozen(self.x_star))


def _quadratic(stream: LossStream, t: int):
    """Global loss as ``0.5 x'Hx + c'x + const`` for round ``t``."""
    feats = stream.feature_matrix(t)
    h = feats.T @ feats + 2.0 * stream.n * stream.lambda1 * np.eye(stream.d)
    c = -feats.T @ stream.labels[:, t - 1]
    return h, c


def _place(d: int, coord: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum_k values[k] e_{coord[k]}`` in ``R^d``, each coordinate's values added in slot order."""
    x = np.zeros(d)
    np.add.at(x, coord, values)
    return x


def _gap_floor(h: np.ndarray, c: np.ndarray, radius: float) -> float:
    """The rounding floor of a Frank-Wolfe gap computed on ``0.5 x'Hx + c'x``
    over a set of l1 radius ``radius``: ``(3d + 2) eps r (r max|H| + max|c|)``.

    ``r (r max|H| + max|c|)`` bounds ``|<v, g>|`` for every point ``v`` of the
    set and gradient ``g`` at a point of it, and each of the gap's three
    ``d``-term products (``g``, ``<x, g>``, ``<v, g>``) rounds by about ``d``
    eps of that, so no solver can certify a gap below it. It is taken in
    Python floats, left to right, so it overflows only past the gap itself.
    """
    return (3 * c.size + 2) * _EPS * radius * (radius * float(np.abs(h).max()) + float(np.abs(c).max()))


class RoundOptimizer:
    """Warm-startable pairwise Frank-Wolfe solver for the round optima.

    Keeps the active vertex decomposition between calls, so sweeping
    ``t = 1..T`` (where consecutive objectives differ only through the
    decaying label noise) costs a handful of iterations per round. The round
    whose pairwise steps exhaust ``PAIRWISE_MAX_ITER`` with a finite gap, and
    every later one, goes to an active-set method that factors each face.

    The decomposition is a weight per vertex slot and the active slots in
    the order they entered. Both halves read a slot as the set gives it, a
    coordinate and a signed value (slot ``j`` is ``e_j`` on the simplex;
    slot ``2j`` is ``-r e_j`` and ``2j + 1`` is ``+r e_j`` on the ball),
    with the oracle's slot rule, and place a face's point by ``_place``. The
    insertion order breaks ties for the away vertex (first maximum) and
    fixes the left-to-right order of the warm-start renormalization sum.

    Each (oracle slot, away slot) pair's direction ``v_fw - v_away`` and
    curvature ``d'Hd`` are computed the first time the pair is stepped along
    and reused after, on the solver on fixed features and within one round
    on redrawn ones. Each round builds ``H`` afresh, the same product of the
    same inputs on fixed features, so every reused entry has the same bits.

    A step keeps as NumPy calls the products whose rounding fixes the bits:
    ``g = Hx + c`` into one buffer, the BLAS dot ``<x, g>``, and the oracle.
    The rest reads ``g`` as a Python list. On the simplex the away vertex is
    a loop over that list, and the descent ``<g, e_away - e_fw>`` is
    ``g_away - g_fw``: the dot's products are exact, so it rounds once to
    that difference, an exact zero as ``+0.0`` like the dot. On the l1 ball
    the direction's entries are ``+-r``, whose products round, and a BLAS
    dot fuses its multiply-adds, so a Python sum over the pair's coordinates
    would round differently: there ``<g, direction>`` stays a dot and the
    away vertex an argmax. ``x`` moves in place at the direction's nonzero
    coordinates (the two vertices' axes, with the direction's entries
    ``+-r`` or, on one axis, their difference), which is exact: elsewhere
    the step adds ``+-0``, and ``x`` never holds ``-0.0``.

    A round is certified when its gap is at most ``tol``, or at most its
    rounding floor (``_gap_floor``) where that is larger: on a wide l1 ball
    no solver reaches a fixed absolute gap. The record keeps the bound as
    ``tol``.
    """

    def __init__(self, stream: LossStream, tol: float = 1e-9):
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {tol!r}")
        self.stream = stream
        self.tol = tol
        self._oracle, _, self._coord, self._sign_r = stream.constraint._oracle
        self._coord_list, self._sign_list = self._coord.tolist(), self._sign_r.tolist()
        self._ball = stream.constraint.kind is ConstraintKind.L1_BALL
        self._active: tuple[list[float], list[int]] | None = None
        self._pairs: dict[tuple[int, int], tuple[np.ndarray, float]] = {}
        self._capped = False

    def solve(self, t: int) -> OptimumRecord:
        """Round ``t``'s certified optimum; raises ``SolverError`` carrying the
        last gap if a gap is not finite (at once) or if neither method certifies it.
        The round the active-set method takes over counts ``PAIRWISE_MAX_ITER``
        pairwise iterations plus its own steps."""
        self.stream._check_round(t)
        spent = 0
        if not self._capped:
            try:
                return self._pairwise_solve(t)
            except SolverError as exc:
                if not math.isfinite(exc.gap):
                    raise
                self._capped, spent = True, PAIRWISE_MAX_ITER
        record = self._active_set_solve(t)
        return replace(record, iterations=spent + record.iterations)

    def _objective(self, t: int):
        """``_quadratic``'s ``H`` and ``c`` for round ``t``, and the bound its gap
        must fall below: ``tol``, or the gap's rounding floor if that is larger."""
        h, c = _quadratic(self.stream, t)
        return h, c, max(self.tol, _gap_floor(h, c, self.stream.constraint.radius))

    def _pairwise_solve(self, t: int) -> OptimumRecord:
        """Warm-started pairwise steps; raises ``SolverError`` at ``PAIRWISE_MAX_ITER``."""
        stream = self.stream
        h, c, tol = self._objective(t)
        pairs = self._pairs if stream.fixed_features else {}
        coord, sign_r, oracle = self._coord, self._sign_r, self._oracle
        coord_list, sign_list, ball = self._coord_list, self._sign_list, self._ball

        if self._active is None:
            active = [oracle(c)]
            weights = [0.0] * sign_r.size
            weights[active[0]] = 1.0
        else:
            # renormalize carried-over weights so float drift cannot pile up
            weights, active = self._active
            total = _left_sum(weights[k] for k in active)
            weights = [w / total for w in weights]
            active = list(active)
        act_coord, act_sign = coord[active], sign_r[active]
        x = _place(stream.d, act_coord, act_sign * np.array([weights[k] for k in active]))

        g = np.empty(stream.d)
        gap = math.inf
        for it in range(PAIRWISE_MAX_ITER):
            h.dot(x, out=g)
            g += c
            gl = g.tolist()
            fw = oracle(g)
            gap = float(x.dot(g)) - sign_list[fw] * gl[coord_list[fw]]
            if not math.isfinite(gap):
                raise SolverError(f"round {t}: gap {gap} is not finite at iteration {it}", gap=gap)
            if gap <= tol:
                self._active = (weights, active)
                x_star = x.copy()
                x_star.flags.writeable = False   # handed over without a second copy
                return OptimumRecord(t=t, x_star=x_star, f_star=global_loss(stream, t, x),
                                     gap=gap, iterations=it, tol=tol)
            if ball:
                # argmax takes the first maximum in insertion order: the tie-break
                away = active[int((act_sign * g[act_coord]).argmax())]
            else:
                # the same tie-break: the first active slot whose g is largest
                away = active[0]
                top = gl[away]
                for k in active:
                    if gl[k] > top:
                        away, top = k, gl[k]
            pair = pairs.get((fw, away))
            if pair is None:
                direction = np.zeros(stream.d)
                direction[coord[fw]] += sign_r[fw]
                direction[coord[away]] -= sign_r[away]
                pair = pairs[fw, away] = (direction, float(direction @ h @ direction))
            direction, curvature = pair
            if ball:
                # a dot, not a sum over the pair's coordinates: the products with
                # +-r round, and a BLAS dot fuses its multiply-adds
                descent = -float(g.dot(direction))
            else:
                # -<g, e_fw - e_away>: the dot's products g_fw, -g_away and +-0 are
                # exact, so any order of its sum rounds once, to g_fw - g_away. A
                # BLAS dot sums from +0.0, so an exact zero comes back as +0.0;
                # `+ 0.0` does the same to Python's -0.0 - 0.0 = -0.0
                descent = -(gl[fw] - top + 0.0)
            weight_cap = weights[away]
            step = weight_cap if curvature <= 0 else min(weight_cap, descent / curvature)
            # x + step * direction, written where the direction is nonzero
            i, j = coord_list[fw], coord_list[away]
            if i == j:
                x[i] = x[i] + step * (sign_list[fw] - sign_list[away])
            else:
                x[i] = x[i] + step * sign_list[fw]
                x[j] = x[j] - step * sign_list[away]
            changed = fw not in active
            if changed:
                active.append(fw)
            weights[fw] += step
            remaining = weight_cap - step
            if remaining <= 1e-15:
                active.remove(away)
                weights[away] = 0.0
                changed = True
            else:
                weights[away] = remaining
            if changed and ball:
                act_coord, act_sign = coord[active], sign_r[active]
        raise SolverError(f"round {t}: gap {gap:.3e} above tol {tol:.1e} "
                          f"after {PAIRWISE_MAX_ITER} iterations", gap=gap)

    def _active_set_solve(self, t: int) -> OptimumRecord:
        """A cold-started primal active-set method (Wolfe, Math. Programming 1976).

        Each major step adds the oracle vertex while the Frank-Wolfe gap,
        recomputed from the full gradient, is above ``tol``. Each minor step
        moves the weights ``w`` to the minimizer of ``0.5 w'Mw + b'w`` (``H``
        and ``c`` at the face's slots times their signed values, over
        ``kappa``) on ``1'w = 1``, by ``-R'(Re - (y'Re / y'y) y)`` with
        ``y = R1``, where ``R = L^-1`` for ``P = 11' + M = LL'`` gains a row,
        O(k^2), as a vertex enters. The face's gradient ``e = Mw + b`` is read
        from the full gradient ``g``, not rebuilt through the factor, so the
        factor's rounding errs in the step alone. The round's scale ``kappa``,
        a power of two near ``r**2 max|H|``, keeps ``M``'s entries near 1: past
        about ``1/eps`` they would round away the ``11'`` that makes ``P``
        positive definite where ``M`` is singular. A weight that would turn
        negative stops the step at the boundary, drops its vertex, refactors
        ``P`` and renews ``g``. Raises ``SolverError`` if the gap is not
        finite, the oracle vertex is already active or ``P`` is not positive
        definite, or after 1000 major steps more than the set has vertices."""
        h, c, tol = self._objective(t)
        coord, sign_r, oracle = self._coord, self._sign_r, self._oracle
        active, weights = [oracle(c)], np.ones(1)
        # the largest power of two at most r**2 max|H|, exact to divide by (1/2 where that is 0 or inf)
        radius = self.stream.constraint.radius
        kappa = math.ldexp(0.5, math.frexp(radius * (radius * float(np.abs(h).max())))[1])
        cs, ss = coord[active], sign_r[active]   # the face's slots, renewed as it changes
        r = 1.0 / np.sqrt(1.0 + ss[:, None] * h[np.ix_(cs, cs)] * (ss / kappa))   # R = L^-1 of the one-slot face's P
        for it in range(sign_r.size + 1000):
            x = _place(self.stream.d, cs, ss * weights)
            g = h @ x + c
            fw = oracle(g)
            gap = float(x @ g - sign_r[fw] * g[coord[fw]])
            if not math.isfinite(gap):
                raise SolverError(f"round {t}: active-set gap {gap} is not finite at step {it}", gap=gap)
            if gap <= tol:
                x.flags.writeable = False   # handed over without a copy
                return OptimumRecord(t=t, x_star=x, f_star=global_loss(self.stream, t, x), gap=gap,
                                     iterations=it, tol=tol)
            if fw in active:
                break
            active.append(fw)
            weights = np.append(weights, 0.0)
            cs, ss = coord[active], sign_r[active]
            # fw's column p of P: R gains the row [-l'R, 1] / sqrt(p_kk - l'l), l = R p
            p = 1.0 + ss * h[cs, cs[-1]] * (ss[-1] / kappa)
            l = r @ p[:-1]
            pivot = p[-1] - l @ l
            if not pivot > 0:
                raise SolverError(f"round {t}: face not positive definite at step {it}", gap=gap)
            r = np.pad(r, ((0, 1), (0, 1)))
            r[-1] = np.append(-(l @ r[:-1, :-1]), 1.0) / math.sqrt(pivot)
            while True:
                y1, ye = r.sum(axis=1), r @ (ss * g[cs] / kappa)
                u = weights - (ye - (y1 @ ye) / (y1 @ y1) * y1) @ r
                if (u > 0).all():
                    weights = u
                    break
                # move toward u until the first weight reaches 0, and drop it
                down = u <= 0
                ratios = np.where(down, weights / np.where(down & (weights > u), weights - u, 1.0), np.inf)
                i = int(ratios.argmin())
                weights = weights + ratios[i] * (u - weights)
                weights[i] = 0.0
                active = [slot for slot, w in zip(active, weights) if w > 0]
                weights = weights[weights > 0]
                cs, ss = coord[active], sign_r[active]
                try:
                    r = np.linalg.inv(np.linalg.cholesky(1.0 + ss[:, None] * h[np.ix_(cs, cs)] * (ss / kappa)))
                except np.linalg.LinAlgError:
                    raise SolverError(f"round {t}: face not positive definite at step {it}", gap=gap) from None
                g = h @ _place(self.stream.d, cs, ss * weights) + c
        raise SolverError(f"round {t}: active-set gap {gap:.3e} above tol {tol:.1e}", gap=gap)


@dataclass(frozen=True, eq=False)
class RegretSeries:
    """Cumulative dynamic regret of every agent, rounds ``1..T``, held
    read-only and adopted or copied as ``_frozen`` rules."""

    cumulative: np.ndarray   # (n, T)

    def __post_init__(self):
        object.__setattr__(self, "cumulative", _frozen(self.cumulative))

    @property
    def average(self) -> np.ndarray:
        """``R_j(t) / t`` for every agent and round."""
        t_grid = np.arange(1, self.cumulative.shape[1] + 1)
        return self.cumulative / t_grid


def regret_series(trajectory: Trajectory, optima, stream: LossStream) -> RegretSeries:
    """Cumulative ``F_t(x_{j,t}) - F_t(x_t^*)`` for all agents.

    Decisions are the committed round-start iterates. Raises if the
    trajectory's agents, dimension or horizon do not fit the stream, if the
    optima do not cover the horizon, or if an increment falls below minus
    the bound its record is certified below (its ``tol``, or its ``gap`` if
    that is larger) less a rounding floor, which would contradict the
    optimality certificates: a loss, a sum of ``n + d`` nonnegative terms, rounds by up
    to ``(n + d) * eps`` times its value; and a decision is never projected,
    so rounding leaves it ``v`` off the set (``feasibility_violation``),
    within ``(2d + 1) v`` of it in l1, where by convexity its loss is at most
    that distance times its largest gradient entry below the set's minimum.
    That entry reads the losses' residual, a rounding of ``_global_grad`` no artifact shows.
    Every round refills one ``(n, n)`` residual block in place.
    """
    T, n, d = stream.T, stream.n, stream.d
    shape = trajectory.decisions.shape
    if shape[1:] != (n, d) or shape[0] < T + 1:
        raise ValueError(f"trajectory decisions of shape {shape} do not fit the stream, "
                         f"which needs ({T + 1}, {n}, {d})")
    if len(optima) < T:
        raise ValueError(f"need optima for all {T} rounds, got {len(optima)}")
    increments, resid = np.empty((n, T)), np.empty((n, n))   # resid: (n agents', n decisions), reused each round
    for t in range(1, T + 1):
        xs = trajectory.decision(t)
        feats = stream.feature_matrix(t)
        np.matmul(feats, xs.T, out=resid)
        resid -= stream.labels[:, t - 1][:, None]
        f_vals = 0.5 * np.einsum("ij,ij->j", resid, resid) + n * stream.lambda1 * np.einsum("jd,jd->j", xs, xs)
        rec = optima[t - 1]
        if rec.t != t:
            raise ValueError(f"optimum record at position {t - 1} is for round {rec.t}")
        inc = increments[:, t - 1] = f_vals - rec.f_star
        grads = resid.T @ feats + (2.0 * n * stream.lambda1) * xs   # (n decisions, d)
        slack = (max(rec.tol, rec.gap) + (n + d) * _EPS * (f_vals + rec.f_star)
                 + (2 * d + 1) * stream.constraint.feasibility_violation(xs) * np.abs(grads).max(axis=1))
        j = int((inc + slack).argmin())
        if inc[j] < -slack[j]:
            raise ValueError(f"round {t}: agent {j}'s regret increment {inc[j]:.3e} is below "
                             f"-(tol + rounding floor) = {-slack[j]:.3e}")
    cumulative = np.cumsum(increments, axis=1)
    cumulative.flags.writeable = False   # handed over without a copy
    return RegretSeries(cumulative=cumulative)


@dataclass(frozen=True, eq=False)
class Envelopes:
    """Pointwise mean/max/min of the per-agent average regret, held read-only
    and adopted or copied as ``_frozen`` rules."""

    avg: np.ndarray
    sup: np.ndarray
    inf: np.ndarray

    def __post_init__(self):
        for name in ("avg", "sup", "inf"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def envelopes(series: RegretSeries) -> Envelopes:
    a = series.average
    avg, sup, inf = a.mean(axis=0), a.max(axis=0), a.min(axis=0)
    avg.flags.writeable = sup.flags.writeable = inf.flags.writeable = False   # handed over without a copy
    return Envelopes(avg=avg, sup=sup, inf=inf)


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


def regret_upper_bound(constants: ProblemConstants, zeta: float, params: ScheduleParams,
                       stream: LossStream, x_init: np.ndarray) -> BoundReport:
    """Evaluate the analytic dynamic-regret bound for a tracked run of ``stream``.

    Valid for the multi-iteration modes with ``alpha_t = 1/(rho K_t)``. The
    inner counts are the ones every run of the stream steps,
    ``inner_count(params, t, stream.T)``, and the mixing rate is that of a
    schedule whose nonzero weights are at least ``zeta``. The variation term
    uses the analytic upper bound, so the result is a true upper bound on
    every agent's final dynamic regret.
    """
    if params.mode is ScheduleMode.BASELINE:
        raise ValueError("the bound does not cover the fixed-step baseline")
    counts = [inner_count(params, t, stream.T) for t in range(1, stream.T + 1)]
    mixing = MixingConstants.from_zeta(zeta, stream.n)

    n, m, l_x, g_x = stream.n, constants.diameter, constants.grad_norm_bound, constants.grad_lipschitz
    sig, gam, rho = mixing.rate, mixing.coeff, params.rho

    x_init = np.asarray(x_init, dtype=float)
    sum_norm = float(np.linalg.norm(x_init, axis=1).sum())
    sum_dev = float(np.linalg.norm(x_init - x_init.mean(axis=0), axis=1).sum())

    one_minus_sig = 1.0 - sig
    one_minus_sig_k1 = 1.0 - sig ** counts[0]
    inv_rho_factor = -1.0 / math.expm1(-1.0 / rho)   # 1 / (1 - exp(-1/rho)), without cancellation at large rho

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

    variation = function_variation_bound(stream)
    inv_sum = _left_sum(1.0 / k for k in counts)
    return BoundReport(e1=float(e1), e2=float(e2), e3=float(e3),
                       variation_bound=variation, inv_count_sum=inv_sum)
