"""Time-varying communication graphs with doubly stochastic weights.

Every round of a schedule is an independent seeded draw, so rounds can be
materialized in any order (or concurrently), and again, and always yield the
same matrices; a schedule stores none of them. Matrix products are evaluated
with a fixed association order for bit determinism.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .problem import _frozen, _is_integer, _shown

PRODUCT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """One round's mixing weights, held read-only as ``_frozen`` rules."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen(self.weights)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        if w.size and not (w.min() >= 0 and w.max() < np.inf):   # a negative, infinite or NaN weight
            i, j = np.argwhere(~((w >= 0) & (w < np.inf)))[0]
            raise ValueError(f"weight ({i}, {j}) must be finite and >= 0, got {w[i, j]}")
        object.__setattr__(self, "weights", w)

    @property
    def zeta(self) -> float:
        """The smallest positive weight, computed when read."""
        return float(self.weights[self.weights > 0].min())

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def directed_edges(self) -> int:
        """Number of off-diagonal nonzero, so positive, entries (one per transmission)."""
        return int(np.count_nonzero(self.weights > 0) - np.count_nonzero(self.weights.diagonal() > 0))


def _connected(adj: np.ndarray) -> bool:
    """Whether every agent is reachable from agent 0 over a symmetric adjacency."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    front = seen.copy()
    while front.any():
        front = adj[front].any(axis=0) & ~seen
        seen |= front
    return bool(seen.all())


def _metropolis(adj: np.ndarray) -> WeightMatrix:
    """Metropolis weights of a symmetric boolean adjacency with an empty diagonal."""
    if not _connected(adj):
        raise ValueError("edge set does not form a connected graph")
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    a = np.zeros((n, n))
    ii, jj = np.divmod(np.flatnonzero(adj), n)   # row-major, as np.nonzero
    a[ii, jj] = 1.0 / (1.0 + np.maximum(deg[ii], deg[jj]))
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    a.flags.writeable = False   # adopted without a copy
    return WeightMatrix(weights=a)


def metropolis_weights(edges, n: int) -> WeightMatrix:
    """Metropolis-Hastings weights for an undirected edge set.

    ``A[i, j] = 1 / (1 + max(deg_i, deg_j))`` on edges, with the diagonal
    filling each row to sum 1; symmetry makes the result doubly stochastic.
    Raises if an endpoint is not an integer (Python or NumPy, bool excluded)
    in ``0..n-1``, or if the graph is disconnected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in (i, j)):
            raise ValueError(f"edge ({i!r}, {j!r}) endpoints must be integers")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range")
        if i == j:
            continue
        adj[i, j] = adj[j, i] = True
    return _metropolis(adj)


class GraphSchedule:
    """Seeded per-round source of weight matrices.

    ``matrix(t)`` rebuilds round ``t`` on every call and keeps nothing, so a
    schedule's memory does not grow with its horizon; a caller that needs a
    round twice holds on to it, or pays the build again.

    ``zeta`` is a lower bound on nonzero entries valid for every round (the
    Metropolis construction guarantees ``1/n``), in ``(0, 1]``; each round's
    ``WeightMatrix.zeta`` reads its realized minimum.
    """

    def __init__(self, n: int, horizon: int, builder: Callable[[int], WeightMatrix], zeta: float):
        if n < 1 or horizon < 1:
            raise ValueError("n and horizon must be >= 1")
        if not 0.0 < zeta <= 1.0:
            raise ValueError(f"zeta must lie in (0, 1], got {zeta}")
        self.n = n
        self.horizon = horizon
        self.zeta = float(zeta)
        self._builder = builder

    def matrix(self, t: int) -> WeightMatrix:
        if not 1 <= t <= self.horizon:
            raise ValueError(f"round {t} out of range 1..{self.horizon}")
        got = self._builder(t)
        if got.n != self.n:
            raise ValueError("builder produced a matrix of the wrong size")
        return got


def random_connected_schedule(n: int, horizon: int, edge_prob: float, seed: int) -> GraphSchedule:
    """Erdos-Renyi edges at rate ``edge_prob`` plus a random Hamiltonian
    cycle per round, with the Metropolis weights of :func:`metropolis_weights`.

    The forced cycle makes every round connected without rejection sampling.
    Each round's adjacency is built with array operations and goes through
    the same connectivity check as an explicit edge list. The strict upper
    triangle's mask and each cycle position's successor are built once per
    schedule, not per round.
    Each round is drawn from ``default_rng((seed, t))``, mask first and cycle
    permutation second, so rounds are independent pure functions of the seed.
    """
    if n < 2:
        raise ValueError("need at least two agents for a communication graph")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    successor = np.roll(np.arange(n), -1)

    def build(t: int) -> WeightMatrix:
        rng = np.random.default_rng((seed, t))
        adj = rng.random((n, n)) < edge_prob
        adj &= upper
        perm = rng.permutation(n)
        adj[perm, perm[successor]] = True
        adj |= adj.T   # NumPy buffers the overlapping transpose, so this is adj | adj.T
        return _metropolis(adj)

    return GraphSchedule(n=n, horizon=horizon, builder=build, zeta=1.0 / n)


@dataclass(frozen=True)
class MixingConstants:
    """Geometric mixing certificate ``coeff * rate**(factors - 1)`` with
    ``rate = 1 - zeta / (4 n^2)`` and ``coeff = 1 / rate``."""

    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise ValueError("rate must lie in (0, 1)")

    @property
    def coeff(self) -> float:
        return 1.0 / self.rate

    @classmethod
    def from_zeta(cls, zeta: float, n: int) -> "MixingConstants":
        return cls(rate=1.0 - zeta / (4.0 * n * n))

    def bound(self, factors: int) -> float:
        """The certificate of a product of ``factors`` weight matrices."""
        try:
            return self.coeff * self.rate ** (factors - 1)
        except OverflowError:   # an exponent too large for a float, where the power is 0
            return 0.0


def is_vacuous(bound: float, n: int) -> bool:
    """Whether every nonnegative ``n x n`` product whose row sums lie within
    ``PRODUCT_TOL`` of 1 meets ``max_ij |P_ij - 1/n| <= bound``.

    Such a product's entries lie in ``[0, 1 + PRODUCT_TOL]``, so their
    deviation from ``1/n`` is at most ``1 - 1/n + PRODUCT_TOL``.
    """
    return bound >= 1.0 - 1.0 / n + PRODUCT_TOL


@dataclass(frozen=True, eq=False)
class MixingFold:
    """The ordered products ``A_t^{K_t} ... A_s^{K_s}`` of rounds ``s..t``,
    folded one round at a time.

    ``add`` takes the rounds in order. With ``product`` set (the default) it
    keeps the first round's weights ``A_s`` and count ``K_s``, and
    left-multiplies each later round's power onto ``rest``, the product of
    rounds ``s+1..t`` (the identity until the second round); nothing else of
    a round is kept. :meth:`closed` finishes a product on the first round's
    power.

    Without ``product`` the fold keeps no ``n x n`` array, only what the
    double stochasticity check reads: ``rows``, the product's row sums
    (``r <- A r``, ``K`` times a round), and ``column_drift``, the largest
    ``max_j |[1' A^K]_j - 1|`` of any one round's power. Column sums of a
    left product cannot be folded forward as a vector, so that side is
    checked round by round. :func:`check_mixing` accepts such a fold only
    where its certificate is vacuous (:func:`is_vacuous`).

    A fold is a frozen value: ``add`` returns a new fold and leaves its
    receiver as it was, and every array a fold holds is read-only.
    :func:`run <domfw.algorithm.run>` folds its rounds ``1..T`` as it steps
    them and returns the fold as ``Trajectory.mixing``; it keeps the product
    unless the run's certificate, known from its counts before round 1, is
    vacuous.
    """

    n: int
    product: bool = True
    rounds: int = field(default=0, init=False)        # rounds folded
    total: int = field(default=0, init=False)         # sum of the folded counts
    first_count: int = field(default=0, init=False)   # K_s
    first: np.ndarray | None = field(default=None, init=False)
    rest: np.ndarray | None = field(default=None, init=False)
    rows: np.ndarray | None = field(default=None, init=False)
    column_drift: float = field(default=0.0, init=False)

    def __post_init__(self):
        if self.product:
            object.__setattr__(self, "rest", _frozen(np.eye(self.n)))
        else:
            object.__setattr__(self, "rows", _frozen(np.ones(self.n)))

    def add(self, wm: WeightMatrix, k: int) -> MixingFold:
        """This fold with the next round, with weights ``wm`` and count ``k``, folded in."""
        if not _is_integer(k):
            raise ValueError(f"inner count k must be an integer, got {_shown(k, repr)}")
        if k < 1:
            raise ValueError("inner counts must be >= 1")
        if wm.n != self.n:
            raise ValueError("weight matrix size does not match the fold")
        k = int(k)
        if not self.product:
            rows, columns, a, a_t = self.rows, np.ones(self.n), wm.weights, wm.weights.T
            for _ in range(k):   # ndarray.dot: about half the call cost of @ on a vector
                rows = a.dot(rows)
                columns = a_t.dot(columns)
            rows.flags.writeable = False   # handed over without a copy
            drift = float(np.maximum(self.column_drift, np.abs(columns - 1.0).max()))   # NaN stays NaN
            changed = {"rows": rows, "column_drift": drift}
        elif self.rounds:
            rest = np.linalg.matrix_power(wm.weights, k) @ self.rest
            rest.flags.writeable = False   # handed over without a copy
            changed = {"rest": rest}
        else:
            changed = {"first": wm.weights, "first_count": k}
        fold = copy.copy(self)
        vars(fold).update(changed, rounds=self.rounds + 1, total=self.total + k)
        return fold

    def closed(self, l: int = 0) -> np.ndarray:
        """``rest @ A_s^{K_s - l}``: the full product at ``l = 0``, and the
        product starting ``l`` steps into round ``s`` for ``1 <= l < K_s``."""
        if not self.product:
            raise ValueError("the fold keeps no product")
        return self.rest @ np.linalg.matrix_power(self.first, self.first_count - l)


def _refuse_drift(drift: float) -> None:
    if not drift <= PRODUCT_TOL:
        raise RuntimeError(f"transition product lost double stochasticity (drift {drift:.3e})")


def _check_drift(product: np.ndarray) -> None:
    _refuse_drift(max(np.abs(product.sum(axis=0) - 1.0).max(), np.abs(product.sum(axis=1) - 1.0).max()))


@dataclass(frozen=True)
class MixingReport:
    """Entrywise deviation from uniform averaging against its certificate.

    ``deviation`` is ``None`` when the fold kept no product, which
    :func:`check_mixing` allows only where the bound is vacuous; ``margin``
    and ``shifted_margin`` are ``None`` with it. ``trivial_bound``,
    ``1 - 1/n``, is what every nonnegative doubly stochastic product meets.
    """

    deviation: float | None
    bound: float
    shifted_margin: float | None   # None when the first round has one step, or without the product
    n: int

    def __post_init__(self):
        if self.deviation is None and not self.vacuous:
            raise ValueError("a report without a deviation needs a vacuous bound")

    @property
    def trivial_bound(self) -> float:
        return 1.0 - 1.0 / self.n

    @property
    def vacuous(self) -> bool:
        return is_vacuous(self.bound, self.n)

    @property
    def margin(self) -> float | None:
        return None if self.deviation is None else self.bound - self.deviation

    @property
    def holds(self) -> bool:
        return self.margin is None or self.margin >= 0

    @property
    def shifted_holds(self) -> bool:
        return self.shifted_margin is None or self.shifted_margin >= 0

    @property
    def ok(self) -> bool:
        return self.holds and self.shifted_holds


def check_mixing(fold: MixingFold, zeta: float) -> MixingReport:
    """Evaluate the geometric mixing certificate on the products of a fold.

    For a fold of rounds ``s..t``, such as a run's ``Trajectory.mixing``,
    checks ``max_ij |[A_t^{K_t} ... A_s^{K_s}]_ij - 1/n| <= coeff *
    rate**(sum K - 1)`` and, for every partial power ``1 <= l <= K_s - 1``,
    the shifted product ``A_t^{K_t} ... A_{s+1}^{K_{s+1}} A_s^{K_s - l}``
    against the bound with exponent reduced by ``l``. ``zeta`` is a lower
    bound on the folded rounds' nonzero weights, such as the schedule's
    ``zeta``. Raises if the fold is empty or a product lost double
    stochasticity, the full one first.

    A fold that kept no product is checked only for double stochasticity,
    from its row sums and per-round column drift, and its report carries no
    deviation. Its bound must be vacuous, and then so are the shifted
    bounds, which are larger; otherwise this raises.
    """
    if not fold.rounds:
        raise ValueError("the fold holds no round")
    n = fold.n
    mc = MixingConstants.from_zeta(zeta, n)
    if not fold.product:
        bound = mc.bound(fold.total)
        if not is_vacuous(bound, n):
            raise ValueError(f"the fold keeps no product, but its bound {bound!r} at zeta {zeta!r} "
                             f"is below 1 - 1/n + PRODUCT_TOL")
        _refuse_drift(float(np.maximum(np.abs(fold.rows - 1.0).max(), fold.column_drift)))
        return MixingReport(deviation=None, bound=bound, shifted_margin=None, n=n)
    deviations, bounds = [], []   # at l = 0, 1, ..., K_s - 1
    for l in range(fold.first_count):
        part = fold.closed(l)
        if not l:   # the full product, then the rounds after the first
            _check_drift(part)
            _check_drift(fold.rest)
        deviations.append(float(np.abs(part - 1.0 / n).max()))
        bounds.append(mc.bound(fold.total - l))
    shifted = [b - d for b, d in zip(bounds[1:], deviations[1:])]
    return MixingReport(deviation=deviations[0], bound=float(bounds[0]),
                        shifted_margin=min(shifted) if shifted else None, n=n)
