"""Time-varying communication graphs with doubly stochastic weights.

Every round of a schedule is an independent seeded draw, so rounds can be
materialized in any order (or concurrently), and again, and always yield the
same matrices; a schedule stores none of them. Matrix products are evaluated
with a fixed association order for bit determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

PRODUCT_TOL = 1e-10


@dataclass(frozen=True)
class WeightMatrix:
    """One round's mixing weights plus the smallest nonzero entry.

    The weights are held read-only. They are copied unless they already are
    a read-only float array that owns its memory, which is adopted as it is.
    """

    weights: np.ndarray
    zeta: float

    def __post_init__(self):
        w = self.weights
        if not (isinstance(w, np.ndarray) and w.dtype == float and not w.flags.writeable and w.base is None):
            w = np.array(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def directed_edges(self) -> int:
        """Number of off-diagonal nonzero entries (one per transmission)."""
        return int(np.count_nonzero(self.weights) - np.count_nonzero(np.diagonal(self.weights)))


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
    ii, jj = np.nonzero(adj)
    a[ii, jj] = 1.0 / (1.0 + np.maximum(deg[ii], deg[jj]))
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    zeta = float(a[a > 0].min())
    a.flags.writeable = False   # adopted without a copy
    return WeightMatrix(weights=a, zeta=zeta)


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
    Metropolis construction guarantees ``1/n``); each round's ``WeightMatrix``
    carries its realized minimum.
    """

    def __init__(self, n: int, horizon: int, builder: Callable[[int], WeightMatrix], zeta: float):
        if n < 1 or horizon < 1:
            raise ValueError("n and horizon must be >= 1")
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
    the same connectivity check as an explicit edge list.
    Each round is drawn from ``default_rng((seed, t))``, mask first and cycle
    permutation second, so rounds are independent pure functions of the seed.
    """
    if n < 2:
        raise ValueError("need at least two agents for a communication graph")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")

    def build(t: int) -> WeightMatrix:
        rng = np.random.default_rng((seed, t))
        adj = np.triu(rng.random((n, n)) < edge_prob, 1)
        perm = rng.permutation(n)
        adj[perm, np.roll(perm, -1)] = True
        return _metropolis(adj | adj.T)

    return GraphSchedule(n=n, horizon=horizon, builder=build, zeta=1.0 / n)


def constant_schedule(wm: WeightMatrix, horizon: int) -> GraphSchedule:
    """The same weight matrix every round (handy for tests and baselines)."""
    return GraphSchedule(n=wm.n, horizon=horizon, builder=lambda t: wm, zeta=wm.zeta)


@dataclass(frozen=True)
class MixingConstants:
    """Geometric mixing certificate ``coeff * rate**(factors - 1)``.

    ``rate = 1 - zeta / (4 n^2)`` and ``coeff = 1 / rate``, so
    ``coeff * rate == 1``.
    """

    rate: float
    coeff: float

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise ValueError("rate must lie in (0, 1)")
        if self.coeff <= 1.0:
            raise ValueError("coeff must exceed 1")

    @classmethod
    def from_zeta(cls, zeta: float, n: int) -> "MixingConstants":
        rate = 1.0 - zeta / (4.0 * n * n)
        return cls(rate=rate, coeff=1.0 / rate)


class MixingFold:
    """The ordered products ``A_t^{K_t} ... A_s^{K_s}``, folded one round at a time.

    ``add`` takes the rounds in order from ``start``. It raises each round's
    weights to its count once and left-multiplies the power onto ``full`` and,
    when the first count ``K_s`` exceeds 1 and ``shifted`` is set, onto
    ``tail``, the product without the first round's factor. ``first`` keeps
    ``A_s`` for the shifted checks of :func:`check_mixing`; nothing else of a
    round is kept. :func:`run <domfw.algorithm.run>` folds its rounds as it
    steps them, and :func:`check_mixing` and :func:`transition_product` fold
    a window of a schedule.
    """

    def __init__(self, n: int, start: int = 1, shifted: bool = True):
        self.n = n
        self.start = start
        self.stop = start - 1             # last round folded
        self.total = 0                    # sum of the folded counts
        self.first_count = 0              # K_s
        self.first: np.ndarray | None = None
        self.full = np.eye(n)
        self.tail: np.ndarray | None = None
        self._shifted = shifted

    def add(self, wm: WeightMatrix, k: int) -> None:
        """Fold in round ``stop + 1`` with weights ``wm`` and count ``k``."""
        k = int(k)
        if k < 1:
            raise ValueError("inner counts must be >= 1")
        if wm.n != self.n:
            raise ValueError("weight matrix size does not match the fold")
        power = np.linalg.matrix_power(wm.weights, k)
        self.full = power @ self.full
        if self.stop < self.start:
            self.first_count = k
            if self._shifted and k > 1:
                self.first = wm.weights
                self.tail = np.eye(self.n)
        elif self.tail is not None:
            self.tail = power @ self.tail
        self.stop += 1
        self.total += k

    def check_drift(self) -> None:
        """Raise if a nonempty product lost double stochasticity, the full one first."""
        if self.stop >= self.start:
            _check_drift(self.full)
        if self.tail is not None and self.stop > self.start:
            _check_drift(self.tail)


def _fold(schedule: GraphSchedule, counts: Sequence[int], t: int, s: int, shifted: bool) -> MixingFold:
    """Fold rounds ``s..t`` of ``schedule`` with their ``counts``, building each round once."""
    fold = MixingFold(schedule.n, start=s, shifted=shifted)
    for p in range(s, t + 1):
        fold.add(schedule.matrix(p), counts[p - 1])
    return fold


def _check_drift(product: np.ndarray) -> None:
    drift = max(np.abs(product.sum(axis=0) - 1.0).max(), np.abs(product.sum(axis=1) - 1.0).max())
    if drift > PRODUCT_TOL:
        raise RuntimeError(f"transition product lost double stochasticity (drift {drift:.3e})")


def transition_product(schedule: GraphSchedule, counts: Sequence[int], t: int, s: int) -> np.ndarray:
    """Ordered product of per-round matrices, each raised to its inner count.

    Returns ``A_t^{K_t} A_{t-1}^{K_{t-1}} ... A_s^{K_s}``; by convention the
    product over the empty range ``s == t + 1`` is the identity. The result
    of a nonempty product is checked to stay doubly stochastic.
    """
    if not 1 <= s <= t + 1 or t > schedule.horizon:
        raise ValueError(f"need 1 <= s <= t + 1 <= {schedule.horizon + 1}, got t={t} s={s}")
    fold = _fold(schedule, counts, t, s, shifted=False)
    fold.check_drift()
    return fold.full


@dataclass(frozen=True)
class MixingReport:
    """Entrywise deviation from uniform averaging against its certificate."""

    deviation: float
    bound: float
    margin: float
    holds: bool
    shifted_margin: float | None
    shifted_holds: bool

    @property
    def ok(self) -> bool:
        return self.holds and self.shifted_holds


def check_mixing(schedule: GraphSchedule, counts: Sequence[int], t: int, s: int,
                 zeta: float | None = None, products: MixingFold | None = None) -> MixingReport:
    """Evaluate the geometric mixing certificate for ``transition_product``.

    Checks ``max_ij |[product]_ij - 1/n| <= coeff * rate**(sum K - 1)`` and,
    for every partial power ``1 <= l <= K_s - 1``, the shifted product
    ``A_t^{K_t} ... A_{s+1}^{K_{s+1}} A_s^{K_s - l}`` against the bound with
    exponent reduced by ``l``. ``zeta`` defaults to the schedule-wide bound.

    ``products`` is a fold of exactly rounds ``s..t`` with these counts, such
    as a run's ``Trajectory.mixing``; without it, the rounds are built from
    the schedule and folded here.
    """
    if not 1 <= s <= t <= schedule.horizon:
        raise ValueError(f"need 1 <= s <= t <= {schedule.horizon}")
    n = schedule.n
    mc = MixingConstants.from_zeta(schedule.zeta if zeta is None else zeta, n)
    if products is None:
        products = _fold(schedule, counts, t, s, shifted=True)
    else:
        window = [int(counts[p - 1]) for p in range(s, t + 1)]
        folded = (products.n, products.start, products.stop, products.first_count, products.total)
        if folded != (n, s, t, window[0], sum(window)) or (window[0] > 1 and products.tail is None):
            raise ValueError(f"products do not fold rounds {s}..{t} of this schedule with these counts")
    products.check_drift()

    total, head, k_s = products.total, products.tail, products.first_count
    deviation = float(np.abs(products.full - 1.0 / n).max())
    bound = mc.coeff * mc.rate ** (total - 1)
    margin = bound - deviation

    shifted_margin = None
    shifted_holds = True
    if head is not None:
        a_s = products.first
        worst = np.inf
        for l in range(1, k_s):
            part = head @ np.linalg.matrix_power(a_s, k_s - l)
            dev_l = float(np.abs(part - 1.0 / n).max())
            worst = min(worst, mc.coeff * mc.rate ** (total - l - 1) - dev_l)
        shifted_margin = float(worst)
        shifted_holds = worst >= 0
    return MixingReport(deviation=deviation, bound=float(bound), margin=float(margin),
                        holds=margin >= 0, shifted_margin=shifted_margin, shifted_holds=shifted_holds)


def write_schedule_csv(schedule: GraphSchedule, path, rounds: Sequence[int] | None = None) -> None:
    """Dump nonzero weights as rows ``round, i, j, weight``."""
    rounds = range(1, schedule.horizon + 1) if rounds is None else rounds
    with Path(path).open("w", newline="") as fh:
        fh.write("round,i,j,weight\n")
        for t in rounds:
            a = schedule.matrix(t).weights
            ii, jj = np.nonzero(a)   # row-major order
            for i, j, w in zip(ii.tolist(), jj.tolist(), a[ii, jj].tolist()):
                fh.write(f"{t},{i},{j},{w!r}\n")
