"""Time-varying communication graphs with doubly stochastic weights.

Every round of a schedule is an independent seeded draw, so rounds can be
materialized in any order (or concurrently) and always yield the same
matrices. Matrix products are evaluated with a fixed association order for
bit determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

STOCHASTIC_TOL = 1e-12
PRODUCT_TOL = 1e-10


@dataclass(frozen=True)
class WeightMatrix:
    """One round's mixing weights plus the smallest nonzero entry."""

    weights: np.ndarray
    zeta: float

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
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
        off = self.weights.copy()
        np.fill_diagonal(off, 0.0)
        return int(np.count_nonzero(off))


def metropolis_weights(edges, n: int) -> WeightMatrix:
    """Metropolis-Hastings weights for an undirected edge set.

    ``A[i, j] = 1 / (1 + max(deg_i, deg_j))`` on edges, with the diagonal
    filling each row to sum 1; symmetry makes the result doubly stochastic.
    Raises if the graph is disconnected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range")
        if i == j:
            continue
        adj[i, j] = adj[j, i] = True
    if n > 1:
        comps, _ = connected_components(csr_matrix(adj), directed=False)
        if comps != 1:
            raise ValueError("edge set does not form a connected graph")
    deg = adj.sum(axis=1)
    a = np.zeros((n, n))
    ii, jj = np.nonzero(adj)
    a[ii, jj] = 1.0 / (1.0 + np.maximum(deg[ii], deg[jj]))
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    zeta = float(a[a > 0].min())
    return WeightMatrix(weights=a, zeta=zeta)


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


class GraphSchedule:
    """Seeded per-round source of weight matrices.

    ``zeta`` is a lower bound on nonzero entries valid for every round (the
    Metropolis construction guarantees ``1/n``); ``exact_zeta`` computes the
    realized minimum instead.
    """

    def __init__(self, n: int, horizon: int, builder: Callable[[int], WeightMatrix], zeta: float):
        if n < 1 or horizon < 1:
            raise ValueError("n and horizon must be >= 1")
        self.n = n
        self.horizon = horizon
        self.zeta = float(zeta)
        self._builder = builder
        self._cache: dict[int, WeightMatrix] = {}

    def matrix(self, t: int) -> WeightMatrix:
        if not 1 <= t <= self.horizon:
            raise ValueError(f"round {t} out of range 1..{self.horizon}")
        got = self._cache.get(t)
        if got is None:
            got = self._builder(t)
            if got.n != self.n:
                raise ValueError("builder produced a matrix of the wrong size")
            self._cache[t] = got
        return got

    def exact_zeta(self, rounds: Sequence[int] | None = None) -> float:
        rounds = range(1, self.horizon + 1) if rounds is None else rounds
        return min(self.matrix(t).zeta for t in rounds)


def random_connected_schedule(n: int, horizon: int, edge_prob: float, seed: int) -> GraphSchedule:
    """Erdos-Renyi edges at rate ``edge_prob`` plus a random Hamiltonian
    cycle per round, weighted by :func:`metropolis_weights`.

    The forced cycle makes every round connected without rejection sampling.
    Each round is drawn from ``default_rng((seed, t))``, mask first and cycle
    permutation second, so rounds are independent pure functions of the seed.
    """
    if n < 2:
        raise ValueError("need at least two agents for a communication graph")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")

    def build(t: int) -> WeightMatrix:
        rng = np.random.default_rng((seed, t))
        mask = rng.random((n, n)) < edge_prob
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]}
        perm = rng.permutation(n)
        for k in range(n):
            i, j = int(perm[k]), int(perm[(k + 1) % n])
            if i != j:
                edges.add((min(i, j), max(i, j)))
        return metropolis_weights(sorted(edges), n)

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


def transition_product(schedule: GraphSchedule, counts: Sequence[int], t: int, s: int) -> np.ndarray:
    """Ordered product of per-round matrices, each raised to its inner count.

    Returns ``A_t^{K_t} A_{t-1}^{K_{t-1}} ... A_s^{K_s}``; by convention the
    product over the empty range ``s == t + 1`` is the identity. The result
    of a nonempty product is checked to stay doubly stochastic.
    """
    if not 1 <= s <= t + 1 or t > schedule.horizon:
        raise ValueError(f"need 1 <= s <= t + 1 <= {schedule.horizon + 1}, got t={t} s={s}")
    out = np.eye(schedule.n)
    for p in range(s, t + 1):
        k = int(counts[p - 1])
        if k < 1:
            raise ValueError("inner counts must be >= 1")
        out = np.linalg.matrix_power(schedule.matrix(p).weights, k) @ out
    if s <= t:
        drift = max(np.abs(out.sum(axis=0) - 1.0).max(), np.abs(out.sum(axis=1) - 1.0).max())
        if drift > PRODUCT_TOL:
            raise RuntimeError(f"transition product lost double stochasticity (drift {drift:.3e})")
    return out


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
                 zeta: float | None = None) -> MixingReport:
    """Evaluate the geometric mixing certificate for ``transition_product``.

    Checks ``max_ij |[product]_ij - 1/n| <= coeff * rate**(sum K - 1)`` and,
    for every partial power ``1 <= l <= K_s - 1``, the shifted product
    ``A_t^{K_t} ... A_{s+1}^{K_{s+1}} A_s^{K_s - l}`` against the bound with
    exponent reduced by ``l``. ``zeta`` defaults to the schedule-wide bound.
    """
    if not 1 <= s <= t <= schedule.horizon:
        raise ValueError(f"need 1 <= s <= t <= {schedule.horizon}")
    n = schedule.n
    mc = MixingConstants.from_zeta(schedule.zeta if zeta is None else zeta, n)
    total = int(sum(int(counts[p - 1]) for p in range(s, t + 1)))

    phi = transition_product(schedule, counts, t, s)
    deviation = float(np.abs(phi - 1.0 / n).max())
    bound = mc.coeff * mc.rate ** (total - 1)
    margin = bound - deviation

    k_s = int(counts[s - 1])
    shifted_margin = None
    shifted_holds = True
    if k_s > 1:
        head = transition_product(schedule, counts, t, s + 1)
        a_s = schedule.matrix(s).weights
        worst = np.inf
        for l in range(1, k_s):
            part = head @ np.linalg.matrix_power(a_s, k_s - l)
            dev_l = float(np.abs(part - 1.0 / n).max())
            worst = min(worst, mc.coeff * mc.rate ** (total - l - 1) - dev_l)
        shifted_margin = float(worst)
        shifted_holds = worst >= 0
    return MixingReport(deviation=deviation, bound=float(bound), margin=float(margin),
                        holds=margin >= 0, shifted_margin=shifted_margin, shifted_holds=shifted_holds)


def mixing_deviation_series(schedule: GraphSchedule, counts: Sequence[int], upto: int) -> np.ndarray:
    """Max entrywise deviation of the product from round 1 through each t.

    Monitoring helper: the series is expected to contract on connected
    schedules but is reported rather than asserted.
    """
    if not 1 <= upto <= schedule.horizon:
        raise ValueError("upto out of range")
    out = np.empty(upto)
    n = schedule.n
    prod = np.eye(n)
    for t in range(1, upto + 1):
        prod = np.linalg.matrix_power(schedule.matrix(t).weights, int(counts[t - 1])) @ prod
        out[t - 1] = np.abs(prod - 1.0 / n).max()
    return out


def write_schedule_csv(schedule: GraphSchedule, path, rounds: Sequence[int] | None = None) -> None:
    """Dump nonzero weights as rows ``round, i, j, weight``."""
    rounds = range(1, schedule.horizon + 1) if rounds is None else rounds
    with Path(path).open("w", newline="") as fh:
        fh.write("round,i,j,weight\n")
        for t in rounds:
            a = schedule.matrix(t).weights
            for i in range(schedule.n):
                for j in range(schedule.n):
                    if a[i, j] != 0.0:
                        fh.write(f"{t},{i},{j},{float(a[i, j])!r}\n")
