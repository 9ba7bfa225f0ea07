"""Test oracles: slow, plain implementations the library is checked against.

None of these runs in the simulator. The checked forms of the library's step
and gradient bodies (``consensus_step``, ``tracking_step``, ``fw_step``,
``local_grads``, ``global_grad``, ``loss_eval``, ``grad_eval``) check their
arguments on every call and then run the library's own private body, so a
test can drive one operation at a time with the run's arithmetic.
``inner_steps`` steps a round with them and yields one ``InnerStep`` per
inner iteration: the per-step view of the round that ``run_round`` steps in
its buffers.
``plain_connected_round`` draws a round of ``random_connected_schedule`` as
an explicit edge list, with ``np.triu`` and ``np.roll`` on every call.
``constant_schedule`` repeats one weight matrix every round, ``fold_window``
folds rounds ``s..t`` of a schedule into a ``MixingFold`` for
``check_mixing``, and ``transition_product`` is that window's checked
product. ``read_stream_csv`` reads a ``stream.csv`` dump back. ``project`` and
``projected_gradient_optimum`` are an independent route to the round optima
(the algorithm under study never projects), certified by a gap taken over
every vertex. ``ReferenceRoundOptimizer`` and
``reference_function_variation`` and ``reference_redrawn_variation`` are the
straightforward forms of the library's pairwise Frank-Wolfe solver and its
fixed- and redrawn-feature variation estimates; the library's faster forms
must agree with them bit for bit. ``CONSERVATION_TOL`` and
``FEASIBILITY_RUN_TOL`` bound a test run's conservation and feasibility
gaps. ``validate`` checks a weight matrix against the mixing assumptions,
with SciPy's strong-connectivity search as an oracle independent of the
library's own connectivity check. ``exact_zeta`` (the realized smallest weight over a
schedule) and ``lo_call_count`` (a run's oracle calls from the schedule's
definition) are totals the simulator never needs. ``WORKLOADS`` and
``BENCH_DIGESTS`` are the benchmark's workloads and its recorded output
digests, read from ``perfbench/``. ``kernel_note`` names, for a failed
golden pin, the OpenBLAS kernel its bits were recorded on and the one this
process runs (``blas_kernel``). ``shadow_sum`` puts a stand-in for the
builtin ``sum`` in every ``domfw`` module: ``neumaier_sum``, the compensated
float sum of Python 3.12 on, or ``float_refusing_sum``.
"""

from __future__ import annotations

import builtins
import csv
import ctypes
import importlib.util
import json
import math
import pkgutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import domfw
from domfw.algorithm import ScheduleParams, _fw_step, _mix, _track, inner_count
from domfw.network import GraphSchedule, MixingFold, WeightMatrix, _check_drift, metropolis_weights
from domfw.problem import (
    ConstraintKind,
    ConstraintSpec,
    LossStream,
    _global_grad,
    _left_sum,
    _local_grads,
    global_loss,
    lmo,
    sample_feasible,
)
from domfw.regret import OptimumRecord, SolverError, _gap_floor, _quadratic


def consensus_step(xs: np.ndarray, wm: WeightMatrix) -> np.ndarray:
    """Mix all agents' iterates: row ``i`` becomes ``sum_j A[i, j] xs[j]``."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[0] != wm.n:
        raise ValueError(f"expected ({wm.n}, d) stacked iterates, got {xs.shape}")
    return _mix(wm.weights, xs)


def tracking_step(grad_tracked_prev: np.ndarray | None, grad_prev: np.ndarray | None,
                  grad_fresh: np.ndarray, wm: WeightMatrix, k: int):
    """One gradient-tracking update for all agents at inner step ``k``.

    Returns ``(grad_tracked_pre, grad_tracked)``. Step ``k = 1`` starts from
    the zero state, as a run's rounds do; a ``k > 1`` update requested
    without the previous state raises.
    """
    grad_fresh = np.asarray(grad_fresh, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        grad_tracked_prev = grad_prev = np.zeros_like(grad_fresh)
    elif grad_tracked_prev is None or grad_prev is None:
        raise RuntimeError("tracking update at k > 1 requires the previous tracked and local gradients")
    return _track(grad_tracked_prev, grad_prev, grad_fresh, wm.weights)


def fw_step(x_mixed: np.ndarray, grad_tracked: np.ndarray, alpha: float, spec: ConstraintSpec):
    """Frank-Wolfe update from the mixed iterates, row by row.

    ``x_mixed`` and ``grad_tracked`` are one agent's ``(d,)`` vectors or all
    agents' stacked ``(n, d)`` rows. Returns ``(x_next, vertex)`` with
    ``x_next = x_mixed + alpha * (v - x_mixed)``.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    v = lmo(spec, grad_tracked)
    return _fw_step(x_mixed, v, alpha), v


def _check_agent(stream: LossStream, i: int):
    if not 0 <= i < stream.n:
        raise ValueError(f"agent {i} out of range 0..{stream.n - 1}")


def _check_point(stream: LossStream, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (stream.d,):
        raise ValueError(f"point shape {x.shape} != ({stream.d},)")
    return x


def loss_eval(stream: LossStream, t: int, i: int, x: np.ndarray) -> float:
    """Agent ``i``'s loss at round ``t``."""
    stream._check_round(t)
    _check_agent(stream, i)
    x = _check_point(stream, x)
    a = stream.feature_matrix(t)[i]
    r = float(a @ x) - stream.labels[i, t - 1]
    return 0.5 * r * r + stream.lambda1 * float(x @ x)


def local_grads(stream: LossStream, t: int, xs: np.ndarray) -> np.ndarray:
    """Every agent's gradient of its own loss at round ``t``, at its own row
    of the stacked points ``xs`` of shape ``(n, d)``."""
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (stream.n, stream.d):
        raise ValueError(f"expected ({stream.n}, {stream.d}) stacked points, got {xs.shape}")
    return _local_grads(stream.feature_matrix(t), stream.labels[:, t - 1], stream.lambda1, xs)


def grad_eval(stream: LossStream, t: int, i: int, x: np.ndarray) -> np.ndarray:
    """Gradient of :func:`loss_eval` in ``x``: row ``i`` of :func:`local_grads`."""
    stream._check_round(t)
    _check_agent(stream, i)
    xs = np.zeros((stream.n, stream.d))
    xs[i] = _check_point(stream, x)
    return local_grads(stream, t, xs)[i]


def global_grad(stream: LossStream, t: int, x: np.ndarray) -> np.ndarray:
    """Gradient of ``global_loss`` in ``x``: the stacked body run on one point."""
    x = np.asarray(x, dtype=float)
    return _global_grad(stream.feature_matrix(t), stream.labels[:, t - 1], stream.lambda1, x[None])[0]


@dataclass(frozen=True, eq=False)
class InnerStep:
    """All agents' variables at one inner iteration (stacked ``(n, d)`` rows)."""

    x: np.ndarray                  # iterates before consensus
    x_mixed: np.ndarray            # after consensus
    grad_local: np.ndarray         # fresh local gradients at x_mixed
    grad_tracked_pre: np.ndarray   # tracked gradients before the tracking mix
    grad_tracked: np.ndarray       # after the tracking mix
    vertex: np.ndarray             # linear-oracle outputs
    x_next: np.ndarray             # iterates after the Frank-Wolfe step


def inner_steps(xs: np.ndarray, stream: LossStream, wm: WeightMatrix, alpha: float, k_t: int, t: int):
    """Yield round ``t``'s ``k_t`` inner iterations from ``xs``, one ``InnerStep`` each.

    Each iteration mixes the iterates, refreshes the local gradients at the
    mixed points, updates the tracked gradients and takes the Frank-Wolfe
    step, each with its checked operation; the last step's ``x_next`` is the
    round's committed decision, the one ``run_round`` returns.
    """
    x, grad_tracked, grad_prev = np.asarray(xs, dtype=float), None, None
    for k in range(1, k_t + 1):
        x_mixed = consensus_step(x, wm)
        grad_local = local_grads(stream, t, x_mixed)
        grad_tracked_pre, grad_tracked = tracking_step(grad_tracked, grad_prev, grad_local, wm, k)
        x_next, vertex = fw_step(x_mixed, grad_tracked, alpha, stream.constraint)
        yield InnerStep(x, x_mixed, grad_local, grad_tracked_pre, grad_tracked, vertex, x_next)
        x, grad_prev = x_next, grad_local


def read_stream_csv(path):
    """Read a stream dump back as ``(features, labels)`` arrays.

    ``features`` has shape ``(T, n, d)`` (one row per round even when the
    dump came from a fixed-feature stream); ``labels`` has shape ``(n, T)``.
    """
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = len(header) - 3
        rows = [(int(r[0]), int(r[1]), [float(v) for v in r[2:2 + d]], float(r[-1])) for r in reader]
    n = max(r[0] for r in rows) + 1
    T = max(r[1] for r in rows)
    features = np.zeros((T, n, d))
    labels = np.zeros((n, T))
    for i, t, a, b in rows:
        features[t - 1, i] = a
        labels[i, t - 1] = b
    return features, labels


def constant_schedule(wm: WeightMatrix, horizon: int) -> GraphSchedule:
    """The same weight matrix every round."""
    return GraphSchedule(n=wm.n, horizon=horizon, builder=lambda t: wm, zeta=wm.zeta)


def plain_connected_round(n: int, edge_prob: float, seed: int, t: int) -> WeightMatrix:
    """Round ``t`` of ``random_connected_schedule(n, horizon, edge_prob, seed)``
    built plainly from the same draws: the mask's strict upper triangle by
    ``np.triu``, the cycle's successors by ``np.roll``, and the union as an
    explicit edge list for ``metropolis_weights``."""
    rng = np.random.default_rng((seed, t))
    mask = np.triu(rng.random((n, n)) < edge_prob, 1)
    perm = rng.permutation(n)
    edges = list(zip(*np.nonzero(mask))) + list(zip(perm, np.roll(perm, -1)))
    return metropolis_weights(edges, n)


def fold_window(schedule: GraphSchedule, counts: Sequence[int], t: int, s: int) -> MixingFold:
    """Rounds ``s..t`` of ``schedule`` with their ``counts``, folded in order;
    the empty range ``s == t + 1`` gives an empty fold."""
    if not 1 <= s <= t + 1 or t > schedule.horizon:
        raise ValueError(f"need 1 <= s <= t + 1 <= {schedule.horizon + 1}, got t={t} s={s}")
    fold = MixingFold(schedule.n)
    for p in range(s, t + 1):
        fold = fold.add(schedule.matrix(p), counts[p - 1])
    return fold


def transition_product(schedule: GraphSchedule, counts: Sequence[int], t: int, s: int) -> np.ndarray:
    """Ordered product ``A_t^{K_t} ... A_s^{K_s}`` as the fold closes it, the
    identity over the empty range ``s == t + 1``; a nonempty product is
    checked to stay doubly stochastic."""
    fold = fold_window(schedule, counts, t, s)
    if not fold.rounds:
        return np.eye(schedule.n)
    product = fold.closed()
    _check_drift(product)
    return product


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


def _face_points(spec: ConstraintSpec, h: np.ndarray, c: np.ndarray, x: np.ndarray):
    """Least points of ``0.5 z'Hz + c'z`` on the affine hulls of ``x``'s face:
    the points with ``x``'s support and signs on the set's surface
    (``sum |z| = r``) and, on the ball, inside it. Each comes from a
    least-squares solve of its KKT system and is yielded if it keeps the
    signs and lies in the set."""
    support = np.flatnonzero(x)
    sign, k = np.sign(x[support]), support.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = h[np.ix_(support, support)]
    kkt[:k, k] = kkt[k, :k] = sign
    solves = [np.linalg.lstsq(kkt, np.append(-c[support], spec.radius), rcond=None)[0][:k]]
    if spec.kind is ConstraintKind.L1_BALL:
        solves.append(np.linalg.lstsq(kkt[:k, :k], -c[support], rcond=None)[0])
    for z in solves:
        point = np.zeros(spec.dimension)
        point[support] = z
        if (sign * z >= 0).all() and spec.contains(point):
            yield point


def projected_gradient_optimum(stream: LossStream, t: int,
                               tol: float = 1e-9, max_iter: int = 2 * 10 ** 6) -> OptimumRecord:
    """Independent round-optimum solver: projected gradient with step ``1/L``.

    The stopping certificate is the same Frank-Wolfe gap, but evaluated by
    brute enumeration of the vertex set rather than through the oracle. On a
    nearly singular round the steps find the optimum's face long before
    their gap falls below ``tol``, so whenever the iterate enters a new face
    the certificate is also tried at that face's least points
    (``_face_points``): any point it certifies is a round optimum, however
    it was found.
    """
    spec = stream.constraint
    h, c = _quadratic(stream, t)
    lips = float(np.linalg.eigvalsh(h)[-1])
    verts = spec.vertices()
    x = np.full(stream.d, 1.0 / stream.d) if spec.kind is ConstraintKind.UNIT_SIMPLEX else np.zeros(stream.d)
    face, gap = None, math.inf
    for it in range(max_iter):
        points = [x]
        if face != np.sign(x).tobytes():
            face = np.sign(x).tobytes()
            points = [*_face_points(spec, h, c, x), x]
        for point in points:
            g = h @ point + c
            gap = float(point @ g - (verts @ g).min())
            if gap <= tol:
                return OptimumRecord(t=t, x_star=point, f_star=global_loss(stream, t, point),
                                     gap=gap, iterations=it, tol=tol)
        x = project(spec, x - g / lips)   # g is x's gradient: x is the last point tried
    raise SolverError(f"projected gradient: gap {gap:.3e} above tol after {max_iter} iterations", gap=gap)


class ReferenceRoundOptimizer:
    """Pairwise Frank-Wolfe with every product recomputed on every step.

    The same warm-started method as ``domfw.regret.RoundOptimizer``, written
    as plainly as possible: each round builds its quadratic by
    ``_quadratic``, the active set is an array rebuilt on each change, each
    step builds its direction and curvature afresh, and the iterate moves by
    a whole-vector update. It certifies below the same bound, the tolerance
    or the round's gap floor.
    """

    def __init__(self, stream: LossStream, tol: float = 1e-9, max_iter: int = 10 ** 6):
        if tol <= 0:
            raise ValueError("tol must be > 0")
        self.stream = stream
        self.tol = tol
        self.max_iter = max_iter
        self._oracle_slot, _, self._coord, self._sign_r = stream.constraint._oracle
        self._active: tuple[np.ndarray, np.ndarray] | None = None

    def solve(self, t: int) -> OptimumRecord:
        stream = self.stream
        stream._check_round(t)
        h, c = _quadratic(stream, t)
        tol = max(self.tol, _gap_floor(h, c, stream.constraint.radius))
        coord, sign_r = self._coord, self._sign_r

        if self._active is None:
            active = np.array([self._oracle_slot(c)])
            weights = np.zeros(sign_r.size)
            weights[active] = 1.0
        else:
            # renormalize carried-over weights so float drift cannot pile up
            weights, active = self._active
            weights = weights / _left_sum(weights[active].tolist())
        x = np.zeros(stream.d)
        np.add.at(x, coord[active], sign_r[active] * weights[active])

        gap = math.inf
        for it in range(self.max_iter):
            g = h @ x + c
            fw = self._oracle_slot(g)
            gap = float(x @ g) - sign_r[fw] * g[coord[fw]]
            if not math.isfinite(gap):
                raise SolverError(f"round {t}: gap {gap} is not finite at iteration {it}", gap=gap)
            if gap <= tol:
                self._active = (weights, active)
                return OptimumRecord(t=t, x_star=x.copy(), f_star=global_loss(stream, t, x),
                                     gap=gap, iterations=it, tol=tol)
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
        raise SolverError(f"round {t}: gap {gap:.3e} above tol {tol:.1e} "
                          f"after {self.max_iter} iterations", gap=gap)


def reference_function_variation(stream: LossStream, samples: int, seed: int = 0) -> float:
    """The fixed-feature variation over the vertices and ``samples`` seeded
    feasible points, maximized over the whole ``(points, agents)`` array each
    round.

    With ``samples = 0``, the same points and the same per-entry arithmetic as
    ``domfw.problem.estimate_function_variation``.
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


def reference_redrawn_variation(stream: LossStream, samples: int, seed: int) -> float:
    """The redrawn-feature variation estimate with both loss tables of every
    round pair computed afresh.

    Same points and the same per-entry arithmetic as
    ``domfw.problem.estimate_function_variation``, which builds each round's
    table once and reuses it for the next pair.
    """
    if stream.fixed_features:
        raise ValueError("the reference loop covers redrawn features only")
    spec = stream.constraint
    pts = np.vstack([spec.vertices(), sample_feasible(spec, np.random.default_rng(seed), samples)])
    total = 0.0
    sq = np.einsum("md,md->m", pts, pts)
    z_next = pts @ stream.features[0].T
    for t in range(1, stream.T):
        z0, z_next = z_next, pts @ stream.features[t].T
        f0 = 0.5 * (z0 - stream.labels[:, t - 1]) ** 2 + stream.lambda1 * sq[:, None]
        f1 = 0.5 * (z_next - stream.labels[:, t]) ** 2 + stream.lambda1 * sq[:, None]
        total += float(np.abs(f1 - f0).max())
    return total


STOCHASTIC_TOL = 1e-12
#: absolute bounds on a run's tracking-sum conservation and feasibility gaps
#: (``max_conservation_gap``, ``max_feasibility_gap``) for the well-scaled
#: configs the tests run; the library reports both gaps and enforces neither
CONSERVATION_TOL = 1e-9
FEASIBILITY_RUN_TOL = 1e-10


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


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    """The benchmark's workloads, read from ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
#: sha256 of ``trajectory.csv`` and ``regret.csv``, by workload, master seed and run directory
BENCH_DIGESTS = json.loads((BENCH / "digests.json").read_text())


def blas_kernel() -> str:
    """The kernel that the OpenBLAS bundled with NumPy runs in this process
    (``SkylakeX``, ``Haswell``, ...; ``OPENBLAS_CORETYPE`` overrides the
    CPU's pick), read through ``ctypes``; ``"unknown"`` without that library."""
    for path in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("libscipy_openblas*.so*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def kernel_note() -> str:
    """The message of a failed golden pin: golden bits depend on the BLAS kernel."""
    return f"recorded on SkylakeX; this process runs {blas_kernel()}"


def neumaier_sum(iterable, /, start=0):
    """The builtin ``sum`` as CPython 3.12 and later runs it on floats: each
    float item goes through Neumaier's compensated update and the compensation
    is added at the end if it is finite and nonzero. Other items take the
    builtin ``sum`` of the interpreter running the tests."""
    items = list(iterable)
    if not items or not all(type(item) is float for item in items):
        return builtins.sum(items, start)
    if type(start) is not float:   # an int start adds the first item as it stands
        start, items = start + items[0], items[1:]
    total, compensation = start, 0.0
    for item in items:
        step = total + item
        compensation += (total - step) + item if abs(total) >= abs(item) else (item - step) + total
        total = step
    return total + compensation if compensation and math.isfinite(compensation) else total


def float_refusing_sum(iterable, /, start=0):
    """The builtin ``sum``, which raises ``TypeError`` on a float start or item."""
    items = list(iterable)
    if any(isinstance(item, float) for item in [start, *items]):
        raise TypeError(f"builtin sum over floats: {items[:4]}")
    return builtins.sum(items, start)


def shadow_sum(monkeypatch, replacement: Callable) -> None:
    """Make ``replacement`` the ``sum`` every ``domfw`` module calls."""
    for info in pkgutil.iter_modules(domfw.__path__, "domfw."):
        monkeypatch.setattr(importlib.import_module(info.name), "sum", replacement, raising=False)
    monkeypatch.setattr(domfw, "sum", replacement, raising=False)
