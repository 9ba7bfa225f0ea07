"""Constraint sets, streaming ridge-regression losses, and problem constants.

Conventions used across the package: rounds are numbered ``1..T`` (the label
noise decays with the round number, so round numbers start at one), agents
are numbered ``0..n-1`` and double as array indices. The loss gradients and
the linear oracle's body are unchecked private functions (taking a round's
features and labels, or stacked ``(m, d)`` gradients) that the inner loop of
:mod:`domfw.algorithm` runs, checking its inputs once per round; ``lmo`` is
the oracle's checked public form, and ``LossStream`` checks its arrays once,
when it is built. A ``ConstraintSpec`` builds its vertex table once; the
oracle's rule for stacked gradients (``_lmo``) and for one gradient
(``_simplex_slot``, ``_l1_slot``, which :mod:`domfw.regret`'s solver uses)
pick the same slots in it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
# NumPy 2 loads numpy.random on first use; every run draws from it, so load it
# with the package and keep that cost out of the first run
import numpy.random  # noqa: F401

#: absolute tolerance for feasibility checks
FEASIBILITY_TOL = 1e-12

#: seeded feasible points the redrawn-feature variation estimate adds to the vertex table
VARIATION_SAMPLES = 1000


def _shown(value, show=str) -> str:
    """``show(value)``, or the size of an int past the interpreter's digit limit, which it will not write."""
    try:
        return show(value)
    except ValueError:
        return f"an int of over {sys.get_int_max_str_digits()} digits"


def _left_sum(values) -> float:
    """The floats in ``values`` added left to right from ``0.0``: every float total the library takes in
    Python. The builtin ``sum`` compensates float sums from Python 3.12 on, so its bits depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer, bool excluded: the rule for every count, cap and size."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class ConstraintKind(Enum):
    """Supported feasible sets."""

    UNIT_SIMPLEX = "simplex"
    L1_BALL = "l1ball"


@dataclass(frozen=True)
class ConstraintSpec:
    """A compact convex feasible set exposing a vertex-based linear oracle.

    Two sets are supported: the unit probability simplex and the l1 ball of
    a given radius. ``radius`` is fixed at 1 for the simplex and is only a
    free parameter for the ball.
    """

    kind: ConstraintKind
    dimension: int
    radius: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, ConstraintKind):   # a str would build the l1 ball
            raise ValueError(f"kind must be a ConstraintKind, got {_shown(self.kind, repr)}")
        if not _is_integer(self.dimension):
            raise ValueError(f"dimension must be an integer, got {_shown(self.dimension, repr)}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {_shown(self.dimension)}")
        if not 0 < self.radius < np.inf:
            raise ValueError(f"radius must be finite and > 0, got {_shown(self.radius)}")
        if self.radius > sys.float_info.max:   # an int with no float: the vertex table would overflow
            raise ValueError(f"radius must fit in a float, got {_shown(self.radius)}")
        if self.kind is ConstraintKind.UNIT_SIMPLEX and self.radius != 1.0:
            raise ValueError("the unit simplex has radius fixed at 1")

    @classmethod
    def simplex(cls, dimension: int) -> "ConstraintSpec":
        return cls(ConstraintKind.UNIT_SIMPLEX, dimension)

    @classmethod
    def l1_ball(cls, dimension: int, radius: float = 2.0) -> "ConstraintSpec":
        return cls(ConstraintKind.L1_BALL, dimension, radius)

    @cached_property
    def _oracle(self):
        """The linear oracle's parts, built on first use, arrays read-only: the
        slot rule for one gradient ``(d,)``, the vertex table, and each slot's
        coordinate and its signed value there."""
        d = self.dimension
        if self.kind is ConstraintKind.UNIT_SIMPLEX:
            rule, coord, value = _simplex_slot, np.arange(d), np.ones(d)
        else:
            rule, coord, value = _l1_slot, np.arange(2 * d) // 2, np.tile([-self.radius, self.radius], d)
        table = np.zeros((coord.size, d))
        table[np.arange(coord.size), coord] = value
        for a in (table, coord, value):
            a.flags.writeable = False
        return rule, table, coord, value

    def vertices(self) -> np.ndarray:
        """All extreme points, one per row of the read-only vertex table (the
        same array on every call), in the tie-breaking order of :func:`lmo`:
        ``e_0..e_{d-1}`` on the simplex, ``-r*e_0, +r*e_0, -r*e_1, +r*e_1,
        ...`` on the ball."""
        return self._oracle[1]

    def feasibility_violation(self, x: np.ndarray) -> float:
        """Distance-like measure of constraint violation (0 when feasible).

        ``x`` is one point ``(d,)`` or stacked points ``(m, d)``; the result
        is the worst violation over the rows.
        """
        x = np.asarray(x, dtype=float)
        if self.kind is ConstraintKind.UNIT_SIMPLEX:
            return max(float(np.abs(x.sum(axis=-1) - 1.0).max()), max(0.0, -float(x.min())))
        return max(0.0, float(np.abs(x).sum(axis=-1).max()) - self.radius)

    def contains(self, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> bool:
        return self.feasibility_violation(x) <= tol


def lmo(spec: ConstraintSpec, g: np.ndarray) -> np.ndarray:
    """Linear minimization oracle: the vertex minimizing ``<v, g>``.

    Works row-wise: ``g`` is one gradient ``(d,)`` or stacked gradients
    ``(m, d)``, and the result has the shape of ``g``. Ties are broken by
    returning the first minimizer in ``spec.vertices()`` order, which for
    both sets amounts to the lowest coordinate index (with ``sign(0) == +1``
    for the ball).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim not in (1, 2) or g.shape[-1] != spec.dimension:
        raise ValueError(f"gradient shape {g.shape} is neither ({spec.dimension},) nor (m, {spec.dimension})")
    if not np.isfinite(g).all():
        raise ValueError("gradient has non-finite entries")
    return _lmo(spec, np.atleast_2d(g)).reshape(g.shape)


def _simplex_slot(g: np.ndarray) -> int:
    """Slot of the first simplex vertex minimizing ``<v, g>``."""
    return int(g.argmin())


def _l1_slot(g: np.ndarray) -> int:
    """Slot of the first l1-ball vertex minimizing ``<v, g>``."""
    j = int(np.abs(g).argmax())
    return 2 * j + 1 if g[j] < 0 else 2 * j


def _lmo(spec: ConstraintSpec, grads: np.ndarray, out=None) -> np.ndarray:
    """:func:`lmo`'s body on stacked ``(m, d)`` gradients: each row's slot by
    the rule of :func:`_simplex_slot` or :func:`_l1_slot`, and that row of
    the vertex table, written into ``out`` when given."""
    if spec.kind is ConstraintKind.UNIT_SIMPLEX:
        slots = grads.argmin(axis=1)
    else:
        j = np.abs(grads).argmax(axis=1)
        slots = 2 * j + (grads[np.arange(j.size), j] < 0)
    return spec.vertices().take(slots, axis=0, out=out)


def diameter(spec: ConstraintSpec) -> float:
    """Euclidean diameter: sqrt(2) for the simplex, 2r for the l1 ball."""
    if spec.kind is ConstraintKind.UNIT_SIMPLEX:
        return float(np.sqrt(2.0))
    return 2.0 * spec.radius


def sample_feasible(spec: ConstraintSpec, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Seeded feasible points: normalized exponentials on the simplex, a
    random convex mixture of signed vertices on the ball."""
    m = 1 if size is None else size
    d = spec.dimension
    if spec.kind is ConstraintKind.UNIT_SIMPLEX:
        e = rng.standard_exponential((m, d))
        pts = e / e.sum(axis=1, keepdims=True)
    else:
        w = rng.standard_exponential((m, 2 * d))
        w /= w.sum(axis=1, keepdims=True)
        pts = (w[:, :d] - w[:, d:]) * spec.radius
    return pts[0] if size is None else pts


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only float array: adopted as it is when it already is
    one that owns its memory, copied otherwise. A producer hands over a fresh
    array without a copy by clearing its ``writeable`` flag first."""
    if not (isinstance(a, np.ndarray) and a.dtype == float and not a.flags.writeable and a.base is None):
        a = np.array(a, dtype=float)
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LossStream:
    """The full time-indexed family of per-agent ridge losses.

    Agent ``i`` at round ``t`` suffers
    ``f(x) = 0.5 * (a_i @ x - b[i, t-1])**2 + lambda1 * ||x||**2`` where the
    label is ``b[i, t-1] = a_i @ ground_truth + noise[i, t-1] / (4 t)``.

    ``features`` has shape ``(n, d)`` when features are fixed per agent (the
    default regime) or ``(T, n, d)`` when they are redrawn every round. The
    constructor checks the components and freezes them (``_frozen``); the
    labels and the sizes ``n``, ``T`` and ``d`` are derived from them.
    """

    lambda1: float
    features: np.ndarray
    ground_truth: np.ndarray
    noise: np.ndarray       # (n, T), entries in [0, 1]
    constraint: ConstraintSpec
    labels: np.ndarray = field(init=False)   # (n, T), derived

    def __post_init__(self):
        for name in ("features", "ground_truth", "noise"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "lambda1", float(self.lambda1))
        if self.noise.ndim != 2 or 0 in self.noise.shape:
            raise ValueError(f"noise shape {self.noise.shape} is not (n, T) with n, T >= 1")
        n, T, d = self.n, self.T, self.d
        if not 0 <= self.lambda1 < np.inf:
            raise ValueError(f"lambda1 must be finite and >= 0, got {self.lambda1}")
        if self.ground_truth.shape != (d,):
            raise ValueError(f"ground_truth shape {self.ground_truth.shape} does not match constraint dimension {d}")
        if self.features.shape not in ((n, d), (T, n, d)):
            raise ValueError(f"features shape {self.features.shape} is neither {(n, d)} nor {(T, n, d)}")
        bad = np.argwhere(~np.isfinite(self.features))
        if bad.size:
            where = f"agent {bad[0][0]}" if self.fixed_features else f"agent {bad[0][1]} at round {bad[0][0] + 1}"
            raise ValueError(f"features of {where} have non-finite entries")
        bad = np.argwhere(~np.isfinite(self.noise))
        if bad.size:
            raise ValueError(f"noise of agent {bad[0][0]} at round {bad[0][1] + 1} is not finite")
        if np.any(self.noise < 0) or np.any(self.noise > 1):
            raise ValueError("noise entries must lie in [0, 1]")
        if self.features.max() > 5 + FEASIBILITY_TOL or self.features.min() < -(5 + FEASIBILITY_TOL):
            raise ValueError("feature entries must lie in [-5, 5]")
        if not self.constraint.contains(self.ground_truth):
            raise ValueError("ground_truth is infeasible")
        # the clean labels are added onto the noise term in place, which holds no
        # second (n, T) temporary; the sum is bit for bit the same either way round
        labels = self.noise / (4.0 * np.arange(1, T + 1))
        if self.fixed_features:
            labels += (self.features @ self.ground_truth)[:, None]
        else:
            labels += np.einsum("tnd,d->tn", self.features, self.ground_truth).T
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.noise.shape[0]

    @property
    def T(self) -> int:
        return self.noise.shape[1]

    @property
    def d(self) -> int:
        return self.constraint.dimension

    @property
    def fixed_features(self) -> bool:
        return self.features.ndim == 2

    def feature_matrix(self, t: int) -> np.ndarray:
        """Per-agent feature rows ``(n, d)`` for round ``t``."""
        self._check_round(t)
        return self.features if self.fixed_features else self.features[t - 1]

    def _check_round(self, t: int):
        if not 1 <= t <= self.T:
            raise ValueError(f"round {t} out of range 1..{self.T}")


def generate_stream(n: int, T: int, lambda1: float, spec: ConstraintSpec,
                    seed: int, redraw_features: bool = False) -> LossStream:
    """Draw a seeded loss stream over the set ``spec``.

    Features are uniform on ``[-5, 5]^d`` with ``d = spec.dimension`` (one
    draw per agent, or one per agent and round when ``redraw_features``), the
    ground truth is a seeded feasible point, and the noise is uniform on
    ``[0, 1]``. The draw order is fixed (features, ground truth, noise) so
    results are bit-reproducible from the seed. The fresh features and noise
    are handed over to the stream without a copy.
    """
    rng = np.random.default_rng(seed)
    shape = (T, n, spec.dimension) if redraw_features else (n, spec.dimension)
    features = rng.uniform(-5.0, 5.0, shape)
    ground_truth = sample_feasible(spec, rng)
    noise = rng.uniform(0.0, 1.0, (n, T))
    features.flags.writeable = noise.flags.writeable = False
    return LossStream(lambda1, features, ground_truth, noise, spec)


def _local_grads(feats: np.ndarray, labels: np.ndarray, lambda1: float, xs: np.ndarray, out=None) -> np.ndarray:
    """Every agent's gradient of its own loss, at its own row of the stacked
    ``(n, d)`` points; written into ``out`` when given."""
    resid = np.einsum("nd,nd->n", feats, xs) - labels
    return np.add(feats * resid[:, None], (2.0 * lambda1) * xs, out=out)


def global_loss(stream: LossStream, t: int, x: np.ndarray) -> float:
    """Sum of all agents' losses at round ``t`` (fixed agent-index order)."""
    x = np.asarray(x, dtype=float)
    feats = stream.feature_matrix(t)   # checks the round
    resid = feats @ x - stream.labels[:, t - 1]
    return 0.5 * float(resid @ resid) + stream.n * stream.lambda1 * float(x @ x)


def _global_grad(feats: np.ndarray, labels: np.ndarray, lambda1: float, xs: np.ndarray) -> np.ndarray:
    """Gradient of :func:`global_loss` at each row of the stacked ``(K, d)``
    points ``xs``, from the round's features and labels. Both products are
    stacked matrix-vector products, which round row for row as ``feats @ x``
    does; a ``(K, d) @ (d, n)`` product or ``einsum`` need not."""
    resid = np.matmul(feats, xs[:, :, None])[..., 0] - labels
    return np.matmul(feats.T, resid[:, :, None])[..., 0] + 2.0 * feats.shape[0] * lambda1 * xs


def estimate_function_variation(stream: LossStream) -> float:
    """The function variation ``H_T``: the sum over round pairs of the largest
    ``|f_{i,t+1}(x) - f_{i,t}(x)|`` over agents and the set. On fixed features
    the change is affine in ``a_i @ x`` and peaks at a vertex, so the maximum
    over the vertex table is exact up to its own rounding. On redrawn features
    the table adds ``VARIATION_SAMPLES`` seeded feasible points (seed 0), and
    the result is a lower estimate.
    """
    spec = stream.constraint
    if stream.fixed_features:
        # agent i's change is |delta_i * (z - mid_i)| in z = a_i @ x; rounding is
        # monotone, so it peaks at the largest or the smallest z over the vertices
        z = spec.vertices() @ stream.features.T   # (m, n): a_i @ v per vertex and agent
        z_hi, z_lo = z.max(axis=0)[:, None], z.min(axis=0)[:, None]
        b0, b1 = stream.labels[:, :-1], stream.labels[:, 1:]
        delta, mid = b0 - b1, 0.5 * (b0 + b1)
        per_round = np.maximum(np.abs(delta * (z_hi - mid)), np.abs(delta * (z_lo - mid))).max(axis=0).tolist()
    else:
        pts = np.vstack([spec.vertices(), sample_feasible(spec, np.random.default_rng(0), VARIATION_SAMPLES)])
        ridge = stream.lambda1 * np.einsum("md,md->m", pts, pts)[:, None]
        per_round, prev = [], None
        for t in range(stream.T):
            cur = pts @ stream.features[t].T   # round t's (m, n) loss table, built once and in place
            cur -= stream.labels[:, t]
            np.square(cur, out=cur)
            cur *= 0.5
            cur += ridge
            if prev is not None:   # the spent previous table takes the |difference|
                per_round.append(float(np.abs(np.subtract(cur, prev, out=prev), out=prev).max()))
            prev = cur
    return _left_sum(per_round)


def function_variation_bound(stream: LossStream) -> float:
    """Analytic upper bound on the cumulative worst-case loss change.

    Requires fixed per-agent features: the loss difference between rounds is
    then affine in the residual and is bounded by
    ``|b_t - b_{t+1}| * (||a|| R + max(|b_t|, |b_{t+1}|))`` with ``R`` the
    set's radius, its largest norm. Never below the exact fixed-feature variation.
    """
    if not stream.fixed_features:
        raise ValueError("upper bound requires features fixed per agent")
    r_x = stream.constraint.radius
    b0, b1 = stream.labels[:, :-1], stream.labels[:, 1:]   # none at T = 1: the sum is 0
    anorm = np.linalg.norm(stream.features, axis=1)
    per_agent = np.abs(b0 - b1) * (anorm[:, None] * r_x + np.maximum(np.abs(b0), np.abs(b1)))
    return float(per_agent.max(axis=0).sum())


@dataclass(frozen=True)
class ProblemConstants:
    """Diameter, gradient-norm bound, and gradient-Lipschitz bound over the set."""

    diameter: float
    grad_norm_bound: float
    grad_lipschitz: float

    def __post_init__(self):
        for name in ("diameter", "grad_norm_bound", "grad_lipschitz"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")


def problem_constants(stream: LossStream) -> ProblemConstants:
    """Exact analytic bounds for the ridge losses over the feasible set.

    The Hessian of every per-agent loss is ``a a^T + 2 lambda1 I``, so the
    gradient-Lipschitz constant is ``max_i ||a_i||^2 + 2 lambda1``; the
    gradient norm is bounded by
    ``max_i [ ||a_i|| (||a_i|| R + max_t |b_{i,t}|) + 2 lambda1 R ]``.
    """
    r_x = stream.constraint.radius
    feats = stream.features if stream.fixed_features else stream.features.reshape(-1, stream.d)
    anorm = np.linalg.norm(feats, axis=1)
    bmax = np.abs(stream.labels).max(axis=1) if stream.fixed_features else np.abs(stream.labels).max()
    lip = float((anorm * (anorm * r_x + bmax) + 2.0 * stream.lambda1 * r_x).max())
    smooth = float((anorm ** 2).max() + 2.0 * stream.lambda1)
    return ProblemConstants(diameter=diameter(stream.constraint), grad_norm_bound=lip, grad_lipschitz=smooth)
