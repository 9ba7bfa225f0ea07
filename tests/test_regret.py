import collections
import hashlib
import itertools
import math
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domfw.problem as problem
import domfw.regret as regret
from domfw.algorithm import ScheduleMode, ScheduleParams, Trajectory, inner_count, run
from domfw.harness import derive_seed, parse_config, run_experiment, write_envelopes_csv, write_regret_csv
from domfw.network import MixingConstants, random_connected_schedule
from domfw.problem import (
    FEASIBILITY_TOL,
    ConstraintSpec,
    LossStream,
    generate_stream,
    global_loss,
    problem_constants,
    sample_feasible,
)
from domfw.regret import (
    RoundOptimizer,
    SolverError,
    envelopes,
    regret_series,
    regret_upper_bound,
)
from domfw.regret import RegretSeries
from oracles import WORKLOADS, ReferenceRoundOptimizer, kernel_note, project, projected_gradient_optimum


def enumeration_projection(spec, y):
    """Brute-force projection oracle: enumerate active sets of the QP."""
    d = spec.dimension

    def proj_sum(v, total):
        best, best_dist = None, math.inf
        for mask in itertools.product([0, 1], repeat=d):
            free = [j for j in range(d) if mask[j]]
            if not free:
                continue
            x = np.zeros(d)
            shift = (total - sum(v[j] for j in free)) / len(free)
            for j in free:
                x[j] = v[j] + shift
            if x.min() < -1e-12:
                continue
            dist = float(np.sum((x - v) ** 2))
            if dist < best_dist:
                best, best_dist = x, dist
        return best

    if spec.kind.value == "simplex":
        return proj_sum(y, 1.0)
    if np.abs(y).sum() <= spec.radius:
        return y.copy()
    w = proj_sum(np.abs(y), spec.radius)
    return np.sign(y) * w


class TestProject:
    def test_feasible_point_unchanged(self):
        spec = ConstraintSpec.simplex(3)
        y = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(project(spec, y), y)
        ball = ConstraintSpec.l1_ball(3, 2.0)
        z = np.array([0.5, -1.0, 0.25])
        assert np.array_equal(project(ball, z), z)

    def test_nearest_vertex_on_segment(self):
        spec = ConstraintSpec.simplex(2)
        assert np.allclose(project(spec, np.array([2.0, 0.0])), [1, 0])

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for spec in (ConstraintSpec.simplex(5), ConstraintSpec.l1_ball(5, 2.0)):
            for _ in range(40):
                y = rng.normal(scale=2.0, size=5)
                got = project(spec, y)
                expected = enumeration_projection(spec, y)
                assert np.allclose(got, expected, atol=1e-10)
                assert spec.contains(got, tol=1e-12)

    def test_projection_exactness_small_dims(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 6):
            spec = ConstraintSpec.simplex(d)
            for _ in range(10):
                y = rng.normal(size=d)
                got = project(spec, y)
                expected = enumeration_projection(spec, y)
                assert np.allclose(got, expected, atol=1e-12)


def all_optima(stream, tol=1e-9):
    """Warm-started optima for every round, in round order."""
    solver = RoundOptimizer(stream, tol=tol)
    return [solver.solve(t) for t in range(1, stream.T + 1)]


class TestSolveRoundOptimum:
    def test_zero_residual_vertex(self):
        # single agent, a=(1,0), b=1, no regularizer: the vertex (1,0) is optimal
        spec = ConstraintSpec.simplex(2)
        stream = LossStream(0.0, [[1.0, 0.0]], [1.0, 0.0], [[0.0]], spec)
        rec = RoundOptimizer(stream).solve(1)
        assert rec.gap <= 1e-9
        assert rec.f_star <= 1e-9
        assert np.allclose(rec.x_star, [1, 0], atol=1e-6)

    def test_dominant_regularizer_matches_grid(self):
        # lambda1 >> ||a||^2 pulls the optimum toward the origin
        spec = ConstraintSpec.l1_ball(2, 2.0)
        stream = LossStream(50.0, [[1.0, -0.5]], [0.5, 0.5], [[0.25]], spec)
        rec = RoundOptimizer(stream).solve(1)
        grid = np.linspace(-2, 2, 4001)
        xs = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        xs = xs[np.abs(xs).sum(axis=1) <= 2.0]
        vals = np.array([global_loss(stream, 1, x) for x in xs[np.random.default_rng(2).choice(len(xs), 20000, replace=False)]])
        # solver value must match the best grid value up to grid resolution
        best_grid = vals.min()
        assert rec.f_star <= best_grid + 1e-6
        assert np.linalg.norm(rec.x_star) < 0.05   # pulled near the origin

    def test_gap_certificate_bounds_suboptimality(self):
        spec = ConstraintSpec.simplex(2)
        stream = generate_stream(3, 2, 1e-3, spec, seed=3)
        rec = RoundOptimizer(stream, tol=1e-10).solve(1)
        # exhaustive 1-d parametrization of the 2-simplex
        s = np.linspace(0, 1, 200001)
        pts = np.stack([s, 1 - s], axis=1)
        grid_best = min(global_loss(stream, 1, p) for p in pts[:: 1000])
        fine_best = min(global_loss(stream, 1, p) for p in pts[:: 10])
        assert rec.f_star <= fine_best + 1e-10
        assert rec.gap <= 1e-10
        assert grid_best >= rec.f_star - 1e-12

    def test_iteration_cap_raises_with_gap(self, monkeypatch):
        # the pairwise steps stop at their cap of 3, and the active-set method
        # ends on a rounding-level gap: above the 1e-16 tolerance, but not
        # above the round's gap floor, so it certifies at the floor
        spec = ConstraintSpec.simplex(4)
        stream = generate_stream(6, 2, 1e-4, spec, seed=5)
        rec = RoundOptimizer(stream, tol=1e-16, max_iter=3).solve(1)
        h, c = regret._quadratic(stream, 1)
        assert rec.tol == regret._gap_floor(h, c, 1.0) > 1e-16
        assert 1e-16 < rec.gap <= rec.tol
        # without the floor neither half certifies
        monkeypatch.setattr(regret, "_gap_floor", lambda h, c, radius: 0.0)
        with pytest.raises(SolverError, match=r"^round 1: active-set gap .* above tol 1\.0e-16$") as info:
            RoundOptimizer(stream, tol=1e-16, max_iter=3).solve(1)
        assert 1e-16 < info.value.gap < math.inf

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        stream = generate_stream(3, 2, 1e-3, ConstraintSpec.simplex(2), seed=0)
        with pytest.raises(ValueError, match=r"^tol must be finite and > 0, got "):
            RoundOptimizer(stream, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_must_be_at_least_one(self, max_iter):
        stream = generate_stream(3, 2, 1e-3, ConstraintSpec.simplex(2), seed=0)
        with pytest.raises(ValueError, match=rf"^max_iter must be >= 1, got {max_iter}$"):
            RoundOptimizer(stream, max_iter=max_iter)

    def test_non_finite_gap_raises_at_once(self):
        # the products with a radius of 1e300 overflow, so the first gap is inf
        spec = ConstraintSpec.l1_ball(3, 1e300)
        stream = generate_stream(3, 3, 1e-3, spec, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SolverError, match=r"^round 1: gap .* not finite at iteration 0$") as info:
            RoundOptimizer(stream).solve(1)
        assert not math.isfinite(info.value.gap)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(d=st.integers(1, 6), extra=st.integers(2, 6), T=st.integers(1, 6), ball=st.booleans(),
           radius=st.floats(0.5, 3.0), lambda1=st.floats(1e-2, 1.0), redraw=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_warm_records_feasible_certified_and_equal_to_cold(self, d, extra, T, ball, radius,
                                                               lambda1, redraw, seed):
        spec = ConstraintSpec.l1_ball(d, radius) if ball else ConstraintSpec.simplex(d)
        stream = generate_stream(d + extra, T, lambda1, spec, seed=seed, redraw_features=redraw)
        for rec in all_optima(stream, tol=1e-10):
            assert spec.contains(rec.x_star, tol=FEASIBILITY_TOL)
            assert rec.gap <= 1e-10
            cold = RoundOptimizer(stream, tol=1e-10).solve(rec.t)
            assert rec.f_star == pytest.approx(cold.f_star, rel=0, abs=1e-9)

    def test_warm_start_sweep_consistent_with_cold(self):
        spec = ConstraintSpec.simplex(6)
        stream = generate_stream(10, 30, 5e-6, spec, seed=6)
        warm = all_optima(stream, tol=1e-10)
        for t in (1, 15, 30):
            cold = RoundOptimizer(stream, tol=1e-10).solve(t)
            assert warm[t - 1].f_star == pytest.approx(cold.f_star, abs=1e-9)
            assert warm[t - 1].gap <= 1e-10


class TestActiveSetFallback:
    """Rounds the pairwise steps cannot certify within their cap: the active-set
    method takes over from that round on, and earlier records keep their bits."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(d=st.integers(1, 6), extra=st.integers(2, 6), T=st.integers(1, 4), ball=st.booleans(),
           radius=st.floats(0.5, 3.0), lambda1=st.floats(1e-2, 1.0), redraw=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_agrees_with_pairwise_within_the_gaps(self, d, extra, T, ball, radius, lambda1, redraw, seed):
        spec = ConstraintSpec.l1_ball(d, radius) if ball else ConstraintSpec.simplex(d)
        stream = generate_stream(d + extra, T, lambda1, spec, seed=seed, redraw_features=redraw)
        solver = RoundOptimizer(stream, tol=1e-10)
        for rec in all_optima(stream, tol=1e-10):
            active = solver._active_set_solve(rec.t)
            assert spec.contains(active.x_star, tol=FEASIBILITY_TOL)
            assert active.gap <= 1e-10
            # each gap bounds its point's suboptimality
            assert abs(active.f_star - rec.f_star) <= max(active.gap, rec.gap) + 1e-12 * max(1.0, abs(rec.f_star))

    @pytest.mark.parametrize("n, d, ball, redraw, seed", [
        (2, 6, False, False, 3),    # under-determined: H is singular up to the ridge
        (3, 6, True, False, 4),
        (11, 11, True, True, 18),   # a nearly singular redrawn round
        (6, 6, False, True, 3),     # capped at round 7: six pairwise records come first
    ])
    def test_capped_rounds_are_certified(self, n, d, ball, redraw, seed):
        spec = ConstraintSpec.l1_ball(d, 2.0) if ball else ConstraintSpec.simplex(d)
        stream = generate_stream(n, 13, 5e-6, spec, seed=seed, redraw_features=redraw)
        solver = RoundOptimizer(stream, tol=1e-9, max_iter=2000)
        records = [solver.solve(t) for t in range(1, 14)]
        pairwise, error = solve_all(ReferenceRoundOptimizer(stream, tol=1e-9, max_iter=2000).solve, 13)
        assert error is not None   # pairwise steps alone stop at the cap
        assert [r.t for r in records] == list(range(1, 14))
        for rec in records:
            assert spec.contains(rec.x_star, tol=FEASIBILITY_TOL)
            assert rec.gap <= 1e-9
        # the records before the cap are the pairwise ones, and from the capped
        # round on every record is the (stateless) active-set method's; the
        # capped round also counts the 2000 pairwise iterations it spent
        cold = RoundOptimizer(stream, tol=1e-9)
        capped = len(pairwise) + 1
        wants = pairwise + [cold._active_set_solve(t) for t in range(capped, 14)]
        spent = [2000 if rec.t == capped else 0 for rec in records]
        for rec, want, extra in zip(records, wants, spent, strict=True):
            assert rec.x_star.tobytes() == want.x_star.tobytes()
            assert (rec.f_star, rec.gap, rec.iterations) == (want.f_star, want.gap, want.iterations + extra)

    def test_full_support_round_takes_a_major_step_per_vertex(self):
        # two agents leave H of rank 2 up to the ridge, and the optimum uses
        # every simplex vertex: each major step adds one, so the round takes
        # d - 1 of them (the step guard allows the vertex count plus 1000)
        d = 40
        stream = generate_stream(2, 1, 5e-6, ConstraintSpec.simplex(d), seed=derive_seed(0, "stream"))
        rec = RoundOptimizer(stream)._active_set_solve(1)
        assert rec.iterations == d - 1
        assert (rec.x_star > 0).all() and rec.gap <= rec.tol

    @pytest.mark.parametrize("kind", ["plain", "twins", "near-singular"])
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(n=st.integers(2, 8), d=st.integers(1, 6), ball=st.booleans(), radius=st.floats(0.5, 3.0),
           redraw=st.booleans(), lambda1=st.sampled_from([0.0, 5e-6]) | st.floats(1e-2, 1.0),
           seed=st.integers(0, 2 ** 16))
    def test_degenerate_faces_agree_with_projected_gradient(self, kind, n, d, ball, radius, redraw, lambda1, seed):
        if kind == "twins":   # lambda1 = 0 and twin columns: H is singular along each twin pair
            d += d % 2
        elif kind == "near-singular":   # square redrawn features, some rounds nearly singular
            n = d = max(d, 2)
            lambda1, redraw = 5e-6, True
        spec = ConstraintSpec.l1_ball(d, radius) if ball else ConstraintSpec.simplex(d)
        if kind == "twins":
            stream = tie_stream(spec, seed, n=n, T=3, redraw=redraw)
        else:
            stream = generate_stream(n, 3, lambda1, spec, seed=seed, redraw_features=redraw)
        solver = RoundOptimizer(stream, tol=1e-10)
        for t in range(1, stream.T + 1):
            rec = solver._active_set_solve(t)
            assert spec.contains(rec.x_star, tol=FEASIBILITY_TOL)
            assert rec.gap <= rec.tol
            ref = projected_gradient_optimum(stream, t, tol=rec.tol)
            assert abs(rec.f_star - ref.f_star) <= max(rec.gap, ref.gap) + 1e-12 * max(1.0, abs(ref.f_star))

    def test_an_entering_vertex_makes_no_factorization(self, monkeypatch):
        # every coordinate enters the support and none leaves: each of the 39
        # entering vertices adds a row to the factor, O(k^2) work
        stream = TestActiveSetGolden.CASES["simplex-full-support-d40"]()
        calls = linalg_spy(monkeypatch)
        rec = RoundOptimizer(stream)._active_set_solve(1)
        assert rec.iterations == 39 and not calls

    @pytest.mark.parametrize("make", [
        lambda: generate_stream(3, 13, 5e-6, ConstraintSpec.simplex(8), seed=1),
        lambda: generate_stream(6, 13, 5e-6, ConstraintSpec.simplex(6), seed=3, redraw_features=True),
    ], ids=["simplex-n3-d8", "simplex-redraw-d6"])
    def test_only_a_leaving_vertex_refactors(self, monkeypatch, make):
        stream = make()
        solver = RoundOptimizer(stream)
        calls = linalg_spy(monkeypatch)
        drops = 0
        for t in range(1, stream.T + 1):
            rec = solver._active_set_solve(t)
            # on the simplex each active slot is a positive coordinate; the face
            # starts with one vertex and gains one a major step
            drops += 1 + rec.iterations - np.count_nonzero(rec.x_star)
        assert drops > 0
        assert calls["lstsq"] == calls["solve"] == 0
        assert calls["cholesky"] <= drops and calls["inv"] <= drops

    def test_an_entering_twin_is_named(self):
        # lambda1 = 0 and a twin pair of zero columns: H is 0 there, so the first
        # slot (c is 0 there and positive elsewhere) and its twin make P = 11'
        # whatever the round's scale, and the entering pivot 1 - 1 is exactly 0
        feats = np.repeat([[0.0, -1.0], [0.0, -1.0], [0.0, 1.0]], 2, axis=1)
        stream = LossStream(0.0, feats, np.eye(4)[0], np.full((3, 1), 0.5), ConstraintSpec.simplex(4))
        solver = RoundOptimizer(stream)
        # a twin's gap is that of its active slot, 0 at the face's least point,
        # so no gap may certify for the twin to enter
        objective, slot, slots = solver._objective, solver._oracle, []
        solver._objective = lambda t: (*objective(t)[:2], -math.inf)

        def twin_of_the_first(g):   # the slot rule, but its second call returns the first slot's twin
            slots.append(slot(g))
            return slots[0] ^ 1 if len(slots) == 2 else slots[-1]

        solver._oracle = twin_of_the_first
        with pytest.raises(SolverError, match=r"^round 1: face not positive definite at step 0$"):
            solver._active_set_solve(1)

    def test_a_failed_refactor_is_named(self, monkeypatch):
        # round 1's first drop refactors the face
        stream = generate_stream(3, 13, 5e-6, ConstraintSpec.simplex(8), seed=1)

        def not_positive_definite(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
        with pytest.raises(SolverError, match=r"^round 1: face not positive definite at step \d+$") as err:
            RoundOptimizer(stream)._active_set_solve(1)
        assert err.value.gap > 1e-9

    def test_capped_round_counts_its_pairwise_iterations(self):
        stream = generate_stream(2, 4, 5e-6, ConstraintSpec.simplex(6), seed=derive_seed(0, "stream"))
        solver = RoundOptimizer(stream, max_iter=200)
        records = [solver.solve(t) for t in range(1, 5)]
        cold = RoundOptimizer(stream)
        steps = [cold._active_set_solve(t).iterations for t in range(1, 5)]
        # round 1 caps: its 200 pairwise iterations ran before the active-set steps
        assert [rec.iterations for rec in records] == [200 + steps[0]] + steps[1:]


def linalg_spy(monkeypatch):
    """A count, by name, of the calls to NumPy's dense solvers and factorizations."""
    calls = collections.Counter()
    for name in ("lstsq", "solve", "cholesky", "inv"):
        def spy(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


# finite floats with exact ties, signed zeros, subnormals and the largest magnitudes
GRADIENT_ENTRY = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


def ndarray_calls(solve, t):
    """``solve(t)``'s record and the names of the ndarray methods that
    ``_pairwise_solve`` and its oracle call, in call order. Operators and
    indexing (``g += c``, ``x[i] = ...``) make no profiler call, and neither
    do ufuncs such as ``np.abs``."""
    codes = {RoundOptimizer._pairwise_solve.__code__, problem._simplex_slot.__code__,
             problem._l1_slot.__code__}
    names = []

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code in codes and isinstance(getattr(arg, "__self__", None), np.ndarray):
            names.append(arg.__name__)

    sys.setprofile(profile)
    try:
        record = solve(t)
    finally:
        sys.setprofile(None)
    return record, names


class TestSimplexStep:
    """The simplex step reads the away vertex and the descent from ``g``'s
    Python list; these pin that to the NumPy forms it replaced, bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(g=st.lists(GRADIENT_ENTRY, min_size=1, max_size=16), data=st.data())
    def test_descent_and_away_match_their_numpy_forms(self, g, data):
        gl = np.array(g).tolist()
        g = np.array(g)
        d = g.size
        for i, j in itertools.permutations(range(d), 2):
            direction = np.zeros(d)
            direction[i] += 1.0
            direction[j] -= 1.0
            with np.errstate(over="ignore"):
                want = -float(g.dot(direction))
            # the step's form, with top = gl[j] as the away loop leaves it
            assert (-(gl[i] - gl[j] + 0.0)).hex() == want.hex(), (i, j)
        # an active set in insertion order, then the first slot with the largest g
        active = data.draw(st.permutations(range(d)).flatmap(lambda p: st.integers(1, d).map(lambda k: p[:k])))
        away = active[0]
        top = gl[away]
        for k in active:
            if gl[k] > top:
                away, top = k, gl[k]
        assert away == active[int(g[active].argmax())]

    @pytest.mark.parametrize("spec, oracle, step", [
        # h.dot, tolist, the oracle's argmin and x.dot; the fifth NumPy call
        # is the in-place g += c
        (ConstraintSpec.simplex(8), "argmin", ["dot", "tolist", "argmin", "dot"]),
        # the ball adds the away argmax and the descent's dot
        (ConstraintSpec.l1_ball(8, 2.0), "argmax", ["dot", "tolist", "argmax", "dot", "argmax", "dot"]),
    ], ids=["simplex", "ball"])
    def test_ndarray_method_calls_per_pass(self, spec, oracle, step):
        # round 1 starts cold at the oracle's vertex for c; the last pass
        # stops after x.dot, and copies x out
        solver = RoundOptimizer(generate_stream(16, 6, 1e-4, spec, seed=22))
        for t in range(1, 7):
            record, names = ndarray_calls(solver._pairwise_solve, t)
            assert record.iterations > 0
            cold = [oracle] if t == 1 else []
            assert names == cold + step * record.iterations + step[:4] + ["copy"]


def records_digest(records):
    """sha256 over every record's x_star bytes, f_star, gap and iterations."""
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.x_star.tobytes())
        h.update(struct.pack("<ddq", rec.f_star, rec.gap, rec.iterations))
    return h.hexdigest()


def solver_digest(stream):
    """``records_digest`` of every warm-started round."""
    return records_digest(all_optima(stream))


def tie_stream(spec, seed, n=10, T=30, redraw=False):
    """Duplicated feature columns and lambda1 = 0: twin columns get equal gradients,
    so away values tie exactly whenever both twins are active."""
    rng = np.random.default_rng(seed)
    feats = np.repeat(rng.uniform(-5, 5, (T, n, spec.dimension // 2) if redraw else (n, spec.dimension // 2)),
                      2, axis=-1)
    truth = np.zeros(spec.dimension)
    truth[0] = 1.0 if spec.kind.value == "simplex" else 0.5
    return LossStream(0.0, feats, truth, rng.uniform(0, 1, (n, T)), spec)


class TestSolverGolden:
    """Pins the solver's bits: every iterate, tie-break and stopping point."""

    CASES = {
        "simplex-fixed": (ConstraintSpec.simplex(8),
                          lambda spec: generate_stream(12, 20, 1e-4, spec, seed=21)),
        "ball-r2-redraw": (ConstraintSpec.l1_ball(8, 2.0),
                           lambda spec: generate_stream(16, 20, 1e-4, spec, seed=22, redraw_features=True)),
        "ball-r1.5-redraw": (ConstraintSpec.l1_ball(8, 1.5),
                             lambda spec: generate_stream(16, 20, 1e-4, spec, seed=23, redraw_features=True)),
        "ties-simplex": (ConstraintSpec.simplex(8), lambda spec: tie_stream(spec, 24)),
        "ties-ball": (ConstraintSpec.l1_ball(8, 1.5), lambda spec: tie_stream(spec, 26)),
        # the l1-redraw benchmark shape
        "ball-r2-redraw-d16": (ConstraintSpec.l1_ball(16, 2.0),
                               lambda spec: generate_stream(32, 20, 5e-6, spec, seed=27, redraw_features=True)),
    }
    # the bits depend on the BLAS build, like perfbench/digests.json; these are
    # scipy-openblas 0.3.31 with NumPy 2.4.6
    DIGESTS = {
        "simplex-fixed": "2c4a023495971dd3a54e1fe93cccea53d73a1785dde6bbd5df6a5ed977a47972",
        "ball-r2-redraw": "e879b3ae216f0bb1bbaa61766ae07fa5a8cf4ee82783fbf41187dd6f3582cf2e",
        "ball-r1.5-redraw": "b524945c018b7b3ab04926bf0e4d0cfbc834d3768ed068e08b1eff866d5490ad",
        "ties-simplex": "1d7781ccf30696b34a96a94e25499eafeca878da3465aafa09b1b0ae0fbdeb99",
        "ties-ball": "817a064a3c78050d63345b60c9acaa51ae45f5fa51d14cd230ae7a0f51542406",
        "ball-r2-redraw-d16": "b0dba844265920faf4517e6df784632bd4dd65a86436dbd43e2098dd90499990",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_optima_bytes(self, name):
        spec, make = self.CASES[name]
        assert solver_digest(make(spec)) == self.DIGESTS[name], kernel_note()


class TestActiveSetGolden:
    """Pins the active-set half's bits: a cold ``_active_set_solve`` of every
    round. The pairwise steps of all but the two tie streams stop at a cap
    of 2000 on one of their rounds, so ``solve`` reaches this method there."""

    CASES = {
        # under-determined: H is singular up to the ridge
        "simplex-n2-d6": lambda: generate_stream(2, 13, 5e-6, ConstraintSpec.simplex(6), seed=3),
        "ball-r2-n3-d6": lambda: generate_stream(3, 13, 5e-6, ConstraintSpec.l1_ball(6, 2.0), seed=4),
        "ball-r2-redraw-d11": lambda: generate_stream(11, 13, 5e-6, ConstraintSpec.l1_ball(11, 2.0), seed=18,
                                                      redraw_features=True),
        "simplex-redraw-d6": lambda: generate_stream(6, 13, 5e-6, ConstraintSpec.simplex(6), seed=3,
                                                     redraw_features=True),
        # every coordinate in the support: 39 major steps
        "simplex-full-support-d40": lambda: generate_stream(2, 1, 5e-6, ConstraintSpec.simplex(40),
                                                            seed=derive_seed(0, "stream")),
        # lambda1 = 0 and twin columns: H is singular along each twin pair
        "ties-simplex": lambda: tie_stream(ConstraintSpec.simplex(8), 24, T=8),
        "ties-ball": lambda: tie_stream(ConstraintSpec.l1_ball(8, 1.5), 26, T=8),
    }
    # scipy-openblas 0.3.31 with NumPy 2.4.6, like TestSolverGolden
    DIGESTS = {
        "ball-r2-n3-d6": "7564f95b7708e356783bdd047c7d83e992c7848140892138972d3f0a3b59c288",
        "ball-r2-redraw-d11": "2622af546adf552c9f288b3551915e85d0a149ad735246afb9c1785b4191dd37",
        "simplex-full-support-d40": "fbf50503addde865c031c2724dfbc12a26099ae6ba97070390397fdcb06a1ae2",
        "simplex-n2-d6": "e5bdf9bcc322e80a5dabee752e0b60318c722d967332f021c8b2ee90e2d11cbd",
        "simplex-redraw-d6": "67516d2d598fb36c5537203d0fbb16a66617f379acbaf1d4ba0028a5e9a45ed5",
        # interior optima: both signed slots of a coordinate are active, so the
        # point's entry there adds two rounded products (``_place``)
        "ties-ball": "7a975ce4d0cc44417b148ff1325fccf1ae26a330053a17d89ba3434ba8099c38",
        "ties-simplex": "f7792a3180b9bf9702eda5a464fac04213df0363af02f68bdc4631ea3021975d",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_active_set_records_bytes(self, name):
        stream = self.CASES[name]()
        solver = RoundOptimizer(stream)
        got = records_digest(solver._active_set_solve(t) for t in range(1, stream.T + 1))
        assert got == self.DIGESTS[name], kernel_note()


def solve_all(solve, T):
    """``solve(t)`` for rounds ``1..T`` in order, stopping at the first ``SolverError``."""
    records = []
    for t in range(1, T + 1):
        try:
            records.append(solve(t))
        except SolverError as err:
            return records, (str(err), err.gap)
    return records, None


def log_uniform(low, high):
    """Floats spread evenly in ``log`` over ``[low, high]``."""
    return st.floats(math.log(low), math.log(high)).map(lambda v: min(max(math.exp(v), low), high))


class TestAgainstReferenceSolver:
    """The solver's cached pair products and list bookkeeping against the plain
    loop in ``oracles.ReferenceRoundOptimizer``: every record, bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(d=st.integers(1, 32), n=st.integers(1, 32), T=st.integers(1, 6), ball=st.booleans(),
           radius=log_uniform(0.01, 50.0), lambda1=log_uniform(1e-8, 10.0), redraw=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_warm_records_bit_identical(self, d, n, T, ball, radius, lambda1, redraw, seed):
        spec = ConstraintSpec.l1_ball(d, radius) if ball else ConstraintSpec.simplex(d)
        stream = generate_stream(n, T, lambda1, spec, seed=seed, redraw_features=redraw)
        # a low cap keeps ill-conditioned draws short; the pairwise half must
        # stop at a capped round alike, before the active-set method takes over
        got, got_error = solve_all(RoundOptimizer(stream, tol=1e-10, max_iter=3000)._pairwise_solve, T)
        want, want_error = solve_all(ReferenceRoundOptimizer(stream, tol=1e-10, max_iter=3000).solve, T)
        assert got_error == want_error
        assert_same_records(got, want)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_streams_bit_identical(self, name):
        # the seed-0 stream of each benchmark workload, the traffic the solver serves
        cfg = parse_config(WORKLOADS[name].config_text(0))
        prob = cfg.problem
        stream = generate_stream(prob.n, prob.T, prob.lambda1, prob.spec(), seed=cfg.seeds.stream_seed(),
                                 redraw_features=prob.redraw_features)
        got, got_error = solve_all(RoundOptimizer(stream, tol=cfg.solver.tolerance).solve, prob.T)
        want, want_error = solve_all(ReferenceRoundOptimizer(stream, tol=cfg.solver.tolerance).solve, prob.T)
        assert got_error is None and want_error is None
        assert_same_records(got, want)


def assert_same_records(got, want):
    """Equal record lists: rounds, iterations and the bits of every float."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.t == b.t and a.iterations == b.iterations
        assert a.x_star.tobytes() == b.x_star.tobytes()
        assert struct.pack("<ddd", a.f_star, a.gap, a.tol) == struct.pack("<ddd", b.f_star, b.gap, b.tol)


def constant_decision_trajectory(points, T):
    """A fake trajectory committing the same stacked decisions each round."""
    stacked = np.tile(points, (T + 1, 1, 1))
    return Trajectory(decisions=stacked, rounds=())


class TestDynamicRegret:
    def test_zero_when_decisions_equal_optima(self):
        spec = ConstraintSpec.simplex(3)
        stream = generate_stream(2, 4, 1e-4, spec, seed=7)
        optima = all_optima(stream, tol=1e-12)
        decisions = np.stack([np.tile(rec.x_star, (2, 1)) for rec in optima] + [np.tile(optima[-1].x_star, (2, 1))])
        traj = Trajectory(decisions=decisions, rounds=())
        series = regret_series(traj, optima, stream, tol=1e-9)
        assert np.all(np.abs(series.cumulative) <= 4 * 1e-9)

    def test_single_round_direct_difference(self):
        spec = ConstraintSpec.simplex(2)
        stream = generate_stream(2, 1, 0.0, spec, seed=8)
        optima = all_optima(stream)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        traj = constant_decision_trajectory(x, 1)
        series = regret_series(traj, optima, stream)
        for j in range(2):
            expected = global_loss(stream, 1, x[j]) - optima[0].f_star
            assert series.cumulative[j, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_grid_search_oracle(self):
        # n=2, d=2, T=3 on the 2-simplex: optima by 1-d grid at 1e-4 resolution
        spec = ConstraintSpec.simplex(2)
        stream = generate_stream(2, 3, 1e-3, spec, seed=9)
        s = np.linspace(0.0, 1.0, 10001)
        pts = np.stack([s, 1 - s], axis=1)
        feats = stream.features
        grid_f_star = []
        for t in range(1, 4):
            resid = pts @ feats.T - stream.labels[:, t - 1]
            vals = 0.5 * (resid ** 2).sum(axis=1) + 2 * stream.lambda1 * (pts ** 2).sum(axis=1)
            grid_f_star.append(vals.min())
        x = np.array([[0.7, 0.3], [0.2, 0.8]])
        traj = constant_decision_trajectory(x, 3)
        optima = all_optima(stream)
        series = regret_series(traj, optima, stream)
        for j in range(2):
            explicit = 0.0
            for t in range(1, 4):
                explicit += global_loss(stream, t, x[j]) - grid_f_star[t - 1]
                assert series.cumulative[j, t - 1] == pytest.approx(explicit, abs=2e-5)

    def test_increments_nonnegative_and_cumulative_nondecreasing(self):
        spec = ConstraintSpec.l1_ball(4, 2.0)
        stream = generate_stream(5, 12, 1e-4, spec, seed=10)
        sched = random_connected_schedule(5, 12, 0.4, seed=11)
        params = ScheduleParams(ScheduleMode.PER_ROUND, epsilon=2, gamma=0.5, rho=3)
        traj = run(stream, sched, params)
        optima = all_optima(stream)
        series = regret_series(traj, optima, stream, tol=1e-9)
        diffs = np.diff(series.cumulative, axis=1)
        assert diffs.min() >= -1e-9

    def test_series_holds_the_cumulative_sums_without_a_copy(self, monkeypatch):
        handed = []
        monkeypatch.setattr(regret, "RegretSeries",
                            lambda cumulative: handed.append(cumulative) or RegretSeries(cumulative))
        stream = generate_stream(2, 3, 1e-4, ConstraintSpec.simplex(2), seed=14)
        traj = constant_decision_trajectory(np.array([[1.0, 0.0], [0.5, 0.5]]), 3)
        series = regret_series(traj, all_optima(stream), stream)
        assert series.cumulative is handed[0]
        assert not series.cumulative.flags.writeable

    def test_corrupted_optimum_rejected(self):
        spec = ConstraintSpec.simplex(2)
        stream = generate_stream(2, 2, 0.0, spec, seed=12)
        optima = all_optima(stream)
        bad = [replace(rec, f_star=rec.f_star + 100.0) for rec in optima]
        traj = constant_decision_trajectory(np.array([[1.0, 0.0], [0.5, 0.5]]), 2)
        with pytest.raises(ValueError):
            regret_series(traj, bad, stream)

    @pytest.mark.parametrize("n", [20, 200])
    def test_rounding_level_increments_pass(self, tmp_path, n):
        # on the one-point simplex every decision is optimal; the increments
        # are rounding of losses near n * lambda1 = 2e7 and 2e8
        text = f"problem.d = 1\nproblem.lambda1 = 1e6\nproblem.T = 3\nproblem.n = {n}\n"
        result = run_experiment(parse_config(text), out_dir=tmp_path)
        assert result.regret.cumulative.shape == (n, 3)
        assert np.abs(result.regret.cumulative).max() < 1e-13 * n * 1e6

    def test_decisions_off_the_set_by_rounding_pass(self):
        # a long run leaves the decisions some hundred ulps off the set: their loss
        # falls below the optimum by more than the losses' own rounding
        stream = generate_stream(20, 2, 1e6, ConstraintSpec.simplex(1), seed=3)
        optima = all_optima(stream)
        traj = constant_decision_trajectory(np.full((20, 1), 1.0 - 512 * np.finfo(float).eps), 2)
        series = regret_series(traj, optima, stream)
        assert series.cumulative.min() < -40 * np.finfo(float).eps * 2 * optima[0].f_star

    def test_raised_optimum_above_the_floor_still_raises(self):
        stream = generate_stream(20, 3, 1e6, ConstraintSpec.simplex(1), seed=3)
        sched = random_connected_schedule(20, 3, 0.3, seed=4)
        traj = run(stream, sched, ScheduleParams())
        optima = all_optima(stream)
        regret_series(traj, optima, stream)
        rec = optima[1]
        optima[1] = replace(rec, f_star=rec.f_star + 1e-5)
        with pytest.raises(ValueError, match=r"^round 2: agent \d+'s regret increment -1\.\d+e-05 is below "
                                             r"-\(tol \+ rounding floor\) = -\d\.\d+e-07$"):
            regret_series(traj, optima, stream)

    def test_record_gap_above_tol_is_allowed(self):
        # a round certified at its gap floor may sit that far above the optimum
        stream = generate_stream(2, 1, 1e-4, ConstraintSpec.simplex(2), seed=14)
        rec, = all_optima(stream)
        traj = constant_decision_trajectory(np.tile(rec.x_star, (2, 1)), 1)
        raised = replace(rec, f_star=rec.f_star + 1e-6)
        with pytest.raises(ValueError, match="^round 1: agent 0's regret increment"):
            regret_series(traj, [raised], stream)
        series = regret_series(traj, [replace(raised, gap=2e-6, tol=2e-6)], stream)
        assert series.cumulative.max() < -0.9e-6

    def test_optima_short_or_out_of_order_are_rejected(self):
        stream = generate_stream(2, 3, 1e-4, ConstraintSpec.simplex(2), seed=14)
        traj = constant_decision_trajectory(np.array([[1.0, 0.0], [0.5, 0.5]]), 3)
        optima = all_optima(stream)
        with pytest.raises(ValueError, match="^need optima for all 3 rounds, got 2$"):
            regret_series(traj, optima[:2], stream)
        with pytest.raises(ValueError, match="^optimum record at position 1 is for round 3$"):
            regret_series(traj, [optima[0], optima[2], optima[1]], stream)

    def test_dynamic_regret_single_agent_view(self):
        spec = ConstraintSpec.simplex(2)
        stream = generate_stream(3, 4, 1e-4, spec, seed=13)
        optima = all_optima(stream)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        traj = constant_decision_trajectory(x, 4)
        series = regret_series(traj, optima, stream)
        explicit = np.cumsum([global_loss(stream, t, x[2]) - optima[t - 1].f_star for t in range(1, 5)])
        assert series.cumulative[2] == pytest.approx(explicit, rel=1e-12, abs=1e-15)


class TestEnvelopes:
    def test_single_agent_all_equal(self):
        series = RegretSeries(cumulative=np.array([[1.0, 2.0, 3.0]]))
        env = envelopes(series)
        assert np.array_equal(env.avg, env.sup)
        assert np.array_equal(env.avg, env.inf)

    def test_two_constant_series(self):
        # averages per round: 2 and 4 -> avg 3, sup 4, inf 2
        t = np.arange(1, 6)
        series = RegretSeries(cumulative=np.vstack([2.0 * t, 4.0 * t]))
        env = envelopes(series)
        assert np.allclose(env.avg, 3)
        assert np.allclose(env.sup, 4)
        assert np.allclose(env.inf, 2)

    def test_ordering_pointwise(self):
        rng = np.random.default_rng(14)
        series = RegretSeries(cumulative=np.cumsum(rng.random((6, 20)), axis=1))
        env = envelopes(series)
        assert np.all(env.sup >= env.avg - 1e-15)
        assert np.all(env.avg >= env.inf - 1e-15)


class TestRegretBound:
    def make_setup(self, noise=None, T=6):
        spec = ConstraintSpec.simplex(3)
        if noise is None:
            stream = generate_stream(4, T, 1e-4, spec, seed=15)
        else:
            rng = np.random.default_rng(15)
            feats = rng.uniform(-5, 5, (4, 3))
            truth = sample_feasible(spec, rng)
            stream = LossStream(1e-4, feats, truth, noise, spec)
        sched = random_connected_schedule(4, T, 0.5, seed=16)
        params = ScheduleParams(ScheduleMode.PER_ROUND, epsilon=2, gamma=0.5, rho=3)
        counts = [inner_count(params, t, T) for t in range(1, T + 1)]
        constants = problem_constants(stream)
        mixing = MixingConstants.from_zeta(sched.zeta, 4)
        return spec, stream, sched, params, counts, constants, mixing

    def test_e2_reference_value(self):
        # 2 * 20 / (1 - e^{-1/4}), cross-checked via expm1
        spec = ConstraintSpec.simplex(2)
        stream = generate_stream(20, 2, 0.0, spec, seed=17)
        params = ScheduleParams(ScheduleMode.PER_ROUND, epsilon=4, gamma=0.5, rho=4)
        counts = [inner_count(params, t, 2) for t in (1, 2)]
        constants = problem_constants(stream)
        mixing = MixingConstants.from_zeta(1 / 20, 20)
        report = regret_upper_bound(constants, mixing, params, stream, counts,
                                    np.tile([1.0, 0.0], (20, 1)))
        assert report.e2 == pytest.approx(180.83246656751194, rel=1e-13)
        assert report.e2 == pytest.approx(40 / (-math.expm1(-0.25)), rel=1e-15)

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0, 4.0, 10.0, 1e16, 1e150, 1.3e154])
    def test_rho_factor_stays_exact_for_large_rho(self, rho):
        # 1 / (1 - e^{-1/rho}) is about rho + 1/2; 1 - exp(-1/rho) rounds to 0
        # from rho near 1.8e16, and the expm1 form has the same bits at the
        # rho of the benchmark workloads (1.5 to 4)
        stream = generate_stream(20, 2, 0.0, ConstraintSpec.simplex(2), seed=17)
        params = ScheduleParams(ScheduleMode.PER_ROUND, epsilon=4, gamma=0.5, rho=rho)
        counts = [inner_count(params, t, 2) for t in (1, 2)]
        report = regret_upper_bound(problem_constants(stream), MixingConstants.from_zeta(1 / 20, 20), params,
                                    stream, counts, np.tile([1.0, 0.0], (20, 1)))
        assert np.isfinite([report.e1, report.e2, report.e3, report.total]).all()
        assert report.e2 == pytest.approx(40 * (rho + 0.5), rel=1e-15 + 1 / (12 * rho * rho))
        if rho <= 4:
            assert report.e2 == 40 * (1.0 / (1.0 - math.exp(-1.0 / rho)))

    def test_zero_variation_reduces_to_two_terms(self):
        spec, stream, sched, params, counts, constants, mixing = self.make_setup(noise=np.zeros((4, 6)))
        x_init = np.tile([1.0, 0.0, 0.0], (4, 1))
        report = regret_upper_bound(constants, mixing, params, stream, counts, x_init)
        assert report.variation_bound == 0
        assert report.total == report.e1 + report.e3 * report.inv_count_sum

    def test_bound_parts_positive_and_finite(self):
        spec, stream, sched, params, counts, constants, mixing = self.make_setup()
        x_init = np.tile([1.0, 0.0, 0.0], (4, 1))
        report = regret_upper_bound(constants, mixing, params, stream, counts, x_init)
        for part in (report.e1, report.e2, report.e3, report.total):
            assert np.isfinite(part) and part > 0
        assert report.inv_count_sum == pytest.approx(sum(1 / k for k in counts), rel=1e-15)

    def test_dominates_empirical_regret_small_run(self):
        spec, stream, sched, params, counts, constants, mixing = self.make_setup(T=6)
        traj = run(stream, sched, params)
        optima = all_optima(stream)
        series = regret_series(traj, optima, stream)
        report = regret_upper_bound(constants, mixing, params, stream, counts, traj.x_init)
        assert series.cumulative[:, -1].max() < report.total

    def test_baseline_mode_rejected(self):
        spec, stream, sched, params, counts, constants, mixing = self.make_setup()
        baseline = ScheduleParams(ScheduleMode.BASELINE, baseline_alpha=0.05)
        with pytest.raises(ValueError):
            regret_upper_bound(constants, mixing, baseline, stream, [1] * 6,
                               np.tile([1.0, 0.0, 0.0], (4, 1)))

    def test_every_round_needs_an_inner_count(self):
        spec, stream, sched, params, counts, constants, mixing = self.make_setup()
        with pytest.raises(ValueError, match="^need an inner count for every round$"):
            regret_upper_bound(constants, mixing, params, stream, counts[:-1], np.tile([1.0, 0.0, 0.0], (4, 1)))

    def test_first_round_count_must_be_at_least_two(self):
        spec, stream, sched, params, counts, constants, mixing = self.make_setup()
        with pytest.raises(ValueError):
            regret_upper_bound(constants, mixing, params, stream, [1] + counts[1:],
                               np.tile([1.0, 0.0, 0.0], (4, 1)))


class TestRegretCsv:
    def test_column_layout(self, tmp_path):
        series = RegretSeries(cumulative=np.array([[1.0, 2.0], [3.0, 5.0]]))
        rpath = tmp_path / "regret.csv"
        write_regret_csv(series, rpath)
        lines = rpath.read_text().splitlines()
        assert lines[0] == "t,agent,cumulative_regret,average_regret"
        assert lines[1] == "1,0,1.0,1.0"
        assert lines[-1] == "2,1,5.0,2.5"
        env = envelopes(series)
        epath = tmp_path / "envelopes.csv"
        write_envelopes_csv(env, epath)
        elines = epath.read_text().splitlines()
        assert elines[0] == "t,avg,sup,inf"
        assert elines[1] == "1,2.0,3.0,1.0"
