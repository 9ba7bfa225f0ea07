import itertools
import math

import numpy as np
import pytest

from domfw.algorithm import ScheduleMode, ScheduleParams, Trajectory, inner_count, run
from domfw.network import MixingConstants, random_connected_schedule
from domfw.problem import (
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
    project,
    projected_gradient_optimum,
    regret_series,
    regret_upper_bound,
    write_envelopes_csv,
    write_regret_csv,
)
from domfw.regret import OptimumRecord, RegretSeries


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


def all_optima(stream, spec, tol=1e-9):
    """Warm-started optima for every round, in round order."""
    solver = RoundOptimizer(stream, spec, tol=tol)
    return [solver.solve(t) for t in range(1, stream.T + 1)]


class TestSolveRoundOptimum:
    def test_zero_residual_vertex(self):
        # single agent, a=(1,0), b=1, no regularizer: the vertex (1,0) is optimal
        spec = ConstraintSpec.simplex(2)
        stream = LossStream.from_components(0.0, [[1.0, 0.0]], [1.0, 0.0], [[0.0]], spec)
        rec = RoundOptimizer(stream, spec).solve(1)
        assert rec.gap <= 1e-9
        assert rec.f_star <= 1e-9
        assert np.allclose(rec.x_star, [1, 0], atol=1e-6)

    def test_dominant_regularizer_matches_grid(self):
        # lambda1 >> ||a||^2 pulls the optimum toward the origin
        spec = ConstraintSpec.l1_ball(2, 2.0)
        stream = LossStream.from_components(50.0, [[1.0, -0.5]], [0.5, 0.5], [[0.25]], spec)
        rec = RoundOptimizer(stream, spec).solve(1)
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
        stream = generate_stream(3, 2, 2, 1e-3, spec, seed=3)
        rec = RoundOptimizer(stream, spec, tol=1e-10).solve(1)
        # exhaustive 1-d parametrization of the 2-simplex
        s = np.linspace(0, 1, 200001)
        pts = np.stack([s, 1 - s], axis=1)
        grid_best = min(global_loss(stream, 1, p) for p in pts[:: 1000])
        fine_best = min(global_loss(stream, 1, p) for p in pts[:: 10])
        assert rec.f_star <= fine_best + 1e-10
        assert rec.gap <= 1e-10
        assert grid_best >= rec.f_star - 1e-12

    def test_agreement_with_projected_gradient(self):
        rng = np.random.default_rng(4)
        mismatches = []
        for spec in (ConstraintSpec.simplex(8), ConstraintSpec.l1_ball(16, 2.0)):
            stream = generate_stream(20, 25, spec.dimension, 5e-6, spec, seed=int(rng.integers(1 << 30)))
            for t in rng.integers(1, 26, size=25):
                a = RoundOptimizer(stream, spec, tol=1e-9).solve(int(t))
                b = projected_gradient_optimum(stream, int(t), spec, tol=1e-9)
                mismatches.append(abs(a.f_star - b.f_star))
        assert max(mismatches) <= 1e-6

    def test_iteration_cap_raises_with_gap(self):
        spec = ConstraintSpec.simplex(4)
        stream = generate_stream(6, 2, 4, 1e-4, spec, seed=5)
        with pytest.raises(SolverError) as info:
            RoundOptimizer(stream, spec, tol=1e-16, max_iter=3).solve(1)
        assert info.value.gap > 0

    def test_warm_start_sweep_consistent_with_cold(self):
        spec = ConstraintSpec.simplex(6)
        stream = generate_stream(10, 30, 6, 5e-6, spec, seed=6)
        warm = all_optima(stream, spec, tol=1e-10)
        for t in (1, 15, 30):
            cold = RoundOptimizer(stream, spec, tol=1e-10).solve(t)
            assert warm[t - 1].f_star == pytest.approx(cold.f_star, abs=1e-9)
            assert warm[t - 1].gap <= 1e-10


def constant_decision_trajectory(points, T):
    """A fake trajectory committing the same stacked decisions each round."""
    stacked = np.tile(points, (T + 1, 1, 1))
    return Trajectory(decisions=stacked, lo_calls=0, messages=0, rounds=())


class TestDynamicRegret:
    def test_zero_when_decisions_equal_optima(self):
        spec = ConstraintSpec.simplex(3)
        stream = generate_stream(2, 4, 3, 1e-4, spec, seed=7)
        optima = all_optima(stream, spec, tol=1e-12)
        decisions = np.stack([np.tile(rec.x_star, (2, 1)) for rec in optima] + [np.tile(optima[-1].x_star, (2, 1))])
        traj = Trajectory(decisions=decisions, lo_calls=0, messages=0, rounds=())
        series = regret_series(traj, optima, stream, tol=1e-9)
        assert np.all(np.abs(series.cumulative) <= 4 * 1e-9)

    def test_single_round_direct_difference(self):
        spec = ConstraintSpec.simplex(2)
        stream = generate_stream(2, 1, 2, 0.0, spec, seed=8)
        optima = all_optima(stream, spec)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        traj = constant_decision_trajectory(x, 1)
        series = regret_series(traj, optima, stream)
        for j in range(2):
            expected = global_loss(stream, 1, x[j]) - optima[0].f_star
            assert series.cumulative[j, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_grid_search_oracle(self):
        # n=2, d=2, T=3 on the 2-simplex: optima by 1-d grid at 1e-4 resolution
        spec = ConstraintSpec.simplex(2)
        stream = generate_stream(2, 3, 2, 1e-3, spec, seed=9)
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
        optima = all_optima(stream, spec)
        series = regret_series(traj, optima, stream)
        for j in range(2):
            explicit = 0.0
            for t in range(1, 4):
                explicit += global_loss(stream, t, x[j]) - grid_f_star[t - 1]
                assert series.cumulative[j, t - 1] == pytest.approx(explicit, abs=2e-5)

    def test_increments_nonnegative_and_cumulative_nondecreasing(self):
        spec = ConstraintSpec.l1_ball(4, 2.0)
        stream = generate_stream(5, 12, 4, 1e-4, spec, seed=10)
        sched = random_connected_schedule(5, 12, 0.4, seed=11)
        params = ScheduleParams(ScheduleMode.PER_ROUND, epsilon=2, gamma=0.5, rho=3)
        traj = run(stream, sched, spec, params)
        optima = all_optima(stream, spec)
        series = regret_series(traj, optima, stream, tol=1e-9)
        diffs = np.diff(series.cumulative, axis=1)
        assert diffs.min() >= -1e-9

    def test_corrupted_optimum_rejected(self):
        spec = ConstraintSpec.simplex(2)
        stream = generate_stream(2, 2, 2, 0.0, spec, seed=12)
        optima = all_optima(stream, spec)
        bad = [OptimumRecord(t=rec.t, x_star=rec.x_star, f_star=rec.f_star + 100.0,
                             gap=rec.gap, iterations=rec.iterations) for rec in optima]
        traj = constant_decision_trajectory(np.array([[1.0, 0.0], [0.5, 0.5]]), 2)
        with pytest.raises(ValueError):
            regret_series(traj, bad, stream)

    def test_dynamic_regret_single_agent_view(self):
        spec = ConstraintSpec.simplex(2)
        stream = generate_stream(3, 4, 2, 1e-4, spec, seed=13)
        optima = all_optima(stream, spec)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        traj = constant_decision_trajectory(x, 4)
        series = regret_series(traj, optima, stream)
        explicit = np.cumsum([global_loss(stream, t, x[2]) - optima[t - 1].f_star for t in range(1, 5)])
        assert series.cumulative[2] == pytest.approx(explicit, rel=1e-12, abs=1e-15)
        assert series.final(2) == series.cumulative[2, -1]


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
            stream = generate_stream(4, T, 3, 1e-4, spec, seed=15)
        else:
            rng = np.random.default_rng(15)
            feats = rng.uniform(-5, 5, (4, 3))
            truth = sample_feasible(spec, rng)
            stream = LossStream.from_components(1e-4, feats, truth, noise, spec)
        sched = random_connected_schedule(4, T, 0.5, seed=16)
        params = ScheduleParams(ScheduleMode.PER_ROUND, epsilon=2, gamma=0.5, rho=3)
        counts = [inner_count(params, t, T) for t in range(1, T + 1)]
        constants = problem_constants(stream, spec)
        mixing = MixingConstants.from_zeta(sched.zeta, 4)
        return spec, stream, sched, params, counts, constants, mixing

    def test_e2_reference_value(self):
        # 2 * 20 / (1 - e^{-1/4}), cross-checked via expm1
        spec = ConstraintSpec.simplex(2)
        stream = generate_stream(20, 2, 2, 0.0, spec, seed=17)
        params = ScheduleParams(ScheduleMode.PER_ROUND, epsilon=4, gamma=0.5, rho=4)
        counts = [inner_count(params, t, 2) for t in (1, 2)]
        constants = problem_constants(stream, spec)
        mixing = MixingConstants.from_zeta(1 / 20, 20)
        report = regret_upper_bound(constants, mixing, params, stream, spec, counts,
                                    np.tile([1.0, 0.0], (20, 1)))
        assert report.e2 == pytest.approx(180.83246656751194, rel=1e-13)
        assert report.e2 == pytest.approx(40 / (-math.expm1(-0.25)), rel=1e-15)

    def test_zero_variation_reduces_to_two_terms(self):
        spec, stream, sched, params, counts, constants, mixing = self.make_setup(noise=np.zeros((4, 6)))
        x_init = np.tile([1.0, 0.0, 0.0], (4, 1))
        report = regret_upper_bound(constants, mixing, params, stream, spec, counts, x_init)
        assert report.variation_bound == 0
        assert report.total == report.e1 + report.e3 * report.inv_count_sum

    def test_bound_parts_positive_and_finite(self):
        spec, stream, sched, params, counts, constants, mixing = self.make_setup()
        x_init = np.tile([1.0, 0.0, 0.0], (4, 1))
        report = regret_upper_bound(constants, mixing, params, stream, spec, counts, x_init)
        for part in (report.e1, report.e2, report.e3, report.total):
            assert np.isfinite(part) and part > 0
        assert report.inv_count_sum == pytest.approx(sum(1 / k for k in counts), rel=1e-15)

    def test_dominates_empirical_regret_small_run(self):
        spec, stream, sched, params, counts, constants, mixing = self.make_setup(T=6)
        traj = run(stream, sched, spec, params)
        optima = all_optima(stream, spec)
        series = regret_series(traj, optima, stream)
        report = regret_upper_bound(constants, mixing, params, stream, spec, counts, traj.x_init)
        assert series.cumulative[:, -1].max() < report.total

    def test_baseline_mode_rejected(self):
        spec, stream, sched, params, counts, constants, mixing = self.make_setup()
        baseline = ScheduleParams(ScheduleMode.BASELINE, baseline_alpha=0.05)
        with pytest.raises(ValueError):
            regret_upper_bound(constants, mixing, baseline, stream, spec, [1] * 6,
                               np.tile([1.0, 0.0, 0.0], (4, 1)))

    def test_first_round_count_must_be_at_least_two(self):
        spec, stream, sched, params, counts, constants, mixing = self.make_setup()
        with pytest.raises(ValueError):
            regret_upper_bound(constants, mixing, params, stream, spec, [1] + counts[1:],
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
