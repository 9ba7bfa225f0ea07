import math

import numpy as np
import pytest

from domfw.algorithm import (
    ScheduleMode,
    ScheduleParams,
    consensus_step,
    fw_step,
    initial_decisions,
    inner_count,
    lo_call_count,
    run,
    run_round,
    step_size,
    tracking_step,
    write_diagnostics_csv,
    write_trajectory_csv,
)
from domfw.network import WeightMatrix, constant_schedule, metropolis_weights, random_connected_schedule
from domfw.problem import (
    ConstraintSpec,
    LossStream,
    generate_stream,
    grad_eval,
    lmo,
    local_grads,
    sample_feasible,
)

PER_ROUND = ScheduleMode.PER_ROUND
HORIZON = ScheduleMode.HORIZON
FIXED = ScheduleMode.FIXED
BASELINE = ScheduleMode.BASELINE


def single_agent_stream(a, truth, noise, lambda1=0.0, radius=2.0):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    spec = ConstraintSpec.l1_ball(a.shape[1], radius)
    return LossStream.from_components(lambda1, a, np.asarray(truth, float),
                                      np.atleast_2d(np.asarray(noise, float)), spec), spec


class TestInnerCount:
    def test_per_round_reference_value(self):
        params = ScheduleParams(PER_ROUND, epsilon=4, gamma=0.5, rho=4)
        assert inner_count(params, 4, 100) == 9

    def test_horizon_constant(self):
        params = ScheduleParams(HORIZON, epsilon=4, gamma=0.5, rho=4)
        assert all(inner_count(params, t, 100) == 41 for t in (1, 50, 100))

    def test_small_epsilon_round_one(self):
        params = ScheduleParams(PER_ROUND, epsilon=2, gamma=0.3, rho=2)
        assert inner_count(params, 1, 10) == 3

    def test_always_at_least_two_for_multi_iteration_modes(self):
        for params in (ScheduleParams(PER_ROUND, epsilon=0.01, gamma=0.2, rho=1),
                       ScheduleParams(HORIZON, epsilon=0.01, gamma=1.0, rho=1),
                       ScheduleParams(FIXED, fixed_count=2)):
            assert all(inner_count(params, t, 50) >= 2 for t in range(1, 51))

    def test_baseline_single_iteration(self):
        params = ScheduleParams(BASELINE, baseline_alpha=0.05)
        assert inner_count(params, 7, 50) == 1

    def test_round_bounds(self):
        params = ScheduleParams(FIXED, fixed_count=3)
        with pytest.raises(ValueError):
            inner_count(params, 0, 10)
        with pytest.raises(ValueError):
            inner_count(params, 11, 10)


class TestStepSize:
    def test_inverse_rho_k(self):
        params = ScheduleParams(PER_ROUND, epsilon=4, gamma=0.5, rho=4)
        assert step_size(params, 9) == pytest.approx(1 / 36, rel=1e-15)

    def test_boundary_value_one(self):
        params = ScheduleParams(FIXED, fixed_count=2, rho=1)
        assert step_size(params, 1) == 1.0

    def test_baseline_reference_step(self):
        # alpha = 1 / (4 * T**0.4) at T = 1000
        alpha = 1 / (4 * 1000 ** 0.4)
        assert alpha == pytest.approx(0.01577393361200483, rel=1e-12)
        params = ScheduleParams(BASELINE, baseline_alpha=alpha)
        assert step_size(params, 1) == alpha


class TestScheduleParamsValidation:
    def test_gamma_open_interval_for_per_round(self):
        with pytest.raises(ValueError):
            ScheduleParams(PER_ROUND, epsilon=1, gamma=1.0, rho=2)
        ScheduleParams(HORIZON, epsilon=1, gamma=1.0, rho=2)   # closed at 1 here

    def test_rho_lower_bound(self):
        with pytest.raises(ValueError):
            ScheduleParams(PER_ROUND, epsilon=1, gamma=0.5, rho=0.5)

    def test_fixed_count_required(self):
        with pytest.raises(ValueError):
            ScheduleParams(FIXED)
        with pytest.raises(ValueError):
            ScheduleParams(FIXED, fixed_count=1)

    def test_baseline_alpha_required(self):
        with pytest.raises(ValueError):
            ScheduleParams(BASELINE)
        with pytest.raises(ValueError):
            ScheduleParams(BASELINE, baseline_alpha=1.5)


class TestConsensus:
    def test_identity_keeps_points(self):
        xs = np.random.default_rng(0).random((3, 4))
        out = consensus_step(xs, WeightMatrix(np.eye(3), zeta=1.0))
        assert np.array_equal(out, xs)

    def test_complete_graph_averages(self):
        wm = metropolis_weights([(0, 1), (1, 2), (0, 2)], 3)
        xs = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        out = consensus_step(xs, wm)
        assert np.allclose(out, xs.mean(axis=0))

    def test_path_graph_weighted_sums(self):
        wm = metropolis_weights([(0, 1), (1, 2)], 3)
        a = wm.weights
        xs = np.array([[2.0], [-1.0], [4.0]])
        out = consensus_step(xs, wm)
        for i in range(3):
            expected = sum(a[i, j] * xs[j, 0] for j in range(3))
            assert out[i, 0] == pytest.approx(expected, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            consensus_step(np.zeros((2, 3)), WeightMatrix(np.eye(3), zeta=1.0))


class TestTracking:
    def test_first_step_copies_fresh_gradients(self):
        wm = metropolis_weights([(0, 1), (1, 2), (0, 2)], 3)
        fresh = np.random.default_rng(1).random((3, 2))
        bar, hat = tracking_step(None, None, fresh, wm, k=1)
        assert np.array_equal(bar, fresh)
        assert np.allclose(hat, wm.weights @ fresh)

    def test_single_agent_tracks_exactly(self):
        wm = WeightMatrix(np.array([[1.0]]), zeta=1.0)
        rng = np.random.default_rng(2)
        hat_prev = None
        fresh_prev = None
        for k in range(1, 6):
            fresh = rng.random((1, 3))
            bar, hat = tracking_step(hat_prev, fresh_prev, fresh, wm, k)
            assert np.allclose(hat, fresh, atol=1e-15)
            hat_prev, fresh_prev = hat, fresh

    def test_conservation_identity_two_steps(self):
        wm = metropolis_weights([(0, 1), (1, 2), (0, 2)], 3)
        rng = np.random.default_rng(3)
        fresh1 = rng.random((3, 4))
        bar1, hat1 = tracking_step(None, None, fresh1, wm, k=1)
        fresh2 = rng.random((3, 4))
        bar2, hat2 = tracking_step(hat1, fresh1, fresh2, wm, k=2)
        explicit = fresh2.sum(axis=0)   # direct sum oracle
        assert np.allclose(bar2.sum(axis=0), explicit, atol=1e-12)
        assert np.allclose(bar1.sum(axis=0), fresh1.sum(axis=0), atol=1e-14)

    def test_missing_state_raises(self):
        wm = WeightMatrix(np.array([[1.0]]), zeta=1.0)
        with pytest.raises(RuntimeError):
            tracking_step(None, None, np.zeros((1, 2)), wm, k=2)


class TestFwStep:
    def test_halfway_point(self):
        spec = ConstraintSpec.simplex(2)
        x_next, v = fw_step(np.array([1.0, 0.0]), np.array([1.0, -1.0]), 0.5, spec)
        assert np.array_equal(v, [0, 1])
        assert np.allclose(x_next, [0.5, 0.5])

    def test_full_step_lands_on_vertex(self):
        spec = ConstraintSpec.simplex(3)
        x_next, v = fw_step(np.full(3, 1 / 3), np.array([0.0, -2.0, 1.0]), 1.0, spec)
        assert np.array_equal(x_next, v)

    def test_vanishing_step_keeps_point(self):
        spec = ConstraintSpec.l1_ball(2, 2.0)
        x = np.array([0.25, -0.5])
        x_next, _ = fw_step(x, np.array([1.0, 1.0]), 1e-12, spec)
        assert np.allclose(x_next, x, atol=1e-11)

    def test_step_locality_bound(self):
        rng = np.random.default_rng(4)
        for spec in (ConstraintSpec.simplex(5), ConstraintSpec.l1_ball(5, 2.0)):
            m = 2 * spec.radius if spec.kind.value == "l1ball" else math.sqrt(2)
            for _ in range(100):
                x = sample_feasible(spec, rng)
                g = rng.normal(size=5)
                alpha = float(rng.uniform(1e-3, 1))
                x_next, _ = fw_step(x, g, alpha, spec)
                assert np.linalg.norm(x_next - x) <= alpha * m + 1e-12
                assert spec.contains(x_next, tol=1e-12)

    def test_alpha_range(self):
        spec = ConstraintSpec.simplex(2)
        with pytest.raises(ValueError):
            fw_step(np.array([1.0, 0.0]), np.zeros(2), 0.0, spec)


class TestRowViews:
    def test_row_calls_equal_stacked_rows(self):
        # the per-agent calls the tests use are row views of the stacked
        # calls the run makes
        rng = np.random.default_rng(5)
        for spec in (ConstraintSpec.simplex(6), ConstraintSpec.l1_ball(6, 1.5)):
            grads = rng.normal(size=(40, 6))
            grads[3] = 0.0                      # all-zero tie
            grads[7, 0] = grads[7, 1] = 2.0     # magnitude tie
            xs = sample_feasible(spec, rng, 40)
            xs[5] = 2.0 * spec.vertices()[1]    # one infeasible row
            stream = generate_stream(40, 3, 6, 1e-3, spec, seed=20)
            vertices = lmo(spec, grads)
            x_next, v_next = fw_step(xs, grads, 0.3, spec)
            fresh = local_grads(stream, 2, xs)
            assert np.array_equal(v_next, vertices)
            for i in range(40):
                assert np.array_equal(vertices[i], lmo(spec, grads[i]))
                assert np.array_equal(x_next[i], fw_step(xs[i], grads[i], 0.3, spec)[0])
                assert np.array_equal(fresh[i], grad_eval(stream, 2, i, xs[i]))
            worst = max(spec.feasibility_violation(row) for row in x_next)
            assert spec.feasibility_violation(x_next) == worst
            assert spec.feasibility_violation(xs) == max(spec.feasibility_violation(row) for row in xs) > 0


class TestRunRound:
    def test_single_agent_single_step_is_centralized_fw(self):
        stream, spec = single_agent_stream([1.0, -2.0], [0.25, 0.25], [[0.5]])
        sched = constant_schedule(WeightMatrix(np.array([[1.0]]), zeta=1.0), 1)
        params = ScheduleParams(BASELINE, baseline_alpha=0.3)
        x0 = np.array([[2.0, 0.0]])
        xs, diag = run_round(x0, stream, sched, spec, params, 1)
        g = grad_eval(stream, 1, 0, x0[0])
        expected, _ = fw_step(x0[0], g, 0.3, spec)
        assert np.allclose(xs[0], expected, atol=1e-15)
        assert diag.inner_count == 1
        assert diag.lo_calls_total == 1

    def test_single_agent_matches_independent_scalar_loop(self):
        # 1-d quadratic on [-2, 2]: the inner loop degenerates to fixed-step
        # Frank-Wolfe, reproduced here with scalar arithmetic
        stream, spec = single_agent_stream([1.5], [0.5], [[1.0]])
        b = stream.labels[0, 0]
        k_count, rho = 40, 2.0
        params = ScheduleParams(FIXED, fixed_count=k_count, rho=rho)
        sched = constant_schedule(WeightMatrix(np.array([[1.0]]), zeta=1.0), 1)
        alpha = 1 / (rho * k_count)
        x = -2.0
        scalar_path = []
        for _ in range(k_count):
            g = 1.5 * (1.5 * x - b)
            v = -2.0 if g >= 0 else 2.0
            x = x + alpha * (v - x)
            scalar_path.append(x)
        xs, diag = run_round(np.array([[-2.0]]), stream, sched, spec, params, 1, record_inner=True)
        engine_path = [float(diag.trace.x_mixed[k][0, 0] + alpha * (diag.trace.vertex[k][0, 0] - diag.trace.x_mixed[k][0, 0]))
                       for k in range(k_count)]
        assert np.allclose(engine_path, scalar_path, atol=1e-14)
        assert xs[0, 0] == pytest.approx(scalar_path[-1], abs=1e-14)

    def test_inner_objective_decreases_after_transient(self):
        stream, spec = single_agent_stream([1.5], [0.4], [[0.2]])
        params = ScheduleParams(FIXED, fixed_count=80, rho=1.5)
        sched = constant_schedule(WeightMatrix(np.array([[1.0]]), zeta=1.0), 1)
        _, diag = run_round(np.array([[-2.0]]), stream, sched, spec, params, 1, record_inner=True)
        objectives = np.array(diag.trace.objective)
        # geometric-plus-floor decrease: monotone after the first few steps
        # until the step-size floor is reached
        drops = np.diff(objectives[:40])
        assert np.all(drops <= 1e-12)
        assert objectives[40] < objectives[0]

    def test_average_iterate_recursion_identity(self):
        spec = ConstraintSpec.simplex(6)
        stream = generate_stream(8, 5, 6, 1e-4, spec, seed=6)
        sched = random_connected_schedule(8, 5, 0.4, seed=7)
        params = ScheduleParams(PER_ROUND, epsilon=2, gamma=0.5, rho=3)
        xs = initial_decisions(spec, 8)
        for t in range(1, 6):
            xs, diag = run_round(xs, stream, sched, spec, params, t)
            assert diag.avg_recursion_gap <= 1e-10

    def test_agent_state_snapshot(self):
        spec = ConstraintSpec.simplex(4)
        stream = generate_stream(3, 2, 4, 0.0, spec, seed=8)
        sched = random_connected_schedule(3, 2, 1.0, seed=9)
        params = ScheduleParams(FIXED, fixed_count=3, rho=2)
        xs, diag = run_round(initial_decisions(spec, 3), stream, sched, spec, params, 1, record_inner=True)
        first = diag.trace.agent_state(1, 0)
        assert first.grad_prev is None
        assert np.array_equal(first.grad_tracked_pre, diag.trace.grad_local[0][0])
        later = diag.trace.agent_state(2, 1)
        assert np.array_equal(later.grad_prev, diag.trace.grad_local[0][1])
        assert spec.contains(later.x, tol=1e-10)
        assert spec.contains(later.x_mixed, tol=1e-10)


class TestRun:
    def test_minimal_run_counters(self):
        stream, spec = single_agent_stream([1.0], [0.5], [[0.3]])
        sched = constant_schedule(WeightMatrix(np.array([[1.0]]), zeta=1.0), 1)
        params = ScheduleParams(BASELINE, baseline_alpha=0.5)
        traj = run(stream, sched, spec, params)
        assert traj.lo_calls == 1
        assert traj.messages == 0      # no neighbors
        assert traj.decisions.shape == (2, 1, 1)

    def test_lo_calls_match_direct_summation(self):
        # eps=1, gamma=0.5, T=100, n=1: sum_t (ceil(sqrt(t)) + 1) = 815
        params = ScheduleParams(PER_ROUND, epsilon=1, gamma=0.5, rho=4)
        assert lo_call_count(params, 100, n=1) == 815
        stream, spec = single_agent_stream([1.0], [0.5], [np.full(100, 0.5)])
        sched = constant_schedule(WeightMatrix(np.array([[1.0]]), zeta=1.0), 100)
        traj = run(stream, sched, spec, params)
        assert traj.lo_calls == 815

    def test_message_accounting_matches_direct_count(self):
        spec = ConstraintSpec.simplex(3)
        stream = generate_stream(5, 6, 3, 1e-4, spec, seed=10)
        sched = random_connected_schedule(5, 6, 0.5, seed=11)
        params = ScheduleParams(PER_ROUND, epsilon=2, gamma=0.4, rho=2)
        traj = run(stream, sched, spec, params)
        expected = sum(2 * inner_count(params, t, 6) * sched.matrix(t).directed_edges
                       for t in range(1, 7))
        assert traj.messages == expected
        assert traj.lo_calls == lo_call_count(params, 6, n=5)

    def test_reference_configuration_completes(self):
        spec = ConstraintSpec.simplex(8)
        stream = generate_stream(20, 40, 8, 5e-6, spec, seed=12)
        sched = random_connected_schedule(20, 40, 0.3, seed=13)
        params = ScheduleParams(PER_ROUND, epsilon=4, gamma=0.5, rho=4)
        traj = run(stream, sched, spec, params)
        assert traj.max_feasibility_gap() <= 1e-10
        assert traj.max_conservation_gap() <= 1e-9
        assert traj.max_avg_recursion_gap() <= 1e-10

    def test_determinism_bitwise(self):
        spec = ConstraintSpec.l1_ball(5, 2.0)
        stream = generate_stream(6, 10, 5, 1e-5, spec, seed=14)
        sched = random_connected_schedule(6, 10, 0.4, seed=15)
        params = ScheduleParams(PER_ROUND, epsilon=2, gamma=0.5, rho=3)
        t1 = run(stream, sched, spec, params, init="random", init_seed=3)
        t2 = run(stream, sched, spec, params, init="random", init_seed=3)
        assert np.array_equal(t1.decisions, t2.decisions)
        assert t1.lo_calls == t2.lo_calls and t1.messages == t2.messages

    def test_dimension_mismatches_rejected(self):
        spec = ConstraintSpec.simplex(3)
        stream = generate_stream(4, 5, 3, 0.0, spec, seed=16)
        sched = random_connected_schedule(5, 5, 0.5, seed=17)   # wrong agent count
        params = ScheduleParams(FIXED, fixed_count=2)
        with pytest.raises(ValueError):
            run(stream, sched, spec, params)

    def test_initial_decisions_modes(self):
        simplex = ConstraintSpec.simplex(4)
        xs = initial_decisions(simplex, 3)
        assert np.array_equal(xs, np.tile([1, 0, 0, 0], (3, 1)))
        ball = ConstraintSpec.l1_ball(4, 2.0)
        xs = initial_decisions(ball, 2)
        assert np.array_equal(xs, np.tile([2, 0, 0, 0], (2, 1)))
        rand = initial_decisions(ball, 5, init="random", seed=1)
        assert rand.shape == (5, 4)
        for row in rand:
            assert ball.contains(row, tol=1e-9)
        with pytest.raises(ValueError):
            initial_decisions(ball, 2, init="bogus")


class TestExports:
    def test_trajectory_and_diagnostics_csv(self, tmp_path):
        spec = ConstraintSpec.simplex(3)
        stream = generate_stream(2, 4, 3, 1e-4, spec, seed=18)
        sched = random_connected_schedule(2, 4, 0.0, seed=19)
        params = ScheduleParams(PER_ROUND, epsilon=2, gamma=0.5, rho=2)
        traj = run(stream, sched, spec, params)
        tpath = tmp_path / "trajectory.csv"
        dpath = tmp_path / "diagnostics.csv"
        write_trajectory_csv(traj, tpath)
        write_diagnostics_csv(traj, dpath)
        tlines = tpath.read_text().splitlines()
        assert tlines[0] == "t,agent,x_1,x_2,x_3"
        assert len(tlines) == 1 + 5 * 2    # (T + 1) rounds x agents
        dlines = dpath.read_text().splitlines()
        assert dlines[0].startswith("t,K_t,alpha_t,consistency_error,tracking_residual")
        assert len(dlines) == 1 + 4
        last = dlines[-1].split(",")
        assert int(last[0]) == 4
        assert int(last[5]) == traj.lo_calls
        assert int(last[6]) == traj.messages
