import hashlib
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domfw.algorithm as algorithm
from domfw.algorithm import (
    RoundDiagnostics,
    ScheduleMode,
    ScheduleParams,
    Trajectory,
    initial_decisions,
    inner_count,
    run,
    run_round,
    step_size,
)
from domfw.harness import write_diagnostics_csv, write_trajectory_csv
from domfw.network import MixingFold, WeightMatrix, metropolis_weights, random_connected_schedule
from domfw.problem import (
    ConstraintSpec,
    LossStream,
    _global_grad,
    _left_sum,
    generate_stream,
    global_loss,
    lmo,
    problem_constants,
    sample_feasible,
)
from domfw.regret import regret_upper_bound
from oracles import (
    CONSERVATION_TOL,
    FEASIBILITY_RUN_TOL,
    consensus_step,
    constant_schedule,
    fw_step,
    global_grad,
    grad_eval,
    inner_steps,
    kernel_note,
    lo_call_count,
    local_grads,
    tracking_step,
)

PER_ROUND = ScheduleMode.PER_ROUND
HORIZON = ScheduleMode.HORIZON
FIXED = ScheduleMode.FIXED
BASELINE = ScheduleMode.BASELINE


def single_agent_stream(a, truth, noise, lambda1=0.0, radius=2.0):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    spec = ConstraintSpec.l1_ball(a.shape[1], radius)
    return LossStream(lambda1, a, np.asarray(truth, float),
                      np.atleast_2d(np.asarray(noise, float)), spec)


def round_steps(xs, stream, sched, params, t):
    """Round ``t``'s oracle inner steps, with the weights, count and step the
    run uses; the last step's ``x_next`` is checked to be ``run_round``'s
    decision bit for bit, which ties a per-step property to the library."""
    k_t = inner_count(params, t, stream.T)
    steps = list(inner_steps(xs, stream, sched.matrix(t), step_size(params, k_t, stream.T), k_t, t))
    assert np.array_equal(steps[-1].x_next, run_round(xs, stream, sched.matrix(t), params, t)[0])
    return steps


def recursion_gap(steps, alpha):
    """Residual of the average-iterate recursion over one round's steps: the
    agents' average moves by ``alpha * (mean vertex - average)`` each step,
    because the weights are doubly stochastic."""
    drift = sum(s.vertex.mean(axis=0) - s.x.mean(axis=0) for s in steps)
    start, end = steps[0].x.mean(axis=0), steps[-1].x_next.mean(axis=0)
    return float(np.linalg.norm(end - (start + alpha * drift)))


def per_step_round(xs, stream, sched, params, t):
    """Round ``t`` stepped and monitored one oracle inner step at a time: the
    oracle for ``run_round``'s diagnostics."""
    n, spec = stream.n, stream.constraint
    wm = sched.matrix(t)
    k_t = inner_count(params, t, stream.T)
    alpha = step_size(params, k_t, stream.T)
    consistency = float(np.linalg.norm(xs - xs.mean(axis=0), axis=1).sum())
    tracking_residual = conservation_gap = feasibility_gap = 0.0
    for s in inner_steps(xs, stream, wm, alpha, k_t, t):
        conservation_gap = max(conservation_gap,
                               float(np.abs(s.grad_tracked_pre.sum(axis=0) - s.grad_local.sum(axis=0)).max()))
        mean_grad = global_grad(stream, t, s.x.mean(axis=0)) / n
        tracking_residual += alpha * float(np.linalg.norm(s.grad_tracked - mean_grad, axis=1).sum())
        feasibility_gap = max(feasibility_gap, spec.feasibility_violation(s.x_mixed),
                              spec.feasibility_violation(s.x_next))
    return s.x_next, RoundDiagnostics(t=t, inner_count=k_t, alpha=alpha, consistency_error=consistency,
                                      tracking_residual=tracking_residual, conservation_gap=conservation_gap,
                                      feasibility_gap=feasibility_gap, lo_calls=n * k_t,
                                      messages=2 * k_t * wm.directed_edges)


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

    @pytest.mark.parametrize("mode, symbol", [(HORIZON, "T"), (PER_ROUND, "t")])
    def test_overflowing_count_names_the_round(self, mode, symbol):
        params = ScheduleParams(mode, gamma=1 if mode is HORIZON else 0.5, epsilon=1e308)
        with pytest.raises(ValueError, match=rf"^round 5: epsilon \* {symbol}\*\*gamma is not finite$"):
            inner_count(params, 5, 5)

    def test_round_bounds(self):
        params = ScheduleParams(FIXED, fixed_count=3)
        with pytest.raises(ValueError):
            inner_count(params, 0, 10)
        with pytest.raises(ValueError):
            inner_count(params, 11, 10)


class TestStepSize:
    def test_inverse_rho_k(self):
        params = ScheduleParams(PER_ROUND, epsilon=4, gamma=0.5, rho=4)
        assert step_size(params, 9, 100) == pytest.approx(1 / 36, rel=1e-15)

    def test_boundary_value_one(self):
        params = ScheduleParams(FIXED, fixed_count=2, rho=1)
        assert step_size(params, 1, 10) == 1.0

    def test_underflowing_step_rejected(self):
        params = ScheduleParams(PER_ROUND, epsilon=1e300, rho=1e150)
        with pytest.raises(ValueError, match="not a positive finite number at K_t = 3.16228e"):
            step_size(params, inner_count(params, 10, 10), 10)

    def test_count_past_the_float_range_rejected(self):
        params = ScheduleParams(FIXED, fixed_count=10 ** 400)
        with pytest.raises(ValueError, match="^K_t is too large for a float$"):
            step_size(params, inner_count(params, 10, 10), 10)

    def test_baseline_reference_step(self):
        # alpha = 1 / (4 * T**0.4) at T = 1000
        alpha = 1 / (4 * 1000 ** 0.4)
        assert alpha == pytest.approx(0.01577393361200483, rel=1e-12)
        params = ScheduleParams(BASELINE, baseline_alpha=alpha)
        assert step_size(params, 1, 50) == alpha


class TestScheduleParamsValidation:
    def test_gamma_open_interval_for_per_round(self):
        with pytest.raises(ValueError):
            ScheduleParams(PER_ROUND, epsilon=1, gamma=1.0, rho=2)
        ScheduleParams(HORIZON, epsilon=1, gamma=1.0, rho=2)   # closed at 1 here

    def test_rho_lower_bound(self):
        with pytest.raises(ValueError):
            ScheduleParams(PER_ROUND, epsilon=1, gamma=0.5, rho=0.5)

    @pytest.mark.parametrize("mode", list(ScheduleMode))
    @pytest.mark.parametrize("field, value", [("gamma", 0.0), ("rho", 0.5), ("rho", math.inf),
                                              ("epsilon", math.inf), ("epsilon", math.nan),
                                              ("fixed_count", 1), ("baseline_alpha", 1.5)])
    def test_every_field_checked_in_every_mode(self, mode, field, value):
        with pytest.raises(ValueError, match=rf"^schedule\.{field}: "):
            ScheduleParams(mode, **{"fixed_count": 3, field: value})

    def test_per_round_gamma_refused_in_the_words_of_validate(self):
        message = "schedule.gamma: per-round schedule requires 0 < gamma < 1, got 1.5"
        with pytest.raises(ValueError) as refused:
            ScheduleParams(PER_ROUND, gamma=1.5)
        assert str(refused.value) == message

    @pytest.mark.parametrize("mode", ["fixed", "per_round", None])
    def test_mode_of_another_type_refused(self, mode):
        # a str is no ScheduleMode: inner_count would step the horizon rule (K_t = 9 at T = 4 for "fixed")
        with pytest.raises(ValueError, match=rf"^schedule\.mode: must be a ScheduleMode, got {mode!r}$"):
            ScheduleParams(mode, fixed_count=3)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, "3"])
    def test_fixed_count_must_be_an_integer(self, count):
        # 2.5 would step K_t = 2 silently
        with pytest.raises(ValueError, match=r"^schedule\.fixed_count: must be an integer, got "):
            ScheduleParams(FIXED, fixed_count=count)

    @pytest.mark.parametrize("mode, field", [(PER_ROUND, "epsilon"), (FIXED, "fixed_count")])
    def test_an_int_past_the_digit_limit_is_named_by_its_size(self, mode, field):
        # str() refuses to write such an int; the message names the key and the int's size instead
        digits = sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match=rf"^schedule\.{field}: must be [^;]*, got an int of over {digits} digits$"):
            ScheduleParams(mode, **{"fixed_count": 3, field: -10 ** 5000})

    def test_fixed_count_may_be_a_numpy_integer(self):
        assert inner_count(ScheduleParams(FIXED, fixed_count=np.int64(3)), 2, 4) == 3

    def test_fixed_count_required(self):
        with pytest.raises(ValueError):
            ScheduleParams(FIXED)
        with pytest.raises(ValueError):
            ScheduleParams(FIXED, fixed_count=1)

    def test_baseline_alpha_defaults_to_horizon_step(self):
        params = ScheduleParams(BASELINE)
        assert step_size(params, 1, 1000) == 1 / (4 * 1000 ** 0.4)
        assert step_size(params, 1, 10) == 1 / (4 * 10 ** 0.4)
        with pytest.raises(ValueError):
            ScheduleParams(BASELINE, baseline_alpha=1.5)


class TestConsensus:
    def test_identity_keeps_points(self):
        xs = np.random.default_rng(0).random((3, 4))
        out = consensus_step(xs, WeightMatrix(np.eye(3)))
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
            consensus_step(np.zeros((2, 3)), WeightMatrix(np.eye(3)))


class TestTracking:
    def test_first_step_copies_fresh_gradients(self):
        wm = metropolis_weights([(0, 1), (1, 2), (0, 2)], 3)
        fresh = np.random.default_rng(1).random((3, 2))
        bar, hat = tracking_step(None, None, fresh, wm, k=1)
        assert np.array_equal(bar, fresh)
        assert np.allclose(hat, wm.weights @ fresh)

    def test_single_agent_tracks_exactly(self):
        wm = WeightMatrix(np.array([[1.0]]))
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
        wm = WeightMatrix(np.array([[1.0]]))
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
            stream = generate_stream(40, 3, 1e-3, spec, seed=20)
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
        stream = single_agent_stream([1.0, -2.0], [0.25, 0.25], [[0.5]])
        sched = constant_schedule(WeightMatrix(np.array([[1.0]])), 1)
        params = ScheduleParams(BASELINE, baseline_alpha=0.3)
        x0 = np.array([[2.0, 0.0]])
        xs, diag = run_round(x0, stream, sched.matrix(1), params, 1)
        g = grad_eval(stream, 1, 0, x0[0])
        expected, _ = fw_step(x0[0], g, 0.3, stream.constraint)
        assert np.allclose(xs[0], expected, atol=1e-15)
        assert diag.inner_count == 1
        assert diag.lo_calls == 1

    def test_single_agent_matches_independent_scalar_loop(self):
        # 1-d quadratic on [-2, 2]: the inner loop degenerates to fixed-step
        # Frank-Wolfe, reproduced here with scalar arithmetic
        stream = single_agent_stream([1.5], [0.5], [[1.0]])
        b = stream.labels[0, 0]
        k_count, rho = 40, 2.0
        params = ScheduleParams(FIXED, fixed_count=k_count, rho=rho)
        sched = constant_schedule(WeightMatrix(np.array([[1.0]])), 1)
        alpha = 1 / (rho * k_count)
        x = -2.0
        scalar_path = []
        for _ in range(k_count):
            g = 1.5 * (1.5 * x - b)
            v = -2.0 if g >= 0 else 2.0
            x = x + alpha * (v - x)
            scalar_path.append(x)
        x0 = np.array([[-2.0]])
        steps = round_steps(x0, stream, sched, params, 1)
        engine_path = [float(s.x_next[0, 0]) for s in steps]
        assert np.allclose(engine_path, scalar_path, atol=1e-14)
        xs, _ = run_round(x0, stream, sched.matrix(1), params, 1)
        assert xs[0, 0] == pytest.approx(scalar_path[-1], abs=1e-14)

    def test_inner_objective_decreases_after_transient(self):
        stream = single_agent_stream([1.5], [0.4], [[0.2]])
        params = ScheduleParams(FIXED, fixed_count=80, rho=1.5)
        sched = constant_schedule(WeightMatrix(np.array([[1.0]])), 1)
        steps = round_steps(np.array([[-2.0]]), stream, sched, params, 1)
        iterates = [s.x for s in steps] + [steps[-1].x_next]
        objectives = np.array([global_loss(stream, 1, x.mean(axis=0)) for x in iterates])
        # geometric-plus-floor decrease: monotone after the first few steps
        # until the step-size floor is reached
        drops = np.diff(objectives[:40])
        assert np.all(drops <= 1e-12)
        assert objectives[40] < objectives[0]

    def test_average_iterate_recursion_identity(self):
        spec = ConstraintSpec.simplex(6)
        stream = generate_stream(8, 5, 1e-4, spec, seed=6)
        sched = random_connected_schedule(8, 5, 0.4, seed=7)
        params = ScheduleParams(PER_ROUND, epsilon=2, gamma=0.5, rho=3)
        xs = initial_decisions(spec, 8)
        for t in range(1, 6):
            steps = round_steps(xs, stream, sched, params, t)
            assert recursion_gap(steps, step_size(params, len(steps), stream.T)) <= 1e-10
            xs = steps[-1].x_next

    def test_inner_step_snapshot(self):
        spec = ConstraintSpec.simplex(4)
        stream = generate_stream(3, 2, 0.0, spec, seed=8)
        sched = random_connected_schedule(3, 2, 1.0, seed=9)
        params = ScheduleParams(FIXED, fixed_count=3, rho=2)
        first, second, _ = round_steps(initial_decisions(spec, 3), stream, sched, params, 1)
        assert np.array_equal(first.grad_tracked_pre, first.grad_local)
        assert np.array_equal(second.x, first.x_next)
        assert np.array_equal(second.grad_tracked_pre,
                              first.grad_tracked + second.grad_local - first.grad_local)
        assert np.array_equal(second.grad_local, local_grads(stream, 1, second.x_mixed))
        assert spec.contains(second.x[1], tol=1e-10)
        assert spec.contains(second.x_mixed[1], tol=1e-10)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(n=st.integers(2, 6), d=st.integers(1, 6), ball=st.booleans(),
           edge_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**16), fixed=st.booleans())
    def test_inner_step_invariants(self, n, d, ball, edge_prob, seed, fixed):
        spec = ConstraintSpec.l1_ball(d, 1.5) if ball else ConstraintSpec.simplex(d)
        stream = generate_stream(n, 3, 1e-3, spec, seed=seed)
        sched = random_connected_schedule(n, 3, edge_prob, seed=seed + 1)
        params = (ScheduleParams(FIXED, fixed_count=3, rho=2) if fixed
                  else ScheduleParams(PER_ROUND, epsilon=2, gamma=0.5, rho=3))
        xs = initial_decisions(spec, n, init="random", seed=seed + 2)
        for t in range(1, 4):
            steps = round_steps(xs, stream, sched, params, t)
            for s in steps:
                assert spec.feasibility_violation(s.x_mixed) <= FEASIBILITY_RUN_TOL
                assert spec.feasibility_violation(s.x_next) <= FEASIBILITY_RUN_TOL
                assert np.abs(s.grad_tracked_pre.sum(axis=0) - s.grad_local.sum(axis=0)).max() <= CONSERVATION_TOL
            assert recursion_gap(steps, step_size(params, len(steps), stream.T)) <= 1e-10
            xs = steps[-1].x_next

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(n=st.integers(2, 6), d=st.integers(1, 6), ball=st.booleans(),
           edge_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**16), fixed=st.booleans())
    def test_diagnostics_equal_per_step_oracle(self, n, d, ball, edge_prob, seed, fixed):
        spec = ConstraintSpec.l1_ball(d, 1.5) if ball else ConstraintSpec.simplex(d)
        stream = generate_stream(n, 3, 1e-3, spec, seed=seed)
        sched = random_connected_schedule(n, 3, edge_prob, seed=seed + 1)
        params = (ScheduleParams(FIXED, fixed_count=3, rho=2) if fixed
                  else ScheduleParams(PER_ROUND, epsilon=2, gamma=0.5, rho=3))
        xs = initial_decisions(spec, n, init="random", seed=seed + 2)
        for t in range(1, 4):
            expected_xs, expected = per_step_round(xs, stream, sched, params, t)
            xs, diag = run_round(xs, stream, sched.matrix(t), params, t)
            assert np.array_equal(xs, expected_xs)
            assert diag == expected

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(k=st.integers(1, 150), n=st.integers(1, 200), d=st.integers(1, 16), lambda1=st.floats(0.0, 1e3),
           alpha=st.floats(1e-6, 1.0), seed=st.integers(0, 2 ** 16))
    def test_stacked_summary_rounds_as_per_step_loops(self, k, n, d, lambda1, alpha, seed):
        # run_round's one stacked gradient call and its sum of the stacked
        # alpha-weighted residuals stand for a per-step loop: every bit
        rng = np.random.default_rng(seed)
        feats, labels, xs = rng.uniform(-5, 5, (n, d)), rng.uniform(-5, 5, n), rng.uniform(-1, 1, (k, d))
        stacked = _global_grad(feats, labels, lambda1, xs)
        for x, row in zip(xs, stacked, strict=True):
            want = feats.T @ (feats @ x - labels) + 2.0 * n * lambda1 * x
            assert list(map(float.hex, row.tolist())) == list(map(float.hex, want.tolist()))
        residuals = rng.uniform(0, 1, k) * 10.0 ** rng.integers(-8, 9, k)
        total = 0.0
        for residual in residuals.tolist():
            total += alpha * residual
        assert _left_sum((alpha * residuals).tolist()).hex() == total.hex()

    @pytest.mark.parametrize("change, message", [
        ({"xs": np.zeros((3, 2))}, r"^expected \(4, 3\) stacked decisions, got \(3, 2\)$"),
        ({"wm": WeightMatrix(np.eye(3))}, r"^weight matrix size does not match the stream$"),
    ])
    def test_run_round_checks_inputs(self, change, message):
        spec = ConstraintSpec.simplex(3)
        stream = generate_stream(4, 2, 1e-3, spec, seed=27)
        args = {"xs": initial_decisions(spec, 4), "wm": random_connected_schedule(4, 2, 0.5, seed=28).matrix(1)} | change
        with pytest.raises(ValueError, match=message):
            run_round(args["xs"], stream, args["wm"], ScheduleParams(FIXED, fixed_count=3, rho=2), 1)


class TestRun:
    def test_trajectory_holds_the_run_decisions_without_a_copy(self, monkeypatch):
        handed = []
        monkeypatch.setattr(algorithm, "Trajectory", lambda **kw: handed.append(kw["decisions"]) or Trajectory(**kw))
        stream = generate_stream(3, 4, 1e-3, ConstraintSpec.simplex(2), seed=31)
        traj = run(stream, random_connected_schedule(3, 4, 0.5, seed=32), ScheduleParams())
        assert traj.decisions is handed[0]
        assert not traj.decisions.flags.writeable
        # an array the caller can still write to is copied, and left writeable
        mine = np.zeros((2, 1, 1))
        kept = Trajectory(decisions=mine, rounds=(), mixing=MixingFold(1)).decisions
        assert kept is not mine and mine.flags.writeable and not kept.flags.writeable

    def test_schedule_shorter_than_the_stream_is_rejected(self):
        stream = generate_stream(3, 4, 1e-3, ConstraintSpec.simplex(2), seed=31)
        with pytest.raises(ValueError, match="^schedule horizon is shorter than the stream$"):
            run(stream, random_connected_schedule(3, 3, 0.5, seed=32), ScheduleParams())

    def test_counts_steps_and_bound_read_the_streams_horizon(self):
        # a T = 4 stream on a 100-round schedule: the horizon schedule steps
        # ceil(4 * 4**0.5) + 1 = 9 inner steps a round, not ceil(4 * 100**0.5) + 1 = 41
        stream = generate_stream(4, 4, 1e-4, ConstraintSpec.simplex(3), seed=33)
        sched = random_connected_schedule(4, 100, 0.5, seed=34)
        params = ScheduleParams(HORIZON, epsilon=4, gamma=0.5, rho=4)
        traj = run(stream, sched, params)
        assert [r.inner_count for r in traj.rounds] == [9] * 4
        assert all(r.alpha == 1 / (4 * 9) for r in traj.rounds)
        baseline = run(stream, sched, ScheduleParams(BASELINE))
        assert [r.alpha for r in baseline.rounds] == [1 / (4 * 4 ** 0.4)] * 4
        report = regret_upper_bound(problem_constants(stream), sched.zeta, params, stream, traj.x_init)
        assert report.inv_count_sum == _left_sum(1 / r.inner_count for r in traj.rounds)

    def test_minimal_run_counters(self):
        stream = single_agent_stream([1.0], [0.5], [[0.3]])
        sched = constant_schedule(WeightMatrix(np.array([[1.0]])), 1)
        params = ScheduleParams(BASELINE, baseline_alpha=0.5)
        traj = run(stream, sched, params)
        assert traj.lo_calls == 1
        assert traj.messages == 0      # no neighbors
        assert traj.decisions.shape == (2, 1, 1)

    def test_lo_calls_match_direct_summation(self):
        # eps=1, gamma=0.5, T=100, n=1: sum_t (ceil(sqrt(t)) + 1) = 815
        params = ScheduleParams(PER_ROUND, epsilon=1, gamma=0.5, rho=4)
        assert lo_call_count(params, 100, n=1) == 815
        stream = single_agent_stream([1.0], [0.5], [np.full(100, 0.5)])
        sched = constant_schedule(WeightMatrix(np.array([[1.0]])), 100)
        traj = run(stream, sched, params)
        assert traj.lo_calls == 815

    def test_message_accounting_matches_direct_count(self):
        spec = ConstraintSpec.simplex(3)
        stream = generate_stream(5, 6, 1e-4, spec, seed=10)
        sched = random_connected_schedule(5, 6, 0.5, seed=11)
        params = ScheduleParams(PER_ROUND, epsilon=2, gamma=0.4, rho=2)
        traj = run(stream, sched, params)
        expected = sum(2 * inner_count(params, t, 6) * sched.matrix(t).directed_edges
                       for t in range(1, 7))
        assert traj.messages == expected
        assert traj.lo_calls == lo_call_count(params, 6, n=5)

    def test_reference_configuration_completes(self):
        spec = ConstraintSpec.simplex(8)
        stream = generate_stream(20, 40, 5e-6, spec, seed=12)
        sched = random_connected_schedule(20, 40, 0.3, seed=13)
        params = ScheduleParams(PER_ROUND, epsilon=4, gamma=0.5, rho=4)
        traj = run(stream, sched, params)
        assert traj.max_feasibility_gap() <= FEASIBILITY_RUN_TOL
        assert traj.max_conservation_gap() <= CONSERVATION_TOL

    def test_determinism_bitwise(self):
        spec = ConstraintSpec.l1_ball(5, 2.0)
        stream = generate_stream(6, 10, 1e-5, spec, seed=14)
        sched = random_connected_schedule(6, 10, 0.4, seed=15)
        params = ScheduleParams(PER_ROUND, epsilon=2, gamma=0.5, rho=3)
        t1 = run(stream, sched, params, init="random", init_seed=3)
        t2 = run(stream, sched, params, init="random", init_seed=3)
        assert np.array_equal(t1.decisions, t2.decisions)
        assert t1.lo_calls == t2.lo_calls and t1.messages == t2.messages

    def test_random_init_needs_a_seed(self):
        # an unseeded draw would give a different trajectory on every call
        stream = generate_stream(4, 3, 1e-5, ConstraintSpec.l1_ball(3, 2.0), seed=14)
        sched = random_connected_schedule(4, 3, 0.4, seed=15)
        with pytest.raises(ValueError, match="init_seed"):
            run(stream, sched, ScheduleParams(), init="random")
        with pytest.raises(ValueError, match="needs a seed"):
            initial_decisions(stream.constraint, 4, init="random")

    def test_dimension_mismatches_rejected(self):
        spec = ConstraintSpec.simplex(3)
        stream = generate_stream(4, 5, 0.0, spec, seed=16)
        sched = random_connected_schedule(5, 5, 0.5, seed=17)   # wrong agent count
        params = ScheduleParams(FIXED, fixed_count=2)
        with pytest.raises(ValueError):
            run(stream, sched, params)

    @pytest.mark.parametrize("params, failure", [
        # the counts are summed before round 1; round 4's count is past the float range
        (ScheduleParams(PER_ROUND, epsilon=1e308, gamma=0.5), "round 4 failed: round 4: epsilon * t**gamma"),
        # a sum of counts too large for the mixing bound's float power keeps the product
        (ScheduleParams(FIXED, fixed_count=10 ** 400), "round 1 failed: K_t is too large for a float"),
    ])
    def test_a_count_that_cannot_run_names_its_round(self, params, failure):
        stream = generate_stream(4, 4, 1e-3, ConstraintSpec.simplex(3), seed=29)
        sched = random_connected_schedule(4, 4, 0.5, seed=30)
        with pytest.raises(RuntimeError, match=f"^{re.escape(failure)}"):
            run(stream, sched, params)

    def test_overflowing_gradient_names_the_round(self):
        spec = ConstraintSpec.l1_ball(3, 1e307)
        stream = generate_stream(4, 3, 1e-3, spec, seed=29)
        sched = random_connected_schedule(4, 3, 0.5, seed=30)
        params = ScheduleParams(PER_ROUND, epsilon=2, gamma=0.5, rho=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="^round 1 failed: gradient has non-finite entries$"):
                run(stream, sched, params)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(data=st.data(), n=st.integers(2, 8), d=st.integers(1, 6), T=st.integers(1, 4),
           ball=st.booleans(), edge_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def test_relabeling_agents_permutes_the_decisions(self, data, n, d, T, ball, edge_prob, seed):
        # new agent k is old agent perm[k]: its feature and noise rows move with it,
        # and the weights are conjugated to match (P W P^T). Mixing sums then run in
        # another order, so decisions agree to rounding, not bit for bit.
        perm = np.array(data.draw(st.permutations(range(n))))
        spec = ConstraintSpec.l1_ball(d, 1.5) if ball else ConstraintSpec.simplex(d)
        stream = generate_stream(n, T, 1e-3, spec, seed=seed)
        relabeled = LossStream(stream.lambda1, stream.features[perm], stream.ground_truth,
                               stream.noise[perm], spec)
        wm = random_connected_schedule(n, 1, edge_prob, seed=seed + 1).matrix(1)
        conjugated = WeightMatrix(wm.weights[np.ix_(perm, perm)])
        params = ScheduleParams(PER_ROUND, epsilon=2, gamma=0.5, rho=3)
        original = run(stream, constant_schedule(wm, T), params)
        permuted = run(relabeled, constant_schedule(conjugated, T), params)
        assert np.abs(permuted.decisions - original.decisions[:, perm]).max() <= 1e-12
        assert permuted.lo_calls == original.lo_calls and permuted.messages == original.messages

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


def single_agent_schedule(T):
    return constant_schedule(WeightMatrix(np.array([[1.0]])), T)


class TestRunGolden:
    """Pins a run's bits: every committed decision and every round's diagnostics."""

    CASES = {
        "simplex-per_round-fixed": (
            lambda: generate_stream(4, 6, 1e-3, ConstraintSpec.simplex(3), seed=31),
            lambda: random_connected_schedule(4, 6, 0.5, seed=32),
            ScheduleParams(PER_ROUND, epsilon=2, gamma=0.5, rho=3), "random"),
        "ball-horizon-redraw": (
            lambda: generate_stream(3, 5, 1e-3, ConstraintSpec.l1_ball(4, 1.5), seed=33, redraw_features=True),
            lambda: random_connected_schedule(3, 5, 0.3, seed=34),
            ScheduleParams(HORIZON, epsilon=1, gamma=1.0, rho=2), "vertex"),
        "simplex-fixed-redraw": (
            lambda: generate_stream(5, 4, 1e-4, ConstraintSpec.simplex(5), seed=35, redraw_features=True),
            lambda: random_connected_schedule(5, 4, 0.4, seed=36),
            ScheduleParams(FIXED, fixed_count=3, rho=2), "random"),
        "ball-baseline-fixed": (
            lambda: generate_stream(6, 5, 1e-3, ConstraintSpec.l1_ball(2, 2.0), seed=37),
            lambda: random_connected_schedule(6, 5, 0.2, seed=38),
            ScheduleParams(BASELINE, baseline_alpha=0.2), "random"),
        "single-ball-per_round-fixed": (
            lambda: generate_stream(1, 6, 1e-3, ConstraintSpec.l1_ball(3, 2.0), seed=39),
            lambda: single_agent_schedule(6),
            ScheduleParams(PER_ROUND, epsilon=4, gamma=0.5, rho=4), "vertex"),
        "single-simplex-baseline-redraw": (
            lambda: generate_stream(1, 5, 0.0, ConstraintSpec.simplex(4), seed=40, redraw_features=True),
            lambda: single_agent_schedule(5),
            ScheduleParams(BASELINE), "random"),
        # long rounds: the reference shape (K_t reaches 50) and an l1-ball shape (K_t reaches 23)
        "reference-per_round-fixed": (
            lambda: generate_stream(20, 150, 5e-6, ConstraintSpec.simplex(8), seed=42),
            lambda: random_connected_schedule(20, 150, 0.3, seed=43),
            ScheduleParams(PER_ROUND, epsilon=4, gamma=0.5, rho=4), "vertex"),
        "ball-per_round-redraw": (
            lambda: generate_stream(32, 30, 1e-3, ConstraintSpec.l1_ball(16, 2.0), seed=44, redraw_features=True),
            lambda: random_connected_schedule(32, 30, 0.3, seed=45),
            ScheduleParams(PER_ROUND, epsilon=4, gamma=0.5, rho=4), "random"),
    }
    # sha256 of trajectory.csv, diagnostics.csv and repr(trajectory.rounds);
    # the bits depend on the BLAS build, like perfbench/digests.json; these are
    # scipy-openblas 0.3.31 with NumPy 2.4.6
    DIGESTS = {
        "ball-baseline-fixed": (
            "abc6333fdd9e356478ad12d33891ec267df3e99b4642605072b1b7105b2ae0ca",
            "8e64e624b764d58f14f3958441ae0131e432dd73cb6678a805e7e8851b4bf867",
            "28e2df1db9c2b81c44b7c681eee5249d5537b7032c0508ccfddddb685f70a85d",
        ),
        "ball-horizon-redraw": (
            "de41b8918c671908b97b02f302ac1f30cd4d227c189aefbce76326a4dca1e9f2",
            "72948301724f9d035e9074645565f3823a2fd1cd0185683a32870288081c9fcb",
            "2e0c2dcc794c1f3e15291d7a9afbb1970d6f0f14cb48ac56b0c0fdd521ef099e",
        ),
        "simplex-fixed-redraw": (
            "9ec6667718478a757b602a550338c6215afd0f0494e360aa6cebf179068c94cc",
            "65bec59ad38ab28c42ae8fa5c8a701880cf6210b2c8046bebc57676ed836e1ab",
            "6ef3c97fbcafdad31ac042d64bca1abcb8dda3657fc1b411a5beb79ada71bf23",
        ),
        "simplex-per_round-fixed": (
            "6c80302e27941b1ca9057bef2f58c5293c1b3334688cdc385fa48dca5546e607",
            "491ea75a4266d78eedb2658b489c101e74451cffcb3c18b0a5f59e1809d877aa",
            "7f89b12ae4031afae83175054bd6cae59cb2a9be6b438b775d063fc336293ee0",
        ),
        "single-ball-per_round-fixed": (
            "24a4f68bd63e9fbb9a173ad82c491934e75480c2b01afb3d9559b2a77c19830b",
            "1fa26de52b2d279b0fecd09c19b65239d7c31476d9b4103a3284a2ae022f2ed0",
            "881e36dd766f780dd3321da0f8d6f53b454f7e038478e3ac7f61f7bd8bbf77c3",
        ),
        "single-simplex-baseline-redraw": (
            "70fb6e3e9a02ce6158630e7342e23f870f7ef732be605b08ae3ab949c7bf9448",
            "a2133fd612931e037349d953dd3c1638a049bd506f1501efbbd444f179819e00",
            "80d98447736a703f98b7d65ac1cf27eab07a85ef17c1c4043ad131f63f8619d0",
        ),
        "reference-per_round-fixed": (
            "ecb26fc3ed2ad20f70a53ff1859c4eb8965f9eec4cab07b2a9a70d5edf4fa9f2",
            "1cec932003926b281e51b77d82d3f2035ec89549da24d7df935d27479a5faf41",
            "452ffdbb779f45ee987ad2d4b68da56668e5a08793ba8671f7d39fd29e4b5813",
        ),
        "ball-per_round-redraw": (
            "1f7990b346ee0b30b64dbc214ed6070df4b00b9afa6e860c8406b1af7da2d41a",
            "1ad2a39249895c2006b48923c6017c1ffa753eaf9cbbe5828db2a9659d62659d",
            "489c7b2074ddf4439e1bf769ac51878bd54878dc886a5cca58051faa0dc183c5",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_run_bytes(self, name, tmp_path):
        make_stream, make_schedule, params, init = self.CASES[name]
        traj = run(make_stream(), make_schedule(), params, init=init, init_seed=41)
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        write_diagnostics_csv(traj, tmp_path / "diagnostics.csv")
        digests = tuple(hashlib.sha256(data).hexdigest() for data in (
            (tmp_path / "trajectory.csv").read_bytes(), (tmp_path / "diagnostics.csv").read_bytes(),
            repr(traj.rounds).encode()))
        assert digests == self.DIGESTS[name], kernel_note()


class TestExports:
    def test_trajectory_and_diagnostics_csv(self, tmp_path):
        spec = ConstraintSpec.simplex(3)
        stream = generate_stream(2, 4, 1e-4, spec, seed=18)
        sched = random_connected_schedule(2, 4, 0.0, seed=19)
        params = ScheduleParams(PER_ROUND, epsilon=2, gamma=0.5, rho=2)
        traj = run(stream, sched, params)
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
