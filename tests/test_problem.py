import dataclasses
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domfw import problem
from domfw.harness import write_stream_csv
from domfw.problem import (
    VARIATION_SAMPLES,
    ConstraintKind,
    ConstraintSpec,
    LossStream,
    _l1_slot,
    _lmo,
    _simplex_slot,
    diameter,
    estimate_function_variation,
    function_variation_bound,
    generate_stream,
    global_loss,
    lmo,
    problem_constants,
    sample_feasible,
)
from oracles import (global_grad, grad_eval, loss_eval, read_stream_csv, reference_function_variation,
                     reference_redrawn_variation)
from test_regret import GRADIENT_ENTRY


def ball_stream(features, ground_truth, noise, lambda1=0.0, radius=2.0):
    """Hand-built stream on an l1 ball (labels derived from the pieces)."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    spec = ConstraintSpec.l1_ball(features.shape[1], radius)
    return LossStream(lambda1, features, np.asarray(ground_truth, float),
                      np.atleast_2d(np.asarray(noise, float)), spec)


class TestLMO:
    def test_simplex_picks_min_coordinate(self):
        spec = ConstraintSpec.simplex(3)
        assert np.array_equal(lmo(spec, np.array([3.0, 1.0, 2.0])), [0, 1, 0])

    def test_simplex_tie_lowest_index(self):
        spec = ConstraintSpec.simplex(3)
        assert np.array_equal(lmo(spec, np.array([-1.0, -1.0, 5.0])), [1, 0, 0])

    def test_ball_largest_magnitude_coordinate(self):
        spec = ConstraintSpec.l1_ball(2, 2.0)
        v = lmo(spec, np.array([3.0, -5.0]))
        assert np.array_equal(v, [0, 2])
        assert v @ np.array([3.0, -5.0]) == -10

    def test_ball_tie_lowest_index_sign_of_zero_positive(self):
        spec = ConstraintSpec.l1_ball(2, 2.0)
        assert np.array_equal(lmo(spec, np.array([4.0, -4.0])), [-2, 0])
        assert np.array_equal(lmo(spec, np.zeros(2)), [-2, 0])

    def test_dimension_and_finiteness_errors(self):
        spec = ConstraintSpec.simplex(3)
        with pytest.raises(ValueError):
            lmo(spec, np.zeros(4))
        with pytest.raises(ValueError):
            lmo(spec, np.array([1.0, np.nan, 0.0]))

    @pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            ConstraintSpec.l1_ball(3, radius)

    @pytest.mark.parametrize("make, rule", [(lambda: ConstraintSpec.simplex(-10 ** 5000), "dimension must be >= 1"),
                                            (lambda: ConstraintSpec.l1_ball(3, -10 ** 5000),
                                             "radius must be finite and > 0")])
    def test_an_int_past_the_digit_limit_is_named_by_its_size(self, make, rule):
        # str() refuses to write such an int; the message names the field and the int's size instead
        digits = sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match=rf"^{rule}, got an int of over {digits} digits$"):
            make()

    @pytest.mark.parametrize("dimension", [2.5, True, np.float64(3.0)])
    def test_a_dimension_that_is_not_an_integer_is_refused(self, dimension):
        # built, it would fail at the first vertices() call with a bare TypeError
        with pytest.raises(ValueError, match=rf"^dimension must be an integer, got {re.escape(repr(dimension))}$"):
            ConstraintSpec.simplex(dimension)
        assert ConstraintSpec.simplex(np.int64(3)).vertices().shape == (3, 3)

    @pytest.mark.parametrize("radius", [10 ** 400, 2 ** 1024])
    def test_a_radius_with_no_float_is_refused(self, radius):
        # accepted, it would overflow the vertex table on first use
        with pytest.raises(ValueError, match=rf"^radius must fit in a float, got {radius}$"):
            ConstraintSpec.l1_ball(3, radius)
        assert ConstraintSpec.l1_ball(3, int(sys.float_info.max)).radius == sys.float_info.max

    @pytest.mark.parametrize("make", [ConstraintSpec.simplex, lambda d: ConstraintSpec.l1_ball(d, 1.7)])
    def test_minimizes_over_all_vertices(self, make):
        rng = np.random.default_rng(0)
        for d in (1, 2, 5, 17, 32):
            spec = make(d)
            verts = spec.vertices()
            for _ in range(50):
                g = rng.normal(size=d)
                v = lmo(spec, g)
                assert v @ g <= (verts @ g).min() + 1e-14
                assert spec.contains(v)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(data=st.data(), ball=st.booleans(), m=st.integers(1, 5), d=st.integers(1, 6))
    def test_stacked_rows_are_the_scalar_rules_vertices(self, data, ball, m, d):
        # both shapes of the oracle pick the same slot, and the stacked one
        # gathers that row of the vertex table, bit for bit with signed zeros
        spec = ConstraintSpec.l1_ball(d, 1.5) if ball else ConstraintSpec.simplex(d)
        rule = _l1_slot if ball else _simplex_slot
        # entries from a short list as well, so rows tie and zero rows occur
        entry = st.one_of(GRADIENT_ENTRY, st.sampled_from([0.0, -0.0, 2.0, -2.0]))
        grads = np.array(data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=m, max_size=m)))
        out = np.full((m, d), np.nan)
        assert _lmo(spec, grads, out=out) is out
        for v in (out, _lmo(spec, grads), lmo(spec, grads)):
            for row, g in zip(v, grads, strict=True):
                assert row.tobytes() == spec.vertices()[rule(g)].tobytes()

    @pytest.mark.parametrize("spec", [ConstraintSpec.simplex(5), ConstraintSpec.l1_ball(5, 1.5)], ids=["simplex", "ball"])
    def test_vertex_table_is_built_once_and_read_only(self, spec):
        verts = spec.vertices()
        assert spec.vertices() is verts and not verts.flags.writeable
        with pytest.raises(ValueError):
            verts[0, 0] = 2.0
        # the table built entry by entry, +0.0 off each vertex's axis
        if spec.kind is ConstraintKind.UNIT_SIMPLEX:
            want = np.eye(5)
        else:
            want = np.zeros((10, 5))
            for j in range(5):
                want[2 * j, j], want[2 * j + 1, j] = -1.5, 1.5
        assert verts.tobytes() == want.tobytes()
        # each slot's coordinate and signed value, as read off the table
        _, _, coord, value = spec._oracle
        assert coord.tolist() == np.abs(want).argmax(axis=1).tolist()
        assert value.tobytes() == want[np.arange(len(want)), coord].tobytes()

    @pytest.mark.parametrize("kind", ["simplex", "l1ball", None])
    def test_kind_of_another_type_refused(self, kind):
        # a str is no ConstraintKind: the oracle would take the l1 ball, whose vertices leave the simplex
        with pytest.raises(ValueError, match=rf"^kind must be a ConstraintKind, got {kind!r}$"):
            ConstraintSpec(kind=kind, dimension=3)

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(1)
        for spec in (ConstraintSpec.simplex(6), ConstraintSpec.l1_ball(6, 3.0)):
            for _ in range(30):
                g = rng.normal(size=6)
                for c in (1e-3, 0.5, 7.0, 1e4):
                    assert np.array_equal(lmo(spec, c * g), lmo(spec, g))


class TestDiameter:
    def test_simplex(self):
        assert diameter(ConstraintSpec.simplex(5)) == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_ball(self):
        assert diameter(ConstraintSpec.l1_ball(16, 2.0)) == 4
        assert diameter(ConstraintSpec.l1_ball(1, 1.0)) == 2


class TestGenerateStream:
    def test_reference_parameters(self):
        spec = ConstraintSpec.simplex(8)
        s = generate_stream(20, 30, 5e-6, spec, seed=3)
        assert s.features.shape == (20, 8)
        assert np.all(np.abs(s.features) <= 5)
        assert np.all((s.noise >= 0) & (s.noise <= 1))
        assert spec.contains(s.ground_truth)

    def test_same_seed_bit_identical(self):
        spec = ConstraintSpec.l1_ball(4, 2.0)
        a = generate_stream(3, 7, 0.1, spec, seed=11)
        b = generate_stream(3, 7, 0.1, spec, seed=11)
        for name in ("features", "ground_truth", "noise", "labels"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_zero_noise_labels_constant(self):
        s = ball_stream([[1.0, 2.0]], [0.5, -0.25], np.zeros((1, 6)))
        assert np.allclose(s.labels, s.labels[:, :1])
        assert s.labels[0, 0] == 1.0 * 0.5 + 2.0 * (-0.25)

    def test_noise_decays_with_round(self):
        s = ball_stream([[1.0]], [0.0], np.ones((1, 4)), radius=1.0)
        assert np.allclose(s.labels[0], [1 / 4, 1 / 8, 1 / 12, 1 / 16])

    def test_invariant_validation(self):
        spec = ConstraintSpec.l1_ball(1, 1.0)
        with pytest.raises(ValueError):
            LossStream(0.0, [[6.0]], [0.0], [[0.5]], spec)   # feature out of range
        with pytest.raises(ValueError):
            LossStream(0.0, [[1.0]], [0.0], [[1.5]], spec)   # noise out of range
        with pytest.raises(ValueError):
            LossStream(0.0, [[1.0]], [2.0], [[0.5]], spec)   # infeasible truth

    @pytest.mark.parametrize("value", [6.0, -6.0, 5 + 1e-11])
    def test_feature_range_is_checked_on_both_sides(self, value):
        spec = ConstraintSpec.l1_ball(2, 1.0)
        with pytest.raises(ValueError, match=r"^feature entries must lie in \[-5, 5\]$"):
            LossStream(0.0, [[1.0, value]], [0.0, 0.0], [[0.5]], spec)
        assert LossStream(0.0, [[-5.0, 5.0]], [0.0, 0.0], [[0.5]], spec).features.min() == -5.0

    def test_building_a_stream_peaks_near_what_it_holds(self):
        # the fresh features, noise and labels are handed over without a copy,
        # and the range check makes no full-size temporary
        tracemalloc.start()
        try:
            s = generate_stream(200, 1000, 5e-6, ConstraintSpec.simplex(8), seed=0, redraw_features=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(getattr(s, name).nbytes for name in ("features", "ground_truth", "noise", "labels"))
        assert peak < 1.3 * held

    def test_constraint_dimension_must_match_d(self):
        with pytest.raises(ValueError, match=r"ground_truth shape \(3,\) does not match constraint dimension 5"):
            LossStream(0.0, np.full((2, 3), 0.5), [1.0, 0, 0], np.zeros((2, 4)),
                       ConstraintSpec.simplex(5))

    def test_non_finite_features_rejected(self):
        spec = ConstraintSpec.simplex(2)
        noise = [[0.1, 0.2], [0.3, 0.4]]
        with pytest.raises(ValueError, match="features of agent 0 have non-finite"):
            LossStream(0.0, [[1.0, np.nan], [0.5, 0.2]], [0.5, 0.5], noise, spec)
        redrawn = np.full((2, 2, 2), 0.5)
        redrawn[1, 0, 1] = np.inf
        with pytest.raises(ValueError, match="features of agent 0 at round 2 have non-finite"):
            LossStream(0.0, redrawn, [0.5, 0.5], noise, spec)

    def test_non_finite_noise_rejected(self):
        spec = ConstraintSpec.simplex(2)
        with pytest.raises(ValueError, match="noise of agent 1 at round 2 is not finite"):
            LossStream(0.0, [[1.0, 0.0], [0.5, 0.2]], [0.5, 0.5],
                       [[0.1, 0.2], [0.3, np.nan]], spec)

    @pytest.mark.parametrize("lambda1", [np.nan, np.inf, -1.0])
    def test_lambda1_must_be_finite_and_non_negative(self, lambda1):
        spec = ConstraintSpec.simplex(2)
        with pytest.raises(ValueError, match="lambda1 must be finite and >= 0"):
            LossStream(lambda1, [[1.0, 0.0]], [0.5, 0.5], [[0.1, 0.2]], spec)

    def test_immutable_after_construction(self):
        s = generate_stream(2, 3, 0.0, ConstraintSpec.simplex(2), seed=0)
        with pytest.raises(ValueError):
            s.labels[0, 0] = 1.0


class TestLossStreamConstructor:
    def test_init_fields_are_the_components(self):
        names = [f.name for f in dataclasses.fields(LossStream) if f.init]
        assert names == ["lambda1", "features", "ground_truth", "noise", "constraint"]

    @pytest.mark.parametrize("derived", [{"labels": np.zeros((3, 4))}, {"n": 3}, {"T": 4}, {"d": 2}])
    def test_derived_values_cannot_be_passed(self, derived):
        # labels that contradict the ground truth and noise cannot be built
        s = generate_stream(3, 4, 1e-3, ConstraintSpec.simplex(2), seed=1)
        with pytest.raises(TypeError):
            LossStream(s.lambda1, s.features, s.ground_truth, s.noise, s.constraint, **derived)

    @pytest.mark.parametrize("features, ground_truth, noise, name", [
        (np.zeros((4, 2)), [1.0, 0.0, 0.0], np.zeros((4, 5)), r"features shape \(4, 2\)"),
        (np.zeros((4, 3)), [1.0, 0.0, 0.0], np.zeros(5), r"noise shape \(5,\)"),
        (np.zeros((4, 3)), [1.0, 0.0, 0.0], np.zeros((0, 5)), r"noise shape \(0, 5\)"),
        (np.zeros((4, 3)), [1.0, 0.0], np.zeros((4, 5)), r"ground_truth shape \(2,\)"),
    ])
    def test_bad_shapes_name_the_array(self, features, ground_truth, noise, name):
        with pytest.raises(ValueError, match=name):
            LossStream(1e-3, features, ground_truth, noise, ConstraintSpec.simplex(3))

    def test_sizes_are_read_from_the_components(self):
        s = generate_stream(3, 4, 1e-3, ConstraintSpec.l1_ball(5, 2.0), seed=1, redraw_features=True)
        assert (s.n, s.T, s.d) == (3, 4, 5)
        assert s.labels.shape == (3, 4) and not s.labels.flags.writeable and s.labels.base is None

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(d=st.integers(1, 10), n=st.integers(1, 10), T=st.integers(1, 20), ball=st.booleans(),
           radius=st.floats(0.01, 50.0), redraw=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_labels_are_noise_steps_plus_clean_labels(self, d, n, T, ball, radius, redraw, seed):
        # b[i, t-1] = noise[i, t-1] / (4 t) + a_i @ x*, entry by entry, with the
        # clean part formed as one product over the agents (or rounds and agents)
        spec = ConstraintSpec.l1_ball(d, radius) if ball else ConstraintSpec.simplex(d)
        rng = np.random.default_rng(seed)
        features = rng.uniform(-5, 5, (T, n, d) if redraw else (n, d))
        truth, noise = sample_feasible(spec, rng), rng.uniform(0, 1, (n, T))
        s = LossStream(1e-3, features, truth, noise, spec)
        clean = np.einsum("tnd,d->tn", features, truth).T if redraw else (features @ truth)[:, None]
        for i in range(n):
            for t in range(1, T + 1):
                expected = float(noise[i, t - 1]) / (4.0 * t) + float(clean[i, t - 1 if redraw else 0])
                assert float(s.labels[i, t - 1]).hex() == expected.hex()


class TestLossAndGrad:
    def test_zero_residual(self):
        s = ball_stream([[1.0, 0.0]], [1.0, 0.0], np.zeros((1, 1)))   # b = 1
        assert loss_eval(s, 1, 0, np.array([1.0, 0.0])) == 0

    def test_half_square(self):
        s = ball_stream([[1.0, 0.0]], [0.0, 0.0], np.zeros((1, 1)))   # b = 0
        assert loss_eval(s, 1, 0, np.array([1.0, 0.0])) == 0.5

    def test_with_regularizer(self):
        s = ball_stream([[1.0, 1.0]], [0.5, -0.5], np.zeros((1, 1)), lambda1=1.0)   # b = 0
        assert loss_eval(s, 1, 0, np.array([1.0, 0.0])) == pytest.approx(1.5, abs=1e-15)

    def test_grad_simple(self):
        s = ball_stream([[1.0, 0.0]], [0.0, 0.0], np.zeros((1, 1)))
        assert np.allclose(grad_eval(s, 1, 0, np.array([1.0, 0.0])), [1, 0])

    def test_grad_zero_at_stationary_residual(self):
        s = ball_stream([[2.0, -1.0]], [0.5, 0.0], np.zeros((1, 1)))   # b = 1
        x = np.array([0.25, -0.5])   # a @ x = 1 = b
        assert np.allclose(grad_eval(s, 1, 0, x), 0)

    def test_grad_derived_example_finite_differences(self):
        # a=(2,0), b=1, lambda1=0.5, x=(1,1): expected gradient (3, 1)
        s = ball_stream([[2.0, 0.0]], [0.5, 0.0], np.zeros((1, 1)), lambda1=0.5)
        x = np.array([1.0, 1.0])
        g = grad_eval(s, 1, 0, x)
        assert np.allclose(g, [3.0, 1.0], atol=1e-12)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (loss_eval(s, 1, 0, x + e) - loss_eval(s, 1, 0, x - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-7)

    def test_grad_matches_finite_differences_on_random_points(self):
        spec = ConstraintSpec.l1_ball(5, 2.0)
        s = generate_stream(4, 6, 1e-3, spec, seed=5)
        rng = np.random.default_rng(6)
        pts = sample_feasible(spec, rng, 100)
        h = 1e-6
        for x in pts:
            t = int(rng.integers(1, 7))
            i = int(rng.integers(0, 4))
            g = grad_eval(s, t, i, x)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                fd = (loss_eval(s, t, i, x + e) - loss_eval(s, t, i, x - e)) / (2 * h)
                assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_index_errors(self):
        s = generate_stream(2, 3, 0.0, ConstraintSpec.simplex(2), seed=0)
        with pytest.raises(ValueError):
            loss_eval(s, 0, 0, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            loss_eval(s, 4, 0, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            grad_eval(s, 1, 2, np.array([0.5, 0.5]))


class TestGlobal:
    def test_single_agent_equals_local(self):
        spec = ConstraintSpec.simplex(3)
        s = generate_stream(1, 4, 0.01, spec, seed=2)
        x = sample_feasible(spec, np.random.default_rng(0))
        assert global_loss(s, 2, x) == pytest.approx(loss_eval(s, 2, 0, x), rel=1e-15)

    def test_identical_agents_scale(self):
        feats = np.tile([[1.0, -0.5]], (3, 1))
        spec = ConstraintSpec.l1_ball(2, 2.0)
        s = LossStream(0.2, feats, np.array([0.5, 0.5]), np.zeros((3, 2)), spec)
        x = np.array([0.3, -0.4])
        assert global_loss(s, 1, x) == pytest.approx(3 * loss_eval(s, 1, 0, x), rel=1e-14)

    def test_matches_explicit_sum(self):
        spec = ConstraintSpec.simplex(4)
        s = generate_stream(3, 5, 1e-2, spec, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = sample_feasible(spec, rng)
            t = int(rng.integers(1, 6))
            explicit = sum(loss_eval(s, t, i, x) for i in range(3))
            assert global_loss(s, t, x) == pytest.approx(explicit, rel=1e-13)
            explicit_g = sum(grad_eval(s, t, i, x) for i in range(3))
            assert np.allclose(global_grad(s, t, x), explicit_g, rtol=1e-12, atol=1e-14)

    def test_global_loss_convexity(self):
        spec = ConstraintSpec.l1_ball(4, 2.0)
        s = generate_stream(5, 3, 1e-4, spec, seed=20)
        rng = np.random.default_rng(21)
        for _ in range(50):
            x, z = sample_feasible(spec, rng, 2)
            theta = rng.uniform()
            t = int(rng.integers(1, 4))
            mix = global_loss(s, t, theta * x + (1 - theta) * z)
            assert mix <= theta * global_loss(s, t, x) + (1 - theta) * global_loss(s, t, z) + 1e-10


class TestFunctionVariation:
    def test_constant_stream_zero(self):
        s = ball_stream([[1.0, 2.0]], [0.5, -0.25], np.zeros((1, 8)))
        spec = s.constraint
        assert estimate_function_variation(s) == 0
        assert function_variation_bound(s) == 0

    def test_one_dimensional_grid_oracle(self):
        # n=1, d=1, T=2: inner max of |f_2 - f_1| is affine in x, attained at an endpoint
        s = ball_stream([[1.5]], [0.25], [[0.8, 0.4]], radius=2.0)
        spec = s.constraint
        b1, b2 = s.labels[0]
        grid = np.linspace(-2.0, 2.0, 40001)   # resolution 1e-4
        f1 = 0.5 * (1.5 * grid - b1) ** 2
        f2 = 0.5 * (1.5 * grid - b2) ** 2
        oracle = np.abs(f2 - f1).max()
        closed_form = abs(b1 - b2) * np.abs(1.5 * grid - 0.5 * (b1 + b2)).max()
        assert oracle == pytest.approx(closed_form, rel=1e-12)
        assert estimate_function_variation(s) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("spec", [ConstraintSpec.simplex(2), ConstraintSpec.l1_ball(2, 1.5)],
                             ids=["simplex", "ball"])
    def test_two_dimensional_grid_oracle(self, spec):
        # the largest |f_{t+1} - f_t| over a dense grid of the set, per round pair
        # and agent, from the losses themselves; the grid holds the vertices, so
        # it reaches the supremum, and the estimate must match it to rounding
        s = generate_stream(3, 6, 1e-3, spec, seed=61)
        axis = np.linspace(-spec.radius, spec.radius, 401)
        if spec.kind is ConstraintKind.UNIT_SIMPLEX:
            grid = np.stack([(axis + 1) / 2, (1 - axis) / 2], axis=1)
        else:
            u, v = np.meshgrid(axis, axis)
            grid = np.stack([u.ravel(), v.ravel()], axis=1)
            grid = grid[np.abs(grid).sum(axis=1) <= spec.radius]
        ridge = s.lambda1 * (grid ** 2).sum(axis=1)
        losses = [[0.5 * (grid @ a - s.labels[i, t]) ** 2 + ridge for i, a in enumerate(s.features)]
                  for t in range(s.T)]
        oracle = sum(max(float(np.abs(f1 - f0).max()) for f0, f1 in zip(r0, r1))
                     for r0, r1 in zip(losses, losses[1:]))
        assert estimate_function_variation(s) == pytest.approx(oracle, rel=1e-9)

    def test_fixed_features_draw_no_sample(self, monkeypatch):
        spec = ConstraintSpec.l1_ball(4, 2.0)
        fixed, redrawn = (generate_stream(3, 5, 1e-3, spec, seed=62, redraw_features=r) for r in (False, True))
        calls = []

        def spy(spec, rng, size=None):
            calls.append(size)
            return sample_feasible(spec, rng, size)

        monkeypatch.setattr(problem, "sample_feasible", spy)
        estimate_function_variation(fixed)
        assert calls == []
        estimate_function_variation(redrawn)
        assert calls == [VARIATION_SAMPLES]

    def test_estimate_below_upper_bound(self):
        for kind, spec in (("simplex", ConstraintSpec.simplex(5)), ("ball", ConstraintSpec.l1_ball(5, 2.0))):
            s = generate_stream(6, 15, 1e-4, spec, seed=abs(hash(kind)) % 1000)
            assert estimate_function_variation(s) <= function_variation_bound(s)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(d=st.integers(1, 12), n=st.integers(1, 12), T=st.integers(1, 30), ball=st.booleans(),
           radius=st.floats(0.01, 50.0), ties=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_fixed_feature_estimate_equals_reference_loop(self, d, n, T, ball, radius, ties, seed):
        # the estimate reads only each agent's extreme a_i @ v; the reference maximizes
        # over every vertex, so the two must agree to the bit (ties: noise on {0, 1/2, 1}
        # makes some consecutive labels equal, so some rounds change nothing). Sample
        # points added to the vertices raise it by no more than their dot products'
        # rounding: (d + 4) eps of each round's largest |delta| (r max|a| + |mid|)
        spec = ConstraintSpec.l1_ball(d, radius) if ball else ConstraintSpec.simplex(d)
        if ties:
            rng = np.random.default_rng(seed)
            s = LossStream(1e-3, rng.uniform(-5, 5, (n, d)), sample_feasible(spec, rng),
                           rng.integers(0, 3, (n, T)) / 2, spec)
        else:
            s = generate_stream(n, T, 1e-3, spec, seed=seed)
        got = estimate_function_variation(s)
        assert got.hex() == reference_function_variation(s, samples=0).hex()
        sampled = reference_function_variation(s, samples=VARIATION_SAMPLES, seed=seed)
        b0, b1 = s.labels[:, :-1], s.labels[:, 1:]
        scale = np.abs(b0 - b1) * (spec.radius * np.abs(s.features).max(axis=1)[:, None] + np.abs(b0 + b1) / 2)
        assert got <= sampled <= got + (d + 4) * np.finfo(float).eps * scale.max(axis=0).sum()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(d=st.integers(1, 12), n=st.integers(1, 12), T=st.integers(1, 30), ball=st.booleans(),
           radius=st.floats(0.01, 50.0), lambda1=st.sampled_from([0.0, 1e-5, 1e-3, 0.5]),
           seed=st.integers(0, 2 ** 16))
    def test_redrawn_estimate_equals_reference_loop(self, d, n, T, ball, radius, lambda1, seed):
        # the estimate builds each round's loss table once, in place; the
        # reference builds both tables of every round pair
        spec = ConstraintSpec.l1_ball(d, radius) if ball else ConstraintSpec.simplex(d)
        s = generate_stream(n, T, lambda1, spec, seed=seed, redraw_features=True)
        got = estimate_function_variation(s)
        assert got.hex() == reference_redrawn_variation(s, samples=VARIATION_SAMPLES, seed=0).hex()

    def test_upper_bound_single_agent_closed_form(self):
        s = ball_stream([[1.5]], [0.25], [[0.8, 0.4, 0.1]], radius=2.0)
        b = s.labels[0]
        expected = sum(abs(b[t] - b[t + 1]) * (1.5 * 2.0 + max(abs(b[t]), abs(b[t + 1]))) for t in range(2))
        assert function_variation_bound(s) == pytest.approx(expected, rel=1e-13)


class TestProblemConstants:
    def test_unit_feature_no_regularizer(self):
        s = ball_stream([[1.0, 0.0]], [0.5, 0.0], np.zeros((1, 2)))
        c = problem_constants(s)
        assert c.grad_lipschitz == 1.0

    def test_zero_feature_zero_lambda(self):
        s = ball_stream([[0.0]], [0.0], np.zeros((1, 2)), radius=1.0)
        c = problem_constants(s)
        assert c.grad_norm_bound == 0
        assert c.grad_lipschitz == 0

    def test_gradient_norms_within_bound(self):
        spec = ConstraintSpec.l1_ball(6, 2.0)
        s = generate_stream(5, 8, 1e-3, spec, seed=31)
        c = problem_constants(s)
        rng = np.random.default_rng(32)
        pts = sample_feasible(spec, rng, 10_000)
        worst = 0.0
        for t in (1, 4, 8):
            for i in range(5):
                a = s.features[i]
                resid = pts @ a - s.labels[i, t - 1]
                norms = np.linalg.norm(a[None, :] * resid[:, None] + 2 * s.lambda1 * pts, axis=1)
                worst = max(worst, float(norms.max()))
        assert worst <= c.grad_norm_bound + 1e-12
        assert c.diameter == diameter(spec)

    def test_gradient_lipschitz_property(self):
        spec = ConstraintSpec.simplex(5)
        s = generate_stream(4, 6, 1e-4, spec, seed=41)
        c = problem_constants(s)
        rng = np.random.default_rng(42)
        for _ in range(200):
            x, z = sample_feasible(spec, rng, 2)
            t = int(rng.integers(1, 7))
            i = int(rng.integers(0, 4))
            lhs = np.linalg.norm(grad_eval(s, t, i, x) - grad_eval(s, t, i, z))
            assert lhs <= c.grad_lipschitz * np.linalg.norm(x - z) + 1e-12


class TestSampling:
    def test_samples_feasible(self):
        rng = np.random.default_rng(50)
        for spec in (ConstraintSpec.simplex(7), ConstraintSpec.l1_ball(7, 2.5)):
            pts = sample_feasible(spec, rng, 500)
            for p in pts:
                assert spec.contains(p, tol=1e-9)


class TestStreamCsv:
    def test_round_trip(self, tmp_path):
        spec = ConstraintSpec.simplex(3)
        s = generate_stream(4, 5, 1e-4, spec, seed=8)
        path = tmp_path / "stream.csv"
        write_stream_csv(s, path)
        feats, labels = read_stream_csv(path)
        assert np.array_equal(labels, s.labels)
        for t in range(1, 6):
            assert np.array_equal(feats[t - 1], s.feature_matrix(t))
        header = path.read_text().splitlines()[0]
        assert header == "agent,t,a_1,a_2,a_3,b"

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(n=st.integers(1, 6), T=st.integers(1, 8), d=st.integers(1, 5), ball=st.booleans(),
           redraw=st.booleans(), seed=st.integers(0, 2 ** 63 - 1))
    def test_round_trip_is_bit_exact(self, n, T, d, ball, redraw, seed):
        spec = ConstraintSpec.l1_ball(d) if ball else ConstraintSpec.simplex(d)
        s = generate_stream(n, T, 1e-4, spec, seed=seed, redraw_features=redraw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stream.csv"
            write_stream_csv(s, path)
            feats, labels = read_stream_csv(path)
        assert labels.tobytes() == s.labels.tobytes()
        assert feats.tobytes() == np.broadcast_to(s.features, (T, n, d)).tobytes()
