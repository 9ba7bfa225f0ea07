import gc
import hashlib
import types
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import domfw.algorithm as algorithm
from domfw.algorithm import ScheduleParams, run
from domfw.network import (
    GraphSchedule,
    MixingConstants,
    MixingFold,
    WeightMatrix,
    check_mixing,
    metropolis_weights,
    random_connected_schedule,
    write_schedule_csv,
)
from domfw.problem import ConstraintSpec, generate_stream
from oracles import (
    constant_schedule,
    exact_zeta,
    fold_window,
    plain_connected_round,
    transition_product,
    validate,
)


class TestMetropolis:
    def test_two_nodes(self):
        wm = metropolis_weights([(0, 1)], 2)
        assert np.allclose(wm.weights, 0.5)
        assert wm.zeta == 0.5

    def test_triangle_uniform(self):
        wm = metropolis_weights([(0, 1), (1, 2), (0, 2)], 3)
        assert np.allclose(wm.weights, 1 / 3)

    def test_star_rows_and_columns(self):
        # hub 0 with three leaves: off-diagonals 1/4, hub diagonal 1/4, leaf diagonal 3/4
        wm = metropolis_weights([(0, 1), (0, 2), (0, 3)], 4)
        a = wm.weights
        assert np.allclose(a[0], [0.25, 0.25, 0.25, 0.25])
        for leaf in (1, 2, 3):
            assert a[leaf, 0] == pytest.approx(0.25)
            assert a[leaf, leaf] == pytest.approx(0.75)
        assert np.allclose(a.sum(axis=0), 1, atol=1e-15)
        assert np.allclose(a.sum(axis=1), 1, atol=1e-15)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            metropolis_weights([(0, 1)], 4)

    def test_single_node(self):
        wm = metropolis_weights([], 1)
        assert np.array_equal(wm.weights, [[1.0]])

    def test_endpoints_must_be_integers(self):
        # a bool endpoint would index a whole row of the adjacency, a float one
        # would fail inside NumPy; both are rejected naming the edge
        with pytest.raises(ValueError, match=r"^edge \(True, 0\) endpoints must be integers$"):
            metropolis_weights([(True, 0)], 2)
        with pytest.raises(ValueError, match=r"^edge \(0, 1\.5\) endpoints must be integers$"):
            metropolis_weights([(0, 1.5)], 3)
        with pytest.raises(ValueError, match="endpoints must be integers"):
            metropolis_weights([(0, 1), (np.bool_(True), 2)], 3)
        numpy_ints = metropolis_weights([(np.int64(0), np.int32(1)), (np.uint8(1), 2)], 3)
        assert np.array_equal(numpy_ints.weights, metropolis_weights([(0, 1), (1, 2)], 3).weights)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data(), n=st.integers(1, 24))
    def test_explicit_edges_match_connectivity_oracle(self, data, n):
        # a path through the first `joined` agents of a permutation, then random pairs
        # (self-loops and repeats included); scipy's component count is the oracle
        perm = data.draw(st.permutations(range(n)))
        joined = data.draw(st.integers(0, n))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = list(zip(perm[:joined - 1], perm[1:joined])) + data.draw(st.lists(pair, max_size=2 * n))
        adj = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            adj[i, j] = adj[j, i] = True
        comps, _ = connected_components(csr_matrix(adj), directed=False)
        if comps > 1:
            with pytest.raises(ValueError, match="edge set does not form a connected graph"):
                metropolis_weights(edges, n)
        else:
            wm = metropolis_weights(edges, n)
            assert np.array_equal(wm.weights, wm.weights.T)
            assert validate(wm).ok


class TestValidate:
    def test_identity_fails_connectivity_only(self):
        report = validate(WeightMatrix(np.eye(3)))
        assert report.doubly_stochastic
        assert not report.strongly_connected
        assert not report.ok

    def test_uniform_two_agent_passes(self):
        report = validate(WeightMatrix(np.full((2, 2), 0.5)))
        assert report.ok
        assert report.stochastic_violation <= 1e-15

    def test_row_stochastic_only_fails_column_sums(self):
        report = validate(WeightMatrix(np.array([[0.6, 0.4], [0.5, 0.5]])))
        assert not report.doubly_stochastic
        assert report.stochastic_violation == pytest.approx(0.1, abs=1e-15)
        assert report.strongly_connected


class TestRandomSchedule:
    def test_zero_probability_gives_ring(self):
        sched = random_connected_schedule(6, 20, 0.0, seed=3)
        for t in (1, 7, 20):
            a = sched.matrix(t).weights
            off = a.copy()
            np.fill_diagonal(off, 0.0)
            degrees = (off > 0).sum(axis=1)
            assert np.all(degrees == 2)          # a single cycle
            assert np.allclose(off[off > 0], 1 / 3)
            assert validate(sched.matrix(t)).ok

    def test_full_probability_gives_complete_graph(self):
        sched = random_connected_schedule(5, 4, 1.0, seed=0)
        for t in range(1, 5):
            assert np.allclose(sched.matrix(t).weights, 1 / 5)

    def test_long_schedule_every_round_valid(self):
        sched = random_connected_schedule(20, 1000, 0.3, seed=12)
        for t in range(1, 1001):
            wm = sched.matrix(t)
            report = validate(wm)
            assert report.ok, f"round {t}: {report}"
            assert wm.weights[wm.weights > 0].min() >= sched.zeta - 1e-15

    @pytest.mark.parametrize("n, edge_prob, seed", [(20, 0.3, 101), (200, 0.05, 7)])
    def test_rounds_match_the_plain_construction(self, n, edge_prob, seed):
        # the per-schedule mask and successor index keep every draw and its order
        sched = random_connected_schedule(n, 60, edge_prob, seed=seed)
        for t in range(1, 61):
            want = plain_connected_round(n, edge_prob, seed, t)
            assert sched.matrix(t).weights.tobytes() == want.weights.tobytes(), f"round {t}"

    def test_seeded_reproducibility_per_round(self):
        a = random_connected_schedule(8, 10, 0.4, seed=5)
        b = random_connected_schedule(8, 10, 0.4, seed=5)
        # materialize in different orders; rounds are pure functions of (seed, t)
        for t in (9, 2, 5):
            assert np.array_equal(a.matrix(t).weights, b.matrix(t).weights)
        c = random_connected_schedule(8, 10, 0.4, seed=6)
        assert not np.array_equal(a.matrix(1).weights, c.matrix(1).weights)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(n=st.integers(2, 40), edge_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
           t=st.integers(1, 1000))
    def test_every_round_valid_and_symmetric(self, n, edge_prob, seed, t):
        wm = random_connected_schedule(n, t, edge_prob, seed=seed).matrix(t)
        assert validate(wm).ok
        assert np.array_equal(wm.weights, wm.weights.T)
        off = wm.weights.copy()
        np.fill_diagonal(off, 0.0)
        assert wm.directed_edges == np.count_nonzero(off)

    def test_round_range_checked(self):
        sched = random_connected_schedule(4, 5, 0.5, seed=1)
        with pytest.raises(ValueError):
            sched.matrix(0)
        with pytest.raises(ValueError):
            sched.matrix(6)

    def test_weights_bytes(self):
        # sha256 over every drawn matrix's weight bytes and repr(zeta), in loop order
        h = hashlib.sha256()
        for n in (2, 3, 20, 200):
            for edge_prob in (0.0, 0.05, 0.3, 1.0):
                for seed in (0, 7, 2 ** 40 + 3):
                    sched = random_connected_schedule(n, 1000, edge_prob, seed=seed)
                    for t in (1, 2, 999):
                        wm = sched.matrix(t)
                        h.update(wm.weights.tobytes())
                        h.update(repr(wm.zeta).encode())
        assert h.hexdigest() == "d06bbae25d1bb038bcdeb8fd27d693b7802d04071ee569e0f2695d8a965a30ec"


class TestMixingConstants:
    def test_product_is_one(self):
        mc = MixingConstants.from_zeta(0.1, 5)
        assert 0 < mc.rate < 1
        assert mc.coeff > 1
        assert mc.rate * mc.coeff == pytest.approx(1.0, rel=1e-15)
        assert mc.rate == 1 - 0.1 / 100


class TestTransitionProduct:
    def test_empty_range_is_identity(self):
        sched = random_connected_schedule(4, 6, 0.5, seed=2)
        counts = [2] * 6
        assert np.array_equal(transition_product(sched, counts, 3, 4), np.eye(4))

    def test_single_round_single_power(self):
        sched = random_connected_schedule(4, 6, 0.5, seed=2)
        counts = [1] * 6
        assert np.array_equal(transition_product(sched, counts, 2, 2), sched.matrix(2).weights)

    def test_matches_naive_multiplication(self):
        sched = random_connected_schedule(3, 2, 0.6, seed=4)
        counts = [2, 2]
        a1 = sched.matrix(1).weights
        a2 = sched.matrix(2).weights
        naive = a2 @ (a2 @ (a1 @ a1))
        assert np.allclose(transition_product(sched, counts, 2, 1), naive, atol=1e-14)

    def test_product_stays_doubly_stochastic(self):
        sched = random_connected_schedule(10, 40, 0.3, seed=8)
        counts = [3] * 40
        phi = transition_product(sched, counts, 40, 1)
        assert np.abs(phi.sum(axis=0) - 1).max() <= 1e-10
        assert np.abs(phi.sum(axis=1) - 1).max() <= 1e-10

    def test_index_errors(self):
        sched = random_connected_schedule(4, 6, 0.5, seed=2)
        with pytest.raises(ValueError):
            transition_product(sched, [1] * 6, 7, 1)
        with pytest.raises(ValueError):
            transition_product(sched, [1] * 6, 3, 0)
        with pytest.raises(ValueError):
            transition_product(sched, [0] * 6, 3, 1)


def window_report(sched, counts, t, s, zeta=None):
    """``check_mixing`` on rounds ``s..t`` of ``sched``, by default against its ``zeta``."""
    return check_mixing(fold_window(sched, counts, t, s), sched.zeta if zeta is None else zeta)


class TestCheckMixing:
    def test_complete_graph_exact_averaging(self):
        wm = metropolis_weights([(i, j) for i in range(5) for j in range(i + 1, 5)], 5)
        sched = constant_schedule(wm, 10)
        report = window_report(sched, [3] * 10, 4, 1)
        assert report.deviation <= 1e-15
        assert report.holds and report.shifted_holds
        assert report.margin > 0

    def test_ring_positive_margin(self):
        ring = metropolis_weights([(i, (i + 1) % 5) for i in range(5)], 5)
        sched = constant_schedule(ring, 20)
        report = window_report(sched, [2] * 20, 11, 1)   # t - s = 10
        assert report.ok
        assert report.margin > 0
        assert report.shifted_margin > 0

    def test_detector_fires_on_non_mixing_matrix(self):
        # doubly stochastic but disconnected: the product never approaches uniform
        sched = constant_schedule(WeightMatrix(np.eye(2)), 50)
        report = window_report(sched, [2] * 50, 50, 1)
        assert report.deviation == pytest.approx(0.5)
        assert not report.holds

    def test_realized_zeta_tightens_the_certificate(self):
        # both the conservative schedule-wide bound and the realized minimum
        # entry give valid certificates; the latter is strictly tighter
        sched = random_connected_schedule(6, 12, 0.3, seed=10)
        counts = [2] * 12
        loose = window_report(sched, counts, 8, 1)
        tight = window_report(sched, counts, 8, 1, zeta=exact_zeta(sched, range(1, 9)))
        assert loose.ok and tight.ok
        assert tight.bound < loose.bound
        assert tight.deviation == loose.deviation

    def test_report_bits_match_separate_products(self):
        # the products rebuilt by hand in the fold's association: rounds
        # s+1..t left-folded onto the identity, then A_s^{K_s - l} on the
        # right; l = 0 is the full product, l >= 1 the shifted ones
        sched = random_connected_schedule(7, 9, 0.3, seed=21)
        counts = [3, 2, 4, 1, 3, 2, 2, 5, 3]
        assert window_report(sched, counts, 6, 4).shifted_margin is None   # K_4 = 1
        mc = MixingConstants.from_zeta(sched.zeta, 7)
        for t, s in ((9, 1), (6, 3), (5, 5)):
            report = window_report(sched, counts, t, s)
            total, k_s, a_s = sum(counts[s - 1:t]), counts[s - 1], sched.matrix(s).weights
            rest = np.eye(7)
            for p in range(s + 1, t + 1):
                rest = np.linalg.matrix_power(sched.matrix(p).weights, counts[p - 1]) @ rest

            def deviation(l):
                return float(np.abs(rest @ np.linalg.matrix_power(a_s, k_s - l) - 1 / 7).max())
            assert report.deviation == deviation(0)
            assert report.bound == mc.coeff * mc.rate ** (total - 1)
            assert report.margin == report.bound - deviation(0)
            assert report.shifted_margin == min(mc.coeff * mc.rate ** (total - l - 1) - deviation(l)
                                                for l in range(1, k_s))
            assert np.array_equal(transition_product(sched, counts, t, s), rest @ np.linalg.matrix_power(a_s, k_s))


    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(n=st.integers(2, 10), counts=st.lists(st.integers(1, 5), min_size=1, max_size=12),
           seed=st.integers(0, 2 ** 16))
    @example(n=2, counts=[1], seed=0)          # T = 1
    @example(n=3, counts=[4], seed=1)          # T = 1 with a shifted check
    @example(n=6, counts=[1, 3, 2, 5], seed=2)  # K_1 = 1: no shifted product
    def test_run_fold_matches_schedule_fold(self, n, counts, seed):
        # the report on the products a run folded equals the report on the
        # schedule's rounds folded afresh, bit for bit
        horizon = len(counts)
        sched = random_connected_schedule(n, horizon, 0.3, seed=seed)
        stream = generate_stream(n, horizon, 5e-6, ConstraintSpec.simplex(2), seed=seed)
        with pytest.MonkeyPatch.context() as mp:   # the run steps these counts
            mp.setattr(algorithm, "inner_count", lambda params, t, horizon: counts[t - 1])
            trajectory = run(stream, sched, ScheduleParams())
        assert [r.inner_count for r in trajectory.rounds] == counts
        folded = check_mixing(trajectory.mixing, sched.zeta)
        fresh = window_report(sched, counts, horizon, 1)

        def bits(report):
            return [v.hex() if isinstance(v, float) else v for v in vars(report).values()]
        assert bits(folded) == bits(fresh)
        assert (fresh.shifted_margin is None) == (counts[0] == 1)

    def test_empty_fold_and_zero_count_are_rejected(self):
        sched = random_connected_schedule(5, 6, 0.3, seed=4)
        with pytest.raises(ValueError, match="the fold holds no round"):
            check_mixing(fold_window(sched, [2] * 6, 3, 4), sched.zeta)
        with pytest.raises(ValueError, match="inner counts must be >= 1"):
            MixingFold(5).add(sched.matrix(5), 0)
        with pytest.raises(ValueError, match="^weight matrix size does not match the fold$"):
            MixingFold(4).add(sched.matrix(5), 2)


def reachable(root):
    """Objects reachable from ``root``, not entering modules, classes or function globals."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (types.ModuleType, type)):
            continue
        seen.add(id(obj))
        yield obj
        refs = gc.get_referents(obj)
        if isinstance(obj, types.FunctionType):
            refs = [r for r in refs if r is not obj.__globals__]
        todo.extend(refs)


class TestNoRetention:
    def test_dropped_round_is_freed(self):
        sched = random_connected_schedule(6, 4, 0.3, seed=5)
        dropped = weakref.ref(sched.matrix(2))
        gc.collect()
        assert dropped() is None
        assert np.array_equal(sched.matrix(2).weights, sched.matrix(2).weights)   # rebuilt the same

    def test_schedule_holds_no_round_after_a_run(self):
        sched = random_connected_schedule(6, 8, 0.3, seed=5)
        stream = generate_stream(6, 8, 5e-6, ConstraintSpec.simplex(3), seed=5)
        trajectory = run(stream, sched, ScheduleParams())
        assert trajectory.mixing.rounds == 8
        assert not any(isinstance(obj, WeightMatrix) for obj in reachable(sched))


class TestScheduleCsv:
    def test_dump_shape(self, tmp_path):
        sched = random_connected_schedule(4, 3, 0.5, seed=14)
        path = tmp_path / "network.csv"
        write_schedule_csv(sched, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,i,j,weight"
        # every row references a nonzero weight
        for line in lines[1:]:
            t, i, j, w = line.split(",")
            assert float(w) == sched.matrix(int(t)).weights[int(i), int(j)]


class TestWeightMatrix:
    def test_weights_are_copied_unless_frozen_and_owned(self):
        a = np.full((2, 2), 0.5)
        wm = WeightMatrix(a)
        a[0, 0] = 1.0
        assert wm.weights[0, 0] == 0.5 and not wm.weights.flags.writeable
        view = np.full((2, 2), 0.5)[:, :]
        view.flags.writeable = False
        assert WeightMatrix(view).weights is not view
        frozen = np.full((2, 2), 0.5)
        frozen.flags.writeable = False
        assert WeightMatrix(frozen).weights is frozen


class TestGraphScheduleContract:
    def test_builder_size_mismatch_rejected(self):
        bad = GraphSchedule(3, 2, lambda t: metropolis_weights([(0, 1)], 2), zeta=0.5)
        with pytest.raises(ValueError):
            bad.matrix(1)

    def test_exact_zeta_at_least_bound(self):
        sched = random_connected_schedule(6, 8, 0.4, seed=3)
        assert exact_zeta(sched) >= sched.zeta - 1e-15
