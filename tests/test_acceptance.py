"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavyweight fixtures (five-seed reference runs at T=1000) are shared by
criteria 4 through 7, so the optima of each seed's stream are solved once.
Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines.
"""

import time

import numpy as np
import pytest

from domfw.algorithm import ScheduleMode, ScheduleParams, inner_count, run
from domfw.cli import main
from domfw.harness import derive_seed, fit_loglog_slope
from domfw.network import check_mixing, random_connected_schedule
from domfw.problem import ConstraintSpec, generate_stream, lmo, problem_constants
from domfw.regret import RoundOptimizer, envelopes, regret_series, regret_upper_bound
from oracles import fold_window, lo_call_count, projected_gradient_optimum

SEEDS = (101, 202, 303, 404, 505)
HORIZON = 1000

REFERENCE = dict(n=20, d=8, lambda1=5e-6, edge_prob=0.3)

RUN_PARAMS = {
    "fig1": ScheduleParams(ScheduleMode.PER_ROUND, epsilon=4, gamma=0.5, rho=4),
    "baseline": ScheduleParams(ScheduleMode.BASELINE, baseline_alpha=1 / (4 * HORIZON ** 0.4)),
    "gamma_0.3": ScheduleParams(ScheduleMode.PER_ROUND, epsilon=2, gamma=0.3, rho=3),
    "gamma_0.5": ScheduleParams(ScheduleMode.PER_ROUND, epsilon=2, gamma=0.5, rho=3),
    "gamma_0.7": ScheduleParams(ScheduleMode.PER_ROUND, epsilon=2, gamma=0.7, rho=3),
}


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def reference_runs():
    """Per-seed streams, schedules, optima, and the five reference runs."""
    spec = ConstraintSpec.simplex(REFERENCE["d"])
    started = time.perf_counter()
    seeds_data = {}
    for master in SEEDS:
        stream = generate_stream(REFERENCE["n"], HORIZON, REFERENCE["lambda1"],
                                 spec, seed=derive_seed(master, "stream"))
        schedule = random_connected_schedule(REFERENCE["n"], HORIZON, REFERENCE["edge_prob"],
                                             seed=derive_seed(master, "network"))
        solver = RoundOptimizer(stream, tol=1e-9)
        optima = [solver.solve(t) for t in range(1, HORIZON + 1)]
        runs = {}
        for name, params in RUN_PARAMS.items():
            trajectory = run(stream, schedule, params)
            series = regret_series(trajectory, optima, stream)
            runs[name] = dict(params=params, trajectory=trajectory, series=series,
                              envelopes=envelopes(series))
        seeds_data[master] = dict(stream=stream, schedule=schedule, optima=optima, runs=runs)
    return dict(spec=spec, seeds=seeds_data, elapsed=time.perf_counter() - started)


def test_criterion_1_tracking_conservation():
    started = time.perf_counter()
    spec = ConstraintSpec.simplex(8)
    stream = generate_stream(10, 200, 5e-6, spec, seed=derive_seed(1, "stream"))
    schedule = random_connected_schedule(10, 200, 0.3, seed=derive_seed(1, "network"))
    params = ScheduleParams(ScheduleMode.PER_ROUND, epsilon=4, gamma=0.5, rho=4)
    trajectory = run(stream, schedule, params)
    worst = trajectory.max_conservation_gap()
    elapsed = time.perf_counter() - started
    report(1, worst <= 1e-9 and elapsed < 30,
           f"tracked-gradient sums match local sums within {worst:.2e} per coordinate "
           f"at every (t, k) over T=200, n=10 ({elapsed:.1f}s)")


def test_criterion_2_mixing_bound():
    started = time.perf_counter()
    schedule = random_connected_schedule(10, 20, 0.3, seed=derive_seed(2, "network"))
    params = ScheduleParams(ScheduleMode.PER_ROUND, epsilon=2, gamma=0.5, rho=4)
    counts = [inner_count(params, t, 20) for t in range(1, 21)]
    margins = {}
    deviations = {}
    for t in (5, 10, 20):
        rep = check_mixing(fold_window(schedule, counts, t, 1), schedule.zeta)
        margins[t] = rep.margin
        deviations[t] = rep.deviation
        assert rep.shifted_holds
    elapsed = time.perf_counter() - started
    ok = all(m > 0 for m in margins.values()) and deviations[20] <= 1e-6 and elapsed < 10
    report(2, ok,
           f"uniform-averaging bound holds at t=5,10,20 with margins "
           f"{[f'{margins[t]:.3f}' for t in (5, 10, 20)]}, deviation(t=20)="
           f"{deviations[20]:.2e} <= 1e-6 ({elapsed:.1f}s)")


def test_criterion_3_lmo_exactness():
    rng = np.random.default_rng(33)
    mismatches = 0
    total = 0
    for make in (ConstraintSpec.simplex, lambda d: ConstraintSpec.l1_ball(d, 2.0)):
        for _ in range(10_000):
            d = int(rng.integers(1, 17))
            spec = make(d)
            g = rng.normal(size=d)
            v = lmo(spec, g)
            verts = spec.vertices()
            dots = verts @ g
            best = verts[int(np.argmin(dots))]
            if not np.array_equal(v, best):
                mismatches += 1
            total += 1
    report(3, mismatches == 0,
           f"oracle output matched exhaustive vertex enumeration on {total} random "
           f"gradients (d <= 16, both sets), {mismatches} mismatches")


def test_criterion_4_sublinear_regret(reference_runs):
    avg100 = np.mean([data["runs"]["fig1"]["envelopes"].avg[99] for data in reference_runs["seeds"].values()])
    avg1000 = np.mean([data["runs"]["fig1"]["envelopes"].avg[999] for data in reference_runs["seeds"].values()])
    bracket_ok = True
    for data in reference_runs["seeds"].values():
        env = data["runs"]["fig1"]["envelopes"]
        bracket_ok &= bool(np.all(env.sup >= env.avg - 1e-12) and np.all(env.avg >= env.inf - 1e-12))
    elapsed = reference_runs["elapsed"]
    ok = avg1000 <= 0.5 * avg100 and bracket_ok and elapsed < 600
    report(4, ok,
           f"5-seed mean average regret fell from {avg100:.4f} (t=100) to {avg1000:.4f} "
           f"(t=1000), ratio {avg1000 / avg100:.3f} <= 0.5; envelopes bracket the mean "
           f"pointwise (all reference runs took {elapsed:.0f}s < 600s)")


def test_criterion_5_multiple_iterations_beat_baseline(reference_runs):
    wins = 0
    pairs = []
    for master, data in reference_runs["seeds"].items():
        ours = float(data["runs"]["fig1"]["envelopes"].avg[-1])
        base = float(data["runs"]["baseline"]["envelopes"].avg[-1])
        pairs.append((master, ours, base))
        wins += ours < base
    report(5, wins >= 4,
           f"multi-iteration schedule beat the single-iteration baseline on {wins}/5 seeds: "
           + ", ".join(f"seed {m}: {a:.4f} vs {b:.4f}" for m, a, b in pairs))


def test_criterion_6_gamma_ordering(reference_runs):
    means = {}
    for name in ("gamma_0.3", "gamma_0.5", "gamma_0.7"):
        means[name] = float(np.mean([data["runs"][name]["envelopes"].avg[-1]
                                     for data in reference_runs["seeds"].values()]))
    ok = (means["gamma_0.5"] <= 1.02 * means["gamma_0.3"]
          and means["gamma_0.7"] <= 1.02 * means["gamma_0.5"])
    report(6, ok,
           "5-seed mean final average regret nonincreasing in gamma (2% slack): "
           + ", ".join(f"{k.split('_')[1]}: {v:.4f}" for k, v in means.items()))


def test_criterion_7_regret_bound_inequality(reference_runs):
    spec = reference_runs["spec"]
    worst_margin = np.inf
    checked = 0
    for data in reference_runs["seeds"].values():
        stream = data["stream"]
        schedule = data["schedule"]
        constants = problem_constants(stream)
        for name, bundle in data["runs"].items():
            if bundle["params"].mode is ScheduleMode.BASELINE:
                continue   # the bound covers the tracked multi-iteration schedules
            bound = regret_upper_bound(constants, schedule.zeta, bundle["params"], stream,
                                       bundle["trajectory"].x_init)
            finals = bundle["series"].cumulative[:, -1]
            worst_margin = min(worst_margin, float(bound.total - finals.max()))
            checked += finals.size
    report(7, worst_margin > 0,
           f"analytic bound dominated every agent's final regret in all "
           f"{checked} (run, agent) pairs; smallest margin {worst_margin:.3e}")


def test_criterion_8_oracle_count_scaling():
    started = time.perf_counter()
    slopes = {}
    for gamma in (0.3, 0.5):
        params = ScheduleParams(ScheduleMode.PER_ROUND, epsilon=4, gamma=gamma, rho=4)
        pairs = [(T, lo_call_count(params, T, n=20)) for T in (100, 1000, 10_000)]
        slopes[gamma] = fit_loglog_slope(pairs)
    elapsed = time.perf_counter() - started
    ok = all(abs(slopes[g] - (1 + g)) <= 0.05 for g in slopes) and elapsed < 5
    report(8, ok,
           f"fitted oracle-count slopes {slopes[0.3]:.3f} (target 1.3) and "
           f"{slopes[0.5]:.3f} (target 1.5), both within 0.05 ({elapsed:.1f}s)")


def test_criterion_9_optimum_solver_cross_check():
    rng = np.random.default_rng(99)
    worst = 0.0
    count = 0
    for spec in (ConstraintSpec.simplex(8), ConstraintSpec.l1_ball(16, 2.0)):
        stream = generate_stream(20, 25, 5e-6, spec,
                                 seed=derive_seed(9, f"stream-{spec.kind.value}"))
        for t in rng.integers(1, 26, size=25):
            a = RoundOptimizer(stream, tol=1e-9).solve(int(t))
            b = projected_gradient_optimum(stream, int(t), tol=1e-9)
            worst = max(worst, abs(a.f_star - b.f_star))
            count += 1
    report(9, worst <= 1e-6,
           f"pairwise Frank-Wolfe and projected-gradient optima agree within "
           f"{worst:.2e} in objective value on {count} random rounds (both sets)")


def test_criterion_10_run_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "problem.n = 6\n"
        "problem.T = 30\n"
        "problem.d = 5\n"
        "seeds.master = 12345\n"
        "network.edge_prob = 0.4\n"
    )
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "a"), "--seed", "7"]) == 0
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "b"), "--seed", "7"]) == 0
    same = (tmp_path / "a" / "regret.csv").read_bytes() == (tmp_path / "b" / "regret.csv").read_bytes()
    report(10, same, "two CLI runs with the same config and seed wrote byte-identical regret CSVs")
