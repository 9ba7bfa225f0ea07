import math

import numpy as np
import pytest

import domfw.harness as harness
from domfw.algorithm import ScheduleMode
from domfw.cli import main
from domfw.harness import (
    ConfigError,
    ExperimentConfig,
    config_to_text,
    derive_seed,
    fit_loglog_slope,
    parse_config,
    read_manifest_config,
    run_experiment,
    sweep,
)
from domfw.problem import ConstraintKind, generate_stream

SMALL = """
problem.n = 3
problem.T = 6
problem.d = 4
seeds.master = 5
network.edge_prob = 0.5
"""


class TestParseConfig:
    def test_minimal_fills_reference_defaults(self):
        cfg = parse_config("")
        assert cfg.schedule.rho == 4.0
        assert cfg.schedule.epsilon == 4.0
        assert cfg.schedule.gamma == 0.5
        assert cfg.schedule.mode is ScheduleMode.PER_ROUND
        assert cfg.problem.n == 20
        assert cfg.problem.lambda1 == 5e-6
        assert cfg.problem.constraint is ConstraintKind.UNIT_SIMPLEX
        assert cfg.solver.tolerance == 1e-9

    def test_gamma_range_depends_on_mode(self):
        with pytest.raises(ConfigError) as info:
            parse_config("schedule.gamma = 1.5")
        (lineno, message), = info.value.violations
        assert lineno == 1
        assert "0 < gamma < 1" in message
        # the horizon schedule allows gamma = 1
        cfg = parse_config("schedule.mode = horizon\nschedule.gamma = 1.0")
        assert cfg.schedule.gamma == 1.0
        with pytest.raises(ConfigError):
            parse_config("schedule.mode = horizon\nschedule.gamma = 1.5")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError) as info:
            parse_config("problem.n = 3\nproblem.n = 4")
        (lineno, message), = info.value.violations
        assert lineno == 2
        assert "line 1" in message

    def test_all_violations_reported(self):
        bad = "\n".join([
            "bogus.key = 1",
            "problem.n = x",
            "network.edge_prob = 1.5",
            "schedule.mode = warp",
        ])
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert len(info.value.violations) == 4
        lines = [v[0] for v in info.value.violations]
        assert lines == [1, 2, 3, 4]

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nproblem.n = 7   # trailing\n")
        assert cfg.problem.n == 7

    def test_fixed_mode_requires_count(self):
        with pytest.raises(ConfigError):
            parse_config("schedule.mode = fixed")
        cfg = parse_config("schedule.mode = fixed\nschedule.fixed_count = 5")
        assert cfg.schedule.params(10).fixed_count == 5

    def test_echo_pins_every_key(self):
        text = "\n".join([
            "problem.n = 6",
            "problem.T = 30",
            "problem.d = 5",
            "problem.lambda1 = 0.001",
            "problem.constraint = l1ball",
            "problem.radius = 1.5",
            "problem.redraw_features = true",
            "network.edge_prob = 0.25",
            "schedule.mode = baseline",
            "schedule.epsilon = 3.0",
            "schedule.gamma = 0.7",
            "schedule.rho = 2.0",
            "schedule.fixed_count = 7",
            "schedule.baseline_alpha = 0.05",
            "solver.tolerance = 1e-08",
            "seeds.master = 9",
            "seeds.stream = 11",
            "seeds.network = 12",
            "seeds.init = 13",
            "init.mode = random",
            "output.directory = results/run",
        ]) + "\n"
        cfg = parse_config(text)
        assert config_to_text(cfg) == text
        assert parse_config(config_to_text(cfg)) == cfg
        # unset optional keys are left out of the echo
        assert "fixed_count" not in config_to_text(parse_config(""))

    def test_baseline_alpha_defaults_from_horizon(self):
        cfg = parse_config("schedule.mode = baseline\nproblem.T = 1000")
        params = cfg.schedule.params(1000)
        assert params.baseline_alpha == pytest.approx(1 / (4 * 1000 ** 0.4), rel=1e-15)


class TestSeedDiscipline:
    def test_role_separation(self):
        s = derive_seed(42, "stream")
        n = derive_seed(42, "network")
        i = derive_seed(42, "init")
        assert len({s, n, i}) == 3
        assert derive_seed(42, "stream") == s       # stable
        assert derive_seed(43, "stream") != s

    def test_changing_network_seed_keeps_stream(self):
        base = parse_config(SMALL)
        other = harness.ExperimentConfig(
            problem=base.problem, network=base.network, schedule=base.schedule,
            solver=base.solver, seeds=harness.SeedsBlock(master=5, network=123),
            init=base.init, output=base.output)
        spec = base.problem.spec()
        a = generate_stream(3, 6, 4, base.problem.lambda1, spec, seed=base.seeds.stream_seed())
        b = generate_stream(3, 6, 4, other.problem.lambda1, spec, seed=other.seeds.stream_seed())
        assert np.array_equal(a.labels, b.labels)
        assert base.seeds.network_seed() != other.seeds.network_seed()


class TestRunExperiment:
    def test_smoke_outputs(self, tmp_path):
        cfg = parse_config("problem.n = 2\nproblem.T = 2\nproblem.d = 3\nseeds.master = 1")
        out = run_experiment(cfg, out_dir=tmp_path / "run").directory
        expected = {"stream.csv", "trajectory.csv", "diagnostics.csv", "regret.csv",
                    "envelopes.csv", "envelopes.gp", "bound.txt", "manifest.txt"}
        assert expected <= {p.name for p in out.iterdir()}
        assert not (out / "FAILED").exists()
        assert not (out / "network.csv").exists()

    def test_network_dump_optional(self, tmp_path):
        cfg = parse_config("problem.n = 2\nproblem.T = 2\nproblem.d = 2")
        out = run_experiment(cfg, out_dir=tmp_path / "run", dump_network=True).directory
        assert (out / "network.csv").exists()

    def test_failure_leaves_marker(self, tmp_path, monkeypatch):
        cfg = parse_config(SMALL)

        def boom(self, t):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness.RoundOptimizer, "solve", boom)
        with pytest.raises(RuntimeError):
            run_experiment(cfg, out_dir=tmp_path / "run")
        marker = tmp_path / "run" / "FAILED"
        assert marker.exists()
        assert "synthetic failure" in marker.read_text()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config(SMALL)
        a = run_experiment(cfg, out_dir=tmp_path / "a").directory
        b = run_experiment(cfg, out_dir=tmp_path / "b").directory
        for name in ("regret.csv", "trajectory.csv", "envelopes.csv", "stream.csv", "diagnostics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_replay_bit_identical(self, tmp_path):
        cfg = parse_config(SMALL)
        first = run_experiment(cfg, out_dir=tmp_path / "first").directory
        replay_cfg = read_manifest_config(first / "manifest.txt")
        assert replay_cfg == cfg
        second = run_experiment(replay_cfg, out_dir=tmp_path / "second").directory
        for name in ("regret.csv", "trajectory.csv", "envelopes.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_bound_report_holds(self, tmp_path):
        cfg = parse_config(SMALL)
        out = run_experiment(cfg, out_dir=tmp_path / "run").directory
        entries = dict(line.split(" = ") for line in (out / "bound.txt").read_text().splitlines())
        assert float(entries["bound_margin"]) > 0
        assert entries["mixing_holds"] == "True"
        assert float(entries["max_conservation_gap"]) <= 1e-9
        assert float(entries["ht_estimate"]) <= float(entries["ht_upper_bound"])

    def test_ball_constraint_configuration(self, tmp_path):
        # norm-ball analogue of the reference experiments, desk scale
        cfg = parse_config(
            "problem.T = 6\nproblem.d = 16\n"
            "problem.constraint = l1ball\nproblem.radius = 2.0\n"
            "schedule.epsilon = 0.3\nschedule.gamma = 0.5\nschedule.rho = 3.5\n"
            "seeds.master = 2\n"
        )
        out = run_experiment(cfg, out_dir=tmp_path / "run").directory
        lines = (out / "envelopes.csv").read_text().splitlines()
        assert lines[0] == "t,avg,sup,inf"
        assert len(lines) == 1 + 6
        t, avg, sup, inf = lines[-1].split(",")
        assert float(inf) <= float(avg) <= float(sup)

    def test_redrawn_features_run_completes(self, tmp_path):
        cfg = parse_config(
            "problem.n = 3\nproblem.T = 5\nproblem.d = 4\n"
            "problem.redraw_features = true\nseeds.master = 4\n"
        )
        out = run_experiment(cfg, out_dir=tmp_path / "run").directory
        report = (out / "bound.txt").read_text()
        assert "ht_estimate" in report
        assert "ht_upper_bound" not in report    # needs fixed features
        assert "bound_total" not in report
        assert not (out / "FAILED").exists()


class TestSweep:
    def test_row_equals_direct_run_result(self, tmp_path):
        cfg = parse_config(SMALL)
        row, = sweep(cfg, "gamma", [0.5], out_dir=tmp_path / "sweep")
        result = run_experiment(cfg, out_dir=tmp_path / "direct")
        assert result.directory == tmp_path / "direct"
        assert (result.directory / "bound.txt").read_text() == result.bound_text()
        assert row.final_avg_regret == float(result.envelopes.avg[-1])
        assert row.lo_calls == result.trajectory.lo_calls
        assert row.messages == result.trajectory.messages

    def test_single_value_matches_run(self, tmp_path):
        cfg = parse_config(SMALL)
        rows = sweep(cfg, "gamma", [0.5], out_dir=tmp_path / "sweep")
        assert len(rows) == 1 and rows[0].ok
        direct = run_experiment(cfg, out_dir=tmp_path / "direct").directory
        sweep_env = (tmp_path / "sweep" / "run_gamma=0.5" / "envelopes.csv").read_bytes()
        assert sweep_env == (direct / "envelopes.csv").read_bytes()
        table = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert table[0] == "gamma,final_avg_regret,lo_calls,messages,status"
        assert table[1].endswith("ok")

    def test_gamma_sweep_rows_ordered(self, tmp_path):
        cfg = parse_config("problem.n = 3\nproblem.T = 4\nproblem.d = 3\nschedule.rho = 3\nschedule.epsilon = 2")
        rows = sweep(cfg, "gamma", [0.3, 0.5, 0.7, 0.9], out_dir=tmp_path / "sweep")
        assert [row.value for row in rows] == [0.3, 0.5, 0.7, 0.9]
        assert all(row.ok for row in rows)
        # oracle-count column equals n * sum K_t recomputed from the counts
        from domfw.algorithm import lo_call_count
        for row in rows:
            params = harness.ScheduleBlock(mode=ScheduleMode.PER_ROUND, epsilon=2, gamma=row.value, rho=3).params(4)
            assert row.lo_calls == lo_call_count(params, 4, n=3)

    def test_mode_sweep_includes_baseline(self, tmp_path):
        cfg = parse_config("problem.n = 3\nproblem.T = 4\nproblem.d = 3")
        rows = sweep(cfg, "mode", ["per_round", "horizon", "baseline"], out_dir=tmp_path / "sweep")
        assert all(row.ok for row in rows)
        regrets = [row.final_avg_regret for row in rows]
        assert all(np.isfinite(regrets))

    def test_failures_recorded_and_sweep_continues(self, tmp_path, monkeypatch):
        cfg = parse_config(SMALL)
        real_solve = harness.RoundOptimizer.solve
        calls = {"count": 0}

        def flaky(self, t):
            if calls["count"] == 0 and t == 1:
                calls["count"] += 1
                raise RuntimeError("synthetic")
            return real_solve(self, t)

        monkeypatch.setattr(harness.RoundOptimizer, "solve", flaky)
        rows = sweep(cfg, "gamma", [0.3, 0.5], out_dir=tmp_path / "sweep")
        assert not rows[0].ok and "synthetic" in rows[0].error
        assert rows[1].ok
        table = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert "synthetic" in table[1]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep(parse_config(""), "lambda1", [1])


class TestSlope:
    def test_exact_powers(self):
        ts = [10, 100, 1000, 10000]
        assert fit_loglog_slope([(t, 3 * t ** 2) for t in ts]) == pytest.approx(2.0, abs=1e-12)
        assert fit_loglog_slope([(t, 5 * t) for t in ts]) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_count_slope_reference_window(self):
        # exact summation of ceil(4 sqrt(t)) + 1 for T in {1e2, 1e3, 1e4}
        pairs = []
        for T in (100, 1000, 10000):
            pairs.append((T, sum(math.ceil(4 * math.sqrt(t)) + 1 for t in range(1, T + 1))))
        slope = fit_loglog_slope(pairs)
        assert 1.45 <= slope <= 1.55

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 100), (20, 200)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1), (20, 0), (30, 3)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1), (10, 2), (30, 3)])


class TestCli:
    def test_validate_paths(self, tmp_path, capsys):
        good = tmp_path / "good.cfg"
        good.write_text(SMALL)
        assert main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text("schedule.gamma = 2.0\nwhat = 1")
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "line 2" in err
        assert main(["validate", str(tmp_path / "missing.cfg")]) == 1

    def test_run_and_seed_override(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.n = 2\nproblem.T = 2\nproblem.d = 2\n")
        rc = main(["run", str(cfgfile), "--out-dir", str(tmp_path / "o1"), "--seed", "9"])
        assert rc == 0
        rc = main(["run", str(cfgfile), "--out-dir", str(tmp_path / "o2"), "--seed", "9"])
        assert rc == 0
        assert (tmp_path / "o1" / "regret.csv").read_bytes() == (tmp_path / "o2" / "regret.csv").read_bytes()
        rc = main(["run", str(cfgfile), "--out-dir", str(tmp_path / "o3"), "--seed", "10"])
        assert (tmp_path / "o1" / "regret.csv").read_bytes() != (tmp_path / "o3" / "regret.csv").read_bytes()

    def test_sweep_command(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.n = 2\nproblem.T = 2\nproblem.d = 2\n")
        rc = main(["sweep", str(cfgfile), "--axis", "gamma", "--values", "0.4,0.6",
                   "--out-dir", str(tmp_path / "s")])
        assert rc == 0
        assert (tmp_path / "s" / "sweep.csv").exists()

    def test_validate_rejects_single_agent(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.T = 5\nproblem.n = 1\n")
        assert main(["validate", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "problem.n" in err

    def test_slope_command(self, tmp_path, capsys):
        csvfile = tmp_path / "counts.csv"
        csvfile.write_text("T,count\n10,100\n100,10000\n1000,1000000\n")
        assert main(["slope", str(csvfile)]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0, abs=1e-12)

    def test_config_error_exit_code(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.n = -3\n")
        assert main(["run", str(cfgfile)]) == 1
