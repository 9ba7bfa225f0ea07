import csv
import hashlib
import math
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domfw.harness as harness
import domfw.regret as regret
from domfw.algorithm import ScheduleMode, ScheduleParams, inner_count, run, step_size
from domfw.cli import main
from domfw.harness import (
    ConfigError,
    ExperimentConfig,
    config_to_text,
    derive_seed,
    fit_loglog_slope,
    parse_config,
    run_experiment,
    sweep,
    write_diagnostics_csv,
    write_envelopes_csv,
    write_regret_csv,
    write_schedule_csv,
    write_trajectory_csv,
)
from domfw.network import GraphSchedule, MixingReport, WeightMatrix, check_mixing, random_connected_schedule
from domfw.problem import ConstraintKind, ConstraintSpec, generate_stream
from domfw.regret import RoundOptimizer, envelopes, regret_series
from oracles import (
    BENCH_DIGESTS,
    WORKLOADS,
    constant_schedule,
    kernel_note,
    lo_call_count,
    neumaier_sum,
    shadow_sum,
)
from test_regret import log_uniform

FLOAT_KEYS = [key for key, (convert, *_) in harness._SCHEMA.items() if convert is float]

# raw values for generated configs: numbers at and around the range edges,
# non-finite and unparseable values, and every enum and boolean name
RAW_POOL = (["-1", "0", "1", "2", "3", "0.5", "1.0", "1.5", "1e300", "inf", "nan", "x", "true", "false",
             "vertex", "random"] + [m.value for m in ScheduleMode] + [k.value for k in ConstraintKind])

# keys the end-to-end test sets itself: the sizes, drawn small, and the output directory
RUN_KEYS_SET_BY_TEST = ("problem.n", "problem.d", "problem.T", "output.directory")

SMALL = """
problem.n = 3
problem.T = 6
problem.d = 4
seeds.master = 5
network.edge_prob = 0.5
"""

# a wide network whose n x n arrays carry a run's memory: one is 1.28 MB, every
# (n, d) and step array at most 64 KB, and the mixing bound is vacuous, so the
# fold keeps no n x n product
WIDE = """
problem.n = 400
problem.d = 4
problem.T = 3
schedule.mode = fixed
schedule.fixed_count = 2
network.edge_prob = 0.02
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

    def test_line_without_equals_sign(self):
        with pytest.raises(ConfigError) as info:
            parse_config("problem.n = 3\nproblem.T 4  # no sign\n")
        assert info.value.violations == [(2, "expected 'section.key = value', got 'problem.T 4  # no sign'")]

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nproblem.n = 7   # trailing\n")
        assert cfg.problem.n == 7

    def test_fixed_mode_requires_count(self):
        with pytest.raises(ConfigError):
            parse_config("schedule.mode = fixed")
        cfg = parse_config("schedule.mode = fixed\nschedule.fixed_count = 5")
        assert cfg.schedule.fixed_count == 5

    @pytest.mark.parametrize("text, key", [
        ("problem.d = 3\nproblem.n = 1000000000", "problem.n"),
        ("problem.n = 3\nproblem.d = 1000000000", "problem.d"),
        ("problem.T = 1000\nproblem.n = 5000", "problem.n"),
        ("problem.n = 20\nproblem.T = 1000000", "problem.T"),
        ("problem.T = 50\nschedule.mode = fixed\nschedule.fixed_count = 10000000000", "schedule.fixed_count"),
        ("schedule.epsilon = 1e300", "schedule.epsilon"),
    ])
    def test_footprint_over_budget_fails_at_the_dominant_key(self, text, key):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        (lineno, message), = info.value.violations
        assert message.startswith(f"{key}: a run needs an estimated ")
        assert message.endswith(" resident, above the 2 GiB budget")
        assert text.splitlines()[lineno - 1].startswith(key)

    def test_footprint_estimate(self):
        assert harness.MAX_RESIDENT_BYTES == 2 * 1024 ** 3   # the budget README states
        small = harness.resident_bytes(20, 8, 100, 41, False)
        assert 40 * 2 ** 20 < small < 48 * 2 ** 20
        # each size adds its arrays: n x n matrices, the (T + 1, n, d)
        # trajectory, the round's step buffers and the redrawn features
        assert harness.resident_bytes(40, 8, 100, 41, False) - small > 8 * 12 * (40 ** 2 - 20 ** 2)
        assert harness.resident_bytes(20, 8, 200, 41, False) - small > 8 * 2 * 100 * 20 * 8
        assert harness.resident_bytes(20, 8, 100, 82, False) - small == 8 * 12 * 41 * 20 * 8
        assert harness.resident_bytes(20, 8, 100, 41, True) - small == 8 * 99 * 20 * 8
        # sizes that fit run: the reference and wide-network shapes at T = 1000
        parse_config("problem.n = 200\nproblem.T = 1000\nschedule.mode = fixed\nschedule.fixed_count = 4")
        parse_config("problem.T = 1000")

    def test_footprint_bounds_the_arrays_of_a_wide_run(self, tmp_path):
        # two agents at d = 60 on the l1 ball, the larger vertex table: it, H,
        # the active-set half's face factor and the variation estimate's points
        # carry the run's arrays
        cfg = parse_config("problem.n = 2\nproblem.d = 60\nproblem.T = 1\nproblem.constraint = l1ball")
        tracemalloc.start()
        try:
            run_experiment(cfg, out_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < harness.resident_bytes(2, 60, 1, inner_count(cfg.schedule, 1, 1), False) - 40 * 2 ** 20

    def test_footprint_bounds_the_arrays_of_a_wide_network_run(self, tmp_path):
        # four hundred agents: the n x n working matrices carry the estimate
        cfg = parse_config(WIDE)
        tracemalloc.start()
        try:
            run_experiment(cfg, out_dir=tmp_path, dump_network=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < harness.resident_bytes(400, 4, 3, 2, False) - 40 * 2 ** 20

    def test_radius_must_keep_squared_feature_products_finite(self):
        text = "problem.constraint = l1ball\nproblem.radius = 1e300"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.violations == [
            (2, "problem.radius: value 1e+300 out of range "
                "(4 * radius**2 * n * (25 * d + 2 * lambda1) must be finite at n = 20, d = 8)")]
        assert parse_config("problem.constraint = l1ball\nproblem.radius = 2").problem.radius == 2.0
        # the bound grows with d: 1e152 fails on the ball at d = 9; the simplex reads no radius
        assert parse_config("problem.radius = 1e152\nproblem.d = 8").problem.radius == 1e152
        with pytest.raises(ConfigError, match=r"^invalid config: line 2: problem\.radius: .* at n = 20, d = 9\)$"):
            parse_config("problem.constraint = l1ball\nproblem.radius = 1e152\nproblem.d = 9")

    def test_squared_gradient_norms_must_stay_finite(self):
        # a gradient entry reaches radius * (50 + 2 * lambda1), and the tracking
        # residual's norms square d of them
        with pytest.raises(ConfigError) as info:
            parse_config("problem.lambda1 = 1e300")
        assert info.value.violations == [
            (1, "problem.lambda1: value 1e+300 out of range "
                "(d * (radius * (50 + 2 * lambda1))**2 must be finite at d = 8)")]
        assert parse_config("problem.lambda1 = 2e153").problem.lambda1 == 2e153
        with pytest.raises(ConfigError, match=r"^invalid config: line 2: problem\.lambda1: .* at d = 12\)$"):
            parse_config("problem.d = 12\nproblem.lambda1 = 2e153")
        # on the ball the larger factor is blamed: radius against 50 + 2 * lambda1
        with pytest.raises(ConfigError, match=r"^invalid config: line 2: problem\.radius: .* at d = 8\)$"):
            parse_config("problem.constraint = l1ball\nproblem.radius = 1e152\nproblem.lambda1 = 1")

    def test_simplex_loss_scale_ignores_radius(self, tmp_path):
        # the simplex's radius is 1 whatever problem.radius says, so the radius is never blamed there
        with pytest.raises(ConfigError) as info:
            parse_config("problem.radius = 1e300\nproblem.lambda1 = 1e300")
        (line, message), = info.value.violations
        assert line == 2 and message.startswith("problem.lambda1: value 1e+300 out of range")
        result = run_experiment(parse_config("problem.radius = 1e300\nproblem.T = 3"), out_dir=tmp_path / "run")
        assert np.isfinite(result.regret.cumulative).all()

    @pytest.mark.parametrize("text, line, key", [
        ("problem.constraint = l1ball\nproblem.d = 1\nproblem.radius = 1e153\nproblem.n = 20", 3, "problem.radius"),
        ("problem.lambda1 = 1e308\nproblem.n = 4\nproblem.d = 3", 1, "problem.lambda1"),
        ("problem.constraint = l1ball\nproblem.radius = 2\nproblem.lambda1 = 1e307\nproblem.n = 4", 3,
         "problem.lambda1"),
    ])
    def test_loss_scale_covers_n_and_lambda1(self, text, line, key):
        # each of these fails in round 1 (a gap or gradient of inf) when it runs
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        (at, message), = info.value.violations
        assert at == line and message.startswith(f"{key}: ") and "must be finite at n = " in message

    @pytest.mark.parametrize("text", [
        "problem.lambda1 = 1e150",
    ])
    def test_largest_loss_scales_validate_and_run(self, tmp_path, text):
        result = run_experiment(parse_config(f"{text}\nproblem.T = 3"), out_dir=tmp_path / "run")
        assert np.isfinite(result.regret.cumulative).all()
        assert np.isfinite([r.tracking_residual for r in result.trajectory.rounds]).all()

    @pytest.mark.parametrize("text, line, T", [
        ("problem.constraint = l1ball\nproblem.radius = 1e50\nproblem.d = 8\nproblem.n = 20\nproblem.T = 3", 2, 3),
        ("problem.constraint = l1ball\nproblem.radius = 1e152\nproblem.d = 2\nproblem.n = 20\nproblem.T = 3", 2, 3),
        ("problem.T = 3\nproblem.constraint = l1ball\nproblem.radius = 8e13", 3, 3),
        ("problem.constraint = l1ball\nproblem.radius = 3e12", 2, 100),   # T defaults to 100
    ])
    def test_radius_must_keep_the_label_noise(self, text, line, T):
        # labels reach about 5 * radius, so at 20 * T * radius * eps >= 1 the last
        # round's noise step 1/(4T) rounds away and the stream stops varying
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        (at, message), = info.value.violations
        assert at == line and message.startswith("problem.radius: value ")
        assert message.endswith(f"out of range (20 * T * radius * eps must be < 1 at T = {T})")

    def test_largest_radius_that_keeps_the_label_noise_runs(self, tmp_path):
        assert parse_config("problem.T = 3\nproblem.constraint = l1ball\nproblem.radius = 7e13").problem.radius == 7e13
        text = "problem.constraint = l1ball\nproblem.radius = 1e3\nproblem.d = 8\nproblem.n = 20\nproblem.T = 3"
        result = run_experiment(parse_config(text), out_dir=tmp_path / "run")
        assert result.ht_estimate > 0 and result.ht_upper_bound > 0

    def test_rho_must_keep_its_square_finite(self):
        # the regret bound divides by rho**2
        with pytest.raises(ConfigError) as info:
            parse_config("problem.T = 3\nschedule.rho = 1e300")
        assert info.value.violations == [(2, "schedule.rho: rho**2 must be finite, got 1e+300")]
        assert parse_config("problem.T = 3\nschedule.rho = 1.3e154").schedule.rho == 1.3e154

    @pytest.mark.parametrize("text, violations", [
        # a mode that failed to parse is not the per-round default
        ("schedule.mode = horzon\nschedule.gamma = 1", [(1, "schedule.mode: cannot interpret 'horzon'")]),
        ("schedule.mode = fixed\nschedule.fixed_count = x", [(2, "schedule.fixed_count: cannot interpret 'x'")]),
        # the step probe does not run on the default gamma
        ("schedule.gamma = x\nschedule.mode = horizon\nschedule.epsilon = 1e307\nproblem.T = 1000000",
         [(1, "schedule.gamma: cannot interpret 'x'")]),
    ])
    def test_rules_skip_a_key_that_failed_to_parse(self, text, violations):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.violations == violations

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.dictionaries(st.sampled_from(list(harness._SCHEMA)),
                           st.sampled_from(RAW_POOL + ["1e14", "1e152", "1000000000", "1e308"])))
    def test_each_refused_key_is_named_once_at_its_line(self, raw):
        lines = {key: lineno for lineno, key in enumerate(raw, start=1)}
        try:
            parse_config("\n".join(f"{key} = {value}" for key, value in raw.items()))
        except ConfigError as exc:
            violations = exc.violations
        else:
            return
        keys = [message.split(": ", 1)[0] for _, message in violations]
        assert len(set(keys)) == len(keys)
        for (line, _), key in zip(violations, keys):
            if key in lines:
                assert line == lines[key]
            else:   # an unset schedule key is reported at the mode's line
                assert key.startswith("schedule.") and line == lines.get("schedule.mode")
        # once a schedule key failed to parse, only the parse pass and the footprint name schedule keys
        if any(message.startswith("schedule.") and ": cannot interpret " in message for _, message in violations):
            for _, message in violations:
                assert (not message.startswith("schedule.") or ": cannot interpret " in message
                        or ": a run needs an estimated " in message)

    def test_output_directory_must_be_named(self):
        # an empty directory would put a run's artifacts, and its cleanup, in the working directory
        with pytest.raises(ConfigError) as info:
            parse_config("problem.T = 3\noutput.directory =   # empty")
        assert info.value.violations == [(2, "output.directory: value  out of range (must be non-empty)")]

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
        # a manifest is a config file: its environment lines are comments
        unrun = dict.fromkeys(f.name for f in fields(harness.RunResult))
        result = harness.RunResult(**unrun | {"config": cfg, "wall_seconds": 1.5})
        assert parse_config(result.manifest_text()) == cfg
        # unset optional keys are left out of the echo
        assert "fixed_count" not in config_to_text(parse_config(""))

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.text(st.one_of(st.sampled_from("#= \t\n\r\x0b\x0c\x1c\x85\u2028\u3000/ab."), st.characters())))
    def test_echo_is_refused_naming_the_key_or_replays(self, directory):
        try:
            cfg = replace(parse_config(SMALL), output=harness.OutputBlock(directory=directory))
            echo = config_to_text(cfg)
        except ValueError as exc:
            assert str(exc).startswith("output.directory: ")
            return
        assert parse_config(echo) == cfg

    def test_sub_seeds_non_negative(self):
        with pytest.raises(ConfigError) as info:
            parse_config("seeds.master = -1\nseeds.stream = -1\nseeds.network = -2\nseeds.init = -3")
        assert [(line, message.split(":")[0]) for line, message in info.value.violations] == [
            (2, "seeds.stream"), (3, "seeds.network"), (4, "seeds.init")]
        assert parse_config("seeds.master = -1").seeds.master == -1   # only hashed

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.dictionaries(st.sampled_from(list(harness._SCHEMA)), st.sampled_from(RAW_POOL)))
    def test_validated_config_is_runnable(self, raw):
        try:
            cfg = parse_config("\n".join(f"{key} = {value}" for key, value in raw.items()))
        except ConfigError:
            return
        cfg.problem.spec()
        horizon = cfg.problem.T
        for t in (1, horizon):
            k_t = inner_count(cfg.schedule, t, horizon)
            assert k_t >= 1
            assert 0 < step_size(cfg.schedule, k_t, horizon) <= 1
        for seed in map(cfg.seeds.seed, ("stream", "network", "init")):
            np.random.default_rng(seed)
        assert parse_config(config_to_text(cfg)) == cfg

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(raw=st.dictionaries(st.sampled_from([key for key in harness._SCHEMA if key not in RUN_KEYS_SET_BY_TEST]),
                               st.sampled_from(RAW_POOL)),
           n=st.integers(2, 8), d=st.integers(1, 6), horizon=st.integers(1, 8))
    def test_validated_config_runs_end_to_end(self, raw, n, d, horizon):
        # a companion of the test above: accepted configs, small enough to run, run
        raw |= {"problem.n": n, "problem.d": d, "problem.T": horizon}
        try:
            cfg = parse_config("\n".join(f"{key} = {value}" for key, value in raw.items()))
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as out:
            result = run_experiment(cfg, out_dir=out)
            assert result.trajectory.horizon == horizon
            assert not (Path(out) / "FAILED").exists()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(n=st.integers(2, 6), d=st.integers(1, 8), horizon=st.integers(1, 6), ball=st.booleans(),
           redraw=st.booleans(), mode=st.sampled_from(ScheduleMode), lambda1=st.sampled_from([0.0, 5e-6, 1.0, 1e6]),
           data=st.data(), seed=st.integers(0, 2 ** 16))
    def test_generated_config_runs_end_to_end(self, n, d, horizon, ball, redraw, mode, lambda1, data, seed):
        # every set, feature regime and schedule mode, with l1 radii log-uniform
        # up to the label-noise rule's limit 20 T r eps < 1: the large radii that
        # scale the round optima's faces far past 1/eps
        lines = [f"problem.n = {n}", f"problem.d = {d}", f"problem.T = {horizon}", f"problem.lambda1 = {lambda1!r}",
                 f"problem.redraw_features = {str(redraw).lower()}", f"schedule.mode = {mode.value}",
                 f"seeds.master = {seed}"]
        if ball:
            radius = data.draw(log_uniform(1e-3, 0.99 / (20 * horizon * np.finfo(float).eps)), label="radius")
            lines += ["problem.constraint = l1ball", f"problem.radius = {radius!r}"]
        if mode is ScheduleMode.FIXED:
            lines.append(f"schedule.fixed_count = {data.draw(st.integers(2, 4), label='fixed_count')}")
        cfg = parse_config("\n".join(lines))
        with tempfile.TemporaryDirectory() as out:
            result = run_experiment(cfg, out_dir=out)
            assert len(result.optima) == horizon
            assert not (Path(out) / "FAILED").exists()

    def test_baseline_alpha_defaults_from_horizon(self):
        cfg = parse_config("schedule.mode = baseline\nproblem.T = 1000")
        assert cfg.schedule.baseline_alpha is None
        assert step_size(cfg.schedule, 1, 1000) == pytest.approx(1 / (4 * 1000 ** 0.4), rel=1e-15)


def replaced(block, **attrs):
    """A config built from Python: ``SMALL``'s, with ``attrs`` set on one of its blocks."""
    cfg = parse_config(SMALL)
    return replace(cfg, **{block: replace(getattr(cfg, block), **attrs)})


class TestConfigGate:
    """A config built from Python passes the checks of ``domfw validate`` when it is built."""

    @pytest.mark.parametrize("build, key", [
        # a str where the key expects an enum: spec() would test it with `is` and take the l1 ball
        (lambda: replaced("problem", constraint="simplex"), "problem.constraint"),
        # the run would step the horizon schedule, and the manifest's replay the fixed one
        (lambda: replaced("schedule", mode="fixed", fixed_count=3), "schedule.mode"),
        # past the label noise: a static stream
        (lambda: replaced("problem", constraint=ConstraintKind.L1_BALL, radius=1e50), "problem.radius"),
        # overflows in round 1
        (lambda: replaced("problem", constraint=ConstraintKind.L1_BALL, radius=1e300), "problem.radius"),
        (lambda: replaced("problem", lambda1=1e308), "problem.lambda1"),
        (lambda: replaced("problem", n=2.5), "problem.n"),
    ])
    def test_refused_when_built_naming_the_key(self, tmp_path, build, key):
        for call in (lambda: run_experiment(build(), out_dir=tmp_path / "run"),
                     lambda: sweep(build(), "gamma", ["0.4"], out_dir=tmp_path / "sweep")):
            with pytest.raises(ValueError, match=rf"^{key}: "):
                call()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("block, attr", [("seeds", "master"), ("problem", "T"), ("schedule", "fixed_count")])
    def test_an_int_no_config_line_holds_is_refused_by_key(self, tmp_path, block, attr):
        # str() refuses an int past the interpreter's digit limit, so the echo has no line for it
        message = (f"{block}.{attr}: an int of over {sys.get_int_max_str_digits()} digits would not read back "
                   "from its config line as int")
        for call in (lambda: run_experiment(replaced(block, **{attr: 10 ** 5000}), out_dir=tmp_path / "run"),
                     lambda: sweep(replaced(block, **{attr: 10 ** 5000}), "gamma", ["0.4"], out_dir=tmp_path / "s")):
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_schedule_fault_in_the_words_of_validate(self, tmp_path, capsys):
        message = "schedule.gamma: per-round schedule requires 0 < gamma < 1, got 1.5"
        with pytest.raises(ValueError) as refused:
            replaced("schedule", gamma=1.5)
        assert str(refused.value) == message
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("schedule.gamma = 1.5\n")
        assert main(["validate", str(cfgfile)]) == 1
        assert capsys.readouterr().err == f"line 1: {message}\n"

    def test_unset_is_none_only_where_that_is_the_default(self):
        assert replaced("seeds", stream=None) == parse_config(SMALL)
        with pytest.raises(ValueError, match=r"^problem\.n: None would not read back from its config line as int$"):
            replaced("problem", n=None)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.dictionaries(st.sampled_from(list(harness._SCHEMA)), st.sampled_from(RAW_POOL)))
    def test_refused_exactly_when_its_echo_is(self, raw):
        # each raw value that converts, set on the defaults; the config's echo is the text parse_config judges
        values = dict(harness._DEFAULTS)
        for key, text in raw.items():
            try:
                values[key] = harness._SCHEMA[key][0](text)
            except ValueError:
                pass
        echo = "".join(f"{key} = {harness._echo_value(value)}\n" for key, value in values.items() if value is not None)
        try:
            parse_config(echo)
            refused = None
        except ConfigError as exc:
            refused = [message for _, message in exc.violations]
        try:
            ScheduleParams(**{key.removeprefix("schedule."): value for key, value in values.items()
                              if key.startswith("schedule.")})
        except ValueError as exc:
            # the schedule block checks itself before any config exists, so it reports its own faults alone
            assert refused is not None
            assert str(exc).split("; ") == [message for message in refused if message.startswith("schedule.")]
            return
        try:
            cfg = ExperimentConfig(**harness._blocks(values))   # each block from its constructor
        except ValueError as exc:
            assert refused is not None and str(exc) == "; ".join(refused)
        else:
            assert refused is None
            assert parse_config(config_to_text(cfg)) == parse_config(echo) == cfg


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
        a = generate_stream(3, 6, base.problem.lambda1, spec, seed=base.seeds.seed("stream"))
        b = generate_stream(3, 6, other.problem.lambda1, spec, seed=other.seeds.seed("stream"))
        assert np.array_equal(a.labels, b.labels)
        assert base.seeds.seed("network") != other.seeds.seed("network")

    @pytest.mark.parametrize("role", ["stream", "network", "init"])
    def test_seed_is_its_key_if_set_else_derived(self, role):
        derived = harness.SeedsBlock(master=5)
        assert derived.seed(role) == derive_seed(5, role)
        keyed = harness.SeedsBlock(master=5, **{role: 123})
        assert keyed.seed(role) == 123
        for other in {"stream", "network", "init"} - {role}:
            assert keyed.seed(other) == derive_seed(5, other)


class TestRunExperiment:
    def test_smoke_outputs(self, tmp_path):
        # RUN_FILES names every artifact: all but FAILED, and network.csv only when dumped
        cfg = parse_config("problem.n = 2\nproblem.T = 2\nproblem.d = 3\nseeds.master = 1")
        out = run_experiment(cfg, out_dir=tmp_path / "run").directory
        assert sorted(p.name for p in out.iterdir()) == sorted(set(harness.RUN_FILES) - {"FAILED", "network.csv"})

    def test_network_dump_optional(self, tmp_path):
        cfg = parse_config("problem.n = 2\nproblem.T = 2\nproblem.d = 2")
        out = run_experiment(cfg, out_dir=tmp_path / "run", dump_network=True).directory
        assert sorted(p.name for p in out.iterdir()) == sorted(set(harness.RUN_FILES) - {"FAILED"})

    def test_rerun_without_a_network_dump_removes_the_earlier_dump(self, tmp_path):
        cfg = parse_config("problem.n = 2\nproblem.T = 2\nproblem.d = 2")
        out = run_experiment(cfg, out_dir=tmp_path / "run", dump_network=True).directory
        assert (out / "network.csv").exists()
        run_experiment(cfg.with_master_seed(7), out_dir=out)
        assert not (out / "network.csv").exists()

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

    def test_failed_rerun_leaves_only_its_own_files(self, tmp_path, monkeypatch):
        # the earlier run's record would otherwise sit beside FAILED, looking current
        out = run_experiment(parse_config(SMALL), out_dir=tmp_path / "run", dump_network=True).directory
        (out / "notes.txt").write_text("mine\n")
        monkeypatch.setattr(harness.RoundOptimizer, "solve", lambda self, t: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_experiment(parse_config(SMALL), out_dir=out)
        assert sorted(path.name for path in out.iterdir()) == ["FAILED", "notes.txt"]
        assert (out / "notes.txt").read_text() == "mine\n"

    def test_success_removes_an_earlier_failure_marker(self, tmp_path, monkeypatch):
        cfg = parse_config(SMALL)
        with monkeypatch.context() as mp:
            mp.setattr(harness.RoundOptimizer, "solve", lambda self, t: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                run_experiment(cfg, out_dir=tmp_path / "run")
        assert (tmp_path / "run" / "FAILED").exists()
        run_experiment(cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run" / "FAILED").exists()

    def test_each_round_is_built_once(self, tmp_path, monkeypatch):
        # the run folds the mixing products as it goes; check_mixing builds nothing
        built = []

        def counted(n, horizon, edge_prob, seed):
            sched = random_connected_schedule(n, horizon, edge_prob, seed)
            return GraphSchedule(n, horizon, lambda t: built.append(t) or sched.matrix(t), sched.zeta)

        monkeypatch.setattr(harness, "random_connected_schedule", counted)
        result = run_experiment(parse_config(SMALL), out_dir=tmp_path / "run")
        assert built == list(range(1, 7))
        assert result.mixing.ok

    def test_mixing_drift_fails_after_the_writers(self, tmp_path, monkeypatch):
        # rows still sum to 1, so the run steps; column 0 sums to 1 + 3e-6
        def drifting(n, horizon, edge_prob, seed):
            w = np.full((n, n), 1.0 / n)
            w[:, 0] += 1e-6
            w[:, 1] -= 1e-6
            return constant_schedule(WeightMatrix(w), horizon)

        monkeypatch.setattr(harness, "random_connected_schedule", drifting)
        with pytest.raises(RuntimeError, match="transition product lost double stochasticity"):
            run_experiment(parse_config(SMALL), out_dir=tmp_path / "run")
        written = {path.name for path in (tmp_path / "run").iterdir()}
        assert written == {"stream.csv", "trajectory.csv", "diagnostics.csv", "regret.csv", "envelopes.csv",
                           "envelopes.gp", "FAILED"}

    @pytest.mark.parametrize("axis", [1, 0])
    def test_vacuous_mixing_drift_fails_after_the_writers(self, tmp_path, monkeypatch, axis):
        # at n = 12 the bound is about 0.993 against 11/12, so the run keeps
        # no product (at SMALL's n = 3 it is about 0.64 against 2/3); column 0
        # (axis 1) or row 0 (axis 0) sums to 1 + 1.2e-5, and the run steps
        def drifting(n, horizon, edge_prob, seed):
            w = np.full((n, n), 1.0 / n)
            np.moveaxis(w, axis, 0)[0] += 1e-6
            np.moveaxis(w, axis, 0)[1] -= 1e-6
            return constant_schedule(WeightMatrix(w), horizon)

        folds = []

        def checked(fold, zeta):
            folds.append(fold)
            return check_mixing(fold, zeta)

        monkeypatch.setattr(harness, "random_connected_schedule", drifting)
        monkeypatch.setattr(harness, "check_mixing", checked)
        with pytest.raises(RuntimeError, match="transition product lost double stochasticity"):
            run_experiment(parse_config(SMALL.replace("problem.n = 3", "problem.n = 12")), out_dir=tmp_path / "run")
        assert [fold.product for fold in folds] == [False]
        written = {path.name for path in (tmp_path / "run").iterdir()}
        assert written == {"stream.csv", "trajectory.csv", "diagnostics.csv", "regret.csv", "envelopes.csv",
                           "envelopes.gp", "FAILED"}

    def test_capped_pairwise_solve_falls_back(self, tmp_path, monkeypatch):
        # n < d leaves H singular up to the ridge: the pairwise solve stops at
        # its cap (PAIRWISE_MAX_ITER, 2 * 10**4; 2000 here), and the active-set solve goes on
        text = "problem.n = 2\nproblem.d = 6\nproblem.T = 4\n"
        monkeypatch.setattr(regret, "PAIRWISE_MAX_ITER", 2000)
        result = run_experiment(parse_config(text), out_dir=tmp_path / "run")
        assert result.regret.cumulative.min() >= 0
        assert not (tmp_path / "run" / "FAILED").exists()

    def test_solver_certificate_is_reported(self, tmp_path):
        cfg = parse_config(SMALL)
        result = run_experiment(cfg, out_dir=tmp_path / "run")
        prob = cfg.problem
        stream = generate_stream(prob.n, prob.T, prob.lambda1, prob.spec(), seed=cfg.seeds.seed("stream"))
        solver = RoundOptimizer(stream, tol=cfg.solver.tolerance)
        records = [solver.solve(t) for t in range(1, prob.T + 1)]
        assert list(map(record_bits, result.optima)) == list(map(record_bits, records))
        entries = dict(line.split(" = ") for line in (tmp_path / "run" / "bound.txt").read_text().splitlines())
        assert int(entries["solver_iterations"]) == sum(rec.iterations for rec in records) > 0
        assert float(entries["max_solver_gap"]) == max(rec.gap for rec in records)
        assert float(entries["solver_margin"]) == min(rec.tol - rec.gap for rec in records) > 0

    def test_large_radius_certifies_at_its_gap_floor(self, tmp_path):
        # gaps of this scale round at about 1e-8, above the 1e-9 tolerance: each
        # round certifies below its rounding floor instead of failing
        text = "problem.constraint = l1ball\nproblem.radius = 1e3\nproblem.d = 8\nproblem.n = 20\nproblem.T = 3\n"
        result = run_experiment(parse_config(text), out_dir=tmp_path / "run")
        assert max(rec.gap for rec in result.optima) > 1e-9
        assert min(rec.tol - rec.gap for rec in result.optima) >= 0
        assert not (tmp_path / "run" / "FAILED").exists()

    def test_large_rho_bound_runs_to_the_end(self, tmp_path):
        # 1 - exp(-1/rho) loses about log10(rho) of its digits and is 0 past 1.8e16
        result = run_experiment(parse_config("problem.T = 3\nschedule.rho = 1e16"), out_dir=tmp_path / "run")
        assert result.bound.e2 == 2 * 20 * 1.0e16
        assert "e2 = 4e+17\n" in (tmp_path / "run" / "bound.txt").read_text()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config(SMALL)
        a = run_experiment(cfg, out_dir=tmp_path / "a").directory
        b = run_experiment(cfg, out_dir=tmp_path / "b").directory
        for name in ("regret.csv", "trajectory.csv", "envelopes.csv", "stream.csv", "diagnostics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_replay_bit_identical(self, tmp_path):
        cfg = parse_config(SMALL)
        first = run_experiment(cfg, out_dir=tmp_path / "first").directory
        replay_cfg = parse_config((first / "manifest.txt").read_text())
        assert replay_cfg == cfg
        second = run_experiment(replay_cfg, out_dir=tmp_path / "second").directory
        for name in ("regret.csv", "trajectory.csv", "envelopes.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_manifest_violation_names_its_manifest_line(self, tmp_path):
        manifest = run_experiment(parse_config(SMALL), out_dir=tmp_path / "run").directory / "manifest.txt"
        lines = manifest.read_text().splitlines()
        at = lines.index("problem.d = 4")
        lines[at] = "problem.d = x"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as info:
            parse_config(manifest.read_text())
        assert info.value.violations == [(at + 1, "problem.d: cannot interpret 'x'")]

    def test_empty_output_directory_refused_before_anything_is_written(self, tmp_path, monkeypatch):
        # the working directory would take the artifacts, and the cleanup its network.csv
        monkeypatch.chdir(tmp_path)
        Path("network.csv").write_text("mine\n")
        cfg = parse_config(SMALL)
        with pytest.raises(ValueError, match="^the output directory must be non-empty$"):
            run_experiment(cfg, out_dir="")
        with pytest.raises(ValueError, match=r"^output\.directory: value  out of range \(must be non-empty\)$"):
            run_experiment(replace(cfg, output=harness.OutputBlock(directory="")), out_dir=None)
        assert [path.name for path in tmp_path.iterdir()] == ["network.csv"]
        assert Path("network.csv").read_text() == "mine\n"

    def test_unreplayable_directory_refused_before_anything_is_written(self, tmp_path, monkeypatch):
        # parse_config cuts the echoed line at '#', so the manifest would name runs/
        monkeypatch.chdir(tmp_path)
        cfg = lambda: replace(parse_config(SMALL), output=harness.OutputBlock(directory="runs/#1"))
        refused = "^output.directory: 'runs/#1' would not read back from its config line "
        for out_dir in (None, "elsewhere"):
            with pytest.raises(ValueError, match=refused):
                run_experiment(cfg(), out_dir=out_dir)
            with pytest.raises(ValueError, match=refused):
                sweep(cfg(), "gamma", ["0.4"], out_dir=out_dir)
        assert list(tmp_path.iterdir()) == []

    def test_bound_report_prints_the_shifted_mixing_margin(self, tmp_path):
        result = run_experiment(parse_config(SMALL), out_dir=tmp_path / "run")
        assert result.mixing.shifted_margin is not None   # the first round takes 5 steps
        entries = dict(line.split(" = ") for line in (tmp_path / "run" / "bound.txt").read_text().splitlines())
        assert entries["mixing_shifted_margin"] == repr(result.mixing.shifted_margin)
        keys = list(entries)
        assert keys.index("mixing_shifted_margin") == keys.index("mixing_margin") + 1

    @pytest.mark.parametrize("n, vacuous", [(3, False), (12, True)])
    def test_bound_report_states_the_trivial_mixing_bound(self, tmp_path, n, vacuous):
        # a vacuous run computes no deviation or margins, so it writes none
        result = run_experiment(parse_config(SMALL.replace("problem.n = 3", f"problem.n = {n}")), out_dir=tmp_path)
        assert result.mixing.vacuous is vacuous is not result.trajectory.mixing.product
        keys = [line.split(" = ")[0] for line in (tmp_path / "bound.txt").read_text().splitlines()]
        entries = dict(line.split(" = ") for line in (tmp_path / "bound.txt").read_text().splitlines())
        assert entries["mixing_trivial_bound"] == repr(1 - 1 / n)
        assert entries["mixing_bound"] == repr(result.mixing.bound)
        assert entries["mixing_holds"] == "True"
        mixing_keys = [key for key in keys if key.startswith("mixing_")]
        assert mixing_keys == (["mixing_bound", "mixing_trivial_bound", "mixing_holds"] if vacuous else
                               ["mixing_deviation", "mixing_bound", "mixing_trivial_bound", "mixing_margin",
                                "mixing_shifted_margin", "mixing_holds"])

    @pytest.mark.parametrize("deviation", [0.5, 1.5])
    @pytest.mark.parametrize("shifted_margin", [-0.25, 0.0, None])   # None: a one-step first round
    def test_mixing_holds_when_both_margins_do(self, tmp_path, deviation, shifted_margin):
        result = run_experiment(parse_config("problem.n = 2\nproblem.T = 2\nproblem.d = 2"), out_dir=tmp_path)
        mixing = MixingReport(deviation=deviation, bound=1.0, shifted_margin=shifted_margin, n=2)
        entries = dict(line.split(" = ") for line in replace(result, mixing=mixing).bound_text().splitlines())
        margins = [mixing.margin] + ([] if shifted_margin is None else [shifted_margin])
        assert entries["mixing_holds"] == repr(min(margins) >= 0)
        assert entries.get("mixing_shifted_margin") == (None if shifted_margin is None else repr(shifted_margin))

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


class TestOneRoundInMemory:
    """Each loop over rounds holds one round's n x n arrays at a time."""

    @pytest.fixture(scope="class")
    def wide(self):
        cfg = parse_config(WIDE)
        p = cfg.problem
        stream = generate_stream(p.n, p.T, p.lambda1, p.spec(), seed=cfg.seeds.seed("stream"))
        schedule = random_connected_schedule(p.n, p.T, cfg.network.edge_prob, seed=cfg.seeds.seed("network"))
        trajectory = run(stream, schedule, cfg.schedule)
        solver = RoundOptimizer(stream)
        optima = [solver.solve(t) for t in range(1, p.T + 1)]
        return cfg, stream, schedule, trajectory, optima

    @pytest.mark.parametrize("stage", ["run", "regret_series", "write_schedule_csv"])
    def test_peak_holds_one_round(self, wide, stage, tmp_path):
        # a round's weights, or its build with the boolean masks, or one (n, n)
        # residual reads at most about 1.3 n x n; an earlier round's matrix
        # still held beside them reads 2.4 or more
        cfg, stream, schedule, trajectory, optima = wide
        call = {"run": lambda: run(stream, schedule, cfg.schedule),
                "regret_series": lambda: regret_series(trajectory, optima, stream),
                "write_schedule_csv": lambda: write_schedule_csv(schedule, tmp_path / "network.csv")}[stage]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * stream.n ** 2 * 8


def small_run(n, T, d, ball, redraw, seed):
    """A small run's stream, schedule, trajectory, regret series and envelopes, all drawn from ``seed``."""
    spec = ConstraintSpec.l1_ball(d) if ball else ConstraintSpec.simplex(d)
    stream = generate_stream(n, T, 1e-4, spec, seed=seed, redraw_features=redraw)
    schedule = random_connected_schedule(n, T, 0.4, seed=seed + 1)
    trajectory = run(stream, schedule, ScheduleParams(), init="random", init_seed=seed + 2)
    solver = RoundOptimizer(stream)
    series = regret_series(trajectory, [solver.solve(t) for t in range(1, T + 1)], stream)
    return stream, schedule, trajectory, series, envelopes(series)


def written(writer, result, name):
    """``writer``'s file of ``result`` read back as text: its header cells and its rows of cells."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        writer(result, path)
        header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


def float_bits(cells) -> bytes:
    """The float64 bytes of number cells (a list, or a list of rows), each parsed by ``float``; signed zeros kept."""
    return np.array([[float(c) for c in row] if isinstance(row, list) else float(row) for row in cells]).tobytes()


def record_bits(rec):
    """An optimum record's fields, its point as bytes and its floats as hex: equal when the records are bit for bit."""
    return rec.t, rec.x_star.tobytes(), float.hex(rec.f_star), float.hex(rec.gap), float.hex(rec.tol), rec.iterations


# small runs on both sets, with fixed and redrawn features
SMALL_RUNS = dict(n=st.integers(2, 4), T=st.integers(1, 4), d=st.integers(1, 4), ball=st.booleans(),
                  redraw=st.booleans(), seed=st.integers(0, 2 ** 32))


class TestRunFilesReadBack:
    """Each CSV the harness writes, parsed as text, gives back bit for bit the
    arrays it was written from (``stream.csv``: ``TestStreamCsv`` in
    ``test_problem.py``)."""

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(**SMALL_RUNS)
    def test_trajectory_csv(self, n, T, d, ball, redraw, seed):
        trajectory = small_run(n, T, d, ball, redraw, seed)[2]
        header, rows = written(write_trajectory_csv, trajectory, "trajectory.csv")
        assert header == ["t", "agent"] + [f"x_{j + 1}" for j in range(d)]
        assert [(int(row[0]), int(row[1])) for row in rows] == [(t, i) for t in range(1, T + 2) for i in range(n)]
        assert float_bits([row[2:] for row in rows]) == trajectory.decisions.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(**SMALL_RUNS)
    def test_diagnostics_csv(self, n, T, d, ball, redraw, seed):
        trajectory = small_run(n, T, d, ball, redraw, seed)[2]
        header, rows = written(write_diagnostics_csv, trajectory, "diagnostics.csv")
        assert header == ["t", "K_t", "alpha_t", "consistency_error", "tracking_residual",
                          "lo_calls_cumulative", "messages_cumulative"]
        assert len(rows) == len(trajectory.rounds) == T
        lo_calls = messages = 0
        for row, r in zip(rows, trajectory.rounds):
            lo_calls += r.lo_calls
            messages += r.messages
            assert [int(row[0]), int(row[1]), int(row[5]), int(row[6])] == [r.t, r.inner_count, lo_calls, messages]
            assert float_bits(row[2:5]) == np.array([r.alpha, r.consistency_error, r.tracking_residual]).tobytes()
        assert (lo_calls, messages) == (trajectory.lo_calls, trajectory.messages)

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(**SMALL_RUNS)
    def test_regret_csv(self, n, T, d, ball, redraw, seed):
        series = small_run(n, T, d, ball, redraw, seed)[3]
        header, rows = written(write_regret_csv, series, "regret.csv")
        assert header == ["t", "agent", "cumulative_regret", "average_regret"]
        assert [(int(row[0]), int(row[1])) for row in rows] == [(t, j) for t in range(1, T + 1) for j in range(n)]
        # rows run over the agents within a round, the arrays' columns are the rounds
        assert float_bits([row[2] for row in rows]) == series.cumulative.T.tobytes()
        assert float_bits([row[3] for row in rows]) == series.average.T.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(**SMALL_RUNS)
    def test_envelopes_csv(self, n, T, d, ball, redraw, seed):
        env = small_run(n, T, d, ball, redraw, seed)[4]
        header, rows = written(write_envelopes_csv, env, "envelopes.csv")
        assert header == ["t", "avg", "sup", "inf"]
        assert [int(row[0]) for row in rows] == list(range(1, T + 1))
        for column, values in enumerate((env.avg, env.sup, env.inf), start=1):
            assert float_bits([row[column] for row in rows]) == values.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(**SMALL_RUNS)
    def test_network_csv(self, n, T, d, ball, redraw, seed):
        schedule = small_run(n, T, d, ball, redraw, seed)[1]
        header, rows = written(write_schedule_csv, schedule, "network.csv")
        assert header == ["round", "i", "j", "weight"]
        want_cells, want_weights = [], []
        for t in range(1, T + 1):   # each round's nonzero weights in row-major order
            a = schedule.matrix(t).weights
            ii, jj = np.nonzero(a)
            want_cells += [(t, i, j) for i, j in zip(ii.tolist(), jj.tolist())]
            want_weights.append(a[ii, jj])
        assert [(int(row[0]), int(row[1]), int(row[2])) for row in rows] == want_cells
        assert float_bits([row[3] for row in rows]) == np.concatenate(want_weights).tobytes()


class TestBoundTxt:
    """``bound.txt``'s per-round summaries, parsed as text, are the ``repr``
    of the sum or extreme over the records the result holds, and those
    records are the round optima a fresh solver certifies, bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(**SMALL_RUNS)
    def test_summaries_equal_their_records(self, n, T, d, ball, redraw, seed):
        cfg = parse_config(f"problem.n = {n}\nproblem.T = {T}\nproblem.d = {d}\nseeds.master = {seed}\n"
                           f"problem.constraint = {'l1ball' if ball else 'simplex'}\n"
                           f"problem.redraw_features = {str(redraw).lower()}\n")
        with tempfile.TemporaryDirectory() as tmp:
            result = run_experiment(cfg, out_dir=tmp)
            lines = (Path(tmp) / "bound.txt").read_text().splitlines()
        entries = dict(line.split(" = ") for line in lines)
        optima, rounds = result.optima, result.trajectory.rounds
        assert [rec.t for rec in optima] == [r.t for r in rounds] == list(range(1, T + 1))
        assert entries["solver_iterations"] == repr(sum(rec.iterations for rec in optima))
        assert entries["max_solver_gap"] == repr(max(rec.gap for rec in optima))
        assert entries["solver_margin"] == repr(min(rec.tol - rec.gap for rec in optima))
        assert entries["lo_calls"] == repr(sum(r.lo_calls for r in rounds))
        assert entries["messages"] == repr(sum(r.messages for r in rounds))
        assert entries["max_conservation_gap"] == repr(max(r.conservation_gap for r in rounds))
        assert entries["max_feasibility_gap"] == repr(max(r.feasibility_gap for r in rounds))
        prob = cfg.problem
        stream = generate_stream(prob.n, prob.T, prob.lambda1, prob.spec(), seed=cfg.seeds.seed("stream"),
                                 redraw_features=prob.redraw_features)
        solver = RoundOptimizer(stream, tol=cfg.solver.tolerance)
        assert list(map(record_bits, optima)) == [record_bits(solver.solve(t)) for t in range(1, T + 1)]


class TestBenchmarkDigests:
    """The benchmark's output check in tier-1: each workload's seed-0 operation
    writes the ``trajectory.csv`` and ``regret.csv`` bytes recorded in
    ``perfbench/digests.json``. The bytes depend on the BLAS build."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_seed_zero_outputs_match_the_recorded_digests(self, name, tmp_path):
        workload = WORKLOADS[name]
        config = parse_config(workload.config_text(0))
        if workload.sweep_values:
            assert all(row.ok for row in sweep(config, "gamma", workload.sweep_values, out_dir=tmp_path))
        else:
            run_experiment(config, out_dir=tmp_path)
        got = {run_dir: {file: hashlib.sha256((tmp_path / run_dir / file).read_bytes()).hexdigest()
                         for file in ("trajectory.csv", "regret.csv")}
               for run_dir in workload.run_dirs()}
        assert got == BENCH_DIGESTS[name][str(workload.master_seed(0))], kernel_note()


class TestLeftToRightSums:
    """A run's bytes do not depend on how the interpreter's builtin ``sum``
    adds floats: with ``sum`` in every ``domfw`` module shadowed by the
    compensated rule of Python 3.12 on, each workload's seed-0 outputs equal
    an unshadowed run's in the same process, on whatever BLAS kernel it runs."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_compensated_builtin_sum_moves_no_byte(self, name, tmp_path, monkeypatch):
        workload = WORKLOADS[name]

        def outputs(out_dir):
            config = parse_config(workload.config_text(0))
            if workload.sweep_values:
                assert all(row.ok for row in sweep(config, "gamma", workload.sweep_values, out_dir=out_dir))
            else:
                run_experiment(config, out_dir=out_dir)
            return {f"{run_dir}/{file}": (out_dir / run_dir / file).read_bytes() for run_dir in workload.run_dirs()
                    for file in ("trajectory.csv", "diagnostics.csv", "regret.csv", "envelopes.csv", "bound.txt")}

        plain = outputs(tmp_path / "plain")
        shadow_sum(monkeypatch, neumaier_sum)
        compensated = outputs(tmp_path / "compensated")
        assert [file for file in plain if compensated[file] != plain[file]] == []


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
        for row in rows:
            params = ScheduleParams(ScheduleMode.PER_ROUND, epsilon=2, gamma=row.value, rho=3)
            assert row.lo_calls == lo_call_count(params, 4, n=3)

    def test_rejected_value_is_a_failed_row(self, tmp_path):
        rows = sweep(parse_config(SMALL), "gamma", ["0.5", "1.5"], out_dir=tmp_path / "sweep")
        assert [row.ok for row in rows] == [True, False]
        assert rows[1].error.startswith("ValueError: schedule.gamma: ")
        with (tmp_path / "sweep" / "sweep.csv").open(newline="") as fh:
            table = list(csv.reader(fh))
        assert table[1][0] == "0.5" and table[1][-1] == "ok"
        assert table[2][:4] == ["1.5", "", "", ""] and table[2][4] == rows[1].error

    @pytest.mark.parametrize("axis, values, bad", [("gamma", ["0.5", "abc"], "abc"),
                                                   ("n", ["3", "2.5"], "2.5"),
                                                   ("mode", ["horizon", "weekly"], "weekly")])
    def test_unconvertible_value_fails_before_any_run(self, tmp_path, monkeypatch, axis, values, bad):
        ran = []
        monkeypatch.setattr(harness, "run_experiment", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(ValueError, match=f"^sweep axis {axis}: cannot interpret '{bad}'$"):
            sweep(parse_config(SMALL), axis, values, out_dir=tmp_path / "sweep")
        assert ran == []
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("axis, values, repeated, earlier", [("gamma", ["0.5", "0.50", ".5"], "0.50", "0.5"),
                                                                 ("n", ["3", "4", "03"], "03", "3"),
                                                                 ("mode", ["horizon", "fixed", "horizon"],
                                                                  "horizon", "horizon")])
    def test_repeated_value_fails_before_any_run(self, tmp_path, monkeypatch, axis, values, repeated, earlier):
        ran = []
        monkeypatch.setattr(harness, "run_experiment", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(ValueError, match=f"^sweep axis {axis}: value '{repeated}' repeats '{earlier}'$"):
            sweep(parse_config(SMALL), axis, values, out_dir=tmp_path / "sweep")
        assert ran == []
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("axis, values, refused", [
        ("T", ["3", "0", "1000001", str(10 ** 10)], ["problem.T: value 0 out of range",
                                                     "problem.T: value 1000001 out of range",
                                                     f"problem.T: value {10 ** 10} out of range"]),
        ("n", ["3", "1", str(10 ** 9)], ["problem.n: value 1 out of range",
                                         "problem.n: a run needs an estimated 8.94e+10 GiB"]),
    ])
    def test_value_validate_refuses_is_a_failed_row(self, tmp_path, monkeypatch, axis, values, refused):
        ran = []

        def stub(cfg, **kwargs):
            ran.append(getattr(cfg.problem, axis))
            raise RuntimeError("stub")

        monkeypatch.setattr(harness, "run_experiment", stub)
        rows = sweep(parse_config(SMALL), axis, values, out_dir=tmp_path / "sweep")
        assert ran == [3]
        assert rows[0].error == "RuntimeError: stub"
        for row, message in zip(rows[1:], refused, strict=True):
            assert row.error.startswith(f"ValueError: {message}")

    @pytest.mark.parametrize("axis, value, message", [
        ("gamma", "1.5", "schedule.gamma: per-round schedule requires 0 < gamma < 1, got 1.5"),
        ("rho", "0.5", "schedule.rho: must be finite and >= 1, got 0.5"),
    ])
    def test_refused_schedule_value_names_its_config_key(self, tmp_path, monkeypatch, axis, value, message):
        ran = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kwargs: ran.append(cfg))
        rows = sweep(parse_config(SMALL), axis, [value], out_dir=tmp_path / "sweep")
        assert ran == []
        assert rows[0].error == f"ValueError: {message}"

    def test_an_int_no_config_line_holds_fails_before_any_run(self, tmp_path, monkeypatch):
        # no sweep.csv cell or run directory name can write it
        ran = []
        monkeypatch.setattr(harness, "run_experiment", lambda *args, **kwargs: ran.append(args))
        digits = sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match=f"^sweep axis T: cannot interpret an int of over {digits} digits$"):
            sweep(parse_config(SMALL), "T", [3, 10 ** 5000], out_dir=tmp_path / "sweep")
        assert ran == []
        assert not (tmp_path / "sweep").exists()

    def test_each_value_is_judged_once(self, tmp_path, monkeypatch):
        # the config gate is the one check of a swept value, whether it is refused or runs
        cfg, checked, check = parse_config(SMALL), [], harness._check
        monkeypatch.setattr(harness, "_check", lambda values: checked.append(values) or check(values))
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kwargs: 1 / 0)
        rows = sweep(cfg, "T", ["3", "0", "1000001"], out_dir=tmp_path / "sweep")
        assert [row.error.split(":")[0] for row in rows] == ["ZeroDivisionError", "ValueError", "ValueError"]
        assert [values["problem.T"] for values in checked] == [3, 0, 1000001]

    def test_values_are_checked_without_parsing_text(self, tmp_path, monkeypatch):
        parsed, ran = [], []
        monkeypatch.setattr(harness, "parse_config", lambda text: parsed.append(text))
        monkeypatch.setattr(harness, "run_experiment", lambda cfg, **kwargs: ran.append(cfg) or 1 / 0)
        rows = sweep(parse_config(SMALL), "epsilon", ["nan", "inf", "2"], out_dir=tmp_path / "sweep")
        assert parsed == []
        assert [row.error for row in rows] == ["ValueError: schedule.epsilon: must be finite and > 0, got nan",
                                               "ValueError: schedule.epsilon: must be finite and > 0, got inf",
                                               "ZeroDivisionError: division by zero"]
        assert [cfg.schedule.epsilon for cfg in ran] == [2.0]

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

    def test_failed_value_rerun_leaves_only_its_own_files(self, tmp_path, monkeypatch):
        cfg = parse_config(SMALL)
        sweep(cfg, "gamma", [0.3, 0.5], out_dir=tmp_path / "sweep")
        run_dir = tmp_path / "sweep" / "run_gamma=0.5"
        (run_dir / "notes.txt").write_text("mine\n")
        monkeypatch.setattr(harness.RoundOptimizer, "solve", lambda self, t: 1 / 0)
        row, = sweep(cfg, "gamma", [0.5], out_dir=tmp_path / "sweep")
        assert not row.ok
        assert sorted(path.name for path in run_dir.iterdir()) == ["FAILED", "notes.txt"]
        assert (run_dir / "notes.txt").read_text() == "mine\n"

    @pytest.mark.parametrize("notes", [False, True], ids=["run-files-only", "with-notes"])
    def test_rerun_clears_an_earlier_sweeps_run_directories(self, tmp_path, notes):
        cfg = parse_config(SMALL)
        out = tmp_path / "sweep"
        sweep(cfg, "gamma", [0.3, 0.5], out_dir=out)
        stale = out / "run_gamma=0.3"
        # run directories of sweeps over other axes, and ones no sweep writes
        for name in ("run_n=4", "run_T=5", "run_lambda1=2", "gamma=0.3"):
            (out / name).mkdir()
            for file in ("manifest.txt", "regret.csv"):
                (out / name / file).write_text("old\n")
        if notes:
            for directory in (stale, out / "run_n=4"):
                (directory / "notes.txt").write_text("mine\n")
        sweep(cfg, "gamma", [0.5], out_dir=out)
        kept = ["run_n=4", "run_gamma=0.3"] if notes else []
        assert sorted(path.name for path in out.iterdir()) == sorted(
            ["gamma=0.3", "run_gamma=0.5", "run_lambda1=2", "sweep.csv", *kept])
        for name in kept:
            assert [path.name for path in (out / name).iterdir()] == ["notes.txt"]
            assert (out / name / "notes.txt").read_text() == "mine\n"
        for name in ("run_lambda1=2", "gamma=0.3"):
            assert sorted(path.name for path in (out / name).iterdir()) == ["manifest.txt", "regret.csv"]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep(parse_config(""), "lambda1", [1])

    def test_empty_value_list_fails_before_anything_is_written(self, tmp_path):
        with pytest.raises(ValueError, match="^sweep axis gamma: no values given$"):
            sweep(parse_config(SMALL), "gamma", [], out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()


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

    @pytest.mark.parametrize("pairs", [[(10, 5), (100, math.nan), (1000, 50)],
                                       [(10, 5), (100, math.inf), (1000, 50)],
                                       [(10, 5), (math.nan, 20), (1000, 50)],
                                       [(10, 5), (100, 20), (math.inf, 50)]])
    def test_non_finite_points_rejected(self, pairs):
        with pytest.raises(ValueError, match=r"^log-log fit requires finite positive values$"):
            fit_loglog_slope(pairs)


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

    @pytest.mark.parametrize("text", ["seeds.stream = -1", "seeds.init = -1", "seeds.network = -1",
                                      *[f"{key} = {raw}" for key in FLOAT_KEYS for raw in ("inf", "nan")]])
    def test_validate_rejects_what_run_cannot_run(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"problem.T = 5\n{text}\n")
        assert main(["validate", str(cfgfile)]) == 1
        assert f"line 2: {text.split(' = ')[0]}: " in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("schedule.epsilon = 1e300\nschedule.rho = 1e150", 3),   # the step underflows to 0
        ("schedule.rho = 1e150\nschedule.epsilon = 1e300", 2),
        ("schedule.mode = horizon\nschedule.gamma = 1\nschedule.epsilon = 1e308", 4),   # K_T overflows
    ])
    def test_validate_rejects_a_schedule_without_a_step(self, tmp_path, capsys, text, line):
        # reported at the line of the key at fault, naming the round once
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"problem.T = 5\n{text}\n")
        assert main(["validate", str(cfgfile)]) == 1
        key = cfgfile.read_text().splitlines()[line - 1].split(" = ")[0]
        err = capsys.readouterr().err
        if key == "schedule.rho":
            assert f"line {line}: schedule.rho: no step at round 5: " in err
        else:
            assert f"line {line}: {key}: round 5: " in err
        assert err.count("round 5") == 1

    @pytest.mark.parametrize("schedule", ["", "schedule.mode = horizon\n",
                                          "schedule.mode = fixed\nschedule.fixed_count = 2\n",
                                          "schedule.mode = baseline\nschedule.baseline_alpha = 0.5\n"])
    def test_validate_bounds_the_horizon(self, tmp_path, capsys, schedule):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"problem.T = {10 ** 400}\n{schedule}")
        assert main(["validate", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert f"line 1: problem.T: value {10 ** 400} out of range (must be in 1..1000000)" in err
        assert "schedule." not in err

    def test_validate_refuses_a_fixed_count_past_the_float_range(self, tmp_path, capsys):
        # no float step for K_t = 10**400: its footprint names the key, as it does for 10**300
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"schedule.mode = fixed\nschedule.fixed_count = {10 ** 400}\n")
        assert main(["validate", str(cfgfile)]) == 1
        assert capsys.readouterr().err == ("line 2: schedule.fixed_count: a run needs an estimated more than 1e308 GiB "
                                           "resident, above the 2 GiB budget\n")

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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_run_and_sweep_describe_their_shared_options(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for text in ("override the master seed", "override the output directory", "also dump the weight schedule"):
            assert text in out

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "gamma", "--values", "0.4"]])
    def test_empty_out_dir_exits_1_and_writes_nothing(self, tmp_path, capsys, monkeypatch, command):
        # a config error, as the empty output.directory key is
        monkeypatch.chdir(tmp_path)
        Path("c.cfg").write_text(SMALL)
        Path("network.csv").write_text("mine\n")
        assert main([command[0], "c.cfg", *command[1:], "--out-dir", ""]) == 1
        assert capsys.readouterr().err == "error: --out-dir must be non-empty\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.cfg", "network.csv"]
        assert Path("network.csv").read_text() == "mine\n"

    def test_manifest_replays_its_run(self, tmp_path):
        def same_artifacts(source, replay):
            names = sorted(path.name for path in source.iterdir())
            assert names == sorted(path.name for path in replay.iterdir())
            for name in names:
                if name != "manifest.txt":
                    assert (source / name).read_bytes() == (replay / name).read_bytes(), name
            # the manifests differ at most in the wall time
            diff = set((source / "manifest.txt").read_text().splitlines()) ^ set(
                (replay / "manifest.txt").read_text().splitlines())
            assert all(line.startswith("# wall_seconds = ") for line in diff)

        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.n = 3\nproblem.T = 4\nproblem.d = 3\n")
        assert main(["run", str(cfgfile), "--seed", "7", "--dump-network", "--out-dir", str(tmp_path / "a")]) == 0
        assert (tmp_path / "a" / "network.csv").exists()
        assert main(["run", str(tmp_path / "a" / "manifest.txt"), "--dump-network",
                     "--out-dir", str(tmp_path / "b")]) == 0
        same_artifacts(tmp_path / "a", tmp_path / "b")
        # a sweep's run directory replays the same way
        assert main(["sweep", str(cfgfile), "--axis", "gamma", "--values", "0.4,0.6",
                     "--out-dir", str(tmp_path / "s")]) == 0
        assert main(["run", str(tmp_path / "s" / "run_gamma=0.6" / "manifest.txt"),
                     "--out-dir", str(tmp_path / "r")]) == 0
        same_artifacts(tmp_path / "s" / "run_gamma=0.6", tmp_path / "r")

    def test_sweep_value_validate_refuses_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.n = 2\nproblem.d = 2\n")
        rc = main(["sweep", str(cfgfile), "--axis", "T", "--values", "3,1000001", "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "value 1000001: ValueError: problem.T: value 1000001 out of range (must be in 1..1000000)\n"
        assert (tmp_path / "s" / "run_T=3" / "regret.csv").exists()

    def test_sweep_failure_prints_the_value_as_sweep_csv_does(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.n = 2\nproblem.d = 2\nproblem.T = 3\n")
        assert main(["sweep", str(cfgfile), "--axis", "mode", "--values", "fixed",
                     "--out-dir", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == "value fixed: ValueError: schedule.fixed_count: required for mode fixed\n"
        assert (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1].startswith("fixed,")

    def test_sweep_without_values_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.n = 2\nproblem.d = 2\nproblem.T = 3\n")
        assert main(["sweep", str(cfgfile), "--axis", "gamma", "--values", ",", "--out-dir", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == "error: ValueError: sweep axis gamma: no values given\n"
        assert not (tmp_path / "s").exists()

    def test_sweep_refused_schedule_value_names_its_config_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.n = 2\nproblem.d = 2\nproblem.T = 3\n")
        rc = main(["sweep", str(cfgfile), "--axis", "gamma", "--values", "0.5,1.5",
                   "--out-dir", str(tmp_path / "s")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "value 1.5: ValueError: schedule.gamma: per-round schedule requires 0 < gamma < 1, got 1.5\n"

    def test_runtime_error_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("domfw.cli.run_experiment", lambda *args, **kwargs: 1 / 0)
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.n = 2\n")
        assert main(["run", str(cfgfile)]) == 2
        assert capsys.readouterr().err == "error: ZeroDivisionError: division by zero\n"

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_undecodable_config_fails_without_a_traceback(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("c.cfg").write_bytes(b"\xff\xfeproblem.n = 3\n")
        assert main([command, "c.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "decode" in err and "Traceback" not in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.cfg"]

    def test_validate_reads_a_config_with_a_byte_order_mark(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(SMALL, encoding="utf-8")
        marked.write_text(SMALL, encoding="utf-8-sig")
        assert main(["validate", str(plain)]) == 0
        expected = capsys.readouterr()
        assert main(["validate", str(marked)]) == 0
        assert capsys.readouterr() == expected

    def test_slope_reads_a_two_column_csv_with_a_byte_order_mark(self, tmp_path, capsys):
        # the marked first row is a data point, not a header
        rows = [(10, 100), (20, 400), (40, 1600), (80, 7000)]
        csvfile = tmp_path / "counts.csv"
        csvfile.write_text("".join(f"{t},{c}\n" for t, c in rows), encoding="utf-8-sig")
        assert main(["slope", str(csvfile)]) == 0
        assert capsys.readouterr().out == f"{fit_loglog_slope(rows)!r}\n"

    def test_slope_reads_a_T_sweep_with_a_byte_order_mark(self, tmp_path, capsys):
        text = ("T,final_avg_regret,lo_calls,messages,status\n10,1.0,100,20,ok\n"
                "100,0.1,10000,300,ok\n1000,0.01,1000000,2000,ok\n")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert main(["slope", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert [line.split(" = ")[0] for line in expected.splitlines()] == ["final_avg_regret", "lo_calls", "messages"]
        assert main(["slope", str(marked)]) == 0
        assert capsys.readouterr().out == expected

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

    @pytest.mark.parametrize("rows", [["1e2,10", "1e3,100", "1e4,1000"],
                                      ["1e2,10", "1e3,100", "1e4,1000", "1e5,1e6"]])
    def test_slope_keeps_a_first_row_in_exponent_notation(self, tmp_path, capsys, rows):
        # a headerless file: every row is a data point
        csvfile = tmp_path / "counts.csv"
        csvfile.write_text("\n".join(rows) + "\n")
        assert main(["slope", str(csvfile)]) == 0
        expected = fit_loglog_slope([tuple(map(float, row.split(","))) for row in rows])
        assert float(capsys.readouterr().out.strip()) == expected

    @pytest.mark.parametrize("rows", [["10,5", "100,nan", "1000,50"], ["10,5", "100,inf", "1000,50"],
                                      ["10,5", "nan,20", "1000,50"]])
    def test_slope_rejects_non_finite_points(self, tmp_path, capsys, rows):
        csvfile = tmp_path / "counts.csv"
        csvfile.write_text("T,count\n" + "\n".join(rows) + "\n")
        assert main(["slope", str(csvfile)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: log-log fit requires finite positive values\n"

    @pytest.mark.parametrize("schedule", ["", "schedule.mode = horizon\n",
                                          "schedule.mode = fixed\nschedule.fixed_count = 3\n",
                                          "schedule.mode = baseline\n"])
    def test_validate_prints_the_runs_plan(self, tmp_path, capsys, schedule):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(SMALL + schedule)
        assert main(["validate", str(cfgfile)]) == 0
        result = run_experiment(parse_config(cfgfile.read_text()), out_dir=tmp_path / "run")
        counts = [r.inner_count for r in result.trajectory.rounds]
        assert capsys.readouterr().out.splitlines() == [
            "ok", f"inner_steps = {sum(counts)}", f"lo_calls = {result.trajectory.lo_calls}",
            f"resident_bytes = {harness.resident_bytes(3, 4, 6, max(counts), False)}"]

    def test_validate_plans_the_reference_shape(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.T = 100000\n")
        assert main(["validate", str(cfgfile)]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == ["ok", "inner_steps = 84477674", "lo_calls = 1689553480"]

    def test_slope_fits_each_column_of_a_T_sweep(self, tmp_path, capsys):
        cfg = parse_config("problem.n = 6\nproblem.d = 4\nschedule.epsilon = 2\nschedule.gamma = 0.5\n")
        rows = sweep(cfg, "T", ["20", "40", "80", "160"], out_dir=tmp_path / "s")
        assert main(["slope", str(tmp_path / "s" / "sweep.csv")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{name} = {fit_loglog_slope([(row.value, getattr(row, name)) for row in rows])!r}"
            for name in ("final_avg_regret", "lo_calls", "messages")]

    def test_slope_of_a_T_sweep_skips_failed_rows(self, tmp_path, capsys):
        csvfile = tmp_path / "sweep.csv"
        csvfile.write_text("T,final_avg_regret,lo_calls,messages,status\n10,1.0,100,20,ok\n"
                           "0,,,,ValueError: problem.T: value 0 out of range (must be in 1..1000000)\n"
                           "100,0.1,10000,200,ok\n1000,0.01,1000000,2000,ok\n")
        assert main(["slope", str(csvfile)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(" = ")[0] for line in out] == ["final_avg_regret", "lo_calls", "messages"]
        assert [float(line.split(" = ")[1]) for line in out] == pytest.approx([-1.0, 2.0, 1.0], abs=1e-12)

    @pytest.mark.parametrize("axis", sorted(set(harness._SWEEP_AXES) - {"T"}))
    def test_slope_refuses_a_sweep_over_another_axis(self, tmp_path, capsys, axis):
        csvfile = tmp_path / "sweep.csv"
        csvfile.write_text(f"{axis},final_avg_regret,lo_calls,messages,status\n3,0.5,100,20,ok\n"
                           "1,,,,ValueError: problem.n: value 1 out of range (must be >= 2)\n")
        assert main(["slope", str(csvfile)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {csvfile} is a sweep over {axis}; slope fits a T sweep\n"

    def test_slope_of_an_n_sweep_names_its_axis(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.n = 3\nproblem.d = 2\nproblem.T = 4\n")
        out_dir = tmp_path / "s"
        assert main(["sweep", str(cfgfile), "--axis", "n", "--values", "3,1", "--out-dir", str(out_dir)]) == 2
        capsys.readouterr()
        assert main(["slope", str(out_dir / "sweep.csv")]) == 2
        assert capsys.readouterr().err == f"error: {out_dir / 'sweep.csv'} is a sweep over n; slope fits a T sweep\n"

    def test_config_error_exit_code(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("problem.n = -3\n")
        assert main(["run", str(cfgfile)]) == 1
