"""The public API holds each fact once: a function that takes a stream reads
the feasible set from ``stream.constraint`` instead of taking it again. Each
operation has one implementation in the library, and README's library
example runs against it."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import domfw
import domfw.algorithm
import domfw.harness
import domfw.network
import domfw.problem
import domfw.regret
from domfw.algorithm import Trajectory
from domfw.harness import ExperimentConfig, RunResult
from domfw.network import MixingFold, MixingReport, metropolis_weights
from domfw.problem import ConstraintSpec, generate_stream
from domfw.regret import Envelopes, OptimumRecord, RegretSeries
from oracles import InnerStep, float_refusing_sum, shadow_sum

README = Path(__file__).resolve().parents[1] / "README.md"

# test-only functions, kept in tests/oracles.py and out of the library
TEST_ONLY = ("consensus_step", "tracking_step", "fw_step", "local_grads", "global_grad", "loss_eval",
             "grad_eval", "read_stream_csv", "constant_schedule", "transition_product", "fold_window", "_fold",
             "inner_steps", "InnerStep", "_round_kernel")


def public_signatures():
    """Signature of every callable ``domfw`` exports, plus the methods and
    constructors of the exported classes."""
    for name, obj in vars(domfw).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        yield name, inspect.signature(obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", inspect.signature(member)


def test_no_signature_takes_both_a_stream_and_a_set():
    signatures = dict(public_signatures())
    assert {"run", "run_round", "RoundOptimizer", "RoundOptimizer.__init__",
            "regret_upper_bound", "problem_constants", "generate_stream"} <= set(signatures)
    both = [name for name, sig in signatures.items() if {"stream", "spec"} <= set(sig.parameters)]
    assert both == []


def test_generate_stream_takes_the_dimension_from_the_set():
    assert "d" not in inspect.signature(domfw.generate_stream).parameters


def test_checked_twins_stay_in_the_tests():
    for module in (domfw, domfw.algorithm, domfw.problem, domfw.network):
        assert [name for name in TEST_ONLY if hasattr(module, name)] == [], module.__name__
    assert not hasattr(domfw.LossStream, "_check_agent")


# the file each CSV of a run is written by, all in domfw.harness
CSV_WRITERS = {"stream.csv": "write_stream_csv", "network.csv": "write_schedule_csv",
               "trajectory.csv": "write_trajectory_csv", "diagnostics.csv": "write_diagnostics_csv",
               "regret.csv": "write_regret_csv", "envelopes.csv": "write_envelopes_csv"}


@pytest.mark.parametrize("module", [domfw.problem, domfw.network, domfw.algorithm, domfw.regret],
                         ids=lambda module: module.__name__)
def test_computing_layers_do_no_file_io(module):
    writers = [name for name, obj in vars(module).items() if name.startswith("write_") and inspect.isfunction(obj)]
    assert not hasattr(module, "Path") and writers == []
    assert not re.search(r"\bopen\(|pathlib|\.write_(text|bytes)\(", inspect.getsource(module))


# the one import kept for its side effect: problem.py loads numpy.random with the package
SIDE_EFFECT_IMPORTS = {("problem.py", "numpy.random")}


@pytest.mark.parametrize("path", sorted(Path(domfw.__file__).parent.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    # a name a module imports and never reads is a dead dependency; the
    # package's __init__ reads its imports by exporting them
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name.split(".")[0], alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(alias.asname or alias.name, alias.name) for alias in node.names]
        else:
            continue
        for name, imported in bound:
            exported = path.name == "__init__.py" and not name.startswith("_")
            if name not in read and not exported and (path.name, imported) not in SIDE_EFFECT_IMPORTS:
                unused.append(name)
    assert unused == []


def test_harness_defines_one_writer_for_each_run_csv():
    assert sorted(CSV_WRITERS) == sorted(name for name in domfw.harness.RUN_FILES if name.endswith(".csv"))
    defined = sorted(name for name, obj in vars(domfw.harness).items()
                     if name.startswith("write_") and inspect.isfunction(obj) and obj.__module__ == "domfw.harness")
    assert defined == sorted(CSV_WRITERS.values())


def test_check_mixing_takes_a_fold_and_zeta_only():
    assert list(inspect.signature(domfw.check_mixing).parameters) == ["fold", "zeta"]
    assert list(inspect.signature(domfw.MixingFold).parameters) == ["n", "product"]


def test_round_and_bound_take_no_schedule_or_counts():
    # both read the horizon from the stream: no caller-supplied schedule or count list
    assert list(inspect.signature(domfw.run_round).parameters) == ["xs", "stream", "wm", "params", "t"]
    assert list(inspect.signature(domfw.regret_upper_bound).parameters) == [
        "constants", "zeta", "params", "stream", "x_init"]


def test_round_optimizer_takes_no_iteration_cap():
    # the pairwise cap is the module constant regret.PAIRWISE_MAX_ITER
    assert list(inspect.signature(domfw.RoundOptimizer).parameters) == ["stream", "tol"]


def test_regret_series_takes_no_tolerance():
    # each round's slack starts from the bound its optimum record is certified below
    assert list(inspect.signature(domfw.regret_series).parameters) == ["trajectory", "optima", "stream"]


def array_holders():
    """A fresh instance of every result type that holds arrays, by name."""
    trajectory = lambda: Trajectory(decisions=np.zeros((3, 2, 3)), rounds=(), mixing=MixingFold(2))
    stream = lambda: generate_stream(3, 4, 5e-6, ConstraintSpec.simplex(3), seed=1)
    run = lambda: domfw.run(stream(), domfw.random_connected_schedule(3, 4, 0.5, seed=2), domfw.ScheduleParams())
    envelopes = lambda: Envelopes(avg=np.zeros(3), sup=np.ones(3), inf=np.zeros(3))
    optimum = lambda: OptimumRecord(t=1, x_star=np.full(3, 1 / 3), f_star=0.5, gap=0.0, iterations=2, tol=1e-9)
    return {
        "LossStream": stream,
        "WeightMatrix": lambda: metropolis_weights([(0, 1), (1, 2)], 3),
        "Trajectory": trajectory,
        "Trajectory of a run": run,
        "OptimumRecord": optimum,
        "RegretSeries": lambda: RegretSeries(cumulative=np.zeros((2, 3))),
        "Envelopes": envelopes,
        "RunResult": lambda: RunResult(
            directory=Path("out"), config=ExperimentConfig(), trajectory=trajectory(),
            regret=RegretSeries(cumulative=np.zeros((2, 3))), envelopes=envelopes(), ht_estimate=1.0,
            ht_upper_bound=None, bound=None, mixing=MixingReport(0.0, 1.0, None, 2), optima=(optimum(),),
            wall_seconds=0.1),
        "InnerStep": lambda: InnerStep(*(np.zeros((2, 3)) for _ in range(7))),
    }


@pytest.mark.parametrize("name", sorted(array_holders()))
def test_array_holders_compare_and_hash_by_identity(name):
    # a comparison of their fields would ask an array for its truth value,
    # and a hash of them would hash an array; both raise
    make = array_holders()[name]
    a, b = make(), make()
    assert a == a and not a == b
    assert a != b and not a != a
    assert a in [b, a] and a not in [b]
    assert hash(a) == hash(a) and len({a, b}) == 2


def arrays_held(value):
    """Every array ``value`` holds: itself, or through tuples and the
    attributes of ``domfw`` objects, such as a trajectory's mixing fold."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays_held(item)
    elif type(value).__module__.startswith("domfw.") and hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from arrays_held(item)


@pytest.mark.parametrize("name", sorted(set(array_holders()) - {"InnerStep"}))
def test_array_holders_hold_their_arrays_read_only(name):
    # a caller handed a result cannot edit what it records in place
    arrays = list(arrays_held(array_holders()[name]()))
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_readme_library_example_runs(capsys):
    block, = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    regret, lo_calls, messages, mixed = capsys.readouterr().out.split()
    assert float(regret) >= 0 and int(lo_calls) > 0 and int(messages) > 0
    assert mixed == "True"


def test_readme_config_block_parses_and_names_every_key():
    # each key once, commented-out lines included, in schema order
    block, = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.DOTALL)
    domfw.harness.parse_config(block)
    named = re.findall(r"^#? *([a-z]+\.\w+) *=", block, flags=re.MULTILINE)
    assert named == list(domfw.harness._SCHEMA)


# small runs over both sets, fixed and redrawn features and every schedule mode
SUMMED_RUNS = {
    "simplex-per_round": "problem.constraint = simplex\nschedule.mode = per_round\n",
    "l1ball-redrawn-horizon": "problem.constraint = l1ball\nproblem.redraw_features = true\nschedule.mode = horizon\n",
    "simplex-redrawn-fixed": "problem.redraw_features = true\nschedule.mode = fixed\nschedule.fixed_count = 3\n",
    "l1ball-baseline": "problem.constraint = l1ball\nproblem.radius = 1.5\nschedule.mode = baseline\n",
}


@pytest.mark.parametrize("text", SUMMED_RUNS.values(), ids=SUMMED_RUNS)
def test_no_float_total_goes_through_the_builtin_sum(text, tmp_path, monkeypatch):
    # the builtin sum of floats compensates from Python 3.12 on, so a float
    # total goes through problem._left_sum; integer totals may use the builtin
    shadow_sum(monkeypatch, float_refusing_sum)
    config = domfw.harness.parse_config("problem.n = 4\nproblem.T = 5\nproblem.d = 3\n" + text)
    assert "inner_steps = " in domfw.harness.plan_text(config)
    result = domfw.harness.run_experiment(config, out_dir=tmp_path / "run")
    assert result.trajectory.lo_calls > 0 and not (tmp_path / "run" / "FAILED").exists()
    rows = domfw.harness.sweep(config, "gamma", ["0.3", "0.6"], out_dir=tmp_path / "sweep")
    assert [row.ok for row in rows] == [True, True]


def test_the_active_set_half_takes_no_float_builtin_sum(tmp_path, monkeypatch):
    # n < d: the pairwise solve stops at its lowered cap and the active-set half takes over
    shadow_sum(monkeypatch, float_refusing_sum)
    monkeypatch.setattr(domfw.regret, "PAIRWISE_MAX_ITER", 2000)
    config = domfw.harness.parse_config("problem.n = 2\nproblem.d = 6\nproblem.T = 4\n")
    assert max(rec.iterations for rec in domfw.harness.run_experiment(config, out_dir=tmp_path).optima) >= 2000
