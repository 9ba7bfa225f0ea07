"""Self-tests of the benchmark code, on configs small enough to run in seconds.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = Workload(name="tiny", base_seed=3, why="test",
                config="problem.n = 6\nproblem.d = 4\nproblem.T = 40\nnetwork.edge_prob = 0.4\n")
TINY_SWEEP = Workload(name="tiny-sweep", base_seed=3, why="test", sweep_values=("0.3", "0.7"),
                      config="problem.n = 6\nproblem.d = 4\nproblem.T = 30\nschedule.epsilon = 2\n")


def make_bench(workload, work):
    work.mkdir(parents=True, exist_ok=True)
    return run.Bench(ROOT, workload, seed=0, work=work)


def check_nesting(span_list):
    """Children lie inside their parents, and each root's subtree self times
    add up to the root's duration."""
    by_id = {s["id"]: s for s in span_list}
    for s in span_list:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    own = spans.self_times(span_list)
    for root in (s for s in span_list if s["parent"] is None):
        subtree, frontier = {root["id"]}, [root["id"]]
        while frontier:
            pid = frontier.pop()
            kids = [s["id"] for s in span_list if s["parent"] == pid]
            subtree.update(kids)
            frontier += kids
        assert sum(own[i] for i in subtree) == pytest.approx(root["end"] - root["start"], rel=1e-9, abs=1e-9)
        assert all(own[i] >= -1e-9 for i in subtree)


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w.why == s["why"] for w, s in zip(WORKLOADS.values(), spec["workloads"]))


@pytest.mark.parametrize("workload", [TINY, TINY_SWEEP], ids=lambda w: w.name)
def test_traced_operation_gives_the_untraced_bytes_and_nested_spans(workload, tmp_path):
    bench = make_bench(workload, tmp_path)
    plain = bench.operation(traced=False)
    traced = bench.operation(traced=True)
    assert plain["ok"] and traced["ok"], plain["problems"] + traced["problems"]
    assert traced["digests"] == plain["digests"]
    check_nesting(traced["spans"])
    roots = [s["name"] for s in traced["spans"] if s["parent"] is None]
    assert roots == ["harness.parse_config", "harness.sweep" if workload.sweep_values else "harness.run_experiment"]


def test_algorithm_counts_equal_the_run_outputs(tmp_path):
    bench = make_bench(TINY, tmp_path)
    out = tmp_path / "out"
    result = bench.spawn("trace", out)
    assert not result["errors"]
    layers = spans.layer_metrics(result["spans"], {})
    report = dict(line.split(" = ") for line in (out / "bound.txt").read_text().splitlines())
    k_t = [int(row.split(",")[1]) for row in (out / "diagnostics.csv").read_text().splitlines()[1:]]
    assert layers["algorithm.lo_calls"] == int(report["lo_calls"])
    assert layers["algorithm.messages"] == int(report["messages"])
    assert layers["algorithm.inner_steps"] == sum(k_t)
    assert layers["network.matrices_built"] == 40
    assert layers["network.matrix_cache_bytes"] == 40 * 6 * 6 * 8


def test_repeated_calls_count_only_work_a_sweep_redoes(tmp_path):
    single = make_bench(TINY, tmp_path / "single").operation(traced=True)
    swept = make_bench(TINY_SWEEP, tmp_path / "sweep").operation(traced=True)
    assert single["layers"]["harness.repeated_calls"] == 0
    assert single["layers"]["harness.useful_call_ratio"] == 1.0
    # the second gamma value redraws the same stream and schedule and rebuilds the same solver
    assert swept["layers"]["harness.repeated_calls"] == 3
    assert swept["layers"]["harness.useful_call_ratio"] == 0.5


def test_output_that_differs_from_the_recorded_digests_fails(tmp_path):
    bench = make_bench(TINY, tmp_path)
    bench.recorded = {".": {"trajectory.csv": "0" * 64, "regret.csv": "0" * 64}}
    op = bench.operation(traced=False)
    assert not op["ok"]
    assert "recorded digests" in op["problems"][0]


@pytest.mark.parametrize("trace", [False, True])
def test_result_has_the_contract_shape(trace, tmp_path, capsys):
    result = run.measure(make_bench(TINY, tmp_path), seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == (2 if trace else 1)
    units = spans.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert "blas_threads" in capsys.readouterr().out


def test_fingerprint_follows_content_not_identity():
    a = np.arange(6.0)
    assert spans.fingerprint(a) == spans.fingerprint(a.copy())
    assert spans.fingerprint(a) != spans.fingerprint(a + 1)
    assert spans.fingerprint({"x": a, "tol": 1e-9}) != spans.fingerprint({"x": a, "tol": 1e-8})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
