"""Spans around domfw's layer boundaries, and the per-layer metrics they give.

The recorder is installed from outside the program. It replaces the names
that ``domfw.harness`` and ``domfw.algorithm`` look up at call time with
wrappers, and wraps ``GraphSchedule.matrix`` and ``RoundOptimizer.solve`` on
their classes. Nothing under ``src/`` is edited. Spans are kept in memory and
handed back when the operation ends; one child process runs one operation, so
all spans of a recorder belong to that operation.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import time
import weakref

import numpy as np

# domfw.harness module global -> span name ("<layer>.<function>")
HARNESS_SPANS = {
    "parse_config": "harness.parse_config",
    "run_experiment": "harness.run_experiment",
    "sweep": "harness.sweep",
    "generate_stream": "problem.generate_stream",
    "estimate_function_variation": "problem.estimate_function_variation",
    "function_variation_bound": "problem.function_variation_bound",
    "problem_constants": "problem.problem_constants",
    "write_stream_csv": "problem.write_stream_csv",
    "random_connected_schedule": "network.random_connected_schedule",
    "check_mixing": "network.check_mixing",
    "run": "algorithm.run",
    "write_trajectory_csv": "algorithm.write_trajectory_csv",
    "write_diagnostics_csv": "algorithm.write_diagnostics_csv",
    "RoundOptimizer": "regret.RoundOptimizer",
    "regret_series": "regret.regret_series",
    "envelopes": "regret.envelopes",
    "regret_upper_bound": "regret.regret_upper_bound",
    "write_regret_csv": "regret.write_regret_csv",
    "write_envelopes_csv": "regret.write_envelopes_csv",
}

# Calls whose arguments are fingerprinted: a call that repeats an earlier
# call's arguments within one operation redoes work the operation already did.
KEYED_SPANS = ("problem.generate_stream", "network.random_connected_schedule", "regret.RoundOptimizer")

# per-layer metric -> unit, in the order the benchmark prints them
PER_LAYER = {
    "problem.generate_stream_s": "s",
    "problem.variation_estimate_s": "s",
    "problem.write_stream_s": "s",
    "problem.stream_csv_bytes": "bytes",
    "network.schedule_build_s": "s",
    "network.matrices_built": "count",
    "network.check_mixing_s": "s",
    "network.matrix_cache_bytes": "bytes",
    "algorithm.run_self_s": "s",
    "algorithm.inner_steps": "count",
    "algorithm.us_per_inner_step": "us",
    "algorithm.lo_calls": "count",
    "algorithm.messages": "count",
    "algorithm.write_trajectory_s": "s",
    "algorithm.write_diagnostics_s": "s",
    "algorithm.artifact_bytes": "bytes",
    "regret.optima_s": "s",
    "regret.solver_iterations": "count",
    "regret.us_per_solver_iteration": "us",
    "regret.series_s": "s",
    "regret.upper_bound_s": "s",
    "regret.write_regret_s": "s",
    "regret.write_envelopes_s": "s",
    "harness.parse_config_s": "s",
    "harness.self_s": "s",
    "harness.sweep_self_s": "s",
    "harness.repeated_calls": "count",
    "harness.useful_call_ratio": "ratio",
    "cli.import_s": "s",
    "bench.trace_overhead_frac": "ratio",
}

# Counts that must repeat bit for bit between operations on the same config.
EXACT_COUNTS = ("algorithm.inner_steps", "algorithm.lo_calls", "algorithm.messages",
                "regret.solver_iterations", "network.matrices_built", "harness.repeated_calls")


class Recorder:
    """In-memory span list; ``id`` is the span's index, ``parent`` the
    index of the span that was open when it started."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, attrs=None, after=None):
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": 0.0, "end": 0.0, "attrs": attrs or {}}
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if after is not None:
            span["attrs"].update(after(result))
        return result


def fingerprint(value):
    """Content-based identity of an argument: arrays by their bytes,
    dataclasses field by field, everything else by ``repr``."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return ("ndarray", data.dtype.str, data.shape, hashlib.sha256(data.tobytes()).hexdigest())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, fingerprint(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, fingerprint(v)) for k, v in value.items())
    return repr(value)


def _key_attrs(fn):
    signature = inspect.signature(fn)

    def attrs(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = hashlib.sha256(repr(fingerprint(bound.arguments)).encode()).hexdigest()
        return {"key": key}
    return attrs


def _run_counts(trajectory):
    return {"inner_steps": sum(r.inner_count for r in trajectory.rounds),
            "lo_calls": trajectory.lo_calls, "messages": trajectory.messages}


def install(recorder: Recorder) -> None:
    """Wrap domfw's layer entry points with span recorders, for the rest of
    the process."""
    import domfw.algorithm as algorithm
    import domfw.harness as harness
    from domfw.network import GraphSchedule
    from domfw.regret import RoundOptimizer

    def patch(owner, attr, name, attrs=None, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original, updated=())
        def wrapper(*args, **kwargs):
            return recorder.call(name, original, args, kwargs,
                                 attrs(*args, **kwargs) if attrs else None, after)

        setattr(owner, attr, wrapper)

    for attr, name in HARNESS_SPANS.items():
        original = getattr(harness, attr)
        if name in KEYED_SPANS:
            patch(harness, attr, name, attrs=_key_attrs(original))
        elif name == "algorithm.run":
            patch(harness, attr, name, after=_run_counts)
        else:
            patch(harness, attr, name)
    patch(algorithm, "run_round", "algorithm.run_round")

    rounds_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def matrix_attrs(schedule, t):
        seen = rounds_seen.setdefault(schedule, set())
        first = t not in seen
        seen.add(t)
        return {"first": first, "n": schedule.n}

    patch(GraphSchedule, "matrix", "network.matrix", attrs=matrix_attrs)
    patch(RoundOptimizer, "solve", "regret.solve", after=lambda rec: {"iterations": rec.iterations})


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - c for span, c in zip(spans, covered)]


def self_time_by_name(spans) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def layer_metrics(spans, artifact_bytes: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``artifact_bytes`` maps artifact file names to their sizes summed over
    the operation's run directories. ``cli.import_s`` and
    ``bench.trace_overhead_frac`` need the untraced operations too and are
    filled in by the caller.
    """
    own = self_times(spans)

    def total(name, where=lambda span: True):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name and where(s))

    def self_total(*names):
        return sum(t for s, t in zip(spans, own) if s["name"] in names)

    def attr_sum(name, key, where=lambda span: True):
        return sum(s["attrs"][key] for s in spans if s["name"] == name and where(s))

    def first_build(span):
        return span["attrs"]["first"]

    run_self = self_total("algorithm.run", "algorithm.run_round")
    inner_steps = attr_sum("algorithm.run", "inner_steps")
    optima = total("regret.solve")
    iterations = attr_sum("regret.solve", "iterations")

    keyed = [s for s in spans if s["name"] in KEYED_SPANS]
    seen = set()
    repeated = 0
    for span in keyed:
        key = (span["name"], span["attrs"]["key"])
        repeated += key in seen
        seen.add(key)

    return {
        "problem.generate_stream_s": total("problem.generate_stream"),
        "problem.variation_estimate_s": total("problem.estimate_function_variation"),
        "problem.write_stream_s": total("problem.write_stream_csv"),
        "problem.stream_csv_bytes": artifact_bytes.get("stream.csv", 0),
        "network.schedule_build_s": total("network.matrix", first_build),
        "network.matrices_built": sum(1 for s in spans if s["name"] == "network.matrix" and first_build(s)),
        "network.check_mixing_s": total("network.check_mixing"),
        "network.matrix_cache_bytes": sum(8 * s["attrs"]["n"] ** 2 for s in spans
                                          if s["name"] == "network.matrix" and first_build(s)),
        "algorithm.run_self_s": run_self,
        "algorithm.inner_steps": inner_steps,
        "algorithm.us_per_inner_step": 1e6 * run_self / inner_steps if inner_steps else 0.0,
        "algorithm.lo_calls": attr_sum("algorithm.run", "lo_calls"),
        "algorithm.messages": attr_sum("algorithm.run", "messages"),
        "algorithm.write_trajectory_s": total("algorithm.write_trajectory_csv"),
        "algorithm.write_diagnostics_s": total("algorithm.write_diagnostics_csv"),
        "algorithm.artifact_bytes": artifact_bytes.get("trajectory.csv", 0) + artifact_bytes.get("diagnostics.csv", 0),
        "regret.optima_s": optima,
        "regret.solver_iterations": iterations,
        "regret.us_per_solver_iteration": 1e6 * optima / iterations if iterations else 0.0,
        "regret.series_s": total("regret.regret_series"),
        "regret.upper_bound_s": total("regret.regret_upper_bound"),
        "regret.write_regret_s": total("regret.write_regret_csv"),
        "regret.write_envelopes_s": total("regret.write_envelopes_csv"),
        "harness.parse_config_s": total("harness.parse_config"),
        "harness.self_s": self_total("harness.run_experiment"),
        "harness.sweep_self_s": self_total("harness.sweep"),
        "harness.repeated_calls": repeated,
        "harness.useful_call_ratio": (len(keyed) - repeated) / len(keyed) if keyed else 1.0,
    }

