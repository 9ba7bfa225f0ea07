"""domfw benchmark: closed-loop operations, each in a fresh interpreter.

Usage, from the root of a domfw checkout:

    python3 perfbench/run.py --workload reference --seed 0 --seconds 25 --trace 0

One operation is one call of ``domfw.harness.run_experiment`` (or
``domfw.harness.sweep`` for ``gamma-sweep``) in a new ``python3`` process
that imports the checkout's ``src/domfw``, parses the workload's config and
writes every artifact, as a ``domfw run`` user pays on each invocation. One
parent process runs the operations one at a time until ``--seconds`` is used
up. Each operation's outputs are checked (``check_outputs``).

``--trace 0`` also runs the same operation on the yardstick (a frozen copy
of domfw) before the first operation and after each one, and prints the
end-to-end metrics. ``--trace 1`` alternates an untraced and a traced
operation and prints the per-layer metrics of the fastest traced one, plus
the tracing overhead. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# domfw as of the commit that added this benchmark, never edited afterwards.
# A shared 2-vCPU VM's speed swings by up to 1.7x for tens of seconds, so the
# gated run time is each operation's time over the mean time of the same
# operation on the yardstick, run just before and just after it.
YARDSTICK = HERE / "yardstick"

END_TO_END = {"run_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

# OpenBLAS threads in every child. Operations run one at a time on a 2-vCPU
# VM; with 2 threads wide-network at T=200 showed 3.8-4.2 s outliers
# against 2.5-2.8 s with 1 thread, for identical output bytes.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 120
FEASIBILITY_TOL = 1e-10      # the run's own FEASIBILITY_RUN_TOL
CONSERVATION_TOL = 1e-9      # the run's own CONSERVATION_TOL
CHECKED_FILES = ("trajectory.csv", "regret.csv")
DIGESTS = json.loads((HERE / "digests.json").read_text())


class ChildError(RuntimeError):
    pass


class Bench:
    """Runs one workload's operations in child processes under ``work``."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.work = work
        self.config = workload.config_text(seed)
        self.recorded = DIGESTS.get(workload.name, {}).get(str(workload.master_seed(seed)))
        self.first_digests = None
        self.first_counts = None
        self.count = 0
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))

    def spawn(self, mode: str, out_dir: Path | None = None, source: Path | None = None) -> dict:
        """Run child.py on the domfw under ``source`` (default ``./src``)."""
        source = source or self.root / "src"
        self.count += 1
        spec_path = self.work / f"spec{self.count}.json"
        result_path = self.work / f"result{self.count}.json"
        spec_path.write_text(json.dumps({
            "mode": mode, "config": self.config, "sweep_values": list(self.workload.sweep_values),
            "out_dir": str(out_dir) if out_dir else None}))
        argv = [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path),
                repr(time.monotonic())]
        try:
            proc = subprocess.run(argv, env=dict(self.env, PYTHONPATH=str(source)), cwd=self.root,
                                  capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ChildError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not result_path.exists():
            raise ChildError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        if not Path(result["domfw_file"]).resolve().is_relative_to(source.resolve()):
            raise ChildError(f"child imported domfw from {result['domfw_file']}, not from {source}")
        return result

    def yardstick_run_s(self) -> float:
        """Wall time of the same operation on the frozen copy of domfw."""
        out_dir = self.work / f"op{self.count + 1}"
        try:
            result = self.spawn("run", out_dir, source=YARDSTICK)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if result["errors"]:
            raise ChildError(f"yardstick operation failed: {result['errors']}")
        return result["run_s"]

    def operation(self, traced: bool) -> dict:
        """Run one operation, check its outputs, and delete them."""
        out_dir = self.work / f"op{self.count + 1}"
        op = {"traced": traced, "problems": []}
        try:
            result = self.spawn("trace" if traced else "run", out_dir)
            op.update(result)
            op["problems"] += result["errors"]
            if not result["errors"]:
                op["digests"], op["artifact_bytes"] = self.check_outputs(out_dir, op["problems"])
                if traced:
                    op["layers"] = spans.layer_metrics(result["spans"], op["artifact_bytes"])
                    self.check_counts(op)
        except (ChildError, OSError, KeyError, ValueError) as exc:   # a missing or malformed artifact fails the check
            op["problems"].append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        op["ok"] = not op["problems"]
        return op

    def check_outputs(self, out_dir: Path, problems: list) -> tuple[dict, dict]:
        """Certificates of every run directory, plus digests against the
        recorded ones (or, for an unrecorded seed, the run's first operation)."""
        digests, sizes = {}, {}
        for run_dir in self.workload.run_dirs():
            where = out_dir / run_dir
            report = dict(line.split(" = ", 1) for line in (where / "bound.txt").read_text().splitlines()
                          if " = " in line)
            if report.get("mixing_holds") != "True":
                problems.append(f"{run_dir}: mixing_holds = {report.get('mixing_holds')}")
            if not float(report["max_feasibility_gap"]) <= FEASIBILITY_TOL:
                problems.append(f"{run_dir}: max_feasibility_gap = {report['max_feasibility_gap']}")
            if not float(report["max_conservation_gap"]) <= CONSERVATION_TOL:
                problems.append(f"{run_dir}: max_conservation_gap = {report['max_conservation_gap']}")
            digests[run_dir] = {name: hashlib.sha256((where / name).read_bytes()).hexdigest()
                                for name in CHECKED_FILES}
            for path in where.iterdir():
                sizes[path.name] = sizes.get(path.name, 0) + path.stat().st_size
        expected = self.recorded or self.first_digests
        if expected is None:
            self.first_digests = digests
        elif digests != expected:
            source = "recorded" if self.recorded else "first operation's"
            problems.append(f"output digests differ from the {source} digests: {digests}")
        return digests, sizes

    def check_counts(self, op: dict) -> None:
        counts = {name: op["layers"][name] for name in spans.EXACT_COUNTS}
        if self.first_counts is None:
            self.first_counts = counts
        elif counts != self.first_counts:
            op["problems"].append(f"exact counts changed between operations: {counts} != {self.first_counts}")


def summary(values: list[float]) -> str:
    """Least, median and largest value with the sample count. A tail
    percentile needs at least ten samples beyond it, which one run does not
    give; pooling repeated runs does."""
    return (f"min {min(values):.4f}  median {statistics.median(values):.4f}  max {max(values):.4f}  "
            f"n={len(values)}  [{' '.join(f'{v:.3f}' for v in values)}]")


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    env = bench.spawn("setup")["env"]   # not counted: this child also fills the bytecode caches
    print(f"env {json.dumps(env, sort_keys=True)}")
    deadline = time.monotonic() + seconds
    ops = []
    yardstick_s = None if trace else bench.yardstick_run_s()
    while True:
        started = time.monotonic()
        if trace:
            ops.append(bench.operation(traced=False))
            ops.append(bench.operation(traced=True))
        else:   # each operation is bracketed by the yardstick runs before and after it
            op = bench.operation(traced=False)
            after = bench.yardstick_run_s()
            op["yardstick_s"] = 0.5 * (yardstick_s + after)
            yardstick_s = after
            ops.append(op)
        if 2 * time.monotonic() - started > deadline:
            break

    failed = [op for op in ops if not op["ok"]]
    for op in failed:
        print(f"FAILED {'traced' if op['traced'] else 'untraced'} operation: {'; '.join(op['problems'])}",
              file=sys.stderr)
    good = [op for op in ops if op["ok"]]
    plain = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    if good:
        print(f"digests {json.dumps(good[0]['digests'], sort_keys=True)}")

    metrics = {}
    if not trace:
        units = END_TO_END
        if plain:
            samples = {
                "run_s": [op["run_s"] for op in plain],
                "yardstick_s": [op["yardstick_s"] for op in plain],
                "run_rel": [op["run_s"] / op["yardstick_s"] for op in plain],
                "setup_s": [op["setup_s"] for op in plain],
                "peak_rss_mb": [op["peak_rss_mb"] for op in plain],
            }
            for name, values in samples.items():
                print(f"{name:<14} {summary(values)}")
            metrics = {name: statistics.median(samples[name]) for name in ("run_rel", "setup_s", "peak_rss_mb")}
            metrics["ok_frac"] = len(good) / len(ops)
    else:
        units = spans.PER_LAYER
        if plain and traced:
            fastest = min(traced, key=lambda op: op["run_s"])
            metrics = dict(fastest["layers"])
            metrics["cli.import_s"] = statistics.median(op["import_s"] for op in good)
            metrics["bench.trace_overhead_frac"] = fastest["run_s"] / min(op["run_s"] for op in plain) - 1
            print(f"run_s untraced {summary([op['run_s'] for op in plain])}")
            print(f"run_s traced   {summary([op['run_s'] for op in traced])}")
            print("self time by span, fastest traced operation:")
            totals = spans.self_time_by_name(fastest["spans"])
            for name, value in sorted(totals.items(), key=lambda kv: -kv[1]):
                print(f"  {name:<34} {value:10.4f} s")
    return {
        "correct": not failed and bool(metrics),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                    if name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "domfw" / "__init__.py").is_file():
        print("perfbench: ./src/domfw not found; run from the root of a domfw checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: seed {args.seed} (seeds.master = {workload.master_seed(args.seed)}), "
          f"{args.seconds:g} s, trace {args.trace}")
    work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(Bench(root, workload, args.seed, work), args.seconds, bool(args.trace))
    except ChildError as exc:   # the set-up probe or the yardstick failed: no result to print
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
