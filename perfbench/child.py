"""One benchmark operation in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json SPAWNED

SPEC holds the mode (``setup``, ``run`` or ``trace``), the config text, the
sweep values and the output directory. SPAWNED is the parent's
``time.monotonic()`` just before it started this process; the monotonic clock
is shared by all processes, so ``setup_s`` covers interpreter start-up too.

``setup`` stops once the config is parsed and reports the numeric
environment. ``run`` and ``trace`` then make one call of the public entry
point (``run_experiment``, or ``sweep`` over gamma); ``trace`` installs the
span recorders first.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, asked from the library."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def numeric_env() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(spec_path: str, result_path: str, spawned: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    started = time.perf_counter()
    import domfw.cli  # noqa: F401  (the import a `domfw run` user pays)
    import_s = time.perf_counter() - started
    import domfw.harness as harness

    recorder = None
    if spec["mode"] == "trace":
        import spans   # imported late: it loads NumPy, which import_s must include

        recorder = spans.Recorder()
        spans.install(recorder)
    config = harness.parse_config(spec["config"])
    result = {"import_s": import_s, "setup_s": time.monotonic() - float(spawned),
              "domfw_file": domfw.cli.__file__}

    if spec["mode"] == "setup":
        result["env"] = numeric_env()
    else:
        errors = []
        started = time.perf_counter()
        try:
            if spec["sweep_values"]:
                rows = harness.sweep(config, "gamma", spec["sweep_values"], out_dir=spec["out_dir"])
                errors = [f"gamma={row.value}: {row.error}" for row in rows if not row.ok]
            else:
                harness.run_experiment(config, out_dir=spec["out_dir"])
        except Exception:
            errors.append(traceback.format_exc())
        result["run_s"] = time.perf_counter() - started
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["errors"] = errors
        if recorder is not None:
            result["spans"] = recorder.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:4]))
