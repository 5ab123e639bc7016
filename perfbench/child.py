"""One fresh interpreter of the benchmark: set-up, measured runs, or a trace.

    python3 perfbench/child.py '<job as JSON>'

run.py starts this with PYTHONPATH pointing at the checkout's `src`. The job
names the mode, the workload and the files; the result is written as JSON to
job["result"]. Modes:

* setup: import acmmd.cli and write the workload's input file.
* measure: import acmmd.cli, then run the workload's command again and
  again for about job["seconds"], and at least job["min_reps"] times.
* trace: import acmmd.cli, write the input and run the command with every
  layer traced, between two untraced runs of the same command.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def run_command(argv: list[str]) -> tuple[float, int | None]:
    """Wall time and exit code of one CLI command; None if it raised."""
    import acmmd.cli

    start = time.perf_counter()
    try:
        code = acmmd.cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    return time.perf_counter() - start, code


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def environment() -> dict:
    """Versions and thread settings that the timings depend on."""
    from importlib.metadata import version

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS") if k in os.environ},
    }


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS uses, read from the loaded library."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def measure(job: dict, w) -> dict:
    import workloads

    work = Path(job["work"])
    reps = []
    start = time.perf_counter()
    while True:
        out = work / workloads.out_name(w, str(len(reps)))
        wall, code = run_command(workloads.argv(w, job["seed"], job["input"],
                                                out))
        reps.append({"wall_s": wall, "code": code, "out": str(out)})
        # Start another command only if it is expected to end within the
        # measuring time, so that a run takes about --seconds whatever the
        # length of one command.
        typical = statistics.median(r["wall_s"] for r in reps)
        elapsed = time.perf_counter() - start
        if len(reps) >= job["min_reps"] and elapsed + typical > job["seconds"]:
            break
        if elapsed + 2 * typical > job["budget_s"]:
            break
    return {"reps": reps, "peak_rss_mb": peak_rss_mb(),
            "env": environment()}


def trace(job: dict, w, import_span: tuple[float, float]) -> dict:
    import tracer as tracing
    import workloads

    work = Path(job["work"])
    tracer = tracing.Tracer()
    tracer.add_span(tracing.IMPORT_SPAN, *import_span)
    commands = []

    def run(tag, traced, workers=None):
        out = work / workloads.out_name(w, tag)
        argv = workloads.argv(w, job["seed"], job["input"], out, workers)
        if traced:
            tracer.install()
        try:
            wall, code = run_command(argv)
        finally:
            tracer.uninstall()
        commands.append({"tag": tag, "wall_s": wall, "code": code,
                         "out": str(out)})
        return wall

    if w.has_input:
        tracer.install()
        try:
            workloads.write_input(w, job["input"])
        finally:
            tracer.uninstall()
    # The sweep is traced with one worker, so that every span lands in
    # this process; its pool efficiency compares against the untraced run
    # with the workload's own worker count.
    pool_wall = run("pool", False) if w.kind == "sweep" else None
    # Untraced runs before and after the traced one, so that warm-up and
    # slow drift of the machine cancel out of the overhead.
    before = run("before", False, workers=1)
    traced = run("traced", True, workers=1)
    after = run("after", False, workers=1)
    metrics, problems = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced - (before + after) / 2
    if pool_wall is not None:
        metrics["sweep.pool_efficiency"] = (
            metrics["sweep.task_s"] / (w.workers * pool_wall))
    tracer.write(work / "spans.json")
    return {"commands": commands, "metrics": metrics, "problems": problems,
            "env": environment()}


def main() -> int:
    job = json.loads(sys.argv[1])
    start = time.perf_counter()
    import acmmd.cli  # noqa: F401  (timed: the import is part of set-up)
    import_span = (start, time.perf_counter())
    import workloads

    w = workloads.get(job["workload"], job["smoke"])
    if job["mode"] == "setup":
        if w.has_input:
            workloads.write_input(w, job["input"])
        result = {"import_s": import_span[1] - import_span[0]}
    elif job["mode"] == "measure":
        result = measure(job, w)
    elif job["mode"] == "trace":
        result = trace(job, w, import_span)
    else:
        raise ValueError(f"unknown mode {job['mode']!r}")
    result["acmmd_file"] = sys.modules["acmmd"].__file__
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
