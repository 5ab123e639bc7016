"""Seed sweeps: rejection-rate grids for the toy process and group runs.

A sweep runs the chosen test once per (grid point, seed index) and writes
one CSV row per run plus a JSON summary of rejection rates per grid point.
Each cell derives its own data and test randomness from the base seed and
its grid coordinates, so results are independent of execution order and of
how many workers run; rows are emitted in grid order either way.
"""

from __future__ import annotations

import csv
import ctypes
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rng import SK_CELL, SK_GROUP, derive
from .errors import ConfigError, DataError
from .estimator import h_from_columns, h_matrix
from .io import make_parent
from .kernels import DISTRIBUTION_KINDS, KernelSpec
from .reliability import default_inner_samples
from .testing import test_from_h
from .toy import ToyConfig, _sample_columns

CSV_FIELDS = ("n", "delta_p", "seed", "statistic", "p_value", "reject",
              "runtime_ms")
CSV_FIELDS_GROUP = ("n", "group", "seed", "statistic", "p_value", "reject",
                    "runtime_ms")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class SweepRow:
    """One test outcome; `label` is the delta_p value or the group name."""

    n: int
    label: object
    seed: int
    statistic: float
    p_value: float
    reject: bool
    runtime_ms: float


@dataclass(frozen=True)
class _Plan:
    """Everything a sweep's runs share; a run is a (cell, seed) index pair.

    A cell is (n, label, source): `source` is a ToyConfig to sample n
    records from, or a group's records, subsampled to n when n is smaller.
    `kx` is the input kernel, dist-expmmd for reliability runs. `domain`
    (SK_CELL or SK_GROUP) keys the seeds each run derives.
    """

    kx: KernelSpec
    ky: KernelSpec
    alpha: float
    bootstrap: int
    inner_samples: int | None
    seed: int
    domain: int
    cells: tuple
    n_seeds: int
    timings: bool


def _run(plan: _Plan, ci: int, si: int) -> SweepRow:
    n, label, source = plan.cells[ci]
    data_seed = derive(plan.seed, plan.domain, ci, si, 0)
    test_seed = derive(plan.seed, plan.domain, ci, si, 1)
    start = time.perf_counter() if plan.timings else 0.0
    if isinstance(source, ToyConfig):
        rel = plan.kx.kind in DISTRIBUTION_KINDS
        r = (plan.inner_samples or default_inner_samples(n)) if rel else None
        p, ys, yms, sample_sets = _sample_columns(source, n, data_seed, r)
        h = h_from_columns(plan.kx, sample_sets if rel else p[:, None],
                           plan.ky, yms, ys)
    else:
        if n < len(source):
            rng = np.random.Generator(np.random.PCG64(data_seed))
            idx = rng.choice(len(source), size=n, replace=False)
            records = [source[i] for i in sorted(idx)]
        else:
            records = list(source)
        h = h_matrix(records, plan.kx, plan.ky)
    report = test_from_h(h, plan.alpha, plan.bootstrap, test_seed)
    elapsed = (time.perf_counter() - start) * 1e3 if plan.timings else 0.0
    return SweepRow(n=n, label=label, seed=si, statistic=report.statistic,
                    p_value=report.p_value, reject=report.reject,
                    runtime_ms=elapsed)


# The plan of the pool this process works for; set only in pool workers.
_WORKER_PLAN: _Plan | None = None


def _openblas_function(name: str):
    """OpenBLAS's `name` (e.g. "set_num_threads") as numpy loaded it, or None."""
    for path in Path(np.__file__).parents[1].glob("numpy.libs/*openblas*"):
        lib = ctypes.CDLL(str(path))
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                       f"openblas_{name}"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def _init_worker(plan: _Plan, workers: int) -> None:
    """Store the plan and give this worker its share of the CPUs for BLAS.

    Pool workers start with OpenBLAS's default of one thread per CPU and
    would oversubscribe the CPUs; a thread variable the user set rules.
    """
    global _WORKER_PLAN
    _WORKER_PLAN = plan
    set_threads = _openblas_function("set_num_threads")
    if set_threads is None or any(v in os.environ for v in _THREAD_VARS):
        return
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(max(1, cpus // workers))


def _run_in_worker(task: tuple[int, int]) -> SweepRow:
    return _run(_WORKER_PLAN, *task)


def _run_plan(plan: _Plan, workers: int) -> list[SweepRow]:
    """Every (cell, seed) run in grid order; workers get the plan once."""
    if plan.n_seeds < 1:
        raise ConfigError("n_seeds must be at least 1")
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    tasks = [(ci, si) for ci in range(len(plan.cells))
             for si in range(plan.n_seeds)]
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [_run(plan, ci, si) for ci, si in tasks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(plan, workers)) as pool:
        return list(pool.map(_run_in_worker, tasks, chunksize=8))


def run_toy_sweep(toy: ToyConfig, n_values, delta_p_values, n_seeds: int,
                  kx: KernelSpec | None = None, alpha: float = 0.05,
                  bootstrap: int = 100, inner_samples: int | None = None,
                  seed: int = 0, workers: int = 1, timings: bool = False
                  ) -> list[SweepRow]:
    """Full toy grid: every delta_p x n cell, n_seeds independent runs each.

    The toy process's own kernels are used (Gaussian on the scalar input,
    exponentiated Hamming with the toy's lambda on outputs) so that results
    line up with the closed forms. A dist-expmmd `kx` instead makes it a
    reliability sweep with `inner_samples` model samples per record.
    """
    if not n_values or not delta_p_values:
        raise ConfigError("sweep grids must be non-empty")
    if any(len(set(v)) < len(v) for v in (n_values, delta_p_values)):
        raise ConfigError("sweep grids must not repeat a value")
    cells = tuple((n, dp, toy.with_delta_p(dp))
                  for dp in delta_p_values for n in n_values)
    return _run_plan(_Plan(
        kx=toy.kx if kx is None else kx, ky=toy.ky, alpha=alpha,
        bootstrap=bootstrap, inner_samples=inner_samples, seed=seed,
        domain=SK_CELL, cells=cells, n_seeds=n_seeds, timings=timings),
        workers)


def split_groups(records, n: int | None = None) -> list[tuple[str, list]]:
    """(label, members) for each group label, in sorted label order.

    Every record must carry a label, and every group at least 2 records,
    and at least `n` when it is given.

    Raises:
        DataError: an unlabeled record, or a group that is too small.
    """
    unlabeled = sum(r.group is None for r in records)
    if unlabeled:
        raise DataError(f"grouping requested but {unlabeled} of "
                        f"{len(records)} records have no group label")
    groups = [(label, [r for r in records if r.group == label])
              for label in sorted({r.group for r in records})]
    for label, members in groups:
        if n is not None and n > len(members):
            raise DataError(f"group {label!r} has {len(members)} records, "
                            f"fewer than subsample_n={n}")
        if len(members) < 2:
            raise DataError(f"group {label!r} has fewer than 2 records")
    return groups


def _run_per_group(records, per_group: bool, seed, run) -> dict:
    """Report body of `run(members, seed) -> dict` over all records or per group.

    Without `per_group`, the body is the run over every record with `seed`.
    With it, it is {"groups": [...]} with one entry per label, and group gi
    runs with the test seed of cell (gi, 0) of a group sweep (see `_run`).
    Runs that draw no random numbers pass seed None.
    """
    if not per_group:
        return run(records, seed)
    return {"groups": [
        dict(run(members, None if seed is None
                 else derive(seed, SK_GROUP, gi, 0, 1)), group=label)
        for gi, (label, members) in enumerate(split_groups(records))]}


def run_group_sweep(records, kx: KernelSpec, ky: KernelSpec, n_seeds: int,
                    subsample_n: int | None = None, alpha: float = 0.05,
                    bootstrap: int = 100, seed: int = 0, workers: int = 1,
                    timings: bool = False) -> list[SweepRow]:
    """Per-group runs over a labeled dataset; `kx` picks the family.

    Groups are processed in sorted label order. With `subsample_n` given,
    every seed index draws its own subsample (without replacement) from the
    group; without it, seeds only vary the test randomness.
    """
    if subsample_n is not None and subsample_n < 2:
        raise ConfigError(f"subsample_n must be at least 2, got {subsample_n}")
    cells = tuple((subsample_n or len(members), label, members)
                  for label, members in split_groups(records, subsample_n))
    return _run_plan(_Plan(
        kx=kx, ky=ky, alpha=alpha, bootstrap=bootstrap, inner_samples=None,
        seed=seed, domain=SK_GROUP, cells=cells, n_seeds=n_seeds,
        timings=timings), workers)


# ---------------------------------------------------------------------------
# Output


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_sweep_csv(path, rows: list[SweepRow], group_mode: bool) -> None:
    """One CSV row per run, grid order, stable byte-for-byte formatting."""
    fields = CSV_FIELDS_GROUP if group_mode else CSV_FIELDS
    make_parent(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            runtime = 0 if row.runtime_ms == 0 else repr(row.runtime_ms)
            writer.writerow([
                row.n, _fmt(row.label), row.seed, repr(row.statistic),
                repr(row.p_value), int(row.reject), runtime,
            ])


def _binomial_interval(k: int, n: int) -> tuple[float, float]:
    """Exact (Clopper-Pearson) central 95% interval for a proportion."""
    # scipy.special gives beta.ppf's values and loads in a third of the time.
    from scipy.special import betaincinv
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, 0.025))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 0.975))
    return lo, hi


def summarize_sweep(rows: list[SweepRow], group_mode: bool,
                    config: dict | None = None) -> dict:
    """Rejection rate per grid point with exact binomial 95% intervals."""
    order: list[tuple] = []
    groups: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        key = (row.n, row.label)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    label_field = "group" if group_mode else "delta_p"
    cells = []
    for key in order:
        members = groups[key]
        k = sum(int(r.reject) for r in members)
        count = len(members)
        lo, hi = _binomial_interval(k, count)
        cells.append({
            "n": key[0],
            label_field: key[1],
            "n_seeds": count,
            "rejections": k,
            "rejection_rate": k / count,
            "rejection_rate_ci95": [lo, hi],
            "mean_statistic": float(np.mean([r.statistic for r in members])),
            "mean_p_value": float(np.mean([r.p_value for r in members])),
        })
    out = {"cells": cells}
    if config is not None:
        out["config"] = config
    return out
