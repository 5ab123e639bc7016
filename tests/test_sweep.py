import ctypes
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import hashlib

import pytest
from scipy.stats import beta

from acmmd import sweep
from acmmd.cli import main
from acmmd.errors import ConfigError, DataError
from acmmd.kernels import KernelSpec
from acmmd.sweep import (SweepRow, run_group_sweep, run_toy_sweep,
                         split_groups, summarize_sweep, write_sweep_csv)
from acmmd.toy import (ToyConfig, ToyPrior, generate_reliability_records,
                       generate_triplets)


def toy():
    return ToyConfig(prior=ToyPrior(atoms=(0.4,)), delta_p=0.0)


class TestRunToySweep:
    def test_grid_order_and_reproducibility(self):
        rows = run_toy_sweep(toy(), [4, 6], [0.0, 0.25], 2, bootstrap=20)
        labels = [(r.label, r.n, r.seed) for r in rows]
        assert labels == [(0.0, 4, 0), (0.0, 4, 1),
                          (0.0, 6, 0), (0.0, 6, 1),
                          (0.25, 4, 0), (0.25, 4, 1),
                          (0.25, 6, 0), (0.25, 6, 1)]
        again = run_toy_sweep(toy(), [4, 6], [0.0, 0.25], 2, bootstrap=20)
        assert rows == again

    def test_workers_do_not_change_rows(self):
        kwargs = dict(n_values=[4, 6], delta_p_values=[0.25], n_seeds=3,
                      bootstrap=20)
        serial = run_toy_sweep(toy(), **kwargs, workers=1)
        parallel = run_toy_sweep(toy(), **kwargs, workers=3)
        assert serial == parallel

    def test_cells_have_independent_data(self):
        rows = run_toy_sweep(toy(), [5], [0.0, 0.25], 1, bootstrap=20)
        assert rows[0].statistic != rows[1].statistic

    def test_runtime_zero_without_timings(self):
        rows = run_toy_sweep(toy(), [4], [0.0], 1, bootstrap=20)
        assert rows[0].runtime_ms == 0.0
        timed = run_toy_sweep(toy(), [4], [0.0], 1, bootstrap=20,
                              timings=True)
        assert timed[0].runtime_ms > 0

    @pytest.mark.parametrize("n_values,delta_p_values", [
        ([4, 4], [0.0]), ([4], [0.25, 0.25])])
    def test_repeated_grid_value_rejected(self, n_values, delta_p_values):
        with pytest.raises(ConfigError, match="repeat"):
            run_toy_sweep(toy(), n_values, delta_p_values, 2, bootstrap=20)

    def test_pool_no_larger_than_task_list(self, monkeypatch):
        # The stub starts no process: it runs the tasks here, in order.
        seen = {}

        class StubPool:
            def __init__(self, max_workers, initializer, initargs):
                seen["max_workers"], seen["initargs"] = max_workers, initargs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return [sweep._run(seen["initargs"][0], *t) for t in tasks]

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", StubPool)
        rows = run_toy_sweep(toy(), [4], [0.0, 0.25], 1, bootstrap=20,
                             workers=64)
        assert seen["max_workers"] == 2
        assert seen["initargs"][1] == 2
        assert rows == run_toy_sweep(toy(), [4], [0.0, 0.25], 1,
                                     bootstrap=20)


class TestRunGroupSweep:
    def records(self):
        left = generate_triplets(ToyConfig(prior=ToyPrior(atoms=(0.3,)),
                                           delta_p=0.25), 8, seed=0)
        right = generate_triplets(ToyConfig(prior=ToyPrior(atoms=(0.45,)),
                                            delta_p=0.25), 8, seed=1)
        return left + right

    def rel_records(self):
        return [r for p, seed in ((0.3, 2), (0.45, 3))
                for r in generate_reliability_records(
                    ToyConfig(prior=ToyPrior(atoms=(p,)), delta_p=0.25), 8,
                    4, seed)]

    @pytest.mark.parametrize("family", ["acmmd", "rel"])
    @pytest.mark.parametrize("subsample_n", [None, 5])
    def test_workers_do_not_change_rows(self, family, subsample_n):
        ky = KernelSpec("exp-hamming")
        if family == "rel":
            records = self.rel_records()
            kx = KernelSpec("dist-expmmd", sigma=1.0, inner=ky)
        else:
            records, kx = self.records(), KernelSpec("gaussian", sigma=1.0)
        kwargs = dict(n_seeds=9, subsample_n=subsample_n, bootstrap=20)
        serial = run_group_sweep(records, kx, ky, workers=1, **kwargs)
        parallel = run_group_sweep(records, kx, ky, workers=2, **kwargs)
        assert len(serial) == 18
        assert serial == parallel

    def test_groups_sorted_and_subsampled(self):
        rows = run_group_sweep(self.records(),
                               KernelSpec("gaussian", sigma=1.0),
                               KernelSpec("exp-hamming"), n_seeds=2,
                               subsample_n=4, bootstrap=20)
        assert [r.label for r in rows] == ["p=0.3"] * 2 + ["p=0.45"] * 2
        assert all(r.n == 4 for r in rows)
        assert rows[0].statistic != rows[1].statistic

    def test_without_subsample_uses_full_groups_once_per_seed(self):
        rows = run_group_sweep(self.records(),
                               KernelSpec("gaussian", sigma=1.0),
                               KernelSpec("exp-hamming"), n_seeds=2,
                               bootstrap=20)
        assert all(r.n == 8 for r in rows)
        # Same records every seed; only the bootstrap stream differs.
        assert rows[0].statistic == rows[1].statistic
        assert rows[0].p_value != rows[1].p_value

    def test_undersized_group_rejected(self):
        records = self.records()[:8] + self.records()[8:9]
        with pytest.raises(DataError, match="fewer than"):
            run_group_sweep(records,
                            KernelSpec("gaussian", sigma=1.0),
                            KernelSpec("exp-hamming"), n_seeds=1,
                            subsample_n=4, bootstrap=20)

    def test_subsample_below_two_rejected(self):
        with pytest.raises(ConfigError, match="subsample_n"):
            run_group_sweep(self.records(), KernelSpec("gaussian", sigma=1.0),
                            KernelSpec("exp-hamming"), n_seeds=1,
                            subsample_n=1, bootstrap=20)

    def test_split_groups_sorts_and_checks(self):
        records = self.records()
        groups = split_groups(records[::-1])
        assert [label for label, _ in groups] == ["p=0.3", "p=0.45"]
        assert [len(members) for _, members in groups] == [8, 8]
        with pytest.raises(DataError, match="'p=0.3' has 8 records, "
                           "fewer than subsample_n=9"):
            split_groups(records, 9)
        with pytest.raises(DataError, match="'p=0.45' has fewer than 2"):
            split_groups(records[:9])
        unlabeled = [type(t)(x=t.x, y=t.y, y_model=t.y_model, group=None)
                     for t in records[:3]]
        with pytest.raises(DataError, match="3 of 16 records have no group"):
            split_groups(unlabeled + records[3:])

    def test_unlabeled_records_rejected(self):
        records = [t for t in self.records()]
        stripped = [type(t)(x=t.x, y=t.y, y_model=t.y_model, group=None)
                    for t in records]
        with pytest.raises(DataError, match="group"):
            run_group_sweep(stripped,
                            KernelSpec("gaussian", sigma=1.0),
                            KernelSpec("exp-hamming"), n_seeds=1,
                            bootstrap=20)


class TestSummarize:
    def rows(self, rejects, label="0.0"):
        return [SweepRow(n=10, label=label, seed=i, statistic=0.1 * i,
                         p_value=0.5, reject=bool(r), runtime_ms=0.0)
                for i, r in enumerate(rejects)]

    def test_rates_and_order(self):
        rows = self.rows([1, 0, 0, 1]) + self.rows([1, 1, 1, 1], label="0.25")
        summary = summarize_sweep(rows, group_mode=False)
        cells = summary["cells"]
        assert [c["delta_p"] for c in cells] == ["0.0", "0.25"]
        assert cells[0]["rejection_rate"] == 0.5
        assert cells[0]["rejections"] == 2
        assert cells[1]["rejection_rate"] == 1.0

    def test_interval_edges(self):
        no_rejects = summarize_sweep(self.rows([0, 0, 0, 0]), False)
        lo, hi = no_rejects["cells"][0]["rejection_rate_ci95"]
        assert lo == 0.0
        assert hi == pytest.approx(1 - 0.025 ** 0.25, rel=1e-12)
        all_rejects = summarize_sweep(self.rows([1, 1, 1, 1]), False)
        lo, hi = all_rejects["cells"][0]["rejection_rate_ci95"]
        assert lo == pytest.approx(0.025 ** 0.25, rel=1e-12)
        assert hi == 1.0

    @pytest.mark.parametrize("n", [*range(1, 60), 100, 200, 300, 1000])
    def test_interval_equals_beta_ppf(self, n):
        for k in range(n + 1):
            lo = 0.0 if k == 0 else beta.ppf(0.025, k, n - k + 1)
            hi = 1.0 if k == n else beta.ppf(0.975, k + 1, n - k)
            assert sweep._binomial_interval(k, n) == (lo, hi), k

    def test_group_mode_key(self):
        rows = self.rows([0, 1], label="p=0.3")
        summary = summarize_sweep(rows, group_mode=True)
        assert summary["cells"][0]["group"] == "p=0.3"
        assert "delta_p" not in summary["cells"][0]

    def test_config_embedded(self):
        summary = summarize_sweep(self.rows([0]), False, config={"seed": 1})
        assert summary["config"] == {"seed": 1}


class TestCsv:
    def test_float_repr_and_int_zero(self, tmp_path):
        rows = [SweepRow(n=10, label="0.1", seed=0, statistic=0.1 + 0.2,
                         p_value=1 / 3, reject=True, runtime_ms=0.0)]
        path = tmp_path / "rows.csv"
        write_sweep_csv(path, rows, group_mode=False)
        lines = path.read_text().splitlines()
        assert lines[1] == f"10,0.1,0,{repr(0.1 + 0.2)},{repr(1 / 3)},1,0"

    def test_workers_validation(self):
        with pytest.raises(ConfigError, match="workers"):
            run_toy_sweep(toy(), [4], [0.0], 1, bootstrap=20, workers=0)


def _blas_threads() -> int:
    get = sweep._openblas_function("get_num_threads")
    get.argtypes = []
    get.restype = ctypes.c_int
    return get()


# Bytes of two small toy sweeps, one per family, as written before the
# sweep passed sampled columns straight to the h engine; the summaries are
# pinned by SHA-256. Any change to sampling, h, the bootstrap or the
# decision shows here.
PINNED_SWEEPS = {
    "gof": (["--n-values", "6,20", "--n-seeds", "3"], (
    'n,delta_p,seed,statistic,p_value,reject,runtime_ms\n'
    '6,0.0,0,-0.02290623903545058,0.6774193548387096,0,0\n'
    '6,0.0,1,0.057122959461448596,0.1935483870967742,0,0\n'
    '6,0.0,2,-0.10627089291415917,0.3225806451612903,0,0\n'
    '20,0.0,0,-0.023740444492105547,0.8709677419354839,0,0\n'
    '20,0.0,1,-0.005414798152916842,0.5806451612903226,0,0\n'
    '20,0.0,2,0.21593992709311557,0.03225806451612903,1,0\n'
    '6,0.25,0,-0.015764487745922446,0.5806451612903226,0,0\n'
    '6,0.25,1,-0.053210776603907536,0.5161290322580645,0,0\n'
    '6,0.25,2,0.03606804094679397,0.12903225806451613,0,0\n'
    '20,0.25,0,0.04673585283262782,0.0967741935483871,0,0\n'
    '20,0.25,1,0.011799123274920227,0.25806451612903225,0,0\n'
    '20,0.25,2,0.05142964266635129,0.06451612903225806,1,0\n'
    ), "7ded356f7418086e5866e937bd714201af946729f743046c2de6b561a7586961"),
    "rel": (["--family", "rel", "--n-values", "20,40", "--n-seeds", "2"], (
    'n,delta_p,seed,statistic,p_value,reject,runtime_ms\n'
    '20,0.0,0,-0.05837401705000448,0.7419354838709677,0,0\n'
    '20,0.0,1,-0.018754947116790276,0.7741935483870968,0,0\n'
    '40,0.0,0,-0.02337175991621635,0.8387096774193549,0,0\n'
    '40,0.0,1,0.1433876094158473,0.41935483870967744,0,0\n'
    '20,0.25,0,0.14914948119851915,0.06451612903225806,0,0\n'
    '20,0.25,1,-0.12093396442012315,0.8064516129032258,0,0\n'
    '40,0.25,0,0.01773254589367533,0.22580645161290322,0,0\n'
    '40,0.25,1,0.15319055619417313,0.03225806451612903,1,0\n'
    ), "2823c7045ec391ccf0a0a8e01c8caa7546e14056e4a95fde4ab979d407e135b2"),
}


# Bytes of one grouped dataset sweep per family, subsampled, over a toy
# dataset of two labeled groups, as written when the dataset branch still
# chose between h_matrix and rel_h_matrix by family.
PINNED_DATASET_SWEEPS = {
    "gof-groups": (["--family", "acmmd"], (
    'n,group,seed,statistic,p_value,reject,runtime_ms\n'
    '8,p=0.3,0,0.030026853651235887,0.25806451612903225,0,0\n'
    '8,p=0.3,1,0.11155846027505259,0.12903225806451613,0,0\n'
    '8,p=0.45,0,-0.06416626838673091,0.8387096774193549,0,0\n'
    '8,p=0.45,1,-0.057584144937383244,0.9354838709677419,0,0\n'
    ), "6127b1780e3c0f5ce0e280020a5fe1b421b7e1cf4f49af4c6aa14d699026254f"),
    "rel-groups": (["--family", "rel", "--inner-samples", "5"], (
    'n,group,seed,statistic,p_value,reject,runtime_ms\n'
    '8,p=0.3,0,0.03114886633005204,0.25806451612903225,0,0\n'
    '8,p=0.3,1,0.18955431082654203,0.16129032258064516,0,0\n'
    '8,p=0.45,0,-0.045007499079549554,0.9032258064516129,0,0\n'
    '8,p=0.45,1,-0.0433007831845037,0.9032258064516129,0,0\n'
    ), "dd2b451bfa66480fdc22b53b68e058fc518de6f040f9e08cc79bef6901eee753"),
}


class TestPinnedSweeps:
    @pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
    def test_bytes_unchanged(self, name, tmp_path, monkeypatch, capsys):
        flags, csv_text, summary_sha = PINNED_SWEEPS[name]
        monkeypatch.chdir(tmp_path)  # the summary records the --out path
        assert main(["sweep", *flags, "--delta-p-values", "0.0,0.25",
                     "--bootstrap", "30", "--seed", "11",
                     "--out", f"{name}.csv"]) == 0
        assert (tmp_path / f"{name}.csv").read_text() == csv_text
        summary = (tmp_path / f"{name}.summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == summary_sha

    @pytest.mark.parametrize("name", sorted(PINNED_DATASET_SWEEPS))
    def test_dataset_bytes_unchanged(self, name, tmp_path, monkeypatch,
                                     capsys):
        flags, csv_text, summary_sha = PINNED_DATASET_SWEEPS[name]
        monkeypatch.chdir(tmp_path)  # the summary records both paths
        samples = ["--inner-samples", "6"] if flags[1] == "rel" else []
        assert main(["toy-generate", "--n", "30", "--atoms", "0.3,0.45",
                     "--delta-p", "0.25", "--family", flags[1], *samples,
                     "--seed", "3", "--out", "data.jsonl"]) == 0
        assert main(["sweep", "--input", "data.jsonl", *flags,
                     "--n-seeds", "2", "--subsample-n", "8",
                     "--bootstrap", "30", "--seed", "11", "--workers", "1",
                     "--out", f"{name}.csv"]) == 0
        assert (tmp_path / f"{name}.csv").read_text() == csv_text
        summary = (tmp_path / f"{name}.summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == summary_sha


class TestWorkerBlasThreads:
    """Run `_init_worker` in a forked pool worker, as a sweep does."""

    @pytest.fixture(autouse=True)
    def needs_openblas(self):
        if sweep._openblas_function("get_num_threads") is None:
            pytest.skip("numpy's OpenBLAS exports no get_num_threads symbol")

    def worker_threads(self, workers: int) -> int:
        with ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("fork"),
                initializer=sweep._init_worker,
                initargs=(None, workers)) as pool:
            return pool.submit(_blas_threads).result(timeout=60)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_takes_its_cpu_share(self, monkeypatch, workers):
        for var in sweep._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        before = _blas_threads()
        cpus = len(os.sched_getaffinity(0))
        assert self.worker_threads(workers) == max(1, cpus // workers)
        assert _blas_threads() == before

    def test_user_thread_variable_is_left_alone(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert self.worker_threads(2) == _blas_threads()
