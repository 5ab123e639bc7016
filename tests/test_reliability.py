import math

import numpy as np
import pytest

from acmmd.estimator import acmmd_sq
from acmmd.kernels import KernelSpec, distribution_gram
from acmmd.records import Item, ReliabilityRecord
from acmmd.reliability import (acmmd_rel_sq, acmmd_rel_test,
                               default_inner_samples, rel_h_matrix)
from acmmd.toy import ToyConfig, generate_reliability_records

from conftest import brute_exp_hamming, brute_mmd_sq, random_tokens


def khat_gram(records, kp):
    """(khat values, resolved spec, MMD^2) over the records' sample sets."""
    return distribution_gram(kp, [r.model_samples for r in records])


def random_records(rng, n, r=4, max_len=4):
    out = []
    for _ in range(n):
        out.append(ReliabilityRecord(
            y=Item(tokens=random_tokens(rng, max_len)),
            y_model=Item(tokens=random_tokens(rng, max_len)),
            model_samples=[random_tokens(rng, max_len) for _ in range(r)],
        ))
    return out


class TestDefaultInnerSamples:
    @pytest.mark.parametrize("n,expected", [
        (1, 16), (16, 16), (100, 16), (256, 16), (257, 17), (1000, 32),
    ])
    def test_values(self, n, expected):
        assert default_inner_samples(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            default_inner_samples(0)


class TestKhatMatrix:
    def test_matches_scalar_mmd(self, rng):
        records = random_records(rng, 5, r=4)
        kp = KernelSpec("dist-expmmd", sigma=0.9,
                        inner=KernelSpec("exp-hamming", lam=1.0))
        values, resolved, mmd = khat_gram(records, kp)
        assert resolved.sigma == 0.9
        k_fn = lambda a, b: brute_exp_hamming(a, b, 1.0)
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                want_mmd = brute_mmd_sq(records[i].model_samples,
                                        records[j].model_samples, k_fn)
                assert mmd[i, j] == pytest.approx(
                    want_mmd, rel=1e-12, abs=1e-12)
                assert values[i, j] == pytest.approx(
                    math.exp(-want_mmd / (2 * 0.9 ** 2)), rel=1e-12)

    def test_small_sample_sets_get_unit_diagonal(self, rng):
        # The stored diagonal MMD is 0, hence khat 1, whatever the sample
        # count. No statistic reads it.
        records = random_records(rng, 3, r=2) + random_records(rng, 2, r=6)
        kp = KernelSpec("dist-expmmd", sigma=1.0,
                        inner=KernelSpec("exp-hamming"))
        values, _, mmd = khat_gram(records, kp)
        assert np.allclose(np.diag(mmd), 0.0)
        assert np.allclose(np.diag(values), 1.0)

    def test_requires_distribution_kernel(self, rng):
        ky = KernelSpec("exp-hamming")
        with pytest.raises(ValueError, match="distribution"):
            rel_h_matrix(random_records(rng, 2), ky, ky)


class TestRelHMatrix:
    def test_fast_path_matches_generic(self, rng):
        # rel_h_matrix must agree with khat times g built by double loops.
        records = []
        for _ in range(6):
            toks = lambda: random_tokens(rng, 4)
            records.append(ReliabilityRecord(
                y=Item(tokens=toks()), y_model=Item(tokens=toks()),
                model_samples=[toks() for _ in range(5)]))
        ky = KernelSpec("exp-hamming", lam=1.0)
        kp = KernelSpec("dist-expmmd", sigma=1.0, inner=ky)
        fast = rel_h_matrix(records, kp, ky)

        k_seq = lambda a, b: brute_exp_hamming(a, b, 1.0)
        k_fn = lambda a, b: k_seq(a.tokens, b.tokens)
        for i, ri in enumerate(records):
            for j, rj in enumerate(records):
                if i == j:
                    continue
                khat = math.exp(-brute_mmd_sq(ri.model_samples,
                                              rj.model_samples, k_seq) / 2.0)
                g = (k_fn(ri.y_model, rj.y_model) + k_fn(ri.y, rj.y)
                     - k_fn(ri.y_model, rj.y) - k_fn(ri.y, rj.y_model))
                assert fast.values[i, j] == pytest.approx(
                    khat * g, rel=1e-12, abs=1e-14)

    def test_median_sigma_matches_between_paths(self, rng):
        records = random_records(rng, 5, r=4)
        ky = KernelSpec("exp-hamming", lam=1.0)
        kp = KernelSpec("dist-expmmd", inner=ky)
        fast = rel_h_matrix(records, kp, ky)
        assert fast.kx == khat_gram(records, kp)[1]

    def test_requires_two_records(self, rng):
        ky = KernelSpec("exp-hamming")
        kp = KernelSpec("dist-expmmd", sigma=1.0, inner=ky)
        with pytest.raises(ValueError, match="at least 2"):
            rel_h_matrix(random_records(rng, 1), kp, ky)


class TestRelStatistic:
    def test_matches_manual_composition(self, rng):
        records = random_records(rng, 6, r=4)
        ky = KernelSpec("exp-hamming", lam=1.0)
        got = acmmd_rel_sq(records, ky, sigma=1.0)
        kp = KernelSpec("dist-expmmd", sigma=1.0, inner=ky)
        khat, _, _ = khat_gram(records, kp)
        k_fn = lambda a, b: brute_exp_hamming(a.tokens, b.tokens, 1.0)
        total = 0.0
        count = 0
        n = len(records)
        for i in range(n):
            for j in range(i + 1, n):
                ri, rj = records[i], records[j]
                g = (k_fn(ri.y_model, rj.y_model) + k_fn(ri.y, rj.y)
                     - k_fn(ri.y_model, rj.y) - k_fn(ri.y, rj.y_model))
                total += khat[i, j] * g
                count += 1
        assert got == pytest.approx(total / count, rel=1e-12, abs=1e-14)

    def test_perfect_outputs_give_zero(self, rng):
        records = []
        for _ in range(4):
            toks = random_tokens(rng, 3)
            records.append(ReliabilityRecord(
                y=Item(tokens=toks), y_model=Item(tokens=toks),
                model_samples=[random_tokens(rng, 3) for _ in range(4)]))
        assert acmmd_rel_sq(records, KernelSpec("exp-hamming"),
                            sigma=1.0) == 0.0


class TestOverflow:
    def test_tiny_median_sigma_raises(self):
        # The median sigma_p resolves to 0.0084, and exp(-MMD^2 /
        # (2 sigma_p^2)) overflows for the negative MMD^2 estimates: an
        # error, not a nan statistic.
        records = generate_reliability_records(ToyConfig(delta_p=0.25), 52,
                                               8, 3563980978)
        with pytest.raises(ValueError, match=r"sigma_p=0\.0083679.*-0\.14"):
            acmmd_rel_sq(records, KernelSpec("exp-hamming"))


class TestRelTest:
    def test_report_extras(self, rng):
        records = random_records(rng, 6, r=5)
        report = acmmd_rel_test(records, KernelSpec("exp-hamming", lam=1.0),
                                sigma=1.0, b_count=30, seed=3)
        assert report.extra["sigma_p"] == 1.0
        assert report.extra["inner_samples"] == 5
        assert report.n == 6
        assert report.kx.startswith("dist-expmmd")

    def test_mixed_sample_counts_reported_as_range(self, rng):
        records = random_records(rng, 3, r=4)
        records.append(ReliabilityRecord(
            y=Item(tokens=("A",)), y_model=Item(tokens=("B",)),
            model_samples=[random_tokens(rng) for _ in range(7)]))
        report = acmmd_rel_test(records, KernelSpec("exp-hamming"),
                                sigma=1.0, b_count=20, seed=0)
        assert report.extra["inner_samples"] == "4..7"

    def test_deterministic(self, rng):
        records = random_records(rng, 5, r=4)
        ky = KernelSpec("exp-hamming", lam=1.0)
        a = acmmd_rel_test(records, ky, sigma=1.0, b_count=40, seed=8)
        b = acmmd_rel_test(records, ky, sigma=1.0, b_count=40, seed=8)
        assert a.to_json() == b.to_json()

    def test_statistic_matches_library_value(self, rng):
        records = random_records(rng, 5, r=4)
        ky = KernelSpec("exp-hamming", lam=1.0)
        report = acmmd_rel_test(records, ky, sigma=0.8, b_count=20, seed=0)
        assert report.statistic == pytest.approx(
            acmmd_rel_sq(records, ky, sigma=0.8), rel=1e-14)
