"""Record order does not change the h matrix or the statistics.

Permuting the records permutes h exactly. The statistics sum h in another
order, so they agree to 1e-12 relative, measured against the size of h
(a statistic near 0 through cancellation gets no tighter bound than that).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acmmd.estimator import acmmd_sq, h_matrix, sigma_h_sq
from acmmd.kernels import KernelSpec
from acmmd.reliability import (acmmd_rel_sq, default_inner_samples,
                               rel_h_matrix)
from acmmd.toy import ToyConfig, generate_reliability_records, generate_triplets

CONFIG = ToyConfig(delta_p=0.25)
sizes_and_seeds = (st.integers(3, 59), st.integers(0, 2**32 - 1))


def close(a, b, scale):
    return a == pytest.approx(b, rel=1e-12, abs=1e-12 * scale)


@given(*sizes_and_seeds)
@settings(max_examples=20, deadline=None)
def test_permuting_records_permutes_h(n, seed):
    triplets = generate_triplets(CONFIG, n, seed)
    perm = np.random.default_rng(seed).permutation(n)
    h = h_matrix(triplets, CONFIG.kx, CONFIG.ky).values
    h_perm = h_matrix([triplets[i] for i in perm], CONFIG.kx, CONFIG.ky).values
    assert np.array_equal(h_perm, h[perm][:, perm])
    size = np.abs(h).max()
    assert close(acmmd_sq(h_perm), acmmd_sq(h), size)
    assert close(sigma_h_sq(h_perm), sigma_h_sq(h), size ** 2)


@given(*sizes_and_seeds)
@settings(max_examples=20, deadline=None)
def test_permuting_records_keeps_reliability_statistic(n, seed):
    records = generate_reliability_records(
        CONFIG, n, default_inner_samples(n), seed)
    perm = np.random.default_rng(seed).permutation(n)
    kp = KernelSpec("dist-expmmd", sigma="median", inner=CONFIG.ky)
    size = np.abs(rel_h_matrix(records, kp, CONFIG.ky).values).max()
    assert close(acmmd_rel_sq([records[i] for i in perm], CONFIG.ky),
                 acmmd_rel_sq(records, CONFIG.ky), size)
