"""Record order does not change the h matrix or the statistics.

Permuting the records permutes h exactly, and h is exactly symmetric. The
statistics and the bootstrap draws sum h in another order, so they agree to
1e-12 relative, measured against the size of h (a statistic near 0 through
cancellation gets no tighter bound than that).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acmmd.estimator import acmmd_sq, h_matrix, sigma_h_sq
from acmmd.kernels import KernelSpec
from acmmd.reliability import (acmmd_rel_sq, default_inner_samples,
                               rel_h_matrix)
from acmmd.testing import rademacher_signs, wild_bootstrap
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
    assert np.array_equal(h, h.T)
    assert np.array_equal(h_perm, h[perm][:, perm])
    size = np.abs(h).max()
    assert close(acmmd_sq(h_perm), acmmd_sq(h), size)
    assert close(sigma_h_sq(h_perm), sigma_h_sq(h), size ** 2)

    # Draw b on the permuted records is draw b on the original records
    # with its signs permuted back.
    draws = wild_bootstrap(h_perm, 10, seed).values
    for b, draw in enumerate(draws):
        u = rademacher_signs(seed, b, n)[np.argsort(perm)]
        assert close(draw, (u @ h @ u - np.trace(h)) / (n * (n - 1)), size)


@given(*sizes_and_seeds)
@settings(max_examples=20, deadline=None)
# A tiny median sigma_p makes khat huge: at these draws an asymmetric h,
# or an MMD^2 matrix that did not permute with the records, once moved the
# statistic beyond the bound.
@example(11, 299)
@example(6, 870)
@example(16, 301)
# Here the median sigma_p is so small that khat overflows in either order.
@example(29, 2612371)
def test_permuting_records_keeps_reliability_statistic(n, seed):
    records = generate_reliability_records(
        CONFIG, n, default_inner_samples(n), seed)
    perm = np.random.default_rng(seed).permutation(n)
    kp = KernelSpec("dist-expmmd", sigma="median", inner=CONFIG.ky)
    try:
        h = rel_h_matrix(records, kp, CONFIG.ky).values
    except ValueError as error:
        assert "khat overflows" in str(error)
        with pytest.raises(ValueError) as permuted:
            rel_h_matrix([records[i] for i in perm], kp, CONFIG.ky)
        assert str(permuted.value) == str(error)
        return
    h_perm = rel_h_matrix([records[i] for i in perm], kp, CONFIG.ky).values
    assert np.array_equal(h, h.T)
    assert np.array_equal(h_perm, h[perm][:, perm])
    size = np.abs(h).max()
    assert close(acmmd_rel_sq([records[i] for i in perm], CONFIG.ky),
                 acmmd_rel_sq(records, CONFIG.ky), size)
