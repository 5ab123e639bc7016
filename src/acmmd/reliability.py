"""Reliability (calibration) testing against the model's own samples.

Instead of comparing model outputs to data outputs conditioned on inputs,
each record carries extra samples drawn from the model at the same input,
and those sample sets play the role of the conditioning side: records are
compared through a kernel on the sampled distributions,

    khat(i, j) = exp(-MMD^2(samples_i, samples_j) / (2 sigma_p^2)),

with the MMD estimated unbiasedly from the samples. The h matrix then uses
khat in place of the input kernel, so a model is flagged when outputs and
model outputs disagree in a way that correlates with the model's own
predictive distribution.
"""

from __future__ import annotations

import math

from .estimator import HMatrix, acmmd_sq, h_matrix
from .kernels import DISTRIBUTION_KINDS, KernelSpec
# Re-exported from testing: inner_samples_summary, rel_report_fields.
from .testing import (TestReport, acmmd_test, inner_samples_summary,
                      rel_report_fields)


def default_inner_samples(n: int) -> int:
    """Default per-record model-sample count: max(16, ceil(sqrt(n)))."""
    if n < 1:
        raise ValueError("need at least 1 record")
    return max(16, math.isqrt(n - 1) + 1)


def rel_h_matrix(records, kp: KernelSpec, ky: KernelSpec) -> HMatrix:
    """`h_matrix` with a distribution kernel: khat, the `kp` (dist-expmmd)
    Gram over the records' model-sample sets, is the input Gram.

    Raises:
        ValueError: fewer than 2 records, or `kp` not a distribution kernel.
    """
    if kp.kind not in DISTRIBUTION_KINDS:
        raise ValueError(f"not a distribution kernel: {kp.kind}")
    return h_matrix(records, kp, ky)


def acmmd_rel_sq(records, ky: KernelSpec,
                 sigma: float | str = "median") -> float:
    """Unbiased squared reliability discrepancy over the records.

    Args:
        records: ReliabilityRecords (>= 2 model samples each).
        ky: kernel on individual outputs, also the MMD's inner kernel.
        sigma: bandwidth of the distribution kernel ('median' for the
            heuristic over the estimated inter-record MMDs).
    """
    kp = KernelSpec("dist-expmmd", sigma=sigma, inner=ky)
    return acmmd_sq(h_matrix(records, kp, ky))


def acmmd_rel_test(records, ky: KernelSpec, sigma: float | str = "median",
                   alpha: float = 0.05, b_count: int = 100,
                   seed=0) -> TestReport:
    """Reliability test: `acmmd_test` with khat as the input kernel.

    Args:
        records: ReliabilityRecords.
        ky: kernel on individual outputs, also the MMD's inner kernel.
        sigma: bandwidth of the distribution kernel, as in `acmmd_rel_sq`.
        alpha, b_count, seed: as in `acmmd_test`.
    """
    kp = KernelSpec("dist-expmmd", sigma=sigma, inner=ky)
    return acmmd_test(records, kp, ky, alpha=alpha, b_count=b_count,
                      seed=seed)
