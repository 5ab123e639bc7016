"""Unbiased conditional goodness-of-fit statistic from paired outputs.

For each record the data output and the model output share the same input,
and the statistic aggregates kernel agreement between records: inputs close
under the input kernel contribute more. The per-pair term is

    h(z1, z2) = kx(x1, x2) * g(z1, z2),
    g = ky(ym1, ym2) + ky(y1, y2) - ky(ym1, y2) - ky(y1, ym2),

and the estimate averages h over unordered record pairs, which makes it
unbiased for the population value. Negative estimates are legitimate and
are never clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .kernels import (DISTRIBUTION_KINDS, KernelSpec, difference_gram,
                      distribution_gram, gram)


@dataclass(frozen=True)
class HMatrix:
    """Pairwise h values plus the kernels that produced them.

    Attributes:
        values: (N, N) symmetric float64 matrix of h(z_i, z_j). The diagonal
            is populated for completeness but excluded from every statistic.
        kx: resolved input kernel (numeric bandwidth).
        ky: resolved output kernel.
    """

    values: np.ndarray
    kx: KernelSpec
    ky: KernelSpec

    @property
    def n(self) -> int:
        return len(self.values)


def h_from_columns(kx: KernelSpec, inputs, ky: KernelSpec, y_model, y
                   ) -> HMatrix:
    """All pairwise h values from the columns of N records.

    The kind of `kx` picks the input Gram: khat (`distribution_gram`) over
    one sample set per record for dist-expmmd, `gram` over the inputs for
    any other kind. Median bandwidths resolve over this data, ky's over the
    model and data outputs together. h is exactly symmetric.

    Raises:
        ValueError: fewer than 2 records, or not one input per record.
    """
    if len(y) < 2:
        raise DataError("need at least 2 records")
    if len(inputs) != len(y):
        raise ValueError(f"{len(inputs)} inputs for {len(y)} records")
    # The side with the larger transient goes first, so that its peak does
    # not add to the other side's result: the MMD^2 panels for khat, the
    # vocabulary gathers for g.
    if kx.kind in DISTRIBUTION_KINDS:
        kx_gram, kx = distribution_gram(kx, inputs)
        g, ky = difference_gram(ky, y_model, y)
    else:
        g, ky = difference_gram(ky, y_model, y)
        kx_gram, kx = gram(kx, inputs)
    return HMatrix(values=kx_gram * g, kx=kx, ky=ky)


def h_matrix(records, kx: KernelSpec, ky: KernelSpec) -> HMatrix:
    """`h_from_columns` over records: their model samples are the inputs
    for a dist-expmmd `kx` (khat, reliability), their `x` for any other.

    Raises:
        ValueError: fewer than 2 records, or a record without that column.
    """
    column = "model_samples" if kx.kind in DISTRIBUTION_KINDS else "x"
    records = list(records)
    inputs = [getattr(r, column, None) for r in records]
    if any(v is None for v in inputs):
        raise ValueError(f"a {kx.kind} kx needs records with {column}")
    return h_from_columns(kx, inputs, ky, [r.y_model for r in records],
                          [r.y for r in records])


def acmmd_sq(h: HMatrix | np.ndarray) -> float:
    """Unbiased squared-discrepancy estimate: mean of h over i < j pairs."""
    values = h.values if isinstance(h, HMatrix) else np.asarray(h)
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 records")
    return float(values[~np.tri(n, dtype=bool)].mean())  # the pairs i < j


def sigma_h_sq(h: HMatrix | np.ndarray) -> float:
    """Asymptotic variance proxy: 4 * sample variance of the h row means.

    Row means exclude the diagonal; the sample variance uses ddof=1.

    Raises:
        ValueError: fewer than 3 records (the variance needs 3).
    """
    values = h.values if isinstance(h, HMatrix) else np.asarray(h)
    n = len(values)
    if n < 3:
        raise ValueError("need at least 3 records")
    row_means = (values.sum(axis=1) - np.diag(values)) / (n - 1)
    return float(4.0 * np.var(row_means, ddof=1))


def acmmd_sq_from_triplets(triplets, kx: KernelSpec, ky: KernelSpec) -> float:
    """Convenience wrapper: build the h matrix and average it."""
    return acmmd_sq(h_matrix(triplets, kx, ky))
