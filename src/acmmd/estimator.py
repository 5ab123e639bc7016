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

from .kernels import KernelSpec, difference_gram, gram, resolve_spec


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


def h_matrix(triplets, kx: KernelSpec, ky: KernelSpec) -> HMatrix:
    """All pairwise h values for a list of (x, y, y_model) records.

    Median bandwidths resolve over this dataset: kx over the inputs, ky over
    the union of data and model outputs.

    Raises:
        ValueError: fewer than 2 records.
    """
    triplets = list(triplets)
    if len(triplets) < 2:
        raise ValueError("need at least 2 records")
    xs = [t.x for t in triplets]
    kx = resolve_spec(kx, xs)
    # g first: the output Grams' peak then does not add the input Gram.
    g, ky = difference_gram(ky, [t.y_model for t in triplets],
                            [t.y for t in triplets])
    return h_matrix_from_grams(gram(kx, xs), g, kx, ky)


def h_matrix_from_grams(kx_gram: np.ndarray, g: np.ndarray,
                        kx: KernelSpec, ky: KernelSpec) -> HMatrix:
    """Assemble h = kx_gram * g from the input Gram and the output term.

    g is `difference_gram` of ky over the model outputs and the data
    outputs. It is exactly symmetric, and so is h. Every h path ends here:
    the GoF and reliability record adapters and the toy sweep's columns.
    """
    return HMatrix(values=kx_gram * g, kx=kx, ky=ky)


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
