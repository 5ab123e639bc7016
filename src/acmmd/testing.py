"""Wild-bootstrap hypothesis test with an exactly calibrated decision rule.

The null distribution of the statistic is approximated by sign-flipped
recomputations of the U-statistic: draw Rademacher signs w and evaluate
(w' H w - tr H) / (N (N - 1)). The decision pools the B draws with the
observed statistic, ranks the statistic among the B + 1 values with random
tie-breaking, and rejects above a quantile position, randomizing at the
boundary so the rejection probability under the null is exactly alpha.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._rng import SK_BOOTSTRAP, SK_DECISION, as_seed_sequence, generator
from .estimator import HMatrix, acmmd_sq, h_matrix, sigma_h_sq
from .kernels import KernelSpec


@dataclass(frozen=True)
class BootstrapDraws:
    """Sign-flip recomputations of the statistic under the null.

    Attributes:
        values: (B,) float64 array, one value per sign vector.
    """

    values: np.ndarray


@dataclass(frozen=True)
class DecisionTrace:
    """How the randomized decision came out, for reproducibility audits.

    Attributes:
        position: 1-based rank of the statistic in the pooled sample after
            random tie-breaking.
        quantile_position: the 1-based cutoff position b_alpha.
        gamma: boundary rejection probability; 0 when (1-alpha)(B+1) is an
            integer.
        tie_break: uniform draw compared against gamma when the statistic
            lands exactly on the cutoff; None otherwise.
    """

    position: int
    quantile_position: int
    gamma: float
    tie_break: float | None


@dataclass(frozen=True)
class DecisionResult:
    reject: bool
    p_value: float
    threshold: float
    trace: DecisionTrace


@dataclass(frozen=True)
class TestReport:
    """Full outcome of one hypothesis test.

    Attributes:
        statistic: the unbiased squared-discrepancy estimate.
        p_value: (1 + #{draws >= statistic}) / (B + 1); boundary-inclusive,
            so it never reports 0.
        reject: outcome of the exactly calibrated randomized rule.
        threshold: pooled value at the cutoff position, for reporting only.
        n: number of records.
        bootstrap: number of sign-flip draws B.
        alpha: nominal level.
        kx, ky: resolved kernel descriptions.
        sigma_h_sq: variance proxy when computed (None for N < 3).
        trace: decision internals.
    """

    statistic: float
    p_value: float
    reject: bool
    threshold: float
    n: int
    bootstrap: int
    alpha: float
    kx: str
    ky: str
    sigma_h_sq: float | None = None
    trace: DecisionTrace | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "reject": bool(self.reject),
            "threshold": self.threshold,
            "n": self.n,
            "bootstrap": self.bootstrap,
            "alpha": self.alpha,
            "kernel_x": self.kx,
            "kernel_y": self.ky,
        }
        if self.sigma_h_sq is not None:
            out["sigma_h_sq"] = self.sigma_h_sq
        if self.trace is not None:
            out["decision"] = {
                "position": self.trace.position,
                "quantile_position": self.trace.quantile_position,
                "gamma": self.trace.gamma,
                "tie_break": self.trace.tie_break,
            }
        out.update(self.extra)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def rademacher_signs(seed, replicate: int, n: int) -> np.ndarray:
    """Signs in {-1, +1} for one bootstrap replicate, independent per index."""
    rng = generator(seed, SK_BOOTSTRAP, replicate)
    return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0


def wild_bootstrap(h: HMatrix | np.ndarray, b_count: int, seed
                   ) -> BootstrapDraws:
    """B sign-flip recomputations (w' H w - tr H) / (N (N - 1)).

    Each replicate derives its own sign stream from `seed`, so draw b is
    the same no matter how many replicates run or in what order.
    """
    values = h.values if isinstance(h, HMatrix) else np.asarray(h, dtype=np.float64)
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 records")
    if b_count < 1:
        raise ValueError("need at least 1 bootstrap draw")
    signs = np.empty((b_count, n), dtype=np.float64)
    for b in range(b_count):
        signs[b] = rademacher_signs(seed, b, n)
    # Row b of (S H * S) sums to w_b' H w_b.
    quad = ((signs @ values) * signs).sum(axis=1)
    draws = (quad - np.trace(values)) / (n * (n - 1.0))
    return BootstrapDraws(values=draws)


def quantile_index(alpha: float, b_count: int) -> tuple[int, float]:
    """Cutoff position b_alpha = ceil((1-alpha)(B+1)) and boundary gamma.

    Evaluated in exact rational arithmetic on the decimal form of alpha, so
    e.g. alpha=0.05, B=99 gives position 95 with gamma 0 rather than
    tripping over binary rounding.

    Returns:
        (b_alpha, gamma) with gamma = b_alpha - (1-alpha)(B+1), in [0, 1).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    target = (1 - Fraction(repr(float(alpha)))) * (b_count + 1)
    b_alpha = int(math.ceil(target))
    gamma = float(b_alpha - target)
    return b_alpha, gamma


def min_bootstrap_count(alpha: float) -> int:
    """Smallest B for which the cutoff can fall inside the pooled sample."""
    return int(math.ceil(1 / Fraction(repr(float(alpha))))) - 1


def randomized_decision(statistic: float, draws: BootstrapDraws | np.ndarray,
                        alpha: float, seed) -> DecisionResult:
    """Exactly level-alpha accept/reject decision from pooled draws.

    The statistic is pooled with the B draws and ranked with uniform random
    tie-breaking; reject when its 1-based position exceeds b_alpha, and with
    probability gamma when it sits exactly at b_alpha. Tie-break and
    boundary uniforms come from a decision-specific stream of `seed`.
    """
    values = draws.values if isinstance(draws, BootstrapDraws) else np.asarray(draws)
    b_count = len(values)
    b_alpha, gamma = quantile_index(alpha, b_count)
    if b_count < min_bootstrap_count(alpha):
        warnings.warn(
            f"bootstrap count {b_count} is below the minimum "
            f"{min_bootstrap_count(alpha)} for alpha={alpha}; "
            "the test cannot reject", stacklevel=2)

    pooled = np.concatenate([values, [statistic]])
    rng = generator(seed, SK_DECISION)
    tie_keys = rng.random(b_count + 1)
    order = np.lexsort((tie_keys, pooled))
    position = int(np.nonzero(order == b_count)[0][0]) + 1

    threshold = float(np.sort(pooled)[b_alpha - 1])
    p_value = float((1 + np.count_nonzero(values >= statistic)) / (b_count + 1))

    tie_break = None
    if position > b_alpha:
        reject = True
    elif position == b_alpha and gamma > 0:
        tie_break = float(rng.random())
        reject = tie_break < gamma
    else:
        reject = False
    return DecisionResult(
        reject=reject, p_value=p_value, threshold=threshold,
        trace=DecisionTrace(position=position, quantile_position=b_alpha,
                            gamma=gamma, tie_break=tie_break))


def test_from_h(h: HMatrix, alpha: float, b_count: int, seed,
                extra: dict | None = None) -> TestReport:
    """Statistic, bootstrap, and decision for an assembled h matrix."""
    seed = as_seed_sequence(seed)
    statistic = acmmd_sq(h)
    draws = wild_bootstrap(h, b_count, seed)
    decision = randomized_decision(statistic, draws, alpha, seed)
    variance = None
    if h.n >= 3:
        variance = sigma_h_sq(h)
    return TestReport(
        statistic=statistic, p_value=decision.p_value, reject=decision.reject,
        threshold=decision.threshold, n=h.n, bootstrap=b_count, alpha=alpha,
        kx=h.kx.to_string(), ky=h.ky.to_string(), sigma_h_sq=variance,
        trace=decision.trace, extra=dict(extra or {}))


def acmmd_test(triplets, kx: KernelSpec, ky: KernelSpec, alpha: float = 0.05,
               b_count: int = 100, seed=0) -> TestReport:
    """Conditional goodness-of-fit test on (x, y, y_model) records.

    Args:
        triplets: the records.
        kx: input kernel; 'median' bandwidths resolve on this dataset.
        ky: output kernel.
        alpha: nominal level in (0, 1).
        b_count: number of wild-bootstrap draws.
        seed: integer or SeedSequence; fixes signs and tie-breaking.
    """
    h = h_matrix(triplets, kx, ky)
    return test_from_h(h, alpha, b_count, seed)
