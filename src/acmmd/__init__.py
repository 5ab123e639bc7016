"""Kernel-based goodness-of-fit and reliability tests for conditional
sequence models.

The statistic compares paired data and model outputs that share the same
conditioning input: an input kernel weighs record pairs, an output kernel
scores agreement, and the average over record pairs is an unbiased estimate
of a squared discrepancy that vanishes exactly when the model matches the
data's conditional law. A wild bootstrap with a randomized decision rule
turns the statistic into a test with exact level. The reliability variant
replaces the input kernel with a kernel on the model's own sampled
predictive distributions, testing calibration rather than fit.
"""

from .errors import AcmmdError, ConfigError, DataError
from .estimator import (HMatrix, acmmd_sq, acmmd_sq_from_triplets, h_matrix,
                        sigma_h_sq)
from .kernels import (KernelSpec, distribution_gram, gram, mean_pool,
                      mmd_sq_matrix, mmd_sq_unbiased)
from .records import Item, ReliabilityRecord, Triplet
from .reliability import (acmmd_rel_sq, acmmd_rel_test, default_inner_samples,
                          rel_h_matrix)
from .sequences import Alphabet
from .testing import (BootstrapDraws, DecisionResult, TestReport, acmmd_test,
                      quantile_index, randomized_decision, wild_bootstrap)
from .toy import (TOY_ALPHABET, ToyConfig, ToyPrior, acmmd_rel_sq_exact,
                  acmmd_sq_exact, generate_reliability_records,
                  generate_triplets, mmd_sq_models_exact)

__version__ = "0.1.0"

__all__ = [
    "AcmmdError", "ConfigError", "DataError",
    "Alphabet", "Item", "Triplet", "ReliabilityRecord",
    "KernelSpec", "mean_pool", "gram", "mmd_sq_unbiased", "mmd_sq_matrix",
    "distribution_gram",
    "HMatrix", "h_matrix", "acmmd_sq", "acmmd_sq_from_triplets",
    "sigma_h_sq",
    "BootstrapDraws", "DecisionResult", "TestReport", "wild_bootstrap",
    "quantile_index", "randomized_decision", "acmmd_test",
    "rel_h_matrix", "acmmd_rel_sq", "acmmd_rel_test", "default_inner_samples",
    "ToyPrior", "ToyConfig", "TOY_ALPHABET", "generate_triplets",
    "generate_reliability_records", "acmmd_sq_exact", "mmd_sq_models_exact",
    "acmmd_rel_sq_exact",
    "__version__",
]
