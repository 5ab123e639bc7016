"""Two-symbol stochastic sequence process with closed-form discrepancies.

The data process emits symbol A with probability p, symbol B with
probability p, and terminates with probability 1 - 2p, independently at
each position; sequence lengths are therefore geometric. The model under
test reproduces this process exactly except at the first position, where
symbol A loses delta_p of probability mass to symbol B. Conditioning
inputs are the scalar p itself, drawn from a finite weighted set of atoms.

Because both laws are products of simple per-position distributions, the
population values of every statistic in this package reduce to geometric
series and are available in closed form here. That makes the process the
package's reference instance: estimator output can be compared against
exact targets, and delta_p = 0 yields a model that is both well specified
and reliable, which calibrates the tests' null behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import SK_DATA, generator
from .kernels import KernelSpec
from .records import Item, ReliabilityRecord, Triplet
from .sequences import Alphabet

TOY_SYMBOLS = ("A", "B")
TOY_ALPHABET = Alphabet(("A", "B", "STOP"), terminal="STOP")


@dataclass(frozen=True)
class ToyPrior:
    """Finite mixture over the continuation probability p.

    Attributes:
        atoms: the distinct p values, each in (0, 0.5) so that both symbol
            probabilities and the termination probability stay positive.
        weights: mixture weights, normalized at construction.
    """

    atoms: tuple[float, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        atoms = tuple(float(p) for p in self.atoms)
        if not atoms:
            raise ValueError("prior needs at least one atom")
        for p in atoms:
            if not 0.0 < p < 0.5:
                raise ValueError(f"atom {p} outside (0, 0.5)")
        object.__setattr__(self, "atoms", atoms)
        if self.weights is None:
            weights = (1.0 / len(atoms),) * len(atoms)
        else:
            weights = tuple(float(w) for w in self.weights)
            if len(weights) != len(atoms):
                raise ValueError("weights and atoms differ in length")
            if not all(0 < w < math.inf for w in weights):
                raise ValueError("weights must be positive and finite")
            total = math.fsum(weights)
            weights = tuple(w / total for w in weights)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def default() -> "ToyPrior":
        """Five equally spaced, equally weighted atoms from 0.3 to 0.45."""
        return ToyPrior(atoms=(0.3, 0.3375, 0.375, 0.4125, 0.45))


@dataclass(frozen=True)
class ToyConfig:
    """Full description of one toy-process instance.

    Attributes:
        prior: mixture over p.
        delta_p: first-position mass moved from A to B by the model;
            0 means the model equals the data process. Must not exceed the
            smallest atom, or the model's A probability would go negative.
        lam: decay of the exponentiated-Hamming output kernel the closed
            forms assume.
        kx_sigma: bandwidth of the Gaussian input kernel on the scalar p.
    """

    prior: ToyPrior = field(default_factory=ToyPrior.default)
    delta_p: float = 0.0
    lam: float = 1.0
    kx_sigma: float = 1.0

    def __post_init__(self):
        if not self.delta_p >= 0:
            raise ValueError("delta_p must be nonnegative")
        if self.delta_p > min(self.prior.atoms):
            raise ValueError("delta_p exceeds the smallest atom")
        if not 0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if not 0 < self.kx_sigma < math.inf:
            raise ValueError("kx_sigma must be positive and finite")

    @property
    def kx(self) -> KernelSpec:
        return KernelSpec("gaussian", sigma=self.kx_sigma)

    @property
    def ky(self) -> KernelSpec:
        return KernelSpec("exp-hamming", lam=self.lam)

    def with_delta_p(self, delta_p: float) -> "ToyConfig":
        return replace(self, delta_p=delta_p)


# ---------------------------------------------------------------------------
# Sampling


def _split_tokens(lens: np.ndarray, bits: np.ndarray) -> list[tuple[str, ...]]:
    """Cut a flat 0/1 symbol stream into per-row token tuples."""
    toks = np.array(TOY_SYMBOLS, dtype=object)[bits]
    offsets = np.concatenate(([0], np.cumsum(lens)))
    return [tuple(toks[offsets[i]:offsets[i + 1]]) for i in range(len(lens))]


def sample_data_sequences(p_arr: np.ndarray, rng: np.random.Generator
                          ) -> list[tuple[str, ...]]:
    """One data-process sequence per entry of p_arr.

    Lengths come from one geometric draw per row, symbols from a flat
    stream of fair bits; given survival, A and B are equally likely.
    """
    p_arr = np.asarray(p_arr, dtype=np.float64)
    lens = rng.geometric(1.0 - 2.0 * p_arr) - 1
    bits = rng.integers(0, 2, size=int(lens.sum()))
    return _split_tokens(lens, bits)


def sample_model_sequences(p_arr: np.ndarray, delta_p: float,
                           rng: np.random.Generator) -> list[tuple[str, ...]]:
    """One model sequence per entry of p_arr.

    The first position uses the perturbed split (A: p - delta_p,
    B: p + delta_p, stop: 1 - 2p); conditioned on survival the rest of the
    sequence follows the data process, so only a tail draw is needed.
    Tail lengths and bits are drawn for every row regardless of whether the
    first position survived, which keeps the stream layout independent of
    the outcomes.
    """
    p_arr = np.asarray(p_arr, dtype=np.float64)
    n = len(p_arr)
    u = rng.random(n)
    tail_lens = rng.geometric(1.0 - 2.0 * p_arr) - 1
    tail_bits = rng.integers(0, 2, size=int(tail_lens.sum()))
    tails = _split_tokens(tail_lens, tail_bits)
    has_first = u >= 1.0 - 2.0 * p_arr
    first_is_b = u >= 1.0 - p_arr - delta_p
    out: list[tuple[str, ...]] = []
    for i in range(n):
        if not has_first[i]:
            out.append(())
        else:
            first = "B" if first_is_b[i] else "A"
            out.append((first,) + tails[i])
    return out


def sample_inputs(prior: ToyPrior, n: int, rng: np.random.Generator
                  ) -> np.ndarray:
    """n draws of p from the prior."""
    idx = rng.choice(len(prior.atoms), size=n, p=np.asarray(prior.weights))
    return np.asarray(prior.atoms, dtype=np.float64)[idx]


def generate_triplets(config: ToyConfig, n: int, seed) -> list[Triplet]:
    """n records (x=p, y ~ data process, y_model ~ model) for testing.

    Draw order is fixed (inputs, then data outputs, then model outputs), so
    a given seed always yields the same records.
    """
    if n < 0:
        raise ValueError("record count must be nonnegative")
    rng = generator(seed, SK_DATA)
    p_arr = sample_inputs(config.prior, n, rng)
    ys = sample_data_sequences(p_arr, rng)
    yms = sample_model_sequences(p_arr, config.delta_p, rng)
    return [
        Triplet(x=Item(scalar=p), y=Item(tokens=y), y_model=Item(tokens=ym),
                group=f"p={p:g}")
        for p, y, ym in zip(p_arr, ys, yms)
    ]


def generate_reliability_records(config: ToyConfig, n: int,
                                 inner_samples: int, seed
                                 ) -> list[ReliabilityRecord]:
    """n reliability records with `inner_samples` extra model draws each.

    Draw order is fixed: inputs, data outputs, model outputs, then the flat
    block of per-record model samples.
    """
    if n < 0:
        raise ValueError("record count must be nonnegative")
    if inner_samples < 2:
        raise ValueError("need at least 2 model samples per record")
    rng = generator(seed, SK_DATA)
    p_arr = sample_inputs(config.prior, n, rng)
    ys = sample_data_sequences(p_arr, rng)
    yms = sample_model_sequences(p_arr, config.delta_p, rng)
    p_rep = np.repeat(p_arr, inner_samples)
    flat = sample_model_sequences(p_rep, config.delta_p, rng)
    records = []
    for i in range(n):
        block = flat[i * inner_samples:(i + 1) * inner_samples]
        records.append(ReliabilityRecord(
            y=Item(tokens=ys[i]), y_model=Item(tokens=yms[i]),
            model_samples=block,
            x=Item(scalar=p_arr[i]), group=f"p={p_arr[i]:g}"))
    return records


# ---------------------------------------------------------------------------
# Closed forms
#
# All expectations below are geometric series over pairs of sequence laws
# under the exponentiated-Hamming kernel with terminal padding. For
# p, p2 in (0, 0.5) and lam > 0 every denominator is strictly positive.


def _suffix_bracket(p: float, p2: float, lam: float) -> tuple[float, float]:
    """Shared pieces of the series: the pair denominator and suffix sum."""
    for v in (p, p2):
        if not 0.0 < v < 0.5:
            raise ValueError(f"p={v} outside (0, 0.5)")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    el = math.exp(-lam)
    denom = 1.0 - 2.0 * p * p2 * (1.0 + el)
    bracket = (2.0 * p2 * el / (1.0 - 2.0 * p2 * el)
               + 2.0 * p * el / (1.0 - 2.0 * p * el)
               + 1.0)
    return denom, bracket


def _pair_sensitivity(p: float, p2: float, lam: float) -> float:
    """Expected kernel response, per unit delta_p^2, for one atom pair."""
    denom, bracket = _suffix_bracket(p, p2, lam)
    el = math.exp(-lam)
    return (2.0 * (1.0 - el)
            * (1.0 - 2.0 * p) * (1.0 - 2.0 * p2) / denom * bracket)


def _model_pair_mean(p: float, p2: float, lam: float, delta_p: float) -> float:
    """E[k(Y, Y')] for independent model draws at atoms p and p2."""
    denom, bracket = _suffix_bracket(p, p2, lam)
    el = math.exp(-lam)
    survive_both = ((1.0 - 2.0 * p) * (1.0 - 2.0 * p2)
                    * 4.0 * p * p2 / denom * bracket)
    first_match = ((2.0 * p * p2 + 2.0 * delta_p * delta_p)
                   / (4.0 * p * p2) * (1.0 - el) + el)
    stop_terms = (1.0 - 2.0 * p) * (1.0 - 2.0 * p2) * bracket
    return survive_both * first_match + stop_terms


def mmd_sq_models_exact(p: float, p2: float, lam: float,
                        delta_p: float) -> float:
    """Exact squared MMD between the model laws at atoms p and p2."""
    return (_model_pair_mean(p, p, lam, delta_p)
            + _model_pair_mean(p2, p2, lam, delta_p)
            - 2.0 * _model_pair_mean(p, p2, lam, delta_p))


def acmmd_sq_exact(config: ToyConfig) -> float:
    """Exact population value of the goodness-of-fit statistic.

    The value factors as delta_p^2 times a prior- and kernel-dependent
    constant, so it is exactly 0 for the unperturbed model and grows
    quadratically in the perturbation.
    """
    total = 0.0
    prior = config.prior
    sigma = config.kx_sigma
    for p, w in zip(prior.atoms, prior.weights):
        for p2, w2 in zip(prior.atoms, prior.weights):
            kx = float(np.exp(-(p - p2) ** 2 / (2.0 * sigma * sigma)))
            total += w * w2 * kx * _pair_sensitivity(p, p2, config.lam)
    return total * config.delta_p ** 2


def acmmd_rel_sq_exact(config: ToyConfig, sigma_p: float) -> float:
    """Exact population value of the reliability statistic.

    Identical to `acmmd_sq_exact` except that atom pairs are weighted by
    the distribution kernel between the two model laws (bandwidth sigma_p)
    instead of the Gaussian on p.
    """
    if not sigma_p > 0:
        raise ValueError("sigma_p must be positive")
    total = 0.0
    prior = config.prior
    for p, w in zip(prior.atoms, prior.weights):
        for p2, w2 in zip(prior.atoms, prior.weights):
            kp = math.exp(-mmd_sq_models_exact(p, p2, config.lam, config.delta_p)
                          / (2.0 * sigma_p * sigma_p))
            total += w * w2 * kp * _pair_sensitivity(p, p2, config.lam)
    return total * config.delta_p ** 2
