"""Observation records: conditioned triplets and reliability records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .sequences import Tokens


def _array_or_none(value, ndim: int) -> np.ndarray | None:
    if value is None:
        return None
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entries in array field")
    return arr


def _as_tokens(value) -> Tokens:
    """`value` as a token tuple; tokens must be strings (str subclasses pass)."""
    if isinstance(value, str):
        raise ValueError("tokens must be a sequence of strings, not a string")
    tokens = tuple(value)
    if not all(map(isinstance, tokens, repeat(str))):
        raise ValueError("tokens must be strings")
    return tokens


@dataclass(eq=False)
class Item:
    """One observed object in whichever representations are available.

    A record may carry several representations at once (e.g. tokens plus a
    precomputed embedding); the kernel spec in use decides which one is read.
    `per_position` is an (L, d) matrix of per-position embeddings meant to be
    mean-pooled into a single vector.
    """

    tokens: Tokens | None = None
    scalar: float | None = None
    embedding: np.ndarray | None = None
    per_position: np.ndarray | None = None

    def __post_init__(self):
        if self.tokens is not None:
            self.tokens = _as_tokens(self.tokens)
        if self.scalar is not None:
            self.scalar = float(self.scalar)
            if not math.isfinite(self.scalar):
                raise ValueError("non-finite scalar")
        self.embedding = _array_or_none(self.embedding, 1)
        self.per_position = _array_or_none(self.per_position, 2)
        if all(v is None for v in (self.tokens, self.scalar, self.embedding,
                                   self.per_position)):
            raise ValueError("item needs at least one representation")

    def __eq__(self, other):
        if not isinstance(other, Item):
            return NotImplemented
        return (self.tokens == other.tokens
                and self.scalar == other.scalar
                and _opt_array_equal(self.embedding, other.embedding)
                and _opt_array_equal(self.per_position, other.per_position))


def _opt_array_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


@dataclass(eq=False)
class Triplet:
    """One observation (x, y, y_model): conditioning input, true output, and
    one model sample drawn at the same input."""

    x: Item
    y: Item
    y_model: Item
    group: str | None = None

    def __eq__(self, other):
        if not isinstance(other, Triplet):
            return NotImplemented
        return (self.x == other.x and self.y == other.y
                and self.y_model == other.y_model and self.group == other.group)


@dataclass(eq=False)
class ReliabilityRecord:
    """One reliability observation.

    `y_model` is the single model sample entering the discrepancy term;
    `model_samples` are the extra draws used only to estimate the kernel
    between model distributions. Keeping the two roles disjoint preserves
    the independence structure the exact-level argument needs.
    """

    y: Item
    y_model: Item
    model_samples: tuple[Tokens, ...]
    x: Item | None = None
    group: str | None = None

    def __post_init__(self):
        self.model_samples = tuple(map(_as_tokens, self.model_samples))
        if len(self.model_samples) < 2:
            raise ValueError("reliability records need at least 2 model samples")

    def __eq__(self, other):
        if not isinstance(other, ReliabilityRecord):
            return NotImplemented
        return (self.y == other.y and self.y_model == other.y_model
                and self.model_samples == other.model_samples
                and self.x == other.x and self.group == other.group)


def tokens_of(obj) -> Tokens:
    """Token tuple of an Item or a raw sequence of tokens."""
    if isinstance(obj, Item):
        if obj.tokens is None:
            raise ValueError("item has no token representation")
        return obj.tokens
    return tuple(obj)
