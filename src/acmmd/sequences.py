"""Alphabets and integer encoding of variable-length token sequences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError

Tokens = tuple[str, ...]


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered symbol set with an optional terminal marker.

    Sequences never contain the terminal symbol; termination is implicit,
    so the empty sequence (immediate termination) is valid.
    """

    symbols: tuple[str, ...]
    terminal: str | None = None

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        if self.terminal is not None and self.terminal not in self.symbols:
            raise ValueError(f"terminal {self.terminal!r} is not an alphabet symbol")
        object.__setattr__(self, "_allowed", frozenset(self.sequence_symbols))

    @property
    def sequence_symbols(self) -> tuple[str, ...]:
        """Symbols that may appear inside a sequence (terminal excluded)."""
        return tuple(s for s in self.symbols if s != self.terminal)

    def validate(self, tokens: Sequence[str]) -> None:
        """Raise ValueError at the first token that is the terminal or foreign."""
        if self._allowed.issuperset(tokens):
            return
        tok = next(t for t in tokens if t not in self._allowed)
        if tok == self.terminal:
            raise ValueError(f"terminal symbol {tok!r} inside a sequence")
        raise ValueError(f"token {tok!r} not in alphabet")


def encode_sequences(seqs: Sequence[Tokens]) -> tuple[np.ndarray, np.ndarray]:
    """Pack token sequences into a padded integer matrix.

    Every row is the sequence's symbol codes followed by a shared pad code,
    so a row-wise mismatch count between two rows equals the terminal-padded
    Hamming distance between the underlying sequences. Tokens are not
    checked against an alphabet here; the dataset loader does that.

    Args:
        seqs: sequences as tuples (or lists) of string tokens.

    Returns:
        (codes, lengths): codes is (n, w) uint16, symbols coded in sorted
        order, with pad code equal to the number of distinct symbols;
        lengths is (n,) int64.
    """
    seqs = [tuple(s) for s in seqs]
    symbols = tuple(sorted({tok for s in seqs for tok in s}))
    if len(symbols) >= np.iinfo(np.uint16).max:
        raise DataError("alphabet too large to encode")
    code_of = {tok: i for i, tok in enumerate(symbols)}
    pad = len(symbols)
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    width = int(lengths.max()) if len(seqs) else 0
    codes = np.full((len(seqs), width), pad, dtype=np.uint16)
    codes[np.arange(width) < lengths[:, None]] = [code_of[t] for s in seqs
                                                  for t in s]
    return codes, lengths
