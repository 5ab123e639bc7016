"""Kernels on token sequences, vectors, and sampled distributions.

Three families are provided, all addressed through `KernelSpec`:

* sequence kernels: exponentiated Hamming and its length-tilted variant;
* vector kernels: Gaussian on raw or mean-pooled embedding vectors;
* a distribution kernel: exponentiated negative squared MMD between sample
  sets, with the MMD estimated unbiasedly from the samples.

Gram assembly is vectorized over padded integer encodings of the sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse
from scipy.spatial.distance import cdist

from .records import Item, tokens_of
from .sequences import Tokens, encode_sequences

SEQUENCE_KINDS = ("exp-hamming", "tilted-exp-hamming")
VECTOR_KINDS = ("gaussian", "mean-gaussian")
DISTRIBUTION_KINDS = ("dist-expmmd",)

# Soft cap on temporary buffers allocated by chunked Gram assembly.
_CHUNK_BYTES = 1 << 26
# Indicator columns per Hamming matrix product: deep products make fewer
# passes over the output, and the indicators stay at 4 KiB per row.
_GEMM_DEPTH = 1024


@dataclass(frozen=True)
class KernelSpec:
    """Parsed kernel description.

    Attributes:
        kind: one of `SEQUENCE_KINDS`, `VECTOR_KINDS`, or `DISTRIBUTION_KINDS`.
        lam: decay of the Hamming exponent (sequence kinds only, > 0).
        sigma: Gaussian bandwidth, a positive float or the string "median"
            for the median heuristic (vector and distribution kinds only).
        inner: sequence kernel used inside the MMD (distribution kind only).

    Sequence kernels pad the shorter sequence; their spec strings say so
    with `mode=padded`, the only mode `parse` accepts.
    """

    kind: str
    lam: float | None = None
    sigma: float | str | None = None
    inner: "KernelSpec | None" = None

    def __post_init__(self):
        kind = self.kind
        if kind in SEQUENCE_KINDS:
            lam = 1.0 if self.lam is None else float(self.lam)
            object.__setattr__(self, "lam", lam)
            if not 0 < lam < math.inf:
                raise ValueError("lambda must be positive and finite")
            if self.sigma is not None or self.inner is not None:
                raise ValueError(f"{kind} takes no sigma or inner kernel")
        elif kind in VECTOR_KINDS or kind in DISTRIBUTION_KINDS:
            sigma = "median" if self.sigma is None else self.sigma
            if isinstance(sigma, str):
                if sigma != "median":
                    raise ValueError(f"sigma must be a number or 'median', got {sigma!r}")
            else:
                sigma = float(sigma)
                if not 0 < sigma < math.inf:
                    raise ValueError("sigma must be positive and finite")
            object.__setattr__(self, "sigma", sigma)
            if self.lam is not None:
                raise ValueError(f"{kind} takes no lambda")
            if kind in DISTRIBUTION_KINDS:
                inner = self.inner
                if inner is None:
                    inner = KernelSpec("exp-hamming", lam=1.0)
                    object.__setattr__(self, "inner", inner)
                if inner.kind not in SEQUENCE_KINDS:
                    raise ValueError("dist-expmmd needs a sequence-valued inner kernel")
            elif self.inner is not None:
                raise ValueError(f"{kind} takes no inner kernel")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @property
    def sigma_resolved(self) -> float:
        """Numeric bandwidth; raises if the median heuristic is unresolved."""
        if not isinstance(self.sigma, float):
            raise ValueError("sigma is unresolved; call resolve_spec first")
        return self.sigma

    def to_string(self) -> str:
        """Compact CLI form, e.g. 'exp-hamming:lambda=1.0:mode=padded'."""
        if self.kind in SEQUENCE_KINDS:
            return f"{self.kind}:lambda={self.lam!r}:mode=padded"
        sigma = self.sigma if isinstance(self.sigma, str) else repr(self.sigma)
        if self.kind in DISTRIBUTION_KINDS:
            return f"{self.kind}:sigma={sigma}:inner={self.inner.to_string()}"
        return f"{self.kind}:sigma={sigma}"

    @staticmethod
    def parse(text: str) -> "KernelSpec":
        """Parse the compact CLI form (inverse of `to_string`)."""
        parts = str(text).strip().split(":")
        if not parts or not parts[0]:
            raise ValueError("empty kernel spec")
        kwargs: dict = {}
        kind = parts[0].strip()
        i = 1
        while i < len(parts):
            seg = parts[i]
            if "=" not in seg:
                raise ValueError(f"bad kernel spec segment {seg!r} in {text!r}")
            key, value = seg.split("=", 1)
            key = key.strip()
            if key == "inner":
                inner_text = ":".join([value] + parts[i + 1:])
                kwargs["inner"] = KernelSpec.parse(inner_text)
                break
            if key == "lambda":
                kwargs["lam"] = _parse_float(value, "lambda")
            elif key == "sigma":
                kwargs["sigma"] = value.strip() if value.strip() == "median" \
                    else _parse_float(value, "sigma")
            elif key == "mode":
                if value.strip() != "padded":
                    raise ValueError(f"unknown hamming mode {value.strip()!r}")
            else:
                raise ValueError(f"unknown kernel spec key {key!r} in {text!r}")
            i += 1
        return KernelSpec(kind, **kwargs)


def _parse_float(value: str, name: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None


# ---------------------------------------------------------------------------
# Encoded sequence Grams


def hamming_gram(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """Pairwise padded Hamming distances between encoded rows.

    A distance is the width minus the matching positions, and the matches
    are sum_s (codes_a == s) @ (codes_b == s)^T over the codes s of
    `codes_a`, pad included. The indicators of a group of codes sit side
    by side, so each float32 GEMM sums over about `_GEMM_DEPTH` columns.
    The products are exact because every count is at most the width,
    below 2^24.
    """
    n, w = codes_a.shape
    m, w2 = codes_b.shape
    if w != w2:
        raise ValueError("encoded widths differ; encode jointly")
    if w >= 1 << 24:
        raise ValueError("encoded width too large for exact float32 counts")
    codes = np.unique(codes_a)
    step = max(1, _GEMM_DEPTH // max(1, w))
    matches = np.zeros((n, m), dtype=np.float32)
    for start in range(0, len(codes), step):
        group = codes[start:start + step, None]
        depth = len(group) * w
        matches += ((codes_a[:, None] == group).reshape(n, depth).astype(np.float32)
                    @ (codes_b[:, None] == group).reshape(m, depth).astype(np.float32).T)
    out = matches.astype(np.int64)
    return np.subtract(w, out, out=out)


def _unique_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct encoded row, and each row's vocabulary index."""
    n, w = codes.shape
    if w == 0:
        return np.zeros(min(n, 1), dtype=np.int64), np.zeros(n, dtype=np.int64)
    flat = np.ascontiguousarray(codes)
    rows = flat.view(np.dtype((np.void, flat.dtype.itemsize * w))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


def sequence_gram(spec: KernelSpec, codes_a, lengths_a, codes_b, lengths_b
                  ) -> np.ndarray:
    """Gram matrix of a sequence kernel over jointly encoded inputs.

    Distances are computed between distinct rows only and gathered back to
    full size.
    """
    if spec.kind not in SEQUENCE_KINDS:
        raise ValueError(f"not a sequence kernel: {spec.kind}")
    first_a, inv_a = _unique_rows(codes_a)
    first_b, inv_b = (first_a, inv_a) if codes_b is codes_a \
        else _unique_rows(codes_b)
    lut = np.exp(-spec.lam * np.arange(codes_a.shape[1] + 1, dtype=np.float64))
    values = lut[hamming_gram(codes_a[first_a], codes_b[first_b])]
    values = values[np.ix_(inv_a, inv_b)]
    if spec.kind == "tilted-exp-hamming":
        if np.any(lengths_a == 0) or np.any(lengths_b == 0):
            raise ValueError("tilted-exp-hamming is invalid for empty sequences")
        values = values / np.outer(lengths_a, lengths_b)
    return values


def gaussian_gram(vectors_a: np.ndarray, vectors_b: np.ndarray,
                  sigma: float) -> np.ndarray:
    """Gaussian Gram matrix between rows of two (n, d) arrays."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if vectors_a.shape[1] != vectors_b.shape[1]:
        raise ValueError("embedding dimension mismatch")
    sq = cdist(vectors_a, vectors_b, "sqeuclidean")
    return np.exp(-sq / (2.0 * sigma * sigma))


# ---------------------------------------------------------------------------
# Item extraction and the median heuristic


def _sequences_of(items) -> list[Tokens]:
    return [tokens_of(it) for it in items]


def mean_pool(per_position) -> np.ndarray:
    """Column-wise mean of an (L, d) per-position embedding matrix."""
    arr = np.asarray(per_position, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("mean_pool needs a nonempty 2-d matrix")
    return arr.mean(axis=0)


def _vector_of(item, kind: str) -> np.ndarray:
    if isinstance(item, Item):
        if kind == "mean-gaussian":
            if item.per_position is None:
                raise ValueError("mean-gaussian needs a per_position matrix")
            return mean_pool(item.per_position)
        if item.embedding is not None:
            return item.embedding
        if item.scalar is not None:
            return np.array([item.scalar], dtype=np.float64)
        raise ValueError("item has no vector representation")
    arr = np.atleast_1d(np.asarray(item, dtype=np.float64))
    if kind == "mean-gaussian" and arr.ndim == 2:
        return mean_pool(arr)
    if arr.ndim != 1:
        raise ValueError("expected a vector or scalar input")
    return arr


def _vectors_of(items, kind: str) -> np.ndarray:
    vectors = [_vector_of(it, kind) for it in items]
    dims = {v.shape[0] for v in vectors}
    if len(dims) > 1:
        raise ValueError(f"inconsistent embedding dimensions: {sorted(dims)}")
    return np.stack(vectors)


def median_pairwise_distance(vectors: np.ndarray) -> float:
    """Median Euclidean distance over unordered pairs; 1.0 when degenerate.

    The 1.0 fallback covers both a zero median (all points identical) and
    fewer than two points.
    """
    n = len(vectors)
    if n < 2:
        return 1.0
    dists = cdist(vectors, vectors, "euclidean")
    iu = np.triu_indices(n, 1)
    med = float(np.median(dists[iu]))
    return med if med > 0 else 1.0


def resolve_spec(spec: KernelSpec, items_a, items_b=None) -> KernelSpec:
    """Replace a 'median' bandwidth with its value over the given items.

    Sequence kernels resolve to themselves. The distribution kernel is
    resolved by `distribution_gram`, which needs the MMD matrix first.
    """
    if spec.kind in VECTOR_KINDS and spec.sigma == "median":
        items = list(items_a) + (list(items_b) if items_b is not None else [])
        sigma = median_pairwise_distance(_vectors_of(items, spec.kind))
        return replace(spec, sigma=sigma)
    return spec


def gram(spec: KernelSpec, items_a, items_b=None) -> np.ndarray:
    """Gram matrix of the kernel over records (or raw sequences/vectors).

    Args:
        spec: kernel description; a 'median' bandwidth is resolved over the
            union of both item lists.
        items_a: list of Items, token tuples, or vectors, as fits the kind.
        items_b: optional second list; omitted means the symmetric self-Gram.

    Returns:
        (len(items_a), len(items_b)) float64 matrix.
    """
    if spec.kind in DISTRIBUTION_KINDS:
        raise ValueError("dist-expmmd Grams come from distribution_gram")
    spec = resolve_spec(spec, items_a, items_b)
    if spec.kind in SEQUENCE_KINDS:
        seqs_a = _sequences_of(items_a)
        seqs_b = seqs_a if items_b is None else _sequences_of(items_b)
        codes, lengths = encode_sequences(seqs_a + (seqs_b if items_b is not None else []))
        if items_b is None:
            return sequence_gram(spec, codes, lengths, codes, lengths)
        na = len(seqs_a)
        return sequence_gram(spec, codes[:na], lengths[:na], codes[na:], lengths[na:])
    vec_a = _vectors_of(items_a, spec.kind)
    vec_b = vec_a if items_b is None else _vectors_of(items_b, spec.kind)
    if vec_a.shape[1] != vec_b.shape[1]:
        raise ValueError("embedding dimension mismatch")
    return gaussian_gram(vec_a, vec_b, spec.sigma_resolved)


# ---------------------------------------------------------------------------
# Unbiased MMD between sample sets, and the distribution kernel built on it


def mmd_sq_unbiased(sample_a, sample_b, ky: KernelSpec) -> float:
    """Unbiased estimate of the squared MMD between two token samples.

    Both within-sample terms average the kernel over ordered pairs i != j;
    the cross term averages over all pairs. The estimate may be negative.

    Args:
        sample_a, sample_b: lists (length >= 2) of token tuples.
        ky: the sequence kernel on individual outputs.

    Raises:
        ValueError: fewer than 2 samples on either side, or a non-sequence `ky`.
    """
    return float(mmd_sq_matrix([sample_a, sample_b], ky)[0, 1])


def mmd_sq_matrix_encoded(codes: np.ndarray, lengths: np.ndarray,
                          r_counts: np.ndarray, ky: KernelSpec) -> np.ndarray:
    """Pairwise unbiased MMD^2 between consecutive blocks of encoded samples.

    The flat `codes` rows are grouped into records by `r_counts` (record i
    owns the next r_counts[i] rows). Work is routed through the deduplicated
    vocabulary of distinct rows: with counts matrix C and vocabulary Gram K,
    every cross sum is an entry of C K C^T, which keeps the cost near
    O(|vocab|^2) instead of O((sum R_i)^2).

    The diagonal is 0; no statistic reads it.
    """
    if ky.kind not in SEQUENCE_KINDS:
        raise ValueError("mmd matrix needs a sequence kernel")
    r_counts = np.asarray(r_counts, dtype=np.int64)
    n_rec = len(r_counts)
    if np.any(r_counts < 2):
        raise ValueError("every sample set needs at least 2 samples")
    if r_counts.sum() != len(codes):
        raise ValueError("r_counts do not match the number of sample rows")
    tilted = ky.kind == "tilted-exp-hamming"
    if tilted and np.any(lengths == 0):
        raise ValueError("tilted-exp-hamming is invalid for empty sequences")

    rec_ids = np.repeat(np.arange(n_rec), r_counts)
    first, inv = _unique_rows(codes)
    vocab = codes[first]
    v = len(vocab)
    counts = scipy.sparse.coo_matrix(
        (np.ones(len(codes), dtype=np.float64), (rec_ids, inv)),
        shape=(n_rec, v)).tocsc()

    lut = np.exp(-ky.lam * np.arange(codes.shape[1] + 1, dtype=np.float64))
    inv_len = 1.0 / lengths[first] if tilted else None

    # The vocabulary Gram K is symmetric, so C K C^T is the sum over row
    # chunks R of C[:, R] (C K[R, :]^T)^T. A chunk's float32 match counts,
    # int64 distances, float64 kernel values and their temporaries stay
    # within 64 B per entry.
    rows_per = max(1, _CHUNK_BYTES // (64 * max(1, v)))
    cross = np.zeros((n_rec, n_rec), dtype=np.float64)
    for start in range(0, v, rows_per):
        rows = slice(start, min(v, start + rows_per))
        kernel_chunk = lut[hamming_gram(vocab[rows], vocab)]
        if tilted:
            kernel_chunk *= np.outer(inv_len[rows], inv_len)
        cross += counts[:, rows] @ (counts @ kernel_chunk.T).T

    if tilted:
        self_sums = np.bincount(rec_ids, weights=1.0 / lengths ** 2,
                                minlength=n_rec)
    else:
        self_sums = r_counts.astype(np.float64)
    within = (np.diag(cross) - self_sums) / (r_counts * (r_counts - 1.0))

    mmd = within[:, None] + within[None, :] - 2.0 * cross / np.outer(r_counts, r_counts)
    np.fill_diagonal(mmd, 0.0)
    return mmd


def mmd_sq_matrix(sample_sets, ky: KernelSpec) -> np.ndarray:
    """Pairwise unbiased MMD^2 between sets of token tuples."""
    r_counts = np.array([len(one) for one in sample_sets], dtype=np.int64)
    codes, lengths = encode_sequences([s for one in sample_sets for s in one])
    return mmd_sq_matrix_encoded(codes, lengths, r_counts, ky)


def distribution_gram(spec: KernelSpec, sample_sets
                      ) -> tuple[np.ndarray, KernelSpec, np.ndarray]:
    """Self-Gram of the exponentiated-MMD kernel over sample sets.

    Entries are e^(-MMD^2 / (2 sigma^2)) and may exceed 1 because the
    unbiased MMD^2 estimate can be negative; the matrix is not forced PSD.
    A value that overflows raises ValueError rather than being clamped.
    A 'median' sigma resolves to the median of sqrt(max(MMD^2, 0)) over
    off-diagonal pairs (fallback 1.0 when that median is 0). The MMD^2
    diagonal is 0, so the diagonal values are 1.

    Returns:
        (values, resolved spec, the MMD^2 matrix).
    """
    if spec.kind not in DISTRIBUTION_KINDS:
        raise ValueError(f"not a distribution kernel: {spec.kind}")
    mmd = mmd_sq_matrix(sample_sets, spec.inner)
    sigma = spec.sigma
    if sigma == "median":
        n = len(mmd)
        if n < 2:
            sigma = 1.0
        else:
            iu = np.triu_indices(n, 1)
            med = float(np.median(np.sqrt(np.clip(mmd[iu], 0.0, None))))
            sigma = med if med > 0 else 1.0
        spec = replace(spec, sigma=sigma)
    with np.errstate(over="ignore"):
        values = np.exp(-mmd / (2.0 * spec.sigma_resolved ** 2))
    if not np.all(np.isfinite(values)):
        raise ValueError(
            f"khat overflows: sigma_p={spec.sigma_resolved!r} is too small "
            f"for the smallest MMD^2 estimate, {float(mmd.min())!r}")
    return values, spec, mmd
