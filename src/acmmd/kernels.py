"""Kernels on token sequences, vectors, and sampled distributions.

Three families are provided, all addressed through `KernelSpec`:

* sequence kernels: exponentiated Hamming and its length-tilted variant;
* vector kernels: Gaussian on raw or mean-pooled embedding vectors;
* a distribution kernel: exponentiated negative squared MMD between sample
  sets, with the MMD estimated unbiasedly from the samples.

Every Gram over items follows one rule: the kernel is evaluated over the
distinct rows once (`_distinct_gram`: sorted token tuples, encoded by
`_vocabulary`, or `np.unique` vectors, after a 'median' bandwidth resolves
over all the items) and gathered back to the items (`gram`, or
`difference_gram` for h's output term), which return the spec they
resolved. `mmd_sq_matrix` instead sums the vocabulary Gram into C K C^T
over per-record counts C, in upper-triangle row blocks within
`_CHUNK_BYTES`, adding the records x records term once per tall panel.
Gaussian distances are filled in numpy row blocks of `_CHUNK_BYTES / 16`,
which stay in cache, and equal scipy's cdist bitwise.
Only `mmd_sq_matrix` loads scipy (`scipy.sparse`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .records import Item
from .sequences import Tokens, encode_sequences

SEQUENCE_KINDS = ("exp-hamming", "tilted-exp-hamming")
VECTOR_KINDS = ("gaussian", "mean-gaussian")
DISTRIBUTION_KINDS = ("dist-expmmd",)

# Byte budget of an MMD^2 block's temporaries with its tall panel's share of
# Z, and of indicators built once.
_CHUNK_BYTES = 1 << 24
# Row blocks per tall MMD^2 panel, whose cross term is added in one product.
_PANEL_BLOCKS = 8
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
            raise ValueError("sigma is unresolved; a Gram resolves the median")
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
        seen: set = set()
        i = 1
        while i < len(parts):
            seg = parts[i]
            if "=" not in seg:
                raise ValueError(f"bad kernel spec segment {seg!r} in {text!r}")
            key, value = seg.split("=", 1)
            key = key.strip()
            if key in seen:
                raise ValueError(f"repeated kernel spec key {key!r} in {text!r}")
            seen.add(key)
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


def hamming_gram(codes_a, codes_b, indicators=None) -> np.ndarray:
    """Pairwise padded Hamming distances between encoded rows.

    A distance is the width minus the matching positions, and the matches
    are sum_s (codes_a == s) @ (codes_b == s)^T over the codes s of
    `codes_a`, pad included, exact in float32 since every count is at
    most the width, below 2^24. The indicators of a group of codes sit
    side by side, so each GEMM sums over about `_GEMM_DEPTH` columns;
    `indicators` may give each group's (codes_a, codes_b) blocks prebuilt.
    """
    n, w = codes_a.shape
    m, w2 = codes_b.shape
    if w != w2:
        raise ValueError("encoded widths differ; encode jointly")
    if w >= 1 << 24:
        raise DataError("encoded width too large for exact float32 counts")
    if indicators is None:
        codes = np.unique(codes_a)
        indicators = zip(_indicators(codes_a, codes), _indicators(codes_b, codes))
    matches = np.zeros((n, m), dtype=np.float32)
    for block_a, block_b in indicators:
        matches += block_a @ block_b.T
    out = matches.astype(np.int64)
    return np.subtract(w, out, out=out)


def _indicators(rows: np.ndarray, codes: np.ndarray):
    """Yield the float32 indicators of `rows` for `codes`, group by group."""
    n, w = rows.shape
    step = max(1, _GEMM_DEPTH // max(1, w))
    for start in range(0, len(codes), step):
        group = codes[start:start + step, None]
        yield (rows[:, None] == group).reshape(n, len(group) * w).astype(np.float32)


def _vocabulary(seqs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode the distinct token tuples of `seqs` in sorted order.

    Returns:
        (codes, lengths, inverse): the encoding of `sorted(set(seqs))`, and
        each input tuple's row in it. The order does not depend on the order
        of `seqs`.
    """
    distinct = sorted(set(seqs))
    row_of = {s: i for i, s in enumerate(distinct)}
    codes, lengths = encode_sequences(distinct)
    return codes, lengths, np.array([row_of[s] for s in seqs], dtype=np.int64)


def sequence_gram(spec: KernelSpec, codes_a, lengths_a, codes_b, lengths_b,
                  indicators=None) -> np.ndarray:
    """Gram matrix of a sequence kernel over jointly encoded inputs.

    Every row pair is evaluated; callers pass distinct rows (see `gram`).
    """
    if spec.kind not in SEQUENCE_KINDS:
        raise ValueError(f"not a sequence kernel: {spec.kind}")
    tilted = spec.kind == "tilted-exp-hamming"
    if tilted and (np.any(lengths_a == 0) or np.any(lengths_b == 0)):
        raise DataError("tilted-exp-hamming is invalid for empty sequences")
    lut = np.exp(-spec.lam * np.arange(codes_a.shape[1] + 1, dtype=np.float64))
    values = lut[hamming_gram(codes_a, codes_b, indicators)]
    if tilted:
        values /= np.outer(lengths_a, lengths_b)
    return values


def gaussian_gram(vectors_a: np.ndarray, vectors_b: np.ndarray,
                  sigma: float) -> np.ndarray:
    """Gaussian Gram matrix between rows of two (n, d) arrays."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if vectors_a.shape[1] != vectors_b.shape[1]:
        raise DataError("embedding dimension mismatch")
    sq = _squared_distances(vectors_a, vectors_b)
    sq /= -2.0 * sigma * sigma
    return np.exp(sq, out=sq)


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows, adding the coordinates one
    at a time, cdist's own order: so they equal cdist's bitwise, which one
    sum over an (n, m, d) array does not at d >= 8."""
    out = np.zeros((len(a), len(b)))
    # Row blocks of 1/16 of the chunk budget, with their difference buffer,
    # stay in cache through the d passes over them.
    rows = max(1, _CHUNK_BYTES // (256 * max(1, len(b))))
    b_cols = np.ascontiguousarray(b.T, dtype=np.float64)
    diff = np.empty((min(rows, len(a)), len(b)))
    for start in range(0, len(a), rows):
        sq = out[start:start + rows]
        d = diff[:len(sq)]
        for k in range(a.shape[1]):
            np.subtract.outer(a[start:start + rows, k], b_cols[k], out=d)
            sq += np.square(d, out=d)
    return out


# ---------------------------------------------------------------------------
# Item extraction and the median heuristic


def mean_pool(per_position) -> np.ndarray:
    """Column-wise mean of an (L, d) per-position embedding matrix."""
    arr = np.asarray(per_position, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise DataError("mean_pool needs a nonempty 2-d matrix")
    return arr.mean(axis=0)


def _tokens_of(obj) -> Tokens:
    """Token tuple of an Item or a raw sequence of tokens."""
    if isinstance(obj, Item):
        if obj.tokens is None:
            raise DataError("item has no token representation")
        return obj.tokens
    return tuple(obj)


def _vector_of(item, kind: str) -> np.ndarray:
    if isinstance(item, Item):
        if kind == "mean-gaussian":
            if item.per_position is None:
                raise DataError("mean-gaussian needs a per_position matrix")
            return mean_pool(item.per_position)
        if item.embedding is not None:
            return item.embedding
        if item.scalar is not None:
            return np.array([item.scalar], dtype=np.float64)
        raise DataError("item has no vector representation")
    arr = np.atleast_1d(np.asarray(item, dtype=np.float64))
    if kind == "mean-gaussian" and arr.ndim == 2:
        return mean_pool(arr)
    if arr.ndim != 1:
        raise ValueError("expected a vector or scalar input")
    return arr


def _vectors_of(items, kind: str) -> np.ndarray:
    """(n, d) float64 rows of `items`; such an array is taken as it is."""
    if (isinstance(items, np.ndarray) and items.ndim == 2
            and items.dtype == np.float64):
        return items
    vectors = [_vector_of(it, kind) for it in items]
    dims = {v.shape[0] for v in vectors}
    if len(dims) > 1:
        raise DataError(f"embedding dimension mismatch: {sorted(dims)}")
    return np.stack(vectors)


def median_pairwise_distance(vectors: np.ndarray) -> float:
    """Median Euclidean distance over unordered pairs; 1.0 when degenerate.

    The 1.0 fallback covers both a zero median (all points identical) and
    fewer than two points.
    """
    dists = _squared_distances(vectors, vectors)
    return _median_heuristic(np.sqrt(dists, out=dists))


def _median_heuristic(dists: np.ndarray) -> float:
    """Median of a square distance matrix over i < j; 1.0 when degenerate."""
    n = len(dists)
    if n < 2:
        return 1.0
    med = float(np.median(dists[~np.tri(n, dtype=bool)]))  # the pairs i < j
    return med if med > 0 else 1.0


def _distinct_gram(spec: KernelSpec, items
                   ) -> tuple[np.ndarray, np.ndarray, KernelSpec]:
    """(Gram over the distinct rows of `items`, each item's row, resolved spec).

    Rows are the distinct token tuples or vectors (-0.0 and 0.0 merge and
    square alike), after a 'median' bandwidth resolves over all the items.
    A value depends only on its two rows, so gathers have the dense bits.
    """
    if spec.kind in DISTRIBUTION_KINDS:
        raise ValueError("dist-expmmd Grams come from distribution_gram")
    if spec.kind in SEQUENCE_KINDS:
        codes, lengths, inverse = _vocabulary(list(map(_tokens_of, items)))
        return sequence_gram(spec, codes, lengths, codes, lengths), inverse, spec
    vectors = _vectors_of(items, spec.kind)
    if spec.sigma == "median":
        spec = replace(spec, sigma=median_pairwise_distance(vectors))
    distinct, inverse = np.unique(vectors, axis=0, return_inverse=True)
    return (gaussian_gram(distinct, distinct, spec.sigma_resolved),
            inverse.ravel(), spec)


def gram(spec: KernelSpec, items_a, items_b=None
         ) -> tuple[np.ndarray, KernelSpec]:
    """Gram matrix of the kernel over records (or raw sequences/vectors).

    Args:
        spec: kernel description; a 'median' bandwidth is resolved over the
            union of both item lists.
        items_a: list of Items, token tuples, or vectors, as fits the kind.
        items_b: optional second list; omitted means the symmetric self-Gram.

    Returns:
        (the (len(items_a), len(items_b)) float64 matrix, the resolved spec).
    """
    n = len(items_a)
    kernel, inverse, spec = _distinct_gram(
        spec, items_a if items_b is None else list(items_a) + list(items_b))
    kernel = kernel.take(inverse[:n], axis=0)  # frees the distinct Gram first
    return (kernel.take(inverse[:n] if items_b is None else inverse[n:], axis=1),
            spec)


def difference_gram(spec: KernelSpec, items_a, items_b
                    ) -> tuple[np.ndarray, KernelSpec]:
    """Gram of the feature differences phi(a_i) - phi(b_i) of paired items.

    Entry (i, j) is k(a_i, a_j) + k(b_i, b_j) - k(a_i, b_j) - k(b_i, a_j),
    summed as (K_aa + K_bb) - (K_ab + K_ba), so the matrix is exactly
    symmetric. A 'median' bandwidth resolves over the union of both lists.
    The four blocks are gathered from `_distinct_gram`, a side at a time.

    Returns:
        (the (n, n) matrix, the resolved spec).
    """
    n = len(items_a)
    if len(items_b) != n:
        raise ValueError("paired item lists differ in length")
    kernel, inverse, spec = _distinct_gram(spec, list(items_a) + list(items_b))
    a, b = inverse[:n], inverse[n:]
    # `take` gathers columns several times faster than `rows[:, b]`.
    rows = kernel.take(a, axis=0)
    k_ab, same = rows.take(b, axis=1), rows.take(a, axis=1)
    del rows  # before the next gather, so that the two never coexist
    rows = kernel.take(b, axis=0)
    del kernel
    same += rows.take(b, axis=1)
    # K_ba from b's rows: K is exactly symmetric, so these are k_ab.T's
    # bits, read without a transposed pass over an N^2 matrix.
    k_ab += rows.take(a, axis=1)
    same -= k_ab
    return same, spec


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


def mmd_sq_matrix(sample_sets, ky: KernelSpec) -> np.ndarray:
    """Pairwise unbiased MMD^2 between sets of token tuples.

    Work is routed through the vocabulary of distinct samples: with counts
    matrix C (records by vocabulary) and vocabulary Gram K, every cross sum
    is an entry of C K C^T, which keeps the cost near O(|vocab|^2) instead
    of O((sum R_i)^2); K is evaluated in upper-triangle row panels.

    The matrix is exactly symmetric with a zero diagonal (no statistic
    reads it), and reordering the sample sets reorders it exactly.
    """
    if ky.kind not in SEQUENCE_KINDS:
        raise ValueError("mmd matrix needs a sequence kernel")
    r_counts = np.array([len(one) for one in sample_sets], dtype=np.int64)
    n_rec = len(r_counts)
    if n_rec == 0:
        raise ValueError("mmd matrix needs at least one sample set")
    if np.any(r_counts < 2):
        raise ValueError("every sample set needs at least 2 samples")
    import scipy.sparse  # here, so that only the commands that need it load it
    codes, lengths, inv = _vocabulary([tuple(s) for one in sample_sets for s in one])
    v = len(codes)
    rec_ids = np.repeat(np.arange(n_rec), r_counts)
    counts = scipy.sparse.coo_matrix(
        (np.ones(len(inv), dtype=np.float64), (rec_ids, inv)),
        shape=(n_rec, v)).tocsc()

    # C K C^T = X + X^T, X summing C[:, P] K[P, s:] C[:, s:]^T with K[P, P]
    # halved over row blocks P = [s, e). Each block's rows of Z = K[P, s:]
    # C[:, s:]^T fill one buffer, and X gains C[:, T] Z[T] once per tall
    # panel T of `_PANEL_BLOCKS` blocks. A block holds at most 16 bytes per
    # entry at once (README § Kernels), and Z 8 per record and tall row.
    present = np.unique(codes)
    blocks = (list(_indicators(codes, present))
              if 4 * codes.size * len(present) <= _CHUNK_BYTES else None)
    cross = np.zeros((n_rec, n_rec), dtype=np.float64)
    rows = max(1, _CHUNK_BYTES // (16 * v + 8 * _PANEL_BLOCKS * n_rec))
    tall = min(v, rows * _PANEL_BLOCKS)
    z = np.empty((tall, n_rec))
    for top in range(0, v, tall):
        bottom = min(v, top + tall)
        for start in range(top, bottom, rows):
            stop = min(bottom, start + rows)
            kernel = sequence_gram(
                ky, codes[start:stop], lengths[start:stop], codes[start:],
                lengths[start:], None if blocks is None else [
                    (block[start:stop], block[start:]) for block in blocks])
            kernel[:, :stop - start] *= 0.5
            z[start - top:stop - top] = kernel @ counts[:, start:].T
            del kernel  # so that the tall product does not add to its peak
        cross += counts[:, top:bottom] @ z[:bottom - top]
    del blocks, z  # nor to the assembly's below
    cross += cross.T

    if ky.kind == "tilted-exp-hamming":
        self_sums = np.bincount(rec_ids, weights=1.0 / lengths[inv] ** 2,
                                minlength=n_rec)
    else:
        self_sums = r_counts.astype(np.float64)
    within = (np.diag(cross) - self_sums) / (r_counts * (r_counts - 1.0))

    mmd = within[:, None] + within[None, :] - 2.0 * cross / np.outer(r_counts, r_counts)
    np.fill_diagonal(mmd, 0.0)
    return mmd


def distribution_gram(spec: KernelSpec, sample_sets
                      ) -> tuple[np.ndarray, KernelSpec]:
    """Self-Gram of the exponentiated-MMD kernel over sample sets.

    Entries are e^(-MMD^2 / (2 sigma^2)) and may exceed 1 because the
    unbiased MMD^2 estimate can be negative; the matrix is not forced PSD.
    A value that overflows raises ValueError rather than being clamped.
    A 'median' sigma resolves to the median of sqrt(max(MMD^2, 0)) over
    off-diagonal pairs (fallback 1.0 when that median is 0). The MMD^2
    diagonal is 0, so the diagonal values are 1.

    Returns:
        (values, resolved spec).
    """
    if spec.kind not in DISTRIBUTION_KINDS:
        raise ValueError(f"not a distribution kernel: {spec.kind}")
    mmd = mmd_sq_matrix(sample_sets, spec.inner)
    if spec.sigma == "median":
        spec = replace(spec, sigma=_median_heuristic(
            np.sqrt(np.clip(mmd, 0.0, None))))
    with np.errstate(over="ignore"):
        values = np.exp(-mmd / (2.0 * spec.sigma_resolved ** 2))
    if not np.all(np.isfinite(values)):
        raise DataError(
            f"khat overflows: sigma_p={spec.sigma_resolved!r} is too small "
            f"for the smallest MMD^2 estimate, {float(mmd.min())!r}")
    return values, spec
