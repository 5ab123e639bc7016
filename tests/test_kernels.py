import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from acmmd import kernels
from acmmd.kernels import (DISTRIBUTION_KINDS, SEQUENCE_KINDS, VECTOR_KINDS,
                           KernelSpec, difference_gram, distribution_gram,
                           gaussian_gram, gram, hamming_gram, mean_pool,
                           median_pairwise_distance, mmd_sq_matrix,
                           mmd_sq_unbiased, sequence_gram)
from acmmd.records import Item
from acmmd.sequences import encode_sequences

from conftest import (brute_exp_hamming, brute_gaussian,
                      brute_hamming_padded, brute_mmd_sq, brute_tilted,
                      random_tokens)

tokens_st = st.lists(st.sampled_from("AB"), max_size=6).map(tuple)


_positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                      allow_infinity=False)
_sigmas = st.one_of(st.just("median"), _positive)
_sequence_specs = st.builds(KernelSpec, st.sampled_from(SEQUENCE_KINDS),
                            lam=_positive)
kernel_specs = st.one_of(
    _sequence_specs,
    st.builds(KernelSpec, st.sampled_from(VECTOR_KINDS), sigma=_sigmas),
    st.builds(KernelSpec, st.sampled_from(DISTRIBUTION_KINDS), sigma=_sigmas,
              inner=_sequence_specs))


@st.composite
def encoded_pairs(draw):
    """Two code matrices of one width whose rows repeat from a shared pool."""
    n_codes = draw(st.integers(1, 300))
    width = draw(st.integers(0, 40))
    row = st.lists(st.integers(0, n_codes - 1), min_size=width,
                   max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    picks = st.lists(st.integers(0, len(pool) - 1), max_size=8)

    def codes(idx):
        return np.array([pool[i] for i in idx],
                        dtype=np.uint16).reshape(len(idx), width)

    return codes(draw(picks)), codes(draw(picks))


class TestKernelSpec:
    @pytest.mark.parametrize("text,canonical", [
        ("exp-hamming", "exp-hamming:lambda=1.0:mode=padded"),
        ("gaussian", "gaussian:sigma=median"),
        ("gaussian:sigma=1.0", "gaussian:sigma=1.0"),
    ])
    def test_parse_and_canonical_string(self, text, canonical):
        assert KernelSpec.parse(text).to_string() == canonical

    def test_round_trip_is_stable(self):
        text = "dist-expmmd:sigma=1.0:inner=exp-hamming:lambda=1.0:mode=padded"
        spec = KernelSpec.parse(text)
        assert spec.to_string() == text
        assert KernelSpec.parse(spec.to_string()) == spec

    @given(kernel_specs)
    def test_parse_inverts_to_string(self, spec):
        assert KernelSpec.parse(spec.to_string()) == spec

    def test_inner_consumes_rest_of_string(self):
        spec = KernelSpec.parse("dist-expmmd:inner=exp-hamming:lambda=3.0")
        assert spec.inner.lam == 3.0
        assert spec.sigma == "median"

    def test_default_inner_kernel(self):
        spec = KernelSpec.parse("dist-expmmd:sigma=1.0")
        assert spec.inner == KernelSpec("exp-hamming", lam=1.0)

    @pytest.mark.parametrize("text", [
        "", "unknown-kernel", "exp-hamming:lambda=0",
        "exp-hamming:lambda=-1", "exp-hamming:sigma=1",
        "exp-hamming:lambda=abc", "exp-hamming:mode=bogus",
        "gaussian:sigma=0", "gaussian:sigma=-2", "gaussian:sigma=big",
        "gaussian:lambda=1", "exp-hamming:bogus=1", "exp-hamming:noequals",
        "dist-expmmd:inner=gaussian:sigma=1.0",
        "exp-hamming:lambda=inf", "gaussian:sigma=inf",
        "dist-expmmd:sigma=inf",
        # Former aliases and the length-penalty mode are no longer accepted.
        "exp-hamming:lambda=2:mode=terminal-padded",
        "tilted-exp-hamming:lambda=0.5:mode=length-penalty",
        "gaussian-on-vectors:sigma=2", "mean-embedding-gaussian",
        "distribution-exp-mmd:sigma=0.5:inner=tilted-exp-hamming:lambda=2",
    ])
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(ValueError):
            KernelSpec.parse(text)

    def test_sigma_resolved_requires_numeric(self):
        with pytest.raises(ValueError, match="unresolved"):
            KernelSpec("gaussian").sigma_resolved

    @pytest.mark.parametrize("text,key", [
        ("exp-hamming:lambda=1.0:lambda=2.0", "lambda"),
        ("gaussian:sigma=1:sigma=median", "sigma"),
        ("exp-hamming:mode=padded:mode=padded", "mode"),
        ("dist-expmmd:inner=exp-hamming:lambda=1:lambda=2", "lambda"),
    ])
    def test_repeated_key_rejected(self, text, key):
        # The last value does not silently win.
        with pytest.raises(ValueError,
                           match=f"repeated kernel spec key '{key}'"):
            KernelSpec.parse(text)


def hamming_distances(seqs):
    """Padded Hamming distances between token sequences, via hamming_gram."""
    codes, _ = encode_sequences(seqs)
    return hamming_gram(codes, codes)


class TestHammingDistance:
    def test_known_values(self):
        d = hamming_distances([("A", "B"), ("B", "B"), ("A",), ("A", "B", "B"),
                               ()])
        assert d[0, 0] == 0
        assert d[0, 1] == 1
        assert d[2, 3] == 2
        assert d[4, 2] == 1
        assert d[4, 4] == 0

    @given(tokens_st, tokens_st)
    def test_padded_matches_oracle(self, a, b):
        assert hamming_distances([a, b])[0, 1] == brute_hamming_padded(a, b)

    def test_symmetry_and_identity(self, rng):
        d = hamming_distances([random_tokens(rng) for _ in range(50)])
        assert np.array_equal(d, d.T)
        assert not np.diag(d).any()

    def test_unknown_mode_rejected(self):
        # "padded" is the only Hamming convention, and not a field.
        for mode in ("bogus", "length-penalty", "terminal-padded"):
            with pytest.raises(ValueError, match="mode"):
                KernelSpec.parse(f"exp-hamming:mode={mode}")
        assert KernelSpec.parse("exp-hamming:mode=padded") == \
            KernelSpec("exp-hamming")


class TestScalarKernels:
    """Single kernel values k(a, b), read off Grams."""

    def test_exp_hamming_frozen_values(self):
        for a, b, lam, want in [
                (("A",), ("A",), 1.0, 1.0),
                (("A",), ("B",), 1.0, 0.36787944117144233),
                (("A", "A"), ("B", "B"), 1.0, 0.1353352832366127),
                (("A",), ("B",), 0.5, 0.6065306597126334)]:
            value = gram(KernelSpec("exp-hamming", lam=lam), [a], [b])[0][0, 0]
            assert value == pytest.approx(want, rel=1e-15)

    def test_tilted_divides_by_lengths(self):
        value, _ = gram(KernelSpec("tilted-exp-hamming"), [("A", "B")], [("A",)])
        assert value[0, 0] == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-15)

    def test_tilted_rejects_empty(self):
        spec = KernelSpec("tilted-exp-hamming")
        with pytest.raises(ValueError, match="empty"):
            gram(spec, [()], [("A",)])
        with pytest.raises(ValueError, match="empty"):
            gram(spec, [("A",), ()])

    def test_gaussian_values(self):
        spec = KernelSpec("gaussian", sigma=1.0)
        assert gram(spec, [0.0], [0.0])[0][0, 0] == 1.0
        assert gram(spec, [0.0], [1.0])[0][0, 0] == pytest.approx(
            0.6065306597126334, rel=1e-15)
        assert gram(spec, [[1.0, 0.0]], [[0.0, 1.0]])[0][0, 0] == pytest.approx(
            math.exp(-1.0), rel=1e-15)

    def test_gaussian_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            gaussian_gram(np.ones((1, 2)), np.ones((1, 1)), sigma=1.0)

    def test_mean_pool(self):
        out = mean_pool([[0.0, 2.0], [2.0, 4.0]])
        assert out.tolist() == [1.0, 3.0]
        with pytest.raises(ValueError):
            mean_pool([1.0, 2.0])


class TestGrams:
    @given(encoded_pairs())
    @example((np.array([[299, 7], [299, 7]], dtype=np.uint16),
              np.array([[299, 1], [0, 7], [299, 7]], dtype=np.uint16)))
    @example((np.zeros((3, 0), dtype=np.uint16),
              np.zeros((2, 0), dtype=np.uint16)))
    # 300 distinct codes at width 30 need several groups of codes.
    @example((np.arange(300, dtype=np.uint16).reshape(10, 30),
              np.arange(300, dtype=np.uint16).reshape(10, 30)[::-1] % 7))
    def test_hamming_gram_matches_broadcast(self, pair):
        a, b = pair
        got = hamming_gram(a, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, (a[:, None] != b[None]).sum(2))

    def test_sequence_gram_matches_scalar(self, rng):
        seqs = [random_tokens(rng) for _ in range(12)]
        for kind, scalar_fn in [("exp-hamming", brute_exp_hamming),
                                ("tilted-exp-hamming", brute_tilted)]:
            use = seqs
            if kind == "tilted-exp-hamming":
                use = [s if s else ("A",) for s in seqs]
            spec = KernelSpec(kind, lam=0.7)
            codes, lengths = encode_sequences(use)
            values = sequence_gram(spec, codes, lengths, codes, lengths)
            for i in range(len(use)):
                for j in range(len(use)):
                    assert values[i, j] == pytest.approx(
                        scalar_fn(use[i], use[j], 0.7), rel=1e-12)

    def test_gaussian_gram_matches_scalar(self, rng):
        vecs = rng.normal(size=(8, 3))
        values = gaussian_gram(vecs, vecs, sigma=1.3)
        for i in range(8):
            for j in range(8):
                assert values[i, j] == pytest.approx(
                    brute_gaussian(vecs[i], vecs[j], 1.3), rel=1e-12)

    def test_gram_on_items_dispatches_by_kind(self, rng):
        items = [Item(tokens=random_tokens(rng),
                      embedding=rng.normal(size=2)) for _ in range(5)]
        seq_gram, _ = gram(KernelSpec("exp-hamming"), items)
        assert seq_gram[0, 0] == 1.0
        vec_gram, _ = gram(KernelSpec("gaussian", sigma=1.0), items)
        expected = brute_gaussian(items[0].embedding, items[1].embedding, 1.0)
        assert vec_gram[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_gram_cross_blocks(self, rng):
        # Rows repeat within each list and across the two.
        pool = [random_tokens(rng) for _ in range(4)]
        for kind, scalar_fn in [("exp-hamming", brute_exp_hamming),
                                ("tilted-exp-hamming", brute_tilted)]:
            if kind == "tilted-exp-hamming":
                pool = [s if s else ("A",) for s in pool]
            a = [pool[i] for i in rng.integers(0, 4, 7)]
            b = [pool[i] for i in rng.integers(0, 4, 9)]
            cross, _ = gram(KernelSpec(kind, lam=0.5), a, b)
            assert cross.shape == (7, 9)
            for i in range(7):
                for j in range(9):
                    assert cross[i, j] == pytest.approx(
                        scalar_fn(a[i], b[j], 0.5), rel=1e-12)

    def test_mean_gaussian_pools_per_position(self):
        items = [Item(per_position=[[0.0, 0.0], [2.0, 2.0]]),
                 Item(per_position=[[1.0, 1.0]])]
        values, _ = gram(KernelSpec("mean-gaussian", sigma=1.0), items)
        assert values[0, 1] == pytest.approx(1.0, rel=1e-15)

    def test_scalar_items_become_vectors(self):
        items = [Item(scalar=0.0), Item(scalar=1.0)]
        values, _ = gram(KernelSpec("gaussian", sigma=1.0), items)
        assert values[0, 1] == pytest.approx(0.6065306597126334, rel=1e-15)

    def test_dimension_mismatch_rejected(self):
        items = [Item(embedding=[1.0]), Item(embedding=[1.0, 2.0])]
        with pytest.raises(ValueError, match="dimension"):
            gram(KernelSpec("gaussian", sigma=1.0), items)

    def test_cross_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="embedding dimension mismatch"):
            gram(KernelSpec("gaussian", sigma=1.0), [Item(embedding=[1.0])],
                 [Item(embedding=[1.0, 2.0])])


class TestTokenRows:
    """Sequence Grams read an Item's tokens, or a raw token sequence."""

    def test_reads_tokens(self):
        spec = KernelSpec("exp-hamming")
        items = [Item(tokens=("A", "B"), scalar=1.0), Item(tokens=("B",))]
        assert np.array_equal(gram(spec, items)[0],
                              gram(spec, [("A", "B"), ("B",)])[0])

    def test_passes_through_raw_sequences(self):
        spec = KernelSpec("exp-hamming")
        assert np.array_equal(gram(spec, [("A",)], [["A", "B"]])[0],
                              gram(spec, [("A",)], [("A", "B")])[0])

    def test_missing_tokens_rejected(self):
        with pytest.raises(ValueError, match="token representation"):
            gram(KernelSpec("exp-hamming"), [Item(tokens=("A",)),
                                             Item(scalar=1.0)])


@st.composite
def duplicated_items(draw):
    """A kernel spec and two equally long item lists drawn with repeats from
    a pool of at most four rows: rounded vectors with both signed zeros (d
    may be 0), or token tuples."""
    kind = draw(st.sampled_from(SEQUENCE_KINDS + VECTOR_KINDS))
    if kind in VECTOR_KINDS:
        coords = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.25])
        row = arrays(np.float64, draw(st.integers(0, 3)), elements=coords)
        sigma = draw(st.one_of(st.just("median"), st.floats(0.01, 100.0)))
        spec = KernelSpec(kind, sigma=sigma)
    else:
        row = tokens_st.filter(bool) if kind == "tilted-exp-hamming" \
            else tokens_st
        spec = KernelSpec(kind, lam=draw(st.floats(0.01, 10.0)))
    pool = draw(st.lists(row, min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    picks = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    return spec, draw(picks), draw(picks)


def dense_grams(spec, a, b):
    """(K_aa, K_ab, K_bb, resolved spec) evaluated on every row, duplicates
    included, with a 'median' bandwidth resolved over a + b."""
    n = len(a)
    if spec.kind in VECTOR_KINDS:
        vectors = np.stack(a + b)
        if spec.sigma == "median":
            spec = KernelSpec(spec.kind,
                              sigma=median_pairwise_distance(vectors))
        k = gaussian_gram(vectors, vectors, spec.sigma)
    else:
        codes, lengths = encode_sequences(a + b)
        k = sequence_gram(spec, codes, lengths, codes, lengths)
    return k[:n, :n], k[:n, n:], k[n:, n:], spec


class TestGramsOverDistinctRows:
    """Grams gathered from the distinct rows equal the dense Grams over
    every row bitwise, and `difference_gram` equals (K_aa + K_bb) -
    (K_ab + K_ab^T)."""

    @given(duplicated_items())
    @settings(max_examples=300, deadline=None)
    def test_gathers_equal_dense(self, case):
        spec, a, b = case
        _, _, k_aa, _ = dense_grams(spec, [], a)  # the median over a alone
        assert np.array_equal(gram(spec, a)[0], k_aa)
        _, k_ab, _, _ = dense_grams(spec, a, b)
        assert np.array_equal(gram(spec, a, b)[0], k_ab)

    @given(duplicated_items())
    @settings(max_examples=300, deadline=None)
    def test_difference_gram_equals_dense(self, case):
        spec, a, b = case
        k_aa, k_ab, k_bb, resolved = dense_grams(spec, a, b)
        same = k_aa + k_bb
        same -= k_ab + k_ab.T
        got, got_spec = difference_gram(spec, a, b)
        assert got_spec == resolved
        assert np.array_equal(got, same)


@st.composite
def duplicated_sample_sets(draw):
    """A dist-expmmd spec and sample sets drawn with repeats from a pool of
    at most four token tuples, so that MMD^2 estimates repeat and tie."""
    pool = draw(st.lists(tokens_st, min_size=1, max_size=4))
    sample = st.lists(st.sampled_from(pool), min_size=2, max_size=5)
    sigma = draw(st.one_of(st.just("median"), st.floats(0.5, 100.0)))
    spec = KernelSpec("dist-expmmd", sigma=sigma,
                      inner=KernelSpec("exp-hamming", lam=draw(st.floats(0.1, 3.0))))
    return spec, draw(st.lists(sample, min_size=1, max_size=8))


class TestGramContract:
    """Every Gram returns (values, the spec it resolved). A 'median' comes
    back as a float: for a vector kind, the median pairwise distance over
    all the rows given, duplicates included; other specs come back as they
    went in."""

    def check(self, result, spec, rows):
        values, resolved = result
        assert isinstance(values, np.ndarray)
        assert isinstance(resolved, KernelSpec)
        if spec.sigma != "median":
            assert resolved == spec
            return
        assert resolved.kind == spec.kind
        assert isinstance(resolved.sigma, float)
        if spec.kind in VECTOR_KINDS:
            assert resolved.sigma == median_pairwise_distance(np.stack(rows))

    @given(duplicated_items())
    @settings(max_examples=200, deadline=None)
    def test_item_grams(self, case):
        spec, a, b = case
        self.check(gram(spec, a), spec, a)
        self.check(gram(spec, a, b), spec, a + b)
        self.check(difference_gram(spec, a, b), spec, a + b)

    @given(duplicated_sample_sets())
    @settings(max_examples=100, deadline=None)
    def test_distribution_gram(self, case):
        spec, sets = case
        try:
            result = distribution_gram(spec, sets)
        except ValueError as exc:  # a small sigma overflows khat
            assert "khat overflows" in str(exc)
            return
        self.check(result, spec, None)


def cdist_median(vectors):
    """The median heuristic as it was computed from scipy's square cdist."""
    n = len(vectors)
    if n < 2:
        return 1.0
    dists = cdist(vectors, vectors, "euclidean")
    med = float(np.median(dists[np.triu_indices(n, 1)]))
    return med if med > 0 else 1.0


@st.composite
def vector_sets(draw):
    """Two float arrays of 1-60 rows each and one width d in 0..16."""
    d = draw(st.integers(0, 16))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    a, b = (draw(arrays(np.float64, (draw(st.integers(1, 60)), d),
                        elements=values)) for _ in range(2))
    return a, b


class TestGaussianMatchesCdist:
    """The numpy distances equal scipy's cdist bitwise, at the default block
    budget, with every row its own block, and in blocks of a few rows with a
    shorter last one."""

    @pytest.mark.parametrize("chunk_bytes", [None, 1, 3 << 14])
    @given(vecs=vector_sets(), sigma=st.floats(0.01, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_gaussian_gram(self, chunk_bytes, vecs, sigma):
        a, b = vecs
        want = np.exp(-cdist(a, b, "sqeuclidean") / (2.0 * sigma * sigma))
        with pytest.MonkeyPatch.context() as mp:
            if chunk_bytes is not None:
                mp.setattr(kernels, "_CHUNK_BYTES", chunk_bytes)
            got = gaussian_gram(a, b, sigma)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("chunk_bytes", [None, 1, 3 << 14])
    @given(vecs=vector_sets())
    @settings(max_examples=80, deadline=None)
    def test_median_pairwise_distance(self, chunk_bytes, vecs):
        a, b = vecs
        # Repeated rows give zero distances and ties among the pairs.
        for vectors in (a, np.concatenate([a, a[:len(a) // 2]])):
            with pytest.MonkeyPatch.context() as mp:
                if chunk_bytes is not None:
                    mp.setattr(kernels, "_CHUNK_BYTES", chunk_bytes)
                got = median_pairwise_distance(vectors)
            assert got == cdist_median(vectors)


class TestMedianHeuristic:
    def test_median_of_three_points(self):
        vectors = np.array([[0.0], [1.0], [3.0]])
        # pairwise distances 1, 3, 2 -> median 2
        assert median_pairwise_distance(vectors) == 2.0

    def test_degenerate_falls_back_to_one(self):
        assert median_pairwise_distance(np.zeros((5, 2))) == 1.0
        assert median_pairwise_distance(np.zeros((1, 2))) == 1.0

    def test_resolve_spec_fills_sigma(self):
        items = [Item(scalar=0.0), Item(scalar=1.0), Item(scalar=3.0)]
        assert gram(KernelSpec("gaussian"), items)[1].sigma == 2.0
        # Over both lists of a cross Gram.
        assert gram(KernelSpec("gaussian"), items[:1], items[1:])[1].sigma \
            == 2.0

    def test_resolve_leaves_numeric_sigma(self):
        spec = KernelSpec("gaussian", sigma=0.7)
        assert gram(spec, [Item(scalar=0.0)])[1] == spec


class TestMmd:
    def test_matches_brute_force(self, rng):
        for _ in range(10):
            a = [random_tokens(rng) for _ in range(int(rng.integers(2, 6)))]
            b = [random_tokens(rng) for _ in range(int(rng.integers(2, 6)))]
            got = mmd_sq_unbiased(a, b, KernelSpec("exp-hamming", lam=0.9))
            want = brute_mmd_sq(a, b, lambda x, y: brute_exp_hamming(x, y, 0.9))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_frozen_negative_instance(self):
        # Identical two-point samples: within-terms contribute 2e^-1 and the
        # cross term 1 + e^-1, so the unbiased estimate is negative.
        a = [("A",), ("B",)]
        got = mmd_sq_unbiased(a, a, KernelSpec("exp-hamming", lam=1.0))
        assert got == pytest.approx(-0.6321205588285577, rel=1e-14)

    def test_requires_two_per_side(self):
        with pytest.raises(ValueError, match="2 samples"):
            mmd_sq_unbiased([("A",)], [("A",), ("B",)],
                            KernelSpec("exp-hamming"))

    def test_rejects_vector_kernel(self):
        # Model samples are token tuples, so the MMD needs a sequence kernel.
        with pytest.raises(ValueError, match="sequence kernel"):
            mmd_sq_unbiased([("A",), ("B",)], [("A",), ("B",)],
                            KernelSpec("gaussian", sigma=1.0))

    def test_identical_distributions_mean_near_zero(self, rng):
        # Unbiasedness sanity: same-law samples average near 0.
        values = []
        ky = KernelSpec("exp-hamming")
        for _ in range(200):
            a = [random_tokens(rng, 3) for _ in range(4)]
            b = [random_tokens(rng, 3) for _ in range(4)]
            values.append(mmd_sq_unbiased(a, b, ky))
        assert abs(np.mean(values)) < 3 * np.std(values) / math.sqrt(len(values))


def brute_mmd_matrix(sets, ky):
    """Plain-loop unbiased MMD^2 between every two sample sets."""
    brute = brute_exp_hamming if ky.kind == "exp-hamming" else brute_tilted
    n = len(sets)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = brute_mmd_sq(sets[i], sets[j],
                                         lambda a, b: brute(a, b, ky.lam))
    return out


def panel_mmd(sets, ky, monkeypatch, rows=None, blocks=None):
    """mmd_sq_matrix, with a budget of `rows`-row blocks if `rows` is given
    and tall panels of `blocks` blocks if `blocks` is given.

    Returns the matrix, the rows of each block, the rows of each tall
    panel (the dense operand of each C[:, T] @ Z[T] product), and the
    `indicators` argument of each hamming_gram call.
    """
    v = len({tuple(s) for one in sets for s in one})
    panels, tall, indicators = [], [], []
    real_sequence, real_hamming = kernels.sequence_gram, kernels.hamming_gram
    real_matmul = scipy.sparse.csc_matrix.__matmul__

    def sequence_spy(spec, codes_a, *args):
        panels.append(len(codes_a))
        return real_sequence(spec, codes_a, *args)

    def hamming_spy(codes_a, codes_b, blocks=None):
        indicators.append(blocks)
        return real_hamming(codes_a, codes_b, blocks)

    def matmul_spy(counts, other):
        if isinstance(other, np.ndarray):
            tall.append(len(other))
        return real_matmul(counts, other)

    if blocks is not None:
        monkeypatch.setattr(kernels, "_PANEL_BLOCKS", blocks)
    if rows is not None:
        # A block costs 16 bytes per entry, and Z 8 per record and tall row.
        monkeypatch.setattr(
            kernels, "_CHUNK_BYTES",
            rows * (16 * v + 8 * kernels._PANEL_BLOCKS * len(sets)))
    monkeypatch.setattr(kernels, "sequence_gram", sequence_spy)
    monkeypatch.setattr(kernels, "hamming_gram", hamming_spy)
    monkeypatch.setattr(scipy.sparse.csc_matrix, "__matmul__", matmul_spy)
    return mmd_sq_matrix(sets, ky), panels, tall, indicators


@st.composite
def mmd_cases(draw):
    """A sequence kernel and 2-5 sample sets of 2-6 tuples each."""
    kind = draw(st.sampled_from(SEQUENCE_KINDS))
    tokens = st.lists(st.sampled_from("AB"), max_size=5,
                      min_size=int(kind == "tilted-exp-hamming")).map(tuple)
    sets = draw(st.lists(st.lists(tokens, min_size=2, max_size=6),
                         min_size=2, max_size=5))
    return KernelSpec(kind, lam=draw(st.floats(0.05, 3.0))), sets


class TestMmdMatrix:
    @given(mmd_cases())
    @example((KernelSpec("exp-hamming", lam=0.7),
              [[(), ("A",)], [("B", "A"), (), ("A", "A", "B"), ("B",), ()],
               [("A",), ("A", "B"), ("B", "B", "B")]]))
    @example((KernelSpec("tilted-exp-hamming", lam=1.3),
              [[("A",), ("B",), ("A", "B")], [("B", "B"), ("A", "A", "A")],
               [("A",), ("B", "A"), ("B",), ("A", "B", "B")]]))
    @settings(max_examples=60, deadline=None)
    def test_panels_match_plain_loop_u_statistic(self, case):
        ky, sets = case
        v = len({s for one in sets for s in one})
        assume(v >= 5 and v % 2 == 1)
        with pytest.MonkeyPatch.context() as mp:
            got, panels, tall, _ = panel_mmd(sets, ky, mp, rows=2, blocks=2)
        # Two-row blocks in four-row tall panels over an odd vocabulary: at
        # least two tall panels, two blocks in the first, and a one-row
        # last block in a partial last tall panel.
        assert tall[:-1] == [4] * (len(tall) - 1) and len(tall) >= 2
        assert tall[-1] in (1, 3) and sum(tall) == v
        assert panels[:2] == [2, 2] and panels[-1] == 1
        assert np.array_equal(got, got.T)
        assert not np.diag(got).any()
        want = brute_mmd_matrix(sets, ky)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", ["exp-hamming", "tilted-exp-hamming"])
    def test_matches_pairwise_direct(self, rng, kind):
        sets = []
        for _ in range(6):
            size = int(rng.integers(2, 7))
            seqs = [random_tokens(rng) for _ in range(size)]
            if kind == "tilted-exp-hamming":
                seqs = [s if s else ("B",) for s in seqs]
            sets.append(seqs)
        ky = KernelSpec(kind, lam=1.1)
        matrix = mmd_sq_matrix(sets, ky)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                assert matrix[i, j] == pytest.approx(
                    mmd_sq_unbiased(sets[i], sets[j], ky),
                    rel=1e-12, abs=1e-12)
        assert np.array_equal(matrix, matrix.T)

    def test_small_records_get_zero_diagonal(self):
        sets = [[("A",), ("B",)], [("A",), ("A",), ("B",)]]
        matrix = mmd_sq_matrix(sets, KernelSpec("exp-hamming"))
        assert matrix[0, 0] == 0.0
        assert matrix[1, 1] == 0.0

    def test_all_empty_samples_give_zero(self):
        # Every sample is (), so the encoded width is 0.
        sets = [[(), ()], [(), (), ()], [(), ()]]
        matrix = mmd_sq_matrix(sets, KernelSpec("exp-hamming"))
        assert np.array_equal(matrix, np.zeros((3, 3)))

    def test_direct_fallback_path_matches(self, rng):
        # 200 symbols at widths up to 30: several groups of codes, each
        # with its own indicator block.
        symbols = [f"s{i}" for i in range(200)]
        sets = [[tuple(symbols[int(k)] for k in
                       rng.integers(0, 200, int(rng.integers(10, 31))))
                 for _ in range(size)] for size in (3, 5, 4, 2)]
        codes, _ = encode_sequences([s for one in sets for s in one])
        assert len(list(kernels._indicators(codes, np.unique(codes)))) > 1
        ky = KernelSpec("exp-hamming", lam=0.8)
        want = brute_mmd_matrix(sets, ky)
        # Three-row panels: the blocks are too large for that budget, so
        # hamming_gram builds them group by group for every panel.
        with pytest.MonkeyPatch.context() as mp:
            small, panels, _, indicators = panel_mmd(sets, ky, mp, rows=3)
        assert len(panels) >= 3 and panels[-1] < 3
        assert all(blocks is None for blocks in indicators)
        # The default budget holds the blocks, built once.
        with pytest.MonkeyPatch.context() as mp:
            default, _, _, indicators = panel_mmd(sets, ky, mp)
        assert all(blocks is not None for blocks in indicators)
        for got in (small, default):
            assert np.array_equal(got, got.T)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", SEQUENCE_KINDS)
    def test_permuting_records_permutes_tall_panels_bitwise(self, rng, kind):
        # 40 distinct samples in 2-row blocks and the default tall panels:
        # three tall panels, the last one partial.
        pool = [tuple(random_tokens(rng)) + ("A",) for _ in range(200)]
        pool = sorted(set(pool))[:40]
        assert len(pool) == 40
        sets = [[pool[int(i)] for i in rng.integers(0, 40, 8)]
                for _ in range(12)]
        sets[0] = pool  # every sample occurs
        order = rng.permutation(len(sets))
        ky = KernelSpec(kind, lam=0.9)
        with pytest.MonkeyPatch.context() as mp:
            got, _, tall, _ = panel_mmd(sets, ky, mp, rows=2)
        assert len(tall) >= 2 and tall[-1] < tall[0] == 2 * kernels._PANEL_BLOCKS
        with pytest.MonkeyPatch.context() as mp:
            permuted, _, _, _ = panel_mmd([sets[i] for i in order], ky, mp,
                                          rows=2)
        assert np.array_equal(permuted, got[np.ix_(order, order)])
        assert got == pytest.approx(brute_mmd_matrix(sets, ky), rel=1e-12,
                                    abs=1e-12)

    def test_rejects_undersized_record(self):
        with pytest.raises(ValueError, match="at least 2"):
            mmd_sq_matrix([[("A",)], [("A",), ("B",)]],
                          KernelSpec("exp-hamming"))

    def test_rejects_no_sample_sets(self):
        ky = KernelSpec("exp-hamming")
        with pytest.raises(ValueError, match="at least one sample set"):
            mmd_sq_matrix([], ky)
        with pytest.raises(ValueError, match="at least one sample set"):
            distribution_gram(
                KernelSpec("dist-expmmd", sigma=1.0, inner=ky), [])


class TestDistributionGram:
    def test_matches_exp_of_mmd(self, rng):
        sets = [[random_tokens(rng) for _ in range(4)] for _ in range(5)]
        spec = KernelSpec("dist-expmmd", sigma=0.8,
                          inner=KernelSpec("exp-hamming"))
        values, resolved = distribution_gram(spec, sets)
        mmd = mmd_sq_matrix(sets, spec.inner)
        assert resolved.sigma == 0.8
        for i in range(5):
            for j in range(5):
                assert values[i, j] == pytest.approx(
                    math.exp(-mmd[i, j] / (2 * 0.8 ** 2)), rel=1e-12)

    def test_frozen_negative_mmd_gives_value_above_one(self):
        sets = [[("A",), ("B",)], [("A",), ("B",)]]
        spec = KernelSpec("dist-expmmd", sigma=1.0,
                          inner=KernelSpec("exp-hamming"))
        values, _ = distribution_gram(spec, sets)
        mmd = mmd_sq_matrix(sets, spec.inner)
        assert mmd[0, 1] == pytest.approx(-0.6321205588285577, rel=1e-14)
        assert values[0, 1] == pytest.approx(1.3717129391864922, rel=1e-14)

    @given(sets=st.lists(st.lists(tokens_st, min_size=2, max_size=6),
                         min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_median_sigma_resolution(self, sets):
        spec = KernelSpec("dist-expmmd", inner=KernelSpec("exp-hamming"))
        mmd = mmd_sq_matrix(sets, spec.inner)
        dists = np.sqrt(np.clip(mmd, 0.0, None))
        med = float(np.median(dists[np.triu_indices(len(sets), 1)]))
        want = med if med > 0 else 1.0
        try:
            _, resolved = distribution_gram(spec, sets)
        except ValueError as exc:  # a small sigma overflows khat
            assert f"sigma_p={want!r} " in str(exc)
        else:
            assert resolved.sigma == want

    def test_gram_rejects_distribution_kind(self, rng):
        sets = [[random_tokens(rng) for _ in range(3)] for _ in range(3)]
        with pytest.raises(ValueError, match="distribution_gram"):
            gram(KernelSpec("dist-expmmd", sigma=1.0), sets)
