import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acmmd.kernels import (DISTRIBUTION_KINDS, SEQUENCE_KINDS, VECTOR_KINDS,
                           KernelSpec, distribution_gram, gaussian_gram, gram,
                           hamming_gram, mean_pool, median_pairwise_distance,
                           mmd_sq_matrix, mmd_sq_unbiased, resolve_spec,
                           sequence_gram)
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
            value = gram(KernelSpec("exp-hamming", lam=lam), [a], [b])[0, 0]
            assert value == pytest.approx(want, rel=1e-15)

    def test_tilted_divides_by_lengths(self):
        value = gram(KernelSpec("tilted-exp-hamming"), [("A", "B")], [("A",)])
        assert value[0, 0] == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-15)

    def test_tilted_rejects_empty(self):
        spec = KernelSpec("tilted-exp-hamming")
        with pytest.raises(ValueError, match="empty"):
            gram(spec, [()], [("A",)])
        with pytest.raises(ValueError, match="empty"):
            gram(spec, [("A",), ()])

    def test_gaussian_values(self):
        spec = KernelSpec("gaussian", sigma=1.0)
        assert gram(spec, [0.0], [0.0])[0, 0] == 1.0
        assert gram(spec, [0.0], [1.0])[0, 0] == pytest.approx(
            0.6065306597126334, rel=1e-15)
        assert gram(spec, [[1.0, 0.0]], [[0.0, 1.0]])[0, 0] == pytest.approx(
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
        seq_gram = gram(KernelSpec("exp-hamming"), items)
        assert seq_gram[0, 0] == 1.0
        vec_gram = gram(KernelSpec("gaussian", sigma=1.0), items)
        expected = brute_gaussian(items[0].embedding, items[1].embedding, 1.0)
        assert vec_gram[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_gram_cross_blocks(self, rng):
        a = [random_tokens(rng) for _ in range(4)]
        b = [random_tokens(rng) for _ in range(6)]
        cross = gram(KernelSpec("exp-hamming", lam=0.5), a, b)
        assert cross.shape == (4, 6)
        for i in range(4):
            for j in range(6):
                assert cross[i, j] == pytest.approx(
                    brute_exp_hamming(a[i], b[j], 0.5), rel=1e-12)

    def test_mean_gaussian_pools_per_position(self):
        items = [Item(per_position=[[0.0, 0.0], [2.0, 2.0]]),
                 Item(per_position=[[1.0, 1.0]])]
        values = gram(KernelSpec("mean-gaussian", sigma=1.0), items)
        assert values[0, 1] == pytest.approx(1.0, rel=1e-15)

    def test_scalar_items_become_vectors(self):
        items = [Item(scalar=0.0), Item(scalar=1.0)]
        values = gram(KernelSpec("gaussian", sigma=1.0), items)
        assert values[0, 1] == pytest.approx(0.6065306597126334, rel=1e-15)

    def test_dimension_mismatch_rejected(self):
        items = [Item(embedding=[1.0]), Item(embedding=[1.0, 2.0])]
        with pytest.raises(ValueError, match="dimension"):
            gram(KernelSpec("gaussian", sigma=1.0), items)


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
        spec = resolve_spec(KernelSpec("gaussian"), items)
        assert spec.sigma == 2.0

    def test_resolve_leaves_numeric_sigma(self):
        spec = KernelSpec("gaussian", sigma=0.7)
        assert resolve_spec(spec, [Item(scalar=0.0)]) == spec


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


class TestMmdMatrix:
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
        assert np.allclose(matrix, matrix.T, atol=1e-15)

    def test_small_records_get_zero_diagonal(self):
        sets = [[("A",), ("B",)], [("A",), ("A",), ("B",)]]
        matrix = mmd_sq_matrix(sets, KernelSpec("exp-hamming"))
        assert matrix[0, 0] == 0.0
        assert matrix[1, 1] == 0.0

    def test_direct_fallback_path_matches(self, rng):
        # A wide alphabet: 200 symbols plus the pad code.
        symbols = [f"s{i}" for i in range(200)]
        sets = []
        for _ in range(4):
            seqs = [tuple(symbols[int(k)] for k in rng.integers(0, 200, 6))
                    for _ in range(3)]
            sets.append(seqs)
        ky = KernelSpec("exp-hamming", lam=0.8)
        matrix = mmd_sq_matrix(sets, ky)
        for i in range(4):
            for j in range(i + 1, 4):
                assert matrix[i, j] == pytest.approx(
                    mmd_sq_unbiased(sets[i], sets[j], ky),
                    rel=1e-12, abs=1e-12)

    def test_rejects_undersized_record(self):
        with pytest.raises(ValueError, match="at least 2"):
            mmd_sq_matrix([[("A",)], [("A",), ("B",)]],
                          KernelSpec("exp-hamming"))


class TestDistributionGram:
    def test_matches_exp_of_mmd(self, rng):
        sets = [[random_tokens(rng) for _ in range(4)] for _ in range(5)]
        spec = KernelSpec("dist-expmmd", sigma=0.8,
                          inner=KernelSpec("exp-hamming"))
        values, resolved, mmd = distribution_gram(spec, sets)
        assert resolved.sigma == 0.8
        for i in range(5):
            for j in range(5):
                assert values[i, j] == pytest.approx(
                    math.exp(-mmd[i, j] / (2 * 0.8 ** 2)), rel=1e-12)

    def test_frozen_negative_mmd_gives_value_above_one(self):
        sets = [[("A",), ("B",)], [("A",), ("B",)]]
        spec = KernelSpec("dist-expmmd", sigma=1.0,
                          inner=KernelSpec("exp-hamming"))
        values, _, mmd = distribution_gram(spec, sets)
        assert mmd[0, 1] == pytest.approx(-0.6321205588285577, rel=1e-14)
        assert values[0, 1] == pytest.approx(1.3717129391864922, rel=1e-14)

    def test_median_sigma_resolution(self, rng):
        sets = [[random_tokens(rng) for _ in range(5)] for _ in range(6)]
        spec = KernelSpec("dist-expmmd", inner=KernelSpec("exp-hamming"))
        values, resolved, mmd = distribution_gram(spec, sets)
        iu = np.triu_indices(6, 1)
        med = float(np.median(np.sqrt(np.clip(mmd[iu], 0.0, None))))
        assert resolved.sigma == (med if med > 0 else 1.0)

    def test_gram_rejects_distribution_kind(self, rng):
        sets = [[random_tokens(rng) for _ in range(3)] for _ in range(3)]
        with pytest.raises(ValueError, match="distribution_gram"):
            gram(KernelSpec("dist-expmmd", sigma=1.0), sets)
