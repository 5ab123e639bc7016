import math

import numpy as np
import pytest

from acmmd import kernels
from acmmd.estimator import (HMatrix, acmmd_sq, acmmd_sq_from_triplets,
                             h_from_columns, h_matrix, sigma_h_sq)
from acmmd.kernels import KernelSpec
from acmmd.records import Item, Triplet

from conftest import (brute_acmmd_sq, brute_exp_hamming, brute_gaussian,
                      brute_h_entry, random_tokens)


def random_triplets(rng, n, max_len=4):
    out = []
    for _ in range(n):
        out.append(Triplet(
            x=Item(scalar=float(rng.normal())),
            y=Item(tokens=random_tokens(rng, max_len)),
            y_model=Item(tokens=random_tokens(rng, max_len)),
        ))
    return out


def kx_scalar(sigma):
    return lambda a, b: brute_gaussian([a.scalar], [b.scalar], sigma)


def ky_tokens(lam):
    return lambda a, b: brute_exp_hamming(a.tokens, b.tokens, lam)


def g_term(y1, ym1, y2, ym2, ky):
    """g between two records, as h[0, 1] at equal inputs (kx = 1)."""
    x = Item(scalar=0.0)
    triplets = [Triplet(x=x, y=Item(tokens=y1), y_model=Item(tokens=ym1)),
                Triplet(x=x, y=Item(tokens=y2), y_model=Item(tokens=ym2))]
    return h_matrix(triplets, KernelSpec("gaussian", sigma=1.0),
                    ky).values[0, 1]


class TestGTerm:
    def test_frozen_single_sided_example(self):
        # Models agree, data differ, and each cross pair differs in one slot:
        # g = 1 + e^-1 - e^-1 - e^-1 = 1 - e^-1.
        ky = KernelSpec("exp-hamming", lam=1.0)
        got = g_term((), ("B",), ("A",), ("B",), ky)
        assert got == pytest.approx(0.6321205588285577, rel=1e-14)

    def test_perfect_model_gives_zero(self):
        ky = KernelSpec("exp-hamming")
        assert g_term(("A", "B"), ("A", "B"), ("B",), ("B",), ky) == 0.0

    def test_doubled_disagreement(self):
        # Within-group pairs match, cross pairs flip: g = 2 (1 - e^-1).
        ky = KernelSpec("exp-hamming", lam=1.0)
        got = g_term(("A",), ("B",), ("A",), ("B",), ky)
        assert got == pytest.approx(1.2642411176571153, rel=1e-14)
        flipped = g_term(("A",), ("B",), ("B",), ("A",), ky)
        assert flipped == pytest.approx(-1.2642411176571153, rel=1e-14)


class TestHMatrix:
    def test_matches_brute_force(self, rng):
        kx = KernelSpec("gaussian", sigma=1.0)
        ky = KernelSpec("exp-hamming", lam=1.0)
        for n in (2, 3, 5, 8):
            triplets = random_triplets(rng, n)
            h = h_matrix(triplets, kx, ky)
            assert isinstance(h, HMatrix)
            assert h.n == n
            for i in range(n):
                for j in range(n):
                    want = brute_h_entry(triplets[i], triplets[j],
                                         kx_scalar(1.0), ky_tokens(1.0))
                    assert h.values[i, j] == pytest.approx(
                        want, rel=1e-12, abs=1e-14)

    def test_symmetric(self, rng):
        triplets = random_triplets(rng, 6)
        h = h_matrix(triplets, KernelSpec("gaussian", sigma=2.0),
                     KernelSpec("exp-hamming", lam=0.5))
        assert np.allclose(h.values, h.values.T, atol=1e-15)

    def test_embedding_outputs(self, rng):
        # Vector-valued outputs exercise the gaussian output kernel.
        kx = KernelSpec("gaussian", sigma=1.0)
        ky = KernelSpec("gaussian", sigma=1.5)
        triplets = []
        for _ in range(5):
            triplets.append(Triplet(
                x=Item(scalar=float(rng.normal())),
                y=Item(embedding=rng.normal(size=3)),
                y_model=Item(embedding=rng.normal(size=3)),
            ))
        h = h_matrix(triplets, kx, ky)
        for i in range(5):
            for j in range(5):
                ti, tj = triplets[i], triplets[j]
                kxv = brute_gaussian([ti.x.scalar], [tj.x.scalar], 1.0)
                kf = lambda a, b: brute_gaussian(a, b, 1.5)
                g = (kf(ti.y_model.embedding, tj.y_model.embedding)
                     + kf(ti.y.embedding, tj.y.embedding)
                     - kf(ti.y_model.embedding, tj.y.embedding)
                     - kf(ti.y.embedding, tj.y_model.embedding))
                assert h.values[i, j] == pytest.approx(
                    kxv * g, rel=1e-12, abs=1e-14)

    def test_median_sigma_resolved_once(self, rng):
        triplets = random_triplets(rng, 4)
        h = h_matrix(triplets, KernelSpec("gaussian"),
                     KernelSpec("exp-hamming"))
        assert isinstance(h.kx.sigma, float)
        assert h.kx.sigma > 0

    def test_inputs_become_rows_once(self, rng, monkeypatch):
        # The median and the Gram read one conversion of the input column.
        calls = []
        vectors_of = kernels._vectors_of

        def counted(items, kind):
            calls.append(len(items))
            return vectors_of(items, kind)

        monkeypatch.setattr(kernels, "_vectors_of", counted)
        triplets = random_triplets(rng, 5)
        h = h_matrix(triplets, KernelSpec.parse("gaussian:sigma=median"),
                     KernelSpec("exp-hamming"))
        assert calls == [5]
        assert isinstance(h.kx.sigma, float)

    def test_requires_two_triplets(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            h_matrix(random_triplets(rng, 1), KernelSpec("gaussian", sigma=1.0),
                     KernelSpec("exp-hamming"))

    @pytest.mark.parametrize("kx,inputs", [
        (KernelSpec("gaussian", sigma=1.0), np.zeros((1, 1))),
        (KernelSpec("gaussian", sigma=1.0), np.zeros((2, 1))),
        (KernelSpec("dist-expmmd", sigma=1.0, inner=KernelSpec("exp-hamming")),
         [(("A",), ("B", "A"))]),
    ])
    def test_one_input_per_record(self, kx, inputs):
        # Neither a broadcast nor a numpy shape error: the lengths are named.
        ys = [("A",), ("B",), ("A", "B"), ("B", "A")]
        with pytest.raises(ValueError,
                           match=f"^{len(inputs)} inputs for 4 records$"):
            h_from_columns(kx, inputs, KernelSpec("exp-hamming"), ys, ys)


class TestAcmmdSq:
    def test_matches_brute_force(self, rng):
        for n in (2, 3, 6):
            triplets = random_triplets(rng, n)
            h = h_matrix(triplets, KernelSpec("gaussian", sigma=1.0),
                         KernelSpec("exp-hamming", lam=1.0))
            want = brute_acmmd_sq(triplets, kx_scalar(1.0), ky_tokens(1.0))
            assert acmmd_sq(h) == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_n2_is_single_off_diagonal_entry(self, rng):
        triplets = random_triplets(rng, 2)
        h = h_matrix(triplets, KernelSpec("gaussian", sigma=1.0),
                     KernelSpec("exp-hamming"))
        assert acmmd_sq(h) == h.values[0, 1]

    def test_diagonal_is_ignored(self, rng):
        triplets = random_triplets(rng, 5)
        h = h_matrix(triplets, KernelSpec("gaussian", sigma=1.0),
                     KernelSpec("exp-hamming"))
        spiked = HMatrix(values=h.values + np.diag(np.full(5, 1e6)),
                         kx=h.kx, ky=h.ky)
        assert acmmd_sq(spiked) == pytest.approx(acmmd_sq(h), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7, 200])
    def test_mask_mean_equals_triu_gather_mean(self, n):
        values = np.random.default_rng(n).normal(size=(n, n))
        values += values.T
        iu = np.triu_indices(n, 1)
        assert acmmd_sq(values) == float(values[iu].mean())

    def test_negative_values_stay_negative(self):
        values = np.array([[0.0, -1.0], [-1.0, 0.0]])
        h = HMatrix(values=values, kx=KernelSpec("gaussian", sigma=1.0),
                    ky=KernelSpec("exp-hamming"))
        assert acmmd_sq(h) == -1.0

    def test_from_triplets_shortcut(self, rng):
        triplets = random_triplets(rng, 4)
        kx = KernelSpec("gaussian", sigma=1.0)
        ky = KernelSpec("exp-hamming", lam=1.0)
        assert acmmd_sq_from_triplets(triplets, kx, ky) == pytest.approx(
            brute_acmmd_sq(triplets, kx_scalar(1.0), ky_tokens(1.0)),
            rel=1e-12, abs=1e-14)


class TestSigmaH:
    def test_frozen_three_point_instance(self):
        values = np.array([[0.0, -1.0, 1.0],
                           [-1.0, 0.0, 3.0],
                           [1.0, 3.0, 0.0]])
        h = HMatrix(values=values, kx=KernelSpec("gaussian", sigma=1.0),
                    ky=KernelSpec("exp-hamming"))
        # Row means over off-diagonal entries: 0, 1, 2; sample variance 1.
        assert sigma_h_sq(h) == 4.0

    def test_constant_rows_give_zero(self):
        values = np.full((4, 4), 2.0) - 2.0 * np.eye(4)
        h = HMatrix(values=values, kx=KernelSpec("gaussian", sigma=1.0),
                    ky=KernelSpec("exp-hamming"))
        assert sigma_h_sq(h) == 0.0

    def test_requires_three_rows(self):
        values = np.zeros((2, 2))
        h = HMatrix(values=values, kx=KernelSpec("gaussian", sigma=1.0),
                    ky=KernelSpec("exp-hamming"))
        with pytest.raises(ValueError, match="at least 3"):
            sigma_h_sq(h)

    def test_diagonal_excluded_from_row_means(self):
        base = np.array([[0.0, 1.0, 2.0],
                         [1.0, 0.0, 4.0],
                         [2.0, 4.0, 0.0]])
        spiked = base + np.diag([9.0, 9.0, 9.0])
        hb = HMatrix(values=base, kx=KernelSpec("gaussian", sigma=1.0),
                     ky=KernelSpec("exp-hamming"))
        hs = HMatrix(values=spiked, kx=KernelSpec("gaussian", sigma=1.0),
                     ky=KernelSpec("exp-hamming"))
        assert sigma_h_sq(hb) == sigma_h_sq(hs)
