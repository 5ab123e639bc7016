import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acmmd._rng import SK_DATA, generator
from acmmd.kernels import KernelSpec
from acmmd.records import Item, ReliabilityRecord, Triplet
from acmmd.toy import (TOY_ALPHABET, TOY_SYMBOLS, ToyConfig, ToyPrior,
                       acmmd_rel_sq_exact, acmmd_sq_exact,
                       generate_reliability_records, generate_triplets,
                       _sample_columns, mmd_sq_models_exact,
                       sample_data_sequences, sample_inputs,
                       sample_model_sequences)

from conftest import (oracle_data_sequence, oracle_length_probability,
                      oracle_model_sequence)


def single_atom(p=0.4, delta_p=0.25, lam=1.0, kx_sigma=1.0):
    return ToyConfig(prior=ToyPrior(atoms=(p,)), delta_p=delta_p, lam=lam,
                     kx_sigma=kx_sigma)


def loop_model_sequences(p_arr, delta_p, rng):
    """The row-by-row model sampler that the vectorized one replaced."""
    p_arr = np.asarray(p_arr, dtype=np.float64)
    u = rng.random(len(p_arr))
    tail_lens = rng.geometric(1.0 - 2.0 * p_arr) - 1
    tail_bits = rng.integers(0, 2, size=int(tail_lens.sum()))
    symbols = [TOY_SYMBOLS[b] for b in tail_bits]
    out, start = [], 0
    for i, p in enumerate(p_arr):
        tail = tuple(symbols[start:start + tail_lens[i]])
        start += tail_lens[i]
        if u[i] < 1.0 - 2.0 * p:
            out.append(())
        else:
            out.append(("B" if u[i] >= 1.0 - p - delta_p else "A",) + tail)
    return out


class TestValidation:
    def test_prior_atoms_must_be_in_open_interval(self):
        for bad in (0.0, 0.5, -0.1, 0.6):
            with pytest.raises(ValueError):
                ToyPrior(atoms=(bad,))

    def test_prior_weights_normalize(self):
        prior = ToyPrior(atoms=(0.3, 0.4), weights=(1.0, 3.0))
        assert prior.weights == (0.25, 0.75)

    def test_prior_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            ToyPrior(atoms=(0.3, 0.4), weights=(1.0,))

    def test_prior_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            ToyPrior(atoms=(0.3, 0.4), weights=(1.0, 0.0))

    def test_default_prior(self):
        prior = ToyPrior.default()
        assert prior.atoms == (0.3, 0.3375, 0.375, 0.4125, 0.45)
        assert prior.weights == (0.2,) * 5

    def test_delta_p_bounded_by_smallest_atom(self):
        ToyConfig(prior=ToyPrior(atoms=(0.3,)), delta_p=0.3)
        with pytest.raises(ValueError, match="delta_p"):
            ToyConfig(prior=ToyPrior(atoms=(0.3,)), delta_p=0.31)
        with pytest.raises(ValueError, match="delta_p"):
            ToyConfig(delta_p=-0.1)

    def test_kernels_from_config(self):
        config = ToyConfig(lam=2.0, kx_sigma=0.5)
        assert config.ky == KernelSpec("exp-hamming", lam=2.0)
        assert config.kx == KernelSpec("gaussian", sigma=0.5)

    def test_with_delta_p(self):
        config = ToyConfig(delta_p=0.0)
        bumped = config.with_delta_p(0.2)
        assert bumped.delta_p == 0.2
        assert bumped.prior == config.prior
        assert config.delta_p == 0.0


class TestSamplers:
    def test_alphabet(self):
        assert TOY_SYMBOLS == ("A", "B")
        assert TOY_ALPHABET.terminal == "STOP"
        assert TOY_ALPHABET.sequence_symbols == ("A", "B")

    def test_length_distribution_matches_closed_form(self):
        rng = generator(42)
        p = 0.4
        seqs = sample_data_sequences(np.full(200_000, p), rng)
        lengths = np.array([len(s) for s in seqs])
        for m in range(5):
            want = oracle_length_probability(p, m)
            got = float(np.mean(lengths == m))
            se = math.sqrt(want * (1 - want) / len(seqs))
            assert abs(got - want) < 4 * se

    def test_symbols_fair_given_survival(self):
        rng = generator(43)
        seqs = sample_data_sequences(np.full(100_000, 0.45), rng)
        firsts = [s[0] for s in seqs if s]
        rate = sum(1 for c in firsts if c == "A") / len(firsts)
        assert abs(rate - 0.5) < 4 * math.sqrt(0.25 / len(firsts))

    def test_model_first_position_is_perturbed(self):
        rng = generator(44)
        p, dp = 0.4, 0.25
        n = 200_000
        seqs = sample_model_sequences(np.full(n, p), dp, rng)
        n_empty = sum(1 for s in seqs if not s)
        n_a = sum(1 for s in seqs if s and s[0] == "A")
        n_b = sum(1 for s in seqs if s and s[0] == "B")
        se = math.sqrt(0.25 / n)
        assert abs(n_empty / n - (1 - 2 * p)) < 4 * se
        assert abs(n_a / n - (p - dp)) < 4 * se
        assert abs(n_b / n - (p + dp)) < 4 * se

    def test_model_tail_follows_data_process(self):
        # Beyond the first position the model walks the data process, so
        # continuation lengths after a surviving first symbol are geometric.
        rng = generator(45)
        p = 0.4
        seqs = sample_model_sequences(np.full(150_000, p), 0.2, rng)
        tails = [len(s) - 1 for s in seqs if s]
        for m in range(4):
            want = oracle_length_probability(p, m)
            got = float(np.mean(np.array(tails) == m))
            assert abs(got - want) < 4 * math.sqrt(want * (1 - want) / len(tails))

    def test_scalar_oracle_agrees_on_small_sequences(self):
        # The vectorized sampler and a per-position scalar walk are two
        # different factorizations of the same law; compare histograms of
        # whole sequences up to a cutoff.
        p, dp = 0.35, 0.15
        n = 120_000
        vec_rng = generator(7)
        vec = sample_model_sequences(np.full(n, p), dp, vec_rng)
        scalar_rng = np.random.default_rng(1234)
        scalar = [oracle_model_sequence(p, dp, scalar_rng) for _ in range(n)]
        for probe in [(), ("A",), ("B",), ("A", "A"), ("B", "A")]:
            got = sum(1 for s in vec if s == probe) / n
            want = sum(1 for s in scalar if s == probe) / n
            se = math.sqrt(max(want, 1e-4) * 1 / n)
            assert abs(got - want) < 5 * se

    @given(seed=st.integers(0, 2**32 - 1),
           p_arr=st.lists(st.floats(0.01, 0.49), max_size=40),
           frac=st.floats(0.0, 1.0))
    @example(seed=0, p_arr=[], frac=0.5)
    @example(seed=0, p_arr=[0.4], frac=0.5)
    @settings(max_examples=150, deadline=None)
    def test_model_sampler_equals_row_loop(self, seed, p_arr, frac):
        delta_p = frac * min(p_arr, default=0.0)
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        got = sample_model_sequences(p_arr, delta_p, got_rng)
        assert got == loop_model_sequences(p_arr, delta_p, want_rng)
        # Both took the same draws from the stream.
        assert got_rng.random() == want_rng.random()

    def test_inputs_follow_prior_weights(self):
        prior = ToyPrior(atoms=(0.3, 0.45), weights=(0.25, 0.75))
        rng = generator(9)
        draws = sample_inputs(prior, 100_000, rng)
        rate = float(np.mean(draws == 0.45))
        assert abs(rate - 0.75) < 4 * math.sqrt(0.25 * 0.75 / 100_000)


class TestGenerate:
    def test_deterministic_and_seed_sensitive(self):
        config = ToyConfig(delta_p=0.25)
        a = generate_triplets(config, 20, seed=5)
        b = generate_triplets(config, 20, seed=5)
        c = generate_triplets(config, 20, seed=6)
        assert a == b
        assert a != c

    def test_records_have_expected_shape(self):
        config = ToyConfig(delta_p=0.1)
        records = generate_triplets(config, 10, seed=0)
        assert len(records) == 10
        for t in records:
            assert t.x.scalar in config.prior.atoms
            assert t.group == f"p={t.x.scalar:g}"
            assert all(s in TOY_SYMBOLS for s in t.y.tokens)
            assert all(s in TOY_SYMBOLS for s in t.y_model.tokens)

    def test_zero_records_allowed(self):
        assert generate_triplets(ToyConfig(), 0, seed=0) == []

    def test_reliability_records(self):
        config = ToyConfig(delta_p=0.2)
        records = generate_reliability_records(config, 8, 4, seed=3)
        assert len(records) == 8
        for rec in records:
            assert len(rec.model_samples) == 4
            assert rec.x.scalar in config.prior.atoms
        again = generate_reliability_records(config, 8, 4, seed=3)
        assert records == again

    def test_reliability_needs_two_samples(self):
        with pytest.raises(ValueError):
            generate_reliability_records(ToyConfig(), 4, 1, seed=0)

    def test_reliability_extends_triplet_stream(self):
        # Same seed, same draw order prefix: the base (x, y, y_model) part
        # coincides with generate_triplets, with samples appended after.
        config = ToyConfig(delta_p=0.1)
        t = generate_triplets(config, 5, seed=0)
        r = generate_reliability_records(config, 5, 4, seed=0)
        assert [x.x.scalar for x in t] == [x.x.scalar for x in r]
        assert [x.y.tokens for x in t] == [x.y.tokens for x in r]
        assert [x.y_model.tokens for x in t] == [x.y_model.tokens for x in r]


class TestSampleColumns:
    @pytest.mark.parametrize("seed", [0, 7, 2101])
    def test_columns_in_records_are_the_generated_records(self, seed):
        config = ToyConfig(delta_p=0.25)
        p, ys, yms, none = _sample_columns(config, 40, seed)
        assert none is None
        assert generate_triplets(config, 40, seed) == [
            Triplet(x=Item(scalar=x), y=Item(tokens=y),
                    y_model=Item(tokens=ym), group=f"p={x:g}")
            for x, y, ym in zip(p, ys, yms)]
        p, ys, yms, sets = _sample_columns(config, 40, seed, 6)
        assert generate_reliability_records(config, 40, 6, seed) == [
            ReliabilityRecord(y=Item(tokens=y), y_model=Item(tokens=ym),
                              model_samples=s, x=Item(scalar=x),
                              group=f"p={x:g}")
            for x, y, ym, s in zip(p, ys, yms, sets)]

    def test_draw_order(self):
        # Inputs, data outputs, model outputs, then the flat sample block.
        config = ToyConfig(delta_p=0.25)
        rng = generator(11, SK_DATA)
        p = sample_inputs(config.prior, 30, rng)
        ys = sample_data_sequences(p, rng)
        yms = sample_model_sequences(p, 0.25, rng)
        flat = sample_model_sequences(np.repeat(p, 5), 0.25, rng)
        got = _sample_columns(config, 30, 11, 5)
        assert np.array_equal(got[0], p)
        assert (got[1], got[2]) == (ys, yms)
        assert got[3] == [tuple(flat[5 * i:5 * i + 5]) for i in range(30)]

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _sample_columns(ToyConfig(), -1, 0)
        with pytest.raises(ValueError, match="at least 2 model samples"):
            _sample_columns(ToyConfig(), 3, 0, 1)


class TestClosedForms:
    def test_single_atom_frozen_value(self):
        config = single_atom(p=0.4, delta_p=0.25, lam=1.0)
        assert acmmd_sq_exact(config) == pytest.approx(
            0.010309476040607304, rel=1e-12)

    def test_default_prior_frozen_value(self):
        config = ToyConfig(delta_p=0.25)
        assert acmmd_sq_exact(config) == pytest.approx(
            0.012954786092195273, rel=1e-12)

    def test_quadratic_in_delta_p(self):
        base = ToyConfig(delta_p=0.25)
        assert acmmd_sq_exact(base.with_delta_p(0.0)) == 0.0
        ratios = {acmmd_sq_exact(base.with_delta_p(dp)) / dp ** 2
                  for dp in (0.05, 0.1, 0.2)}
        lo, hi = min(ratios), max(ratios)
        assert hi - lo <= 1e-12 * hi

    def test_inter_model_mmd_frozen_values(self):
        got = mmd_sq_models_exact(0.35, 0.45, 1.0, 0.25)
        assert got == pytest.approx(0.08600219574980073, rel=1e-12)
        assert mmd_sq_models_exact(0.45, 0.35, 1.0, 0.25) == pytest.approx(
            got, rel=1e-14)
        assert mmd_sq_models_exact(0.4, 0.4, 1.0, 0.25) == 0.0
        assert mmd_sq_models_exact(0.3, 0.45, 0.5, 0.1) == pytest.approx(
            0.18962545412635473, rel=1e-12)

    def test_inter_model_mmd_positive_off_diagonal(self):
        assert mmd_sq_models_exact(0.3, 0.45, 1.0, 0.0) > 0

    def test_reliability_frozen_values(self):
        config = single_atom(p=0.4, delta_p=0.25)
        assert acmmd_rel_sq_exact(config, sigma_p=1.0) == pytest.approx(
            0.010309476040607304, rel=1e-12)
        five = ToyConfig(delta_p=0.25)
        assert acmmd_rel_sq_exact(five, sigma_p=1.0) == pytest.approx(
            0.012769851955239645, rel=1e-12)
        assert acmmd_rel_sq_exact(ToyConfig(delta_p=0.1),
                                  sigma_p=1.0) == pytest.approx(
            0.002045259326725926, rel=1e-12)

    def test_reliability_requires_positive_sigma(self):
        with pytest.raises(ValueError, match="sigma_p"):
            acmmd_rel_sq_exact(ToyConfig(), sigma_p=0.0)

    def test_criterion_prior_frozen_value(self):
        config = single_atom(p=0.35, delta_p=0.25)
        assert acmmd_rel_sq_exact(config, sigma_p=1.0) == pytest.approx(
            0.01811515520244802, rel=1e-12)


class TestMonteCarloAgreement:
    def test_estimator_mean_tracks_exact_value(self):
        # Unbiasedness in miniature: 400 datasets of 30 records.
        config = single_atom(p=0.4, delta_p=0.25)
        exact = acmmd_sq_exact(config)
        from acmmd.estimator import acmmd_sq_from_triplets
        values = []
        for seed in range(400):
            triplets = generate_triplets(config, 30, seed=seed)
            values.append(acmmd_sq_from_triplets(triplets, config.kx,
                                                 config.ky))
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        assert abs(mean - exact) < 3 * se
