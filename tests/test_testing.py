import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acmmd._rng import (SK_BOOTSTRAP, SK_DECISION, _child_states,
                        as_seed_sequence, derive, generator, sign_rows)
from acmmd.estimator import HMatrix, h_matrix
from acmmd.kernels import KernelSpec
from acmmd.records import Item, Triplet
from acmmd.testing import (BootstrapDraws, acmmd_test, min_bootstrap_count,
                           quantile_index, rademacher_signs,
                           randomized_decision, wild_bootstrap)
from acmmd.testing import test_from_h as run_test_from_h

from conftest import random_tokens


def small_h(rng, n=5):
    triplets = [Triplet(x=Item(scalar=float(rng.normal())),
                        y=Item(tokens=random_tokens(rng)),
                        y_model=Item(tokens=random_tokens(rng)))
                for _ in range(n)]
    return h_matrix(triplets, KernelSpec("gaussian", sigma=1.0),
                    KernelSpec("exp-hamming", lam=1.0))


class TestWildBootstrap:
    def test_matches_manual_quadratic_form(self, rng):
        h = small_h(rng, 6)
        draws = wild_bootstrap(h, 20, seed=7)
        n = h.n
        for b in range(20):
            w = rademacher_signs(7, b, n)
            manual = (w @ h.values @ w - np.trace(h.values)) / (n * (n - 1))
            assert draws.values[b] == pytest.approx(manual, rel=1e-13, abs=1e-15)

    def test_draw_prefix_stable_in_b_count(self, rng):
        h = small_h(rng, 4)
        short = wild_bootstrap(h, 10, seed=3).values
        long = wild_bootstrap(h, 50, seed=3).values
        assert np.array_equal(short, long[:10])

    def test_n2_draws_are_plus_minus_entry(self, rng):
        # With two records each draw is w1 w2 H01, so |draw| = |H01|.
        h = small_h(rng, 2)
        draws = wild_bootstrap(h, 40, seed=1).values
        assert np.allclose(np.abs(draws), abs(h.values[0, 1]), atol=1e-15)
        assert len(set(np.sign(draws))) == 2

    def test_signs_are_rademacher(self):
        w = rademacher_signs(0, 0, 1000)
        assert set(np.unique(w)) == {-1.0, 1.0}
        assert abs(w.mean()) < 0.15

    def test_accepts_raw_array(self):
        values = np.array([[0.0, 2.0], [2.0, 0.0]])
        draws = wild_bootstrap(values, 5, seed=0)
        assert np.allclose(np.abs(draws.values), 2.0)

    def test_rejects_tiny_inputs(self):
        with pytest.raises(ValueError, match="at least 2"):
            wild_bootstrap(np.zeros((1, 1)), 10, seed=0)
        with pytest.raises(ValueError, match="at least 1"):
            wild_bootstrap(np.zeros((3, 3)), 0, seed=0)


entropies = st.one_of(
    st.integers(0, 2**256),
    st.lists(st.integers(0, 2**64), max_size=9),
    st.lists(st.integers(0, 2**32 - 1), max_size=9).map(
        lambda words: np.array(words, dtype=np.uint32)))


@st.composite
def seeds(draw):
    """An int seed, or a SeedSequence with any entropy form, pool size 4 or
    8 and a spawn key whose words may exceed 32 bits."""
    entropy = draw(entropies)
    if isinstance(entropy, int) and draw(st.booleans()):
        return entropy
    key = draw(st.lists(st.integers(0, 2**70), max_size=3))
    return np.random.SeedSequence(entropy, spawn_key=tuple(key),
                                  pool_size=draw(st.sampled_from([4, 8])))


class TestSignRows:
    @given(seeds(), st.integers(1, 64), st.integers(1, 201))
    @settings(max_examples=100, deadline=None)
    @example(2**256, 64, 1)
    @example(derive(3, 2**32, 2**64 + 5), 7, 2)
    @example(np.random.SeedSequence([2**40, 1], pool_size=8), 5, 3)
    def test_rows_equal_rademacher_signs(self, seed, count, n):
        rows = sign_rows(seed, count, n, SK_BOOTSTRAP)
        expected = np.stack([rademacher_signs(seed, b, n)
                             for b in range(count)])
        assert rows.dtype == expected.dtype
        assert np.array_equal(rows, expected)
        # The child states are also checked on their own.
        base = as_seed_sequence(seed)
        key = tuple(base.spawn_key) + (SK_BOOTSTRAP,)
        shared = np.random.SeedSequence(base.entropy, spawn_key=key,
                                        pool_size=base.pool_size)
        children = [np.random.SeedSequence(
            base.entropy, spawn_key=key + (b,), pool_size=base.pool_size
        ).generate_state(4, np.uint64) for b in range(count)]
        assert np.array_equal(
            _child_states(shared, np.arange(count, dtype=np.uint32)), children)

    def test_seed_sequence_keeps_its_pool_size(self):
        wide = np.random.SeedSequence(5, pool_size=8)
        assert derive(wide, 1).pool_size == 8
        assert not np.array_equal(generator(wide, 1).integers(0, 2**62, 8),
                                  generator(5, 1).integers(0, 2**62, 8))
        rows = sign_rows(wide, 20, 50, SK_BOOTSTRAP)
        assert not np.array_equal(rows, sign_rows(5, 20, 50, SK_BOOTSTRAP))
        assert np.array_equal(rows, np.stack(
            [rademacher_signs(wide, b, 50) for b in range(20)]))

    def test_integer_seed_streams_unchanged(self):
        assert np.array_equal(
            generator(5, 1).integers(0, 2**62, 4),
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                5, spawn_key=(1,)))).integers(0, 2**62, 4))

    def test_rejects_indices_beyond_one_key_word(self):
        # Raised before the 2**32-row matrix is allocated.
        with pytest.raises(ValueError, match=r"count < 2\*\*32"):
            sign_rows(0, 2**32, 200, SK_BOOTSTRAP)
        with pytest.raises(ValueError, match="spawn key"):
            sign_rows(0, 3, 5)


class TestQuantileIndex:
    @pytest.mark.parametrize("alpha,b,position,gamma", [
        (0.05, 99, 95, 0.0),
        (0.05, 100, 96, 0.05),
        (0.1, 19, 18, 0.0),
        (0.01, 99, 99, 0.0),
        (0.05, 19, 19, 0.0),
        (0.5, 1, 1, 0.0),
    ])
    def test_exact_positions(self, alpha, b, position, gamma):
        got_pos, got_gamma = quantile_index(alpha, b)
        assert got_pos == position
        assert got_gamma == pytest.approx(gamma, abs=1e-15)

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError, match="alpha"):
                quantile_index(alpha, 100)

    @pytest.mark.parametrize("alpha,minimum", [
        (0.05, 19), (0.01, 99), (0.1, 9), (0.5, 1),
    ])
    def test_min_bootstrap_count(self, alpha, minimum):
        assert min_bootstrap_count(alpha) == minimum


class TestRandomizedDecision:
    def test_extreme_statistic_rejects(self):
        draws = np.linspace(-1.0, 1.0, 99)
        result = randomized_decision(5.0, draws, alpha=0.05, seed=0)
        assert result.reject is True
        assert result.p_value == pytest.approx(1 / 100)
        assert result.trace.position == 100
        assert result.trace.quantile_position == 95

    def test_central_statistic_accepts(self):
        draws = np.linspace(-1.0, 1.0, 99)
        result = randomized_decision(0.0, draws, alpha=0.05, seed=0)
        assert result.reject is False
        assert result.p_value > 0.4

    def test_p_value_counts_ties_as_extreme(self):
        draws = np.zeros(9)
        result = randomized_decision(0.0, draws, alpha=0.5, seed=0)
        assert result.p_value == 1.0

    def test_deterministic_in_seed(self):
        draws = np.linspace(-1.0, 1.0, 100)
        a = randomized_decision(0.93, draws, alpha=0.05, seed=11)
        b = randomized_decision(0.93, draws, alpha=0.05, seed=11)
        assert a == b

    def test_threshold_is_pooled_order_statistic(self):
        draws = np.arange(1.0, 100.0)
        result = randomized_decision(0.0, draws, alpha=0.05, seed=0)
        pooled = np.sort(np.concatenate([draws, [0.0]]))
        assert result.threshold == pooled[94]

    def test_boundary_uses_gamma_tie_break(self):
        # B=100, alpha=0.05: position 96 with gamma=0.05. A statistic equal
        # to the 96th pooled value lands there for roughly half the seeds;
        # rejections then occur for about gamma of those.
        draws = np.linspace(-1.0, 1.0, 100)
        at_boundary = 0
        rejected = 0
        for seed in range(4000):
            result = randomized_decision(draws[95], draws, alpha=0.05,
                                         seed=seed)
            if result.trace.position == 96:
                at_boundary += 1
                rejected += result.reject
                assert result.trace.tie_break is not None
        assert at_boundary > 1000
        rate = rejected / at_boundary
        assert 0.02 < rate < 0.09

    def test_warns_below_minimum_draws(self):
        with pytest.warns(UserWarning, match="below the minimum"):
            result = randomized_decision(10.0, np.zeros(5), alpha=0.05, seed=0)
        assert result.reject is False

    def test_exact_level_under_exchangeability(self):
        # When the statistic is drawn from the same law as the draws, the
        # randomized rule rejects with probability exactly alpha; check the
        # empirical rate over many seeds.
        alpha = 0.1
        rng = np.random.default_rng(123)
        rejections = 0
        runs = 3000
        for seed in range(runs):
            pooled = rng.normal(size=20)
            rejections += randomized_decision(
                pooled[-1], pooled[:-1], alpha, seed=seed).reject
        rate = rejections / runs
        assert abs(rate - alpha) < 3 * math.sqrt(alpha * (1 - alpha) / runs)


class TestTestFromH:
    def test_report_fields(self, rng):
        h = small_h(rng, 6)
        report = run_test_from_h(h, alpha=0.05, b_count=25, seed=4,
                             extra={"note": 1})
        assert report.n == 6
        assert report.bootstrap == 25
        assert report.kx == "gaussian:sigma=1.0"
        assert report.ky == "exp-hamming:lambda=1.0:mode=padded"
        assert report.sigma_h_sq is not None
        assert report.extra == {"note": 1}
        assert 0 < report.p_value <= 1

    def test_n2_has_no_variance(self, rng):
        h = small_h(rng, 2)
        report = run_test_from_h(h, alpha=0.05, b_count=25, seed=0)
        assert report.sigma_h_sq is None

    def test_statistic_matches_estimator(self, rng):
        h = small_h(rng, 5)
        report = run_test_from_h(h, alpha=0.05, b_count=30, seed=2)
        iu = np.triu_indices(5, 1)
        assert report.statistic == pytest.approx(
            float(h.values[iu].mean()), rel=1e-14)

    def test_round_trip_through_json(self, rng):
        h = small_h(rng, 4)
        report = run_test_from_h(h, alpha=0.05, b_count=24, seed=9)
        payload = json.loads(report.to_json())
        assert payload["statistic"] == report.statistic
        assert payload["reject"] == report.reject
        assert payload["kernel_x"] == report.kx
        assert payload["kernel_y"] == report.ky
        assert payload["decision"]["position"] == report.trace.position
        assert json.dumps(payload, sort_keys=True) == report.to_json()


class TestAcmmdTest:
    def test_end_to_end_deterministic(self, rng):
        triplets = [Triplet(x=Item(scalar=float(rng.normal())),
                            y=Item(tokens=random_tokens(rng)),
                            y_model=Item(tokens=random_tokens(rng)))
                    for _ in range(8)]
        kx = KernelSpec("gaussian", sigma=1.0)
        ky = KernelSpec("exp-hamming", lam=1.0)
        a = acmmd_test(triplets, kx, ky, alpha=0.05, b_count=50, seed=21)
        b = acmmd_test(triplets, kx, ky, alpha=0.05, b_count=50, seed=21)
        assert a.to_json() == b.to_json()

    def test_seed_changes_draws_not_statistic(self, rng):
        triplets = [Triplet(x=Item(scalar=float(rng.normal())),
                            y=Item(tokens=random_tokens(rng)),
                            y_model=Item(tokens=random_tokens(rng)))
                    for _ in range(8)]
        kx = KernelSpec("gaussian", sigma=1.0)
        ky = KernelSpec("exp-hamming", lam=1.0)
        a = acmmd_test(triplets, kx, ky, seed=1)
        b = acmmd_test(triplets, kx, ky, seed=2)
        assert a.statistic == b.statistic
        assert a.p_value != b.p_value


class TestSeedStreams:
    def test_streams_are_disjoint(self):
        boot = generator(0, SK_BOOTSTRAP, 0).random(4)
        decision = generator(0, SK_DECISION).random(4)
        assert not np.allclose(boot, decision)

    def test_derive_is_hierarchical(self):
        a = derive(5, SK_BOOTSTRAP, 1).generate_state(2)
        b = derive(5, SK_BOOTSTRAP, 2).generate_state(2)
        assert not np.array_equal(a, b)
