"""The h engine on columns equals the joint-Gram assembly, bit for bit.

Every h path is `estimator.h_from_columns`, which computes g with
`kernels.difference_gram`. The reference here is the assembly that engine
replaced: one Gram over the joint list [model outputs; data outputs], cut
into four blocks, g = (kmm + kyy) - (kmy + kmy^T).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acmmd._rng import SK_CELL, derive
from acmmd.estimator import h_from_columns, h_matrix
from acmmd.kernels import (KernelSpec, difference_gram, distribution_gram,
                           gram)
from acmmd.records import Item, ReliabilityRecord, Triplet
from acmmd.reliability import acmmd_rel_test, rel_h_matrix
from acmmd.sweep import _Plan, _run
from acmmd.testing import acmmd_test
from acmmd.testing import test_from_h as run_test_from_h
from acmmd.toy import (ToyConfig, _sample_columns, generate_reliability_records,
                       generate_triplets)

tokens_st = st.lists(st.sampled_from("ABC"), max_size=5).map(tuple)
nonempty_tokens_st = st.lists(st.sampled_from("ABC"), min_size=1,
                              max_size=5).map(tuple)
sigmas = st.one_of(st.just("median"), st.floats(0.1, 10.0))


def joint_h(kx_gram, ky, y_model, y):
    """h through one Gram over the joint output list."""
    n = len(y)
    outputs = list(y_model) + list(y)
    joint, _ = gram(ky, outputs)
    kmm, kyy, kmy = joint[:n, :n], joint[n:, n:], joint[:n, n:]
    return kx_gram * ((kmm + kyy) - (kmy + kmy.T))


@st.composite
def token_triplets(draw):
    """Triplets with scalar inputs, token outputs and a sequence ky."""
    kind = draw(st.sampled_from(["exp-hamming", "tilted-exp-hamming"]))
    outputs = tokens_st if kind == "exp-hamming" else nonempty_tokens_st
    n = draw(st.integers(2, 12))
    triplets = [Triplet(x=Item(scalar=draw(st.floats(-3.0, 3.0))),
                        y=Item(tokens=draw(outputs)),
                        y_model=Item(tokens=draw(outputs)))
                for _ in range(n)]
    ky = KernelSpec(kind, lam=draw(st.floats(0.05, 3.0)))
    return triplets, KernelSpec("gaussian", sigma=draw(sigmas)), ky


@st.composite
def vector_triplets(draw):
    """Triplets with embedding inputs and embedding or per-position outputs."""
    n = draw(st.integers(2, 10))
    d = draw(st.integers(1, 4))
    pooled = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def output():
        if pooled:
            return Item(per_position=rng.normal(size=(draw(st.integers(1, 3)), d)))
        # Rounded entries make repeated outputs and zero distances likely.
        return Item(embedding=np.round(rng.normal(size=d), 1))

    triplets = [Triplet(x=Item(embedding=rng.normal(size=2)), y=output(),
                        y_model=output()) for _ in range(n)]
    ky = KernelSpec("mean-gaussian" if pooled else "gaussian",
                    sigma=draw(sigmas))
    return triplets, KernelSpec("gaussian", sigma=draw(sigmas)), ky


class TestGoFColumns:
    def check(self, triplets, kx, ky):
        kx_gram, kx_resolved = gram(kx, [t.x for t in triplets])
        y_model = [t.y_model for t in triplets]
        y = [t.y for t in triplets]
        want = joint_h(kx_gram, ky, y_model, y)
        got = h_matrix(triplets, kx, ky)
        assert np.array_equal(got.values, want)
        assert got.kx == kx_resolved
        assert got.ky == gram(ky, y_model + y)[1]
        return got, want

    @given(token_triplets())
    @settings(max_examples=80, deadline=None)
    def test_token_outputs(self, case):
        triplets, kx, ky = case
        got, want = self.check(triplets, kx, ky)
        # The toy sweep's columns: (n, 1) inputs and bare token tuples.
        p = np.array([[t.x.scalar] for t in triplets])
        columns = h_from_columns(kx, p, ky,
                                 [t.y_model.tokens for t in triplets],
                                 [t.y.tokens for t in triplets])
        assert np.array_equal(columns.values, want)
        assert (columns.kx, columns.ky) == (got.kx, got.ky)

    @given(vector_triplets())
    @settings(max_examples=80, deadline=None)
    def test_vector_outputs(self, case):
        triplets, kx, ky = case
        got, want = self.check(triplets, kx, ky)
        if ky.kind == "gaussian":
            # (n, d) arrays are taken as they are.
            columns = h_from_columns(
                kx, np.stack([t.x.embedding for t in triplets]), ky,
                np.stack([t.y_model.embedding for t in triplets]),
                np.stack([t.y.embedding for t in triplets]))
            assert np.array_equal(columns.values, want)
            assert (columns.kx, columns.ky) == (got.kx, got.ky)

    def test_g_is_exactly_symmetric(self):
        toy = ToyConfig(delta_p=0.25)
        triplets = generate_triplets(toy, 60, seed=2)
        g, _ = difference_gram(KernelSpec("exp-hamming", lam=0.3),
                               [t.y_model for t in triplets],
                               [t.y for t in triplets])
        assert np.array_equal(g, g.T)

    def test_rejects_unpaired_lists(self):
        with pytest.raises(ValueError, match="differ in length"):
            difference_gram(KernelSpec("exp-hamming"), [("A",)], [])
        with pytest.raises(ValueError, match="distribution_gram"):
            difference_gram(KernelSpec("dist-expmmd"), [("A",)], [("A",)])

    def test_h_matrix_rejects_distribution_kx(self):
        # A dist-expmmd kx reads model samples, which triplets lack; h_matrix
        # refuses with a ValueError rather than a TypeError inside.
        toy = ToyConfig(delta_p=0.25)
        triplets = generate_triplets(toy, 5, seed=1)
        kp = KernelSpec("dist-expmmd", sigma=1.0, inner=toy.ky)
        with pytest.raises(ValueError, match="model_samples"):
            h_matrix(triplets, kp, toy.ky)

    def test_h_matrix_rejects_input_kx_without_x(self):
        toy = ToyConfig(delta_p=0.25)
        records = [dataclasses.replace(r, x=None)
                   for r in generate_reliability_records(toy, 5, 3, seed=1)]
        with pytest.raises(ValueError, match="needs records with x"):
            h_matrix(records, toy.kx, toy.ky)

    def test_rejects_single_record(self):
        with pytest.raises(ValueError, match="at least 2"):
            h_from_columns(KernelSpec("gaussian", sigma=1.0), np.zeros((1, 1)),
                           KernelSpec("exp-hamming"), [("A",)], [("A",)])


@st.composite
def reliability_records(draw):
    n = draw(st.integers(2, 10))
    r = draw(st.integers(2, 5))
    records = [ReliabilityRecord(
        y=Item(tokens=draw(tokens_st)), y_model=Item(tokens=draw(tokens_st)),
        model_samples=tuple(draw(tokens_st) for _ in range(r)))
        for _ in range(n)]
    return records, draw(st.one_of(st.just("median"), st.floats(0.5, 10.0)))


class TestRelColumns:
    @given(reliability_records())
    @settings(max_examples=80, deadline=None)
    def test_rel_records(self, case):
        records, sigma = case
        ky = KernelSpec("exp-hamming", lam=1.0)
        kp = KernelSpec("dist-expmmd", sigma=sigma, inner=ky)
        sample_sets = [r.model_samples for r in records]
        try:
            khat, kp_resolved = distribution_gram(kp, sample_sets)
        except ValueError as exc:
            assert "khat overflows" in str(exc)
            return
        y_model = [r.y_model for r in records]
        y = [r.y for r in records]
        want = joint_h(khat, ky, y_model, y)
        got = rel_h_matrix(records, kp, ky)
        assert np.array_equal(got.values, want)
        assert got.kx == kp_resolved
        columns = h_from_columns(kp, sample_sets, ky,
                                 [r.y_model.tokens for r in records],
                                 [r.y.tokens for r in records])
        assert np.array_equal(columns.values, want)
        assert columns.kx == kp_resolved


def toy_cell(rel, seed, n, inner_samples=None):
    """A toy sweep plan of one cell, and its run's data and test seeds."""
    toy = ToyConfig(delta_p=0.25)
    kx = (KernelSpec("dist-expmmd", sigma="median", inner=toy.ky) if rel
          else toy.kx)
    plan = _Plan(kx=kx, ky=toy.ky, alpha=0.05, bootstrap=40,
                 inner_samples=inner_samples, seed=seed, domain=SK_CELL,
                 cells=((n, 0.25, toy),), n_seeds=1, timings=False)
    return (toy, plan, derive(seed, SK_CELL, 0, 0, 0),
            derive(seed, SK_CELL, 0, 0, 1))


def row_fields(report):
    return report.statistic, report.p_value, report.reject


class TestSweepColumns:
    @pytest.mark.parametrize("seed", range(12))
    def test_gof_h_and_report_equal_record_path(self, seed):
        toy, plan, data, test = toy_cell(False, seed, 30)
        p, ys, yms, _ = _sample_columns(toy, 30, data)
        got = h_from_columns(plan.kx, p[:, None], plan.ky, yms, ys)
        triplets = generate_triplets(toy, 30, data)
        want = h_matrix(triplets, toy.kx, toy.ky)
        assert np.array_equal(got.values, want.values)
        assert (got.kx, got.ky) == (want.kx, want.ky)
        report = acmmd_test(triplets, toy.kx, toy.ky, b_count=40, seed=test)
        assert run_test_from_h(got, 0.05, 40, test) == report
        assert row_fields(_run(plan, 0, 0)) == row_fields(report)

    @pytest.mark.parametrize("seed", range(6))
    def test_rel_h_and_report_equal_record_path(self, seed):
        toy, plan, data, test = toy_cell(True, seed, 20, inner_samples=6)
        _, ys, yms, sample_sets = _sample_columns(toy, 20, data, 6)
        got = h_from_columns(plan.kx, sample_sets, plan.ky, yms, ys)
        records = generate_reliability_records(toy, 20, 6, data)
        want = rel_h_matrix(records, plan.kx, toy.ky)
        assert np.array_equal(got.values, want.values)
        assert (got.kx, got.ky) == (want.kx, want.ky)
        report = acmmd_rel_test(records, toy.ky, b_count=40, seed=test)
        assert run_test_from_h(got, 0.05, 40, test) == dataclasses.replace(
            report, extra={})
        assert row_fields(_run(plan, 0, 0)) == row_fields(report)
