"""Core tensor ops against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcretrieval import (
    DISABLED,
    STOCHASTIC,
    DropoutSpec,
    Parameter,
    RngStream,
    ShapeError,
    Tensor,
    ValidationError,
    dense_forward,
    dropout_apply,
    l2_normalize,
)
from mcretrieval import autodiff
from mcretrieval.autodiff import rnn_steps
from mcretrieval.gradcheck import grad_check


def naive_matmul(a, b):
    # triple-loop oracle, no numpy dot involved
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestDense:
    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        got = dense_forward(Tensor(x), Tensor(w), Tensor(b)).data
        want = naive_matmul(x, w) + b
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_single_vector_input(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=4)
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        got = dense_forward(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, naive_matmul(x[None, :], w)[0] + b, atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            dense_forward(Tensor(np.zeros(3)), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            dense_forward(Tensor(np.zeros(4)), Tensor(np.zeros((4, 2))), Tensor(np.zeros(3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 4)))
        w = Parameter(rng.normal(size=(4, 3)), "w")
        b = Parameter(rng.normal(size=3), "b")
        report = grad_check(lambda: autodiff.tsum(dense_forward(x, w, b)), [w, b])
        assert report.passed, report.per_param
        # dense is linear, so central differences are exact up to roundoff
        assert report.max_rel_error < 1e-10


class TestDropout:
    def test_disabled_is_exact_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 7)))
        out = dropout_apply(x, DropoutSpec(0.3, DISABLED), RngStream(1, 2))
        assert out.data is x.data

    def test_keep_fraction_and_scale(self):
        x = Tensor(np.ones(100_000))
        out = dropout_apply(x, DropoutSpec(0.5, STOCHASTIC), RngStream(9, 0)).data
        kept = out != 0.0
        assert abs(kept.mean() - 0.5) < 0.01
        np.testing.assert_allclose(out[kept], 2.0)

    def test_expectation_preserved(self):
        # inverted scaling keeps E[dropout(x)] = x
        x = np.full(10_000, 3.0)
        spec = DropoutSpec(0.25, STOCHASTIC)
        total = np.zeros_like(x)
        for i in range(200):
            total += dropout_apply(Tensor(x), spec, RngStream(5, i)).data
        np.testing.assert_allclose(total.mean() / 200, 3.0, rtol=0.02)

    def test_rate_zero_stochastic_is_identity(self):
        x = Tensor(np.linspace(-2, 2, 11))
        out = dropout_apply(x, DropoutSpec(0.0, STOCHASTIC), RngStream(0, 0))
        assert np.array_equal(out.data, x.data)

    def test_same_stream_same_mask(self):
        x = Tensor(np.ones(64))
        spec = DropoutSpec(0.4, STOCHASTIC)
        a = dropout_apply(x, spec, RngStream(11, 3)).data
        b = dropout_apply(x, spec, RngStream(11, 3)).data
        assert np.array_equal(a, b)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValidationError):
            DropoutSpec(1.0, STOCHASTIC)
        with pytest.raises(ValidationError):
            DropoutSpec(-0.1)


class TestRnn:
    def test_matches_hand_unrolled_three_steps(self):
        rng = np.random.default_rng(12)
        seq = rng.normal(size=(3, 4))
        w_in = rng.normal(size=(4, 5))
        w_rec = rng.normal(size=(5, 5))
        b = rng.normal(size=5)
        got = rnn_steps(list(seq), Tensor(w_in), Tensor(w_rec), Tensor(b)).data
        h = np.zeros(5)
        for t in range(3):
            h = np.tanh(seq[t] @ w_in + h @ w_rec + b)
        np.testing.assert_allclose(got, h, rtol=0, atol=1e-12)

    def test_one_step_collapses_to_dense_tanh(self):
        rng = np.random.default_rng(13)
        seq = rng.normal(size=(1, 4))
        w_in = rng.normal(size=(4, 5))
        w_rec = rng.normal(size=(5, 5))
        b = rng.normal(size=5)
        got = rnn_steps(list(seq), Tensor(w_in), Tensor(w_rec), Tensor(b)).data
        np.testing.assert_allclose(got, np.tanh(seq[0] @ w_in + b), atol=1e-12)

    def test_hidden_bounded_by_tanh(self):
        rng = np.random.default_rng(14)
        seq = rng.normal(size=(20, 6)) * 50
        out = rnn_steps(
            list(seq), Tensor(rng.normal(size=(6, 8))), Tensor(rng.normal(size=(8, 8))), Tensor(rng.normal(size=8))
        ).data
        assert np.all(np.abs(out) <= 1.0)

    def test_dropout_on_input_path_only(self):
        # with rate ~1 the input contribution vanishes but the recurrent path stays live
        rng = np.random.default_rng(15)
        seq = rng.normal(size=(2, 4))
        w_in = Tensor(rng.normal(size=(4, 3)))
        w_rec = Tensor(rng.normal(size=(3, 3)))
        b = Tensor(rng.normal(size=3))
        spec = DropoutSpec(0.999999, STOCHASTIC)
        got = rnn_steps(list(seq), w_in, w_rec, b, spec, RngStream(1, 1)).data
        h = np.zeros(3)
        for _ in range(2):
            h = np.tanh(h @ w_rec.data + b.data)
        np.testing.assert_allclose(got, h, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        seq = rng.normal(size=(3, 4))
        w_in = Parameter(rng.normal(size=(4, 3)) * 0.5, "w_in")
        w_rec = Parameter(rng.normal(size=(3, 3)) * 0.5, "w_rec")
        b = Parameter(rng.normal(size=3) * 0.5, "b")
        report = grad_check(lambda: autodiff.tsum(rnn_steps(list(seq), w_in, w_rec, b)), [w_in, w_rec, b])
        assert report.passed, report.per_param


class TestNormalize:
    def test_unit_norm(self):
        rng = np.random.default_rng(20)
        v = rng.normal(size=9)
        out = l2_normalize(Tensor(v)).data
        np.testing.assert_allclose(np.linalg.norm(out), 1.0, atol=1e-12)
        np.testing.assert_allclose(out, v / np.linalg.norm(v), atol=1e-12)

    def test_zero_vector_guarded(self):
        out = l2_normalize(Tensor(np.zeros(4))).data
        assert np.array_equal(out, np.zeros(4))

    def test_rowwise(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(6, 5))
        out = l2_normalize(Tensor(m)).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(6), atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=6)
        if np.linalg.norm(v) < 1e-6:
            return
        a = l2_normalize(Tensor(v)).data
        b = l2_normalize(Tensor(v * 7.5)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(22)
        x = Parameter(rng.normal(size=6), "x")
        probe = Tensor(rng.normal(size=6))
        report = grad_check(lambda: autodiff.tsum(autodiff.mul(l2_normalize(x), probe)), [x])
        assert report.passed, report.per_param


class TestGraph:
    def test_gradient_accumulates_across_uses(self):
        x = Parameter(np.array([2.0]), "x")
        y = autodiff.tsum(autodiff.add(autodiff.mul(x, x), x))  # x^2 + x
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_requires_scalar(self):
        from mcretrieval import ContractError

        x = Parameter(np.ones(3), "x")
        with pytest.raises(ContractError):
            autodiff.mul(x, 2.0).backward()

    def test_no_grad_skips_recording(self):
        x = Parameter(np.ones(3), "x")
        with autodiff.no_grad():
            y = autodiff.tsum(autodiff.mul(x, x))
        assert y._backward is None and not y.requires_grad

    def test_relu_subgradient_zero_at_zero(self):
        x = Parameter(np.array([0.0, -1.0, 2.0]), "x")
        autodiff.tsum(autodiff.relu(x)).backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])

    def test_euclidean_zero_distance_zero_grad(self):
        a = Parameter(np.ones(3), "a")
        b = Parameter(np.ones(3), "b")
        d = autodiff.euclidean(a, b)
        d.backward()
        assert float(d.data) == 0.0
        np.testing.assert_allclose(a.grad, np.zeros(3))

    def test_gather_rows_scatter_adds(self):
        x = Parameter(np.arange(6.0).reshape(3, 2), "x")
        autodiff.tsum(autodiff.gather_rows(x, [0, 0, 2])).backward()
        np.testing.assert_allclose(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(123, 5).uniform(100)
        b = RngStream(123, 5).uniform(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 5).uniform(100)
        b = RngStream(123, 6).uniform(100)
        c = RngStream(124, 5).uniform(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_independence_statistics(self):
        # correlation between two streams from the same seed should be ~0
        a = RngStream(7, 0).normal(20_000)
        b = RngStream(7, 1).normal(20_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.03

    def test_substream_derivation_stable(self):
        r = RngStream(5, 2)
        assert r.substream(3).stream_id == RngStream(5, 2).substream(3).stream_id

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            RngStream(-1, 0)
