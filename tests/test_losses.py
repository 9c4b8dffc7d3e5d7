"""Loss values and gradients against hand-derived cases and finite differences."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcretrieval import ContractError, Parameter, ShapeError, Tensor, ValidationError
from mcretrieval import autodiff
from mcretrieval.config import RunConfig
from mcretrieval.gradcheck import grad_check
from mcretrieval.losses import (
    batch_objective,
    ktuplet_batch_term,
    ktuplet_upper_bound,
    triplet_batch_term,
)
from mcretrieval.training import _descend


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_unit(rng, d=8):
    return unit(rng.normal(size=d))


def triplet(a, p, n, margin=0.2):
    """The hinge of one triple through triplet_batch_term."""
    return float(triplet_batch_term(Tensor(np.stack([a, p, n])), [[0, 1, 2]], margin).data[0])


def triples_term(rows, margin):
    """triplet_batch_term over consecutive (a, p, n) rows: one graph for many triples."""
    return triplet_batch_term(rows, np.arange(rows.shape[0]).reshape(-1, 3), margin)


E1 = np.array([1.0, 0.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0, 0.0])
NEG_E1 = -E1


class TestTripletRegression:
    def test_coincident_positive_antipodal_negative_is_zero(self):
        # [0 - 2 + 0.2]_+ = 0
        assert triplet(E1, E1, NEG_E1, margin=0.2) == 0.0

    def test_upper_bound_attained(self):
        # [2 - 0 + 0.2]_+ = 2.2
        assert triplet(E1, NEG_E1, E1, margin=0.2) == pytest.approx(2.2, abs=1e-15)

    def test_orthogonal_pair_gives_margin(self):
        # both distances are sqrt(2), so the hinge passes the margin through
        assert triplet(E1, E2, np.array([0.0, 0.0, 1.0, 0.0]), margin=0.2) == pytest.approx(0.2, abs=1e-15)

    def test_range_over_random_unit_triples(self):
        rng = np.random.default_rng(1234)
        rows = np.stack([random_unit(rng) for _ in range(3 * 2000)])
        v = triples_term(Tensor(rows), 0.2).data
        assert v.shape == (2000,)
        assert np.all((-1e-12 <= v) & (v <= 2.2 + 1e-12))

    def test_monotone_in_positive_distance(self):
        # walking the positive away from the anchor can only increase the loss
        rng = np.random.default_rng(5)
        a = E1
        n = random_unit(rng, 4)
        angles = np.linspace(0.1, np.pi - 0.1, 25)
        vals = [triplet(a, np.array([np.cos(t), np.sin(t), 0.0, 0.0]), n, 0.2) for t in angles]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_negative_margin_rejected(self):
        with pytest.raises(ValidationError):
            triplet(E1, E2, NEG_E1, margin=-0.1)

    def test_shape_mismatch_rejected(self):
        # index rows must be triples
        with pytest.raises(ShapeError):
            triplet_batch_term(Tensor(np.stack([E1, E2, NEG_E1])), [[0, 1]], 0.2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(77)
        h = 1e-6
        checked = 0
        for _ in range(50):
            a, p, n = (random_unit(rng) for _ in range(3))
            x = Parameter(np.stack([a, p, n]), "apn")
            value = triplet_batch_term(x, [[0, 1, 2]], 0.2)
            if value.data[0] < 1e-3:  # keep clear of the hinge point
                continue
            autodiff.tsum(value).backward()
            checked += 1
            for which, v in ((0, a), (1, p), (2, n)):
                num = np.zeros_like(v)
                for i in range(v.size):
                    e = np.zeros_like(v)
                    e[i] = h
                    args = [a.copy(), p.copy(), n.copy()]
                    args[which] = v + e
                    up = _loss_no_norm_check(*args)
                    args[which] = v - e
                    dn = _loss_no_norm_check(*args)
                    num[i] = (up - dn) / (2 * h)
                np.testing.assert_allclose(x.grad[which], num, rtol=1e-5, atol=1e-7)
        assert checked > 20

    def test_active_gradient_pushes_positive_away_from_anchor(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, p, n = (random_unit(rng) for _ in range(3))
            x = Parameter(np.stack([a, p, n]), "apn")
            value = triplet_batch_term(x, [[0, 1, 2]], 0.2)
            value.backward()
            if value.data[0] > 0:
                assert np.dot(x.grad[1], p - a) > 0


def _loss_no_norm_check(a, p, n, margin=0.2):
    # raw hinge for finite differencing (perturbed points leave the sphere)
    return max(0.0, np.linalg.norm(a - p) - np.linalg.norm(a - n) + margin)


class TestKtuplet:
    def test_k3_equals_triplet_bit_exact(self):
        rng = np.random.default_rng(99)
        rows = np.stack([random_unit(rng) for _ in range(3 * 500)])
        idx = np.arange(rows.shape[0]).reshape(-1, 3)
        xt, xk = Parameter(rows.copy(), "t"), Parameter(rows.copy(), "k")
        t = triplet_batch_term(xt, idx, 0.2)
        k = ktuplet_batch_term(xk, idx, 0.2)
        assert np.array_equal(t.data, k.data)
        autodiff.tsum(t).backward()
        autodiff.tsum(k).backward()
        assert np.array_equal(xt.grad, xk.grad)

    def test_k4_hand_sum(self):
        # all members on the anchor except the last at distance 2:
        # [0 - 0 + m]_+ + [0 - 2 + m]_+ = m
        out = ktuplet_batch_term(Tensor(np.stack([E1, E1, E1, NEG_E1])), [[0, 1, 2, 3]], margin=0.2)
        assert float(out.data[0]) == pytest.approx(0.2, abs=1e-15)

    def test_upper_bound_formula(self):
        assert ktuplet_upper_bound(5, 0.2) == pytest.approx(2.6)
        assert ktuplet_upper_bound(3, 0.2) == pytest.approx(2.2)

    def test_arity_error(self):
        with pytest.raises(ValidationError):
            ktuplet_batch_term(Tensor(np.stack([E1, E2])), [[0, 1]], 0.2)

    def test_ordering_violation_rejected(self):
        # interior member farther from the anchor than the last member
        far = NEG_E1
        mid = E2
        x = Tensor(np.stack([E1, mid, far, unit([1.0, 0.2, 0.0, 0.0])]))
        with pytest.raises(ContractError):
            ktuplet_batch_term(x, [[0, 1, 2, 3]], margin=0.2)

    def test_ordering_ties_tolerated(self):
        ktuplet_batch_term(Tensor(np.stack([E1, E1, E1, NEG_E1])), [[0, 1, 2, 3]], margin=0.2)
        ktuplet_batch_term(Tensor(np.stack([E1, E2, E2, NEG_E1])), [[0, 1, 2, 3]], margin=0.2)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = random_unit(rng)
            rest = sorted((random_unit(rng) for _ in range(4)), key=lambda x: np.linalg.norm(a - x))
            xs = [a] + rest
            got = float(ktuplet_batch_term(Tensor(np.stack(xs)), [[0, 1, 2, 3, 4]], 0.2).data[0])
            want = sum(
                _loss_no_norm_check(xs[0], xs[j + 1], xs[j + 2]) for j in range(len(xs) - 2)
            )
            assert got == pytest.approx(want, abs=1e-12)


class TestSoftmargin:
    """The soft-margin loss is triplet_batch_term at margin 0 on unnormalized embeddings."""

    def test_translation_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            a, p, n = (rng.normal(size=6) for _ in range(3))
            t = rng.normal(size=6) * 10
            assert triplet(a, p, n, 0.0) == pytest.approx(triplet(a + t, p + t, n + t, 0.0), abs=1e-9)

    def test_equals_zero_margin_triplet_on_unit_inputs(self):
        # training's soft-margin objective (no penalties) is the mean zero-margin hinge
        rng = np.random.default_rng(43)
        for _ in range(100):
            e = np.stack([random_unit(rng) for _ in range(3)])
            opt = SimpleNamespace(zero_grad=lambda: None, step=lambda lr: None)
            net = SimpleNamespace(weight_matrices=lambda: [])
            cfg = RunConfig(loss="soft-margin", margin=0.7)
            got = _descend(net, opt, Parameter(e, "emb"), [[0, 1, 2]], cfg, lr=0.0)
            assert got == triplet(e[0], e[1], e[2], 0.0)

    def test_no_unit_norm_requirement(self):
        out = triplet(np.array([3.0, 0.0]), np.array([3.0, 4.0]), np.array([3.0, 1.0]), 0.0)
        assert out == pytest.approx(3.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(47)
        rows = np.concatenate([rng.normal(size=(3, 5)) * 3 for _ in range(200)])
        assert np.all(triples_term(Tensor(rows), 0.0).data >= 0.0)


class TestBatchObjective:
    def test_mean_of_two_losses(self):
        out = batch_objective(Tensor([1.0, 3.0]), [], lam=0.0)
        assert float(out.data) == pytest.approx(2.0)

    def test_weight_penalty_only(self):
        w = Parameter(np.array([2.0]), "w")
        out = batch_objective(Tensor([0.0]), [w], lam=0.1)
        assert float(out.data) == pytest.approx(0.4)

    def test_empty_losses_rejected(self):
        with pytest.raises(ValidationError):
            batch_objective(Tensor(np.zeros(0)), [], 0.0)

    def test_gradients_reach_embeddings_and_weights(self):
        rng = np.random.default_rng(53)
        emb = Parameter(rng.normal(size=(4, 3)), "emb")
        w = Parameter(rng.normal(size=(2, 2)), "w")
        terms = triplet_batch_term(emb, [[0, 1, 2], [3, 2, 1]], 0.2)
        out = batch_objective(terms, [w], lam=0.05)
        out.backward()
        assert emb.grad is not None and np.any(emb.grad != 0)
        np.testing.assert_allclose(w.grad, 2 * 0.05 * w.data, atol=1e-12)

    def test_batch_term_matches_per_triplet_values(self):
        rng = np.random.default_rng(59)
        e = np.stack([random_unit(rng) for _ in range(6)])
        trips = np.array([[0, 1, 2], [3, 4, 5], [2, 0, 4]])
        vec = triplet_batch_term(Tensor(e), trips, 0.2).data
        want = [_loss_no_norm_check(e[a], e[p], e[n], 0.2) for a, p, n in trips]
        np.testing.assert_allclose(vec, want, atol=1e-12)

    def test_batch_term_gradcheck(self):
        rng = np.random.default_rng(61)
        emb = Parameter(rng.normal(size=(5, 4)), "emb")
        trips = [[0, 1, 2], [3, 4, 0], [1, 3, 2]]
        report = grad_check(
            lambda: autodiff.tmean(triplet_batch_term(emb, trips, 0.2)), [emb]
        )
        assert report.passed, report.per_param


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_triplet_range_property(seed):
    rng = np.random.default_rng(seed)
    m = float(rng.uniform(0, 1))
    v = triplet(random_unit(rng), random_unit(rng), random_unit(rng), m)
    assert -1e-12 <= v <= 2.0 + m + 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_softmargin_translation_property(seed):
    rng = np.random.default_rng(seed)
    a, p, n, t = (rng.normal(size=4) for _ in range(4))
    assert triplet(a, p, n, 0.0) == pytest.approx(triplet(a + t, p + t, n + t, 0.0), abs=1e-9)
