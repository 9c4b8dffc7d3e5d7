"""Adam and the learning-rate schedule against hand-computed oracles."""

import math

import numpy as np
import pytest

from mcretrieval import Adam, DivergenceError, Parameter, ValidationError, lr_schedule


class TestLrSchedule:
    def test_flat_before_decay_start(self):
        assert lr_schedule(100, 500, 0.01, 250) == 0.01

    def test_zero_at_final_epoch(self):
        assert lr_schedule(500, 500, 0.01, 250) == 0.0

    def test_midpoint_of_decay(self):
        assert lr_schedule(375, 500, 0.01, 250) == pytest.approx(0.005, abs=1e-15)

    def test_boundary_epoch_still_flat(self):
        assert lr_schedule(250, 500, 0.01, 250) == 0.01

    def test_monotone_nonincreasing(self):
        lrs = [lr_schedule(e, 500, 0.01, 250) for e in range(501)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            lr_schedule(501, 500, 0.01, 250)
        with pytest.raises(ValidationError):
            lr_schedule(0, 500, 0.01, 500)


class TestAdam:
    def test_single_step_matches_recursion(self):
        # hand-computed: m1 = (1-b1) g, v1 = (1-b2) g^2, bias-corrected
        # step is exactly lr * g / (|g| + eps)
        p = Parameter(np.array([1.5]), "w")
        opt = Adam([p], lr=0.01)
        p.grad = np.array([0.4])
        opt.step()
        want = 1.5 - 0.01 * 0.4 / (math.sqrt(0.4**2) + 1e-8)
        np.testing.assert_allclose(p.data, [want], rtol=0, atol=1e-15)

    def test_two_steps_match_recursion(self):
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        p = Parameter(np.array([0.7]), "w")
        opt = Adam([p], lr=lr, betas=(b1, b2), eps=eps)
        grads = [0.3, -0.2]
        x, m, v = 0.7, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        for g in grads:
            p.grad = np.array([g])
            opt.step()
        np.testing.assert_allclose(p.data, [x], atol=1e-15)

    def test_nonfinite_gradient_names_parameter(self):
        p = Parameter(np.array([1.0]), "enc.can.w0")
        opt = Adam([p])
        p.grad = np.array([np.nan])
        with pytest.raises(DivergenceError, match="enc.can.w0"):
            opt.step()

    def test_missing_grad_treated_as_zero(self):
        p = Parameter(np.array([1.0]), "w")
        opt = Adam([p], lr=0.5)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_bad_hyperparameters(self):
        p = Parameter(np.array([1.0]), "w")
        with pytest.raises(ValidationError):
            Adam([p], lr=0.0)
        with pytest.raises(ValidationError):
            Adam([p], betas=(1.0, 0.999))
        with pytest.raises(ValidationError):
            Adam([])
