import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqtag.crf import logsumexp
from reqtag.lstm import sigmoid
from reqtag.network import softmax_rows
from conftest import grad_check


class TestSoftmaxRows:
    def test_uniform(self):
        out = softmax_rows(np.zeros((1, 3)))
        np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-15)

    def test_stability(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
           st.floats(-30, 30))
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        x = np.array([row])
        out = softmax_rows(x)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        shifted = softmax_rows(x + shift)
        np.testing.assert_allclose(out, shifted, atol=1e-9)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert sigmoid(np.zeros((1, 1)))[0, 0] == 0.5

    def test_sigmoid_derivative_identity(self):
        # the LSTM backward pass takes s * (1 - s) as the sigmoid derivative
        x, h = 1.3, 1e-5
        s = sigmoid(x)
        fd = (sigmoid(x + h) - sigmoid(x - h)) / (2 * h)
        assert fd == pytest.approx(s * (1 - s), abs=1e-9)

    def test_ranges(self):
        x = np.linspace(-10, 10, 41).reshape(1, -1)
        s = sigmoid(x)
        assert np.all((s > 0) & (s < 1))

    def test_sigmoid_bits_equal_np_clip_form(self):
        # the lower clip alone gives the same bits as np.clip at both
        # bounds, at the bounds and beyond them, for infinities, NaN and -0.0
        rng = np.random.default_rng(5)
        special = [800.0, -800.0, 500.0, -500.0, np.inf, -np.inf, np.nan,
                   -0.0, 0.0]
        x = np.concatenate([rng.normal(scale=300.0, size=2000), special])
        old = 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))
        with np.errstate(invalid="ignore"):
            assert sigmoid(x).tobytes() == old.tobytes()
            assert sigmoid(x.reshape(-1, 7)).tobytes() == old.tobytes()


class TestGradCheck:
    def test_correct_gradient_passes(self):
        theta = np.array([[1.0, -2.0], [0.5, 3.0]])
        res = grad_check(lambda t: float(np.sum(t ** 2)), theta, 2 * theta,
                         h=1e-4, tol=1e-6)
        assert res.passed

    def test_wrong_gradient_fails_with_worst_index(self):
        theta = np.array([[1.0, -2.0], [0.5, 3.0]])
        res = grad_check(lambda t: float(np.sum(t ** 2)), theta, 3 * theta,
                         h=1e-4, tol=1e-6)
        assert not res.passed
        # relative error of 3x vs 2x is 1/3 at every coordinate; worst is
        # whichever came first in scan order
        assert res.max_relative_error == pytest.approx(1 / 3, rel=1e-3)

    def test_param_restored(self):
        theta = np.array([[1.0, 2.0]])
        before = theta.copy()
        grad_check(lambda t: float(np.sum(t)), theta, np.ones_like(theta))
        np.testing.assert_array_equal(theta, before)

    def test_bad_h(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: 0.0, np.zeros((1, 1)), np.zeros((1, 1)), h=0.0)


def test_logsumexp_matches_naive():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    np.testing.assert_allclose(logsumexp(x, axis=1),
                               np.log(np.exp(x).sum(axis=1)), atol=1e-12)
