import numpy as np
import pytest

from conftest import grad_check


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
