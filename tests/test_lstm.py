import numpy as np
import pytest

from reqtag.lstm import (LstmCellParams, init_lstm, lstm_step,
                         lstm_step_backward, zero_grads)
from reqtag.tensor import ShapeError
from conftest import grad_check


def test_zero_params_zero_inputs_fixed_point():
    p = LstmCellParams(w_in=np.zeros((8, 3)), w_h=np.zeros((8, 2)),
                       b=np.zeros(8))
    h, c, _ = lstm_step(p, np.zeros(3), np.zeros(2), np.zeros(2))
    np.testing.assert_array_equal(h, np.zeros(2))
    np.testing.assert_array_equal(c, np.zeros(2))


def test_forget_bias_alone_keeps_zero_cell():
    p = LstmCellParams(w_in=np.zeros((4, 1)), w_h=np.zeros((4, 1)),
                       b=np.array([0.0, 1.0, 0.0, 0.0]))
    h, c, _ = lstm_step(p, np.zeros(1), np.zeros(1), np.zeros(1))
    assert c[0] == 0.0 and h[0] == 0.0


def test_one_dim_hand_computed():
    # gates with w_in = [1, 1, 1, 1], w_h = 0, b = 0, x = 0.5:
    # i = f = o = sigmoid(0.5), g = tanh(0.5)
    # c = f*0.2 + i*g ; h = o*tanh(c)
    p = LstmCellParams(w_in=np.ones((4, 1)), w_h=np.zeros((4, 1)), b=np.zeros(4))
    h, c, _ = lstm_step(p, np.array([0.5]), np.array([0.3]), np.array([0.2]))
    sig = 1 / (1 + np.exp(-0.5))
    g = np.tanh(0.5)
    c_exp = sig * 0.2 + sig * g
    h_exp = sig * np.tanh(c_exp)
    assert c[0] == pytest.approx(c_exp, abs=1e-6)
    assert h[0] == pytest.approx(h_exp, abs=1e-6)


def test_shape_errors():
    p = init_lstm(3, 2, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        lstm_step(p, np.zeros(4), np.zeros(2), np.zeros(2))
    with pytest.raises(ShapeError):
        lstm_step(p, np.zeros(3), np.zeros(3), np.zeros(2))


def test_init_forget_bias_and_bounds():
    hidden = 5
    p = init_lstm(4, hidden, np.random.default_rng(1))
    np.testing.assert_array_equal(p.b[hidden:2 * hidden], 1.0)
    k = 1.0 / np.sqrt(hidden)
    assert np.all(np.abs(p.w_in) <= k)
    assert np.all(np.abs(p.w_h) <= k)


def test_step_gradients_every_block():
    rng = np.random.default_rng(2)
    p = init_lstm(3, 2, rng)
    x = rng.normal(size=3)
    h_prev = rng.normal(size=2)
    c_prev = rng.normal(size=2)

    def loss_of(_=None):
        h, _c, _cache = lstm_step(p, x, h_prev, c_prev)
        return float(h.sum())

    _, _, cache = lstm_step(p, x, h_prev, c_prev)
    grads = zero_grads(p)
    dx, dh_prev, dc_prev = lstm_step_backward(p, cache, np.ones(2),
                                              np.zeros(2), grads)
    for arr, g in ((p.w_in, grads.w_in), (p.w_h, grads.w_h), (p.b, grads.b)):
        res = grad_check(loss_of, arr, g, h=1e-4, tol=1e-4)
        assert res.passed, res
    res = grad_check(loss_of, x, dx, h=1e-4, tol=1e-4)
    assert res.passed
    res = grad_check(loss_of, h_prev, dh_prev, h=1e-4, tol=1e-4)
    assert res.passed
    res = grad_check(loss_of, c_prev, dc_prev, h=1e-4, tol=1e-4)
    assert res.passed
