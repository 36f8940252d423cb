import numpy as np
import pytest

from reqtag.lstm import (LstmCellParams, init_lstm, lstm_backward,
                         lstm_forward, lstm_states, lstm_step,
                         lstm_step_backward)
from reqtag.tensor import ShapeError
from conftest import grad_check


def _project(p, x):
    return x @ p.w_in.T + p.b


def test_zero_params_zero_inputs_fixed_point():
    p = LstmCellParams(w_in=np.zeros((8, 3)), w_h=np.zeros((8, 2)),
                       b=np.zeros(8))
    h, c, _ = lstm_step(p, np.zeros((1, 8)), np.zeros((1, 2)), np.zeros((1, 2)))
    np.testing.assert_array_equal(h, np.zeros((1, 2)))
    np.testing.assert_array_equal(c, np.zeros((1, 2)))


def test_forget_bias_alone_keeps_zero_cell():
    p = LstmCellParams(w_in=np.zeros((4, 1)), w_h=np.zeros((4, 1)),
                       b=np.array([0.0, 1.0, 0.0, 0.0]))
    h, c, _ = lstm_step(p, _project(p, np.zeros((1, 1))), np.zeros((1, 1)),
                        np.zeros((1, 1)))
    assert c[0, 0] == 0.0 and h[0, 0] == 0.0


def test_one_dim_hand_computed():
    # gates with w_in = [1, 1, 1, 1], w_h = 0, b = 0, x = 0.5:
    # i = f = o = sigmoid(0.5), g = tanh(0.5)
    # c = f*0.2 + i*g ; h = o*tanh(c)
    p = LstmCellParams(w_in=np.ones((4, 1)), w_h=np.zeros((4, 1)), b=np.zeros(4))
    h, c, _ = lstm_step(p, _project(p, np.array([[0.5]])), np.array([[0.3]]),
                        np.array([[0.2]]))
    sig = 1 / (1 + np.exp(-0.5))
    g = np.tanh(0.5)
    c_exp = sig * 0.2 + sig * g
    h_exp = sig * np.tanh(c_exp)
    assert c[0, 0] == pytest.approx(c_exp, abs=1e-6)
    assert h[0, 0] == pytest.approx(h_exp, abs=1e-6)


def test_rows_are_independent():
    rng = np.random.default_rng(3)
    p = init_lstm(3, 2, rng)
    a_in = rng.normal(size=(3, 8))
    h_prev = rng.normal(size=(3, 2))
    c_prev = rng.normal(size=(3, 2))
    h, c, _ = lstm_step(p, a_in, h_prev, c_prev)
    for row in range(3):
        h1, c1, _ = lstm_step(p, a_in[row:row + 1], h_prev[row:row + 1],
                              c_prev[row:row + 1])
        np.testing.assert_allclose(h1[0], h[row], rtol=1e-14, atol=0)
        np.testing.assert_allclose(c1[0], c[row], rtol=1e-14, atol=0)


def test_shape_errors():
    p = init_lstm(3, 2, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        lstm_step(p, np.zeros((1, 9)), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        lstm_step(p, np.zeros((1, 8)), np.zeros((1, 3)), np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        lstm_step(p, np.zeros((2, 8)), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        lstm_step(p, np.zeros(8), np.zeros(2), np.zeros(2))


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
    a_in = rng.normal(size=(2, 8))
    h_prev = rng.normal(size=(2, 2))
    c_prev = rng.normal(size=(2, 2))
    weights = rng.normal(size=(2, 2))

    def loss_of(_=None):
        h, _c, _cache = lstm_step(p, a_in, h_prev, c_prev)
        return float((h * weights).sum())

    _, _, cache = lstm_step(p, a_in, h_prev, c_prev)
    da, dh_prev, dc_prev = lstm_step_backward(p, cache, weights, np.zeros((2, 2)))
    for arr, g in ((a_in, da), (h_prev, dh_prev), (c_prev, dc_prev)):
        res = grad_check(loss_of, arr, g, h=1e-4, tol=1e-4)
        assert res.passed, res


def test_sequence_gradients_every_block():
    # a packed batch of two rows, lengths 4 and 2: sizes [2, 2, 1, 1]
    rng = np.random.default_rng(4)
    p = init_lstm(3, 2, rng)
    sizes = [2, 2, 1, 1]
    x = rng.normal(size=(6, 3))
    weights = rng.normal(size=(6, 2))

    def loss_of(_=None):
        hs, _caches = lstm_forward(p, _project(p, x), sizes)
        return float((hs * weights).sum())

    hs, caches = lstm_forward(p, _project(p, x), sizes)
    dx, grads = lstm_backward(p, x, hs, caches, weights, sizes)
    for arr, g in ((p.w_in, grads.w_in), (p.w_h, grads.w_h), (p.b, grads.b),
                   (x, dx)):
        res = grad_check(loss_of, arr, g, h=1e-4, tol=1e-4)
        assert res.passed, res


def test_pad_steps_get_zero_gradient():
    # steps after a row's end, with zero output gradient, add nothing
    # to any gradient
    rng = np.random.default_rng(5)
    p = init_lstm(3, 2, rng)
    x = rng.normal(size=(5, 3))
    d_hs = rng.normal(size=(5, 2))
    d_hs[2:] = 0.0
    hs, caches = lstm_forward(p, _project(p, x), [1] * 5)
    dx, grads = lstm_backward(p, x, hs, caches, d_hs, [1] * 5)
    np.testing.assert_array_equal(dx[2:], 0.0)
    hs2, caches2 = lstm_forward(p, _project(p, x[:2]), [1] * 2)
    np.testing.assert_array_equal(hs2, hs[:2])
    dx2, grads2 = lstm_backward(p, x[:2], hs2, caches2, d_hs[:2], [1] * 2)
    np.testing.assert_allclose(dx[:2], dx2, rtol=1e-12, atol=0)
    for name in ("w_in", "w_h", "b"):
        np.testing.assert_allclose(getattr(grads, name), getattr(grads2, name),
                                   rtol=1e-12, atol=1e-15, err_msg=name)


def test_packed_rows_match_each_row_alone():
    # rows of lengths 4, 2, 2 packed by step: sizes [3, 3, 1, 1]; each
    # row's outputs and input gradients equal the row run by itself,
    # and the weight gradients are the sum over rows
    rng = np.random.default_rng(6)
    p = init_lstm(3, 2, rng)
    lengths = [4, 2, 2]
    sizes = [3, 3, 1, 1]
    xs = [rng.normal(size=(n, 3)) for n in lengths]
    d_hs = [rng.normal(size=(n, 2)) for n in lengths]
    where = [(t, r) for t in range(4) for r in range(3) if t < lengths[r]]
    x = np.array([xs[r][t] for t, r in where])
    hs, caches = lstm_forward(p, _project(p, x), sizes)
    dx, grads = lstm_backward(p, x, hs, caches,
                              np.array([d_hs[r][t] for t, r in where]), sizes)
    total = {name: 0.0 for name in ("w_in", "w_h", "b")}
    for r, n in enumerate(lengths):
        at = [i for i, (_, row) in enumerate(where) if row == r]
        hs1, caches1 = lstm_forward(p, _project(p, xs[r]), [1] * n)
        dx1, grads1 = lstm_backward(p, xs[r], hs1, caches1, d_hs[r], [1] * n)
        np.testing.assert_allclose(hs[at], hs1, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(dx[at], dx1, rtol=1e-12, atol=1e-15)
        for name in total:
            total[name] = total[name] + getattr(grads1, name)
    for name, ref in total.items():
        np.testing.assert_allclose(getattr(grads, name), ref, rtol=1e-12,
                                   atol=1e-15, err_msg=name)


def test_states_equal_forward_without_caches():
    rng = np.random.default_rng(8)
    p = init_lstm(3, 2, rng)
    pre = _project(p, rng.normal(size=(8, 3)))
    hs, _ = lstm_forward(p, pre, [3, 2, 2, 1])
    states, none = lstm_states(p, pre, [3, 2, 2, 1])
    np.testing.assert_array_equal(states, hs)
    assert none is None
    with pytest.raises(ShapeError):
        lstm_states(p, pre, [3, 2, 2])


def test_step_sizes_must_cover_every_row():
    p = init_lstm(3, 2, np.random.default_rng(7))
    with pytest.raises(ShapeError):
        lstm_forward(p, np.zeros((5, 8)), [2, 2])
