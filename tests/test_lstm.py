import tracemalloc

import numpy as np
import pytest

from reqtag.lstm import (lstm_backward, lstm_forward, lstm_step,
                         lstm_step_backward, sigmoid)
from reqtag.network import ModelDims, _pack, init_model
from conftest import grad_check


def _cell(w_in, w_h, b):
    """One cell's blocks, named as the model names the cell "c"."""
    return {"c.w_in": w_in, "c.w_h": w_h, "c.b": b}


def _project(p, x):
    return x @ p["c.w_in"].T + p["c.b"]


def init_lstm(input_dim, hidden, rng):
    """A cell drawn as the model draws one: uniform(-k, k) with
    k = 1/sqrt(hidden), then the forget-gate bias at 1.0."""
    k = 1.0 / np.sqrt(hidden)
    p = _cell(w_in=rng.uniform(-k, k, size=(4 * hidden, input_dim)),
              w_h=rng.uniform(-k, k, size=(4 * hidden, hidden)),
              b=rng.uniform(-k, k, size=4 * hidden))
    p["c.b"][hidden:2 * hidden] = 1.0
    return p


def _backward(p, x, hs, caches, d_hs, packing):
    """lstm_backward's input gradient, and the weight gradients it adds
    into a zero cell."""
    grads = {name: np.zeros_like(a) for name, a in p.items()}
    return lstm_backward(p, grads, "c", x, hs, caches, d_hs, packing), grads


def _forward(p, pre, packing):
    """lstm_forward's states and the step caches it keeps for a list."""
    caches = []
    return lstm_forward(p["c.w_h"], pre, packing, caches), caches


def test_zero_params_zero_inputs_fixed_point():
    p = _cell(w_in=np.zeros((8, 3)), w_h=np.zeros((8, 2)), b=np.zeros(8))
    h, c, _ = lstm_step(p["c.w_h"], np.zeros((1, 8)), np.zeros((1, 2)),
                        np.zeros((1, 2)))
    np.testing.assert_array_equal(h, np.zeros((1, 2)))
    np.testing.assert_array_equal(c, np.zeros((1, 2)))


def test_forget_bias_alone_keeps_zero_cell():
    p = _cell(w_in=np.zeros((4, 1)), w_h=np.zeros((4, 1)),
              b=np.array([0.0, 1.0, 0.0, 0.0]))
    h, c, _ = lstm_step(p["c.w_h"], _project(p, np.zeros((1, 1))),
                        np.zeros((1, 1)), np.zeros((1, 1)))
    assert c[0, 0] == 0.0 and h[0, 0] == 0.0


def test_one_dim_hand_computed():
    # gates with w_in = [1, 1, 1, 1], w_h = 0, b = 0, x = 0.5:
    # i = f = o = sigmoid(0.5), g = tanh(0.5)
    # c = f*0.2 + i*g ; h = o*tanh(c)
    p = _cell(w_in=np.ones((4, 1)), w_h=np.zeros((4, 1)), b=np.zeros(4))
    h, c, _ = lstm_step(p["c.w_h"], _project(p, np.array([[0.5]])),
                        np.array([[0.3]]), np.array([[0.2]]))
    sig = 1 / (1 + np.exp(-0.5))
    g = np.tanh(0.5)
    c_exp = sig * 0.2 + sig * g
    h_exp = sig * np.tanh(c_exp)
    assert c[0, 0] == pytest.approx(c_exp, abs=1e-6)
    assert h[0, 0] == pytest.approx(h_exp, abs=1e-6)


def test_rows_are_independent():
    rng = np.random.default_rng(3)
    w_h = init_lstm(3, 2, rng)["c.w_h"]
    a_in = rng.normal(size=(3, 8))
    h_prev = rng.normal(size=(3, 2))
    c_prev = rng.normal(size=(3, 2))
    h, c, _ = lstm_step(w_h, a_in, h_prev, c_prev)
    for row in range(3):
        h1, c1, _ = lstm_step(w_h, a_in[row:row + 1], h_prev[row:row + 1],
                              c_prev[row:row + 1])
        np.testing.assert_allclose(h1[0], h[row], rtol=1e-14, atol=0)
        np.testing.assert_allclose(c1[0], c[row], rtol=1e-14, atol=0)


def test_shape_errors():
    w_h = init_lstm(3, 2, np.random.default_rng(0))["c.w_h"]
    # each match names the check's own message: a numpy broadcasting
    # ValueError from the step's arithmetic cannot pass for it
    with pytest.raises(ValueError, match=r"^input projection shape \(1, 9\), "
                                         r"expected \(1, 8\)$"):
        lstm_step(w_h, np.zeros((1, 9)), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError, match=r"^state shapes \(1, 3\)/\(1, 2\), "
                                         r"expected \(B, 2\)$"):
        lstm_step(w_h, np.zeros((1, 8)), np.zeros((1, 3)), np.zeros((1, 2)))
    with pytest.raises(ValueError, match=r"^input projection shape \(2, 8\), "
                                         r"expected \(1, 8\)$"):
        lstm_step(w_h, np.zeros((2, 8)), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError, match=r"^state shapes \(2,\)/\(2,\), "
                                         r"expected \(B, 2\)$"):
        lstm_step(w_h, np.zeros(8), np.zeros(2), np.zeros(2))


def test_init_forget_bias_and_bounds():
    # each cell the model draws
    dims = ModelDims(embedding_dim=4, h_enc=5, d_att=3, h_dec=6, d_tag=2)
    params = init_model(9, dims, np.random.default_rng(1))
    for name, hidden in (("enc_fwd", 5), ("enc_bwd", 5), ("dec", 6)):
        b = params.blocks[f"{name}.b"]
        np.testing.assert_array_equal(b[hidden:2 * hidden], 1.0)
        k = 1.0 / np.sqrt(hidden)
        assert np.all(np.abs(np.delete(b, np.s_[hidden:2 * hidden])) <= k)
        assert np.all(np.abs(params.blocks[f"{name}.w_in"]) <= k)
        assert np.all(np.abs(params.blocks[f"{name}.w_h"]) <= k)


def test_step_gradients_every_block():
    rng = np.random.default_rng(2)
    w_h = init_lstm(3, 2, rng)["c.w_h"]
    a_in = rng.normal(size=(2, 8))
    h_prev = rng.normal(size=(2, 2))
    c_prev = rng.normal(size=(2, 2))
    weights = rng.normal(size=(2, 2))

    def loss_of(_=None):
        h, _c, _cache = lstm_step(w_h, a_in, h_prev, c_prev)
        return float((h * weights).sum())

    _, _, cache = lstm_step(w_h, a_in, h_prev, c_prev)
    da, dh_prev, dc_prev = lstm_step_backward(w_h, cache, weights,
                                              np.zeros((2, 2)))
    for arr, g in ((a_in, da), (h_prev, dh_prev), (c_prev, dc_prev)):
        res = grad_check(loss_of, arr, g, h=1e-4, tol=1e-4)
        assert res.passed, res


def test_sequence_gradients_every_block():
    # a packed batch of two rows, lengths 4 and 2: sizes [2, 2, 1, 1]
    rng = np.random.default_rng(4)
    p = init_lstm(3, 2, rng)
    packing = _pack([4, 2])
    x = rng.normal(size=(6, 3))
    weights = rng.normal(size=(6, 2))

    def loss_of(_=None):
        return float((lstm_forward(p["c.w_h"], _project(p, x), packing)
                      * weights).sum())

    hs, caches = _forward(p, _project(p, x), packing)
    dx, grads = _backward(p, x, hs, caches, weights, packing)
    for arr, g in (*((p[name], grads[name]) for name in p), (x, dx)):
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
    hs, caches = _forward(p, _project(p, x), _pack([5]))
    dx, grads = _backward(p, x, hs, caches, d_hs, _pack([5]))
    np.testing.assert_array_equal(dx[2:], 0.0)
    hs2, caches2 = _forward(p, _project(p, x[:2]), _pack([2]))
    np.testing.assert_array_equal(hs2, hs[:2])
    dx2, grads2 = _backward(p, x[:2], hs2, caches2, d_hs[:2], _pack([2]))
    np.testing.assert_allclose(dx[:2], dx2, rtol=1e-12, atol=0)
    for name in p:
        np.testing.assert_allclose(grads[name], grads2[name],
                                   rtol=1e-12, atol=1e-15, err_msg=name)


def test_packed_rows_match_each_row_alone():
    # rows of lengths 4, 2, 2 packed by step: sizes [3, 3, 1, 1]; each
    # row's outputs and input gradients equal the row run by itself,
    # and the weight gradients are the sum over rows
    rng = np.random.default_rng(6)
    p = init_lstm(3, 2, rng)
    lengths = [4, 2, 2]
    packing = _pack(lengths)
    assert packing.sizes == [3, 3, 1, 1]
    xs = [rng.normal(size=(n, 3)) for n in lengths]
    d_hs = [rng.normal(size=(n, 2)) for n in lengths]
    where = [(t, r) for t in range(4) for r in range(3) if t < lengths[r]]
    x = np.array([xs[r][t] for t, r in where])
    hs, caches = _forward(p, _project(p, x), packing)
    dx, grads = _backward(p, x, hs, caches,
                          np.array([d_hs[r][t] for t, r in where]), packing)
    total = {name: 0.0 for name in p}
    for r, n in enumerate(lengths):
        at = [i for i, (_, row) in enumerate(where) if row == r]
        hs1, caches1 = _forward(p, _project(p, xs[r]), _pack([n]))
        dx1, grads1 = _backward(p, xs[r], hs1, caches1, d_hs[r], _pack([n]))
        np.testing.assert_allclose(hs[at], hs1, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(dx[at], dx1, rtol=1e-12, atol=1e-15)
        for name in total:
            total[name] = total[name] + grads1[name]
    for name, ref in total.items():
        np.testing.assert_allclose(grads[name], ref, rtol=1e-12,
                                   atol=1e-15, err_msg=name)


def test_states_equal_forward_without_caches():
    rng = np.random.default_rng(8)
    p = init_lstm(3, 2, rng)
    pre = _project(p, rng.normal(size=(8, 3)))
    # sizes [3, 2, 2, 1]
    hs, caches = _forward(p, pre, _pack([4, 3, 1]))
    states = lstm_forward(p["c.w_h"], pre, _pack([4, 3, 1]))
    np.testing.assert_array_equal(states, hs)
    assert len(caches) == 4  # one per step, kept only for a list
    with pytest.raises(ValueError, match=r"^8 input rows for 7 positions$"):
        lstm_forward(p["c.w_h"], pre, _pack([3, 3, 1]))  # sizes [3, 2, 2]


def test_states_keep_no_step_caches():
    # inference holds one step's cache at a time: its peak is the (N, H)
    # states plus a step, against every step's six (B, H) cache arrays
    rng = np.random.default_rng(9)
    w_h = init_lstm(4, 64, rng)["c.w_h"]
    packing = _pack([400] * 16)  # 400 steps of 16 rows
    pre = rng.normal(size=(400 * 16, 4 * 64))

    def peak(caches):
        tracemalloc.start()
        try:
            lstm_forward(w_h, pre, packing, caches)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(None) < peak([]) / 3


def test_step_sizes_must_cover_every_row():
    w_h = init_lstm(3, 2, np.random.default_rng(7))["c.w_h"]
    with pytest.raises(ValueError, match=r"^5 input rows for 4 positions$"):
        lstm_forward(w_h, np.zeros((5, 8)), _pack([2, 2]))


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
