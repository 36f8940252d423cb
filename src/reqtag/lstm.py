"""LSTM cell over a batch of rows: steps, whole sequences, parameter init.

Gate order in the stacked weight matrices is [input, forget, candidate,
output]. The forget-gate bias block starts at 1.0; everything else is
uniform(-k, k) with k = 1/sqrt(hidden).

A sequence runs on (B, T, ...) arrays from a zero state. Its input
projection is one GEMM before the time loop, and its weight gradients
are stacked GEMMs over every step's gate gradient after it. Sequences
are right-padded: pad steps come after every real step of a row, so
they never reach a real step's state, and pad steps whose output
gradient is zero get exactly zero gate gradient.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, sigmoid, tanh


@dataclass
class LstmCellParams:
    w_in: np.ndarray   # (4*hidden, input_dim)
    w_h: np.ndarray    # (4*hidden, hidden)
    b: np.ndarray      # (4*hidden,)

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]


def init_lstm(input_dim: int, hidden: int, rng: np.random.Generator) -> LstmCellParams:
    k = 1.0 / np.sqrt(hidden)
    p = LstmCellParams(
        w_in=rng.uniform(-k, k, size=(4 * hidden, input_dim)),
        w_h=rng.uniform(-k, k, size=(4 * hidden, hidden)),
        b=rng.uniform(-k, k, size=4 * hidden),
    )
    p.b[hidden:2 * hidden] = 1.0  # forget gate bias
    return p


def flat(a):
    """View a (..., n) array as 2-D rows, so one GEMM covers every step."""
    return a.reshape(-1, a.shape[-1])


def lstm_step(params: LstmCellParams, a_in, h_prev, c_prev):
    """One step on B rows; a_in is the step's (B, 4H) input projection.

    Returns (h, c, cache).
    """
    hid = params.hidden
    if h_prev.ndim != 2 or h_prev.shape[1] != hid or c_prev.shape != h_prev.shape:
        raise ShapeError(f"state shapes {h_prev.shape}/{c_prev.shape}, "
                         f"expected (B, {hid})")
    if a_in.shape != (h_prev.shape[0], 4 * hid):
        raise ShapeError(f"input projection shape {a_in.shape}, "
                         f"expected ({h_prev.shape[0]}, {4 * hid})")
    a = a_in + h_prev @ params.w_h.T
    i = sigmoid(a[:, :hid])
    f = sigmoid(a[:, hid:2 * hid])
    g = tanh(a[:, 2 * hid:3 * hid])
    o = sigmoid(a[:, 3 * hid:])
    c = f * c_prev + i * g
    return o * tanh(c), c, (c_prev, i, f, g, o, c)


def lstm_step_backward(params: LstmCellParams, cache, dh, dc):
    """Backprop one step of B rows; returns (da, dh_prev, dc_prev).

    da is the (B, 4H) gradient of the step's gate pre-activations; the
    weight gradients are left to lstm_backward.
    """
    c_prev, i, f, g, o, c = cache
    tc = np.tanh(c)
    dc_total = dc + dh * o * (1.0 - tc * tc)
    da = np.concatenate([
        dc_total * g * i * (1.0 - i),
        dc_total * c_prev * f * (1.0 - f),
        dc_total * i * (1.0 - g * g),
        dh * tc * o * (1.0 - o),
    ], axis=1)
    return da, da @ params.w_h, dc_total * f


def lstm_forward(params: LstmCellParams, pre):
    """Run over (B, T, 4H) input projections; returns (hs (B, T, H), caches)."""
    batch, steps, _ = pre.shape
    h = np.zeros((batch, params.hidden))
    c = np.zeros((batch, params.hidden))
    hs = np.empty((batch, steps, params.hidden))
    caches = []
    for t in range(steps):
        h, c, cache = lstm_step(params, pre[:, t], h, c)
        hs[:, t] = h
        caches.append(cache)
    return hs, caches


def lstm_backward(params: LstmCellParams, x, hs, caches, d_hs):
    """BPTT over a sequence that ran on inputs x (B, T, input_dim).

    d_hs is the (B, T, H) gradient reaching each step's output. Returns
    (dx (B, T, input_dim), weight gradients as LstmCellParams).
    """
    batch, steps, hid = hs.shape
    d_a = np.empty((batch, steps, 4 * hid))
    dh = np.zeros((batch, hid))
    dc = np.zeros((batch, hid))
    for t in range(steps - 1, -1, -1):
        d_a[:, t], dh, dc = lstm_step_backward(params, caches[t],
                                               dh + d_hs[:, t], dc)
    h_prev = np.concatenate([np.zeros((batch, 1, hid)), hs[:, :-1]], axis=1)
    d_a2 = flat(d_a)
    grads = LstmCellParams(w_in=d_a2.T @ flat(x), w_h=d_a2.T @ flat(h_prev),
                           b=d_a2.sum(axis=0))
    return (d_a2 @ params.w_in).reshape(batch, steps, -1), grads
