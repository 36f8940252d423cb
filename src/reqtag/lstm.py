"""LSTM cell over a batch of rows: steps, whole sequences, parameter init.

Gate order in the stacked weight matrices is [input, forget, candidate,
output]. The forget-gate bias block starts at 1.0; everything else is
uniform(-k, k) with k = 1/sqrt(hidden).

A sequence batch runs packed, from a zero state: its N real steps are
(N, ...) rows grouped by time step, sizes[t] rows at step t, with the
rows sorted longest first so that the rows still running at step t are
the first sizes[t] rows of step t-1 (see ``tensor.previous_rows``). Step t
advances only those rows; a row that has ended is never computed. The
input projection is one GEMM over the N rows before the time loop, and
the weight gradients are stacked GEMMs over every step's gate gradient
after it. lstm_states runs the same steps for inference and keeps none
of the per-step caches that lstm_backward reads.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, previous_rows, sigmoid


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
    i_f = sigmoid(a[:, :2 * hid])  # the adjacent input and forget gates
    i = i_f[:, :hid]
    f = i_f[:, hid:]
    g = np.tanh(a[:, 2 * hid:3 * hid])
    o = sigmoid(a[:, 3 * hid:])
    c = f * c_prev + i * g
    return o * np.tanh(c), c, (c_prev, i, f, g, o, c)


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


def lstm_forward(params: LstmCellParams, pre, sizes):
    """Run over the (N, 4H) input projections of a packed sequence batch
    with sizes[t] rows at step t; returns (hs (N, H), caches)."""
    if sum(sizes) != len(pre):
        raise ShapeError(f"{len(pre)} input rows for step sizes summing "
                         f"to {sum(sizes)}")
    h = np.zeros((sizes[0], params.hidden))
    c = np.zeros((sizes[0], params.hidden))
    hs = np.empty((len(pre), params.hidden))
    caches = []
    start = 0
    for n in sizes:
        h, c, cache = lstm_step(params, pre[start:start + n], h[:n], c[:n])
        hs[start:start + n] = h
        caches.append(cache)
        start += n
    return hs, caches


def lstm_states(params: LstmCellParams, pre, sizes):
    """lstm_forward's (hs, caches) for a run that no backward pass
    follows: each step's cache is dropped once the step has run, so the
    caches come back as None."""
    if sum(sizes) != len(pre):
        raise ShapeError(f"{len(pre)} input rows for step sizes summing "
                         f"to {sum(sizes)}")
    h = np.zeros((sizes[0], params.hidden))
    c = np.zeros((sizes[0], params.hidden))
    hs = np.empty((len(pre), params.hidden))
    start = 0
    for n in sizes:
        h, c, _ = lstm_step(params, pre[start:start + n], h[:n], c[:n])
        hs[start:start + n] = h
        start += n
    return hs, None


def lstm_backward(params: LstmCellParams, x, hs, caches, d_hs, sizes):
    """BPTT over a packed sequence batch that ran on inputs x (N, input_dim).

    d_hs is the (N, H) gradient reaching each step's output. Returns
    (dx (N, input_dim), weight gradients as LstmCellParams).
    """
    hid = params.hidden
    d_a = np.empty((len(hs), 4 * hid))
    # a row that ends at step t gets no gradient from later steps
    dh = np.zeros((sizes[0], hid))
    dc = np.zeros((sizes[0], hid))
    end = len(hs)
    for t in range(len(sizes) - 1, -1, -1):
        n = sizes[t]
        d_a[end - n:end], dh[:n], dc[:n] = lstm_step_backward(
            params, caches[t], dh[:n] + d_hs[end - n:end], dc[:n])
        end -= n
    # step 0 starts from h = 0, so only later steps feed w_h
    grads = LstmCellParams(w_in=d_a.T @ x,
                           w_h=d_a[sizes[0]:].T @ hs[previous_rows(sizes)],
                           b=d_a.sum(axis=0))
    return d_a @ params.w_in, grads
