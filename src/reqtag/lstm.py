"""LSTM cell over a batch of rows: steps and whole sequences.

Gate order in the stacked weight matrices is [input, forget, candidate,
output]. A cell's three arrays are blocks of the model (network.BLOCKS),
which names and draws them; the steps and lstm_forward take only w_h.

A sequence batch runs packed, from a zero state, in the layout that
``network.Packing`` describes: step t advances only the sizes[t] rows
still running, at positions starts[t]:starts[t + 1], and a row that has
ended is never computed. The input projection is one GEMM over the N rows
before the time loop, and the weight gradients are stacked GEMMs over
every step's gate gradient after it. lstm_forward runs the encoder: it
keeps each step's cache, which lstm_backward reads, only when a backward
pass follows, so inference holds one step's cache at a time. The decoder
steps lstm_step in its own loop (network._decode_inference), because
each step's input holds the tag fed to it.
"""

import numpy as np


def sigmoid(x):
    # the lower clip keeps exp() finite; above 500, 1 + exp(-x) is 1.0 anyway
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -500.0)))


def lstm_step(w_h, a_in, h_prev, c_prev):
    """One step on B rows; a_in is the step's (B, 4H) input projection.

    Returns (h, c, cache).
    """
    hid = w_h.shape[1]
    if h_prev.ndim != 2 or h_prev.shape[1] != hid or c_prev.shape != h_prev.shape:
        raise ValueError(f"state shapes {h_prev.shape}/{c_prev.shape}, "
                         f"expected (B, {hid})")
    if a_in.shape != (h_prev.shape[0], 4 * hid):
        raise ValueError(f"input projection shape {a_in.shape}, "
                         f"expected ({h_prev.shape[0]}, {4 * hid})")
    a = a_in + h_prev @ w_h.T
    i = sigmoid(a[:, :hid])
    f = sigmoid(a[:, hid:2 * hid])
    g = np.tanh(a[:, 2 * hid:3 * hid])
    o = sigmoid(a[:, 3 * hid:])
    c = f * c_prev + i * g
    return o * np.tanh(c), c, (c_prev, i, f, g, o, c)


def lstm_step_backward(w_h, cache, dh, dc):
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
    return da, da @ w_h, dc_total * f


def lstm_forward(w_h, pre, packing, caches=None):
    """Run from a zero state over the (N, 4H) input projections of a
    packed batch (a network.Packing); returns hs (N, H). Each step's
    cache is appended to caches if a list is given, else dropped."""
    sizes, starts = packing.sizes, packing.starts
    if starts[-1] != len(pre):
        raise ValueError(f"{len(pre)} input rows for {starts[-1]} positions")
    hid = w_h.shape[1]
    hs = np.empty((len(pre), hid))
    h = np.zeros((sizes[0], hid))
    c = np.zeros((sizes[0], hid))
    for n, lo, hi in zip(sizes, starts, starts[1:]):
        h, c, cache = lstm_step(w_h, pre[lo:hi], h[:n], c[:n])
        hs[lo:hi] = h
        if caches is not None:
            caches.append(cache)
    return hs


def lstm_backward(blocks, grads, cell, x, hs, caches, d_hs, packing):
    """BPTT of the cell in blocks, named as network.BLOCKS names one, over
    a packed sequence batch (a network.Packing) that ran on inputs x
    (N, input_dim).

    d_hs is the (N, H) gradient reaching each step's output. Adds the
    weight gradients into the cell's entries of grads and returns dx
    (N, input_dim).
    """
    w_h = blocks[f"{cell}.w_h"]
    hid = w_h.shape[1]
    sizes, starts = packing.sizes, packing.starts
    d_a = np.empty((len(hs), 4 * hid))
    # a row that ends at step t gets no gradient from later steps
    dh = np.zeros((sizes[0], hid))
    dc = np.zeros((sizes[0], hid))
    for t in range(len(sizes) - 1, -1, -1):
        n, step = sizes[t], slice(starts[t], starts[t + 1])
        d_a[step], dh[:n], dc[:n] = lstm_step_backward(
            w_h, caches[t], dh[:n] + d_hs[step], dc[:n])
    # step 0 starts from h = 0, so only later steps feed w_h
    grads[f"{cell}.w_in"] += d_a.T @ x
    grads[f"{cell}.w_h"] += d_a[sizes[0]:].T @ hs[packing.prev]
    grads[f"{cell}.b"] += d_a.sum(axis=0)
    return d_a @ blocks[f"{cell}.w_in"]
