"""Frozen packed encoder and attention: the slow references for the
distinct-token projection and the grouped attention.

A copy of ``network._encode``/``_encode_backward`` as they ran when every
position's embedding row was projected, and of ``network._attend``/
``_attend_backward`` as they ran one row at a time. They take and give
what the network's functions do, apart from their caches, so a test can
put them in the network's place as pairs and ask for equal bits.
Nothing in ``src/`` imports this module.
"""

import numpy as np

from reqtag.embeddings import PAD_INDEX
from reqtag.lstm import lstm_backward, lstm_forward
from reqtag.network import softmax_rows


def encode(params, tokens, packing, keep, table=None):
    """BiLSTM over a batch's (N,) packed token indices, one projection
    row per position; returns (enc (N, 2H), cache). table is ignored:
    every position is projected here."""
    p = params.blocks
    x = p["embedding"][tokens]
    x_rev = x[packing.rev]
    fwd, bwd = ([], []) if keep else (None, None)
    hs_fwd = lstm_forward(p["enc_fwd.w_h"],
                          x @ p["enc_fwd.w_in"].T + p["enc_fwd.b"], packing, fwd)
    hs_bwd = lstm_forward(p["enc_bwd.w_h"],
                          x_rev @ p["enc_bwd.w_in"].T + p["enc_bwd.b"],
                          packing, bwd)
    enc = np.concatenate([hs_fwd, hs_bwd[packing.rev]], axis=1)
    return enc, (tokens, packing, x, x_rev, (hs_fwd, fwd), (hs_bwd, bwd))


def encode_backward(params, enc_cache, d_enc, grads):
    tokens, packing, x, x_rev, fwd, bwd = enc_cache
    h_enc = params.dims.h_enc
    d_x = lstm_backward(params.blocks, grads, "enc_fwd", x, *fwd,
                        d_enc[:, :h_enc], packing)
    d_x_rev = lstm_backward(params.blocks, grads, "enc_bwd", x_rev, *bwd,
                            d_enc[packing.rev, h_enc:], packing)
    if params.embedding_trainable:
        real = tokens != PAD_INDEX
        np.add.at(grads["embedding"], tokens[real],
                  (d_x + d_x_rev[packing.rev])[real])


def attend(params, enc, packing):
    """Self-attention of each row over its own positions, row by row on
    a rank-major copy of enc; the cache keeps one (n, n) weight matrix
    per row."""
    scale = 1.0 / np.sqrt(params.dims.d_att)
    x = enc[packing.by_row]
    q = x @ params.blocks["attn_q"].T
    k = x @ params.blocks["attn_k"].T
    v = x @ params.blocks["attn_v"].T
    out = np.empty_like(v)
    weights = []
    start = 0
    for n in packing.lengths:
        row = slice(start, start + n)
        w = softmax_rows((q[row] @ k[row].T) * scale)
        out[row] = w @ v[row]
        weights.append(w)
        start += n
    attended = np.empty_like(out)
    attended[packing.by_row] = out
    return attended, (packing, x, q, k, v, weights)


def attend_backward(params, att_cache, d_att, grads):
    packing, x, q, k, v, weights = att_cache
    scale = 1.0 / np.sqrt(params.dims.d_att)
    d_out = d_att[packing.by_row]
    d_q = np.empty_like(q)
    d_k = np.empty_like(k)
    d_v = np.empty_like(v)
    start = 0
    for w in weights:
        row = slice(start, start + len(w))
        d_w = d_out[row] @ v[row].T
        d_v[row] = w.T @ d_out[row]
        d_scores = (d_w - (d_w * w).sum(axis=1, keepdims=True)) * w
        d_q[row] = (d_scores @ k[row]) * scale
        d_k[row] = (d_scores.T @ q[row]) * scale
        start += len(w)
    grads["attn_q"] += d_q.T @ x
    grads["attn_k"] += d_k.T @ x
    grads["attn_v"] += d_v.T @ x
    d_enc = np.empty_like(x)
    p = params.blocks
    d_enc[packing.by_row] = d_q @ p["attn_q"] + d_k @ p["attn_k"] + d_v @ p["attn_v"]
    return d_enc
