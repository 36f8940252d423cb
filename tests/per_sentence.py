"""Frozen per-sentence model: the slow reference for the batched core.

A copy of the forward and backward pass as it ran before the model was
batched: one unpadded sentence at a time, one token at a time, with its
own vector LSTM cell that accumulates weight gradients by outer products
at every step. Tests compare the batched core against it; nothing in
``src/`` imports it. It shares only the parameter container, the block
names and the CRF loss with the package; it decodes with the frozen
one-sentence Viterbi of ``crf_oracles``.
"""

from collections import namedtuple

import numpy as np

from reqtag import crf
from reqtag.embeddings import PAD_INDEX
from reqtag.lstm import sigmoid
from reqtag.network import ModelParams, _pack, param_blocks, softmax_rows
from crf_oracles import sentence_viterbi


def zero_grad_blocks(params: ModelParams) -> dict:
    return {name: np.zeros_like(arr)
            for name, arr in param_blocks(params).items()}


# ------------------------------------------------------------------- cell

# one cell's three blocks: parameters or their gradients
Cell = namedtuple("Cell", "w_in w_h b")


def lstm_step(params: Cell, x, h_prev, c_prev):
    """One LSTM step on vectors; returns (h, c, cache)."""
    h = params.w_h.shape[1]
    a = params.w_in @ x + params.w_h @ h_prev + params.b
    i = sigmoid(a[:h])
    f = sigmoid(a[h:2 * h])
    g = np.tanh(a[2 * h:3 * h])
    o = sigmoid(a[3 * h:])
    c = f * c_prev + i * g
    return o * np.tanh(c), c, (x, h_prev, c_prev, i, f, g, o, c)


def lstm_step_backward(params: Cell, cache, dh, dc, grads: Cell):
    """Backprop one step; accumulates into grads, returns (dx, dh_prev, dc_prev)."""
    x, h_prev, c_prev, i, f, g, o, c = cache
    tc = np.tanh(c)
    do = dh * tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    da = np.concatenate([
        dc_total * g * i * (1.0 - i),
        dc_total * c_prev * f * (1.0 - f),
        dc_total * i * (1.0 - g * g),
        do * o * (1.0 - o),
    ])
    grads.w_in[...] += np.outer(da, x)
    grads.w_h[...] += np.outer(da, h_prev)
    grads.b[...] += da
    return params.w_in.T @ da, params.w_h.T @ da, dc_total * f


def _cell(blocks, prefix):
    """The cell of blocks prefix.w_in, .w_h and .b: parameters or grads."""
    return Cell(w_in=blocks[f"{prefix}.w_in"], w_h=blocks[f"{prefix}.w_h"],
                b=blocks[f"{prefix}.b"])


# ---------------------------------------------------------------- encoder

def encode(params: ModelParams, indices):
    """BiLSTM over one unpadded sentence; returns (enc (n, 2H), caches)."""
    n = len(indices)
    h_enc = params.dims.h_enc
    xs = [params.blocks["embedding"][i] for i in indices]
    enc = np.zeros((n, 2 * h_enc))
    caches = []
    for cell, order, half in ((_cell(params.blocks, "enc_fwd"), range(n),
                               slice(None, h_enc)),
                              (_cell(params.blocks, "enc_bwd"),
                               range(n - 1, -1, -1), slice(h_enc, None))):
        h = np.zeros(h_enc)
        c = np.zeros(h_enc)
        steps = []
        for t in order:
            h, c, cache = lstm_step(cell, xs[t], h, c)
            enc[t, half] = h
            steps.append((t, cache))
        caches.append(steps)
    return enc, caches


def encode_backward(params: ModelParams, indices, enc_caches, d_enc, grads):
    """BPTT through both encoder directions; fills embedding grads."""
    h_enc = params.dims.h_enc
    d_x = np.zeros((len(indices), params.dims.embedding_dim))
    for prefix, half, steps in (("enc_fwd", slice(None, h_enc), enc_caches[0]),
                                ("enc_bwd", slice(h_enc, None), enc_caches[1])):
        cell, g = _cell(params.blocks, prefix), _cell(grads, prefix)
        dh = np.zeros(h_enc)
        dc = np.zeros(h_enc)
        for t, cache in reversed(steps):
            dx, dh, dc = lstm_step_backward(cell, cache, dh + d_enc[t, half], dc, g)
            d_x[t] += dx
    if params.embedding_trainable:
        for t, idx in enumerate(indices):
            if idx != PAD_INDEX:
                grads["embedding"][idx] += d_x[t]


# -------------------------------------------------------------- attention

def attend(params: ModelParams, enc):
    """Scaled dot-product self-attention over one sentence."""
    scale = 1.0 / np.sqrt(params.dims.d_att)
    q = enc @ params.blocks["attn_q"].T
    k = enc @ params.blocks["attn_k"].T
    v = enc @ params.blocks["attn_v"].T
    weights = softmax_rows((q @ k.T) * scale)
    return weights @ v, (enc, q, k, v, weights)


def attend_backward(params: ModelParams, att_cache, d_att, grads):
    enc, q, k, v, weights = att_cache
    scale = 1.0 / np.sqrt(params.dims.d_att)
    d_w = d_att @ v.T
    d_v = weights.T @ d_att
    d_scores = (d_w - (d_w * weights).sum(axis=1, keepdims=True)) * weights
    d_q = (d_scores @ k) * scale
    d_k = (d_scores.T @ q) * scale
    grads["attn_q"] += d_q.T @ enc
    grads["attn_k"] += d_k.T @ enc
    grads["attn_v"] += d_v.T @ enc
    p = params.blocks
    return d_q @ p["attn_q"] + d_k @ p["attn_k"] + d_v @ p["attn_v"]


# ---------------------------------------------------------------- decoder

def decode(params: ModelParams, attended, gold_tags=None):
    """Teacher-forced with gold_tags, else fed the greedy legal tag."""
    n = attended.shape[0]
    p = params.blocks
    h = np.zeros(params.dims.h_dec)
    c = np.zeros(params.dims.h_dec)
    emissions = np.zeros((n, 3))
    caches, hidden, prev_tags = [], [], []
    prev = crf.START
    for t in range(n):
        if t > 0 and gold_tags is not None:
            prev = gold_tags[t - 1]
        elif t > 0:
            allowed = ((crf.O, crf.B) if prev in (crf.START, crf.O)
                       else (crf.O, crf.B, crf.I))
            prev = max(allowed, key=lambda y: (emissions[t - 1, y], -y))
        prev_tags.append(prev)
        u = np.concatenate([attended[t], p["tag_embedding"][prev]])
        h, c, cache = lstm_step(_cell(p, "dec"), u, h, c)
        emissions[t] = p["emission_w"] @ h + p["emission_b"]
        caches.append(cache)
        hidden.append(h)
    return emissions, (caches, hidden, prev_tags)


def decode_backward(params: ModelParams, dec_cache, d_emissions, grads):
    caches, hidden, prev_tags = dec_cache
    d_att = params.dims.d_att
    g_dec = _cell(grads, "dec")
    d_attended = np.zeros((len(caches), d_att))
    dh = np.zeros(params.dims.h_dec)
    dc = np.zeros(params.dims.h_dec)
    for t in range(len(caches) - 1, -1, -1):
        de = d_emissions[t]
        grads["emission_w"] += np.outer(de, hidden[t])
        grads["emission_b"] += de
        du, dh, dc = lstm_step_backward(_cell(params.blocks, "dec"), caches[t],
                                        dh + params.blocks["emission_w"].T @ de,
                                        dc, g_dec)
        d_attended[t] = du[:d_att]
        grads["tag_embedding"][prev_tags[t]] += du[d_att:]
    return d_attended


# --------------------------------------------------------- sentence level

def sentence_loss_and_grads(params: ModelParams, indices, gold_tags):
    """Loss plus gradients for every trainable block, as a name->array dict."""
    grads = zero_grad_blocks(params)
    enc, enc_caches = encode(params, indices)
    attended, att_cache = attend(params, enc)
    emissions, dec_cache = decode(params, attended, gold_tags)
    loss, d_e, d_t = crf.crf_nll_backward(emissions, params.blocks["transitions"],
                                          gold_tags, _pack([len(gold_tags)]))
    grads["transitions"] += d_t
    d_attended = decode_backward(params, dec_cache, d_e, grads)
    d_enc = attend_backward(params, att_cache, d_attended, grads)
    encode_backward(params, indices, enc_caches, d_enc, grads)
    return loss, grads


def predict_tags(params: ModelParams, indices):
    """Viterbi-decoded BIO tag indices for one unpadded sentence."""
    if len(indices) == 0:
        return []
    enc, _ = encode(params, indices)
    attended, _ = attend(params, enc)
    emissions, _ = decode(params, attended)
    tags, _ = sentence_viterbi(emissions, params.blocks["transitions"])
    return tags
