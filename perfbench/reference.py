"""Reference tagger for checking ``reqtag extract`` replies.

A frozen, numpy-only copy of the model's inference as computed at the
commit that introduced this benchmark: BiLSTM encoder, scaled
dot-product self-attention, LSTM decoder fed the greedy previous tag
(restricted to tags legal after it), linear emissions, and CRF Viterbi
with ties broken toward the lower tag. It runs lines of equal length as
one batch, so checking a run costs far less than the run itself.

It takes the weights as a name -> array dict (the program's parameter
block names) and never imports the program.
"""

import numpy as np

O, B, I = 0, 1, 2
START, STOP = 3, 4
N_TAGS = 3


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def _lstm(w, prefix, xs):
    """Run one LSTM over (batch, steps, in); returns (batch, steps, hidden)."""
    w_in, w_h, b = w[f"{prefix}.w_in"], w[f"{prefix}.w_h"], w[f"{prefix}.b"]
    hid = w_h.shape[1]
    batch, steps, _ = xs.shape
    h = np.zeros((batch, hid))
    c = np.zeros((batch, hid))
    pre = xs @ w_in.T + b
    out = np.zeros((batch, steps, hid))
    for t in range(steps):
        h, c = _cell(pre[:, t] + h @ w_h.T, c, hid)
        out[:, t] = h
    return out


def _cell(a, c, hid):
    i = _sigmoid(a[:, :hid])
    f = _sigmoid(a[:, hid:2 * hid])
    g = np.tanh(a[:, 2 * hid:3 * hid])
    o = _sigmoid(a[:, 3 * hid:])
    c = f * c + i * g
    return o * np.tanh(c), c


def _tags_equal_length(w, idx):
    """Viterbi tags for a (batch, n) index matrix of one sentence length."""
    emb = w["embedding"][idx]
    fwd = _lstm(w, "enc_fwd", emb)
    bwd = _lstm(w, "enc_bwd", emb[:, ::-1])[:, ::-1]
    enc = np.concatenate([fwd, bwd], axis=2)

    scale = 1.0 / np.sqrt(w["attn_q"].shape[0])
    q, k, v = (enc @ w[m].T for m in ("attn_q", "attn_k", "attn_v"))
    scores = (q @ k.transpose(0, 2, 1)) * scale
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    attended = (e / e.sum(axis=2, keepdims=True)) @ v

    batch, n = idx.shape
    hid = w["dec.w_h"].shape[1]
    h = np.zeros((batch, hid))
    c = np.zeros((batch, hid))
    emissions = np.zeros((batch, n, N_TAGS))
    prev = np.full(batch, START)
    rows = np.arange(batch)
    for t in range(n):
        if t > 0:
            scores_t = emissions[:, t - 1].copy()
            scores_t[(prev == START) | (prev == O), I] = -np.inf
            prev = np.argmax(scores_t, axis=1)
        u = np.concatenate([attended[:, t], w["tag_embedding"][prev]], axis=1)
        h, c = _cell(u @ w["dec.w_in"].T + h @ w["dec.w_h"].T + w["dec.b"],
                     c, hid)
        emissions[:, t] = h @ w["emission_w"].T + w["emission_b"]

    trans = w["transitions"]
    vit = trans[START, :N_TAGS] + emissions[:, 0]
    backptr = np.zeros((batch, n, N_TAGS), dtype=np.int64)
    for t in range(1, n):
        cand = vit[:, :, None] + trans[:N_TAGS, :N_TAGS]
        backptr[:, t] = np.argmax(cand, axis=1)
        vit = emissions[:, t] + np.take_along_axis(
            cand, backptr[:, t][:, None, :], axis=1)[:, 0]
    last = np.argmax(vit + trans[:N_TAGS, STOP], axis=1)
    paths = np.zeros((batch, n), dtype=np.int64)
    paths[:, n - 1] = last
    for t in range(n - 1, 0, -1):
        paths[:, t - 1] = backptr[rows, t, paths[:, t]]
    return paths


def tag_lines(weights, index_lists):
    """Tags for each index list (empty lists get no tags)."""
    out = [[] for _ in index_lists]
    by_len = {}
    for pos, ix in enumerate(index_lists):
        if ix:
            by_len.setdefault(len(ix), []).append(pos)
    for n, positions in by_len.items():
        idx = np.array([index_lists[p] for p in positions], dtype=np.int64)
        for p, tags in zip(positions, _tags_equal_length(weights, idx)):
            out[p] = tags.tolist()
    return out


def spans(tags, tokens):
    """Maximal runs of non-O tags as [[start, end], text] pairs."""
    out, start = [], None
    for pos, t in enumerate(list(tags) + [O]):
        if t != O and start is None:
            start = pos
        elif t == O and start is not None:
            out.append(([start, pos - 1], " ".join(tokens[start:pos])))
            start = None
    return out


def is_valid_bio(tags):
    prev = O
    for t in tags:
        if t == I and prev == O:
            return False
        prev = t
    return True
