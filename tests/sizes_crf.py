"""Frozen CRF on step sizes: the references for the Packing-based CRF.

A copy of ``crf.crf_viterbi`` and ``crf.crf_nll_backward`` as they ran
when each derived its own indices from the packed batch's step sizes
(``sizes[t]`` rows at step t, rows ranked longest first). Viterbi here
returns the tags (N,) per packed position. Nothing in ``src/`` imports
this module.
"""

from itertools import accumulate

import numpy as np

from reqtag.crf import (N_STATES, N_TAGS, START, STOP, forbidden_mask,
                        logsumexp)


def crf_viterbi(emissions: np.ndarray, transitions: np.ndarray, sizes):
    """Max-scoring path of each row of a packed batch laid out as for
    crf_nll_backward (one sentence: sizes [1] * n), by one max-product
    pass over every row. Returns the tags (N,) per packed position. Ties
    break toward the lower tag (O < B < I), resolved from the last
    position backward: argmax takes the first maximum, in the
    backpointers too."""
    starts = [0, *accumulate(sizes)]
    v = np.empty((starts[-1], N_TAGS))
    back = np.empty((starts[-1], N_TAGS), dtype=np.int64)
    v[:sizes[0]] = transitions[START, :N_TAGS] + emissions[:sizes[0]]
    for t in range(1, len(sizes)):
        lo, n = starts[t], sizes[t]
        cand = (v[starts[t - 1]:starts[t - 1] + n, :, None]
                + transitions[:N_TAGS, :N_TAGS])  # (row, prev, next)
        back[lo:lo + n] = cand.argmax(axis=1)
        np.add(emissions[lo:lo + n], cand.max(axis=1), out=v[lo:lo + n])
    # rank r runs while the step size exceeds r, ending at position r
    lengths = (np.array(sizes)[:, None] > np.arange(sizes[0])).sum(axis=0)
    final = (v[np.array(starts)[lengths - 1] + np.arange(sizes[0])]
             + transitions[:N_TAGS, STOP])
    # backtrack over Python ints: a numpy index per step costs more
    back = back.tolist()
    tags = [0] * starts[-1]
    for r, (n, y) in enumerate(zip(lengths.tolist(),
                                   final.argmax(axis=1).tolist())):
        for t in range(n - 1, 0, -1):
            tags[starts[t] + r] = y
            y = back[starts[t] + r][y]
        tags[r] = y
    return np.array(tags)


def crf_nll_backward(emissions: np.ndarray, transitions: np.ndarray,
                     gold_tags, sizes):
    """Summed NLL of a packed batch plus its gradients w.r.t. emissions
    and transitions, by forward-backward over every row at once.

    emissions (N, 3) and gold_tags (N,), valid BIO in every row, hold the
    batch's real positions grouped by time step, sizes[t] rows at step t,
    rows sorted longest first so the rows running at step t are the first
    sizes[t] of step t-1; one sentence of n tokens has sizes [1] * n.

    d NLL / d e[t,y]  = p(y_t = y) - 1[gold_t = y]
    d NLL / d T[a,b]  = expected transition count - gold transition count
    Clamped (forbidden) transition entries get zero gradient.
    """
    gold = np.asarray(gold_tags)
    n_all = len(gold)
    sizes = list(sizes)
    starts = np.cumsum([0] + sizes)
    first = sizes[0]
    # the same row one step back, for each position past step 0
    prev = (np.arange(first, n_all)
            - np.repeat(np.asarray(sizes)[:-1], sizes[1:]))
    trans = transitions[:N_TAGS, :N_TAGS]
    stop = transitions[:N_TAGS, STOP]
    # each position's row (its rank within its step), and whether the
    # row ends there
    row = np.arange(n_all) - np.repeat(starts[:-1], sizes)
    ends = row >= np.repeat(sizes[1:] + [0], sizes)

    alpha = np.empty((n_all, N_TAGS))
    alpha[:first] = transitions[START, :N_TAGS] + emissions[:first]
    for t in range(1, len(sizes)):
        lo, n = starts[t], sizes[t]
        alpha[lo:lo + n] = emissions[lo:lo + n] + logsumexp(
            alpha[starts[t - 1]:starts[t - 1] + n, :, None] + trans, axis=1)
    beta = np.empty((n_all, N_TAGS))
    beta[ends] = stop
    for t in range(len(sizes) - 2, -1, -1):
        nxt = slice(starts[t + 1], starts[t + 2])
        beta[starts[t]:starts[t] + sizes[t + 1]] = logsumexp(
            trans + (emissions[nxt] + beta[nxt])[:, None, :], axis=2)

    log_z = np.empty(first)
    log_z[row[ends]] = logsumexp(alpha[ends] + stop, axis=1)
    unary = np.exp(alpha + beta - log_z[row][:, None])
    pairwise = np.exp(alpha[prev][:, :, None] + trans
                      + (emissions[first:] + beta[first:])[:, None, :]
                      - log_z[row[first:]][:, None, None])
    gold_score = (transitions[START, gold[:first]].sum()
                  + emissions[np.arange(n_all), gold].sum()
                  + trans[gold[prev], gold[first:]].sum()
                  + stop[gold[ends]].sum())
    nll = float(log_z.sum() - gold_score)

    d_t = np.zeros((N_STATES, N_STATES))
    d_t[START, :N_TAGS] = (unary[:first].sum(axis=0)
                           - np.bincount(gold[:first], minlength=N_TAGS))
    d_t[:N_TAGS, STOP] = (unary[ends].sum(axis=0)
                          - np.bincount(gold[ends], minlength=N_TAGS))
    d_t[:N_TAGS, :N_TAGS] = pairwise.sum(axis=0) - np.bincount(
        gold[prev] * N_TAGS + gold[first:],
        minlength=N_TAGS * N_TAGS).reshape(N_TAGS, N_TAGS)
    d_t[forbidden_mask()] = 0.0
    d_e = unary
    d_e[np.arange(n_all), gold] -= 1.0
    return nll, d_e, d_t
