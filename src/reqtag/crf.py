"""Linear-chain CRF over BIO tags: the Viterbi paths of a packed batch,
and its NLL with the gradient by forward-backward.

Tag indices: O=0, B=1, I=2, plus two virtual states used only inside the
transition matrix: START=3 and STOP=4. Transitions that would produce an
ill-formed BIO sequence (START->I, O->I) are clamped to a large negative
score and never updated.
"""

from itertools import accumulate

import numpy as np

from .tensor import logsumexp, previous_rows

O, B, I = 0, 1, 2
N_TAGS = 3
START, STOP = 3, 4
N_STATES = 5

FORBIDDEN_SCORE = -1e4


def forbidden_mask() -> np.ndarray:
    """Boolean (5, 5) mask of transition entries that stay clamped."""
    m = np.zeros((N_STATES, N_STATES), dtype=bool)
    m[START, I] = True
    m[O, I] = True
    m[:, START] = True   # nothing enters the start state
    m[STOP, :] = True    # nothing leaves the stop state
    return m


def init_transitions() -> np.ndarray:
    t = np.zeros((N_STATES, N_STATES))
    t[forbidden_mask()] = FORBIDDEN_SCORE
    return t


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
    prev = previous_rows(sizes)
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
