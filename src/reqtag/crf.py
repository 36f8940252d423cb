"""Linear-chain CRF over BIO tags: the Viterbi paths of a packed batch,
and its NLL with the gradient by forward-backward.

Tag indices: O=0, B=1, I=2, plus two virtual states used only inside the
transition matrix: START=3 and STOP=4. Transitions that would produce an
ill-formed BIO sequence (START->I, O->I) are clamped to a large negative
score and never updated.
"""

import numpy as np

O, B, I = 0, 1, 2
N_TAGS = 3
START, STOP = 3, 4
N_STATES = 5

FORBIDDEN_SCORE = -1e4


def logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along axis of a finite array."""
    m = np.max(x, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(x - m), axis=axis)) + np.squeeze(m, axis=axis)


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


def crf_viterbi(emissions: np.ndarray, transitions: np.ndarray, packing):
    """Max-scoring path of each row of a packed batch (see network.Packing),
    by one max-product pass over every row. Returns each row's tags as a
    list, in rank order. Ties break toward the lower tag (O < B < I),
    resolved from the last position backward: argmax takes the first
    maximum, in the backpointers too."""
    sizes, starts, first = packing.sizes, packing.starts, packing.sizes[0]
    v = np.empty((len(emissions), N_TAGS))
    back = np.empty((len(emissions), N_TAGS), dtype=np.int64)
    v[:first] = transitions[START, :N_TAGS] + emissions[:first]
    for t in range(1, len(sizes)):
        cand = (v[starts[t - 1]:starts[t - 1] + sizes[t], :, None]
                + transitions[:N_TAGS, :N_TAGS])  # (row, prev, next)
        step = slice(starts[t], starts[t + 1])
        back[step] = cand.argmax(axis=1)
        v[step] = emissions[step] + cand.max(axis=1)
    final = v[packing.last] + transitions[:N_TAGS, STOP]
    # backtrack over Python ints: a numpy index per step costs more
    back = back.tolist()
    prev = packing.prev.tolist()
    paths = []
    for p, y in zip(packing.last.tolist(), final.argmax(axis=1).tolist()):
        path = [y]
        while p >= first:
            y = back[p][y]
            p = prev[p - first]
            path.append(y)
        paths.append(path[::-1])
    return paths


def crf_nll_backward(emissions: np.ndarray, transitions: np.ndarray,
                     gold_tags, packing):
    """Summed NLL of a packed batch (see network.Packing) plus its
    gradients w.r.t. emissions and transitions, by forward-backward over
    every row at once. emissions (N, 3) and gold_tags (N,), valid BIO in
    every row, hold the batch's packed positions.

    d NLL / d e[t,y]  = p(y_t = y) - 1[gold_t = y]
    d NLL / d T[a,b]  = expected transition count - gold transition count
    Clamped (forbidden) transition entries get zero gradient.
    """
    gold = np.asarray(gold_tags)
    n_all = len(gold)
    sizes, starts, first = packing.sizes, packing.starts, packing.sizes[0]
    prev, rank = packing.prev, packing.rank
    trans = transitions[:N_TAGS, :N_TAGS]
    stop = transitions[:N_TAGS, STOP]
    # where rows end, as a mask: sums over it run in position order
    ends = np.zeros(n_all, dtype=bool)
    ends[packing.last] = True

    alpha = np.empty((n_all, N_TAGS))
    alpha[:first] = transitions[START, :N_TAGS] + emissions[:first]
    for t in range(1, len(sizes)):
        cand = alpha[starts[t - 1]:starts[t - 1] + sizes[t], :, None] + trans
        step = slice(starts[t], starts[t + 1])
        alpha[step] = emissions[step] + logsumexp(cand, axis=1)
    beta = np.empty((n_all, N_TAGS))
    beta[ends] = stop
    for t in range(len(sizes) - 1, 0, -1):
        step = slice(starts[t], starts[t + 1])
        beta[starts[t - 1]:starts[t - 1] + sizes[t]] = logsumexp(
            trans + (emissions[step] + beta[step])[:, None, :], axis=2)

    log_z = logsumexp(alpha[packing.last] + stop, axis=1)
    unary = np.exp(alpha + beta - log_z[rank][:, None])
    pairwise = np.exp(alpha[prev][:, :, None] + trans
                      + (emissions[first:] + beta[first:])[:, None, :]
                      - log_z[rank[first:]][:, None, None])
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
