"""Reference checks for the CRF that only the tests use: the BIO validity
rule and a map of any tag list onto it, the score of one tag path, two
enumeration oracles that score every one of the 3^L tag paths of a short
sentence with ``path_score``, the one-sentence NLL and log Z read from
the training loss ``crf_nll_backward``, and the frozen one-sentence
Viterbi that the packed ``crf_viterbi`` replaced.
"""

from itertools import product

import numpy as np

from reqtag.crf import B, I, N_TAGS, O, START, STOP, crf_nll_backward
from reqtag.network import _pack
from reqtag.tensor import logsumexp


def is_valid_bio(tags) -> bool:
    prev = None
    for t in tags:
        if t == I and (prev is None or prev == O):
            return False
        prev = t
    return True


def as_bio(raw) -> list:
    """Any tag list made valid BIO: an I that follows O (or opens the
    list) becomes B, so every valid list maps to itself."""
    tags, prev = [], O
    for t in raw:
        t = B if t == I and prev == O else t
        tags.append(t)
        prev = t
    return tags


def random_bio(rng: np.random.Generator, n: int) -> list:
    """A random valid BIO path of length n: I only after B or I."""
    tags = []
    for _ in range(n):
        allowed = (O, B) if not tags or tags[-1] == O else (O, B, I)
        tags.append(int(rng.choice(allowed)))
    return tags


def path_score(emissions: np.ndarray, transitions: np.ndarray, tags) -> float:
    """Score of one tag path, including start and stop transitions."""
    score = transitions[START, tags[0]] + emissions[0, tags[0]]
    for t in range(1, len(tags)):
        score += transitions[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    score += transitions[tags[-1], STOP]
    return float(score)


def brute_force_log_partition(emissions: np.ndarray, transitions: np.ndarray) -> float:
    """Log sum of exp(score) over all 3^L paths."""
    n = emissions.shape[0]
    scores = [path_score(emissions, transitions, path)
              for path in product(range(N_TAGS), repeat=n)]
    return float(logsumexp(np.array(scores), axis=0))


def brute_force_viterbi(emissions: np.ndarray, transitions: np.ndarray):
    """The best path and its score, ties broken as crf_viterbi states."""
    n = emissions.shape[0]
    best_path, best_score = None, -np.inf
    for path in product(range(N_TAGS), repeat=n):
        s = path_score(emissions, transitions, path)
        if s > best_score or (s == best_score
                              and path[::-1] < best_path[::-1]):
            best_path, best_score = path, s
    return list(best_path), best_score


def sentence_viterbi(emissions: np.ndarray, transitions: np.ndarray):
    """Max-scoring path of one sentence and its score, one step at a
    time; ties go to the lower tag, resolved from the last position
    backward."""
    n = emissions.shape[0]
    v = transitions[START, :N_TAGS] + emissions[0]
    backptr = np.zeros((n, N_TAGS), dtype=np.int64)
    for t in range(1, n):
        cand = v[:, None] + transitions[:N_TAGS, :N_TAGS]  # (prev, next)
        backptr[t] = np.argmax(cand, axis=0)
        v = emissions[t] + cand[backptr[t], np.arange(N_TAGS)]
    final = v + transitions[:N_TAGS, STOP]
    last = int(np.argmax(final))
    score = float(final[last])
    path = [last]
    for t in range(n - 1, 0, -1):
        path.append(int(backptr[t, path[-1]]))
    path.reverse()
    return path, score


def sentence_nll(emissions: np.ndarray, transitions: np.ndarray, gold) -> float:
    """NLL of one sentence's gold path, from the training loss."""
    return crf_nll_backward(emissions, transitions, gold, _pack([len(gold)]))[0]


def log_partition(emissions: np.ndarray, transitions: np.ndarray,
                  gold=None) -> float:
    """log Z from the training loss: NLL(gold) + score(gold), for any
    valid gold path (all O by default)."""
    gold = [O] * len(emissions) if gold is None else gold
    return (sentence_nll(emissions, transitions, gold)
            + path_score(emissions, transitions, gold))
