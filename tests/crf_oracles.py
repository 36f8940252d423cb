"""Enumeration oracles for the CRF: every one of the 3^L tag paths of a
short sentence is scored with ``crf.path_score``. Only the tests call them.
"""

from itertools import product

import numpy as np

from reqtag.crf import N_TAGS, path_score
from reqtag.tensor import logsumexp


def brute_force_log_partition(emissions: np.ndarray, transitions: np.ndarray) -> float:
    """Log sum of exp(score) over all 3^L paths."""
    n = emissions.shape[0]
    scores = [path_score(emissions, transitions, path)
              for path in product(range(N_TAGS), repeat=n)]
    return float(logsumexp(np.array(scores)))


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
