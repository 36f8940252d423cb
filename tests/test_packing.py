"""Packing is the one description of a packed batch: its indices match a
walk over (rank, step), and the CRF that reads them gives the bits of the
frozen CRF that derived its own indices from the step sizes."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sizes_crf
from reqtag import crf
from reqtag.network import _pack
from crf_oracles import random_bio

# 1-12 rows of 1-9 tokens: free lengths, or runs of equal length
# (one-row and one-step batches among them)
FREE = st.lists(st.integers(1, 9), min_size=1, max_size=12)
RUNS = st.lists(st.tuples(st.integers(1, 9), st.integers(1, 4)),
                min_size=1, max_size=4).map(
    lambda runs: [n for n, k in runs for _ in range(k)][:12])
LENGTHS = st.one_of(FREE, RUNS)


def _walk(lengths):
    """Packed position of each (rank, step), numbered step by step."""
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    ranked = [lengths[i] for i in order]
    pos = {}
    for t in range(max(ranked)):
        for r, n in enumerate(ranked):
            if t < n:
                pos[r, t] = len(pos)
    return ranked, pos


@settings(max_examples=200, deadline=None)
@given(lengths=LENGTHS)
@example(lengths=[1]).via("one row, one step")
@example(lengths=[1] * 12).via("one step")
@example(lengths=[9]).via("one row")
def test_pack_indices_match_walk(lengths):
    packing = _pack(lengths)
    ranked, pos = _walk(lengths)
    b = len(ranked)
    rank = [0] * len(pos)
    prev = [0] * (len(pos) - b)
    for (r, t), p in pos.items():
        rank[p] = r
        if t:
            prev[p - b] = pos[r, t - 1]
    assert packing.lengths == ranked
    assert packing.rank.tolist() == rank
    assert packing.prev.tolist() == prev
    assert packing.last.tolist() == [pos[r, n - 1]
                                     for r, n in enumerate(ranked)]


@settings(max_examples=200, deadline=None)
@given(lengths=LENGTHS)
@example(lengths=[1]).via("one row, one step")
@example(lengths=[1] * 12).via("one step")
@example(lengths=[9]).via("one row")
def test_starts_bound_each_step(lengths):
    packing = _pack(lengths)
    starts, sizes, b = packing.starts, packing.sizes, len(lengths)
    assert all(type(s) is int for s in starts)
    assert starts[0] == 0 and starts[-1] == len(packing.src)
    np.testing.assert_array_equal(np.diff(starts), sizes)
    for t, n in enumerate(sizes):
        lo, hi = starts[t], starts[t + 1]
        assert packing.rank[lo:hi].tolist() == list(range(n))
        if t:
            np.testing.assert_array_equal(packing.prev[lo - b:hi - b],
                                          starts[t - 1] + np.arange(n))


@settings(max_examples=200, deadline=None)
@given(lengths=LENGTHS, ties=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(lengths=[1], ties=False, seed=0).via("one row, one step")
@example(lengths=[1] * 12, ties=True, seed=1).via("one step")
@example(lengths=[9], ties=False, seed=2).via("one row")
def test_crf_equals_frozen_sizes_crf(lengths, ties, seed):
    # integer scores tie often, so the tie-breaking is compared too
    rng = np.random.default_rng(seed)
    packing = _pack(lengths)
    n_all = sum(lengths)
    transitions = crf.init_transitions()
    free = ~crf.forbidden_mask()
    if ties:
        emissions = rng.integers(-2, 3, size=(n_all, 3)).astype(float)
        transitions[free] = rng.integers(-2, 3, size=free.sum())
    else:
        emissions = rng.normal(scale=2.0, size=(n_all, 3))
        transitions[free] = rng.normal(scale=1.5, size=free.sum())
    gold = np.concatenate([random_bio(rng, n) for n in lengths])[packing.src]

    nll, d_e, d_t = crf.crf_nll_backward(emissions, transitions, gold,
                                         packing)
    ref_nll, ref_d_e, ref_d_t = sizes_crf.crf_nll_backward(
        emissions, transitions, gold, packing.sizes)
    assert nll == ref_nll
    np.testing.assert_array_equal(d_e, ref_d_e)
    np.testing.assert_array_equal(d_t, ref_d_t)

    tags = sizes_crf.crf_viterbi(emissions, transitions, packing.sizes)
    by_row = iter(tags[packing.by_row].tolist())
    assert crf.crf_viterbi(emissions, transitions, packing) == [
        [next(by_row) for _ in range(n)] for n in packing.lengths]
