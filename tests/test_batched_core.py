"""The batched core against the frozen per-sentence reference.

A right-padded batch through ``batch_loss_and_grads`` must give the sum
of the reference's per-sentence losses and gradients, and
``predict_tags`` the reference's Viterbi tags, for any batch size,
lengths and padding, with trainable or frozen embeddings.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import per_sentence
from reqtag import crf
from reqtag.embeddings import EmbeddingTable
from reqtag.network import (ModelDims, batch_loss_and_grads, init_model,
                            predict_tags)

TINY = ModelDims(embedding_dim=4, h_enc=3, d_att=4, h_dec=3, d_tag=2)
VOCAB = 12
TOL = 1e-10


def _bio(raw):
    """Any tag list made valid BIO: an I that follows O becomes B."""
    tags, prev = [], crf.O
    for t in raw:
        t = crf.B if t == crf.I and prev == crf.O else t
        tags.append(t)
        prev = t
    return tags


# a sentence: (token indices, tags) of one length 1..8; index 0 is the
# pad token and 1 the unknown token, both allowed at real positions
SENTENCE = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, VOCAB - 1), min_size=n, max_size=n),
    st.lists(st.sampled_from([crf.O, crf.B, crf.I]), min_size=n,
             max_size=n).map(_bio)))


def _model(seed, trainable):
    rng = np.random.default_rng(seed)
    embedding = None
    if not trainable:
        embedding = EmbeddingTable(
            matrix=rng.uniform(-1, 1, size=(VOCAB, TINY.embedding_dim)),
            trainable=False)
    return init_model(VOCAB, TINY, rng, embedding=embedding)


def _pad(sentences, extra):
    width = max(len(i) for i, _ in sentences) + extra
    indices = np.zeros((len(sentences), width), dtype=np.int64)
    tags = np.zeros((len(sentences), width), dtype=np.int64)
    for row, (idx, tg) in enumerate(sentences):
        indices[row, :len(idx)] = idx
        tags[row, :len(tg)] = tg
    return indices, tags, [len(i) for i, _ in sentences]


def _assert_close(got, ref, what):
    bound = TOL * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(np.asarray(got) - ref) <= bound), (
        f"{what}: max |diff| {np.max(np.abs(np.asarray(got) - ref)):.3e}")


@settings(max_examples=150, deadline=None)
@given(sentences=st.lists(SENTENCE, min_size=1, max_size=5),
       extra=st.integers(0, 2), seed=st.integers(0, 2 ** 16),
       trainable=st.booleans())
def test_batch_equals_per_sentence_sum(sentences, extra, seed, trainable):
    params = _model(seed, trainable)
    loss, grads = batch_loss_and_grads(params, *_pad(sentences, extra))

    ref_loss = 0.0
    ref_grads = per_sentence.zero_grad_blocks(params)
    for idx, tags in sentences:
        l, g = per_sentence.sentence_loss_and_grads(params, idx, tags)
        ref_loss += l
        for name in ref_grads:
            ref_grads[name] += g[name]

    assert grads.keys() == ref_grads.keys()
    assert ("embedding" in grads) == trainable
    _assert_close(loss, ref_loss, "loss")
    for name, ref in ref_grads.items():
        _assert_close(grads[name], ref, name)
    for idx, _ in sentences:
        assert predict_tags(params, idx) == per_sentence.predict_tags(params, idx)
