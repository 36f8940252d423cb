"""The batched core against the frozen per-sentence reference.

A right-padded batch through ``batch_loss_and_grads`` must give the sum
of the reference's per-sentence losses and gradients, and the same
sentences as a ragged list of rows through ``predict_batch`` the
reference's Viterbi tags row by row in input order, for any batch size,
row order, lengths (one row may be up to three times longer than the
rest) and padding, with trainable or frozen embeddings. More rows than
one decode chunk are ranked by length and decoded in chunks of at most
DECODE_CHUNK rows, and still come back in input order. Two or more
chunks are decoded on the thread pool with OpenBLAS at one thread, and
the count is restored after the call, also when a chunk raises; one
chunk or none runs in the calling thread, and so does every chunk when
no OpenBLAS thread setter is found. The packed core computes real
positions only: every LSTM step row is one real token of one of the
three sequences.
"""

import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_sentence
import reqtag
from reqtag import crf, lstm, network
from reqtag.embeddings import EmbeddingTable
from reqtag.network import (DECODE_CHUNK, ModelDims, batch_loss_and_grads,
                            init_model, predict_batch, predict_tags)

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


def _sentences(lo, hi):
    """(token indices, tags) of one length lo..hi; index 0 is the pad
    token and 1 the unknown token, both allowed at real positions."""
    return st.integers(lo, hi).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, VOCAB - 1), min_size=n, max_size=n),
        st.lists(st.sampled_from([crf.O, crf.B, crf.I]), min_size=n,
                 max_size=n).map(_bio)))


SENTENCE = _sentences(1, 8)
# a long review beside the rest: up to three times the longest
OUTLIER = st.one_of(st.none(), st.tuples(st.integers(0, 5),
                                         _sentences(9, 24)))


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
       outlier=OUTLIER, extra=st.integers(0, 2),
       seed=st.integers(0, 2 ** 16), trainable=st.booleans())
def test_batch_equals_per_sentence_sum(sentences, outlier, extra, seed,
                                       trainable):
    if outlier is not None:
        at, long = outlier
        sentences = sentences[:at] + [long] + sentences[at:]
    params = _model(seed, trainable)
    indices, tags, lengths = _pad(sentences, extra)
    loss, grads = batch_loss_and_grads(params, indices, tags, lengths)

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
    ref_paths = [per_sentence.predict_tags(params, idx) for idx, _ in sentences]
    assert predict_batch(params, [idx for idx, _ in sentences]) == ref_paths
    assert [predict_tags(params, idx) for idx, _ in sentences] == ref_paths


def _rows(lengths, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=n) for n in lengths]


@settings(max_examples=12, deadline=None)
@given(lengths=st.lists(st.integers(1, 8), min_size=130, max_size=260),
       outliers=st.lists(st.tuples(st.integers(0, 260), st.integers(9, 24)),
                         max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_ranked_chunks_decode_in_input_order(lengths, outliers, seed):
    # rows in no length order, a few long ones among them, three chunks
    # or more: every row gets the reference's path at its own index, and
    # no pass packs more than one chunk of rows
    for at, n in outliers:
        lengths.insert(at, n)
    rows = _rows(lengths, seed)
    params = _model(seed, True)
    with mock.patch.object(network, "_pack", wraps=network._pack) as pack:
        paths = predict_batch(params, rows)
    packed = [len(call.args[0]) for call in pack.call_args_list]
    assert paths == [per_sentence.predict_tags(params, r) for r in rows]
    assert max(packed) <= DECODE_CHUNK and sum(packed) == len(rows)
    assert len(packed) == -(-len(rows) // DECODE_CHUNK)


def _recording_attend(threads):
    """network._attend that records the thread each chunk runs on."""
    attend = network._attend

    def recording(*args):
        threads.append(threading.get_ident())
        return attend(*args)
    return recording


@pytest.mark.parametrize("n_rows", [0, 1, DECODE_CHUNK])
def test_one_chunk_or_none_runs_inline(n_rows):
    rows = _rows(np.random.default_rng(n_rows).integers(1, 9, size=n_rows),
                 n_rows)
    params = _model(2, True)
    threads = []
    with mock.patch.object(network, "_attend", _recording_attend(threads)), \
            mock.patch.object(network, "_blas_thread_setter") as setter, \
            mock.patch.object(network, "_decode_on_pool") as pool:
        paths = predict_batch(params, rows)
    assert paths == [per_sentence.predict_tags(params, r) for r in rows]
    assert threads == [threading.get_ident()] * (n_rows > 0)
    setter.assert_not_called()
    pool.assert_not_called()


def test_no_threads_start_for_import_or_one_chunk():
    # the pool is created by the first call of two chunks, not before
    script = (
        "import threading\n"
        "before = threading.active_count()\n"
        "import numpy as np\n"
        "import reqtag.cli\n"
        "from reqtag import network\n"
        "assert threading.active_count() == before\n"
        "params = network.init_model(12, network.ModelDims(4, 3, 4, 3, 2),\n"
        "                            np.random.default_rng(0))\n"
        "rows = [np.arange(1 + i % 7) for i in range(network.DECODE_CHUNK)]\n"
        "network.predict_batch(params, rows)\n"
        "network.predict_tags(params, rows[3])\n"
        "assert threading.active_count() == before\n"
        "assert network._pool is None\n"
        "assert network._blas_thread_setter.cache_info().currsize == 0\n")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(reqtag.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def blas_at_two():
    """OpenBLAS's thread-count getter, with the count set to 2 for the
    test and put back after it."""
    blas = network._blas_thread_setter()
    if blas is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, set_ = blas
    original = get()
    set_(2)
    yield get
    set_(original)


def test_chunks_run_on_pool_at_one_blas_thread_and_restore_it(blas_at_two):
    get = blas_at_two
    rows = _rows(np.random.default_rng(4).integers(1, 9, size=200), 4)
    params = _model(4, True)
    ref = [per_sentence.predict_tags(params, r) for r in rows]
    decode = network._decode_inference
    seen = []

    def recording(*args):
        seen.append((threading.get_ident(), get()))
        return decode(*args)

    def failing_second(*args):
        seen.append(None)
        if len(seen) == 2:
            raise RuntimeError("chunk failed")
        return decode(*args)

    with mock.patch.object(network, "_decode_inference", recording):
        assert predict_batch(params, rows) == ref
    assert get() == 2
    assert len(seen) == 4
    assert all(ident != threading.get_ident() and threads == 1
               for ident, threads in seen)
    seen.clear()
    with mock.patch.object(network, "_decode_inference", failing_second):
        with pytest.raises(RuntimeError, match="chunk failed"):
            predict_batch(params, rows)
    assert get() == 2


def test_concurrent_callers_restore_blas_threads(blas_at_two):
    # more calling threads than cores, switching often: each multi-chunk
    # call must read and restore the count under the lock, or one caller
    # restores the 1 another set
    get = blas_at_two
    params = _model(7, True)
    rows = _rows(np.random.default_rng(7).integers(1, 5, size=140), 7)
    ref = [per_sentence.predict_tags(params, r) for r in rows]
    results = []

    def call():
        results.append(predict_batch(params, rows) == ref)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call) for _ in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [True] * len(callers)
    assert get() == 2


def test_without_blas_setter_chunks_run_inline():
    rows = _rows(np.random.default_rng(6).integers(1, 9, size=150), 6)
    params = _model(6, True)
    threads = []
    with mock.patch.object(network, "_attend", _recording_attend(threads)), \
            mock.patch.object(network, "_blas_thread_setter",
                              return_value=None), \
            mock.patch.object(network, "_decode_on_pool") as pool:
        paths = predict_batch(params, rows)
    assert paths == predict_batch(params, rows)
    assert paths == [per_sentence.predict_tags(params, r) for r in rows]
    assert threads == [threading.get_ident()] * 3
    pool.assert_not_called()


def test_lstm_steps_cover_real_tokens_only(monkeypatch):
    # encoder forward, encoder backward and decoder each step once per
    # real token, in training and in inference; computing any pad
    # position would raise the count
    rows = []

    def counting(step):
        def wrapped(params, a_in, h_prev, c_prev):
            rows.append(len(h_prev))
            return step(params, a_in, h_prev, c_prev)
        return wrapped

    monkeypatch.setattr(lstm, "lstm_step", counting(lstm.lstm_step))
    monkeypatch.setattr(network, "lstm_step", counting(network.lstm_step))
    rng = np.random.default_rng(8)
    lengths = [3, 7, 1, 21, 5, 7]  # unsorted, one row 3x the next longest
    sentences = [(rng.integers(0, VOCAB, size=n).tolist(), [crf.O] * n)
                 for n in lengths]
    indices, tags, _ = _pad(sentences, 2)
    params = _model(0, True)
    batch_loss_and_grads(params, indices, tags, lengths)
    assert sum(rows) == 3 * sum(lengths)
    rows.clear()
    predict_batch(params, [idx for idx, _ in sentences])
    assert sum(rows) == 3 * sum(lengths)
    rows.clear()
    for idx, _ in sentences:
        predict_tags(params, idx)
    assert sum(rows) == 3 * sum(lengths)
