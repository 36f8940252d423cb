"""The batched core against the frozen per-sentence reference.

A batch's rows laid end to end through ``batch_loss_and_grads`` must
give the sum of the reference's per-sentence losses and gradients, and
the same sentences as a ragged list of rows through ``predict_tags``
the reference's Viterbi tags row by row in input order, for any batch
size, row order and lengths (one row may be up to three times longer
than the rest), with trainable or frozen embeddings. More rows than
one decode chunk are ranked by length and decoded in chunks of at most
DECODE_CHUNK rows, and still come back in input order. Two or more
chunks are decoded on the thread pool with OpenBLAS at one thread, and
the count is restored after the call, also when a chunk raises; one
chunk or none runs in the calling thread, and so does every chunk when
blas_threads finds no OpenBLAS. The packed core steps each token
once: every LSTM step row is one token of one of the three sequences.

Work is done once per batch where rows share it: the encoder projects
each distinct token once for both directions, and attention runs each
run of equal-length rows as one stacked product. Both compute, bit for
bit, what the per-position projection and the row-by-row attention
frozen in ``row_loops`` compute: attention outputs and gradients for
ranked batches full of equal-length runs, and the loss, every gradient
block and every emission of whole batches (criterion 2's among them)
with the frozen functions put back in the network's place. Rows that
repeat one token, or a few, decode to the reference's paths; a batch of
one distinct token takes numpy's one-row product for its projection.

An InputTable kept across predict_tags calls projects each word the
first time a call holds it and never again, and rows decoded through it,
split over calls in any order, get the paths of a decode without one;
their emissions may differ in the last bits, since which words were
projected together can differ.
"""

import os
import subprocess
import sys
import threading
from contextlib import ExitStack
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import per_sentence
import row_loops
from reqtag import crf, lstm, network
from reqtag.embeddings import UNK_INDEX
from reqtag.network import (DECODE_CHUNK, InputTable, ModelDims, _attend,
                            _attend_backward, _pack, batch_loss_and_grads,
                            init_model, predict_tags)
from conftest import child_env
from crf_oracles import as_bio

TINY = ModelDims(embedding_dim=4, h_enc=3, d_att=4, h_dec=3, d_tag=2)
WIDE = ModelDims(embedding_dim=6, h_enc=8, d_att=24, h_dec=5, d_tag=3)
VOCAB = 12
TOL = 1e-10


def _sentences(lo, hi):
    """(token indices, tags) of one length lo..hi; the indices are 1 (the
    unknown token) to VOCAB - 1, never 0 (the pad token), which the core
    is never given."""
    return st.integers(lo, hi).flatmap(lambda n: st.tuples(
        st.lists(st.integers(1, VOCAB - 1), min_size=n, max_size=n),
        st.lists(st.sampled_from([crf.O, crf.B, crf.I]), min_size=n,
                 max_size=n).map(as_bio)))


SENTENCE = _sentences(1, 8)
# a long review beside the rest: up to three times the longest
OUTLIER = st.one_of(st.none(), st.tuples(st.integers(0, 5),
                                         _sentences(9, 24)))


def _model(seed, trainable):
    """A tiny model; a frozen one gets a table drawn uniform(-1, 1)."""
    rng = np.random.default_rng(seed)
    params = init_model(VOCAB, TINY, rng, trainable=trainable)
    if not trainable:
        params.blocks["embedding"] = rng.uniform(
            -1, 1, size=(VOCAB, TINY.embedding_dim))
    return params


def _laid_out(sentences):
    """(tokens, tags, lengths) of (indices, tags) rows: the rows laid end
    to end, as batch_loss_and_grads takes them."""
    return (np.concatenate([idx for idx, _ in sentences]),
            np.concatenate([tg for _, tg in sentences]),
            [len(idx) for idx, _ in sentences])


def _assert_close(got, ref, what):
    bound = TOL * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(np.asarray(got) - ref) <= bound), (
        f"{what}: max |diff| {np.max(np.abs(np.asarray(got) - ref)):.3e}")


@settings(max_examples=150, deadline=None)
@given(sentences=st.lists(SENTENCE, min_size=1, max_size=5),
       outlier=OUTLIER, seed=st.integers(0, 2 ** 16),
       trainable=st.booleans())
def test_batch_equals_per_sentence_sum(sentences, outlier, seed, trainable):
    if outlier is not None:
        at, long = outlier
        sentences = sentences[:at] + [long] + sentences[at:]
    params = _model(seed, trainable)
    loss, grads = batch_loss_and_grads(params, *_laid_out(sentences))

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
    assert predict_tags(params, [idx for idx, _ in sentences]) == ref_paths
    assert [predict_tags(params, [idx])[0]
            for idx, _ in sentences] == ref_paths


def _rows(lengths, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(1, VOCAB, size=n) for n in lengths]


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
        paths = predict_tags(params, rows)
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


def _inline_patches(stack, threads, **blas):
    """Patches for a predict_tags call expected to decode in this thread:
    the thread-recording _attend, blas_threads (**blas its mock's
    settings), a spy on _thread_map and the thread pool's class; returns
    the last three mocks."""
    stack.enter_context(mock.patch.object(network, "_attend",
                                          _recording_attend(threads)))
    return (stack.enter_context(mock.patch.object(network, "blas_threads",
                                                  **blas)),
            stack.enter_context(mock.patch.object(
                network, "_thread_map", wraps=network._thread_map)),
            stack.enter_context(
                mock.patch("concurrent.futures.ThreadPoolExecutor")))


@pytest.mark.parametrize("n_rows", [0, 1, DECODE_CHUNK])
def test_one_chunk_or_none_runs_inline(n_rows):
    rows = _rows(np.random.default_rng(n_rows).integers(1, 9, size=n_rows),
                 n_rows)
    params = _model(2, True)
    threads = []
    with ExitStack() as stack:
        lookup, thread_map, pool = _inline_patches(stack, threads)
        paths = predict_tags(params, rows)
    assert paths == [per_sentence.predict_tags(params, r) for r in rows]
    assert threads == [threading.get_ident()] * (n_rows > 0)
    thread_map.assert_called_once()
    lookup.assert_not_called()
    pool.assert_not_called()


def _child(script, **env):
    """stdout of script in a fresh interpreter that imports this reqtag,
    under the caller's environment (so that PYTHONDONTWRITEBYTECODE and
    the BLAS thread settings hold in the child too) updated with env."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env(**env))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_threads_start_for_import_or_one_chunk():
    # decode threads start only inside a call of two chunks or more, and
    # that call joins them before it returns
    script = (
        "import threading\n"
        "before = threading.active_count()\n"
        "import numpy as np\n"
        "import reqtag.cli\n"
        "from reqtag import network\n"
        "assert threading.active_count() == before\n"
        "params = network.init_model(12, network.ModelDims(4, 3, 4, 3, 2),\n"
        "                            np.random.default_rng(0))\n"
        "rows = [np.arange(1, 2 + i % 7)\n"
        "        for i in range(network.DECODE_CHUNK)]\n"
        "network.predict_tags(params, rows)\n"
        "network.predict_tags(params, [rows[3]])\n"
        "assert threading.active_count() == before\n"
        "assert network.blas_threads.cache_info().currsize == 0\n"
        "network.predict_tags(params, rows * 3)\n"
        "assert threading.active_count() == before\n")
    _child(script)


def _openblas():
    """blas_threads()'s (get, set) pair; skips the test without OpenBLAS."""
    blas = network.blas_threads()
    if blas is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    return blas


@pytest.fixture
def blas_at_two():
    """OpenBLAS's thread-count getter, with the count set to 2 for the
    test and put back after it."""
    get, set_ = _openblas()
    original = get()
    set_(2)
    yield get
    set_(original)


def _decode_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("reqtag-decode")]


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
        assert predict_tags(params, rows) == ref
    assert get() == 2
    assert len(seen) == 4
    assert all(ident != threading.get_ident() and threads == 1
               for ident, threads in seen)
    assert not _decode_threads()
    seen.clear()
    with mock.patch.object(network, "_decode_inference", failing_second):
        with pytest.raises(RuntimeError, match="chunk failed"):
            predict_tags(params, rows)
    assert get() == 2
    assert not _decode_threads()


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
        results.append(predict_tags(params, rows) == ref)

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
    with ExitStack() as stack:
        lookup, thread_map, pool = _inline_patches(stack, threads,
                                                   return_value=None)
        paths = predict_tags(params, rows)
    assert paths == predict_tags(params, rows)
    assert paths == [per_sentence.predict_tags(params, r) for r in rows]
    assert threads == [threading.get_ident()] * 3
    thread_map.assert_called_once()
    lookup.assert_called_once_with()
    pool.assert_not_called()


def test_blas_threads_is_none_without_the_setter_symbols():
    # a numpy whose linalg extension reaches none of the thread-count
    # symbols gets no (get, set) pair, and its many-chunk calls decode
    # every chunk in the calling thread
    rows = _rows(np.random.default_rng(9).integers(1, 9, size=130), 9)
    params = _model(9, True)
    threads = []
    network.blas_threads.cache_clear()
    try:
        with mock.patch.object(network.ctypes, "CDLL", return_value=object()):
            assert network.blas_threads() is None
            with mock.patch.object(network, "_attend",
                                   _recording_attend(threads)):
                paths = predict_tags(params, rows)
    finally:
        network.blas_threads.cache_clear()
    assert paths == [per_sentence.predict_tags(params, r) for r in rows]
    assert threads == [threading.get_ident()] * 3
    assert not _decode_threads()


def test_blas_threads_sets_the_openblas_that_matmul_calls():
    # a handle on the extension that runs matmul reads back each count set
    # through the handle that blas_threads opened
    _openblas()
    script = (
        "import ctypes\n"
        "try:\n"
        "    from numpy._core import _multiarray_umath as ext  # numpy 2\n"
        "except ImportError:\n"
        "    from numpy.core import _multiarray_umath as ext  # numpy 1\n"
        "from reqtag import network\n"
        "core = ctypes.CDLL(ext.__file__)\n"
        "read = next(getattr(core, sym.format('get'))\n"
        "            for sym in network._BLAS_THREAD_SYMBOLS\n"
        "            if hasattr(core, sym.format('get')))\n"
        "read.argtypes, read.restype = [], ctypes.c_int\n"
        "get, set_ = network.blas_threads()\n"
        "for n in (1, 2, 1):\n"
        "    set_(n)\n"
        "    print(read(), get())\n")
    assert _child(script).split("\n") == ["1 1", "2 2", "1 1", ""]


@pytest.mark.parametrize("n", [1, 2])
def test_blas_threads_reads_the_environment_setting(n):
    _openblas()
    if n > network.usable_cpus():
        pytest.skip("OpenBLAS starts no more threads than CPUs")
    script = ("from reqtag import network\n"
              "print(network.blas_threads()[0]())\n")
    assert _child(script, OPENBLAS_NUM_THREADS=str(n)) == f"{n}\n"


def test_pool_size_falls_back_to_cpu_count(monkeypatch):
    # where os.sched_getaffinity does not exist (macOS, Windows), the pool
    # takes one thread per os.cpu_count() CPU, and one thread where that
    # count is unknown (None)
    _openblas()
    from concurrent.futures import ThreadPoolExecutor
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Recording)
    assert network.usable_cpus() == 3
    assert network._thread_map(str, range(5)) == list("01234")
    assert network._thread_map(str, range(2)) == ["0", "1"]
    assert sizes == [3, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert network.usable_cpus() == 1
    assert network._thread_map(str, range(5)) == list("01234")
    assert sizes == [3, 2, 1]
    assert not _decode_threads()


def test_lstm_steps_cover_real_tokens_only(monkeypatch):
    # encoder forward, encoder backward and decoder each step once per
    # token, in training and in inference; stepping any row past its
    # length would raise the count
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
    sentences = [(rng.integers(1, VOCAB, size=n).tolist(), [crf.O] * n)
                 for n in lengths]
    params = _model(0, True)
    batch_loss_and_grads(params, *_laid_out(sentences))
    assert sum(rows) == 3 * sum(lengths)
    rows.clear()
    predict_tags(params, [idx for idx, _ in sentences])
    assert sum(rows) == 3 * sum(lengths)
    rows.clear()
    for idx, _ in sentences:
        predict_tags(params, [idx])
    assert sum(rows) == 3 * sum(lengths)


# ------------------------------------------------- work done once per batch

# lengths 1-6 drawn from a small pool, so that runs of one length (and
# runs of one row) are common
LENGTHS = st.lists(st.integers(1, 6), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12))


def _run_frozen(pairs, fn, *args):
    """fn(*args) with each named row_loops pair ("encode", "attend") in
    the network's place."""
    with ExitStack() as stack:
        for pair in pairs:
            for name in (pair, f"{pair}_backward"):
                stack.enter_context(mock.patch.object(
                    network, f"_{name}", getattr(row_loops, name)))
        return fn(*args)


@settings(max_examples=200, deadline=None)
@given(lengths=LENGTHS, dims=st.sampled_from([TINY, WIDE]),
       seed=st.integers(0, 2 ** 16))
def test_grouped_attention_equals_row_loop(lengths, dims, seed):
    rng = np.random.default_rng(seed)
    params = init_model(VOCAB, dims, rng)
    packing = _pack(lengths)
    enc = rng.normal(size=(sum(lengths), 2 * dims.h_enc))
    d_att = rng.normal(size=(sum(lengths), dims.d_att))

    attended, cache = _attend(params, enc, packing)
    ref, ref_cache = row_loops.attend(params, enc, packing)
    np.testing.assert_array_equal(attended, ref)
    weights = cache[-1]
    assert [w.shape for w in weights] == [
        (len(list(run)), n, n) for n, run in groupby(packing.lengths)]
    rows = [row for w in weights for row in w]
    assert len(rows) == len(ref_cache[-1])
    for row, ref_row in zip(rows, ref_cache[-1]):
        np.testing.assert_array_equal(row, ref_row)

    grads = per_sentence.zero_grad_blocks(params)
    ref_grads = per_sentence.zero_grad_blocks(params)
    np.testing.assert_array_equal(
        _attend_backward(params, cache, d_att, grads),
        row_loops.attend_backward(params, ref_cache, d_att, ref_grads))
    for name in ("attn_q", "attn_k", "attn_v"):
        np.testing.assert_array_equal(grads[name], ref_grads[name],
                                      err_msg=name)


def _assert_frozen_core_equal(pairs, params, tokens, tags, lengths):
    loss, grads = batch_loss_and_grads(params, tokens, tags, lengths)
    ref_loss, ref_grads = _run_frozen(pairs, batch_loss_and_grads, params,
                                      tokens, tags, lengths)
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        np.testing.assert_array_equal(grads[name], ref, err_msg=name)


@pytest.mark.parametrize("pairs", [("encode",), ("attend",),
                                   ("encode", "attend")])
def test_criterion_2_batch_bit_identical_to_frozen_core(pairs):
    # the gradient suite's batch: token 2 appears twice
    params = init_model(10, TINY, np.random.default_rng(6))
    tokens = np.array([2, 3, 4, 5, 2, 6, 7, 8])
    tags = np.array([0, 1, 2, 2, 0, 0, 1, 0])
    _assert_frozen_core_equal(pairs, params, tokens, tags, [5, 3])


def _emissions(params, rows, pairs=(), table=None):
    """predict_tags's paths and every emission matrix it decodes."""
    seen = []
    viterbi = crf.crf_viterbi

    def recording(emissions, *args):
        seen.append(emissions)
        return viterbi(emissions, *args)
    with mock.patch.object(crf, "crf_viterbi", recording):
        paths = _run_frozen(pairs, predict_tags, params, rows, table)
    return paths, seen


def _sentences_of(rows, rng):
    return [(row, as_bio(rng.integers(0, 3, size=len(row)))) for row in rows]


@settings(max_examples=60, deadline=None)
@given(lengths=LENGTHS, tokens=st.integers(2, VOCAB - 1),
       dims=st.sampled_from([TINY, WIDE]), seed=st.integers(0, 2 ** 16))
def test_batches_bit_identical_to_frozen_core(lengths, tokens, dims, seed):
    # tokens: how many distinct indices, pad aside, the batch draws from
    rng = np.random.default_rng(seed)
    params = init_model(VOCAB, dims, rng)
    pool = rng.choice(np.arange(1, VOCAB), size=tokens, replace=False)
    rows = [rng.choice(pool, size=n) for n in lengths]
    # one distinct token at several positions is projected by numpy's
    # one-row product, which may round differently from a matrix product
    assume(len(set(np.concatenate(rows).tolist())) > 1 or sum(lengths) == 1)
    pairs = ("encode", "attend")
    _assert_frozen_core_equal(pairs, params,
                              *_laid_out(_sentences_of(rows, rng)))
    paths, emissions = _emissions(params, rows)
    ref_paths, ref_emissions = _emissions(params, rows, pairs)
    assert paths == ref_paths
    assert len(emissions) == len(ref_emissions) == 1
    np.testing.assert_array_equal(emissions[0], ref_emissions[0])


@pytest.mark.parametrize("token", [UNK_INDEX, 5])
@pytest.mark.parametrize("n", [1, 2, 9, 30])
def test_row_of_one_repeated_token(token, n):
    params = _model(n + token, True)
    row = np.full(n, token)
    assert predict_tags(params, [row]) == [per_sentence.predict_tags(params,
                                                                      row)]


@settings(max_examples=80, deadline=None)
@given(others=st.sets(st.integers(2, VOCAB - 1), max_size=2),
       lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 16))
def test_rows_of_few_distinct_tokens(others, lengths, seed):
    # every row drawn from UNK and at most two other indices
    rng = np.random.default_rng(seed)
    params = _model(seed, True)
    rows = [rng.choice([UNK_INDEX, *sorted(others)], size=n) for n in lengths]
    sentences = _sentences_of(rows, rng)
    assert predict_tags(params, rows) == [
        per_sentence.predict_tags(params, row) for row in rows]
    loss, grads = batch_loss_and_grads(params, *_laid_out(sentences))
    ref_loss = 0.0
    ref_grads = per_sentence.zero_grad_blocks(params)
    for row, tags in sentences:
        l, g = per_sentence.sentence_loss_and_grads(params, row, tags)
        ref_loss += l
        for name in ref_grads:
            ref_grads[name] += g[name]
    _assert_close(loss, ref_loss, "loss")
    for name, ref in ref_grads.items():
        _assert_close(grads[name], ref, name)


@pytest.mark.parametrize("token", [UNK_INDEX, 7])
def test_window_of_one_word(token):
    # more rows than three decode chunks, every token the same word: each
    # chunk projects one distinct token
    rng = np.random.default_rng(token)
    params = _model(token, True)
    lengths = rng.integers(1, 13, size=3 * DECODE_CHUNK + 5).tolist()
    by_length = {n: per_sentence.predict_tags(params, np.full(n, token))
                 for n in set(lengths)}
    assert (predict_tags(params, [np.full(n, token) for n in lengths])
            == [by_length[n] for n in lengths])


# ----------------------------------------- one input table across calls

@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 8), min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_shared_table_decodes_as_fresh_tables(lengths, seed, data):
    # the rows in a random order, split over up to four calls (some may be
    # empty) that share one table
    rng = np.random.default_rng(seed)
    params = _model(seed, True)
    rows = [rng.integers(1, VOCAB, size=n) for n in lengths]
    order = data.draw(st.permutations(range(len(rows))))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    table = InputTable(params)
    paths = [None] * len(rows)
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        call = [rows[i] for i in order[lo:hi]]
        shared, emissions = _emissions(params, call, table=table)
        fresh, ref_emissions = _emissions(params, call)
        assert shared == fresh
        assert len(emissions) == len(ref_emissions)
        for got, ref in zip(emissions, ref_emissions):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        for i, path in zip(order[lo:hi], shared):
            paths[i] = path
    assert paths == predict_tags(params, rows)
    assert paths == [per_sentence.predict_tags(params, row) for row in rows]
    assert table.filled.nonzero()[0].tolist() == sorted(
        set(np.concatenate(rows).tolist()))


def _gemm_rows(table):
    """The row count of each matrix product table.fill runs from now on."""
    counts = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                counts.append(len(inputs[0]))
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)
    table.embedding = table.embedding.view(Counting)
    return counts


def test_table_projects_only_new_words():
    params = _model(3, True)
    table = InputTable(params)
    counts = _gemm_rows(table)
    calls = [[np.array([2, 3, 2]), np.array([4])],
             [np.array([3, 5, 6, 5]), np.array([2])],  # 5 and 6 are new
             [np.array([6, 4]), np.array([2, 3, 5])]]  # none is new
    for call, want in zip(calls, [[3], [3, 2], [3, 2]]):
        assert predict_tags(params, call, table) == predict_tags(params, call)
        assert counts == want
    assert table.filled.nonzero()[0].tolist() == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("dims", [TINY, WIDE])
def test_filled_row_is_each_directions_projection(dims):
    params = init_model(VOCAB, dims, np.random.default_rng(8))
    p = params.blocks
    table = InputTable(params)
    table.fill(np.array([5, UNK_INDEX, 5, 9]))
    table.fill(np.array([9, 10]))
    four_h = 4 * dims.h_enc
    for word in (UNK_INDEX, 5, 9, 10):
        x = p["embedding"][word]
        for cell, cols in (("enc_fwd", slice(None, four_h)),
                           ("enc_bwd", slice(four_h, None))):
            np.testing.assert_allclose(
                table.rows[word, cols], x @ p[f"{cell}.w_in"].T + p[f"{cell}.b"],
                rtol=0, atol=1e-12, err_msg=cell)
    assert table.filled.nonzero()[0].tolist() == [UNK_INDEX, 5, 9, 10]
