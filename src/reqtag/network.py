"""The five-layer tagging model and its hand-derived backward pass.

Layers: embedding lookup -> BiLSTM encoder -> single-head scaled
dot-product self-attention -> LSTM decoder fed the attended state and
the previous tag's embedding -> linear emission projection -> linear
chain CRF.

A batch is packed before any layer runs (see Packing): rows are
stable-sorted longest first and their N real positions become (N, ...)
arrays grouped by time step, so the rows still running at step t are
the first n_t rows of step t-1. The LSTMs and the CRF advance only the
n_t running rows at each step, and every weight-gradient GEMM covers
the N rows once. The encoder projects each distinct token of the batch
once per direction and gathers the projections to its positions; its
backward direction reads each row mirrored through a gather index.
Attention confines each row to its own positions, and the rows of one
length, adjacent in rank order, attend as one stacked product. Training
calls batch_loss_and_grads once per right-padded batch, whose pads are
dropped at the gather and never computed. predict_batch ranks any
number of rows by length and runs the same layers, keeping no backward
caches, and one packed Viterbi per DECODE_CHUNK ranked rows; paths come
back in input order, and predict_tags is its B = 1 case.

A call of two or more chunks decodes them on a thread pool of up to one
thread per CPU, so memory is bounded by that many chunks, with OpenBLAS
held to one thread meanwhile: numpy releases the GIL inside BLAS calls,
and one BLAS thread per chunk keeps the threads from contending. Scores
in such a call therefore round as at one BLAS thread and may differ from
a one-chunk call in the last bits; each chunk runs whole on one thread,
so the result does not depend on scheduling. Without OpenBLAS the chunks
run one after another in the calling thread.
"""

import ctypes
import functools
import json
import os
import threading
import zipfile
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields
from itertools import groupby, islice

import numpy as np

from . import crf
from .embeddings import (EmbeddingTable, PAD_INDEX, UNK_INDEX, Vocabulary,
                         random_embeddings)
from .lstm import (LstmCellParams, init_lstm, lstm_backward, lstm_forward,
                   lstm_states, lstm_step)
from .tensor import ShapeError, previous_rows, softmax_rows

CHECKPOINT_VERSION = 2
DECODE_CHUNK = 64
# added to the greedy decoder's tag scores after each fed tag (rows by
# crf state): I is legal only after B or I
_FEED_MASK = np.zeros((crf.N_STATES, 3))
_FEED_MASK[[crf.START, crf.O], crf.I] = -np.inf
# what numpy and zipfile raise on a damaged archive or entry
_DAMAGED = (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile)


@dataclass
class ModelDims:
    embedding_dim: int = 300
    h_enc: int = 128
    d_att: int = 256
    h_dec: int = 256
    d_tag: int = 25


@dataclass
class ModelParams:
    embedding: EmbeddingTable
    enc_fwd: LstmCellParams
    enc_bwd: LstmCellParams
    attn_q: np.ndarray       # (d_att, 2*h_enc)
    attn_k: np.ndarray
    attn_v: np.ndarray
    tag_embedding: np.ndarray  # (5, d_tag), rows indexed by crf state
    dec: LstmCellParams
    emission_w: np.ndarray   # (3, h_dec)
    emission_b: np.ndarray   # (3,)
    transitions: np.ndarray  # (5, 5)
    dims: ModelDims = field(default_factory=ModelDims)


def init_model(vocab_size: int, dims: ModelDims, rng: np.random.Generator,
               embedding: EmbeddingTable | None = None) -> ModelParams:
    if embedding is None:
        embedding = random_embeddings(vocab_size, dims.embedding_dim, rng)
    if embedding.matrix.shape[1] != dims.embedding_dim:
        raise ShapeError(
            f"embedding dim {embedding.matrix.shape[1]} != configured {dims.embedding_dim}")
    two_h = 2 * dims.h_enc
    ka = 1.0 / np.sqrt(two_h)
    kt = 1.0 / np.sqrt(dims.d_tag)
    ke = 1.0 / np.sqrt(dims.h_dec)
    return ModelParams(
        embedding=embedding,
        enc_fwd=init_lstm(dims.embedding_dim, dims.h_enc, rng),
        enc_bwd=init_lstm(dims.embedding_dim, dims.h_enc, rng),
        attn_q=rng.uniform(-ka, ka, size=(dims.d_att, two_h)),
        attn_k=rng.uniform(-ka, ka, size=(dims.d_att, two_h)),
        attn_v=rng.uniform(-ka, ka, size=(dims.d_att, two_h)),
        tag_embedding=rng.uniform(-kt, kt, size=(crf.N_STATES, dims.d_tag)),
        dec=init_lstm(dims.d_att + dims.d_tag, dims.h_dec, rng),
        emission_w=rng.uniform(-ke, ke, size=(3, dims.h_dec)),
        emission_b=rng.uniform(-ke, ke, size=3),
        transitions=crf.init_transitions(),
        dims=dims,
    )


# parameter blocks exposed to the optimizer / gradient checker
def param_blocks(params: ModelParams) -> dict:
    blocks = {}
    if params.embedding.trainable:
        blocks["embedding"] = params.embedding.matrix
    for name, cell in (("enc_fwd", params.enc_fwd), ("enc_bwd", params.enc_bwd),
                       ("dec", params.dec)):
        blocks[f"{name}.w_in"] = cell.w_in
        blocks[f"{name}.w_h"] = cell.w_h
        blocks[f"{name}.b"] = cell.b
    blocks["attn_q"] = params.attn_q
    blocks["attn_k"] = params.attn_k
    blocks["attn_v"] = params.attn_v
    blocks["tag_embedding"] = params.tag_embedding
    blocks["emission_w"] = params.emission_w
    blocks["emission_b"] = params.emission_b
    blocks["transitions"] = params.transitions
    return blocks


def zero_grad_blocks(params: ModelParams) -> dict:
    return {name: np.zeros_like(arr)
            for name, arr in param_blocks(params).items()}


# ---------------------------------------------------------------- packing

@dataclass(frozen=True)
class Packing:
    """Where the real positions of a batch of rows go.

    Packed position p belongs to input row rows[p] and is position src[p]
    of the input rows laid end to end in input order. Rows are ranked
    longest first (a stable sort), and the sizes[t] positions of step t
    follow those of step t-1 in rank order, so the rows running at step t
    are the first sizes[t] of step t-1.
    """
    rows: np.ndarray    # (N,) input row of each position
    src: np.ndarray     # (N,) position in the concatenated input rows
    sizes: list         # rows running at each step
    rev: np.ndarray     # (N,) position of the same row's mirrored step
    by_row: np.ndarray  # (N,) positions rank by rank, each in step order
    lengths: list       # row lengths in rank order

    def gather(self, flat):
        """The (N, ...) packed positions of the input rows' concatenation."""
        return np.asarray(flat)[self.src]


def _pack(lengths) -> Packing:
    """Packing of a batch of rows holding lengths[b] >= 1 tokens each."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or not len(lengths) or lengths.min() < 1:
        raise ValueError(f"row lengths {lengths.tolist()} are not a batch "
                         f"of non-empty rows")
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    live = np.arange(ranked[0]) < ranked[:, None]  # (rank, step)
    steps, rank = np.nonzero(live.T)
    pos = np.zeros(live.shape, dtype=np.int64)
    pos.T[live.T] = np.arange(len(steps))
    rows = order[rank]
    return Packing(rows=rows,
                   src=(np.cumsum(lengths) - lengths)[rows] + steps,
                   sizes=live.sum(axis=0).tolist(),
                   rev=pos[rank, ranked[rank] - 1 - steps],
                   by_row=pos[live], lengths=ranked.tolist())


def _add_cell_grads(grads, prefix, g: LstmCellParams):
    grads[f"{prefix}.w_in"] += g.w_in
    grads[f"{prefix}.w_h"] += g.w_h
    grads[f"{prefix}.b"] += g.b


# ---------------------------------------------------------------- encoder

def _encode(params: ModelParams, tokens, packing: Packing, run):
    """BiLSTM over a batch's (N,) packed token indices; returns
    (enc (N, 2H), cache). run(cell, pre, sizes) is the recurrence of
    each direction: lstm_forward where a backward pass follows,
    lstm_states where none does.

    Each distinct token is projected once per direction and gathered to
    its positions. The backward direction reads each row mirrored,
    through packing.rev, an index that is its own inverse."""
    uniq, inv = np.unique(tokens, return_inverse=True)
    xu = params.embedding.matrix[uniq]
    fwd = run(params.enc_fwd, (xu @ params.enc_fwd.w_in.T
                               + params.enc_fwd.b)[inv], packing.sizes)
    bwd = run(params.enc_bwd, (xu @ params.enc_bwd.w_in.T
                               + params.enc_bwd.b)[inv[packing.rev]],
              packing.sizes)
    enc = np.concatenate([fwd[0], bwd[0][packing.rev]], axis=1)
    return enc, (tokens, packing, xu, inv, fwd, bwd)


def _encode_backward(params: ModelParams, enc_cache, d_enc, grads):
    """BPTT through both encoder directions; fills embedding grads."""
    tokens, packing, xu, inv, fwd, bwd = enc_cache
    x = xu[inv]
    x_rev = x[packing.rev]
    h_enc = params.dims.h_enc
    d_x, g = lstm_backward(params.enc_fwd, x, *fwd, d_enc[:, :h_enc],
                           packing.sizes)
    _add_cell_grads(grads, "enc_fwd", g)
    d_x_rev, g = lstm_backward(params.enc_bwd, x_rev, *bwd,
                               d_enc[packing.rev, h_enc:], packing.sizes)
    _add_cell_grads(grads, "enc_bwd", g)
    if params.embedding.trainable:
        real = tokens != PAD_INDEX
        np.add.at(grads["embedding"], tokens[real],
                  (d_x + d_x_rev[packing.rev])[real])


# -------------------------------------------------------------- attention

def _length_runs(lengths, *arrays):
    """For each run of k rows of one length n in lengths, ranked longest
    first: a (k, n, ...) view of each rank-major array's rows of the run."""
    start = 0
    for n, run in groupby(lengths):
        stop = start + len(list(run)) * n
        yield [a[start:stop].reshape(-1, n, a.shape[1]) for a in arrays]
        start = stop


def _attend(params: ModelParams, enc, packing: Packing):
    """Scaled dot-product self-attention of each row over its own
    positions, on a rank-major copy of enc. The k rows of each run of one
    length n attend as stacked (k, n, .) products; the cache keeps each
    run's (k, n, n) weights."""
    scale = 1.0 / np.sqrt(params.dims.d_att)
    x = enc[packing.by_row]
    q = x @ params.attn_q.T
    k = x @ params.attn_k.T
    v = x @ params.attn_v.T
    out = np.empty_like(v)
    weights = []
    for q_r, k_r, v_r, out_r in _length_runs(packing.lengths, q, k, v, out):
        w = softmax_rows((q_r @ k_r.transpose(0, 2, 1)) * scale)
        out_r[...] = w @ v_r
        weights.append(w)
    attended = np.empty_like(out)
    attended[packing.by_row] = out
    return attended, (packing, x, q, k, v, weights)


def _attend_backward(params: ModelParams, att_cache, d_att, grads):
    packing, x, q, k, v, weights = att_cache
    scale = 1.0 / np.sqrt(params.dims.d_att)
    d_out = d_att[packing.by_row]
    d_q = np.empty_like(q)
    d_k = np.empty_like(k)
    d_v = np.empty_like(v)
    runs = _length_runs(packing.lengths, q, k, v, d_out, d_q, d_k, d_v)
    for w, (q_r, k_r, v_r, d_out_r, d_q_r, d_k_r, d_v_r) in zip(weights, runs):
        d_w = d_out_r @ v_r.transpose(0, 2, 1)
        d_v_r[...] = w.transpose(0, 2, 1) @ d_out_r
        d_scores = (d_w - (d_w * w).sum(axis=-1, keepdims=True)) * w
        d_q_r[...] = (d_scores @ k_r) * scale
        d_k_r[...] = (d_scores.transpose(0, 2, 1) @ q_r) * scale
    grads["attn_q"] += d_q.T @ x
    grads["attn_k"] += d_k.T @ x
    grads["attn_v"] += d_v.T @ x
    d_enc = np.empty_like(x)
    d_enc[packing.by_row] = (d_q @ params.attn_q + d_k @ params.attn_k
                             + d_v @ params.attn_v)
    return d_enc


# ---------------------------------------------------------------- decoder

def _decoder_inputs(params: ModelParams, attended):
    """The decoder's input projection in two parts: one row per position
    for the attended states, one row per tag (bias included) for the fed
    tag. Training and inference both sum the same two parts, so they
    agree bit for bit."""
    d_att = params.dims.d_att
    w = params.dec.w_in
    return (attended @ w[:, :d_att].T,
            params.tag_embedding @ w[:, d_att:].T + params.dec.b)


def _emissions(params: ModelParams, hs):
    return hs @ params.emission_w.T + params.emission_b


def _decode_training(params: ModelParams, attended, gold, packing: Packing):
    """Teacher-forced decoder over packed (N,) gold tags: step t is fed
    gold tag t-1 (START at t=0)."""
    gold = np.asarray(gold)
    if not np.isin(gold, (crf.O, crf.B, crf.I)).all():
        raise ValueError(f"invalid gold tag index in {gold.tolist()}")
    prev = np.concatenate([np.full(packing.sizes[0], crf.START),
                           gold[previous_rows(packing.sizes)]])
    from_att, from_tag = _decoder_inputs(params, attended)
    hs, caches = lstm_forward(params.dec, from_att + from_tag[prev],
                              packing.sizes)
    x = np.concatenate([attended, params.tag_embedding[prev]], axis=1)
    return _emissions(params, hs), (x, hs, caches, prev, packing.sizes)


def _decode_inference(params: ModelParams, attended, packing: Packing):
    """Decoder fed its own greedy tag: the best legal tag of the step before.

    I is legal only after B or I. argmax takes the first maximum, so ties
    go to the lower tag. Returns (emissions (N, 3), fed tags (N,)).
    """
    sizes = packing.sizes
    from_att, from_tag = _decoder_inputs(params, attended)
    h = np.zeros((sizes[0], params.dims.h_dec))
    c = np.zeros((sizes[0], params.dims.h_dec))
    hs = np.empty((len(attended), params.dims.h_dec))
    fed = np.empty(len(attended), dtype=np.int64)
    feed_bias = params.emission_b + _FEED_MASK
    prev = np.full(sizes[0], crf.START)
    start = 0
    for n in sizes:
        step = slice(start, start + n)
        prev = prev[:n]
        fed[step] = prev
        h, c, _ = lstm_step(params.dec, from_att[step] + from_tag[prev],
                            h[:n], c[:n])
        hs[step] = h
        prev = np.argmax(h @ params.emission_w.T + feed_bias[prev], axis=1)
        start += n
    return _emissions(params, hs), fed


def _decode_backward(params: ModelParams, dec_cache, d_emissions, grads):
    x, hs, caches, prev, sizes = dec_cache
    d_att = params.dims.d_att
    grads["emission_w"] += d_emissions.T @ hs
    grads["emission_b"] += d_emissions.sum(axis=0)
    d_x, g = lstm_backward(params.dec, x, hs, caches,
                           d_emissions @ params.emission_w, sizes)
    _add_cell_grads(grads, "dec", g)
    np.add.at(grads["tag_embedding"], prev, d_x[:, d_att:])
    return d_x[:, :d_att]


# ------------------------------------------------------------ entry points

def batch_loss_and_grads(params: ModelParams, indices, tags, lengths):
    """Summed CRF NLL of a right-padded (B, T) batch, and its gradient for
    every trainable block as one name -> array dict."""
    indices = np.asarray(indices)
    lengths = np.asarray(lengths)
    if lengths.shape != indices.shape[:1] or lengths.max() > indices.shape[1]:
        raise ValueError(f"lengths {lengths.tolist()} do not fit a padded "
                         f"batch of shape {indices.shape}")
    packing = _pack(lengths)
    real = np.arange(indices.shape[1]) < lengths[:, None]
    gold = packing.gather(np.asarray(tags)[real])
    grads = zero_grad_blocks(params)
    enc, enc_cache = _encode(params, packing.gather(indices[real]), packing,
                             lstm_forward)
    attended, att_cache = _attend(params, enc, packing)
    emissions, dec_cache = _decode_training(params, attended, gold, packing)
    loss, d_emissions, d_t = crf.crf_nll_backward(
        emissions, params.transitions, gold, packing.sizes)
    grads["transitions"] += d_t
    d_attended = _decode_backward(params, dec_cache, d_emissions, grads)
    d_enc = _attend_backward(params, att_cache, d_attended, grads)
    _encode_backward(params, enc_cache, d_enc, grads)
    return loss, grads


def _decode_chunk(params: ModelParams, rows):
    """Viterbi paths of rows already ranked longest first, in that order
    (the stable sort in _pack keeps it)."""
    packing = _pack([len(row) for row in rows])
    enc = _encode(params, packing.gather(np.concatenate(rows)), packing,
                  lstm_states)[0]
    attended = _attend(params, enc, packing)[0]
    emissions, _ = _decode_inference(params, attended, packing)
    tags, _ = crf.crf_viterbi(emissions, params.transitions, packing.sizes)
    tags = iter(tags[packing.by_row].tolist())
    return [list(islice(tags, n)) for n in packing.lengths]


_BLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                        "openblas_{}_num_threads64_", "openblas_{}_num_threads")
_blas_lock = threading.Lock()  # one multi-chunk call at a time holds BLAS
_pool = None


@functools.cache
def _blas_thread_setter():
    """(get, set) of the loaded OpenBLAS's thread count, found once through
    ctypes in the libraries mapped into this process; None without one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _BLAS_THREAD_SYMBOLS:
            get = getattr(lib, sym.format("get"), None)
            set_ = getattr(lib, sym.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _decode_on_pool(decode, chunks, blas):
    """decode(chunk) for each chunk on the module's thread pool, with
    OpenBLAS at one thread until every chunk has finished or one raised."""
    global _pool
    get, set_ = blas
    with _blas_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(len(os.sched_getaffinity(0)),
                                       thread_name_prefix="reqtag-decode")
        before = get()
        set_(1)
        try:
            futures = [_pool.submit(decode, chunk) for chunk in chunks]
            wait(futures, return_when=FIRST_EXCEPTION)
            for future in futures:
                future.cancel()
            wait(futures)
        finally:
            set_(before)
    return [future.result() for future in futures]


def predict_batch(params: ModelParams, rows):
    """Viterbi-decoded BIO tag indices for each of a list of non-empty
    1-D token index rows, in input order. Rows are ranked longest first
    and decoded DECODE_CHUNK ranked rows per pass; two or more passes run
    on up to one thread per CPU (memory: that many passes), one runs in
    the calling thread."""
    ranked = sorted(range(len(rows)), key=lambda i: -len(rows[i]))
    chunks = [ranked[lo:lo + DECODE_CHUNK]
              for lo in range(0, len(ranked), DECODE_CHUNK)]

    def decode(chunk):
        return _decode_chunk(params, [rows[i] for i in chunk])

    blas = _blas_thread_setter() if len(chunks) > 1 else None
    decoded = (map(decode, chunks) if blas is None
               else _decode_on_pool(decode, chunks, blas))
    paths = [None] * len(rows)
    for chunk, chunk_paths in zip(chunks, decoded):
        for i, path in zip(chunk, chunk_paths):
            paths[i] = path
    return paths


def predict_tags(params: ModelParams, indices):
    """Viterbi-decoded BIO tag indices for one sentence."""
    if len(indices) == 0:
        return []
    return predict_batch(params, [indices])[0]


# ------------------------------------------------------------- checkpoint

def _checkpoint_arrays(params: ModelParams) -> dict:
    """Every array a checkpoint holds; the embedding even when frozen."""
    return {**param_blocks(params), "embedding": params.embedding.matrix}


def save_checkpoint(path, params: ModelParams, vocab: Vocabulary,
                    extra_config: dict | None = None):
    """Uncompressed .npz: one entry per parameter block plus a JSON header."""
    header = json.dumps({
        "version": CHECKPOINT_VERSION,
        "dims": vars(params.dims),
        "embedding_trainable": params.embedding.trainable,
        "vocab": vocab.index_to_token,
        "config": extra_config or {},
    })
    # a file object, because np.savez appends ".npz" to a path without it
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(header), **_checkpoint_arrays(params))


class _ZeroDraws:
    """Stands in for the init generator: every block starts as zeros."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


def _entry(npz, path, name):
    try:
        return npz[name]
    except KeyError:
        raise ValueError(f"{path}: checkpoint has no {name!r} entry") from None
    except _DAMAGED + (OSError,) as exc:  # OSError: a bad member offset
        raise ValueError(f"{path}: entry {name!r} is unreadable: {exc}") from None


_HEADER_CHECKS = {
    "dims": lambda d: (isinstance(d, dict)
                       and set(d) == {f.name for f in fields(ModelDims)}
                       and all(type(v) is int and v > 0 for v in d.values())),
    "vocab": lambda v: (isinstance(v, list) and len(v) > UNK_INDEX
                        and all(isinstance(t, str) for t in v)),
    "embedding_trainable": lambda b: isinstance(b, bool),
    "config": lambda c: isinstance(c, dict),
}


def _read_header(npz, path) -> dict:
    raw = _entry(npz, path, "header")
    if raw.ndim != 0 or raw.dtype.kind != "U":
        raise ValueError(f"{path}: header is not a string")
    try:
        header = json.loads(raw.item())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version "
                         f"{header.get('version')!r}, expected {CHECKPOINT_VERSION}")
    for key, ok in _HEADER_CHECKS.items():
        if not ok(header.get(key)):
            raise ValueError(f"{path}: bad header field {key!r}")
    return header


def _archive(fh, path):
    """The .npz archive in an open binary file; ValueError if it is none."""
    try:
        npz = np.load(fh, allow_pickle=False)
    except _DAMAGED:
        npz = None  # not a zip: pickle refused, empty or truncated file
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not an .npz archive; checkpoints are version "
                         f"{CHECKPOINT_VERSION} .npz files (JSON checkpoints "
                         f"from version 1 no longer load)")
    return npz


def load_checkpoint(path):
    """Returns (params, vocab, config); a malformed file raises ValueError."""
    # np.load is given a file object so that the file is closed also when
    # the archive turns out to be damaged
    with open(path, "rb") as fh, _archive(fh, path) as npz:
        header = _read_header(npz, path)
        index_to_token = header["vocab"]
        params = init_model(len(index_to_token), ModelDims(**header["dims"]),
                            _ZeroDraws())
        params.embedding.trainable = header["embedding_trainable"]
        for name, skeleton in _checkpoint_arrays(params).items():
            arr = _entry(npz, path, name)
            if arr.shape != skeleton.shape or arr.dtype != skeleton.dtype:
                raise ValueError(
                    f"{path}: block {name!r} is {arr.dtype} {arr.shape}, "
                    f"expected {skeleton.dtype} {skeleton.shape}")
            skeleton[...] = arr
    vocab = Vocabulary(
        token_to_index={t: i for i, t in enumerate(index_to_token)},
        index_to_token=list(index_to_token))
    return params, vocab, header["config"]
