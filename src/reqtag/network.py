"""The five-layer tagging model and its hand-derived backward pass.

Layers: embedding lookup -> BiLSTM encoder -> single-head scaled
dot-product self-attention -> LSTM decoder fed the attended state and
the previous tag's embedding -> linear emission projection -> linear
chain CRF.

A batch is packed before any layer runs: its N real positions become
(N, ...) arrays in the layout that Packing describes, with every index
the layers read. The LSTMs and the CRF advance only the rows running at
each step, and every weight-gradient GEMM covers the N rows once. The
encoder gathers each position's input projections, both directions side
by side, from an InputTable, which projects each word once; its
backward direction reads each row mirrored through a gather index.
Attention confines each row to its own positions, and the rows of one
length, adjacent in rank order, attend as one stacked product. Training
calls batch_loss_and_grads once per batch, with the token and tag
indices of its rows laid end to end, the layout that Packing.src
indexes; nothing is padded, and each batch fills a new table.
predict_tags ranks any number of rows by length and runs the same
layers, keeping no backward caches, and one packed Viterbi per
DECODE_CHUNK ranked rows; paths come back in input order. A table kept
across its calls projects only the words no earlier call held.

_thread_map decodes a call's two or more chunks on up to one thread per
CPU, started by that call and joined before it returns or raises, so
memory is bounded by that many chunks and no decode thread outlives a
call. OpenBLAS is held to one thread meanwhile: numpy releases the GIL
inside BLAS calls, and one BLAS thread per chunk keeps the threads from
contending. Scores in such a call therefore round as at one BLAS thread
and may differ from a one-chunk call in the last bits; each chunk runs
whole on one thread, so the result does not depend on scheduling.
Without OpenBLAS the chunks run one after another in the calling thread.
"""

import ctypes
import functools
import json
import os
import threading
import zipfile
from dataclasses import dataclass, fields
from itertools import groupby

import numpy as np

from . import crf
from .data import DataError, naming
from .embeddings import (PAD_TOKEN, UNK_TOKEN, Vocabulary, build_vocabulary,
                         random_embeddings)
from .lstm import lstm_backward, lstm_forward, lstm_step

CHECKPOINT_VERSION = 2
DECODE_CHUNK = 64
# added to the greedy decoder's tag scores after each fed tag (rows by
# crf state): the CRF's forbidden transitions, so I follows only B or I
_FEED_MASK = np.where(crf.forbidden_mask()[:, :crf.N_TAGS], -np.inf, 0.0)
# what numpy and zipfile raise on a damaged archive or entry
_DAMAGED = (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile)


@dataclass
class ModelDims:
    embedding_dim: int
    h_enc: int
    d_att: int
    h_dec: int
    d_tag: int


# Every parameter block, listed only here: name -> shape for the dims d
# and n vocabulary words. The blocks go in this order wherever they go
# (clip_gradients sums their norms in it); a checkpoint entry is named
# after its block. An LSTM cell is the blocks <cell>.w_in, .w_h and .b.
BLOCKS = {
    "embedding": lambda d, n: (n, d.embedding_dim),
    "enc_fwd.w_in": lambda d, n: (4 * d.h_enc, d.embedding_dim),
    "enc_fwd.w_h": lambda d, n: (4 * d.h_enc, d.h_enc),
    "enc_fwd.b": lambda d, n: (4 * d.h_enc,),
    "enc_bwd.w_in": lambda d, n: (4 * d.h_enc, d.embedding_dim),
    "enc_bwd.w_h": lambda d, n: (4 * d.h_enc, d.h_enc),
    "enc_bwd.b": lambda d, n: (4 * d.h_enc,),
    "dec.w_in": lambda d, n: (4 * d.h_dec, d.d_att + d.d_tag),
    "dec.w_h": lambda d, n: (4 * d.h_dec, d.h_dec),
    "dec.b": lambda d, n: (4 * d.h_dec,),
    "attn_q": lambda d, n: (d.d_att, 2 * d.h_enc),
    "attn_k": lambda d, n: (d.d_att, 2 * d.h_enc),
    "attn_v": lambda d, n: (d.d_att, 2 * d.h_enc),
    "tag_embedding": lambda d, n: (crf.N_STATES, d.d_tag),  # rows by crf state
    "emission_w": lambda d, n: (crf.N_TAGS, d.h_dec),
    "emission_b": lambda d, n: (crf.N_TAGS,),
    "transitions": lambda d, n: (crf.N_STATES, crf.N_STATES),
}


@dataclass
class ModelParams:
    blocks: dict  # name -> array for each name of BLOCKS, in its order
    dims: ModelDims
    embedding_trainable: bool


def init_model(vocab_size: int, dims: ModelDims, rng: "np.random.Generator",
               trainable: bool = True) -> ModelParams:
    """A new model: random_embeddings' table, drawn first, the transitions
    of crf.init_transitions(), and each other block drawn uniform(-k, k),
    k = 1/sqrt(fan), group by group in the order below (not BLOCKS', so
    that a seed keeps its model); forget-gate biases then 1.0."""
    embedding = random_embeddings(vocab_size, dims.embedding_dim, rng)
    blocks = {"embedding": embedding, "transitions": crf.init_transitions()}
    two_h = 2 * dims.h_enc
    for group, fan in (("enc_fwd", dims.h_enc), ("enc_bwd", dims.h_enc),
                       ("attn_q", two_h), ("attn_k", two_h), ("attn_v", two_h),
                       ("tag_embedding", dims.d_tag), ("dec", dims.h_dec),
                       ("emission_w", dims.h_dec), ("emission_b", dims.h_dec)):
        k = 1.0 / np.sqrt(fan)
        for name, shape in BLOCKS.items():
            if name.partition(".")[0] == group:
                blocks[name] = rng.uniform(-k, k, size=shape(dims, vocab_size))
                if name.endswith(".b"):  # fan is the cell's hidden size
                    blocks[name][fan:2 * fan] = 1.0
    return ModelParams({name: blocks[name] for name in BLOCKS}, dims, trainable)


def param_blocks(params: ModelParams) -> dict:
    """What the optimizer steps: the blocks but a frozen embedding, in order."""
    return {name: params.blocks[name] for name in BLOCKS
            if name != "embedding" or params.embedding_trainable}


def zero_grad_blocks(params: ModelParams) -> dict:
    return {name: np.zeros_like(arr)
            for name, arr in param_blocks(params).items()}


# ---------------------------------------------------------------- packing

@dataclass(frozen=True)
class Packing:
    """Where the real positions of a batch of rows go.

    Packed position p is position src[p] of the input rows laid end to
    end in input order. Rows are ranked longest first (a stable sort).
    Step t holds positions starts[t]:starts[t + 1]: the first sizes[t]
    rows of step t-1, in rank order. The layers read every index and
    step bound of this layout from here.
    """
    src: np.ndarray     # (N,) position in the concatenated input rows
    sizes: list         # rows running at each step
    starts: list        # (T + 1) step bounds: [0, *cumsum(sizes)]
    rev: np.ndarray     # (N,) position of the same row's mirrored step
    by_row: np.ndarray  # (N,) positions rank by rank, each in step order
    lengths: list       # row lengths in rank order
    rank: np.ndarray    # (N,) rank of each position's row
    prev: np.ndarray    # (N - B,) same row's position a step back, steps >= 1
    last: np.ndarray    # (B,) each rank's final position


def _pack(lengths) -> Packing:
    """Packing of a batch of rows holding lengths[b] >= 1 tokens each."""
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    live = np.arange(ranked[0]) < ranked[:, None]  # (rank, step)
    steps, rank = np.nonzero(live.T)
    pos = np.zeros(live.shape, dtype=np.int64)
    pos.T[live.T] = np.arange(len(steps))
    b = len(ranked)
    sizes = live.sum(axis=0)
    return Packing(src=(np.cumsum(lengths) - lengths)[order[rank]] + steps,
                   sizes=sizes.tolist(), starts=[0, *np.cumsum(sizes).tolist()],
                   rev=pos[rank, ranked[rank] - 1 - steps],
                   by_row=pos[live], lengths=ranked.tolist(), rank=rank,
                   prev=pos[rank[b:], steps[b:] - 1],
                   last=pos[np.arange(b), ranked - 1])


# ---------------------------------------------------------------- encoder

class InputTable:
    """The encoder's input projections of a model's words, both directions
    side by side: rows[w] is embedding[w] @ w_in.T + b for enc_fwd, then
    for enc_bwd, (V, 8 h_enc) in all. A word's row is projected the first
    time fill is given it, so only the pages of filled rows are touched.
    A table is valid only while the model's blocks do not change, and a
    fill must not run beside another fill or a read of the same table."""

    def __init__(self, params: ModelParams):
        p = params.blocks
        self.embedding = p["embedding"]
        self.w = np.concatenate([p["enc_fwd.w_in"], p["enc_bwd.w_in"]])
        self.b = np.concatenate([p["enc_fwd.b"], p["enc_bwd.b"]])
        self.rows = np.empty((len(self.embedding), len(self.b)))
        self.filled = np.zeros(len(self.embedding), dtype=bool)

    def fill(self, tokens):
        """Project the words of tokens not yet filled, in one GEMM."""
        new = np.unique(tokens)
        new = new[~self.filled[new]]
        if len(new):
            self.rows[new] = self.embedding[new] @ self.w.T + self.b
            self.filled[new] = True


def _encode(params: ModelParams, tokens, packing: Packing, keep, table=None):
    """BiLSTM over a batch's (N,) packed token indices; returns
    (enc (N, 2H), cache). keep is true where a backward pass follows:
    only then does the cache hold each direction's step caches.

    Each position's input projections are gathered from table, an
    InputTable filled with every token; without one, a new table is
    filled with tokens. The backward direction reads each row mirrored,
    through packing.rev, an index that is its own inverse."""
    if table is None:
        table = InputTable(params)
        table.fill(tokens)
    p = params.blocks
    four_h = 4 * params.dims.h_enc
    fwd, bwd = ([], []) if keep else (None, None)
    hs_fwd = lstm_forward(p["enc_fwd.w_h"], table.rows[tokens, :four_h],
                          packing, fwd)
    hs_bwd = lstm_forward(p["enc_bwd.w_h"],
                          table.rows[tokens[packing.rev], four_h:], packing, bwd)
    enc = np.concatenate([hs_fwd, hs_bwd[packing.rev]], axis=1)
    return enc, (tokens, packing, (hs_fwd, fwd), (hs_bwd, bwd))


def _encode_backward(params: ModelParams, enc_cache, d_enc, grads):
    """BPTT through both encoder directions; adds each position's input
    gradient to its token's embedding row. No position holds PAD (see
    batch_loss_and_grads), so the pad row gets no gradient."""
    tokens, packing, fwd, bwd = enc_cache
    x = params.blocks["embedding"][tokens]
    x_rev = x[packing.rev]
    h_enc = params.dims.h_enc
    d_x = lstm_backward(params.blocks, grads, "enc_fwd", x, *fwd,
                        d_enc[:, :h_enc], packing)
    d_x_rev = lstm_backward(params.blocks, grads, "enc_bwd", x_rev, *bwd,
                            d_enc[packing.rev, h_enc:], packing)
    if params.embedding_trainable:
        np.add.at(grads["embedding"], tokens, d_x + d_x_rev[packing.rev])


# -------------------------------------------------------------- attention

def _length_runs(lengths, *arrays):
    """For each run of k rows of one length n in lengths, ranked longest
    first: a (k, n, ...) view of each rank-major array's rows of the run."""
    start = 0
    for n, run in groupby(lengths):
        stop = start + len(list(run)) * n
        yield [a[start:stop].reshape(-1, n, a.shape[1]) for a in arrays]
        start = stop


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attend(params: ModelParams, enc, packing: Packing):
    """Scaled dot-product self-attention of each row over its own
    positions, on a rank-major copy of enc. The k rows of each run of one
    length n attend as stacked (k, n, .) products; the cache keeps each
    run's (k, n, n) weights."""
    scale = 1.0 / np.sqrt(params.dims.d_att)
    x = enc[packing.by_row]
    q = x @ params.blocks["attn_q"].T
    k = x @ params.blocks["attn_k"].T
    v = x @ params.blocks["attn_v"].T
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
    p = params.blocks
    d_enc[packing.by_row] = d_q @ p["attn_q"] + d_k @ p["attn_k"] + d_v @ p["attn_v"]
    return d_enc


# ---------------------------------------------------------------- decoder

def _gold_feed(gold, packing: Packing):
    """Training's feed: START, then each row's gold tag a step back."""
    return np.concatenate([np.full(packing.sizes[0], crf.START),
                           gold[packing.prev]])


def _decode_training(params: ModelParams, attended, fed, packing: Packing):
    """Decoder fed fed[p], a crf state, at each packed position p."""
    caches = []
    emissions, fed, hs = _decode_inference(params, attended, packing, fed,
                                           caches)
    x = np.concatenate([attended, params.blocks["tag_embedding"][fed]], axis=1)
    return emissions, (x, hs, caches, fed, packing)


def _decode_inference(params: ModelParams, attended, packing: Packing,
                      fed=None, caches=None):
    """The decoder's one step loop. Given fed, it feeds fed[p], a crf
    state, at each packed position p; else its own greedy tag: the best
    legal tag of the step before. I is legal only after B or I. argmax
    takes the first maximum, so ties go to the lower tag. Each step's
    cache is appended to caches if a list is given. Returns the emissions
    (N, 3), the (N,) tags fed and the hidden states (N, H)."""
    sizes, starts = packing.sizes, packing.starts
    d_att = params.dims.d_att
    p = params.blocks
    # the input projection in two parts: one row per position for the
    # attended states, one row per tag (bias included) for the fed tag
    w = p["dec.w_in"]
    from_att = attended @ w[:, :d_att].T
    from_tag = p["tag_embedding"] @ w[:, d_att:].T + p["dec.b"]
    h = np.zeros((sizes[0], params.dims.h_dec))
    c = np.zeros((sizes[0], params.dims.h_dec))
    hs = np.empty((len(attended), params.dims.h_dec))
    greedy = fed is None
    fed = np.empty(len(attended), dtype=np.int64) if greedy else fed
    feed_bias = p["emission_b"] + _FEED_MASK
    prev = np.full(sizes[0], crf.START)
    for n, lo, hi in zip(sizes, starts, starts[1:]):
        if greedy:
            fed[lo:hi] = prev[:n]
        a_in = from_att[lo:hi] + from_tag[fed[lo:hi]]
        h, c, cache = lstm_step(p["dec.w_h"], a_in, h[:n], c[:n])
        hs[lo:hi] = h
        if caches is not None:
            caches.append(cache)
        if greedy:
            prev = np.argmax(h @ p["emission_w"].T + feed_bias[fed[lo:hi]],
                             axis=1)
    return hs @ p["emission_w"].T + p["emission_b"], fed, hs


def _decode_backward(params: ModelParams, dec_cache, d_emissions, grads):
    x, hs, caches, fed, packing = dec_cache
    d_att = params.dims.d_att
    grads["emission_w"] += d_emissions.T @ hs
    grads["emission_b"] += d_emissions.sum(axis=0)
    d_x = lstm_backward(params.blocks, grads, "dec", x, hs, caches,
                        d_emissions @ params.blocks["emission_w"], packing)
    np.add.at(grads["tag_embedding"], fed, d_x[:, d_att:])
    return d_x[:, :d_att]


# ------------------------------------------------------------ entry points

def batch_loss_and_grads(params: ModelParams, tokens, tags, lengths):
    """Summed CRF NLL of a batch of rows, given as their (N,) token and
    tag index arrays laid end to end and the row lengths, and its
    gradient for every trainable block as one name -> array dict. Every
    token index is a vocabulary word or UNK, never PAD."""
    packing = _pack(lengths)
    gold = tags[packing.src]
    grads = zero_grad_blocks(params)
    enc, enc_cache = _encode(params, tokens[packing.src], packing, keep=True)
    attended, att_cache = _attend(params, enc, packing)
    emissions, dec_cache = _decode_training(params, attended,
                                            _gold_feed(gold, packing), packing)
    loss, d_emissions, d_t = crf.crf_nll_backward(
        emissions, params.blocks["transitions"], gold, packing)
    grads["transitions"] += d_t
    d_attended = _decode_backward(params, dec_cache, d_emissions, grads)
    d_enc = _attend_backward(params, att_cache, d_attended, grads)
    _encode_backward(params, enc_cache, d_enc, grads)
    return loss, grads


def _decode_chunk(params: ModelParams, rows, table):
    """Viterbi paths of rows already ranked longest first, in that order
    (the stable sort in _pack keeps it); table holds their words."""
    packing = _pack([len(row) for row in rows])
    enc = _encode(params, np.concatenate(rows)[packing.src], packing,
                  keep=False, table=table)[0]
    attended = _attend(params, enc, packing)[0]
    emissions = _decode_inference(params, attended, packing)[0]
    return crf.crf_viterbi(emissions, params.blocks["transitions"], packing)


_BLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                        "openblas_{}_num_threads64_", "openblas_{}_num_threads")
_blas_lock = threading.Lock()  # one multi-item _thread_map holds BLAS at a time


@functools.cache
def blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy calls,
    found once through ctypes: dlsym on numpy's linalg extension, loaded
    by import numpy, also searches the libraries it links. None without."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for sym in _BLAS_THREAD_SYMBOLS:
        get = getattr(lib, sym.format("get"), None)
        set_ = getattr(lib, sym.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def usable_cpus():
    """CPUs this process may run on: the most threads _thread_map starts."""
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _thread_map(fn, items):
    """[fn(item) for item in items]. Two or more items run on up to one
    thread per CPU that lives for this call only, with OpenBLAS at one
    thread until they join; fewer, or no OpenBLAS, run in this thread."""
    blas = blas_threads() if len(items) > 1 else None
    if blas is None:
        return list(map(fn, items))
    from concurrent.futures import ThreadPoolExecutor
    get, set_ = blas
    with _blas_lock:
        before = get()
        set_(1)
        try:
            with ThreadPoolExecutor(min(len(items), usable_cpus()),
                                    thread_name_prefix="reqtag-decode") as pool:
                return list(pool.map(fn, items))
        finally:
            set_(before)


def predict_tags(params: ModelParams, rows, table=None):
    """The one decode entry point: Viterbi-decoded BIO tag indices for each
    of a list of non-empty 1-D token index rows, in input order; every
    index is a vocabulary word or UNK, never PAD. Rows are ranked longest
    first and decoded DECODE_CHUNK ranked rows per pass, the passes through
    _thread_map (memory: one pass per CPU); one row decodes inline.

    table, an InputTable of params kept across calls, is filled with the
    rows' words before any pass starts, so the passes only read it;
    without one, the call fills a new table."""
    table = InputTable(params) if table is None else table
    if rows:
        table.fill(np.concatenate(rows))
    ranked = sorted(range(len(rows)), key=lambda i: -len(rows[i]))
    chunks = [ranked[lo:lo + DECODE_CHUNK]
              for lo in range(0, len(ranked), DECODE_CHUNK)]

    def decode(chunk):
        return _decode_chunk(params, [rows[i] for i in chunk], table)

    paths = [None] * len(rows)
    for chunk, chunk_paths in zip(chunks, _thread_map(decode, chunks)):
        for i, path in zip(chunk, chunk_paths):
            paths[i] = path
    return paths


# ------------------------------------------------------------- checkpoint

def save_checkpoint(path, params: ModelParams, vocab: Vocabulary,
                    extra_config: dict | None = None):
    """Uncompressed .npz: a JSON header, then one entry per block in
    BLOCKS order, the embedding first whether or not it is trainable."""
    header = json.dumps({
        "version": CHECKPOINT_VERSION,
        "dims": vars(params.dims),
        "embedding_trainable": params.embedding_trainable,
        "vocab": vocab.index_to_token,
        "config": extra_config or {},
    })
    # a file object, because np.savez appends ".npz" to a path without it
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(header), **params.blocks)


def _entry(npz, name):
    try:
        return npz[name]
    except KeyError:
        raise DataError(f"checkpoint has no {name!r} entry") from None
    except _DAMAGED + (OSError,) as exc:  # OSError: a bad member offset
        raise DataError(f"entry {name!r} is unreadable: {exc}") from None


_HEADER_CHECKS = {
    "dims": lambda d: (isinstance(d, dict)
                       and set(d) == {f.name for f in fields(ModelDims)}
                       and all(type(v) is int and v > 0 for v in d.values())),
    # the reserved pair first, then distinct words
    "vocab": lambda v: (isinstance(v, list) and v[:2] == [PAD_TOKEN, UNK_TOKEN]
                        and all(isinstance(t, str) for t in v)
                        and len(set(v)) == len(v)),
    "embedding_trainable": lambda b: isinstance(b, bool),
    "config": lambda c: isinstance(c, dict),
}


def _read_header(npz) -> dict:
    raw = _entry(npz, "header")
    if raw.ndim != 0 or raw.dtype.kind != "U":
        raise DataError("header is not a string")
    try:
        header = json.loads(raw.item())
    except json.JSONDecodeError as exc:
        raise DataError(f"header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise DataError("header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version "
                        f"{header.get('version')!r}, expected {CHECKPOINT_VERSION}")
    for key, ok in _HEADER_CHECKS.items():
        if not ok(header.get(key)):
            raise DataError(f"bad header field {key!r}")
    return header


def _archive(fh):
    """The .npz archive in an open binary file; DataError if it is none."""
    try:
        npz = np.load(fh, allow_pickle=False)
    except _DAMAGED:
        npz = None  # not a zip: pickle refused, empty or truncated file
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise DataError(f"not an .npz archive; checkpoints are version "
                        f"{CHECKPOINT_VERSION} .npz files (JSON checkpoints "
                        f"from version 1 no longer load)")
    return npz


def load_checkpoint(path):
    """Returns (params, vocab, config); a malformed file raises DataError.
    Each block's entry must be float64 in the shape BLOCKS gives it."""
    # np.load is given a file object so that the file is closed also when
    # the archive turns out to be damaged
    with naming(path), open(path, "rb") as fh, _archive(fh) as npz:
        header = _read_header(npz)
        index_to_token = header["vocab"]
        dims = ModelDims(**header["dims"])
        blocks = {}
        for name, shape in BLOCKS.items():
            arr, shape = _entry(npz, name), shape(dims, len(index_to_token))
            if arr.shape != shape or arr.dtype != np.float64:
                raise DataError(f"block {name!r} is {arr.dtype} "
                                f"{arr.shape}, expected float64 {shape}")
            if not np.isfinite(arr).all():
                raise DataError(f"block {name!r} holds a non-finite value")
            # the model keeps np.load's array: each block is copied once
            blocks[name] = np.ascontiguousarray(arr)
    return (ModelParams(blocks, dims, header["embedding_trainable"]),
            build_vocabulary([index_to_token]), header["config"])
