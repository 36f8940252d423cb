"""The five-layer tagging model and its hand-derived backward pass.

Layers: embedding lookup -> BiLSTM encoder -> single-head scaled
dot-product self-attention -> LSTM decoder fed the attended state and
the previous tag's embedding -> linear emission projection -> linear
chain CRF.

Every layer runs on a right-padded (B, T) batch with a (B, T) mask of
real positions. The encoder's backward direction reverses each row's
real prefix, attention masks pad keys, and every layer's output is zero
at pad positions, so pads get exactly zero gradient. The CRF runs per
row on the unpadded slice. Training calls batch_loss_and_grads once per
batch; predict_batch runs the same layers for inference, and
predict_tags is its B = 1 case.
"""

import json
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import crf
from .embeddings import EmbeddingTable, PAD_INDEX, UNK_INDEX, Vocabulary
from .lstm import (LstmCellParams, flat, init_lstm, lstm_backward, lstm_forward,
                   lstm_step)
from .tensor import ShapeError, softmax_rows

CHECKPOINT_VERSION = 2
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
        from .embeddings import OOV_INIT_BOUND
        m = rng.uniform(-OOV_INIT_BOUND, OOV_INIT_BOUND,
                        size=(vocab_size, dims.embedding_dim))
        m[PAD_INDEX, :] = 0.0
        embedding = EmbeddingTable(matrix=m, trainable=True)
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


# ------------------------------------------------------------------ batch

def _length_mask(lengths, shape):
    """(B, T) bool mask of real positions; each row holds 1..T tokens."""
    lengths = np.asarray(lengths)
    batch, width = shape
    if lengths.shape != (batch,) or not np.all((lengths >= 1) & (lengths <= width)):
        raise ValueError(f"lengths {lengths.tolist()} do not fit a padded "
                         f"batch of shape {tuple(shape)}")
    return np.arange(width) < lengths[:, None]


def _times(a, w):
    """a @ w.T over the last axis of a (B, T, n) array, as one GEMM."""
    return (flat(a) @ w.T).reshape(*a.shape[:-1], w.shape[0])


def _flip(a, order):
    """Reorder each row's steps: out[b, t] = a[b, order[b, t]]."""
    return np.take_along_axis(a, order[:, :, None], axis=1)


def _add_cell_grads(grads, prefix, g: LstmCellParams):
    grads[f"{prefix}.w_in"] += g.w_in
    grads[f"{prefix}.w_h"] += g.w_h
    grads[f"{prefix}.b"] += g.b


# ---------------------------------------------------------------- encoder

def _encode(params: ModelParams, indices, mask):
    """BiLSTM over a (B, T) index matrix; returns (enc (B, T, 2H), cache)."""
    steps = np.arange(mask.shape[1])
    # reverses each row's real prefix, leaves pads in place; its own inverse
    order = np.where(mask, mask.sum(axis=1)[:, None] - 1 - steps, steps)
    x = params.embedding.matrix[indices]
    x_rev = _flip(x, order)
    fwd = lstm_forward(params.enc_fwd, _times(x, params.enc_fwd.w_in)
                       + params.enc_fwd.b)
    bwd = lstm_forward(params.enc_bwd, _times(x_rev, params.enc_bwd.w_in)
                       + params.enc_bwd.b)
    enc = np.concatenate([fwd[0], _flip(bwd[0], order)], axis=2)
    return enc * mask[:, :, None], (indices, mask, order, x, x_rev, fwd, bwd)


def _encode_backward(params: ModelParams, enc_cache, d_enc, grads):
    """BPTT through both encoder directions; fills embedding grads."""
    indices, mask, order, x, x_rev, fwd, bwd = enc_cache
    h_enc = params.dims.h_enc
    d_enc = d_enc * mask[:, :, None]
    d_x, g = lstm_backward(params.enc_fwd, x, *fwd, d_enc[:, :, :h_enc])
    _add_cell_grads(grads, "enc_fwd", g)
    d_x_rev, g = lstm_backward(params.enc_bwd, x_rev, *bwd,
                               _flip(d_enc[:, :, h_enc:], order))
    _add_cell_grads(grads, "enc_bwd", g)
    if params.embedding.trainable:
        real = mask & (indices != PAD_INDEX)
        np.add.at(grads["embedding"], indices[real],
                  (d_x + _flip(d_x_rev, order))[real])


# -------------------------------------------------------------- attention

def _attend(params: ModelParams, enc, mask):
    """Scaled dot-product self-attention over each row's real positions."""
    scale = 1.0 / np.sqrt(params.dims.d_att)
    q = _times(enc, params.attn_q)
    k = _times(enc, params.attn_k)
    v = _times(enc, params.attn_v)
    scores = (q @ k.transpose(0, 2, 1)) * scale
    keys = np.broadcast_to(mask[:, None, :], scores.shape)
    weights = softmax_rows(scores, mask=keys) * mask[:, :, None]
    return weights @ v, (enc, q, k, v, weights)


def _attend_backward(params: ModelParams, att_cache, d_att, grads):
    enc, q, k, v, weights = att_cache
    scale = 1.0 / np.sqrt(params.dims.d_att)
    d_w = d_att @ v.transpose(0, 2, 1)
    d_v = weights.transpose(0, 2, 1) @ d_att
    d_scores = (d_w - (d_w * weights).sum(axis=2, keepdims=True)) * weights
    d_q = flat((d_scores @ k) * scale)
    d_k = flat((d_scores.transpose(0, 2, 1) @ q) * scale)
    d_v = flat(d_v)
    grads["attn_q"] += d_q.T @ flat(enc)
    grads["attn_k"] += d_k.T @ flat(enc)
    grads["attn_v"] += d_v.T @ flat(enc)
    d_enc = d_q @ params.attn_q + d_k @ params.attn_k + d_v @ params.attn_v
    return d_enc.reshape(enc.shape)


# ---------------------------------------------------------------- decoder

def _decoder_inputs(params: ModelParams, attended):
    """The decoder's input projection in two parts: one row per step for
    the attended states, one row per tag (bias included) for the fed tag.
    Training and inference both sum the same two parts, so they agree
    bit for bit."""
    d_att = params.dims.d_att
    w = params.dec.w_in
    return (_times(attended, w[:, :d_att]),
            params.tag_embedding @ w[:, d_att:].T + params.dec.b)


def _emissions(params: ModelParams, hs, mask):
    return (_times(hs, params.emission_w) + params.emission_b) * mask[:, :, None]


def _decode_training(params: ModelParams, attended, tags, mask):
    """Teacher-forced decoder: step t is fed gold tag t-1 (START at t=0)."""
    tags = np.asarray(tags)
    if not np.isin(tags, (crf.O, crf.B, crf.I)).all():
        raise ValueError(f"invalid gold tag index in {tags.tolist()}")
    prev = np.concatenate([np.full((len(tags), 1), crf.START), tags[:, :-1]],
                          axis=1)
    from_att, from_tag = _decoder_inputs(params, attended)
    hs, caches = lstm_forward(params.dec, from_att + from_tag[prev])
    x = np.concatenate([attended, params.tag_embedding[prev]], axis=2)
    return _emissions(params, hs, mask), (x, hs, caches, prev, mask)


def _decode_inference(params: ModelParams, attended, mask):
    """Decoder fed its own greedy tag: the best legal tag of the step before.

    I is legal only after B or I. argmax takes the first maximum, so ties
    go to the lower tag. Returns (emissions, fed tags (B, T)).
    """
    batch, width, _ = attended.shape
    from_att, from_tag = _decoder_inputs(params, attended)
    h = np.zeros((batch, params.dims.h_dec))
    c = np.zeros((batch, params.dims.h_dec))
    hs = np.empty((batch, width, params.dims.h_dec))
    fed = np.empty((batch, width), dtype=np.int64)
    prev = np.full(batch, crf.START)
    for t in range(width):
        fed[:, t] = prev
        h, c, _ = lstm_step(params.dec, from_att[:, t] + from_tag[prev], h, c)
        hs[:, t] = h
        scores = h @ params.emission_w.T + params.emission_b
        scores[(prev == crf.START) | (prev == crf.O), crf.I] = -np.inf
        prev = np.argmax(scores, axis=1)
    return _emissions(params, hs, mask), fed


def _decode_backward(params: ModelParams, dec_cache, d_emissions, grads):
    x, hs, caches, prev, mask = dec_cache
    d_att = params.dims.d_att
    d_e = flat(d_emissions * mask[:, :, None])
    grads["emission_w"] += d_e.T @ flat(hs)
    grads["emission_b"] += d_e.sum(axis=0)
    d_hs = (d_e @ params.emission_w).reshape(hs.shape)
    d_x, g = lstm_backward(params.dec, x, hs, caches, d_hs)
    _add_cell_grads(grads, "dec", g)
    np.add.at(grads["tag_embedding"], prev, d_x[:, :, d_att:])
    return d_x[:, :, :d_att]


# ------------------------------------------------------------ entry points

def batch_loss_and_grads(params: ModelParams, indices, tags, lengths):
    """Summed CRF NLL of a right-padded (B, T) batch, and its gradient for
    every trainable block as one name -> array dict."""
    indices = np.asarray(indices)
    tags = np.asarray(tags)
    mask = _length_mask(lengths, indices.shape)
    grads = zero_grad_blocks(params)
    enc, enc_cache = _encode(params, indices, mask)
    attended, att_cache = _attend(params, enc, mask)
    emissions, dec_cache = _decode_training(params, attended, tags, mask)
    loss = 0.0
    d_emissions = np.zeros_like(emissions)
    for row, n in enumerate(mask.sum(axis=1)):
        nll, d_emissions[row, :n], d_t = crf.crf_nll_backward(
            emissions[row, :n], params.transitions, tags[row, :n].tolist())
        loss += nll
        grads["transitions"] += d_t
    d_attended = _decode_backward(params, dec_cache, d_emissions, grads)
    d_enc = _attend_backward(params, att_cache, d_attended, grads)
    _encode_backward(params, enc_cache, d_enc, grads)
    return loss, grads


def predict_batch(params: ModelParams, indices, lengths):
    """Viterbi-decoded BIO tag indices for each row of a right-padded batch."""
    indices = np.asarray(indices)
    mask = _length_mask(lengths, indices.shape)
    enc, _ = _encode(params, indices, mask)
    attended, _ = _attend(params, enc, mask)
    emissions, _ = _decode_inference(params, attended, mask)
    return [crf.crf_viterbi(emissions[row, :n], params.transitions)[0]
            for row, n in enumerate(mask.sum(axis=1))]


def predict_tags(params: ModelParams, indices):
    """Viterbi-decoded BIO tag indices for one unpadded sentence."""
    if len(indices) == 0:
        return []
    return predict_batch(params, [indices], [len(indices)])[0]


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


def load_checkpoint(path):
    """Returns (params, vocab, config); a malformed file raises ValueError."""
    try:
        npz = np.load(path, allow_pickle=False)
    except _DAMAGED:
        npz = None  # not a zip: pickle refused, empty or truncated file
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not an .npz archive; checkpoints are version "
                         f"{CHECKPOINT_VERSION} .npz files (JSON checkpoints "
                         f"from version 1 no longer load)")
    with npz:
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
