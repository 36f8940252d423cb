"""The five-layer tagging model and its hand-derived backward pass.

Layers: embedding lookup -> BiLSTM encoder -> single-head scaled
dot-product self-attention -> LSTM decoder fed the attended state and
the previous tag's embedding -> linear emission projection -> linear
chain CRF. Everything runs per sentence on the true (unpadded) length;
batch wrappers slice padded inputs down before calling the core.
"""

import json
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import crf
from .embeddings import EmbeddingTable, PAD_INDEX, UNK_INDEX, Vocabulary
from .lstm import LstmCellParams, init_lstm, lstm_step, lstm_step_backward
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


# ---------------------------------------------------------------- encoder

def _encode(params: ModelParams, indices):
    """BiLSTM over one unpadded sentence; returns (enc (n, 2H), caches)."""
    n = len(indices)
    h_enc = params.dims.h_enc
    emb = params.embedding.matrix
    xs = [emb[i] for i in indices]

    h = np.zeros(h_enc)
    c = np.zeros(h_enc)
    fwd_states, fwd_caches = [], []
    for t in range(n):
        h, c, cache = lstm_step(params.enc_fwd, xs[t], h, c)
        fwd_states.append(h)
        fwd_caches.append(cache)

    h = np.zeros(h_enc)
    c = np.zeros(h_enc)
    bwd_states, bwd_caches = [], []
    for s in range(n):  # processing order: token n-1 first
        h, c, cache = lstm_step(params.enc_bwd, xs[n - 1 - s], h, c)
        bwd_states.append(h)
        bwd_caches.append(cache)

    enc = np.zeros((n, 2 * h_enc))
    for t in range(n):
        enc[t, :h_enc] = fwd_states[t]
        enc[t, h_enc:] = bwd_states[n - 1 - t]
    return enc, (fwd_caches, bwd_caches)


def _encode_backward(params: ModelParams, indices, enc_caches, d_enc, grads):
    """BPTT through both encoder directions; fills embedding grads."""
    n = len(indices)
    h_enc = params.dims.h_enc
    fwd_caches, bwd_caches = enc_caches
    d_x = [np.zeros(params.dims.embedding_dim) for _ in range(n)]

    g_fwd = LstmCellParams(w_in=grads["enc_fwd.w_in"], w_h=grads["enc_fwd.w_h"],
                           b=grads["enc_fwd.b"])
    dh = np.zeros(h_enc)
    dc = np.zeros(h_enc)
    for t in range(n - 1, -1, -1):
        dx, dh, dc = lstm_step_backward(params.enc_fwd, fwd_caches[t],
                                        dh + d_enc[t, :h_enc], dc, g_fwd)
        d_x[t] += dx

    g_bwd = LstmCellParams(w_in=grads["enc_bwd.w_in"], w_h=grads["enc_bwd.w_h"],
                           b=grads["enc_bwd.b"])
    dh = np.zeros(h_enc)
    dc = np.zeros(h_enc)
    for s in range(n - 1, -1, -1):
        token = n - 1 - s
        dx, dh, dc = lstm_step_backward(params.enc_bwd, bwd_caches[s],
                                        dh + d_enc[token, h_enc:], dc, g_bwd)
        d_x[token] += dx

    if params.embedding.trainable:
        for t, idx in enumerate(indices):
            if idx != PAD_INDEX:
                grads["embedding"][idx] += d_x[t]


# -------------------------------------------------------------- attention

def _attend(params: ModelParams, enc):
    """Scaled dot-product self-attention over one sentence."""
    scale = 1.0 / np.sqrt(params.dims.d_att)
    q = enc @ params.attn_q.T
    k = enc @ params.attn_k.T
    v = enc @ params.attn_v.T
    scores = (q @ k.T) * scale
    weights = softmax_rows(scores)
    attended = weights @ v
    return attended, (enc, q, k, v, weights)


def _attend_backward(params: ModelParams, att_cache, d_att, grads):
    enc, q, k, v, weights = att_cache
    scale = 1.0 / np.sqrt(params.dims.d_att)
    d_w = d_att @ v.T
    d_v = weights.T @ d_att
    d_scores = (d_w - (d_w * weights).sum(axis=1, keepdims=True)) * weights
    d_q = (d_scores @ k) * scale
    d_k = (d_scores.T @ q) * scale
    grads["attn_q"] += d_q.T @ enc
    grads["attn_k"] += d_k.T @ enc
    grads["attn_v"] += d_v.T @ enc
    d_enc = d_q @ params.attn_q + d_k @ params.attn_k + d_v @ params.attn_v
    return d_enc


# ---------------------------------------------------------------- decoder

def _allowed_from(prev_state):
    """Emittable tags reachable from a tag / the start state."""
    if prev_state in (crf.START, crf.O):
        return (crf.O, crf.B)
    return (crf.O, crf.B, crf.I)


def _decode(params: ModelParams, attended, prev_tag_fn):
    """Run the decoder; prev_tag_fn(t, emissions_so_far) gives the tag fed at t."""
    n = attended.shape[0]
    h = np.zeros(params.dims.h_dec)
    c = np.zeros(params.dims.h_dec)
    emissions = np.zeros((n, 3))
    caches, hidden, prev_tags = [], [], []
    for t in range(n):
        prev = prev_tag_fn(t, emissions)
        prev_tags.append(prev)
        u = np.concatenate([attended[t], params.tag_embedding[prev]])
        h, c, cache = lstm_step(params.dec, u, h, c)
        emissions[t] = params.emission_w @ h + params.emission_b
        caches.append(cache)
        hidden.append(h)
    return emissions, (caches, hidden, prev_tags)


def _decode_training(params: ModelParams, attended, gold_tags):
    for g in gold_tags:
        if g not in (crf.O, crf.B, crf.I):
            raise ValueError(f"invalid gold tag index {g}")

    def prev_tag(t, _):
        return crf.START if t == 0 else gold_tags[t - 1]
    return _decode(params, attended, prev_tag)


def _decode_inference(params: ModelParams, attended):
    state = {"prev": crf.START}

    def prev_tag(t, emissions):
        if t == 0:
            return crf.START
        allowed = _allowed_from(state["prev"])
        scores = emissions[t - 1]
        best = max(allowed, key=lambda y: (scores[y], -y))
        state["prev"] = best
        return best
    return _decode(params, attended, prev_tag)


def _decode_backward(params: ModelParams, dec_cache, d_emissions, grads):
    caches, hidden, prev_tags = dec_cache
    n = len(caches)
    d_att = params.dims.d_att
    g_dec = LstmCellParams(w_in=grads["dec.w_in"], w_h=grads["dec.w_h"],
                           b=grads["dec.b"])
    d_attended = np.zeros((n, d_att))
    dh = np.zeros(params.dims.h_dec)
    dc = np.zeros(params.dims.h_dec)
    for t in range(n - 1, -1, -1):
        de = d_emissions[t]
        grads["emission_w"] += np.outer(de, hidden[t])
        grads["emission_b"] += de
        dh_t = dh + params.emission_w.T @ de
        du, dh, dc = lstm_step_backward(params.dec, caches[t], dh_t, dc, g_dec)
        d_attended[t] = du[:d_att]
        grads["tag_embedding"][prev_tags[t]] += du[d_att:]
    return d_attended


# --------------------------------------------------------- sentence level

def sentence_loss(params: ModelParams, indices, gold_tags) -> float:
    """Teacher-forced CRF negative log-likelihood of one sentence."""
    enc, _ = _encode(params, indices)
    attended, _ = _attend(params, enc)
    emissions, _ = _decode_training(params, attended, gold_tags)
    return crf.crf_nll(emissions, params.transitions, gold_tags)


def sentence_loss_and_grads(params: ModelParams, indices, gold_tags):
    """Loss plus gradients for every trainable block, as a name->array dict."""
    grads = zero_grad_blocks(params)
    enc, enc_caches = _encode(params, indices)
    attended, att_cache = _attend(params, enc)
    emissions, dec_cache = _decode_training(params, attended, gold_tags)
    loss, d_e, d_t = crf.crf_nll_backward(emissions, params.transitions, gold_tags)
    grads["transitions"] += d_t
    d_attended = _decode_backward(params, dec_cache, d_e, grads)
    d_enc = _attend_backward(params, att_cache, d_attended, grads)
    _encode_backward(params, indices, enc_caches, d_enc, grads)
    return loss, grads


def predict_tags(params: ModelParams, indices):
    """Viterbi-decoded BIO tag indices for one unpadded sentence."""
    if len(indices) == 0:
        return []
    enc, _ = _encode(params, indices)
    attended, _ = _attend(params, enc)
    emissions, _ = _decode_inference(params, attended)
    tags, _ = crf.crf_viterbi(emissions, params.transitions)
    return tags


# ------------------------------------------------------- padded batch API

def _check_lengths(index_matrix, lengths):
    batch, max_len = index_matrix.shape
    for i, n in enumerate(lengths):
        if n > max_len:
            raise ValueError(f"length {n} of example {i} exceeds padded width {max_len}")
        if n < 1:
            raise ValueError(f"example {i} has no tokens")


def bilstm_encode(params: ModelParams, index_matrix, lengths):
    """Padded-batch encoder; pad positions come out as zero vectors."""
    index_matrix = np.asarray(index_matrix)
    _check_lengths(index_matrix, lengths)
    batch, max_len = index_matrix.shape
    out = np.zeros((batch, max_len, 2 * params.dims.h_enc))
    for i, n in enumerate(lengths):
        enc, _ = _encode(params, list(index_matrix[i, :n]))
        out[i, :n] = enc
    return out


def self_attention(params: ModelParams, enc_states, lengths):
    batch, max_len, _ = enc_states.shape
    out = np.zeros((batch, max_len, params.dims.d_att))
    for i, n in enumerate(lengths):
        attended, _ = _attend(params, enc_states[i, :n])
        out[i, :n] = attended
    return out


def decode_tags_training(params: ModelParams, attended, gold_tags, lengths):
    batch, max_len, _ = attended.shape
    out = np.zeros((batch, max_len, 3))
    for i, n in enumerate(lengths):
        emissions, _ = _decode_training(params, attended[i, :n],
                                        list(gold_tags[i][:n]))
        out[i, :n] = emissions
    return out


def decode_tags_inference(params: ModelParams, attended, lengths):
    batch, max_len, _ = attended.shape
    out = np.zeros((batch, max_len, 3))
    for i, n in enumerate(lengths):
        emissions, _ = _decode_inference(params, attended[i, :n])
        out[i, :n] = emissions
    return out


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
                            np.random.default_rng(0))
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
