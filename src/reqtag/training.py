"""Training harness: batches, Adam, the epoch loop, leave-one-domain-out.

The vocabulary is always built from the training folds only; held-out
domain sentences never touch anything the optimizer sees. Each batch
reaches the core as its rows' token and tag indices laid end to end,
with the row lengths; nothing is padded. Cross-validation returns one
record per (held-out domain, run) and nothing derived from them; means
are taken where they are written, by evaluation.mean_scores.
"""

import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from . import network
from .data import Corpus, DataError
from .embeddings import UNK_INDEX, build_vocabulary, encode_tokens, load_glove
from .evaluation import evaluate_domain, extract_spans
from .network import ModelDims, ModelParams, param_blocks

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 32
    embedding_dim: int = 300
    epochs: int = 20
    runs_per_fold: int = 15
    seed: int = 0
    grad_clip_norm: float = 5.0
    h_enc: int = 128
    d_att: int = 256
    h_dec: int = 256
    d_tag: int = 25
    glove_path: str | None = None
    freeze_embeddings: bool = False
    span_overlap_mode: bool = False

    def __post_init__(self):
        for name in ("learning_rate", "grad_clip_norm"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")
        if not self.grad_clip_norm >= 0:  # 0 turns clipping off
            raise ValueError(f"grad_clip_norm must be >= 0, "
                             f"got {self.grad_clip_norm!r}")
        for name in ("seed", "batch_size", "embedding_dim", "epochs",
                     "runs_per_fold", "h_enc", "d_att", "h_dec", "d_tag"):
            value, low = getattr(self, name), int(name != "seed")
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral) or value < low):
                raise ValueError(f"{name} must be an integer >= {low}, "
                                 f"got {value!r}")
        for name in ("freeze_embeddings", "span_overlap_mode"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, "
                                 f"got {getattr(self, name)!r}")
        if self.glove_path is not None and not (
                isinstance(self.glove_path, str) and self.glove_path):
            raise ValueError(f"glove_path must be a path string or null, "
                             f"got {self.glove_path!r}")

    def dims(self) -> ModelDims:
        return ModelDims(embedding_dim=self.embedding_dim, h_enc=self.h_enc,
                         d_att=self.d_att, h_dec=self.h_dec, d_tag=self.d_tag)


def pad_batch(rows):
    """(tokens (N,), tags (N,), lengths) of a batch of (token indices,
    tag indices) rows: their indices laid end to end in input order, and
    each row's length. Nothing is padded; the name stays because
    perfbench traces this boundary by it."""
    tokens = np.concatenate([row_tokens for row_tokens, _ in rows])
    tags = np.concatenate([row_tags for _, row_tags in rows])
    return tokens, tags, [len(row_tokens) for row_tokens, _ in rows]


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Global-norm clip in place; returns the pre-clip norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def adam_step(params: ModelParams, grads: dict, moments: dict, t: int, lr: float):
    """Adam update number t (from 1), in place on the moments, a block
    name -> (m, v) dict, and on the parameters. An entry whose gradient
    is exactly 0.0 at every step never moves: the clamped CRF transitions,
    and the pad row, which no input position holds."""
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t
    for name, theta in param_blocks(params).items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in block {name!r}")
        m, v = moments[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        theta -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _training_sentences(corpus: Corpus, train_domains):
    domains = corpus.domains
    missing = set(train_domains) - set(domains)
    if missing:
        raise DataError(f"unknown training domains: {sorted(missing)}")
    repeated = sorted({d for d in train_domains if train_domains.count(d) > 1})
    if repeated:
        raise DataError(f"training domains listed more than once: {repeated}")
    out = []
    for d in sorted(train_domains):
        out.extend(corpus.sentences[i] for i in domains[d])
    return out


# a diverging run overflows without a warning: adam_step names the first
# block whose gradient is not finite
@np.errstate(over="ignore", invalid="ignore")
def train(config: TrainConfig, corpus: Corpus, train_domains):
    """Train on the given domains; returns (params, vocab, loss_curve)."""
    sentences = _training_sentences(corpus, train_domains)
    if not sentences:
        raise DataError("empty training set")
    rng = np.random.default_rng(config.seed)
    vocab = build_vocabulary(s.tokens for s in sentences)
    params = network.init_model(len(vocab), config.dims(), rng,
                                trainable=not config.freeze_embeddings)
    # GloVe rows overwrite the seeded draw: the draws never depend on the file
    if config.glove_path:
        for idx, vector in load_glove(config.glove_path, vocab,
                                      config.embedding_dim).items():
            params.blocks["embedding"][idx] = vector
    moments = {name: (np.zeros_like(a), np.zeros_like(a))
               for name, a in param_blocks(params).items()}
    rows = [(encode_tokens(s.tokens, vocab), s.tag_indices())
            for s in sentences]  # encoded once, not once per epoch
    steps = 0
    loss_curve = []
    order = np.arange(len(sentences))
    for _epoch in range(config.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [rows[i] for i in order[start:start + config.batch_size]]
            tokens, tags, lengths = pad_batch(batch)
            batch_loss, grads = network.batch_loss_and_grads(
                params, tokens, tags, lengths)
            inv = 1.0 / len(batch)
            for k in grads:
                grads[k] *= inv
            clip_gradients(grads, config.grad_clip_norm)
            steps += 1
            adam_step(params, grads, moments, steps, config.learning_rate)
            epoch_loss += batch_loss
        loss_curve.append(epoch_loss / len(sentences))
    return params, vocab, loss_curve


def run_fold(config: TrainConfig, corpus: Corpus, held_out: str, seed: int):
    """One train/evaluate cycle with the given seed; returns a metrics dict."""
    domains = corpus.domains
    train_domains = [d for d in domains if d != held_out]
    run_config = TrainConfig(**{**asdict(config), "seed": seed})
    params, vocab, _curve = train(run_config, corpus, train_domains)
    test_sentences = [corpus.sentences[i] for i in domains[held_out]]
    metrics = evaluate_domain(params, vocab, test_sentences)[
        "overlap" if config.span_overlap_mode else "exact"]
    return {"seed": seed, "precision": metrics["precision"],
            "recall": metrics["recall"], "f1": metrics["f1"]}


def held_out_counts(corpus: Corpus) -> dict:
    """For each held-out domain, from the corpus alone: its sentences
    whose token sequence a sentence of the fold's training domains has,
    with the gold spans they hold, and its tokens and gold-span tokens,
    with those that are <unk> under the fold's training vocabulary."""
    domains = corpus.domains
    out = {}
    for held_out in sorted(domains):
        train_sentences = _training_sentences(
            corpus, [d for d in domains if d != held_out])
        seen = {tuple(s.tokens) for s in train_sentences}
        vocab = build_vocabulary(s.tokens for s in train_sentences)
        held = [corpus.sentences[i] for i in domains[held_out]]
        seen_held = [s for s in held if tuple(s.tokens) in seen]
        spans = [t != "O" for s in held for t in s.tags]
        unk = [i == UNK_INDEX
               for s in held for i in encode_tokens(s.tokens, vocab)]
        out[held_out] = {
            "sentences": len(held),
            "sentences_seen_in_training": len(seen_held),
            "spans_in_seen": sum(len(extract_spans(s.tag_indices()))
                                 for s in seen_held),
            "tokens": len(unk), "unk_tokens": sum(unk),
            "span_tokens": sum(spans),
            "unk_span_tokens": sum(u and t for u, t in zip(unk, spans)),
        }
    return out


def cross_validate(config: TrainConfig, corpus: Corpus,
                   progress=None) -> dict:
    """Leave-one-domain-out over every domain, runs_per_fold runs each;
    returns {held-out domain: [run_fold dicts]} in sorted domain order."""
    domains = corpus.domains
    folds = {}
    for held_out in sorted(domains):
        runs = folds[held_out] = []
        for run_index in range(config.runs_per_fold):
            seed = config.seed + run_index
            if progress:
                progress(held_out, run_index, seed)
            runs.append(run_fold(config, corpus, held_out, seed))
    return folds
