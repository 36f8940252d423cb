"""Training harness: padding, Adam, the epoch loop, leave-one-domain-out.

The vocabulary is always built from the training folds only; held-out
domain sentences never touch anything the optimizer sees. Each batch is
padded to its own longest sentence.
"""

from dataclasses import dataclass, field, asdict

import numpy as np

from . import crf, network
from .data import Corpus, DataError
from .embeddings import (EmbeddingTable, PAD_INDEX, Vocabulary,
                         build_vocabulary, encode_tokens, load_glove,
                         random_embeddings)
from .evaluation import evaluate_domain
from .network import ModelDims, ModelParams, param_blocks
from .tensor import NumericError


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name in ("batch_size", "embedding_dim", "epochs", "runs_per_fold"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def dims(self) -> ModelDims:
        return ModelDims(embedding_dim=self.embedding_dim, h_enc=self.h_enc,
                         d_att=self.d_att, h_dec=self.h_dec, d_tag=self.d_tag)


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        blocks = param_blocks(params)
        return cls(m={k: np.zeros_like(a) for k, a in blocks.items()},
                   v={k: np.zeros_like(a) for k, a in blocks.items()})


@dataclass
class FoldReport:
    held_out_domain: str
    runs: list  # per-run dicts {seed, precision, recall, f1}
    mean_precision: float = 0.0
    mean_recall: float = 0.0
    mean_f1: float = 0.0

    def finalize(self):
        n = len(self.runs)
        self.mean_precision = sum(r["precision"] for r in self.runs) / n
        self.mean_recall = sum(r["recall"] for r in self.runs) / n
        self.mean_f1 = sum(r["f1"] for r in self.runs) / n
        return self


def pad_batch(sentences, vocab: Vocabulary, pad_to: int):
    """Right-pad index/tag matrices; tags pad with O and are inert."""
    for s in sentences:
        if len(s.tokens) > pad_to:
            raise ValueError(
                f"sentence of length {len(s.tokens)} exceeds pad_to={pad_to}")
    batch = len(sentences)
    indices = np.full((batch, pad_to), PAD_INDEX, dtype=np.int64)
    tags = np.zeros((batch, pad_to), dtype=np.int64)  # O = 0
    lengths = []
    for i, s in enumerate(sentences):
        n = len(s.tokens)
        indices[i, :n] = encode_tokens(s.tokens, vocab)
        tags[i, :n] = s.tag_indices()
        lengths.append(n)
    return indices, tags, lengths


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


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float):
    """One Adam update; clamped CRF entries and the pad row stay fixed."""
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    blocks = param_blocks(params)
    for name, theta in blocks.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in block {name!r}")
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1 ** state.t)
        v_hat = state.v[name] / (1 - b2 ** state.t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    mask = crf.forbidden_mask()
    params.transitions[mask] = crf.FORBIDDEN_SCORE
    if "embedding" in blocks:
        params.embedding.matrix[PAD_INDEX, :] = 0.0


def _training_sentences(corpus: Corpus, train_domains):
    domains = corpus.domains
    missing = set(train_domains) - set(domains)
    if missing:
        raise DataError(f"unknown training domains: {sorted(missing)}")
    out = []
    for d in sorted(train_domains):
        out.extend(corpus.sentences[i] for i in domains[d])
    return out


def train(config: TrainConfig, corpus: Corpus, train_domains):
    """Train on the given domains; returns (params, vocab, loss_curve)."""
    sentences = _training_sentences(corpus, train_domains)
    if not sentences:
        raise DataError("empty training set")
    rng = np.random.default_rng(config.seed)
    vocab = build_vocabulary(s.tokens for s in sentences)
    if config.glove_path:
        table = load_glove(config.glove_path, vocab, config.embedding_dim, rng,
                           trainable=not config.freeze_embeddings)
    else:
        table = random_embeddings(vocab, config.embedding_dim, rng,
                                  trainable=not config.freeze_embeddings)
    params = network.init_model(len(vocab), config.dims(), rng, embedding=table)
    state = AdamState.for_params(params)

    loss_curve = []
    order = np.arange(len(sentences))
    for _epoch in range(config.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [sentences[i] for i in order[start:start + config.batch_size]]
            indices, tags, lengths = pad_batch(
                batch, vocab, max(len(s.tokens) for s in batch))
            grads = network.zero_grad_blocks(params)
            batch_loss = 0.0
            for i, n in enumerate(lengths):
                loss, g = network.sentence_loss_and_grads(
                    params, list(indices[i, :n]), list(tags[i, :n]))
                batch_loss += loss
                for k in grads:
                    grads[k] += g[k]
            inv = 1.0 / len(batch)
            for k in grads:
                grads[k] *= inv
            clip_gradients(grads, config.grad_clip_norm)
            adam_step(params, grads, state, config.learning_rate)
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
    metrics = evaluate_domain(params, vocab, test_sentences,
                              overlap=config.span_overlap_mode)
    return {"seed": seed, "precision": metrics.precision,
            "recall": metrics.recall, "f1": metrics.f1}


def cross_validate(config: TrainConfig, corpus: Corpus,
                   progress=None) -> list:
    """Leave-one-domain-out over every domain, runs_per_fold runs each."""
    domains = corpus.domains
    if len(domains) < 2:
        raise DataError(f"need at least 2 domains, have {len(domains)}")
    for d, idxs in domains.items():
        if not idxs:
            raise DataError(f"domain {d!r} has no sentences")
    reports = []
    for held_out in sorted(domains):
        runs = []
        for run_index in range(config.runs_per_fold):
            seed = config.seed + run_index
            if progress:
                progress(held_out, run_index, seed)
            runs.append(run_fold(config, corpus, held_out, seed))
        reports.append(FoldReport(held_out_domain=held_out, runs=runs).finalize())
    return reports
