import dataclasses

import numpy as np
import pytest

from reqtag import crf
from reqtag.data import Corpus, DataError, TaggedSentence
from reqtag.embeddings import PAD_INDEX, build_vocabulary, encode_tokens
from reqtag.network import (ModelDims, init_model, param_blocks, predict_tags,
                            sentence_loss, zero_grad_blocks)
from reqtag.tensor import NumericError
from reqtag.training import (AdamState, FoldReport, TrainConfig, adam_step,
                             clip_gradients, cross_validate, pad_batch, train)
from conftest import make_synthetic_corpus

TINY_CFG = dict(embedding_dim=16, h_enc=8, d_att=8, h_dec=8, d_tag=4)


def tiny_config(**overrides):
    return TrainConfig(**{**TINY_CFG, **overrides})


class TestTrainConfig:
    def test_defaults_match_training_protocol(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.batch_size == 32
        assert cfg.embedding_dim == 300
        assert cfg.runs_per_fold == 15

    @pytest.mark.parametrize("bad", [
        {"learning_rate": 0.0},
        {"batch_size": 0},
        {"epochs": 0},
        {"runs_per_fold": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


class TestPadBatch:
    def _sentences(self):
        return [
            TaggedSentence(app_id="a", tokens=["x", "y", "z"],
                           tags=["O", "B", "I"]),
            TaggedSentence(app_id="a", tokens=["x", "y", "z", "x", "y"],
                           tags=["O", "O", "O", "B", "O"]),
        ]

    def test_shapes_and_lengths(self):
        sents = self._sentences()
        vocab = build_vocabulary(s.tokens for s in sents)
        indices, tags, lengths = pad_batch(sents, vocab, 5)
        assert indices.shape == (2, 5) and tags.shape == (2, 5)
        assert lengths == [3, 5]
        assert list(indices[0, 3:]) == [PAD_INDEX, PAD_INDEX]
        assert list(tags[0, 3:]) == [0, 0]

    def test_exact_fit_adds_no_padding(self):
        sents = self._sentences()[1:]
        vocab = build_vocabulary(s.tokens for s in sents)
        indices, _, lengths = pad_batch(sents, vocab, 5)
        assert PAD_INDEX not in indices[0]

    def test_too_long_rejected(self):
        sents = self._sentences()
        vocab = build_vocabulary(s.tokens for s in sents)
        with pytest.raises(ValueError):
            pad_batch(sents, vocab, 4)

    def test_padded_loss_equals_unpadded(self):
        # the model only ever sees the sliced true length, so the padded
        # batch loss must equal the sum of per-sentence losses
        sents = self._sentences()
        vocab = build_vocabulary(s.tokens for s in sents)
        params = init_model(len(vocab), ModelDims(
            embedding_dim=16, h_enc=8, d_att=8, h_dec=8, d_tag=4),
            np.random.default_rng(0))
        indices, tags, lengths = pad_batch(sents, vocab, 9)
        padded_total = sum(
            sentence_loss(params, list(indices[i, :n]), list(tags[i, :n]))
            for i, n in enumerate(lengths))
        unpadded_total = sum(
            sentence_loss(params, encode_tokens(s.tokens, vocab),
                          s.tag_indices())
            for s in sents)
        assert padded_total == pytest.approx(unpadded_total, abs=1e-9)


class TestAdam:
    def _model(self):
        return init_model(8, ModelDims(embedding_dim=4, h_enc=3, d_att=4,
                                       h_dec=3, d_tag=2),
                          np.random.default_rng(1))

    def test_zero_gradient_is_identity(self):
        params = self._model()
        before = {k: v.copy() for k, v in param_blocks(params).items()}
        state = AdamState.for_params(params)
        adam_step(params, zero_grad_blocks(params), state, lr=0.1)
        for name, arr in param_blocks(params).items():
            np.testing.assert_array_equal(arr, before[name], err_msg=name)
        assert state.t == 1

    def test_first_step_magnitude(self):
        # at t=1 with g=1: m_hat=1, v_hat=1, so the step is lr/(1+eps)
        params = self._model()
        state = AdamState.for_params(params)
        grads = zero_grad_blocks(params)
        grads["emission_b"][:] = 1.0
        before = params.emission_b.copy()
        lr = 0.001
        adam_step(params, grads, state, lr=lr)
        expected = before - lr * 1.0 / (1.0 + state.eps)
        np.testing.assert_allclose(params.emission_b, expected, atol=1e-12)

    def test_forbidden_transitions_stay_clamped(self):
        params = self._model()
        state = AdamState.for_params(params)
        grads = zero_grad_blocks(params)
        grads["transitions"][:] = 1.0  # deliberately touches everything
        for _ in range(5):
            adam_step(params, grads, state, lr=0.5)
        assert np.all(params.transitions[crf.forbidden_mask()]
                      == crf.FORBIDDEN_SCORE)

    def test_pad_row_stays_zero(self):
        params = self._model()
        state = AdamState.for_params(params)
        grads = zero_grad_blocks(params)
        grads["embedding"][:] = 1.0
        adam_step(params, grads, state, lr=0.5)
        np.testing.assert_array_equal(params.embedding.matrix[PAD_INDEX], 0.0)

    def test_non_finite_gradient_names_block(self):
        params = self._model()
        state = AdamState.for_params(params)
        grads = zero_grad_blocks(params)
        grads["attn_q"][0, 0] = np.nan
        with pytest.raises(NumericError, match="attn_q"):
            adam_step(params, grads, state, lr=0.1)


def test_clip_gradients_scales_to_max_norm():
    grads = {"a": np.array([3.0, 4.0])}
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)
    grads2 = {"a": np.array([0.3, 0.4])}
    clip_gradients(grads2, 1.0)
    np.testing.assert_array_equal(grads2["a"], [0.3, 0.4])


class TestTrain:
    def test_same_seed_same_curve(self, synthetic_corpus):
        cfg = tiny_config(epochs=2, seed=3, batch_size=8)
        _, _, c1 = train(cfg, synthetic_corpus, ["dom0", "dom1"])
        _, _, c2 = train(cfg, synthetic_corpus, ["dom0", "dom1"])
        assert c1 == c2

    def test_loss_mostly_decreases(self, synthetic_corpus):
        cfg = tiny_config(epochs=8, seed=0, batch_size=8, learning_rate=0.003)
        _, _, curve = train(cfg, synthetic_corpus, ["dom0", "dom1"])
        drops = sum(b <= a for a, b in zip(curve, curve[1:]))
        assert drops >= len(curve) - 2
        assert curve[-1] < curve[0]

    def test_empty_training_set(self, synthetic_corpus):
        with pytest.raises(DataError):
            train(tiny_config(), synthetic_corpus, [])

    def test_unknown_domain(self, synthetic_corpus):
        with pytest.raises(DataError):
            train(tiny_config(), synthetic_corpus, ["nope"])

    def test_held_out_domain_has_no_influence(self, synthetic_corpus):
        # deleting the held-out sentences entirely must not change training
        cfg = tiny_config(epochs=1, seed=5, batch_size=8)
        p1, _, _ = train(cfg, synthetic_corpus, ["dom0", "dom1"])
        pruned = Corpus(sentences=[s for s in synthetic_corpus.sentences
                                   if s.domain != "dom2"])
        p2, _, _ = train(cfg, pruned, ["dom0", "dom1"])
        for name, arr in param_blocks(p1).items():
            np.testing.assert_array_equal(arr, param_blocks(p2)[name],
                                          err_msg=name)

    def test_frozen_embeddings_bit_identical(self, synthetic_corpus):
        from reqtag.embeddings import build_vocabulary, random_embeddings
        cfg = tiny_config(epochs=2, seed=2, batch_size=8,
                          freeze_embeddings=True)
        params, vocab, _ = train(cfg, synthetic_corpus, ["dom0"])
        # rebuild the exact initial table from the same seed: training
        # must not have touched a single bit of it
        rng = np.random.default_rng(cfg.seed)
        initial = random_embeddings(vocab, cfg.embedding_dim, rng,
                                    trainable=False)
        np.testing.assert_array_equal(params.embedding.matrix,
                                      initial.matrix)

    def test_overfit_single_sentence(self):
        corpus = make_synthetic_corpus(8, 1, seed=4)
        target = next(s for s in corpus.sentences if "B" in s.tags)
        single = Corpus(sentences=[target])
        cfg = tiny_config(epochs=200, seed=0, learning_rate=0.005)
        params, vocab, curve = train(cfg, single, [target.domain])
        pred = predict_tags(params, encode_tokens(target.tokens, vocab))
        assert pred == target.tag_indices()


class TestCrossValidate:
    def test_fold_count_and_report_shape(self, synthetic_corpus):
        cfg = tiny_config(epochs=1, runs_per_fold=2, seed=1, batch_size=8)
        reports = cross_validate(cfg, synthetic_corpus)
        assert len(reports) == 3
        for fr in reports:
            assert len(fr.runs) == 2
            assert fr.runs[0]["seed"] == 1 and fr.runs[1]["seed"] == 2
            assert fr.mean_f1 == pytest.approx(
                sum(r["f1"] for r in fr.runs) / 2, abs=1e-12)
            assert 0.0 <= fr.mean_f1 <= 1.0

    def test_single_run_mean_is_that_run(self, synthetic_corpus):
        cfg = tiny_config(epochs=1, runs_per_fold=1, seed=0, batch_size=8)
        reports = cross_validate(cfg, synthetic_corpus)
        for fr in reports:
            assert fr.mean_f1 == fr.runs[0]["f1"]

    def test_needs_two_domains(self):
        corpus = make_synthetic_corpus(10, 1)
        with pytest.raises(DataError):
            cross_validate(tiny_config(), corpus)
