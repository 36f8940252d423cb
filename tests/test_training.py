import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqtag import crf, training
from reqtag.data import Corpus, DataError, TaggedSentence
from reqtag.embeddings import PAD_INDEX, build_vocabulary, encode_tokens
from reqtag.evaluation import mean_scores
from reqtag.network import (ModelDims, batch_loss_and_grads, init_model,
                            param_blocks, predict_tags, zero_grad_blocks)
from reqtag.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TrainConfig,
                             adam_step, clip_gradients, cross_validate,
                             pad_batch, train)
from conftest import make_synthetic_corpus
from crf_oracles import as_bio

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
        {"h_enc": 0},
        {"h_dec": 0},
        {"d_tag": 0},
        {"d_att": 0},
        {"embedding_dim": 2.5},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"learning_rate": "0.001"},
        {"grad_clip_norm": -1.0},
        {"grad_clip_norm": float("nan")},
        {"seed": 1.5},
        {"seed": True},
        {"seed": -1},
        {"freeze_embeddings": "no"},
        {"span_overlap_mode": "false"},
        {"glove_path": 7},
        {"glove_path": ""},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)

    def test_zero_clip_norm_turns_clipping_off(self):
        assert TrainConfig(grad_clip_norm=0.0).grad_clip_norm == 0.0
        grads = {"w": np.full(4, 10.0)}
        assert clip_gradients(grads, 0.0) == pytest.approx(20.0)
        np.testing.assert_array_equal(grads["w"], 10.0)


class TestPadBatch:
    def _sentences(self):
        return [
            TaggedSentence(app_id="a", tokens=["x", "y", "z"],
                           tags=["O", "B", "I"]),
            TaggedSentence(app_id="a", tokens=["x", "y", "z", "x", "y"],
                           tags=["O", "O", "O", "B", "O"]),
        ]

    @staticmethod
    def _rows(sents, vocab):
        return [(encode_tokens(s.tokens, vocab), s.tag_indices())
                for s in sents]

    def test_shapes_and_lengths(self):
        # the rows' encode_tokens and tag_indices, laid end to end in
        # input order
        sents = self._sentences()
        vocab = build_vocabulary(s.tokens for s in sents)
        tokens, tags, lengths = pad_batch(self._rows(sents, vocab))
        assert tokens.shape == tags.shape == (8,)
        assert lengths == [3, 5]
        assert tokens.tolist() == [i for s in sents
                                   for i in encode_tokens(s.tokens, vocab)]
        assert tags.tolist() == [t for s in sents for t in s.tag_indices()]

    def test_exact_fit_adds_no_padding(self):
        # rows of unequal lengths, either order: no position beyond the
        # rows' own tokens
        sents = self._sentences()
        vocab = build_vocabulary(s.tokens for s in sents)
        for batch in (sents, sents[::-1], sents[1:]):
            tokens, tags, lengths = pad_batch(self._rows(batch, vocab))
            assert len(tokens) == len(tags) == sum(lengths)
            assert PAD_INDEX not in tokens

    def test_padded_loss_equals_unpadded(self):
        # the batch's loss must equal the sum of the losses of each
        # sentence run alone
        sents = self._sentences()
        vocab = build_vocabulary(s.tokens for s in sents)
        params = init_model(len(vocab), ModelDims(
            embedding_dim=16, h_enc=8, d_att=8, h_dec=8, d_tag=4),
            np.random.default_rng(0))
        rows = self._rows(sents, vocab)
        batch_total, _ = batch_loss_and_grads(params, *pad_batch(rows))
        alone_total = sum(batch_loss_and_grads(params, *pad_batch([row]))[0]
                          for row in rows)
        assert batch_total == pytest.approx(alone_total, abs=1e-9)


# rows of (token, tag) pairs over the 8-word vocabulary of TestAdam's
# model; UNK (1) is drawn at real positions too, PAD (0) never: no input
# path gives the core PAD
TAGGED_ROWS = st.lists(
    st.lists(st.tuples(st.integers(1, 7), st.integers(0, 2)),
             min_size=1, max_size=7),
    min_size=1, max_size=4)


class TestAdam:
    def _model(self):
        return init_model(8, ModelDims(embedding_dim=4, h_enc=3, d_att=4,
                                       h_dec=3, d_tag=2),
                          np.random.default_rng(1))

    @staticmethod
    def _moments(params):
        return {name: (np.zeros_like(a), np.zeros_like(a))
                for name, a in param_blocks(params).items()}

    def test_zero_gradient_is_identity(self):
        params = self._model()
        before = {k: v.copy() for k, v in param_blocks(params).items()}
        moments = self._moments(params)
        adam_step(params, zero_grad_blocks(params), moments, 1, lr=0.1)
        for name, arr in param_blocks(params).items():
            np.testing.assert_array_equal(arr, before[name], err_msg=name)
            for moment in moments[name]:
                np.testing.assert_array_equal(moment, 0.0, err_msg=name)

    def test_first_step_magnitude(self):
        # at t=1 with g=1: m_hat=1, v_hat=1, so the step is lr/(1+eps)
        params = self._model()
        grads = zero_grad_blocks(params)
        grads["emission_b"][:] = 1.0
        before = params.blocks["emission_b"].copy()
        lr = 0.001
        adam_step(params, grads, self._moments(params), 1, lr=lr)
        expected = before - lr * 1.0 / (1.0 + ADAM_EPS)
        np.testing.assert_allclose(params.blocks["emission_b"], expected,
                                   atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(rows=TAGGED_ROWS, seed=st.integers(0, 2 ** 16))
    def test_clamped_transitions_and_pad_row_get_zero_gradient(self, rows,
                                                               seed):
        # adam_step moves no entry whose gradient is always 0.0; these
        # are the entries that must stay fixed: the forbidden transitions
        # and every embedding row that no input position holds, the pad
        # row among them
        params = self._model()
        free = ~crf.forbidden_mask()
        params.blocks["transitions"][free] = np.random.default_rng(seed).normal(
            size=free.sum())
        tokens = np.array([token for row in rows for token, _ in row])
        tags = np.array([tag for row in rows
                         for tag in as_bio([tag for _, tag in row])])
        _, grads = batch_loss_and_grads(params, tokens, tags,
                                        [len(row) for row in rows])
        np.testing.assert_array_equal(
            grads["transitions"][crf.forbidden_mask()], 0.0)
        unheld = np.ones(len(grads["embedding"]), dtype=bool)
        unheld[tokens] = False
        assert unheld[PAD_INDEX]
        np.testing.assert_array_equal(grads["embedding"][unheld], 0.0)

    def test_training_keeps_clamped_transitions_and_pad_row(
            self, synthetic_corpus):
        cfg = tiny_config(epochs=4, seed=4, batch_size=16)
        params, _, _ = train(cfg, synthetic_corpus, ["dom0", "dom1"])
        np.testing.assert_array_equal(
            params.blocks["transitions"][crf.forbidden_mask()], crf.FORBIDDEN_SCORE)
        np.testing.assert_array_equal(params.blocks["embedding"][PAD_INDEX], 0.0)

    @staticmethod
    def _reference_step(params, grads, moments, t, lr):
        """Adam out of place, with new moment arrays at each step."""
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        for name, theta in param_blocks(params).items():
            g = grads[name]
            m, v = moments[name]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            moments[name] = m, v
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta -= lr * m_hat / (np.sqrt(v_hat) + eps)

    @pytest.mark.parametrize("trainable", [True, False])
    def test_in_place_update_is_bit_identical(self, trainable):
        params = self._model()
        params.embedding_trainable = trainable
        ref = self._model()
        ref.embedding_trainable = trainable
        moments = self._moments(params)
        ref_moments = self._moments(ref)
        rng = np.random.default_rng(9)
        for t in range(1, 7):
            # every entry moves, forbidden transitions and the pad row
            # too: adam_step, like this reference, clamps nothing
            grads = {k: rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]),
                                   size=a.shape)
                     for k, a in param_blocks(params).items()}
            adam_step(params, grads, moments, t, lr=0.01)
            self._reference_step(ref, grads, ref_moments, t, lr=0.01)
            for name, arr in param_blocks(ref).items():
                np.testing.assert_array_equal(param_blocks(params)[name], arr,
                                              err_msg=name)
                for got, want in zip(moments[name], ref_moments[name]):
                    np.testing.assert_array_equal(got, want, err_msg=name)
        np.testing.assert_array_equal(params.blocks["embedding"],
                                      ref.blocks["embedding"])
        assert ("embedding" in moments) == trainable

    def test_step_number_counts_batches_over_epochs(self, synthetic_corpus,
                                                   monkeypatch):
        # bias correction needs t = 1, 2, ..., k over every batch of every
        # epoch: a count restarted each epoch would redo the large early
        # corrections, and one from 0 would divide by 1 - b1 ** 0 = 0
        steps = []

        def spy(params, grads, moments, t, lr):
            steps.append(t)
            return adam_step(params, grads, moments, t, lr)

        monkeypatch.setattr(training, "adam_step", spy)
        train(tiny_config(epochs=2, batch_size=8), synthetic_corpus,
              ["dom0", "dom1"])
        n = sum(s.domain in ("dom0", "dom1") for s in synthetic_corpus.sentences)
        assert steps == list(range(1, 2 * -(-n // 8) + 1))

    def test_non_finite_gradient_names_block(self):
        params = self._model()
        grads = zero_grad_blocks(params)
        grads["attn_q"][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="attn_q"):
            adam_step(params, grads, self._moments(params), 1, lr=0.1)


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

    def test_sentences_are_encoded_once_per_run(self, synthetic_corpus,
                                                monkeypatch):
        cfg = tiny_config(epochs=3, seed=4, batch_size=8)
        domains = synthetic_corpus.domains
        sentences = [synthetic_corpus.sentences[i]
                     for d in ("dom0", "dom1") for i in domains[d]]
        # the epoch loop as it ran when each batch's sentences were
        # encoded again every epoch
        rng = np.random.default_rng(cfg.seed)
        vocab = build_vocabulary(s.tokens for s in sentences)
        ref = init_model(len(vocab), cfg.dims(), rng)
        moments = {name: (np.zeros_like(a), np.zeros_like(a))
                   for name, a in param_blocks(ref).items()}
        order = np.arange(len(sentences))
        ref_curve, steps = [], 0
        for _epoch in range(cfg.epochs):
            rng.shuffle(order)
            epoch_loss = 0.0
            for start in range(0, len(order), cfg.batch_size):
                batch = [sentences[i]
                         for i in order[start:start + cfg.batch_size]]
                loss, grads = batch_loss_and_grads(
                    ref,
                    np.concatenate([encode_tokens(s.tokens, vocab)
                                    for s in batch]),
                    np.concatenate([s.tag_indices() for s in batch]),
                    [len(s.tokens) for s in batch])
                for g in grads.values():
                    g *= 1.0 / len(batch)
                clip_gradients(grads, cfg.grad_clip_norm)
                steps += 1
                adam_step(ref, grads, moments, steps, cfg.learning_rate)
                epoch_loss += loss
            ref_curve.append(epoch_loss / len(sentences))

        calls = []

        def spy(tokens, vocab):
            calls.append(tokens)
            return encode_tokens(tokens, vocab)

        monkeypatch.setattr(training, "encode_tokens", spy)
        params, _, curve = train(cfg, synthetic_corpus, ["dom0", "dom1"])
        assert len(calls) == len(sentences)  # not once per epoch as well
        assert curve == ref_curve
        for name, arr in param_blocks(ref).items():
            np.testing.assert_array_equal(param_blocks(params)[name], arr,
                                          err_msg=name)

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
        initial = random_embeddings(len(vocab), cfg.embedding_dim, rng)
        np.testing.assert_array_equal(params.blocks["embedding"], initial)

    def test_glove_file_without_vocabulary_words(self, synthetic_corpus,
                                                tmp_path):
        # every word of the file is out of vocabulary: training would run
        # on random rows only, so it stops instead
        glove = tmp_path / "glove.txt"
        glove.write_text("".join(f"zz{k} " + " ".join(["0.5"] * 16) + "\n"
                                 for k in range(5)), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"{glove}: no word of the training vocabulary has a vector "
                f"in this file")):
            train(tiny_config(epochs=1, glove_path=str(glove)),
                  synthetic_corpus, ["dom0"])

    def test_glove_file_changes_only_its_rows(self, synthetic_corpus,
                                              tmp_path, monkeypatch):
        # with adam_step a no-op train returns the model it drew: a GloVe
        # file changes no block but the embedding, and in the embedding
        # only the rows of the vocabulary words it lists
        monkeypatch.setattr(training, "adam_step", lambda *args: None)
        dim = TINY_CFG["embedding_dim"]
        glove = tmp_path / "glove.txt"
        glove.write_text("".join(f"{w} " + " ".join(["0.5"] * dim) + "\n"
                                 for w in ("add", "dark", "zz")),
                         encoding="utf-8")
        cfg = dict(epochs=1, seed=9, batch_size=8)
        plain, vocab, _ = train(tiny_config(**cfg), synthetic_corpus, ["dom0"])
        read, read_vocab, _ = train(tiny_config(**cfg, glove_path=str(glove)),
                                    synthetic_corpus, ["dom0"])
        assert read_vocab == vocab
        assert list(read.blocks) == list(plain.blocks)
        for name, arr in plain.blocks.items():
            if name != "embedding":
                np.testing.assert_array_equal(read.blocks[name], arr,
                                              err_msg=name)
        listed = [vocab.token_to_index[w] for w in ("add", "dark")]
        others = np.setdiff1d(np.arange(len(vocab)), listed)
        np.testing.assert_array_equal(read.blocks["embedding"][listed], 0.5)
        assert not np.any(plain.blocks["embedding"][listed] == 0.5)
        np.testing.assert_array_equal(read.blocks["embedding"][others],
                                      plain.blocks["embedding"][others])

    @pytest.mark.parametrize("seed", [1, 7])
    def test_glove_rows_overwrite_the_seeded_draw(self, synthetic_corpus,
                                                  tmp_path, seed):
        """A frozen table is the same-seed random_embeddings draw with the
        file's rows written over it: a repeated word keeps its last
        vector, and every word the file does not list, pad and unk
        included, keeps its drawn row."""
        from reqtag.embeddings import random_embeddings
        dim = TINY_CFG["embedding_dim"]
        listing = [("add", 0.5), ("dark", -0.25), ("zz", 1.0), ("add", 2.0)]
        glove = tmp_path / "glove.txt"
        glove.write_text("".join(f"{w} " + " ".join([repr(v)] * dim) + "\n"
                                 for w, v in listing), encoding="utf-8")
        cfg = tiny_config(epochs=1, seed=seed, batch_size=8,
                          glove_path=str(glove), freeze_embeddings=True)
        params, vocab, _ = train(cfg, synthetic_corpus, ["dom0"])
        expected = random_embeddings(len(vocab), dim,
                                     np.random.default_rng(seed))
        for word, value in listing:
            if word in vocab.token_to_index:
                expected[vocab.token_to_index[word]] = value
        assert expected[vocab.token_to_index["add"]][0] == 2.0
        np.testing.assert_array_equal(params.blocks["embedding"], expected)

    def test_overfit_single_sentence(self):
        corpus = make_synthetic_corpus(8, 1, seed=4)
        target = next(s for s in corpus.sentences if "B" in s.tags)
        single = Corpus(sentences=[target])
        cfg = tiny_config(epochs=200, seed=0, learning_rate=0.005)
        params, vocab, curve = train(cfg, single, [target.domain])
        pred = predict_tags(params, [encode_tokens(target.tokens, vocab)])[0]
        assert pred == target.tag_indices()


class TestCrossValidate:
    def test_fold_count_and_report_shape(self, synthetic_corpus):
        cfg = tiny_config(epochs=1, runs_per_fold=2, seed=1, batch_size=8)
        folds = cross_validate(cfg, synthetic_corpus)
        assert list(folds) == ["dom0", "dom1", "dom2"]
        for runs in folds.values():
            assert len(runs) == 2
            assert runs[0]["seed"] == 1 and runs[1]["seed"] == 2
            mean_f1 = mean_scores(runs)["f1"]
            assert mean_f1 == pytest.approx(
                sum(r["f1"] for r in runs) / 2, abs=1e-12)
            assert 0.0 <= mean_f1 <= 1.0

    def test_single_run_mean_is_that_run(self, synthetic_corpus):
        cfg = tiny_config(epochs=1, runs_per_fold=1, seed=0, batch_size=8)
        folds = cross_validate(cfg, synthetic_corpus)
        for runs in folds.values():
            assert mean_scores(runs)["f1"] == runs[0]["f1"]

    def test_needs_two_domains(self):
        corpus = make_synthetic_corpus(10, 1)
        with pytest.raises(DataError):
            cross_validate(tiny_config(), corpus)
