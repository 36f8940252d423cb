import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqtag.embeddings import EmbeddingTable, Vocabulary
from reqtag.lstm import lstm_states, lstm_step
from reqtag.network import (ModelDims, _attend, _decode_inference,
                            _decode_training, _encode, _pack,
                            batch_loss_and_grads, init_model, load_checkpoint,
                            param_blocks, predict_tags, save_checkpoint)
from crf_oracles import is_valid_bio

TINY = ModelDims(embedding_dim=4, h_enc=3, d_att=4, h_dec=3, d_tag=2)


@pytest.fixture
def tiny_model():
    return init_model(12, TINY, np.random.default_rng(42))


def _full(n, batch=1):
    """Packing of a batch whose rows all have n real positions."""
    return _pack([n] * batch)


def _unpack(packing, packed, width):
    """Packed rows put back at their (row, step) of a zero (B, T) batch."""
    steps = np.repeat(np.arange(len(packing.sizes)), packing.sizes)
    out = np.zeros((len(packing.lengths), width) + packed.shape[1:])
    out[packing.rows, steps] = packed
    return out


def _enc(params, rows, lengths=None):
    """Encoder output for a list of equal-width index rows, as (B, T, 2H)."""
    idx = np.array(rows)
    lengths = np.array([len(r) for r in rows] if lengths is None else lengths)
    packing = _pack(lengths)
    real = np.arange(idx.shape[1]) < lengths[:, None]
    enc, _ = _encode(params, packing.gather(idx[real]), packing, lstm_states)
    return _unpack(packing, enc, idx.shape[1])


class TestEncoder:
    def test_forward_half_is_causal(self, tiny_model):
        a = [2, 3, 4, 5, 6]
        b = [2, 3, 4, 7, 8]  # differs only after position 2
        enc_a = _enc(tiny_model, [a])[0]
        enc_b = _enc(tiny_model, [b])[0]
        h = TINY.h_enc
        np.testing.assert_array_equal(enc_a[:3, :h], enc_b[:3, :h])
        assert not np.array_equal(enc_a[3:, :h], enc_b[3:, :h])

    def test_backward_half_is_anticausal(self, tiny_model):
        a = [2, 3, 4, 5, 6]
        b = [9, 10, 4, 5, 6]  # differs only before position 2
        enc_a = _enc(tiny_model, [a])[0]
        enc_b = _enc(tiny_model, [b])[0]
        h = TINY.h_enc
        np.testing.assert_array_equal(enc_a[2:, h:], enc_b[2:, h:])

    def test_single_token_equals_direct_step(self, tiny_model):
        enc = _enc(tiny_model, [[5]])[0]
        x = tiny_model.embedding.matrix[5][None, :]
        z = np.zeros((1, TINY.h_enc))
        hf, _, _ = lstm_step(tiny_model.enc_fwd,
                             x @ tiny_model.enc_fwd.w_in.T + tiny_model.enc_fwd.b,
                             z, z)
        hb, _, _ = lstm_step(tiny_model.enc_bwd,
                             x @ tiny_model.enc_bwd.w_in.T + tiny_model.enc_bwd.b,
                             z, z)
        np.testing.assert_array_equal(enc[0], np.concatenate([hf[0], hb[0]]))

    def test_padded_batch_packs_real_positions_only(self, tiny_model):
        packing = _pack([2, 4])
        # the longer row ranks first; its steps 2 and 3 run alone
        assert packing.sizes == [2, 2, 1, 1]
        assert packing.lengths == [4, 2]
        assert packing.rows.tolist() == [1, 0, 1, 0, 1, 1]
        # the rows laid end to end: [2, 3] then [4, 5, 6, 7]
        tokens = packing.gather([2, 3, 4, 5, 6, 7])
        assert tokens.tolist() == [4, 2, 5, 3, 6, 7]
        np.testing.assert_array_equal(packing.rev[packing.rev], np.arange(6))
        enc, _ = _encode(tiny_model, tokens, packing, lstm_states)
        assert enc.shape == (6, 2 * TINY.h_enc)
        np.testing.assert_allclose(_unpack(packing, enc, 4)[0, :2],
                                   _enc(tiny_model, [[2, 3]])[0],
                                   rtol=1e-12, atol=1e-15)

    def test_length_exceeding_width_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            batch_loss_and_grads(tiny_model, np.array([[2, 3]]),
                                 np.array([[0, 0]]), [3])
        with pytest.raises(ValueError):
            batch_loss_and_grads(tiny_model, np.array([[2, 3]]),
                                 np.array([[0, 0]]), [0])


class TestAttention:
    def test_single_position_weight_is_one(self, tiny_model):
        enc = np.random.default_rng(0).normal(size=(1, 2 * TINY.h_enc))
        attended, (*_, v, weights) = _attend(tiny_model, enc, _full(1))
        np.testing.assert_allclose(weights[0], [[[1.0]]])
        np.testing.assert_allclose(attended, v)

    def test_weights_sum_to_one(self, tiny_model):
        enc = np.random.default_rng(1).normal(size=(5, 2 * TINY.h_enc))
        _, (*_, weights) = _attend(tiny_model, enc, _full(5))
        np.testing.assert_allclose(weights[0].sum(axis=-1), np.ones((1, 5)),
                                   atol=1e-9)

    def test_zero_keys_give_uniform_mean_of_values(self, tiny_model):
        tiny_model.attn_k[:] = 0.0
        enc = np.random.default_rng(2).normal(size=(4, 2 * TINY.h_enc))
        attended, (*_, v, weights) = _attend(tiny_model, enc, _full(4))
        np.testing.assert_allclose(weights[0], np.full((1, 4, 4), 0.25),
                                   atol=1e-12)
        np.testing.assert_allclose(attended, np.tile(v.mean(axis=0), (4, 1)),
                                   atol=1e-12)

    def test_rows_attend_only_to_their_own_positions(self, tiny_model):
        # rows of lengths 2 and 4: the short row's output is its output
        # alone, and each row's weights cover only its own positions;
        # weights come per run of equal-length rows, as (rows, n, n)
        rng = np.random.default_rng(3)
        short = rng.normal(size=(2, 2 * TINY.h_enc))
        long = rng.normal(size=(4, 2 * TINY.h_enc))
        packing = _pack([2, 4])
        enc = packing.gather(np.concatenate([short, long]))
        out, (*_, weights) = _attend(tiny_model, enc, packing)
        assert [w.shape for w in weights] == [(1, 4, 4), (1, 2, 2)]
        for w in weights:
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
        alone, _ = _attend(tiny_model, short, _full(2))
        np.testing.assert_allclose(_unpack(packing, out, 4)[0, :2], alone,
                                   rtol=1e-12, atol=1e-15)


class TestDecoder:
    def test_emissions_shape(self, tiny_model):
        attended = np.random.default_rng(0).normal(size=(5, TINY.d_att))
        out, _ = _decode_training(tiny_model, attended,
                                  np.array([0, 1, 2, 0, 1]), _full(5))
        assert out.shape == (5, 3)

    def test_teacher_forcing_is_causal(self, tiny_model):
        attended = np.random.default_rng(1).normal(size=(5, TINY.d_att))
        e1, _ = _decode_training(tiny_model, attended, [0, 1, 2, 0, 1], _full(5))
        e2, _ = _decode_training(tiny_model, attended, [0, 1, 0, 0, 1], _full(5))
        np.testing.assert_array_equal(e1[:3], e2[:3])
        assert not np.array_equal(e1[3:], e2[3:])

    def test_invalid_gold_tag_rejected(self, tiny_model):
        attended = np.zeros((2, TINY.d_att))
        with pytest.raises(ValueError):
            _decode_training(tiny_model, attended, [0, 5], _full(2))

    def test_inference_matches_training_on_greedy_path(self, tiny_model):
        attended = np.random.default_rng(2).normal(size=(4, TINY.d_att))
        e_inf, fed = _decode_inference(tiny_model, attended, _full(4))
        gold = np.append(fed[1:], 0)  # fed tags shifted back one
        e_train, _ = _decode_training(tiny_model, attended, gold, _full(4))
        np.testing.assert_array_equal(e_inf, e_train)

    def test_inference_deterministic(self, tiny_model):
        attended = np.random.default_rng(3).normal(size=(6, TINY.d_att))
        e1, _ = _decode_inference(tiny_model, attended, _full(6))
        e2, _ = _decode_inference(tiny_model, attended, _full(6))
        np.testing.assert_array_equal(e1, e2)

    def test_batch_inference_rows_match_each_row_alone(self, tiny_model):
        rng = np.random.default_rng(4)
        rows = [rng.normal(size=(n, TINY.d_att)) for n in (2, 3)]
        packing = _pack([2, 3])
        out, fed = _decode_inference(
            tiny_model, packing.gather(np.concatenate(rows)), packing)
        assert out.shape == (5, 3) and fed.shape == (5,)
        for r, x in enumerate(rows):
            alone, fed_alone = _decode_inference(tiny_model, x, _full(len(x)))
            at = packing.rows == r
            np.testing.assert_allclose(out[at], alone, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(fed[at], fed_alone)


class TestEndToEnd:
    def test_padding_invariance(self, tiny_model):
        # the same sentence encoded alone and right-padded must agree on
        # the real positions; beside a longer row, up to rounding
        idx = [2, 3, 4]
        enc_direct = _enc(tiny_model, [idx])[0]
        padded = _enc(tiny_model, [idx + [0, 0]], [3])
        np.testing.assert_array_equal(padded[0, :3], enc_direct)
        batched = _enc(tiny_model, [idx + [0, 0], [5, 6, 7, 8, 9]], [3, 5])
        np.testing.assert_allclose(batched[0, :3], enc_direct, rtol=1e-12,
                                   atol=1e-15)
        assert np.all(batched[0, 3:] == 0.0)

    def test_decode_never_illegal(self, tiny_model):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            idx = list(rng.integers(2, 12, size=n))
            tags = predict_tags(tiny_model, idx)
            assert is_valid_bio(tags)

    def test_checkpoint_round_trip_bit_exact(self, tiny_model, tmp_path):
        vocab = Vocabulary(
            token_to_index={f"w{i}": i for i in range(12)},
            index_to_token=[f"w{i}" for i in range(12)])
        path = tmp_path / "model.json"
        save_checkpoint(path, tiny_model, vocab, extra_config={"seed": 1})
        loaded, vocab2, config = load_checkpoint(path)
        assert config == {"seed": 1}
        assert vocab2.index_to_token == vocab.index_to_token
        orig_blocks = param_blocks(tiny_model)
        for name, arr in param_blocks(loaded).items():
            np.testing.assert_array_equal(arr, orig_blocks[name],
                                          err_msg=name)
        np.testing.assert_array_equal(loaded.embedding.matrix,
                                      tiny_model.embedding.matrix)


def _vocab(n):
    return Vocabulary(token_to_index={f"w{i}": i for i in range(n)},
                      index_to_token=[f"w{i}" for i in range(n)])


@pytest.fixture(scope="module")
def tiny_entries(tmp_path_factory):
    """The entries of a saved tiny checkpoint, as a name -> array dict."""
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_checkpoint(path, init_model(12, TINY, np.random.default_rng(42)),
                    _vocab(12), extra_config={"seed": 1})
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def _write_entries(path, entries):
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


def _rejected(path, *fragments):
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    for fragment in (str(path),) + fragments:
        assert fragment in str(exc.value)


class TestCheckpoint:
    def test_frozen_embedding_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.uniform(-1, 1, size=(12, TINY.embedding_dim))
        params = init_model(12, TINY, rng,
                            embedding=EmbeddingTable(matrix=matrix,
                                                     trainable=False))
        path = tmp_path / "frozen.model"
        save_checkpoint(path, params, _vocab(12))
        loaded, _, config = load_checkpoint(path)
        assert config == {}
        assert loaded.embedding.trainable is False
        np.testing.assert_array_equal(loaded.embedding.matrix, matrix)
        assert param_blocks(loaded).keys() == param_blocks(params).keys()
        for name, arr in param_blocks(params).items():
            np.testing.assert_array_equal(param_blocks(loaded)[name], arr,
                                          err_msg=name)

    def test_json_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"version": 1, "params": {}}),
                        encoding="utf-8")
        _rejected(path, "not an .npz archive", "no longer load")

    def test_npy_file_rejected(self, tmp_path):
        path = tmp_path / "model.npy"
        np.save(path, np.zeros(3))
        _rejected(path, "not an .npz archive")

    @pytest.mark.parametrize("name", ["header", "attn_q", "embedding"])
    def test_missing_entry(self, tiny_entries, tmp_path, name):
        entries = dict(tiny_entries)
        del entries[name]
        _write_entries(tmp_path / "model.json", entries)
        _rejected(tmp_path / "model.json", repr(name))

    def test_wrong_dtype(self, tiny_entries, tmp_path):
        entries = dict(tiny_entries)
        entries["transitions"] = entries["transitions"].astype(np.float32)
        _write_entries(tmp_path / "model.json", entries)
        _rejected(tmp_path / "model.json", "'transitions'", "float32")

    @pytest.mark.parametrize("change, fragment", [
        (lambda h: "{not json", "not valid JSON"),
        (lambda h: "[1, 2]", "not a JSON object"),
        (lambda h: {**h, "version": 1}, "version 1"),
        (lambda h: {**h, "version": 3}, "version 3"),
        (lambda h: {**h, "dims": {**h["dims"], "h_enc": -1}}, "'dims'"),
        (lambda h: {**h, "dims": {**h["dims"], "extra": 1}}, "'dims'"),
        (lambda h: {**h, "dims": {**h["dims"], "d_tag": 2.5}}, "'dims'"),
        (lambda h: {**h, "vocab": "w0 w1"}, "'vocab'"),
        (lambda h: {**h, "embedding_trainable": "yes"},
         "'embedding_trainable'"),
        (lambda h: {**h, "vocab": h["vocab"][:-1]},
         "'embedding' is float64 (12, 4), expected float64 (11, 4)"),
    ])
    def test_bad_header(self, tiny_entries, tmp_path, change, fragment):
        entries = dict(tiny_entries)
        header = change(json.loads(entries["header"].item()))
        entries["header"] = np.array(
            header if isinstance(header, str) else json.dumps(header))
        _write_entries(tmp_path / "model.json", entries)
        _rejected(tmp_path / "model.json", fragment)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_truncation_raises_value_error(self, tiny_entries, data):
        buf = io.BytesIO()
        np.savez(buf, **tiny_entries)
        blob = buf.getvalue()
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cut.model"
            path.write_bytes(blob[:cut])
            _rejected(path)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_block_shape_change_raises_value_error(self, tiny_entries,
                                                        data):
        entries = dict(tiny_entries)
        names = sorted(n for n in entries if n != "header")
        name = data.draw(st.sampled_from(names), label="block")
        shape = data.draw(
            st.lists(st.integers(0, 13), max_size=3).map(tuple)
            .filter(lambda s: s != entries[name].shape), label="shape")
        entries[name] = np.ones(shape)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            _write_entries(path, entries)
            _rejected(path, repr(name), str(shape))
