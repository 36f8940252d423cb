import io
import json
import struct
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqtag import crf
from reqtag.embeddings import PAD_TOKEN, UNK_TOKEN, Vocabulary
from reqtag.lstm import lstm_step
from reqtag.network import (_FEED_MASK, BLOCKS, ModelDims, _attend,
                            _decode_inference, _decode_training, _encode,
                            _gold_feed, _pack, init_model, load_checkpoint,
                            param_blocks, predict_tags, save_checkpoint)
import per_sentence
from crf_oracles import is_valid_bio, random_bio

TINY = ModelDims(embedding_dim=4, h_enc=3, d_att=4, h_dec=3, d_tag=2)


@pytest.fixture
def tiny_model():
    return init_model(12, TINY, np.random.default_rng(42))


def _full(n, batch=1):
    """Packing of a batch whose rows all have n real positions."""
    return _pack([n] * batch)


def _input_rows(packing, lengths):
    """The input row of each packed position, for input row lengths."""
    return np.searchsorted(np.cumsum(lengths), packing.src, side="right")


def _unpack(packing, lengths, packed, width):
    """Packed rows put back at their (row, step) of a zero (B, T) batch."""
    steps = np.repeat(np.arange(len(packing.sizes)), packing.sizes)
    out = np.zeros((len(packing.lengths), width) + packed.shape[1:])
    out[_input_rows(packing, lengths), steps] = packed
    return out


def _fed(emissions, packing):
    """The tag the greedy decoder fed at each packed position, rebuilt
    from its emissions: START at step 0, then the best legal tag of the
    row's step before. The reference for _decode_inference's own tags."""
    fed = np.full(len(emissions), crf.START)
    for p, q in enumerate(packing.prev, start=packing.sizes[0]):
        fed[p] = np.argmax(emissions[q] + _FEED_MASK[fed[q]])
    return fed


def _enc(params, rows, lengths=None):
    """Encoder output for a list of equal-width index rows, as (B, T, 2H)."""
    idx = np.array(rows)
    lengths = np.array([len(r) for r in rows] if lengths is None else lengths)
    packing = _pack(lengths)
    real = np.arange(idx.shape[1]) < lengths[:, None]
    enc, _ = _encode(params, idx[real][packing.src], packing, keep=False)
    return _unpack(packing, lengths, enc, idx.shape[1])


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
        x = tiny_model.blocks["embedding"][5][None, :]
        z = np.zeros((1, TINY.h_enc))
        p = tiny_model.blocks
        hf, _, _ = lstm_step(p["enc_fwd.w_h"],
                             x @ p["enc_fwd.w_in"].T + p["enc_fwd.b"], z, z)
        hb, _, _ = lstm_step(p["enc_bwd.w_h"],
                             x @ p["enc_bwd.w_in"].T + p["enc_bwd.b"], z, z)
        np.testing.assert_array_equal(enc[0], np.concatenate([hf[0], hb[0]]))

    def test_padded_batch_packs_real_positions_only(self, tiny_model):
        packing = _pack([2, 4])
        # the longer row ranks first; its steps 2 and 3 run alone
        assert packing.sizes == [2, 2, 1, 1]
        assert packing.lengths == [4, 2]
        assert _input_rows(packing, [2, 4]).tolist() == [1, 0, 1, 0, 1, 1]
        # the rows laid end to end: [2, 3] then [4, 5, 6, 7]
        tokens = np.array([2, 3, 4, 5, 6, 7])[packing.src]
        assert tokens.tolist() == [4, 2, 5, 3, 6, 7]
        np.testing.assert_array_equal(packing.rev[packing.rev], np.arange(6))
        enc, _ = _encode(tiny_model, tokens, packing, keep=False)
        assert enc.shape == (6, 2 * TINY.h_enc)
        np.testing.assert_allclose(_unpack(packing, [2, 4], enc, 4)[0, :2],
                                   _enc(tiny_model, [[2, 3]])[0],
                                   rtol=1e-12, atol=1e-15)


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
        tiny_model.blocks["attn_k"][:] = 0.0
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
        enc = np.concatenate([short, long])[packing.src]
        out, (*_, weights) = _attend(tiny_model, enc, packing)
        assert [w.shape for w in weights] == [(1, 4, 4), (1, 2, 2)]
        for w in weights:
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
        alone, _ = _attend(tiny_model, short, _full(2))
        np.testing.assert_allclose(_unpack(packing, [2, 4], out, 4)[0, :2], alone,
                                   rtol=1e-12, atol=1e-15)


class TestDecoder:
    def test_emissions_shape(self, tiny_model):
        attended = np.random.default_rng(0).normal(size=(5, TINY.d_att))
        fed = _gold_feed(np.array([0, 1, 2, 0, 1]), _full(5))
        out, _ = _decode_training(tiny_model, attended, fed, _full(5))
        assert out.shape == (5, 3)

    def test_teacher_forcing_is_causal(self, tiny_model):
        attended = np.random.default_rng(1).normal(size=(5, TINY.d_att))
        packing = _full(5)
        e1, _ = _decode_training(tiny_model, attended, _gold_feed(
            np.array([0, 1, 2, 0, 1]), packing), packing)
        e2, _ = _decode_training(tiny_model, attended, _gold_feed(
            np.array([0, 1, 0, 0, 1]), packing), packing)
        np.testing.assert_array_equal(e1[:3], e2[:3])
        assert not np.array_equal(e1[3:], e2[3:])

    def test_inference_matches_training_on_greedy_path(self, tiny_model):
        attended = np.random.default_rng(2).normal(size=(4, TINY.d_att))
        e_inf, fed, _ = _decode_inference(tiny_model, attended, _full(4))
        e_train, _ = _decode_training(tiny_model, attended, fed, _full(4))
        np.testing.assert_array_equal(e_inf, e_train)
        np.testing.assert_array_equal(fed, _fed(e_inf, _full(4)))

    def test_inference_deterministic(self, tiny_model):
        attended = np.random.default_rng(3).normal(size=(6, TINY.d_att))
        e1, fed1, _ = _decode_inference(tiny_model, attended, _full(6))
        e2, fed2, _ = _decode_inference(tiny_model, attended, _full(6))
        np.testing.assert_array_equal(e1, e2)
        np.testing.assert_array_equal(fed1, fed2)

    def test_batch_inference_rows_match_each_row_alone(self, tiny_model):
        rng = np.random.default_rng(4)
        rows = [rng.normal(size=(n, TINY.d_att)) for n in (2, 3)]
        packing = _pack([2, 3])
        out, fed, _ = _decode_inference(
            tiny_model, np.concatenate(rows)[packing.src], packing)
        assert out.shape == (5, 3)
        np.testing.assert_array_equal(fed, _fed(out, packing))
        for r, x in enumerate(rows):
            alone, fed_alone, _ = _decode_inference(tiny_model, x,
                                                    _full(len(x)))
            at = _input_rows(packing, [2, 3]) == r
            np.testing.assert_allclose(out[at], alone, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(fed[at], fed_alone)

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 8), min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_feed_seam_on_packed_batches(self, lengths, seed):
        # the tags _decode_inference returns are the ones it fed: fed back
        # to _decode_training they give its emissions bit for bit, they
        # follow from those emissions and _FEED_MASK, and each row's are
        # the per-sentence reference's greedy feed; _gold_feed is that
        # reference's feed of the gold tags
        tiny_model = init_model(12, TINY, np.random.default_rng(42))
        rng = np.random.default_rng(seed)
        rows = [rng.normal(size=(n, TINY.d_att)) for n in lengths]
        golds = [random_bio(rng, n) for n in lengths]
        packing = _pack(lengths)
        attended = np.concatenate(rows)[packing.src]
        emissions, fed, _ = _decode_inference(tiny_model, attended, packing)
        again, _ = _decode_training(tiny_model, attended, fed, packing)
        np.testing.assert_array_equal(again, emissions)
        np.testing.assert_array_equal(fed, _fed(emissions, packing))
        gold_fed = _gold_feed(np.concatenate(golds)[packing.src], packing)
        at = _input_rows(packing, lengths)
        for r, (x, gold) in enumerate(zip(rows, golds)):
            greedy = per_sentence.decode(tiny_model, x)[1][2]
            assert fed[at == r].tolist() == greedy
            teacher = per_sentence.decode(tiny_model, x, gold)[1][2]
            assert gold_fed[at == r].tolist() == teacher

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 8), min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_greedy_loop_keeps_teacher_forced_caches(self, lengths, seed):
        # the greedy loop with a cache list keeps what _decode_training
        # keeps when fed the greedy tags: one pass gives training's
        # backward inputs for the decoder's own feed
        tiny_model = init_model(12, TINY, np.random.default_rng(42))
        rng = np.random.default_rng(seed)
        rows = [rng.normal(size=(n, TINY.d_att)) for n in lengths]
        packing = _pack(lengths)
        attended = np.concatenate(rows)[packing.src]
        kept = []
        emissions, fed, hs = _decode_inference(tiny_model, attended, packing,
                                               caches=kept)
        again, (_, hs_again, caches, _, _) = _decode_training(
            tiny_model, attended, fed, packing)
        np.testing.assert_array_equal(again, emissions)
        np.testing.assert_array_equal(hs_again, hs)
        assert len(kept) == len(caches) == len(packing.sizes)
        for step, step_again in zip(kept, caches):
            assert len(step) == len(step_again)
            for arr, arr_again in zip(step, step_again):
                np.testing.assert_array_equal(arr, arr_again)


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
            tags = predict_tags(tiny_model, [idx])[0]
            assert is_valid_bio(tags)

    def test_checkpoint_round_trip_bit_exact(self, tiny_model, tmp_path):
        vocab = _vocab(12)
        path = tmp_path / "model.json"
        save_checkpoint(path, tiny_model, vocab, extra_config={"seed": 1})
        loaded, vocab2, config = load_checkpoint(path)
        assert config == {"seed": 1}
        assert vocab2.index_to_token == vocab.index_to_token
        orig_blocks = param_blocks(tiny_model)
        for name, arr in param_blocks(loaded).items():
            np.testing.assert_array_equal(arr, orig_blocks[name],
                                          err_msg=name)
        np.testing.assert_array_equal(loaded.blocks["embedding"],
                                      tiny_model.blocks["embedding"])


def _vocab(n):
    """The reserved pair, then n - 2 made-up words."""
    words = [PAD_TOKEN, UNK_TOKEN] + [f"w{i}" for i in range(2, n)]
    return Vocabulary(token_to_index={w: i for i, w in enumerate(words)},
                      index_to_token=words)


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
        params = init_model(12, TINY, rng, trainable=False)
        matrix = rng.uniform(-1, 1, size=(12, TINY.embedding_dim))
        params.blocks["embedding"] = matrix
        path = tmp_path / "frozen.model"
        save_checkpoint(path, params, _vocab(12))
        loaded, _, config = load_checkpoint(path)
        assert config == {}
        assert loaded.embedding_trainable is False
        np.testing.assert_array_equal(loaded.blocks["embedding"], matrix)
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
        pytest.param(lambda h: {**h, "vocab": h["vocab"][:-1] + ["w2"]},
                     "bad header field 'vocab'", id="vocab-repeats-a-token"),
        pytest.param(lambda h: {**h, "vocab": ["w0"] + h["vocab"][1:]},
                     "bad header field 'vocab'", id="vocab-without-pad-first"),
        (lambda h: {**h, "embedding_trainable": "yes"},
         "'embedding_trainable'"),
        (lambda h: {**h, "vocab": h["vocab"][:-1]},
         "'embedding' is float64 (12, 4), expected float64 (11, 4)"),
        # shapes come from the dims alone: nothing that size is allocated
        (lambda h: {**h, "dims": {**h["dims"], "embedding_dim": 10 ** 15}},
         "'embedding' is float64 (12, 4), expected float64 "
         "(12, 1000000000000000)"),
    ])
    def test_bad_header(self, tiny_entries, tmp_path, change, fragment):
        entries = dict(tiny_entries)
        header = change(json.loads(entries["header"].item()))
        entries["header"] = np.array(
            header if isinstance(header, str) else json.dumps(header))
        _write_entries(tmp_path / "model.json", entries)
        _rejected(tmp_path / "model.json", fragment)

    def test_header_that_is_a_number_array(self, tiny_entries, tmp_path):
        entries = dict(tiny_entries)
        entries["header"] = np.array([1.0, 2.0])
        _write_entries(tmp_path / "model.json", entries)
        _rejected(tmp_path / "model.json", "header is not a string")

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
    def test_every_flipped_data_byte_raises_value_error(self, tiny_entries,
                                                        data):
        # zipfile's CRC-32 of an entry refuses a flip in its array data
        buf = io.BytesIO()
        np.savez(buf, **tiny_entries)
        blob = bytearray(buf.getvalue())
        name = data.draw(st.sampled_from(sorted(tiny_entries)), label="entry")
        with zipfile.ZipFile(buf) as archive:
            info = archive.getinfo(name + ".npy")
        # the entry's local header, then its .npy bytes: array data last
        start = info.header_offset + 30 + sum(struct.unpack(
            "<HH", blob[info.header_offset + 26:info.header_offset + 30]))
        end = start + info.file_size
        at = data.draw(st.integers(end - tiny_entries[name].nbytes, end - 1),
                       label="at")
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flipped.model"
            path.write_bytes(bytes(blob))
            _rejected(path, repr(name))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_loaded_blocks_are_contiguous_writable_float64(
            self, tiny_entries, tmp_path, order):
        # a block an archive stores in Fortran order loads C-contiguous too
        path = tmp_path / "model.model"
        _write_entries(path, {name: np.asarray(arr, order=order)
                              for name, arr in tiny_entries.items()})
        params, _, _ = load_checkpoint(path)
        blocks = param_blocks(params)
        assert blocks.keys() == tiny_entries.keys() - {"header"}
        for name, arr in blocks.items():
            assert arr.flags.c_contiguous and arr.flags.writeable, name
            assert arr.dtype == np.float64, name
            np.testing.assert_array_equal(arr, tiny_entries[name],
                                          err_msg=name)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.model", tmp_path / "second.model"
        save_checkpoint(first, init_model(12, TINY, np.random.default_rng(3)),
                        _vocab(12), extra_config={"seed": 1})
        save_checkpoint(second, *load_checkpoint(first))
        assert second.read_bytes() == first.read_bytes()

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


def _drawn_by_hand(vocab_size, dims, seed):
    """The blocks init_model makes from default_rng(seed), written out:
    name -> array in param_blocks order, with the draws taken in the
    order embedding, enc_fwd, enc_bwd, attn_q/k/v, tag_embedding, dec,
    emission_w, emission_b. Returns the blocks and the generator after
    the last draw."""
    rng = np.random.default_rng(seed)

    def uniform(k, *shape):
        return rng.uniform(-k, k, size=shape)

    def cell(n_in, hidden):
        k = 1.0 / np.sqrt(hidden)
        w_in, w_h, b = (uniform(k, 4 * hidden, n_in),
                        uniform(k, 4 * hidden, hidden), uniform(k, 4 * hidden))
        b[hidden:2 * hidden] = 1.0  # the forget gate's bias
        return {"w_in": w_in, "w_h": w_h, "b": b}

    drawn = {"embedding": uniform(0.25, vocab_size, dims.embedding_dim)}
    drawn["embedding"][0] = 0.0  # the pad row
    cells = {"enc_fwd": cell(dims.embedding_dim, dims.h_enc),
             "enc_bwd": cell(dims.embedding_dim, dims.h_enc)}
    ka = 1.0 / np.sqrt(2 * dims.h_enc)
    for name in ("attn_q", "attn_k", "attn_v"):
        drawn[name] = uniform(ka, dims.d_att, 2 * dims.h_enc)
    drawn["tag_embedding"] = uniform(1.0 / np.sqrt(dims.d_tag), crf.N_STATES,
                                     dims.d_tag)
    cells["dec"] = cell(dims.d_att + dims.d_tag, dims.h_dec)
    ke = 1.0 / np.sqrt(dims.h_dec)
    drawn["emission_w"] = uniform(ke, 3, dims.h_dec)
    drawn["emission_b"] = uniform(ke, 3)
    transitions = np.zeros((crf.N_STATES, crf.N_STATES))
    transitions[crf.forbidden_mask()] = crf.FORBIDDEN_SCORE
    blocks = {"embedding": drawn["embedding"]}
    for prefix in ("enc_fwd", "enc_bwd", "dec"):
        blocks.update({f"{prefix}.{k}": a for k, a in cells[prefix].items()})
    for name in ("attn_q", "attn_k", "attn_v", "tag_embedding", "emission_w",
                 "emission_b"):
        blocks[name] = drawn[name]
    blocks["transitions"] = transitions
    return blocks, rng


class TestBlockTable:
    """What the list of parameter blocks must keep: the arrays a seed
    draws, their order, and a checkpoint's entry order."""

    @pytest.mark.parametrize("vocab_size, dims", [
        (12, TINY), (7, ModelDims(embedding_dim=5, h_enc=2, d_att=3, h_dec=4,
                                  d_tag=6))])
    @pytest.mark.parametrize("seed", [0, 42])
    def test_seed_draws_the_same_blocks(self, vocab_size, dims, seed):
        rng = np.random.default_rng(seed)
        blocks = param_blocks(init_model(vocab_size, dims, rng))
        expected, hand_rng = _drawn_by_hand(vocab_size, dims, seed)
        assert list(blocks) == list(expected)
        for name, arr in expected.items():
            assert blocks[name].shape == arr.shape, name
            np.testing.assert_array_equal(blocks[name], arr, err_msg=name)
        assert rng.random() == hand_rng.random()  # and nothing more drawn

    @pytest.mark.parametrize("trainable", [True, False])
    def test_checkpoint_entries_in_block_order(self, tmp_path, trainable):
        rng = np.random.default_rng(4)
        params = init_model(12, TINY, rng, trainable=trainable)
        params.blocks["embedding"] = rng.uniform(
            -1, 1, size=(12, TINY.embedding_dim))
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, _vocab(12))
        with zipfile.ZipFile(path) as archive:
            names = [n.removesuffix(".npy") for n in archive.namelist()]
        # the embedding is the first entry, trainable or not
        assert names == ["header", *BLOCKS]
        assert ("embedding" in param_blocks(params)) is trainable
