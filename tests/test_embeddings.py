import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reqtag.data import DataError, clean_tokens
from reqtag.embeddings import (PAD_INDEX, UNK_INDEX, build_vocabulary,
                               encode_tokens, load_glove, random_embeddings)
from reqtag.network import (ModelDims, init_model, load_checkpoint,
                            save_checkpoint)


class TestBuildVocabulary:
    def test_first_occurrence_order(self):
        vocab = build_vocabulary([["a", "b"], ["b", "c"]])
        assert vocab.token_to_index == {"<pad>": 0, "<unk>": 1,
                                       "a": 2, "b": 3, "c": 4}

    def test_duplicates_collapse(self):
        vocab = build_vocabulary([["x"] * 50, ["x", "x"]])
        assert len(vocab) == 3

    def test_inverse_maps(self):
        vocab = build_vocabulary([["a", "b", "c"]])
        for tok, idx in vocab.token_to_index.items():
            assert vocab.index_to_token[idx] == tok


class TestEncodeTokens:
    def test_known_and_unknown(self):
        vocab = build_vocabulary([["a"]])
        assert encode_tokens(["a", "zzz"], vocab) == [2, UNK_INDEX]

    def test_empty(self):
        vocab = build_vocabulary([["a"]])
        assert encode_tokens([], vocab) == []

    def test_round_trip_known_tokens(self):
        vocab = build_vocabulary([["alpha", "beta", "gamma"]])
        tokens = ["beta", "gamma", "alpha"]
        assert [vocab.index_to_token[i]
                for i in encode_tokens(tokens, vocab)] == tokens

    def test_never_pad_index(self):
        vocab = build_vocabulary([["a", "b"]])
        assert PAD_INDEX not in encode_tokens(["a", "b", "weird"], vocab)


# any text, the reserved tokens' spellings often among it
TEXT = st.one_of(st.text(), st.lists(st.sampled_from(
    ["<pad>", "<PAD>", "<unk>", "pad", "add", "dark", "mode", "'", "<", ">"]),
    max_size=6).map(" ".join))


@settings(max_examples=100, deadline=None)
@example(texts=["<pad> add", "<PAD>"], text="<pad>", saved=False)
@example(texts=["<pad> add", "<PAD>"], text="<PAD>", saved=True)
@example(texts=["<unk> <pad>"], text="<unk> <pad> <PAD>", saved=True)
@given(texts=st.lists(TEXT, max_size=4), text=TEXT, saved=st.booleans())
def test_no_text_encodes_to_pad(texts, text, saved):
    # the core's input contract: a review's tokens are vocabulary words
    # or UNK, never PAD, for a vocabulary built from cleaned texts (as
    # train builds one) or read back from a checkpoint; a corpus line
    # holding the token <pad> is refused (tests/test_data.py)
    vocab = build_vocabulary(clean_tokens(t) for t in texts)
    if saved:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.npz"
            params = init_model(len(vocab), ModelDims(2, 1, 1, 1, 1),
                                np.random.default_rng(0))
            save_checkpoint(path, params, vocab)
            _, loaded, _ = load_checkpoint(path)
        assert loaded == vocab
        vocab = loaded
    assert PAD_INDEX not in encode_tokens(clean_tokens(text), vocab)


def _overlay(table, rows):
    """The table with the parsed rows written over it, as train does."""
    for idx, vector in rows.items():
        table[idx] = vector
    return table


class TestLoadGlove:
    def _write(self, tmp_path, lines):
        path = tmp_path / "glove.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def _assert_rows(self, rows, expected):
        """rows holds exactly the expected {index: vector}, as float64."""
        assert sorted(rows) == sorted(expected)
        for idx, vector in expected.items():
            assert rows[idx].dtype == np.float64
            np.testing.assert_array_equal(rows[idx], vector)

    def test_matched_rows_copied_exactly(self, tmp_path):
        vocab = build_vocabulary([["cat", "dog"]])
        path = self._write(tmp_path, ["cat 0.25 -1.5 3.0"])
        self._assert_rows(load_glove(path, vocab, 3), {2: [0.25, -1.5, 3.0]})

    def test_oov_rows_within_bound(self, tmp_path):
        # a word the file does not list, and one the vocabulary lacks, get
        # no row: a table keeps its random_embeddings row for them
        vocab = build_vocabulary([["cat", "dog"]])
        path = self._write(tmp_path, ["cat 0.1 0.2 0.3", "zebra 1.0 1.0 1.0"])
        rows = load_glove(path, vocab, 3)
        self._assert_rows(rows, {2: [0.1, 0.2, 0.3]})
        table = _overlay(random_embeddings(len(vocab), 3,
                                           np.random.default_rng(0)), rows)
        assert np.all(np.abs(table[vocab.token_to_index["dog"]]) < 0.25)

    def test_last_listing_of_a_word_wins(self, tmp_path):
        vocab = build_vocabulary([["cat", "dog"]])
        path = self._write(tmp_path, ["cat 0.1 0.2 0.3", "dog 1.0 2.0 3.0",
                                      "cat 0.4 0.5 0.6"])
        self._assert_rows(load_glove(path, vocab, 3),
                          {2: [0.4, 0.5, 0.6], 3: [1.0, 2.0, 3.0]})

    def test_field_count_error_reports_line(self, tmp_path):
        vocab = build_vocabulary([["cat"]])
        path = self._write(tmp_path, ["dog 0.1 0.2 0.3", "cat 0.1 0.2"])
        with pytest.raises(DataError, match="line 2"):
            load_glove(path, vocab, 3)

    def test_non_numeric_value_reports_line(self, tmp_path):
        vocab = build_vocabulary([["cat"]])
        path = self._write(tmp_path, ["cat 0.1 x 0.3"])
        with pytest.raises(DataError, match="line 1: non-numeric"):
            load_glove(path, vocab, 3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        vocab = build_vocabulary([["cat", "dog"]])
        path = self._write(tmp_path, ["cat 0.1 0.2 0.3",
                                      f"dog 0.1 {value} 0.3"])
        with pytest.raises(DataError, match="line 2: non-finite"):
            load_glove(path, vocab, 3)

    def test_blank_lines_are_skipped(self, tmp_path):
        # an empty line, one of spaces, one of a tab, and a \r\n line end
        vocab = build_vocabulary([["cat", "dog"]])
        plain = self._write(tmp_path, ["cat 0.1 0.2 0.3", "dog 0.4 0.5 0.6"])
        blanks = tmp_path / "blanks.txt"
        blanks.write_bytes(b"\ncat 0.1 0.2 0.3\r\n   \n\t\ndog 0.4 0.5 0.6\n")
        self._assert_rows(load_glove(blanks, vocab, 3),
                          load_glove(plain, vocab, 3))

    def test_error_line_counts_blank_lines(self, tmp_path):
        vocab = build_vocabulary([["cat", "dog"]])
        path = self._write(tmp_path, ["cat 0.1 0.2 0.3", "", "  ",
                                      "dog 0.1 nan 0.3"])
        with pytest.raises(DataError) as info:
            load_glove(path, vocab, 3)
        assert str(info.value) == f"{path}: line 4: non-finite embedding value"

    def test_parses_vector_from_the_right(self, tmp_path):
        # trailing whitespace is dropped; a space inside the word stays
        # in the word
        vocab = build_vocabulary([["ok", "new york"]])
        path = self._write(tmp_path, ["ok 0.1 0.2 0.3 ",
                                      "new york 0.4 0.5 0.6"])
        self._assert_rows(load_glove(path, vocab, 3),
                          {2: [0.1, 0.2, 0.3], 3: [0.4, 0.5, 0.6]})

    def test_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        vocab = build_vocabulary([["cat"]])
        path = tmp_path / "glove.txt"
        path.write_text("cat 0.1 0.2 0.3\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        self._assert_rows(load_glove(path, vocab, 3), {2: [0.1, 0.2, 0.3]})

    def test_pad_row_zero(self, tmp_path):
        # the file's <pad> and <unk> rows are never read
        vocab = build_vocabulary([["cat"]])
        path = self._write(tmp_path, ["<pad> 1.0 1.0 1.0", "<unk> 2.0 2.0 2.0",
                                      "cat 1.0 1.0 1.0"])
        rows = load_glove(path, vocab, 3)
        self._assert_rows(rows, {2: [1.0, 1.0, 1.0]})
        table = _overlay(random_embeddings(len(vocab), 3,
                                           np.random.default_rng(0)), rows)
        np.testing.assert_array_equal(table[PAD_INDEX], 0.0)


def test_random_embeddings_pad_zero_and_bounds():
    table = random_embeddings(5, 8, np.random.default_rng(5))
    assert table.shape == (5, 8)
    np.testing.assert_array_equal(table[PAD_INDEX], 0.0)
    assert np.all(np.abs(table[1:]) < 0.25)
