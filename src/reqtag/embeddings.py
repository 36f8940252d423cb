"""Vocabulary construction, random embedding tables and GloVe parsing.

Indices 0 and 1 are reserved for padding and unknown tokens. An embedding
table is a plain (vocabulary size, dim) matrix; its padding row is all
zeros, and no input position holds PAD, so it never receives gradient.
"""

from dataclasses import dataclass

import numpy as np

from .data import DataError, naming, text_lines

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

# out-of-vocabulary rows are drawn uniform in this range
OOV_INIT_BOUND = 0.25


@dataclass
class Vocabulary:
    token_to_index: dict
    index_to_token: list

    def __len__(self):
        return len(self.index_to_token)


def build_vocabulary(corpus) -> Vocabulary:
    """Assign indices in first-occurrence order after the reserved slots."""
    index_to_token = [PAD_TOKEN, UNK_TOKEN]
    token_to_index = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    for tokens in corpus:
        for tok in tokens:
            if tok not in token_to_index:
                token_to_index[tok] = len(index_to_token)
                index_to_token.append(tok)
    return Vocabulary(token_to_index=token_to_index, index_to_token=index_to_token)


def random_embeddings(n_rows: int, dim: int,
                      rng: "np.random.Generator") -> np.ndarray:
    """An (n_rows, dim) table, every non-pad row drawn uniform(-0.25, 0.25)."""
    matrix = rng.uniform(-OOV_INIT_BOUND, OOV_INIT_BOUND, size=(n_rows, dim))
    matrix[PAD_INDEX, :] = 0.0
    return matrix


def load_glove(path, vocab: Vocabulary, dim: int) -> dict:
    """Read a GloVe text file: {index: vector} for each vocabulary word
    the file lists, PAD and UNK aside; a word listed twice keeps its last
    vector. A file with no vocabulary word in it is an error; every error
    names the file."""
    rows = {}
    with naming(path):
        for lineno, line in text_lines(path):
            line = line.rstrip()
            if not line:
                continue
            # the last dim fields are the vector; a word may hold spaces
            parts = line.rsplit(" ", dim)
            if len(parts) != dim + 1:
                raise DataError(
                    f"line {lineno}: expected a word and {dim} values, "
                    f"got {len(parts)} fields")
            idx = vocab.token_to_index.get(parts[0])
            if idx is None or idx in (PAD_INDEX, UNK_INDEX):
                continue
            try:
                vector = np.array([float(v) for v in parts[1:]])
            except ValueError:
                raise DataError(
                    f"line {lineno}: non-numeric embedding value") from None
            if not np.isfinite(vector).all():
                raise DataError(f"line {lineno}: non-finite embedding value")
            rows[idx] = vector
        if not rows:
            raise DataError(f"no word of the training vocabulary has a "
                            f"vector in this file of embedding_dim {dim} values")
    return rows


def encode_tokens(tokens, vocab: Vocabulary) -> list:
    return [vocab.token_to_index.get(t, UNK_INDEX) for t in tokens]
