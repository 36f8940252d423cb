"""Vocabulary construction and GloVe embedding loading.

Indices 0 and 1 are reserved for padding and unknown tokens. The padding
row of an embedding table is all zeros and never receives gradient.
"""

from dataclasses import dataclass

import numpy as np

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

# out-of-vocabulary rows are drawn uniform in this range
OOV_INIT_BOUND = 0.25


class GloveParseError(ValueError):
    pass


@dataclass
class Vocabulary:
    token_to_index: dict
    index_to_token: list

    def __len__(self):
        return len(self.index_to_token)

    def index_of(self, token: str) -> int:
        return self.token_to_index.get(token, UNK_INDEX)


@dataclass
class EmbeddingTable:
    matrix: np.ndarray  # (vocab_size, dim)
    trainable: bool = True


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


def random_embeddings(n_rows: int, dim: int, rng: "np.random.Generator",
                      trainable: bool = True) -> EmbeddingTable:
    """Table of n_rows rows, every non-pad row drawn uniform(-0.25, 0.25)."""
    matrix = rng.uniform(-OOV_INIT_BOUND, OOV_INIT_BOUND, size=(n_rows, dim))
    matrix[PAD_INDEX, :] = 0.0
    return EmbeddingTable(matrix=matrix, trainable=trainable)


def load_glove(path, vocab: Vocabulary, dim: int, rng: "np.random.Generator",
               trainable: bool = True) -> EmbeddingTable:
    """Read a GloVe text file and build the table for vocab.

    Rows for vocabulary words present in the file are copied verbatim;
    everything else (including UNK) gets a random uniform(-0.25, 0.25)
    row; the pad row is zeroed. A file with no vocabulary word in it is
    an error.
    """
    table = random_embeddings(len(vocab), dim, rng, trainable=trainable)
    matched = False
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip()
            if not line:
                continue
            # the last dim fields are the vector; a word may hold spaces
            parts = line.rsplit(" ", dim)
            if len(parts) != dim + 1:
                raise GloveParseError(
                    f"line {lineno}: expected a word and {dim} values, "
                    f"got {len(parts)} fields")
            word = parts[0]
            idx = vocab.token_to_index.get(word)
            if idx is None or idx in (PAD_INDEX, UNK_INDEX):
                continue
            try:
                table.matrix[idx, :] = [float(v) for v in parts[1:]]
            except ValueError:
                raise GloveParseError(
                    f"line {lineno}: non-numeric embedding value") from None
            if not np.isfinite(table.matrix[idx]).all():
                raise GloveParseError(
                    f"line {lineno}: non-finite embedding value")
            matched = True
    if not matched:
        raise GloveParseError(f"{path}: no word of the training vocabulary "
                              f"has a vector in this file")
    return table


def encode_tokens(tokens, vocab: Vocabulary) -> list:
    return [vocab.index_of(t) for t in tokens]
