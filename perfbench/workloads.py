"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed and the sizes in
``SIZES``; nothing imports the program or the test suite. The program
only ever sees the files that ``write_corpus`` and ``write_config``
produce, and the raw lines that ``review_lines`` renders.

Token model: a lexicon of made-up words ranked by a Zipf law, so the
vocabulary a corpus touches grows with its size the way text does. Every
made-up word ends in a, o or u, and every real word below was checked to
be its own lemma, so the cleaning pipeline maps a rendered word back to
exactly the token it came from. Most sentences carry a planted
requirement: a trigger word followed by a two-word feature phrase tagged
B I.
"""

import json

import numpy as np

FILLERS = ["i", "the", "app", "it", "and", "to", "a", "this", "love", "but",
           "very", "nice", "crash", "really", "can", "not", "when", "my",
           "great", "work", "update", "phone", "time", "good", "like", "so",
           "just", "now", "after", "every", "don't", "can't", "5", "10",
           "option", "screen", "slow", "fast", "open", "star", "review"]
TRIGGERS = ["add", "need", "want", "please"]
LEXICON_SIZE = 20000
FEATURE_LEXICON = 300
# share of sentences of 5+ tokens that carry a planted requirement
PATTERN_RATE = 0.75

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "t", "v", "z",
           "br", "kr", "st", "tr", "pl"]
_VOWELS = ["a", "e", "i", "o", "u"]
_FINALS = ["a", "o", "u"]

# Dims and sizes per workload; "tiny" is the test suite's tiny preset.
DEFAULT_DIMS = {"embedding_dim": 300, "h_enc": 128, "d_att": 256,
                "h_dec": 256, "d_tag": 25}
TINY_DIMS = {"embedding_dim": 16, "h_enc": 8, "d_att": 8, "h_dec": 8,
             "d_tag": 4}

SIZES = {
    "train-default": {"sentences": 64, "domains": 2, "lengths": (5, 40),
                      "dims": DEFAULT_DIMS,
                      "config": {"epochs": 1, "batch_size": 32}},
    "extract": {"lines": 250, "vocab": 5000, "dims": DEFAULT_DIMS},
}
# Self-check sizes: every layer still runs, in a few seconds.
SELF_CHECK_SIZES = {
    "train-default": {"sentences": 6, "domains": 2, "lengths": (5, 12),
                      "dims": TINY_DIMS,
                      "config": {"epochs": 1, "batch_size": 4}},
    "extract": {"lines": 20, "vocab": 200, "dims": TINY_DIMS},
}


def _rng(seed, stream):
    """Independent generator per purpose, so sizes in one do not shift another."""
    return np.random.default_rng([seed, stream])


def lexicon(seed):
    """(ranked words, feature words): Zipf rank order of made-up words."""
    rng = _rng(seed, 1)
    words, seen = [], set(FILLERS) | set(TRIGGERS)
    while len(words) < LEXICON_SIZE + FEATURE_LEXICON:
        batch = 8192
        n_syl = rng.integers(1, 4, size=batch)
        onsets = rng.integers(len(_ONSETS), size=(batch, 4))
        vowels = rng.integers(len(_VOWELS), size=(batch, 3))
        finals = rng.integers(len(_FINALS), size=batch)
        for k in range(batch):
            w = "".join(_ONSETS[onsets[k, j]] + _VOWELS[vowels[k, j]]
                        for j in range(n_syl[k]))
            w += _ONSETS[onsets[k, 3]] + _FINALS[finals[k]]
            if w not in seen:
                seen.add(w)
                words.append(w)
    general = FILLERS + words[:LEXICON_SIZE - len(FILLERS)]
    return general, words[LEXICON_SIZE - len(FILLERS):][:FEATURE_LEXICON]


def _zipf_p(n, s=1.0):
    p = 1.0 / np.arange(1, n + 1) ** s
    return p / p.sum()


# Sets of 20 or more lengths end in a tail of long reviews: this share
# of the set, spread over this token range.
LONG_SHARE = 0.03
LONG_REVIEWS = (60, 120)


def stratified_lengths(n, lo=5, hi=40):
    """A fixed length multiset: lo..hi evenly, plus a tail of long reviews.

    The multiset depends only on n, so every seed trains and decodes the
    same number of tokens; the seed decides order and content.
    """
    out = []
    n_tail = max(1, round(n * LONG_SHARE)) if n >= 20 else 0
    body = n - n_tail
    for i in range(body):
        out.append(lo + int((i + 0.5) / body * (hi - lo + 1)))
    lo_t, hi_t = LONG_REVIEWS
    for i in range(n_tail):
        out.append(lo_t + int((i + 0.5) / n_tail * (hi_t - lo_t + 1)))
    return out


def _sentence(rng, length, general, p_general, features, p_features):
    """(tokens, tags) with zero, one or (if long) two planted requirements."""
    tokens = [general[i] for i in rng.choice(len(general), size=length,
                                             p=p_general)]
    tags = ["O"] * length
    n_patterns = 0
    if length >= 5 and rng.random() < PATTERN_RATE:
        n_patterns = 2 if length >= 30 else 1
    for k in range(n_patterns):
        span = length // n_patterns
        start = k * span + int(rng.integers(0, span - 2))
        a, b = rng.choice(len(features), size=2, replace=False, p=p_features)
        tokens[start:start + 3] = [TRIGGERS[rng.integers(len(TRIGGERS))],
                                   features[a], features[b]]
        tags[start:start + 3] = ["O", "B", "I"]
    return tokens, tags


def corpus(seed, sizes):
    """Canonical corpus records, round-robin over ``sizes["domains"]`` apps."""
    general, features = lexicon(seed)
    rng = _rng(seed, 2)
    n_domains = sizes["domains"]
    lengths = stratified_lengths(sizes["sentences"], *sizes["lengths"])
    rng.shuffle(lengths)
    p_general, p_features = _zipf_p(len(general)), _zipf_p(len(features))
    records = []
    for k, n in enumerate(lengths):
        tokens, tags = _sentence(rng, int(n), general, p_general,
                                 features, p_features)
        records.append({"app": f"app{k % n_domains}", "category": None,
                        "tokens": tokens, "tags": tags})
    return records


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def write_config(path, sizes, seed):
    """TrainConfig JSON: the workload's dims and settings, seeded."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**sizes["dims"], **sizes["config"], "seed": seed}, fh)


_PUNCT = [",", ".", "!", "?", "...", "!!", ":)", ";", " -"]


def _render(rng, tokens):
    """Raw review text whose cleaned tokens are exactly ``tokens``."""
    out = []
    for i, tok in enumerate(tokens):
        r = rng.random()
        if r < 0.03:
            tok = tok.upper()
        elif r < 0.13 or i == 0:
            tok = tok[:1].upper() + tok[1:]
        r = rng.random()
        if r < 0.03:
            tok = f"({tok})"
        elif r < 0.05:
            tok = f'"{tok}"'
        if rng.random() < 0.1:
            tok += _PUNCT[rng.integers(len(_PUNCT))]
        out.append(tok)
        if rng.random() < 0.05:
            out.append("")  # a double space
    return " ".join(out)


def review_lines(seed, n_lines):
    """(raw line, cleaned tokens) pairs: mixed case, punctuation, OOV words.

    Lengths follow a fixed multiset of 1..40 tokens plus a tail of long
    reviews; one line in fifty cleans to no tokens at all.
    """
    general, features = lexicon(seed)
    rng = _rng(seed, 3)
    lengths = stratified_lengths(n_lines, lo=1)
    n_blank = n_lines // 50
    lengths[:n_blank] = [0] * n_blank
    rng.shuffle(lengths)
    p_general, p_features = _zipf_p(len(general)), _zipf_p(len(features))
    lines = []
    for n in lengths:
        if n == 0:
            lines.append(("!!! :) ...", []))
            continue
        tokens, _tags = _sentence(rng, int(n), general, p_general,
                                  features, p_features)
        lines.append((_render(rng, tokens), tokens))
    return lines


def extract_vocabulary(seed, size):
    """Checkpoint vocabulary: the ``size`` most frequent words plus features.

    Review lines draw from the whole lexicon, so about one token in seven
    is out of vocabulary, as with a model trained on another corpus.
    """
    general, features = lexicon(seed)
    return ["<pad>", "<unk>"] + TRIGGERS + features + general[:size]
