"""Generated input files through `main`, in process at tiny dims.

Each input kind the tagger reads line by line or as JSON (corpus JSONL,
CoNLL-U, a review CSV, a training config, a GloVe file, a baselines
file, extract's review lines, a checkpoint's header) is written from
structured lines mixed with random bytes. Whatever the file holds:
- `main` returns 0, 1 or 2 and raises nothing (a warning would raise:
  pyproject.toml turns RuntimeWarning and the like into errors);
- on 1, stderr is exactly one line, and it starts with `error:`;
- no input file has changed.
Extract also replies with one JSON line for each input line before the
first line that is not UTF-8.
"""

import codecs
import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqtag.cli import main
from reqtag.data import Corpus, TaggedSentence, save_corpus
from reqtag.embeddings import build_vocabulary
from reqtag.network import (CHECKPOINT_VERSION, ModelDims, init_model,
                            save_checkpoint)

TINY = {"embedding_dim": 4, "h_enc": 2, "d_att": 2, "h_dec": 2, "d_tag": 2,
        "epochs": 1, "batch_size": 4}
WORDS = ["add", "dark", "mode", "app", "crash", "<pad>", "<unk>", "café"]
TAGS = ["O", "B", "I", "B-feature", "I-feature", "X", ""]
SETTINGS = settings(max_examples=60, deadline=None)

# one line of text: a few characters the parsers split on, words, numbers
_TEXT = st.text(st.sampled_from("aeo19.-e+ \t#=_'\"{}[]:,éΔ"),
                max_size=12)
_FIELD = st.one_of(st.sampled_from(WORDS + TAGS), _TEXT)
_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0.5", "-1", "1e308", "1e999", "nan", "x", ""]))


def _file(good, bad, head=st.just("")):
    """File bytes: a head line drawn from head, then lines drawn from good,
    with a few lines drawn from bad or of random bytes put among them, and
    a BOM or none."""
    noise = st.one_of(bad.map(str.encode), st.binary(max_size=24))

    def build(bom, head, lines, inserts, end):
        for pos, line in inserts:
            lines.insert(pos % (len(lines) + 1), line)
        return bom + head.encode() + b"\n".join(lines) + end

    return st.builds(build, st.sampled_from([b"", b"\xef\xbb\xbf"]), head,
                     st.lists(good.map(str.encode), max_size=6),
                     st.lists(st.tuples(st.integers(0, 6), noise), max_size=2),
                     st.sampled_from([b"", b"\n", b"\r\n"]))


def _key_twice(doc):
    """A JSON object's text with its first key named once more, first."""
    first = doc[1:doc.index(":")]
    return "{" + first + ": 0, " + doc[1:]


def _sentence():
    """A valid corpus line: clean tokens, BIO tags."""
    spans = st.lists(st.sampled_from([["O"], ["B"], ["B", "I"]]),
                     min_size=1, max_size=4)
    return st.builds(
        lambda app, spans, words: json.dumps({
            "app": app, "category": None,
            "tokens": [words[k % len(words)] for k in
                       range(sum(map(len, spans)))],
            "tags": [tag for span in spans for tag in span]}),
        st.sampled_from(["app0", "app1"]), spans,
        st.lists(st.sampled_from(WORDS[:5]), min_size=1, max_size=3))


def _record():
    """A corpus line that may lack a key or hold a value of a wrong type."""
    pairs = st.lists(st.tuples(_FIELD, _FIELD), max_size=5)
    value = st.one_of(st.none(), st.integers(-2, 2), _FIELD,
                      st.lists(_FIELD, max_size=3))
    return st.builds(
        lambda pairs, app, category, drop, extra: json.dumps(
            {k: v for k, v in {
                "app": app, "category": category,
                "tokens": [t for t, _ in pairs], "tags": [g for _, g in pairs],
                **extra}.items() if k != drop}),
        pairs, st.one_of(st.sampled_from(["app0", "app1"]), value),
        value, st.sampled_from([None, "app", "tokens", "tags", "category"]),
        st.dictionaries(_TEXT, value, max_size=1))


_CORPUS = _file(_sentence(), st.one_of(_record(), _TEXT,
                                       _sentence().map(_key_twice)))
_CONLLU = _file(
    st.one_of(st.builds(lambda key, value: f"# {key} = {value}",
                        st.sampled_from(["app_name", "google_play_category"]),
                        st.sampled_from(WORDS[:3])),
              st.builds(lambda k, word, tag: "\t".join(
                  [str(k), word, word, "NOUN", "NN", "_", "0", "root", "_",
                   tag]), st.integers(1, 9), st.sampled_from(WORDS),
                  st.sampled_from(TAGS)),
              st.just("")),
    st.one_of(st.lists(_FIELD, min_size=9, max_size=11).map("\t".join),
              _TEXT))


def _csv_row(cells):
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(cells)
    return out.getvalue()


# rows whose cells may hold quotes, commas and line ends, under a header
# that in two files of five lacks a column
_HEADER = "App Id,Sentence Content,Feature (All Annotated)\n"
_CSV = _file(
    st.lists(st.one_of(st.sampled_from(["app0", "app1", "", "add dark mode",
                                        "dark mode", "a\r\nb", "x\ny"]),
                       _TEXT), min_size=3, max_size=3).map(_csv_row),
    st.one_of(st.lists(_FIELD, max_size=4).map(",".join), _TEXT),
    st.sampled_from([_HEADER] * 3 + ["App Id,Sentence Content\n", ""]))
# settings over the tiny ones; integers stay small, since a large dim
# would be allocated for real
_SETTING = {
    "learning_rate": st.floats(1e-4, 1e308), "seed": st.integers(0, 2 ** 64),
    "grad_clip_norm": st.floats(0.0, 10.0),
    "freeze_embeddings": st.booleans(), "span_overlap_mode": st.booleans(),
    "epochs": st.integers(1, 3), "batch_size": st.integers(1, 5)}
_CONFIG = st.one_of(
    st.one_of(st.fixed_dictionaries({}, optional=_SETTING), st.dictionaries(
        st.sampled_from([*TINY, *_SETTING, "glove_path", "unknown_key"]),
        st.one_of(st.none(), st.booleans(), st.integers(-1, 3), _NUMBER,
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from(["", "x", [], {}])))).map(
        lambda doc: json.dumps({**TINY, **doc}).encode()),
    st.lists(st.integers(0, 3), max_size=2).map(
        lambda doc: json.dumps(doc).encode()),
    st.fixed_dictionaries({}, optional=_SETTING).map(
        lambda doc: _key_twice(json.dumps({**TINY, **doc})).encode()),
    st.binary(max_size=24))
_SCORE = st.one_of(st.none(), st.booleans(), st.integers(-1, 2), st.floats(),
                   st.sampled_from(["0.5", [], {}]))
_TABLE = st.dictionaries(
    st.sampled_from(["app0", "app1", "bogus", "", "café"]),
    st.one_of(st.fixed_dictionaries({}, optional=dict.fromkeys(
        ["precision", "recall", "f1"], _SCORE)), _SCORE),
    max_size=3)
_BASELINES = st.builds(
    lambda bom, doc, end: bom + doc + end,
    st.sampled_from([b"", b"\xef\xbb\xbf"]),
    st.one_of(
        st.one_of(_TABLE, st.lists(st.integers(0, 3), max_size=2)).map(
            lambda doc: json.dumps(doc, indent=1).encode()),
        _TABLE.filter(bool).map(
            lambda doc: _key_twice(json.dumps(doc, indent=1)).encode())),
    st.one_of(st.sampled_from([b"", b"\n", b"\r\n"]), st.binary(max_size=8)))
_GLOVE = _file(
    st.builds(lambda word, values: " ".join([word, *map(repr, values)]),
              st.sampled_from(WORDS), st.lists(
                  st.floats(-2, 2), min_size=TINY["embedding_dim"],
                  max_size=TINY["embedding_dim"])),
    st.builds(lambda word, values: " ".join([word, *values]), _FIELD,
              st.lists(_NUMBER, min_size=TINY["embedding_dim"] - 1,
                       max_size=TINY["embedding_dim"] + 1)))


def _corpus():
    return Corpus(sentences=[
        TaggedSentence(app_id=f"app{k % 2}", tokens=["add", "dark", "mode"],
                       tags=["O", "B", "I"]) for k in range(4)])


def _run(argv, inputs):
    """(exit code, stdout) of `main` on argv, after the three checks."""
    before = {path: path.read_bytes() for path in inputs}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert {path: path.read_bytes() for path in inputs} == before
    return code, out.getvalue()


def _train(corpus=None, config=None, glove=None):
    """Run `train` on the given file bytes, a small corpus and the tiny
    config where none are given."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus_path, config_path = tmp / "corpus.jsonl", tmp / "config.json"
        inputs = [corpus_path, config_path]
        if corpus is None:
            save_corpus(corpus_path, _corpus())
        else:
            corpus_path.write_bytes(corpus)
        doc = TINY
        if glove is not None:
            inputs.append(tmp / "glove.txt")
            inputs[-1].write_bytes(glove)
            doc = {**TINY, "glove_path": str(inputs[-1])}
        config_path.write_bytes(config or json.dumps(doc).encode())
        _run(["train", "--corpus", corpus_path, "--config", config_path,
              "--output", tmp / "model.npz"], inputs)


@SETTINGS
@given(_CORPUS)
def test_corpus_file(data):
    _train(data)


@SETTINGS
@given(_CONFIG)
def test_config_file(data):
    _train(config=data)


@SETTINGS
@given(_GLOVE)
def test_glove_file(data):
    _train(glove=data)


VOCAB = build_vocabulary([["add", "dark", "mode"]])
DIMS = {k: TINY[k] for k in ("embedding_dim", "h_enc", "d_att", "h_dec",
                             "d_tag")}


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """A checkpoint at the tiny dims, drawn and never trained."""
    path = tmp_path_factory.mktemp("model") / "model.npz"
    save_checkpoint(path, init_model(len(VOCAB), ModelDims(**DIMS),
                                     np.random.default_rng(0)), VOCAB)
    return path


@SETTINGS
@given(_BASELINES)
def test_baselines_file(model, data):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, path = Path(tmp) / "corpus.jsonl", Path(tmp) / "base.json"
        save_corpus(corpus, _corpus())
        path.write_bytes(data)
        _run(["evaluate", "--model", model, "--corpus", corpus,
              "--domain", "app0", "--baselines", path], [model, corpus, path])


@SETTINGS
@given(_CSV, st.sampled_from([",", ";", "|"]))
def test_csv_file(data, feature_delim):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(data)
        _run(["preprocess", "--format", "rebert-csv", "--input", path,
              "--feature-delim", feature_delim,
              "--output", Path(tmp) / "out.jsonl"], [path])


@SETTINGS
@given(_CONLLU, st.integers(-1, 11))
def test_conllu_file(data, tag_column):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.conllu"
        path.write_bytes(data)
        _run(["preprocess", "--format", "conllu", "--input", path,
              "--tag-column", tag_column, "--output", Path(tmp) / "out.jsonl"],
             [path])


# review lines: words the model knows and does not, punctuation, blanks
_REVIEWS = _file(
    st.lists(st.sampled_from(WORDS + ["!!!", "", "Add", "dark-mode"]),
             max_size=5).map(" ".join),
    st.one_of(_TEXT, st.sampled_from(["\x00", "\u2028", "\x1c", "\x85"])))


def _lines(data):
    """data's lines as extract reads them: a leading BOM dropped, split at
    \\n, \\r\\n or \\r, a last line without its line end kept."""
    data = data.removeprefix(codecs.BOM_UTF8)
    lines = re.split(rb"\r\n|\r|\n", data)
    return lines[:-1] if lines[-1] == b"" else lines


@SETTINGS
@given(_REVIEWS)
def test_extract_input_file(model, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reviews.txt"
        path.write_bytes(data)
        code, out = _run(["extract", "--model", model, "--input", path],
                         [model, path])
    texts = []
    for line in _lines(data):
        try:
            texts.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            break
    assert code == (0 if len(texts) == len(_lines(data)) else 1)
    assert out == "" or out.endswith("\n")
    replies = [json.loads(line) for line in out.splitlines()]
    assert [r["text"] for r in replies] == texts
    assert all(isinstance(r["requirements"], list) for r in replies)


# values for a header field: some of the right type, most not
_HEADER_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3),
    st.sampled_from([CHECKPOINT_VERSION, 2 ** 40, 2.0, "2", "", [], {}]),
    st.fixed_dictionaries({}, optional=dict.fromkeys(
        DIMS, st.sampled_from([*DIMS.values(), 0, 3, 2 ** 40, 2.0, True]))),
    st.lists(st.sampled_from([*VOCAB.index_to_token, "caf\u00e9", "", 3]),
             max_size=6),
    st.permutations(VOCAB.index_to_token),
    # the reserved pair first: a vocabulary that loads
    st.permutations(VOCAB.index_to_token[2:]).map(
        lambda words: VOCAB.index_to_token[:2] + words))
_HEADER = st.tuples(
    # fields set, fields dropped, and the JSON text kept whole, cut at a
    # length or replaced
    st.dictionaries(st.sampled_from(["version", "dims", "vocab", "config",
                                     "embedding_trainable", "extra"]),
                    _HEADER_VALUE, max_size=2),
    st.sets(st.sampled_from(["version", "dims", "vocab", "config",
                             "embedding_trainable"]), max_size=1),
    st.one_of(st.none(), st.integers(0, 120), _TEXT))


@SETTINGS
@given(_HEADER)
def test_checkpoint_header(model, header):
    edits, dropped, damage = header
    with np.load(model) as npz:
        entries = dict(npz)
    doc = {k: v for k, v in {**json.loads(entries["header"].item()),
                             **edits}.items() if k not in dropped}
    text = damage if isinstance(damage, str) else json.dumps(doc)[:damage]
    with tempfile.TemporaryDirectory() as tmp:
        path, src = Path(tmp) / "model.npz", Path(tmp) / "reviews.txt"
        with open(path, "wb") as fh:
            np.savez(fh, **{**entries, "header": np.array(text)})
        src.write_text("please add a dark mode\n!!!\n", encoding="utf-8")
        _run(["extract", "--model", path, "--input", src], [path, src])
