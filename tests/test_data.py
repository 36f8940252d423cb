import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqtag.data import (Corpus, DataError, ParseError, SchemaError,
                         TaggedSentence, align_bio, clean_tokens, load_corpus,
                         parse_conllu, parse_rebert_csv, save_corpus)
from reqtag.lemmatizer import lemmatize


class TestCleanTokens:
    def test_review_with_quoted_word(self):
        assert clean_tokens("I also like the 'rewind' button.") == \
            ["i", "also", "like", "the", "rewind", "button"]

    def test_empty(self):
        assert clean_tokens("") == []

    def test_punctuation_only(self):
        assert clean_tokens("?!... ---") == []

    def test_lemmatization_golden(self):
        assert clean_tokens("Running!!! APPS") == ["run", "app"]

    def test_charset_invariant(self):
        import re
        toks = clean_tokens("Héllo, wörld! can't stop won't stop 24/7")
        for t in toks:
            assert re.fullmatch(r"[a-z0-9']+", t)


class TestLemmatizer:
    @pytest.mark.parametrize("word,lemma", [
        ("running", "run"),
        ("apps", "app"),
        ("buttons", "button"),
        ("added", "add"),
        ("crashes", "crash"),
        ("notifications", "notification"),
        ("used", "use"),
        ("was", "be"),
        ("movies", "movie"),
        ("button", "button"),
        ("speech", "speech"),
        ("this", "this"),
        ("stopped", "stop"),
    ])
    def test_goldens(self, word, lemma):
        assert lemmatize(word) == lemma


class TestAlignBio:
    def test_worked_example(self):
        tokens = clean_tokens("can you add audio format for text to speech")
        tags, misses = align_bio(tokens, [["audio", "format"],
                                          ["text", "to", "speech"]])
        assert tags == ["O", "O", "O", "B", "I", "O", "B", "I", "I"]
        assert misses == 0

    def test_no_phrases(self):
        tags, misses = align_bio(["a", "b"], [])
        assert tags == ["O", "O"] and misses == 0

    def test_longest_phrase_wins(self):
        tags, misses = align_bio(["a", "b", "c"], [["a", "b", "c"], ["b"]])
        assert tags == ["B", "I", "I"]
        assert misses == 1  # ["b"] had nowhere left to match

    def test_repeated_occurrences_all_tagged(self):
        tags, _ = align_bio(["x", "a", "b", "y", "a", "b"], [["a", "b"]])
        assert tags == ["O", "B", "I", "O", "B", "I"]

    def test_missing_phrase_is_reported_not_fatal(self):
        tags, misses = align_bio(["a"], [["zzz"]])
        assert tags == ["O"] and misses == 1

    def test_output_always_valid_bio(self):
        import numpy as np
        rng = np.random.default_rng(9)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(200):
            toks = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 8))]
            phrases = [[alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 3))]
                       for _ in range(rng.integers(0, 3))]
            tags, _ = align_bio(toks, phrases)
            prev = "O"
            for t in tags:
                assert not (t == "I" and prev == "O")
                prev = t


class TestTaggedSentence:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            TaggedSentence(app_id="a", tokens=["x"], tags=["O", "O"])

    def test_leading_i_rejected(self):
        with pytest.raises(DataError, match="position 0"):
            TaggedSentence(app_id="a", tokens=["x"], tags=["I"])

    def test_i_after_o_rejected(self):
        with pytest.raises(DataError, match="position 1"):
            TaggedSentence(app_id="a", tokens=["x", "y"], tags=["O", "I"])

    def test_unclean_token_rejected(self):
        with pytest.raises(DataError, match="unclean"):
            TaggedSentence(app_id="a", tokens=["Hello!"], tags=["O"])


REBERT_CSV = """App Id,Sentence Content,Feature (All Annotated)
ebay,Can you add audio format for text to speech?,"audio format,text to speech"
ebay,Nice app!,
spotify,!!!,
spotify,I also like the 'rewind' button.,rewind button
"""


class TestParseRebertCsv:
    def test_parses_rows(self, tmp_path):
        path = tmp_path / "d1.csv"
        path.write_text(REBERT_CSV, encoding="utf-8")
        corpus, summary = parse_rebert_csv(path)
        assert summary.kept == 3
        assert summary.dropped_empty == 1  # the "!!!" row
        assert sorted(corpus.domains) == ["ebay", "spotify"]
        first = corpus.sentences[0]
        assert first.tags == ["O", "O", "O", "B", "I", "O", "B", "I", "I"]

    def test_empty_feature_cell_gives_all_o(self, tmp_path):
        path = tmp_path / "d1.csv"
        path.write_text(REBERT_CSV, encoding="utf-8")
        corpus, _ = parse_rebert_csv(path)
        assert corpus.sentences[1].tags == ["O", "O"]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Sentence Content,Feature (All Annotated)\nhi,x\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError, match="App Id"):
            parse_rebert_csv(path)


def conllu_doc(lines, app="CoolApp", category="PRODUCTIVITY"):
    header = [f"# app_name = {app}", f"# google_play_category = {category}"]
    return "\n".join(header + lines) + "\n\n"


def token_line(i, form, lemma, tag):
    cols = [str(i), form, lemma, "NOUN", "NN", "_", "0", "root", "_", tag]
    return "\t".join(cols)


class TestParseConllu:
    def test_tag_mapping(self, tmp_path):
        doc = conllu_doc([
            token_line(1, "dark", "dark", "B-feature"),
            token_line(2, "modes", "mode", "I-feature"),
            token_line(3, "rock", "rock", "O"),
        ])
        path = tmp_path / "d2.conllu"
        path.write_text(doc, encoding="utf-8")
        corpus, summary = parse_conllu(path)
        assert summary.kept == 1
        s = corpus.sentences[0]
        assert s.tokens == ["dark", "mode", "rock"]
        assert s.tags == ["B", "I", "O"]
        assert s.domain == "PRODUCTIVITY"

    def test_comment_only_document(self, tmp_path):
        path = tmp_path / "d2.conllu"
        path.write_text("# app_name = X\n# google_play_category = Y\n\n",
                        encoding="utf-8")
        corpus, _ = parse_conllu(path)
        assert len(corpus) == 0

    def test_punctuation_drop_keeps_run(self, tmp_path):
        # punctuation between B and I: the I still follows its B after
        # the drop, so the run survives untouched
        doc = conllu_doc([
            token_line(1, "voice", "voice", "B-feature"),
            token_line(2, "-", "-", "O"),
            token_line(3, "note", "note", "I-feature"),
        ])
        path = tmp_path / "d2.conllu"
        path.write_text(doc, encoding="utf-8")
        corpus, _ = parse_conllu(path)
        s = corpus.sentences[0]
        assert s.tokens == ["voice", "note"]
        assert s.tags == ["B", "I"]

    def test_dropped_b_promotes_orphaned_i(self, tmp_path):
        # the B itself sat on a dropped punctuation token; the orphaned
        # I is promoted to B so the sentence stays valid BIO
        doc = conllu_doc([
            token_line(1, "nice", "nice", "O"),
            token_line(2, "-", "-", "B-feature"),
            token_line(3, "mode", "mode", "I-feature"),
        ])
        path = tmp_path / "d2.conllu"
        path.write_text(doc, encoding="utf-8")
        corpus, _ = parse_conllu(path)
        s = corpus.sentences[0]
        assert s.tokens == ["nice", "mode"]
        assert s.tags == ["O", "B"]

    def test_punctuation_between_o_tokens_is_noop(self, tmp_path):
        doc = conllu_doc([
            token_line(1, "nice", "nice", "O"),
            token_line(2, ",", ",", "O"),
            token_line(3, "app", "app", "O"),
        ])
        path = tmp_path / "d2.conllu"
        path.write_text(doc, encoding="utf-8")
        corpus, _ = parse_conllu(path)
        assert corpus.sentences[0].tokens == ["nice", "app"]
        assert corpus.sentences[0].tags == ["O", "O"]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "d2.conllu"
        path.write_text("# app_name = X\n# google_play_category = Y\n"
                        "1\tonly\tthree\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3"):
            parse_conllu(path)

    def test_missing_metadata(self, tmp_path):
        path = tmp_path / "d2.conllu"
        path.write_text(token_line(1, "app", "app", "O") + "\n\n",
                        encoding="utf-8")
        with pytest.raises(DataError):
            parse_conllu(path)


def test_corpus_round_trip(tmp_path):
    sentences = [
        TaggedSentence(app_id="a", tokens=["add", "dark", "mode"],
                       tags=["O", "B", "I"]),
        TaggedSentence(app_id="b", category="TOOLS",
                       tokens=["nice"], tags=["O"]),
    ]
    corpus = Corpus(sentences=sentences)
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, corpus)
    loaded = load_corpus(path)
    assert loaded == corpus


GOOD_LINE = '{"app": "a", "tokens": ["x"], "tags": ["O"]}'


@pytest.mark.parametrize("line, fragment", [
    ('{"app": "a", "tokens": "abc", "tags": "OOO"}',
     "'tokens' must be a list of strings"),
    ("[1, 2]", "expected a JSON object, got list"),
    ('{"app": "a", "tokens": ["x"]}', "missing key 'tags'"),
    ('{"app": 1, "tokens": ["x"], "tags": ["O"]}', "'app' must be a string"),
    ('{"app": "a", "category": 5, "tokens": ["x"], "tags": ["O"]}',
     "'category' must be a string or null"),
    ('{"app": "a", "tokens": ["x"], "tags": [0]}',
     "'tags' must be a list of strings"),
    ('{"app": "a",', "line 2: "),
])
def test_load_corpus_rejects_malformed_line(tmp_path, line, fragment):
    path = tmp_path / "corpus.jsonl"
    path.write_text(GOOD_LINE + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_corpus(path)
    assert str(exc.value).startswith("line 2: ")
    assert fragment in str(exc.value)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_FIELD = _JSON | st.lists(st.sampled_from(["O", "B", "I", "add", "Dark", ""]),
                          max_size=3)


@settings(max_examples=200, deadline=None)
@given(_JSON | st.fixed_dictionaries(
    {"app": _FIELD, "tokens": _FIELD, "tags": _FIELD},
    optional={"category": _FIELD}))
def test_any_corpus_line_loads_or_raises_data_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        try:
            corpus = load_corpus(path)
        except (ParseError, DataError):
            return
    for s in corpus.sentences:
        assert all(isinstance(t, str) for t in s.tokens + s.tags)


def test_domains_map():
    corpus = Corpus(sentences=[
        TaggedSentence(app_id="a", tokens=["x"], tags=["O"]),
        TaggedSentence(app_id="b", tokens=["y"], tags=["O"]),
        TaggedSentence(app_id="a", tokens=["z"], tags=["O"]),
    ])
    assert corpus.domains == {"a": [0, 2], "b": [1]}
