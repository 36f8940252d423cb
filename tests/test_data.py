import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqtag import data, lemmatizer
from reqtag.crf import crf_nll_backward, init_transitions
from reqtag.data import (MAX_SENTENCE_TOKENS, TAG_INDEX, Corpus, DataError,
                         TaggedSentence, align_bio, clean_tokens, load_corpus,
                         naming, parse_conllu, parse_rebert_csv, save_corpus)
from reqtag.embeddings import build_vocabulary, load_glove
from reqtag.lemmatizer import lemmatize
from reqtag.network import _pack
from crf_oracles import is_valid_bio


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
        ("always", "always"),
        ("stories", "story"),
        ("copied", "copy"),
        # forms the suffix rules give with no table entry
        ("gets", "get"), ("makes", "make"), ("takes", "take"),
        ("gives", "give"), ("comes", "come"), ("says", "say"),
        ("saying", "say"), ("sees", "see"), ("seeing", "see"),
        ("uses", "use"), ("keeps", "keep"), ("lets", "let"),
        ("letting", "let"), ("puts", "put"), ("putting", "put"),
        ("finds", "find"), ("finding", "find"), ("sends", "send"),
        ("sending", "send"), ("buys", "buy"), ("buying", "buy"),
        ("pays", "pay"), ("paying", "pay"), ("leaves", "leave"),
        ("loses", "lose"), ("ios", "ios"), ("his", "his"), ("its", "its"),
        ("yes", "yes"), ("us", "us"), ("as", "as"), ("plus", "plus"),
        ("ss", "ss"), ("thus", "thus"),
    ])
    def test_goldens(self, word, lemma):
        assert lemmatize(word) == lemma

    def test_every_table_entry_changes_a_lemma(self, monkeypatch):
        # an entry that gives what the suffix rules give decides nothing
        irregular = lemmatizer.IRREGULAR
        monkeypatch.setattr(lemmatizer, "IRREGULAR", {})
        same = [word for word, lemma in irregular.items()
                if lemmatize(word) == lemma]
        assert same == []


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

    def test_empty_phrase_tags_nothing_and_misses_nothing(self):
        assert align_bio(["a", "b"], [[], ["a"]]) == (["B", "O"], 0)

    def test_longest_phrase_wins(self):
        tags, misses = align_bio(["a", "b", "c"], [["a", "b", "c"], ["b"]])
        assert tags == ["B", "I", "I"]
        assert misses == 1  # ["b"] had nowhere left to match

    def test_phrase_listed_twice_misses_once(self):
        tags, misses = align_bio(["x", "a", "b"], [["a", "b"], ("a", "b")])
        assert tags == ["O", "B", "I"]
        assert misses == 1  # the second listing found its tokens tagged

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

    @pytest.mark.parametrize("app_id, category", [
        ("", None), (None, None), ("a", ""),
    ])
    def test_empty_domain_rejected(self, app_id, category):
        with pytest.raises(DataError, match="empty domain label"):
            TaggedSentence(app_id=app_id, category=category, tokens=["x"],
                           tags=["O"])

    def test_token_cap(self):
        n = MAX_SENTENCE_TOKENS
        assert n == 1000
        TaggedSentence(app_id="a", tokens=["x"] * n, tags=["O"] * n)
        with pytest.raises(DataError, match="1001 tokens, more than 1000"):
            TaggedSentence(app_id="a", tokens=["x"] * (n + 1),
                           tags=["O"] * (n + 1))


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
        corpus, counts = parse_rebert_csv(path)
        assert len(corpus.sentences) == 3
        assert counts["dropped_empty"] == 1  # the "!!!" row
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
        with pytest.raises(DataError, match="App Id"):
            parse_rebert_csv(path)

    def test_byte_order_mark_parses_like_plain_file(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(REBERT_CSV, encoding="utf-8")
        bom.write_text(REBERT_CSV, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_rebert_csv(bom) == parse_rebert_csv(plain)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_quoted_cell_keeps_its_line_ends(self, tmp_path, end):
        # read as the csv module asks (newline=""), not translated to "\n"
        path = tmp_path / "d1.csv"
        path.write_bytes(end.join([
            "App Id,Sentence Content,Feature (All Annotated)",
            '"eb\r\nay","Add dark\rmode","dark\r\nmode"', ""]).encode())
        corpus, _ = parse_rebert_csv(path, feature_delim="\r\n")
        assert corpus.sentences == [TaggedSentence(
            app_id="eb\r\nay", tokens=["add", "dark", "mode"],
            tags=["O", "B", "B"])]

    @pytest.mark.parametrize("rows, message", [
        # line 3 opens a quote that no later line closes; read loosely,
        # the two spotify rows would fold into one ebay sentence
        pytest.param(["ebay,Please add a dark mode,dark mode",
                      'ebay,"The search filter is slow,search filter',
                      "spotify,I want offline playlists,offline playlists",
                      "spotify,Add a sleep timer please,sleep timer"],
                     "line 5: unexpected end of data", id="left-open"),
        pytest.param(['ebay,"Add dark" mode,dark'],
                     "line 2: ',' expected after '\"'", id="text-after"),
    ])
    def test_quote_not_closed_cleanly(self, tmp_path, rows, message):
        path = tmp_path / "d1.csv"
        path.write_text("\n".join(
            ["App Id,Sentence Content,Feature (All Annotated)", *rows, ""]),
            encoding="utf-8")
        with pytest.raises(DataError,
                           match=f"^{re.escape(f'{path}: {message}')}$"):
            parse_rebert_csv(path)

    @pytest.mark.parametrize("col", ["App Id", "Sentence Content",
                                     "Feature (All Annotated)"])
    def test_required_column_named_twice(self, tmp_path, col):
        path = tmp_path / "d1.csv"
        path.write_text(
            f"App Id,Sentence Content,Feature (All Annotated),{col}\n"
            "ebay,Add dark mode,dark mode,x\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"column {col!r} appears more than once")):
            parse_rebert_csv(path)

    def test_other_repeated_columns_are_accepted(self, tmp_path):
        # spreadsheet exports may end every row with blank columns
        path = tmp_path / "d1.csv"
        path.write_text("App Id,Sentence Content,Feature (All Annotated),,\n"
                        "ebay,Add dark mode,dark mode,,\n", encoding="utf-8")
        corpus, _ = parse_rebert_csv(path)
        assert corpus.sentences == [TaggedSentence(
            app_id="ebay", tokens=["add", "dark", "mode"],
            tags=["O", "B", "I"])]


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
        corpus, counts = parse_conllu(path)
        assert len(corpus.sentences) == 1
        s = corpus.sentences[0]
        assert s.tokens == ["dark", "mode", "rock"]
        assert s.tags == ["B", "I", "O"]
        assert s.domain == "PRODUCTIVITY"

    def test_comment_only_document(self, tmp_path):
        path = tmp_path / "d2.conllu"
        path.write_text("# app_name = X\n# google_play_category = Y\n\n",
                        encoding="utf-8")
        corpus, counts = parse_conllu(path)
        assert len(corpus.sentences) == 0
        assert counts["dropped_empty"] == 0

    def test_punctuation_only_sentence_is_counted_as_dropped(self, tmp_path):
        doc = conllu_doc([token_line(1, "dark", "dark", "B-feature")])
        doc += conllu_doc([token_line(1, "!!!", "!!!", "O"),
                           token_line(2, "...", "...", "O")])
        path = tmp_path / "d2.conllu"
        path.write_text(doc, encoding="utf-8")
        corpus, counts = parse_conllu(path)
        assert len(corpus.sentences) == 1
        assert counts == {"dropped_empty": 1, "alignment_misses": 0}

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

    def test_range_and_empty_node_lines_add_no_token(self, tmp_path):
        # both carry real lemmas and tags; only the plain ids are words
        doc = conllu_doc([
            token_line("1-2", "dont", "dont", "B-feature"),
            token_line(1, "do", "do", "O"),
            token_line(2, "not", "not", "O"),
            token_line(3, "mode", "mode", "O"),
            token_line("3.1", "add", "add", "B-feature"),
        ])
        path = tmp_path / "d2.conllu"
        path.write_text(doc, encoding="utf-8")
        corpus, _ = parse_conllu(path)
        assert corpus.sentences[0].tokens == ["do", "not", "mode"]
        assert corpus.sentences[0].tags == ["O", "O", "O"]

    @pytest.mark.parametrize("lemma", ["_", "é", pytest.param("", id="empty")])
    def test_lemma_that_cleans_to_nothing_drops_its_token(self, tmp_path, lemma):
        doc = conllu_doc([token_line(1, "café", lemma, "O"),
                          token_line(2, "app", "app", "O")])
        doc += conllu_doc([token_line(1, "café", lemma, "B-feature")])
        path = tmp_path / "d2.conllu"
        path.write_text(doc, encoding="utf-8")
        corpus, counts = parse_conllu(path)
        assert [s.tokens for s in corpus.sentences] == [["app"]]
        assert counts == {"dropped_empty": 1, "alignment_misses": 0}

    def test_sentence_without_comments_keeps_the_labels_before(self, tmp_path):
        doc = conllu_doc([token_line(1, "dark", "dark", "O")],
                         app="ebay", category="SHOPPING")
        doc += token_line(1, "timer", "timer", "O") + "\n\n"
        path = tmp_path / "d2.conllu"
        path.write_text(doc, encoding="utf-8")
        corpus, _ = parse_conllu(path)
        assert [(s.app_id, s.category, s.tokens) for s in corpus.sentences] == [
            ("ebay", "SHOPPING", ["dark"]), ("ebay", "SHOPPING", ["timer"])]

    def test_category_comment_after_the_tokens_labels_the_sentence(self,
                                                                    tmp_path):
        lines = ["# app_name = ebay", "# google_play_category = SHOPPING",
                 token_line(1, "dark", "dark", "O"),
                 "# google_play_category = TOOLS"]
        path = tmp_path / "d2.conllu"
        path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        corpus, _ = parse_conllu(path)
        assert corpus.sentences[0].category == "TOOLS"

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "d2.conllu"
        path.write_text("# app_name = X\n# google_play_category = Y\n"
                        "1\tonly\tthree\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3"):
            parse_conllu(path)

    @pytest.mark.parametrize("column", [-1, 10])
    def test_tag_column_outside_the_row(self, tmp_path, column):
        # -1 would otherwise index the last column
        path = tmp_path / "d2.conllu"
        path.write_text(conllu_doc([token_line(1, "app", "app", "O")]),
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"line 3: no column {column}"):
            parse_conllu(path, tag_column=column)

    def test_missing_metadata(self, tmp_path):
        path = tmp_path / "d2.conllu"
        path.write_text(token_line(1, "app", "app", "O") + "\n\n",
                        encoding="utf-8")
        with pytest.raises(DataError):
            parse_conllu(path)

    @pytest.mark.parametrize("app, category", [("", "TOOLS"), ("X", "")])
    def test_empty_metadata_value(self, tmp_path, app, category):
        path = tmp_path / "d2.conllu"
        path.write_text(conllu_doc([token_line(1, "app", "app", "O")],
                                   app=app, category=category),
                        encoding="utf-8")
        with pytest.raises(DataError, match="non-empty app_name and category"):
            parse_conllu(path)

    @pytest.mark.parametrize("category, n, message", [
        ("", 2, "sentence without a non-empty app_name and category"),
        ("TOOLS", 1 + MAX_SENTENCE_TOKENS,
         "app 'X': 1001 tokens, more than 1000"),
    ])
    def test_sentence_error_names_first_token_line(self, tmp_path, category,
                                                   n, message):
        # the second sentence starts on line 6 with a token that is dropped
        ok = conllu_doc([token_line(1, "app", "app", "O")], app="X")
        bad = [f"# google_play_category = {category}",
               token_line(1, ",", ",", "O")]
        bad += [token_line(i, "app", "app", "O") for i in range(2, n + 2)]
        path = tmp_path / "d2.conllu"
        path.write_text(ok + "\n".join(bad) + "\n\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            parse_conllu(path)
        assert str(exc.value) == f"{path}: line 6: {message}"

    def test_byte_order_mark_parses_like_plain_file(self, tmp_path):
        doc = conllu_doc([token_line(1, "dark", "dark", "B-feature")])
        plain, bom = tmp_path / "plain.conllu", tmp_path / "bom.conllu"
        plain.write_text(doc, encoding="utf-8")
        bom.write_text(doc, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_conllu(bom) == parse_conllu(plain)


    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        doc = conllu_doc([token_line(1, "dark", "dark", "B-feature"),
                          token_line(2, "mode", "mod\udcffe", "I-feature")])
        path = tmp_path / "d2.conllu"
        path.write_bytes(doc.encode("utf-8", "surrogateescape"))
        with pytest.raises(DataError) as exc:
            parse_conllu(path)
        assert str(exc.value) == f"{path}: line 4: not UTF-8"


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


def test_load_corpus_byte_order_mark(tmp_path):
    corpus = Corpus(sentences=[TaggedSentence(app_id="a", tokens=["nice"],
                                              tags=["O"])])
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, corpus)
    path.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_corpus(path) == corpus


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
    ('{"app": "x", "app": "y", "tokens": ["x"], "tags": ["O"]}',
     "line 2: key 'app' appears more than once"),
])
def test_load_corpus_rejects_malformed_line(tmp_path, line, fragment):
    path = tmp_path / "corpus.jsonl"
    path.write_text(GOOD_LINE + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_corpus(path)
    assert str(exc.value).startswith(f"{path}: line 2: ")
    assert fragment in str(exc.value)


def test_naming_prefixes_value_errors_only():
    with pytest.raises(DataError, match=r"^in\.txt: line 2: bad$"):
        with naming("in.txt"):
            raise ValueError("line 2: bad")
    # an OSError names its path itself, and other errors pass unchanged
    with pytest.raises(FileNotFoundError, match=r"^\[Errno 2\] gone$"):
        with naming("in.txt"):
            raise FileNotFoundError(2, "gone")


def test_load_corpus_byte_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes((GOOD_LINE + "\n" + GOOD_LINE + "\n").encode()
                     + b'{"app": "a\xff", "tokens": ["x"], "tags": ["O"]}\n')
    with pytest.raises(DataError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}: line 3: not UTF-8"


@pytest.mark.parametrize("line, message", [
    ('{"app": "a", "tokens": ["Dark"], "tags": ["O"]}',
     "line 2: app 'a' position 0: unclean token 'Dark'"),
    # the pad token never reaches the core as a word
    ('{"app": "a", "tokens": ["add", "<pad>"], "tags": ["O", "O"]}',
     "line 2: app 'a' position 1: unclean token '<pad>'"),
    # a final line end is no part of a clean token
    ('{"app": "a", "tokens": ["dark\\n"], "tags": ["O"]}',
     "line 2: app 'a' position 0: unclean token 'dark\\n'"),
    ('{"app": "a", "tokens": ["x"], "tags": ["X"]}',
     "line 2: app 'a' position 0: bad tag 'X'"),
    ('{"app": "a", "tokens": ["x", "y"], "tags": ["O"]}',
     "line 2: app 'a': 2 tokens vs 1 tags"),
    ('{"app": "", "tokens": ["x"], "tags": ["O"]}',
     "line 2: app '': empty domain label"),
    ('{"app": "a", "category": "", "tokens": ["x"], "tags": ["O"]}',
     "line 2: app 'a': empty domain label"),
    ('{"app": "a", "tokens": ["x"], "tags": ["I"]}',
     "line 2: app 'a' position 0: I tag without preceding B/I"),
    ('{"app": "a", "tokens": ["x", "y"], "tags": ["O", "I"]}',
     "line 2: app 'a' position 1: I tag without preceding B/I"),
])
def test_load_corpus_invalid_sentence_names_line(tmp_path, line, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text(GOOD_LINE + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}: {message}"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("OBI"), min_size=1, max_size=12))
def test_sentence_accepts_exactly_valid_bio(tags):
    # the CRF loss does not check BIO itself: TaggedSentence is the gate
    indices = [TAG_INDEX[t] for t in tags]
    try:
        sentence = TaggedSentence(app_id="a", tokens=["x"] * len(tags),
                                  tags=tags)
    except DataError:
        assert not is_valid_bio(indices)
        return
    assert is_valid_bio(indices)
    emissions = np.random.default_rng(len(tags)).normal(size=(len(tags), 3))
    nll, _, _ = crf_nll_backward(emissions, init_transitions(),
                                 sentence.tag_indices(), _pack([len(tags)]))
    assert np.isfinite(nll)


def test_load_corpus_token_cap_names_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = [json.dumps({"app": "a", "tokens": ["x"] * n, "tags": ["O"] * n})
             for n in (1000, 1001)]
    path.write_text(lines[0] + "\n", encoding="utf-8")
    assert len(load_corpus(path).sentences[0].tokens) == 1000
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_corpus(path)
    assert str(exc.value) == (
        f"{path}: line 2: app 'a': 1001 tokens, more than 1000")


@pytest.mark.parametrize("name, text, read", [
    ("corpus.jsonl", f'{GOOD_LINE}\n{{"app": "a",\n{GOOD_LINE}\n', load_corpus),
    ("glove.txt", "cat 0.1 0.2 0.3\ncat 0.1 x 0.3\ncat 0.4 0.5 0.6\n",
     lambda path: load_glove(path, build_vocabulary([["cat"]]), 3)),
    ("d1.csv", "App Id,Sentence Content,Feature (All Annotated)\n"
               "ebay,Add dark mode,dark mode\n,Add a timer,timer\n"
               "ebay,Add a timer,timer\n", parse_rebert_csv),
    ("d2.conllu", conllu_doc([token_line(1, "dark", "dark", "O")])
     + conllu_doc([token_line(1, "dark", "dark", "O")], app="")
     + conllu_doc([token_line(1, "mode", "mode", "O")]), parse_conllu),
], ids=["load_corpus", "load_glove", "parse_rebert_csv", "parse_conllu"])
def test_reader_closes_its_file_when_it_refuses(tmp_path, monkeypatch, name,
                                               text, read):
    # the second of three records is bad; the error's traceback must not
    # hold the file open, or it closes whenever the garbage collector
    # breaks the cycle, and ResourceWarning lands on another test
    opened = []

    def recorder(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(data, "open", recorder, raising=False)
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as exc:
        read(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert len(opened) == 1 and opened[0].closed


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
        except DataError:
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
