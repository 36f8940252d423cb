import errno
import hashlib
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reqtag
from reqtag import cli, network, training
from reqtag.cli import main
from reqtag.data import (Corpus, TaggedSentence, clean_tokens, load_corpus,
                         save_corpus)
from reqtag.embeddings import build_vocabulary, encode_tokens
from reqtag.evaluation import evaluate_tag_pairs, extract_spans
from reqtag.network import (DECODE_CHUNK, ModelDims, init_model,
                            load_checkpoint, predict_tags, save_checkpoint)
from conftest import make_synthetic_corpus

TINY_CONFIG = {
    "embedding_dim": 16, "h_enc": 8, "d_att": 8, "h_dec": 8, "d_tag": 4,
    "epochs": 2, "runs_per_fold": 1, "batch_size": 8, "seed": 0,
}


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, make_synthetic_corpus(30, 2))
    return path


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestPreprocess:
    def test_rebert_csv(self, tmp_path, capsys):
        src = tmp_path / "d1.csv"
        src.write_text(
            'App Id,Sentence Content,Feature (All Annotated)\n'
            'ebay,Can you add audio format for text to speech?,'
            '"audio format,text to speech"\n'
            "spotify,I also like the 'rewind' button.,rewind button\n",
            encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["preprocess", "--format", "rebert-csv",
                    "--input", src, "--output", out]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["tags"] == ["O", "O", "O", "B", "I", "O", "B", "I", "I"]
        summary = json.loads(capsys.readouterr().err)
        assert summary["domains"] == {"ebay": 1, "spotify": 1}

    def test_conllu(self, tmp_path):
        src = tmp_path / "d2.conllu"
        cols = ["1", "dark", "dark", "NOUN", "NN", "_", "0", "root", "_",
                "B-feature"]
        src.write_text("# app_name = X\n# google_play_category = TOOLS\n"
                       + "\t".join(cols) + "\n\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["preprocess", "--format", "conllu",
                    "--input", src, "--output", out]) == 0
        doc = json.loads(out.read_text().splitlines()[0])
        assert doc["category"] == "TOOLS" and doc["tags"] == ["B"]

    def test_unknown_format_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["preprocess", "--format", "nope",
                 "--input", "x", "--output", "y"])
        assert exc.value.code == 2

    def test_output_naming_input_stops_before_reading(self, tmp_path,
                                                      capsys):
        src = tmp_path / "r.csv"
        src.write_text("App Id,Sentence Content,Feature (All Annotated)\n"
                       "ebay,Add dark mode,dark mode\n", encoding="utf-8")
        before = src.read_bytes()
        out = tmp_path / "." / "r.csv"
        assert run(["preprocess", "--format", "rebert-csv",
                    "--input", src, "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: --output {str(out)!r} and --input {str(src)!r} "
            f"name the same file\n")
        assert src.read_bytes() == before

    def test_negative_tag_column(self, tmp_path, capsys):
        src = tmp_path / "d2.conllu"
        cols = ["1", "dark", "dark", "NOUN", "NN", "_", "0", "root", "_", "O"]
        src.write_text("# app_name = X\n# google_play_category = TOOLS\n"
                       + "\t".join(cols) + "\n\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["preprocess", "--format", "conllu", "--tag-column", -1,
                    "--input", src, "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {src}: line 3: no column -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("name, text, message", [
        pytest.param("d1.csv", "App Id,Sentence Content,Feature (All Annotated)\n"
                     "ebay,Nice app!,\n,Add dark mode,dark mode\n",
                     "row 3: app '': empty domain label", id="csv"),
        pytest.param("d2.conllu", "# app_name = X\n# google_play_category = \n"
                     "1\tdark\tdark\tNOUN\tNN\t_\t0\troot\t_\tO\n\n",
                     "line 3: sentence without a non-empty app_name and "
                     "category", id="conllu"),
    ])
    def test_empty_domain_label(self, tmp_path, capsys, name, text, message):
        src = tmp_path / name
        src.write_text(text, encoding="utf-8")
        out = tmp_path / "out.jsonl"
        fmt = "rebert-csv" if name.endswith(".csv") else "conllu"
        assert run(["preprocess", "--format", fmt,
                    "--input", src, "--output", out]) == 1
        assert capsys.readouterr().err == f"error: {src}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n, code", [(1000, 0), (1001, 1)])
    def test_sentence_token_cap(self, tmp_path, capsys, n, code):
        src = tmp_path / "d1.csv"
        src.write_text("App Id,Sentence Content,Feature (All Annotated)\n"
                       f"ebay,{'app ' * n},\n", encoding="utf-8")
        assert run(["preprocess", "--format", "rebert-csv",
                    "--input", src, "--output", tmp_path / "out.jsonl"]) == code
        err = capsys.readouterr().err
        if code:
            assert err == (f"error: {src}: row 2: app 'ebay': 1001 tokens, "
                           "more than 1000\n")
        else:
            assert json.loads(err)["sentences_kept"] == 1

    @pytest.mark.parametrize("text, line", [
        pytest.param("App Id,Sentence Content," + "x" * 140_000 + "\n", 1,
                     id="header"),
        pytest.param("App Id,Sentence Content,Feature (All Annotated)\n"
                     "ebay," + "x" * 140_000 + ",\n", 2, id="row"),
    ])
    def test_csv_cell_over_field_limit_names_line(self, tmp_path, capsys,
                                                  text, line):
        src = tmp_path / "d1.csv"
        src.write_text(text, encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["preprocess", "--format", "rebert-csv",
                    "--input", src, "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {src}: line {line}: field larger than field limit "
            f"(131072)\n")
        assert not out.exists()

    def test_quote_left_open_is_one_error_line(self, tmp_path, capsys):
        src = tmp_path / "d1.csv"
        src.write_text(
            "App Id,Sentence Content,Feature (All Annotated)\n"
            "ebay,Please add a dark mode,dark mode\n"
            'ebay,"The search filter is slow,search filter\n'
            "spotify,I want offline playlists,offline playlists\n"
            "spotify,Add a sleep timer please,sleep timer\n",
            encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["preprocess", "--format", "rebert-csv",
                    "--input", src, "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {src}: line 5: unexpected end of data\n")
        assert not out.exists()

    def test_conllu_report_counts_dropped_sentence(self, tmp_path, capsys):
        src = tmp_path / "d2.conllu"
        token = "1\t{0}\t{0}\tNOUN\tNN\t_\t0\troot\t_\tO\n"
        src.write_text("# app_name = X\n# google_play_category = TOOLS\n"
                       + token.format("dark") + "\n" + token.format("!!!")
                       + "\n", encoding="utf-8")
        assert run(["preprocess", "--format", "conllu", "--input", src,
                    "--output", tmp_path / "out.jsonl"]) == 0
        assert json.loads(capsys.readouterr().err) == {
            "sentences_kept": 1, "sentences_dropped_empty": 1,
            "alignment_misses": 0, "sentences_duplicated": 0,
            "abutting_spans": 0, "domains": {"TOOLS": 1}}

    def test_report_counts_repeats_and_abutting_spans(self, tmp_path, capsys):
        # a sentence counts as a repeat when an earlier one, of any domain
        # and tagging, has its tokens; a B right after a B or an I abuts
        def sentence(category, rows):
            lines = [f"# app_name = X\n# google_play_category = {category}\n"]
            for k, (word, tag) in enumerate(rows, start=1):
                lines.append(f"{k}\t{word}\t{word}\tNOUN\tNN\t_\t0\troot\t_\t"
                             f"{tag}\n")
            return "".join(lines) + "\n"
        o, b, i = "O", "B-feature", "I-feature"
        src = tmp_path / "d.conllu"
        src.write_text("".join([
            sentence("T", [("add", o), ("dark", b), ("mode", i)]),
            sentence("T", [("add", o), ("dark", b), ("mode", i)]),
            sentence("T", [("dark", b), ("mode", i), ("sleep", b),
                           ("timer", i)]),
            sentence("T", [("mode", b), ("timer", b)]),
            sentence("U", [("add", o), ("dark", o), ("mode", o)]),
            sentence("U", [("dark", b), ("mode", i), ("sleep", i),
                           ("timer", i)]),
        ]), encoding="utf-8")
        assert run(["preprocess", "--format", "conllu", "--input", src,
                    "--output", tmp_path / "out.jsonl"]) == 0
        report = json.loads(capsys.readouterr().err)
        assert report["sentences_kept"] == 6
        assert report["sentences_duplicated"] == 3
        assert report["abutting_spans"] == 2

    def test_missing_input_is_runtime_error(self, tmp_path):
        assert run(["preprocess", "--format", "rebert-csv",
                    "--input", tmp_path / "absent.csv",
                    "--output", tmp_path / "o"]) == 1

    def test_empty_feature_delim(self, tmp_path, capsys):
        # rejected before the input is opened: the file does not exist
        assert run(["preprocess", "--format", "rebert-csv",
                    "--feature-delim", "", "--input", tmp_path / "absent.csv",
                    "--output", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == (
            "error: --feature-delim must not be empty\n")
        assert not (tmp_path / "o").exists()


class TestCrossval:
    @pytest.mark.parametrize("label", ["a/b", "a\0b"])
    def test_domain_that_cannot_name_a_file(self, tmp_path, config_path,
                                            capsys, label):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(corpus, Corpus(sentences=[
            TaggedSentence(app_id=app, tokens=["add", "dark", "mode"],
                           tags=["O", "B", "I"])
            for app in ("x", "x", label, label)]))
        out = tmp_path / "res"
        assert run(["crossval", "--corpus", corpus, "--config", config_path,
                    "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: domain {label!r} holds '/' or NUL, so it cannot name "
            f"a fold file\n")
        assert not out.exists()

    @pytest.mark.parametrize("label", ["x" * 300, "\ud800", "\udc80"],
                             ids=["300-chars", "high-surrogate",
                                  "low-surrogate"])
    def test_label_that_cannot_name_a_fold_file_stops_first_run(
            self, tmp_path, config_path, capsys, monkeypatch, label):
        # too long for a file name, or not UTF-8 text for report.txt
        def fail(*args):
            raise AssertionError("run_fold called")
        monkeypatch.setattr(training, "run_fold", fail)
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(corpus, Corpus(sentences=[
            TaggedSentence(app_id=app, tokens=["add", "dark", "mode"],
                           tags=["O", "B", "I"])
            for app in ("x", label)]))
        out = tmp_path / "res"
        assert run(["crossval", "--corpus", corpus, "--config", config_path,
                    "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: domain {label!r} cannot name a fold file of at most "
            f"255 UTF-8 bytes\n")
        assert not out.exists()

    def test_one_domain_leaves_no_out_directory(self, tmp_path, config_path,
                                                capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(corpus, make_synthetic_corpus(6, 1))
        out = tmp_path / "res"
        assert run(["crossval", "--corpus", corpus, "--config", config_path,
                    "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: need at least 2 domains, have 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--corpus", "--config", "glove_path"])
    def test_input_that_is_a_directory_leaves_no_out_directory(
            self, corpus_path, tmp_path, capsys, flag):
        glove = {"glove_path": str(tmp_path)} if flag == "glove_path" else {}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, **glove}),
                          encoding="utf-8")
        inputs = {"--corpus": corpus_path, "--config": config, flag: tmp_path}
        out = tmp_path / "new" / "res"
        assert run(["crossval", "--corpus", inputs["--corpus"], "--config",
                    inputs["--config"], "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
            f"{str(tmp_path)!r}\n")
        assert not out.parent.exists()

    @pytest.mark.parametrize("flag", ["--corpus", "--config", "glove_path"])
    def test_missing_input_leaves_no_out_directory(
            self, corpus_path, tmp_path, capsys, flag):
        missing = tmp_path / "missing"
        glove = {"glove_path": str(missing)} if flag == "glove_path" else {}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, **glove}),
                          encoding="utf-8")
        inputs = {"--corpus": corpus_path, "--config": config, flag: missing}
        out = tmp_path / "new" / "res"
        assert run(["crossval", "--corpus", inputs["--corpus"], "--config",
                    inputs["--config"], "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
            f"{str(missing)!r}\n")
        assert not out.parent.exists()

    def test_determinism_byte_identical(self, corpus_path, config_path,
                                        tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["crossval", "--corpus", corpus_path,
                    "--config", config_path, "--out", out1]) == 0
        assert run(["crossval", "--corpus", corpus_path,
                    "--config", config_path, "--out", out2]) == 0
        for name in ("fold_dom0.json", "fold_dom1.json", "report.json",
                     "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_output_files_pinned(self, tmp_path, monkeypatch, capsys):
        # precision, recall, f1 of each (held-out domain, run); the mean of
        # 0.1, 0.2 and 0.3 depends on the order they are added in
        scores = {"dom0": [(0.1, 0.3, 0.7), (0.2, 0.2, 0.8), (0.3, 0.1, 0.9)],
                  "dom1": [(0.3, 0.5, 0.2), (0.2, 0.6, 0.3), (0.1, 0.7, 0.1)]}

        def fake_run_fold(config, corpus, held_out, seed):
            p, r, f = scores[held_out][seed - 4]
            return {"seed": seed, "precision": p, "recall": r, "f1": f}

        monkeypatch.setattr(training, "run_fold", fake_run_fold)
        corpus, cfg = tmp_path / "corpus.jsonl", tmp_path / "cfg.json"
        save_corpus(corpus, make_synthetic_corpus(6, 2))
        cfg.write_text(json.dumps({"runs_per_fold": 3, "seed": 4}),
                       encoding="utf-8")
        out = tmp_path / "res"
        assert run(["crossval", "--corpus", corpus, "--config", cfg,
                    "--out", out]) == 0
        runs = {d: [{"f1": f, "precision": p, "recall": r, "seed": 4 + k}
                    for k, (p, r, f) in enumerate(rows)]
                for d, rows in scores.items()}
        folds = {"dom0": {"held_out_domain": "dom0",
                          "mean_f1": 0.7999999999999999,
                          "mean_precision": 0.20000000000000004,
                          "mean_recall": 0.19999999999999998,
                          "runs": runs["dom0"]},
                 "dom1": {"held_out_domain": "dom1",
                          "mean_f1": 0.19999999999999998,
                          "mean_precision": 0.19999999999999998,
                          "mean_recall": 0.6,
                          "runs": runs["dom1"]}}
        report = {
            "folds": [{"domain": "dom0", "f1": 0.7999999999999999,
                       "precision": 0.20000000000000004,
                       "recall": 0.19999999999999998, "runs": runs["dom0"]},
                      {"domain": "dom1", "f1": 0.19999999999999998,
                       "precision": 0.19999999999999998, "recall": 0.6,
                       "runs": runs["dom1"]}],
            "mean": {"domain": "MEAN", "f1": 0.49999999999999994,
                     "precision": 0.2, "recall": 0.39999999999999997},
            "note": "zero-denominator metrics reported as 0"}
        for name, doc in [("fold_dom0.json", folds["dom0"]),
                          ("fold_dom1.json", folds["dom1"]),
                          ("report.json", report)]:
            assert (out / name).read_text(encoding="utf-8") == json.dumps(
                doc, indent=2, sort_keys=True) + "\n"
        table = (
            "domain           precision              recall                  f1\n"
            "dom0                0.2000              0.2000              0.8000\n"
            "dom1                0.2000              0.6000              0.2000\n"
            "MEAN                0.2000              0.4000              0.5000\n")
        assert (out / "report.txt").read_text(encoding="utf-8") == table
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["fold_seeds"] == {"dom0": [4, 5, 6],
                                          "dom1": [4, 5, 6]}
        assert capsys.readouterr().err == "".join(
            f"[fold={d} run={k}] seed={4 + k}\n"
            for d in ("dom0", "dom1") for k in range(3)) + table

    @pytest.mark.parametrize("flag, name", [
        ("--corpus", "report.json"), ("--corpus", "fold_dom1.json"),
        ("--config", "manifest.json"), ("--config", "report.txt")])
    def test_output_naming_an_input_stops_before_first_run(
            self, corpus_path, config_path, tmp_path, capsys, monkeypatch,
            flag, name):
        def fail(*args):
            raise AssertionError("run_fold called")
        monkeypatch.setattr(training, "run_fold", fail)
        out = tmp_path / "res"
        out.mkdir()
        inputs = {"--corpus": corpus_path, "--config": config_path}
        kept = out / name  # the input, where crossval writes an output
        before = inputs[flag].read_bytes()
        kept.write_bytes(before)
        inputs[flag] = kept
        assert run(["crossval", "--corpus", inputs["--corpus"],
                    "--config", inputs["--config"], "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: --out {str(kept)!r} and {flag} {str(kept)!r} name the "
            f"same file\n")
        assert os.listdir(out) == [name]
        assert kept.read_bytes() == before

    def test_out_file_naming_the_glove_file_stops_before_first_run(
            self, corpus_path, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("run_fold called")
        monkeypatch.setattr(training, "run_fold", fail)
        out = tmp_path / "res"
        out.mkdir()
        glove = out / "fold_dom1.json"  # where crossval writes a fold file
        glove.write_text("add" + " 0.5" * 16 + "\n", encoding="utf-8")
        before = glove.read_bytes()
        config = tmp_path / "glove.json"
        config.write_text(json.dumps({**TINY_CONFIG, "glove_path": str(glove)}),
                          encoding="utf-8")
        assert run(["crossval", "--corpus", corpus_path, "--config", config,
                    "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: --out {str(glove)!r} and glove_path {str(glove)!r} name "
            f"the same file\n")
        assert os.listdir(out) == [glove.name]
        assert glove.read_bytes() == before

    def test_manifest_digests_the_corpus_the_runs_read(
            self, corpus_path, config_path, tmp_path, monkeypatch):
        # a corpus rewritten while the folds run keeps the digest of the
        # file as it was when the first run started
        read = hashlib.sha256(corpus_path.read_bytes()).hexdigest()

        def rewriting_run_fold(config, corpus, held_out, seed):
            with open(corpus_path, "a", encoding="utf-8") as fh:
                fh.write("\n")
            return {"seed": seed, "precision": 0.0, "recall": 0.0, "f1": 0.0}
        monkeypatch.setattr(training, "run_fold", rewriting_run_fold)
        out = tmp_path / "res"
        assert run(["crossval", "--corpus", corpus_path,
                    "--config", config_path, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input_digests"] == {"corpus": read}

    def test_manifest_digests_the_glove_file(self, corpus_path, tmp_path,
                                             monkeypatch):
        def fake_run_fold(config, corpus, held_out, seed):
            return {"seed": seed, "precision": 0.0, "recall": 0.0, "f1": 0.0}
        monkeypatch.setattr(training, "run_fold", fake_run_fold)
        glove = tmp_path / "glove.txt"
        glove.write_text("dark " + " ".join(["0.5"] * 16) + "\n",
                         encoding="utf-8")
        cfg = tmp_path / "glove.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "glove_path": str(glove)}),
                       encoding="utf-8")
        out = tmp_path / "res"
        assert run(["crossval", "--corpus", corpus_path,
                    "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input_digests"] == {
            name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in [("corpus", corpus_path), ("glove", glove)]}

    def test_manifest_counts_what_training_saw_of_each_held_out_domain(
            self, tmp_path, config_path, monkeypatch):
        def fake_run_fold(config, corpus, held_out, seed):
            return {"seed": seed, "precision": 0.0, "recall": 0.0, "f1": 0.0}
        monkeypatch.setattr(training, "run_fold", fake_run_fold)

        def sentence(app, text, tags):
            return TaggedSentence(app_id=app, tokens=text.split(),
                                  tags=tags.split())
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(corpus, Corpus(sentences=[
            sentence("a", "add dark mode", "O B I"),
            sentence("a", "sleep timer", "B I"),
            sentence("b", "add dark mode", "O B I"),  # a has it
            sentence("b", "add dark mode", "O O O"),  # a has it, no span
            sentence("b", "new dark theme", "O B I"),
        ]))
        out = tmp_path / "res"
        assert run(["crossval", "--corpus", corpus, "--config", config_path,
                    "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["held_out"] == {
            # trained on b: "sleep" and "timer" are <unk>
            "a": {"sentences": 2, "sentences_seen_in_training": 1,
                  "spans_in_seen": 1, "tokens": 5, "unk_tokens": 2,
                  "span_tokens": 4, "unk_span_tokens": 2},
            # trained on a: "new" and "theme" are <unk>
            "b": {"sentences": 3, "sentences_seen_in_training": 2,
                  "spans_in_seen": 1, "tokens": 9, "unk_tokens": 2,
                  "span_tokens": 4, "unk_span_tokens": 1}}

    @pytest.mark.parametrize("lookup", ["found", "patched to None"])
    def test_manifest_records_the_environment(
            self, corpus_path, config_path, tmp_path, monkeypatch, lookup):
        # the BLAS thread count changes how the folds' floats round
        if lookup != "found":
            monkeypatch.setattr(cli, "blas_threads", lambda: None)
        blas = cli.blas_threads()
        out = tmp_path / "res"
        assert run(["crossval", "--corpus", corpus_path,
                    "--config", config_path, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == {
            "numpy": np.__version__,
            "blas_threads": None if blas is None else blas[0](),
            "cpus": network.usable_cpus()}

    def test_runs_override(self, corpus_path, tmp_path):
        # the config's runs_per_fold overrides the default of 15
        config = tmp_path / "runs.json"
        config.write_text(json.dumps({**TINY_CONFIG, "runs_per_fold": 1}),
                          encoding="utf-8")
        out = tmp_path / "r"
        assert run(["crossval", "--corpus", corpus_path,
                    "--config", config, "--out", out]) == 0
        fold = json.loads((out / "fold_dom0.json").read_text())
        assert len(fold["runs"]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["fold_seeds"]["dom0"] == [0]
        assert "corpus" in manifest["input_digests"]

    @pytest.mark.parametrize("command", ["train", "crossval"])
    @pytest.mark.parametrize("doc", [[], 5, {"seed": 1.5}, {"seed": True},
                                     {"seed": -1},
                                     {"freeze_embeddings": "no"},
                                     {"span_overlap_mode": "false"},
                                     {"glove_path": 7}])
    def test_bad_config_value(self, corpus_path, tmp_path, capsys, command,
                              doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        out = (["--output", tmp_path / "model.npz"] if command == "train"
               else ["--out", tmp_path / "o"])
        assert run([command, "--corpus", corpus_path, "--config", bad,
                    *out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "model.npz").exists()
        assert not (tmp_path / "o").exists()

    def test_bad_config_key(self, corpus_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learningrate": 1}), encoding="utf-8")
        assert run(["crossval", "--corpus", corpus_path,
                    "--config", bad, "--out", tmp_path / "o"]) == 1

    def test_no_config_is_the_default_config(self):
        # train and crossval without --config run at TrainConfig's
        # defaults (default dims, too slow to train here)
        assert cli._load_config(None) == training.TrainConfig()


class TestTrain:
    @pytest.mark.parametrize("line", [
        '{"app": "a", "tokens": "abc", "tags": "OOO"}',
        "[1, 2]",
    ])
    def test_malformed_corpus_line(self, corpus_path, config_path, tmp_path,
                                   capsys, line):
        with open(corpus_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        assert run(["train", "--corpus", corpus_path, "--config", config_path,
                    "--output", tmp_path / "model.npz"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {corpus_path}: line 31: ")

    def test_sentence_over_token_cap(self, corpus_path, config_path,
                                     tmp_path, capsys):
        with open(corpus_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"app": "a", "tokens": ["x"] * 1001,
                                 "tags": ["O"] * 1001}) + "\n")
        assert run(["train", "--corpus", corpus_path, "--config", config_path,
                    "--output", tmp_path / "model.npz"]) == 1
        assert capsys.readouterr().err == (
            f"error: {corpus_path}: line 31: app 'a': 1001 tokens, "
            f"more than 1000\n")

    def test_domain_listed_twice(self, corpus_path, config_path, tmp_path,
                                 capsys):
        assert run(["train", "--corpus", corpus_path, "--config", config_path,
                    "--domains", "dom0,dom1,dom0",
                    "--output", tmp_path / "model.npz"]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: training domains listed more than once: ['dom0']\n")
        assert err.count("error:") == 1
        assert not (tmp_path / "model.npz").exists()

    def test_empty_domains_flag_names_no_domain(self, corpus_path,
                                                config_path, tmp_path, capsys):
        # "" names one domain, the empty one, and not every domain
        model = tmp_path / "model.npz"
        assert run(["train", "--corpus", corpus_path, "--config", config_path,
                    "--domains", "", "--output", model]) == 1
        assert capsys.readouterr().err == (
            "error: unknown training domains: ['']\n")
        assert not model.exists()

    @pytest.mark.parametrize("key,value", [
        ("h_enc", 0), ("h_dec", 0), ("d_tag", 0), ("d_att", 0),
        ("learning_rate", float("nan")), ("grad_clip_norm", -1.0),
    ])
    def test_bad_model_or_optimiser_setting(self, corpus_path, tmp_path,
                                            capsys, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, key: value}),
                       encoding="utf-8")
        assert run(["train", "--corpus", corpus_path, "--config", cfg,
                    "--output", tmp_path / "model.npz"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {key} must be ")
        assert err.count("\n") == 1
        assert not (tmp_path / "model.npz").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_glove_value_names_line(self, corpus_path, tmp_path,
                                               capsys, value):
        glove = tmp_path / "glove.txt"
        glove.write_text("add " + " ".join(["0.5"] * 16) + "\n"
                         + "add " + " ".join(["0.5"] * 15 + [value]) + "\n",
                         encoding="utf-8")
        cfg = tmp_path / "glove.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "glove_path": str(glove)}),
                       encoding="utf-8")
        assert run(["train", "--corpus", corpus_path, "--config", cfg,
                    "--output", tmp_path / "model.npz"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {glove}: line 2: non-finite embedding value\n"
        assert err.count("error:") == 1 and "Warning" not in err
        assert not (tmp_path / "model.npz").exists()

    def test_glove_byte_that_is_not_utf8_names_its_line(self, corpus_path,
                                                        tmp_path, capsys):
        glove = tmp_path / "glove.txt"
        glove.write_bytes(b"add " + b" 0.5" * 16 + b"\n"
                          + b"caf\xff" + b" 0.5" * 16 + b"\n")
        cfg = tmp_path / "glove.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "glove_path": str(glove)}),
                       encoding="utf-8")
        assert run(["train", "--corpus", corpus_path, "--config", cfg,
                    "--output", tmp_path / "model.npz"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {glove}: line 2: not UTF-8\n"
        assert err.count("error:") == 1
        assert not (tmp_path / "model.npz").exists()

    def test_glove_vectors_of_another_dim_name_embedding_dim(
            self, corpus_path, tmp_path, capsys):
        # split from the right, a 20-value line's "word" holds 4 values,
        # so no line matches a word
        glove = tmp_path / "glove.txt"
        glove.write_text("".join(f"{w} " + " ".join(["0.5"] * 20) + "\n"
                                 for w in ("add", "dark", "mode")),
                         encoding="utf-8")
        cfg = tmp_path / "glove.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "glove_path": str(glove)}),
                       encoding="utf-8")
        assert run(["train", "--corpus", corpus_path, "--config", cfg,
                    "--output", tmp_path / "model.npz"]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {glove}: no word of the training vocabulary has a "
            f"vector in this file of embedding_dim 16 values\n")
        assert err.count("error:") == 1
        assert not (tmp_path / "model.npz").exists()

    def test_byte_order_marks_train_like_plain_files(self, corpus_path,
                                                     config_path, tmp_path):
        curves = []
        for encoding in ("utf-8", "utf-8-sig"):
            for path in (corpus_path, config_path):
                path.write_text(path.read_text(encoding="utf-8-sig"),
                                encoding=encoding)
            curve = tmp_path / f"{encoding}.json"
            assert run(["train", "--corpus", corpus_path, "--config",
                        config_path, "--output", tmp_path / "model.npz",
                        "--loss-curve", curve]) == 0
            curves.append(json.loads(curve.read_text(encoding="utf-8")))
        assert corpus_path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert curves[0] == curves[1]

    @pytest.mark.parametrize("flag", ["--output", "--loss-curve"])
    @pytest.mark.parametrize("where", ["missing/x.json", ".", ""])
    def test_unwritable_output_stops_before_training(
            self, corpus_path, config_path, tmp_path, capsys, monkeypatch,
            flag, where):
        def fail(*args):
            raise AssertionError("train called")
        monkeypatch.setattr(training, "train", fail)
        paths = {"--output": tmp_path / "model.npz",
                 "--loss-curve": tmp_path / "curve.json",
                 flag: tmp_path / where if where else ""}
        assert run(["train", "--corpus", corpus_path, "--config",
                    config_path, *[a for kv in paths.items() for a in kv]]) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} {str(paths[flag])!r} does not name a file in an "
            f"existing directory\n")
        assert sorted(tmp_path.iterdir()) == sorted([config_path, corpus_path])

    @staticmethod
    def _refused(paths, flag, other, tmp_path, capsys, monkeypatch):
        """train with paths refuses, naming flag and other, before it
        trains, and leaves every file in tmp_path as it was."""
        def fail(*args):
            raise AssertionError("train called")
        monkeypatch.setattr(training, "train", fail)
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert run(["train", *[a for kv in paths.items() for a in kv]]) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} {str(paths[flag])!r} and {other} "
            f"{str(paths[other])!r} name the same file\n")
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("flag,other", [
        ("--output", "--loss-curve"), ("--output", "--corpus"),
        ("--output", "--config"), ("--loss-curve", "--corpus"),
        ("--loss-curve", "--config"),
    ])
    def test_output_naming_another_path_stops_before_reading(
            self, corpus_path, config_path, tmp_path, capsys, monkeypatch,
            flag, other):
        paths = {"--corpus": corpus_path, "--config": config_path,
                 "--output": tmp_path / "model.npz",
                 "--loss-curve": tmp_path / "curve.json"}
        # the other path spelled another way
        paths[flag] = tmp_path / ".." / tmp_path.name / paths[other].name
        self._refused(paths, flag, other, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("flag", ["--output", "--loss-curve"])
    def test_output_naming_the_glove_file_stops_before_training(
            self, corpus_path, tmp_path, capsys, monkeypatch, flag):
        def fail(*args):
            raise AssertionError("train called")
        monkeypatch.setattr(training, "train", fail)
        monkeypatch.chdir(tmp_path)
        glove = tmp_path / "glove.txt"
        glove.write_text("add" + " 0.5" * 16 + "\n", encoding="utf-8")
        before = glove.read_bytes()
        config = tmp_path / "glove.json"  # the GloVe path relative to cwd
        config.write_text(json.dumps({**TINY_CONFIG, "glove_path": "glove.txt"}),
                          encoding="utf-8")
        paths = {"--output": tmp_path / "model.npz",
                 "--loss-curve": tmp_path / "curve.json", flag: glove}
        assert run(["train", "--corpus", corpus_path, "--config", config,
                    *[a for kv in paths.items() for a in kv]]) == 1
        assert capsys.readouterr().err == (
            f"error: {flag} {str(glove)!r} and glove_path 'glove.txt' name "
            f"the same file\n")
        assert glove.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == sorted([config, corpus_path,
                                                     glove])

    @pytest.mark.parametrize("link", [os.symlink, os.link])
    def test_output_linked_to_corpus_stops_before_reading(
            self, corpus_path, config_path, tmp_path, capsys, monkeypatch,
            link):
        link(corpus_path, tmp_path / "linked.jsonl")
        paths = {"--corpus": corpus_path, "--config": config_path,
                 "--output": tmp_path / "linked.jsonl"}
        self._refused(paths, "--output", "--corpus", tmp_path, capsys,
                      monkeypatch)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_names_block(self, corpus_path, tmp_path, capsys):
        # a step this large overflows every weight after the first update
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "learning_rate": 1e300}),
                       encoding="utf-8")
        assert run(["train", "--corpus", corpus_path, "--config", cfg,
                    "--output", tmp_path / "model.npz"]) == 1
        err = capsys.readouterr().err
        assert "error: non-finite gradient in block '" in err
        assert "Traceback" not in err

    def test_diverging_run_prints_no_warning(self, corpus_path, tmp_path,
                                             capsys):
        # overflow in the forward pass, the clip and Adam warns nowhere
        # (a RuntimeWarning fails this test); the first block is named
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "epochs": 3,
                                   "learning_rate": 1e308}), encoding="utf-8")
        assert run(["train", "--corpus", corpus_path, "--config", cfg,
                    "--output", tmp_path / "model.npz"]) == 1
        assert capsys.readouterr().err == (
            "error: non-finite gradient in block 'embedding'\n")

    def test_config_too_large_to_allocate(self, corpus_path, tmp_path,
                                          capsys):
        # numpy refuses the (V, 10**15) embedding at once: no traceback
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "embedding_dim": 10 ** 15}),
                       encoding="utf-8")
        model = tmp_path / "model.npz"
        assert run(["train", "--corpus", corpus_path, "--config", cfg,
                    "--output", model]) == 1
        (error,) = capsys.readouterr().err.splitlines()
        assert error.startswith("error: Unable to allocate ")
        assert "1000000000000000" in error
        assert not model.exists()


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """Checkpoint overfit on one tiny corpus, reused across CLI tests."""
    tmp = tmp_path_factory.mktemp("model")
    corpus = make_synthetic_corpus(6, 1, seed=4)
    target = next(s for s in corpus.sentences if "B" in s.tags)
    cpath = tmp / "single.jsonl"
    save_corpus(cpath, Corpus(sentences=[target]))
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "epochs": 200,
                               "learning_rate": 0.005}), encoding="utf-8")
    model = tmp / "model.json"
    assert main(["train", "--corpus", str(cpath), "--config", str(cfg),
                 "--output", str(model)]) == 0
    return model, cpath, target


class TestExtract:
    def test_input_directory_is_named(self, trained_model, tmp_path, capsys):
        model, _, _ = trained_model
        assert run(["extract", "--model", model, "--input", tmp_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: [Errno {errno.EISDIR}] "
                                f"{os.strerror(errno.EISDIR)}: "
                                f"{str(tmp_path)!r}\n")

    def test_empty_input(self, trained_model, tmp_path, capsys):
        model, _, _ = trained_model
        src = tmp_path / "reviews.txt"
        src.write_text("", encoding="utf-8")
        assert run(["extract", "--model", model, "--input", src]) == 0
        assert capsys.readouterr().out == ""

    def test_overfit_review_recovers_gold_spans(self, trained_model,
                                                tmp_path, capsys):
        model, _, target = trained_model
        src = tmp_path / "reviews.txt"
        src.write_text(" ".join(target.tokens) + "\n", encoding="utf-8")
        assert run(["extract", "--model", model, "--input", src]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        gold = extract_spans(target.tag_indices())
        assert [tuple(r["span"]) for r in doc["requirements"]] == gold
        assert [r["text"] for r in doc["requirements"]] == [
            " ".join(target.tokens[s:e + 1]) for s, e in gold]

    def test_span_text_is_its_tokens_joined(self, trained_model, tmp_path,
                                            capsys):
        model, _, target = trained_model
        src = tmp_path / "reviews.txt"
        src.write_text("Nice!! " + " ".join(target.tokens) + "\n",
                       encoding="utf-8")
        assert run(["extract", "--model", model, "--input", src]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        tokens = clean_tokens(doc["text"])
        assert doc["requirements"]
        for r in doc["requirements"]:
            start, end = r["span"]
            assert r["text"] == " ".join(tokens[start:end + 1])

    def test_punctuation_only_line(self, trained_model, tmp_path, capsys):
        model, _, _ = trained_model
        src = tmp_path / "reviews.txt"
        src.write_text("!!! ???\n", encoding="utf-8")
        assert run(["extract", "--model", model, "--input", src]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["requirements"] == []

    def test_batched_output_equals_per_line_decoding(self, trained_model,
                                                     tmp_path, capsys):
        # 70 lines decode as one window, in ranked chunks of at most 32;
        # every reply must be the bytes one line decoded alone through
        # predict_tags gives
        model, _, target = trained_model
        rng = np.random.default_rng(5)
        words = target.tokens + ["Dark", "mode", "please", "crash", "x"]
        ends = ["\n", "\r\n", "\r"]
        lines = []
        for k in range(70):
            if k % 9 == 1:  # after a "\n", so no "\r" runs into its end
                text = ""
            elif k % 13 == 0:
                text = "!!! ..."
            else:
                text = " ".join(rng.choice(words, size=rng.integers(1, 30)))
            lines.append(text + (ends[k % 3] if k < 69 else ""))
        src = tmp_path / "reviews.txt"
        src.write_bytes("".join(lines).encode("utf-8"))
        assert run(["extract", "--model", model, "--input", src]) == 0
        want = _per_line_replies(model, src)
        assert len(want) == 70
        assert capsys.readouterr().out == "".join(want)

    def test_windows_reply_in_input_order(self, trained_model, tmp_path,
                                          capsys):
        # 600 lines fill two whole windows and part of a third; long and
        # short lines alternate at random, so each window's ranked chunks
        # mix lines from all over it
        model, _, target = trained_model
        rng = np.random.default_rng(6)
        words = target.tokens + ["Dark", "mode", "please", "crash", "x"]
        lines = []
        for k in range(600):
            n = 0 if k % 7 == 3 else int(rng.choice([rng.integers(1, 8),
                                                     rng.integers(60, 121)]))
            lines.append(" ".join(rng.choice(words, size=n)))
        src = tmp_path / "reviews.txt"
        # CRLF endings, and the last line has none
        src.write_bytes("\r\n".join(lines).encode("utf-8"))
        assert run(["extract", "--model", model, "--input", src]) == 0
        want = _per_line_replies(model, src)
        assert len(want) == 600
        assert capsys.readouterr().out == "".join(want)

    def test_each_window_is_one_decode_call(self, trained_model, tmp_path,
                                            capsys, monkeypatch):
        # a lone line, a window whose middle line is blank, then two
        # windows: each window is one predict_tags call on a list of its
        # non-empty rows, and every window of a run reads one table
        model, _, target = trained_model
        _, vocab, _ = load_checkpoint(model)
        calls, tables = [], []

        def recording(params, rows, table):
            calls.append(rows)
            tables.append(table)
            return predict_tags(params, rows, table)
        monkeypatch.setattr(cli, "predict_tags", recording)
        review = " ".join(target.tokens)
        # a full window and 44 lines more
        two_windows = [review if k % 10 else ""
                       for k in range(cli.EXTRACT_WINDOW + 44)]
        for lines in ([review], [review, "", "add dark mode"], two_windows):
            src = tmp_path / f"{len(lines)}.txt"
            src.write_text("".join(line + "\n" for line in lines),
                           encoding="utf-8")
            calls.clear()
            tables.clear()
            assert run(["extract", "--model", model, "--input", src]) == 0
            assert calls == [[encode_tokens(clean_tokens(line), vocab)
                              for line in lines[lo:lo + cli.EXTRACT_WINDOW]
                              if line]
                             for lo in range(0, len(lines), cli.EXTRACT_WINDOW)]
            assert all(table is tables[0] for table in tables)
            assert capsys.readouterr().out == "".join(
                _per_line_replies(model, src))

    def test_lines_without_tokens_fill_no_table_row(
            self, trained_model, tmp_path, capsys, monkeypatch):
        model, _, _ = trained_model
        tables = []

        def recording(params, rows, table):
            tables.append(table)
            return predict_tags(params, rows, table)
        monkeypatch.setattr(cli, "predict_tags", recording)
        src = tmp_path / "reviews.txt"
        src.write_text("\n!!! ...\n\n?\n", encoding="utf-8")
        assert run(["extract", "--model", model, "--input", src]) == 0
        assert [json.loads(line)["requirements"]
                for line in capsys.readouterr().out.splitlines()] == [[]] * 4
        assert len(tables) == 1 and not tables[0].filled.any()

    def test_pipe_replies_before_next_line(self, trained_model):
        # a closed-loop client: each reply must come while the client
        # still holds back its next line
        model, _, target = trained_model
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(reqtag.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "reqtag.cli", "extract", "--model",
             str(model), "--input", "/dev/stdin"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        try:
            for text in [" ".join(target.tokens), "", "add dark mode"]:
                proc.stdin.write(text.encode("utf-8") + b"\n")
                proc.stdin.flush()
                reply = _read_line(proc.stdout.fileno(), deadline=10.0)
                assert json.loads(reply)["text"] == text
            proc.stdin.close()
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_byte_order_mark_is_not_part_of_the_first_line(
            self, trained_model, tmp_path, capsys):
        model, _, target = trained_model
        text = " ".join(target.tokens) + "\nnice app\n"
        replies = []
        for encoding in ("utf-8", "utf-8-sig"):
            src = tmp_path / f"{encoding}.txt"
            src.write_text(text, encoding=encoding)
            assert run(["extract", "--model", model, "--input", src]) == 0
            replies.append(capsys.readouterr().out)
        assert replies[0] == replies[1]

    def _bad_line_after(self, model, tmp_path, capsys, good, bad):
        """Extract good lines, then the bytes bad and one more line: each good
        line is answered, then one error line names the bad one."""
        prefix = "".join(line + "\n" for line in good).encode("utf-8")
        src = tmp_path / "reviews.txt"
        src.write_bytes(prefix + bad + b"\nok line\n")
        assert run(["extract", "--model", model, "--input", src]) == 1
        out, err = capsys.readouterr()
        answered = tmp_path / "good.txt"
        answered.write_bytes(prefix)
        assert out == "".join(_per_line_replies(model, answered))
        assert err == f"error: {src}: line {len(good) + 1}: not UTF-8\n"
        return prefix

    def test_invalid_utf8_is_one_error_line(self, trained_model, tmp_path,
                                            capsys):
        model, _, _ = trained_model
        self._bad_line_after(model, tmp_path, capsys, ["add dark mode"],
                             b"\xff\xfe mode")

    def test_invalid_utf8_in_the_first_line(self, trained_model, tmp_path,
                                            capsys):
        model, _, _ = trained_model
        self._bad_line_after(model, tmp_path, capsys, [], b"\xffadd dark mode")

    def test_invalid_utf8_after_the_first_read(self, trained_model, tmp_path,
                                               capsys):
        # the bad line starts beyond the first 64 KiB read of the input
        model, _, target = trained_model
        good = [f"{k} " + " ".join(target.tokens) + " add dark mode"
                for k in range(1500)]
        prefix = self._bad_line_after(model, tmp_path, capsys, good,
                                      b"dark \xc3 mode")
        assert len(prefix) > 1 << 16


def _per_line_replies(model, src):
    """The reply to each line of src, every line decoded alone."""
    params, vocab, _ = load_checkpoint(model)
    want = []
    with open(src, encoding="utf-8") as fh:
        for line in fh:
            text = line.rstrip("\n")
            tokens = clean_tokens(text)
            spans = extract_spans(predict_tags(
                params, [encode_tokens(tokens, vocab)])[0]) if tokens else []
            want.append(json.dumps({"text": text, "requirements": [
                {"span": [s, e], "text": " ".join(tokens[s:e + 1])}
                for s, e in spans]}) + "\n")
    return want


def _read_line(fd, deadline):
    """One line from fd, waiting at most deadline seconds in all."""
    buf = b""
    end = time.monotonic() + deadline
    while b"\n" not in buf:
        left = end - time.monotonic()
        assert left > 0 and select.select([fd], [], [], left)[0], \
            f"no reply within {deadline} s"
        chunk = os.read(fd, 4096)
        assert chunk, "extract exited before replying"
        buf += chunk
    line, _, rest = buf.partition(b"\n")
    assert rest == b""
    return line


class TestEvaluate:
    def test_overlap_flag_adds_block(self, trained_model, capsys):
        model, cpath, target = trained_model
        assert run(["evaluate", "--model", model, "--corpus", cpath,
                    "--domain", target.domain, "--overlap"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["metrics"]) == {"exact", "overlap"}

    def test_unknown_domain_lists_available(self, trained_model, capsys):
        model, cpath, _ = trained_model
        assert run(["evaluate", "--model", model, "--corpus", cpath,
                    "--domain", "nope"]) == 1
        assert "available" in capsys.readouterr().err

    def test_overlap_decodes_once(self, trained_model, tmp_path, capsys,
                                  monkeypatch):
        # more sentences than one decode chunk, so a second pass would show
        model, _, _ = trained_model
        corpus = make_synthetic_corpus(2 * DECODE_CHUNK + 8, 1, seed=5)
        cpath = tmp_path / "many.jsonl"
        save_corpus(cpath, corpus)
        argv = ["evaluate", "--model", model, "--corpus", cpath,
                "--domain", "dom0"]
        packs = []

        def counting(lengths):
            packs.append(len(lengths))
            return pack(lengths)

        pack = network._pack
        monkeypatch.setattr(network, "_pack", counting)
        assert run(argv + ["--overlap"]) == 0
        doc = json.loads(capsys.readouterr().out)
        n = len(corpus.sentences)
        assert len(packs) == -(-n // DECODE_CHUNK) and sum(packs) == n
        # the same blocks as scoring each matching on its own
        params, vocab, _ = load_checkpoint(model)
        preds = [predict_tags(params, [encode_tokens(s.tokens, vocab)])[0]
                 for s in corpus.sentences]
        golds = [s.tag_indices() for s in corpus.sentences]
        assert doc["metrics"] == {
            k: evaluate_tag_pairs(zip(preds, golds), overlap=overlap)
            for k, overlap in (("exact", False), ("overlap", True))}
        assert run(argv) == 0
        exact = json.loads(capsys.readouterr().out)["metrics"]
        assert exact == {"exact": doc["metrics"]["exact"]}

    def test_baseline_mismatch(self, trained_model, tmp_path, capsys):
        model, cpath, target = trained_model
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"bogus": {"f1": 0.5}}), encoding="utf-8")
        assert run(["evaluate", "--model", model, "--corpus", cpath,
                    "--domain", target.domain, "--baselines", base]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_baselines_read_before_decoding(self, trained_model, tmp_path,
                                            capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("evaluate_domain called")
        monkeypatch.setattr(cli, "evaluate_domain", fail)
        model, cpath, target = trained_model
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"bogus": {"f1": 0.5}}), encoding="utf-8")
        assert run(["evaluate", "--model", model, "--corpus", cpath,
                    "--domain", target.domain, "--baselines", base]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {base}: baseline domains other "
                                f"than the evaluated domain "
                                f"{target.domain!r}: ['bogus']\n")

    @pytest.mark.parametrize("table", [5, None, ["app0"], {"app0": 3},
                                       {"app0": {"recall": 0.5}},
                                       {"app0": {"f1": "0.5"}},
                                       {"app0": {"f1": 0.5, "precision": []}},
                                       {"app0": {"f1": 0.5, "recal": 0.9}}])
    def test_baseline_shape(self, trained_model, tmp_path, capsys, table):
        model, cpath, target = trained_model
        base = tmp_path / "base.json"
        base.write_text(json.dumps(table), encoding="utf-8")
        assert run(["evaluate", "--model", model, "--corpus", cpath,
                    "--domain", target.domain, "--baselines", base]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {base}: baseline")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_baseline_non_finite(self, trained_model, tmp_path, capsys,
                                 value):
        model, cpath, target = trained_model
        base = tmp_path / "base.json"
        base.write_text(json.dumps({target.domain: {"f1": value}}),
                        encoding="utf-8")
        assert run(["evaluate", "--model", model, "--corpus", cpath,
                    "--domain", target.domain, "--baselines", base]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {base}: baseline {target.domain!r}: "
                                f"f1 must be a number, got {value!r}\n")


def _tree(root):
    """Every path under root, with a file's bytes or None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


# each file a command writes; a directory is put in its place, except
# where its own directory is missing
@pytest.mark.parametrize("command, flag, output", [
    ("preprocess", "--output", "out.jsonl"),
    ("preprocess", "--output", "missing/out.jsonl"),
    ("train", "--output", "model.npz"),
    ("train", "--loss-curve", "curve.json"),
    ("crossval", "--out", "res/report.json"),
    ("crossval", "--out", "res/report.txt"),
    ("crossval", "--out", "res/manifest.json"),
    ("crossval", "--out", "res/fold_dom1.json"),
])
def test_unwritable_output_stops_before_any_work(
        corpus_path, config_path, tmp_path, capsys, monkeypatch, command,
        flag, output):
    def fail(*args, **kwargs):
        raise AssertionError(f"{command} did work")
    for module, name in [(cli, "parse_rebert_csv"), (training, "train"),
                         (training, "run_fold")]:
        monkeypatch.setattr(module, name, fail)
    src = tmp_path / "r.csv"
    src.write_text("App Id,Sentence Content,Feature (All Annotated)\n"
                   "ebay,Add dark mode,dark mode\n", encoding="utf-8")
    path = tmp_path / output
    if not output.startswith("missing/"):
        path.mkdir(parents=True)
    argv = {"preprocess": ["--format", "rebert-csv", "--input", src,
                           "--output", path],
            # the last of a repeated flag wins
            "train": ["--corpus", corpus_path, "--config", config_path,
                      "--output", tmp_path / "model.npz",
                      "--loss-curve", tmp_path / "curve.json", flag, path],
            "crossval": ["--corpus", corpus_path, "--config", config_path,
                         "--out", path.parent]}[command]
    before = _tree(tmp_path)
    assert run([command, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {flag} {str(path)!r} does not name a "
                            f"file in an existing directory\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command, flag", [
    ("preprocess", "--output"), ("train", "--output"),
    ("train", "--loss-curve")])
def test_output_name_over_255_bytes_stops_before_any_work(
        corpus_path, config_path, tmp_path, capsys, monkeypatch, command,
        flag):
    def fail(*args, **kwargs):
        raise AssertionError(f"{command} read its input")
    for name in ("parse_rebert_csv", "load_corpus", "_load_config"):
        monkeypatch.setattr(cli, name, fail)
    # 128 characters, 256 bytes in UTF-8
    path = tmp_path / ("\u00e9" * 128)
    argv = {"preprocess": ["--format", "rebert-csv", "--input",
                           tmp_path / "r.csv", "--output", path],
            "train": ["--corpus", corpus_path, "--config", config_path,
                      "--output", tmp_path / "model.npz",
                      "--loss-curve", tmp_path / "curve.json", flag, path]}
    before = _tree(tmp_path)
    assert run([command, *argv[command]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {flag} {str(path)!r} names a file of "
                            f"more than 255 bytes\n")
    assert _tree(tmp_path) == before


def test_output_name_of_255_bytes_is_written(tmp_path):
    src = tmp_path / "r.csv"
    src.write_text("App Id,Sentence Content,Feature (All Annotated)\n"
                   "ebay,Add dark mode,dark mode\n", encoding="utf-8")
    out = tmp_path / ("\u00e9" * 127 + "x")
    assert run(["preprocess", "--format", "rebert-csv", "--input", src,
                "--output", out]) == 0
    assert len(load_corpus(out).sentences) == 1

class TestUnreadablePath:
    """An OS error on a path given by a flag is one error line, exit 1."""

    def _one_error_line(self, capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_train_corpus_is_a_directory(self, config_path, tmp_path, capsys):
        assert run(["train", "--corpus", tmp_path, "--config", config_path,
                    "--output", tmp_path / "model.npz"]) == 1
        self._one_error_line(capsys)

    def test_evaluate_model_is_a_directory(self, corpus_path, tmp_path,
                                           capsys):
        assert run(["evaluate", "--model", tmp_path, "--corpus", corpus_path,
                    "--domain", "dom0"]) == 1
        self._one_error_line(capsys)

    @pytest.mark.parametrize("flag", ["--corpus", "--baselines"])
    def test_evaluate_input_is_a_directory_before_the_model_loads(
            self, corpus_path, tmp_path, capsys, monkeypatch, flag):
        def fail(*args):
            raise AssertionError("load_checkpoint called")
        monkeypatch.setattr(cli, "load_checkpoint", fail)
        paths = {"--model": tmp_path / "model.npz", "--corpus": corpus_path,
                 flag: tmp_path}
        assert run(["evaluate", "--domain", "dom0",
                    *[a for kv in paths.items() for a in kv]]) == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                f"{str(tmp_path)!r}\n")

    @pytest.mark.parametrize("flag", ["--corpus", "--baselines", "--input"])
    def test_missing_input_is_refused_before_the_model_loads(
            self, corpus_path, tmp_path, capsys, monkeypatch, flag):
        def fail(*args):
            raise AssertionError("load_checkpoint called")
        monkeypatch.setattr(cli, "load_checkpoint", fail)
        model, missing = tmp_path / "model.npz", tmp_path / "missing"
        model.write_bytes(b"")
        evaluate = ["evaluate", "--domain", "dom0", "--corpus"]
        argv = {"--corpus": [*evaluate, missing],
                "--baselines": [*evaluate, corpus_path, "--baselines", missing],
                "--input": ["extract", "--input", missing]}[flag]
        assert run([*argv, "--model", model]) == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
                f"{str(missing)!r}\n")

    def test_crossval_out_is_an_existing_file(self, corpus_path, config_path,
                                              tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        assert run(["crossval", "--corpus", corpus_path, "--config",
                    config_path, "--out", out]) == 1
        self._one_error_line(capsys)


def _tiny_model(path):
    """A checkpoint at dims (4, 2, 2, 2, 2) whose vocabulary is `add`."""
    vocab = build_vocabulary([["add"]])
    save_checkpoint(path, init_model(len(vocab), ModelDims(4, 2, 2, 2, 2),
                                     np.random.default_rng(0)), vocab)
    return path


# each text input with byte 0xff on line 3, as the command reading it sees it
_BAD_BYTE_FILES = {
    "corpus": b'{"app": "a", "tokens": ["x"], "tags": ["O"]}\n' * 2
              + b'{"app": "caf\xff", "tokens": ["x"], "tags": ["O"]}\n',
    "conllu": b"# app_name = X\n# google_play_category = Y\n"
              + b"1\tcaf\xff\tcaf\xff" + b"\t_" * 7 + b"\n\n",
    "rebert-csv": b"App Id,Sentence Content,Feature (All Annotated)\n"
                  b"ebay,Add dark mode,dark mode\nebay,Caf\xff is slow,\n",
    "config": b'{\n  "epochs": 1,\n  "caf\xff": 1\n}\n',
    "glove": b"add" + b" 0.5" * 16 + b"\n" + b"dark" + b" 0.5" * 16 + b"\n"
             + b"caf\xff" + b" 0.5" * 16 + b"\n",
    "baselines": b'{\n  "dom0": {"f1": 0.5},\n  "caf\xff": {"f1": 0.5}\n}\n',
}


@pytest.mark.parametrize("kind", list(_BAD_BYTE_FILES))
def test_byte_that_is_not_utf8_is_one_error_line(corpus_path, config_path,
                                                 tmp_path, capsys, kind):
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(_BAD_BYTE_FILES[kind])
    glove_config = tmp_path / "glove.json"
    glove_config.write_text(json.dumps({**TINY_CONFIG, "glove_path": str(bad)}),
                            encoding="utf-8")
    model = tmp_path / "model.npz"
    train = ["train", "--output", model, "--corpus"]
    if kind == "baselines":
        _tiny_model(model)
    argv = {
        "corpus": [*train, bad, "--config", config_path],
        "conllu": ["preprocess", "--format", "conllu", "--input", bad,
                   "--output", tmp_path / "out.jsonl"],
        "rebert-csv": ["preprocess", "--format", "rebert-csv", "--input", bad,
                       "--output", tmp_path / "out.jsonl"],
        "config": [*train, corpus_path, "--config", bad],
        "glove": [*train, corpus_path, "--config", glove_config],
        "baselines": ["evaluate", "--model", model, "--corpus", corpus_path,
                      "--domain", "dom0", "--baselines", bad],
    }[kind]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: line 3: not UTF-8\n")


# each JSON input with a key named twice, which json.loads alone would
# read as its last value, and the one line, after the file's name, that
# the command reading it prints
_KEY_TWICE_FILES = {
    "corpus": ('{"app": "a", "tokens": ["x"], "tags": ["O"]}\n'
               '{"app": "x", "app": "y", "tokens": ["x"], "tags": ["O"]}\n',
               "line 2: key 'app' appears more than once\n"),
    "config": ('{"epochs": 1, ' + json.dumps(TINY_CONFIG)[1:],
               "key 'epochs' appears more than once\n"),
    "baselines": ('{"dom0": {"f1": 0.5, "f1": 0.6}}\n',
                  "key 'f1' appears more than once\n"),
}


@pytest.mark.parametrize("kind", list(_KEY_TWICE_FILES))
def test_key_named_twice_is_one_error_line(corpus_path, config_path, tmp_path,
                                           capsys, kind):
    text, message = _KEY_TWICE_FILES[kind]
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text, encoding="utf-8")
    model = tmp_path / "model.npz"
    if kind == "baselines":
        _tiny_model(model)
    argv = {
        "corpus": ["train", "--corpus", bad, "--config", config_path,
                   "--output", model],
        "config": ["train", "--corpus", corpus_path, "--config", bad,
                   "--output", model],
        "baselines": ["evaluate", "--model", model, "--corpus", corpus_path,
                      "--domain", "dom0", "--baselines", bad],
    }[kind]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: {message}")


@pytest.mark.parametrize("kind", ["config", "baselines"])
def test_file_that_is_not_json_is_one_error_line(corpus_path, tmp_path,
                                                 capsys, kind):
    text = '{"epochs": 1, }'
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text, encoding="utf-8")
    model = tmp_path / "model.npz"
    if kind == "baselines":
        _tiny_model(model)
    argv = {
        "config": ["train", "--corpus", corpus_path, "--config", bad,
                   "--output", model],
        "baselines": ["evaluate", "--model", model, "--corpus", corpus_path,
                      "--domain", "dom0", "--baselines", bad],
    }[kind]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: {exc.value}\n")


# one content error in each input file a command reads: the file's name
# and bytes (None: the first half of a checkpoint), the command that reads
# it, and the message after the file's path on the one error line
_BAD_CONTENT = {
    "corpus-line": (
        "bad.jsonl", b'{"app": "a", "tokens": ["x"], "tags": ["O"]}\n[1]\n',
        "train --corpus {bad} --config {config} --output {out}",
        "line 2: expected a JSON object, got list"),
    "csv-row": (
        "bad.csv", b"App Id,Sentence Content,Feature (All Annotated)\n"
                   b"ebay,Add dark mode,dark mode\n,Nice app,\n",
        "preprocess --format rebert-csv --input {bad} --output {out}",
        "row 3: app '': empty domain label"),
    "conllu-sentence": (
        "bad.conllu", b"# app_name = X\n1\tdark\tdark" + b"\t_" * 7 + b"\n\n",
        "preprocess --format conllu --input {bad} --output {out}",
        "line 2: sentence without a non-empty app_name and category"),
    "glove-line": (
        "bad.txt", b"add 0.5\n",
        "train --corpus {corpus} --config {glove_config} --output {out}",
        "line 1: expected a word and 16 values, got 2 fields"),
    "config-list": (
        "bad.json", b"[1]",
        "train --corpus {corpus} --config {bad} --output {out}",
        "config must be a JSON object, got list"),
    "config-unknown-key": (
        "bad.json", b'{"epochs": 1, "padding_mode": "bucket"}',
        "train --corpus {corpus} --config {bad} --output {out}",
        "unknown config keys: ['padding_mode']"),
    "config-setting": (
        "bad.json", b'{"epochs": 0}',
        "train --corpus {corpus} --config {bad} --output {out}",
        "epochs must be an integer >= 1, got 0"),
    "baselines-not-an-object": (
        "bad.json", b"[1]",
        "evaluate --model {model} --corpus {corpus} --domain dom0 "
        "--baselines {bad}",
        "baselines must be a JSON object of domains, got list"),
    "baselines-unknown-domain": (
        "bad.json", b'{"bogus": {"f1": 0.5}}',
        "evaluate --model {model} --corpus {corpus} --domain dom0 "
        "--baselines {bad}",
        "baseline domains other than the evaluated domain 'dom0': ['bogus']"),
    "baselines-unknown-score": (
        "bad.json", b'{"dom0": {"f1": 0.5, "recal": 0.9, "F1": 7}}',
        "evaluate --model {model} --corpus {corpus} --domain dom0 "
        "--baselines {bad}",
        "baseline 'dom0': unknown score keys: ['F1', 'recal']"),
    "checkpoint-truncated": (
        "bad.npz", None, "extract --model {bad} --input {reviews}",
        "not an .npz archive; checkpoints are version 2 .npz files (JSON "
        "checkpoints from version 1 no longer load)"),
    "extract-input-line": (
        "bad.txt", b"add dark mode\ncaf\xff\n",
        "extract --model {model} --input {bad}", "line 2: not UTF-8"),
}


@pytest.mark.parametrize("kind", list(_BAD_CONTENT))
def test_content_error_names_its_file(corpus_path, tmp_path, capsys, kind):
    name, content, command, message = _BAD_CONTENT[kind]
    model = _tiny_model(tmp_path / "model.npz")
    bad = tmp_path / name
    bad.write_bytes(content if content is not None
                    else model.read_bytes()[:model.stat().st_size // 2])
    paths = {"bad": bad, "corpus": corpus_path, "model": model,
             "out": tmp_path / "out", "reviews": tmp_path / "reviews.txt",
             "config": tmp_path / "config.json",
             "glove_config": tmp_path / "glove.json"}
    paths["reviews"].write_text("add dark mode\n", encoding="utf-8")
    paths["config"].write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    paths["glove_config"].write_text(json.dumps(
        {**TINY_CONFIG, "glove_path": str(bad)}), encoding="utf-8")
    assert run([arg.format(**paths) for arg in command.split()]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not paths["out"].exists()


class TestMalformedCheckpoint:
    @staticmethod
    def _run(command, model, corpus_path, tmp_path):
        src = tmp_path / "reviews.txt"
        src.write_text("add dark mode\n", encoding="utf-8")
        args = {"extract": ["--input", src],
                "evaluate": ["--corpus", corpus_path, "--domain", "dom0"]}
        return run([command, "--model", model] + args[command])

    @staticmethod
    def _rewritten(model, tmp_path, name, edit):
        """A copy of the checkpoint with entry name replaced by edit(entry)."""
        with np.load(model, allow_pickle=False) as npz:
            entries = {name: npz[name] for name in npz.files}
        entries[name] = edit(entries[name])
        bad = tmp_path / "bad.model"
        with open(bad, "wb") as fh:
            np.savez(fh, **entries)
        return bad

    @pytest.mark.parametrize("content", [
        b"",
        b'{"version": 1, "params": {}}',
        b"PK\x03\x04 truncated",
    ])
    @pytest.mark.parametrize("command", ["extract", "evaluate"])
    def test_error_line_and_exit_1(self, corpus_path, tmp_path, capsys,
                                   command, content):
        model = tmp_path / "model.json"
        model.write_bytes(content)
        assert self._run(command, model, corpus_path, tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {model}: not an .npz archive; "
                                "checkpoints are version 2 .npz files (JSON "
                                "checkpoints from version 1 no longer load)\n")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("command", ["extract", "evaluate"])
    def test_non_finite_block_names_block(self, trained_model, corpus_path,
                                          tmp_path, capsys, command, value):
        def poison(block):
            block[1, 2] = value
            return block
        bad = self._rewritten(trained_model[0], tmp_path, "attn_q", poison)
        assert self._run(command, bad, corpus_path, tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad}: block 'attn_q' holds a "
                                "non-finite value\n")

    def test_wrong_shape_names_block(self, trained_model, tmp_path, capsys):
        bad = self._rewritten(trained_model[0], tmp_path, "dec.w_h",
                              lambda block: block[:, :-1])
        assert self._run("extract", bad, None, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: block 'dec.w_h' is float64 ")
        assert err.count("\n") == 1


def _modules_after(statement):
    """The modules loaded in a fresh interpreter once statement has run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(Path(reqtag.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_leaves_out_training_and_random():
    # extract and evaluate reach their first reply without these; train and
    # crossval load them when they run
    added = _modules_after("import reqtag.cli") - _modules_after("import numpy")
    assert "reqtag.network" in added
    assert added.isdisjoint({"reqtag.training", "numpy.random", "hashlib",
                             "concurrent.futures"})
