import json

import numpy as np
import pytest

from reqtag.cli import main
from reqtag.data import save_corpus
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

    def test_missing_input_is_runtime_error(self, tmp_path):
        assert run(["preprocess", "--format", "rebert-csv",
                    "--input", tmp_path / "absent.csv",
                    "--output", tmp_path / "o"]) == 1


class TestCrossval:
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

    def test_runs_override(self, corpus_path, config_path, tmp_path):
        out = tmp_path / "r"
        assert run(["crossval", "--corpus", corpus_path,
                    "--config", config_path, "--runs", 1, "--out", out]) == 0
        fold = json.loads((out / "fold_dom0.json").read_text())
        assert len(fold["runs"]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["fold_seeds"]["dom0"] == [0]
        assert "corpus" in manifest["input_digests"]

    def test_bad_config_key(self, corpus_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learningrate": 1}), encoding="utf-8")
        assert run(["crossval", "--corpus", corpus_path,
                    "--config", bad, "--out", tmp_path / "o"]) == 1


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
        assert capsys.readouterr().err.startswith("error: line 31: ")

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


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """Checkpoint overfit on one tiny corpus, reused across CLI tests."""
    tmp = tmp_path_factory.mktemp("model")
    corpus = make_synthetic_corpus(6, 1, seed=4)
    target = next(s for s in corpus.sentences if "B" in s.tags)
    from reqtag.data import Corpus
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
        from reqtag.evaluation import extract_spans
        gold = [(s.start, s.end)
                for s in extract_spans(target.tags, tokens=target.tokens)]
        assert [tuple(r["span"]) for r in doc["requirements"]] == gold

    def test_punctuation_only_line(self, trained_model, tmp_path, capsys):
        model, _, _ = trained_model
        src = tmp_path / "reviews.txt"
        src.write_text("!!! ???\n", encoding="utf-8")
        assert run(["extract", "--model", model, "--input", src]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["requirements"] == []


class TestEvaluate:
    def test_oracle_mode_perfect(self, trained_model, capsys):
        model, cpath, target = trained_model
        assert run(["evaluate", "--model", model, "--corpus", cpath,
                    "--domain", target.domain, "--oracle"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["exact"]["f1"] == 1.0

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

    def test_baseline_mismatch(self, trained_model, tmp_path, capsys):
        model, cpath, target = trained_model
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"bogus": {"f1": 0.5}}), encoding="utf-8")
        assert run(["evaluate", "--model", model, "--corpus", cpath,
                    "--domain", target.domain, "--baselines", base]) == 1
        assert "bogus" in capsys.readouterr().err


class TestMalformedCheckpoint:
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
        src = tmp_path / "reviews.txt"
        src.write_text("add dark mode\n", encoding="utf-8")
        args = {"extract": ["--input", src],
                "evaluate": ["--corpus", corpus_path, "--domain", "dom0"]}
        assert run([command, "--model", model] + args[command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {model}: not an .npz archive; "
                                "checkpoints are version 2 .npz files (JSON "
                                "checkpoints from version 1 no longer load)\n")

    def test_wrong_shape_names_block(self, trained_model, tmp_path, capsys):
        model, _, _ = trained_model
        with np.load(model, allow_pickle=False) as npz:
            entries = {name: npz[name] for name in npz.files}
        entries["dec.w_h"] = entries["dec.w_h"][:, :-1]
        bad = tmp_path / "bad.model"
        with open(bad, "wb") as fh:
            np.savez(fh, **entries)
        src = tmp_path / "reviews.txt"
        src.write_text("add dark mode\n", encoding="utf-8")
        assert run(["extract", "--model", bad, "--input", src]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: block 'dec.w_h' is float64 ")
        assert err.count("\n") == 1
