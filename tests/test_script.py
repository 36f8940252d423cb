"""The `reqtag` script end to end, one child process per command.

Each test runs `python -m reqtag.cli ARGS` in one directory that the
module's runs share, as a user's session would, and checks what the
command leaves: its exit code, stdout, the exact stderr line of a
refusal, and the files it writes or must not write. New checks of the
installed script go here.

The children import the `reqtag` package that this process imported:
`PYTHONPATH` names its parent directory. Under tier-1
(`PYTHONPATH=src`) that is `src`. Run from a directory outside the
checkout without `PYTHONPATH=src`, as CI does after `pip install .`, it
is the installed copy in site-packages, so the same tests check what a
user installs. The console script of `[project.scripts]` calls
`reqtag.cli:main`, the function `-m reqtag.cli` runs; CI's `reqtag
--help` covers that entry point itself.

The extract of `2 * DECODE_CHUNK + 2` lines, every tenth blank, is one
window of two decode chunks (64 + 53 rows), so `predict_tags` decodes
them on its thread pool. Without numpy's OpenBLAS thread-count setter,
which CI checks before this module runs, the pool would not start and
the chunks would be decoded one by one.

A refused run exits 1, writes one `error:` line to stderr and leaves
none of its outputs behind.
"""

import json
import os
import subprocess
import sys

import pytest

import reqtag
from reqtag import cli
from reqtag.network import DECODE_CHUNK

# the parent directory of the package this process imported
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(
    reqtag.__file__)))
DIMS = {"embedding_dim": 8, "h_enc": 4, "d_att": 4, "h_dec": 4, "d_tag": 4,
        "epochs": 1, "batch_size": 4}
WORDS = "please add a dark mode to the search filter".split()
GLOVE = ("dark 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8\n"
         "mode -0.1 -0.2 -0.3 -0.4 -0.5 -0.6 -0.7 -0.8\n")


def python(cwd, *argv, stdin=b""):
    """Run this interpreter with argv in cwd, on the reqtag package this
    process imported; return (exit code, stdout bytes, stderr bytes)."""
    env = {**os.environ, "PYTHONPATH": PACKAGE_PARENT}
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          input=stdin, capture_output=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def script(cwd, *args, stdin=b""):
    return python(cwd, "-m", "reqtag.cli", *args, stdin=stdin)


def refused(cwd, line, *args, absent=()):
    """`reqtag ARGS` exits 1, writes exactly the one line to stderr and
    leaves no path of absent."""
    code, _, err = script(cwd, *args)
    assert (code, err) == (1, f"{line}\n".encode())
    assert [path for path in absent if (cwd / path).exists()] == []


def write_config(path, **extra):
    path.write_text(json.dumps({**DIMS, **extra}) + "\n", encoding="utf-8")


def review_lines(n, words):
    """n lines, every tenth blank, line i holding words(i)."""
    return ["" if i % 10 == 9 else " ".join(words(i)) for i in range(n)]


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The shared directory, holding reviews.csv preprocessed to
    corpus.jsonl and trained on at tiny dims into model.npz, and the
    configs and GloVe file later runs read; with the (code, stdout,
    stderr) of the preprocess and train runs."""
    cwd = tmp_path_factory.mktemp("script")
    (cwd / "reviews.csv").write_text(
        "App Id,Sentence Content,Feature (All Annotated)\n"
        "ebay,Please add a dark mode,dark mode\n"
        "ebay,The search filter is slow,search filter\n"
        "spotify,I want offline playlists,offline playlists\n"
        "spotify,Add a sleep timer please,sleep timer\n", encoding="utf-8")
    write_config(cwd / "config.json")
    (cwd / "glove.txt").write_text(GLOVE, encoding="utf-8")
    write_config(cwd / "glove.json", glove_path="glove.txt")
    write_config(cwd / "crossval.json", runs_per_fold=1)
    runs = {"preprocess": script(cwd, "preprocess", "--format", "rebert-csv",
                                 "--input", "reviews.csv",
                                 "--output", "corpus.jsonl"),
            "train": script(cwd, "train", "--corpus", "corpus.jsonl",
                            "--config", "config.json", "--output", "model.npz")}
    return cwd, runs


def test_children_import_the_package_this_process_imported(tmp_path):
    code, out, _ = python(tmp_path, "-c",
                          "import reqtag; print(reqtag.__file__)")
    assert (code, out.decode()) == (0, reqtag.__file__ + "\n")


def test_preprocess_rebert_csv(work):
    _, runs = work
    code, _, err = runs["preprocess"]
    assert code == 0
    doc = json.loads(err)
    assert doc["sentences_duplicated"] == 0, doc
    assert doc["abutting_spans"] == 0, doc


def test_preprocess_conllu_corpus_is_byte_exact(work):
    # a multiword range, an empty node, a dropped B whose I becomes B, a
    # punctuation-only sentence, a sentence that carries the labels
    # before it forward and a lemma that cleans to nothing
    cwd, _ = work
    write_lines(cwd / "reviews.conllu", [
        "# app_name = ebay", "# google_play_category = SHOPPING",
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_",
        "1\tdo\tdo\tAUX\t_\t_\t3\taux\t_\tO",
        "2\tnot\tnot\tPART\t_\t_\t3\tadvmod\t_\tO",
        "3\tadd\tadd\tVERB\t_\t_\t0\troot\t_\tO",
        "4\t-\t-\tPUNCT\t_\t_\t6\tpunct\t_\tB-feature",
        "5\tdark\tdark\tADJ\t_\t_\t6\tamod\t_\tI-feature",
        "6\tmode\tmode\tNOUN\t_\t_\t3\tobj\t_\tI-feature", "",
        "# app_name = spotify", "# google_play_category = MUSIC",
        "1\t!!!\t!!!\tPUNCT\t_\t_\t0\troot\t_\tO",
        "2\t...\t...\tPUNCT\t_\t_\t1\tpunct\t_\tO", "",
        "1\tsleep\tsleep\tNOUN\t_\t_\t2\tcompound\t_\tB-feature",
        "1.1\tset\tset\tVERB\t_\t_\t_\t_\t_\tO",
        "2\ttimer\ttimer\tNOUN\t_\t_\t0\troot\t_\tI-feature",
        "3\tcafé\t_\tNOUN\t_\t_\t2\tnmod\t_\tO", ""])
    code, _, err = script(cwd, "preprocess", "--format", "conllu",
                          "--input", "reviews.conllu", "--output", "conllu.jsonl")
    assert code == 0
    assert (cwd / "conllu.jsonl").read_bytes() == (
        b'{"app": "ebay", "category": "SHOPPING", "tokens": ["do", "not", '
        b'"add", "dark", "mode"], "tags": ["O", "O", "O", "B", "I"]}\n'
        b'{"app": "spotify", "category": "MUSIC", "tokens": ["sleep", '
        b'"timer"], "tags": ["B", "I"]}\n')
    doc = json.loads(err)
    assert doc["sentences_kept"] == 2, doc
    assert doc["sentences_dropped_empty"] == 1, doc


def test_train_writes_a_checkpoint(work):
    cwd, runs = work
    assert runs["train"][0] == 0
    assert (cwd / "model.npz").is_file()


def test_train_with_glove(work):
    cwd, _ = work
    code, _, _ = script(cwd, "train", "--corpus", "corpus.jsonl",
                        "--config", "glove.json", "--output", "glove-model.npz")
    assert code == 0
    assert (cwd / "glove-model.npz").is_file()


def test_extract_one_line_from_stdin(work):
    cwd, _ = work
    code, out, _ = script(cwd, "extract", "--model", "model.npz",
                          "--input", "/dev/stdin",
                          stdin=b"please add a dark mode\n")
    assert code == 0
    (line,) = out.decode().splitlines()
    doc = json.loads(line)
    assert doc["text"] == "please add a dark mode", doc
    assert isinstance(doc["requirements"], list), doc


def test_extract_three_lines_from_stdin(work):
    cwd, _ = work
    texts = ["please add a dark mode", "", "the search filter is slow"]
    code, out, _ = script(cwd, "extract", "--model", "model.npz",
                          "--input", "/dev/stdin",
                          stdin="".join(t + "\n" for t in texts).encode())
    assert code == 0
    docs = [json.loads(line) for line in out.decode().splitlines()]
    assert [doc["text"] for doc in docs] == texts, docs
    assert docs[1]["requirements"] == [], docs


def test_extract_one_window_of_two_decode_chunks(work):
    # two chunks' worth of lines and two more: 130 lines and 117 rows, so
    # 64 + 53 rows at today's constants
    cwd, _ = work
    texts = review_lines(2 * DECODE_CHUNK + 2, lambda i: WORDS[:1 + i % 9])
    assert sum(map(bool, texts)) > DECODE_CHUNK
    assert len(texts) <= cli.EXTRACT_WINDOW
    write_lines(cwd / "lines.txt", texts)
    code, out, _ = script(cwd, "extract", "--model", "model.npz",
                          "--input", "lines.txt")
    assert code == 0
    docs = [json.loads(line) for line in out.decode().splitlines()]
    assert [doc["text"] for doc in docs] == texts, docs
    assert all(doc["requirements"] == [] for doc in docs[9::10]), docs


def test_extract_two_windows_forward_and_reversed(work):
    # a full window and 44 lines more: the second window reads the
    # input-table rows the first filled. Tags do not depend on input
    # order, so the reversed file gets the replies reversed
    cwd, _ = work
    lines = review_lines(cli.EXTRACT_WINDOW + 44,
                         lambda i: WORDS[i % 9:] + WORDS[:i % 7])
    assert len(lines) > cli.EXTRACT_WINDOW
    write_lines(cwd / "lines300.txt", lines)
    write_lines(cwd / "reversed300.txt", lines[::-1])
    forward = script(cwd, "extract", "--model", "model.npz",
                     "--input", "lines300.txt")
    backward = script(cwd, "extract", "--model", "model.npz",
                      "--input", "reversed300.txt")
    assert (forward[0], backward[0]) == (0, 0)
    replies = forward[1].splitlines(keepends=True)
    assert len(replies) == len(lines)
    assert b"".join(replies[::-1]) == backward[1]


def test_crossval_report_and_manifest(work):
    cwd, _ = work
    code, _, _ = script(cwd, "crossval", "--corpus", "corpus.jsonl",
                        "--config", "crossval.json", "--out", "cv")
    assert code == 0
    doc = json.loads((cwd / "cv" / "report.json").read_text(encoding="utf-8"))
    folds = [fold["domain"] for fold in doc["folds"]]
    assert folds == ["ebay", "spotify"], folds
    held_out = json.loads((cwd / "cv" / "manifest.json").read_text(
        encoding="utf-8"))["held_out"]
    assert sorted(held_out) == folds, held_out
    assert all(block["sentences"] == 2 and block["tokens"] > 0
               for block in held_out.values()), held_out


def test_evaluate(work):
    cwd, _ = work
    code, out, _ = script(cwd, "evaluate", "--model", "model.npz",
                          "--corpus", "corpus.jsonl", "--domain", "ebay")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["metrics"]["exact"]) >= {"precision", "recall", "f1"}, doc


def test_crossval_refuses_one_domain(work):
    cwd, _ = work
    head = (cwd / "corpus.jsonl").read_bytes().splitlines(keepends=True)[:2]
    (cwd / "one-domain.jsonl").write_bytes(b"".join(head))
    refused(cwd, "error: need at least 2 domains, have 1",
            "crossval", "--corpus", "one-domain.jsonl",
            "--config", "crossval.json", "--out", "one-domain",
            absent=["one-domain"])


def test_crossval_refuses_a_glove_directory(work):
    cwd, _ = work
    (cwd / "glove-dir").mkdir()
    write_config(cwd / "glove-dir.json", runs_per_fold=1, glove_path="glove-dir")
    refused(cwd, "error: [Errno 21] Is a directory: 'glove-dir'",
            "crossval", "--corpus", "corpus.jsonl",
            "--config", "glove-dir.json", "--out", "glove-dir-out/cv",
            absent=["glove-dir-out"])


def test_crossval_refuses_a_missing_glove_file(work):
    cwd, _ = work
    write_config(cwd / "no-glove.json", runs_per_fold=1,
                 glove_path="no-glove.txt")
    refused(cwd, "error: [Errno 2] No such file or directory: 'no-glove.txt'",
            "crossval", "--corpus", "corpus.jsonl",
            "--config", "no-glove.json", "--out", "no-glove-out/cv",
            absent=["no-glove-out"])


def test_preprocess_refuses_a_line_that_is_not_utf8(work):
    cwd, _ = work
    (cwd / "bad.csv").write_bytes(
        b"App Id,Sentence Content,Feature (All Annotated)\n"
        b"ebay,Please add a dark mode,dark mode\n"
        b"ebay,Caf\xff is slow,\n")
    refused(cwd, "error: bad.csv: line 3: not UTF-8",
            "preprocess", "--format", "rebert-csv",
            "--input", "bad.csv", "--output", "bad.jsonl",
            absent=["bad.jsonl"])


def test_preprocess_refuses_an_open_quote(work):
    cwd, _ = work
    (cwd / "open.csv").write_text(
        "App Id,Sentence Content,Feature (All Annotated)\n"
        "ebay,Please add a dark mode,dark mode\n"
        'ebay,"The search filter is slow,search filter\n'
        "spotify,I want offline playlists,offline playlists\n"
        "spotify,Add a sleep timer please,sleep timer\n", encoding="utf-8")
    refused(cwd, "error: open.csv: line 5: unexpected end of data",
            "preprocess", "--format", "rebert-csv",
            "--input", "open.csv", "--output", "open.jsonl",
            absent=["open.jsonl"])


def test_train_refuses_a_glove_line_that_is_not_utf8(work):
    cwd, _ = work
    (cwd / "bad-glove.txt").write_bytes(
        b"dark 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8\n"
        b"caf\xff 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8\n")
    write_config(cwd / "bad-glove.json", glove_path="bad-glove.txt")
    refused(cwd, "error: bad-glove.txt: line 2: not UTF-8",
            "train", "--corpus", "corpus.jsonl",
            "--config", "bad-glove.json", "--output", "bad-glove.npz",
            absent=["bad-glove.npz"])


def test_train_refuses_a_config_that_is_not_json(work):
    cwd, _ = work
    (cwd / "not-json.json").write_text("epochs = 1\n", encoding="utf-8")
    refused(cwd, "error: not-json.json: Expecting value: line 1 column 1 "
                 "(char 0)",
            "train", "--corpus", "corpus.jsonl",
            "--config", "not-json.json", "--output", "not-json.npz",
            absent=["not-json.npz"])


def test_train_refuses_zero_epochs(work):
    cwd, _ = work
    (cwd / "no-epochs.json").write_text('{"epochs": 0}\n', encoding="utf-8")
    refused(cwd, "error: no-epochs.json: epochs must be an integer >= 1, "
                 "got 0",
            "train", "--corpus", "corpus.jsonl",
            "--config", "no-epochs.json", "--output", "no-epochs.npz",
            absent=["no-epochs.npz"])


def test_train_refuses_a_token_holding_a_newline(work):
    cwd, _ = work
    (cwd / "newline.jsonl").write_text(
        r'{"app": "a", "tokens": ["dark\n"], "tags": ["O"]}' + "\n",
        encoding="utf-8")
    refused(cwd, r"error: newline.jsonl: line 1: app 'a' position 0: "
                 r"unclean token 'dark\n'",
            "train", "--corpus", "newline.jsonl",
            "--config", "config.json", "--output", "newline.npz",
            absent=["newline.npz"])


def test_train_refuses_an_output_that_is_the_glove_file(work):
    cwd, _ = work
    refused(cwd, "error: --output 'glove.txt' and glove_path 'glove.txt' "
                 "name the same file",
            "train", "--corpus", "corpus.jsonl",
            "--config", "glove.json", "--output", "glove.txt")
    assert (cwd / "glove.txt").read_bytes() == GLOVE.encode()
