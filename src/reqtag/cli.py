"""Command-line entry point: preprocess, train, crossval, extract, evaluate.

Exit codes: 0 success, 1 runtime/data error or a path that cannot be
read or written, 2 usage error. Logs go to stderr; machine-readable
artifacts to the paths given by the flags.
"""

import argparse
import codecs
import dataclasses
import errno
import io
import json
import os
import select
import sys
import time
from pathlib import Path

from . import __version__
from .data import (_NOT_UTF8, DataError, clean_tokens, load_corpus, naming,
                   parse_conllu, parse_rebert_csv, read_json, save_corpus)
from .embeddings import encode_tokens
from .evaluation import (evaluate_domain, extract_spans, load_baselines,
                         mean_scores, render_report)
from .network import (DECODE_CHUNK, InputTable, blas_threads,
                      load_checkpoint, predict_tags, save_checkpoint,
                      usable_cpus)

EXTRACT_WINDOW = 4 * DECODE_CHUNK  # most lines per extract predict_tags call
NAME_MAX = 255  # bytes in a file name on common file systems


def _log(msg):
    print(msg, file=sys.stderr)


def _check_paths(outputs, inputs):
    """Refuse bad path flags before a command reads, draws or writes
    anything; each argument is a list of (flag, path) pairs, and a None
    path names nothing. An output must name a file in an existing
    directory, and not the file of a later output or of an input (which
    need not exist yet), and its file name must fit in 255 bytes; an
    input must exist and must not be a directory."""
    pairs = [*outputs, *inputs]
    for i, (flag, path) in enumerate(outputs):
        for other, other_path in pairs[i + 1:]:
            if path is not None and other_path is not None and (
                    os.path.realpath(path) == os.path.realpath(other_path)
                    or os.path.exists(path) and os.path.exists(other_path)
                    and os.path.samefile(path, other_path)):
                raise DataError(f"{flag} {path!r} and {other} "
                                f"{other_path!r} name the same file")
    for flag, path in outputs:  # the write after the work may still fail
        if path is not None and (
                not os.path.basename(path) or os.path.isdir(path)
                or not os.path.isdir(os.path.dirname(path) or ".")):
            raise DataError(f"{flag} {path!r} does not name a file in an "
                            f"existing directory")
        if (path is not None
                and len(os.fsencode(os.path.basename(path))) > NAME_MAX):
            raise DataError(f"{flag} {path!r} names a file of more than "
                            f"{NAME_MAX} bytes")
    # refused here, before any work starts, so that crossval leaves no
    # --out behind when glove_path is a directory or names no file
    for _flag, path in inputs:
        if path is not None and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    path)
    for _flag, path in inputs:  # after every directory input is named
        if path is not None:
            os.stat(path)  # a missing file raises open()'s [Errno 2]


def _load_config(path) -> "TrainConfig":
    from .training import TrainConfig
    if path is None:
        return TrainConfig()
    with naming(path):
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise DataError(f"config must be a JSON object, "
                            f"got {type(doc).__name__}")
        known = {f.name for f in dataclasses.fields(TrainConfig)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise DataError(f"unknown config keys: {unknown}")
        return TrainConfig(**doc)


def cmd_preprocess(args):
    if not args.feature_delim:
        raise DataError("--feature-delim must not be empty")
    _check_paths([("--output", args.output)], [("--input", args.input)])
    if args.format == "rebert-csv":
        corpus, counts = parse_rebert_csv(args.input,
                                          feature_delim=args.feature_delim)
    else:
        corpus, counts = parse_conllu(args.input, tag_column=args.tag_column)
    save_corpus(args.output, corpus)
    domains = corpus.domains
    report = {
        "sentences_kept": len(corpus.sentences),
        "sentences_dropped_empty": counts["dropped_empty"],
        "alignment_misses": counts["alignment_misses"],
        # sentences whose token sequence an earlier sentence has
        "sentences_duplicated": len(corpus.sentences) - len(
            {tuple(s.tokens) for s in corpus.sentences}),
        # B tags right after a B or an I: spans that abut the one before
        "abutting_spans": sum(a != "O" and b == "B" for s in corpus.sentences
                              for a, b in zip(s.tags, s.tags[1:])),
        "domains": {d: len(ix) for d, ix in sorted(domains.items())},
    }
    _log(json.dumps(report, indent=2))
    return 0


def cmd_train(args):
    from .training import train
    outputs = [("--output", args.output), ("--loss-curve", args.loss_curve)]
    _check_paths(outputs, [("--corpus", args.corpus), ("--config", args.config)])
    config = _load_config(args.config)
    _check_paths(outputs, [("glove_path", config.glove_path)])
    corpus = load_corpus(args.corpus)
    train_domains = (args.domains.split(",") if args.domains is not None
                     else sorted(corpus.domains))
    params, vocab, curve = train(config, corpus, train_domains)
    save_checkpoint(args.output, params, vocab,
                    extra_config=dataclasses.asdict(config))
    if args.loss_curve:
        Path(args.loss_curve).write_text(json.dumps(curve), encoding="utf-8")
    # logged once every output is written: a failed run prints one line
    _log(f"trained on domains: {train_domains}; "
         f"final epoch mean loss: {curve[-1]:.6f}")
    return 0


def _manifest(config: "TrainConfig", digests: dict, folds, held_out):
    import numpy as np
    blas = blas_threads()
    return {
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "config": dataclasses.asdict(config),
        "input_digests": digests,
        "fold_seeds": {domain: [r["seed"] for r in runs]
                       for domain, runs in folds.items()},
        "held_out": held_out,
        # what sets the rounding: the BLAS thread count is null without
        # OpenBLAS, cpus bounds a decode pool
        "environment": {"numpy": np.__version__,
                        "blas_threads": None if blas is None else blas[0](),
                        "cpus": usable_cpus()},
    }


def cmd_crossval(args):
    import hashlib
    from .training import cross_validate, held_out_counts
    _check_paths([], [("--corpus", args.corpus), ("--config", args.config)])
    config = _load_config(args.config)
    _check_paths([], [("glove_path", config.glove_path)])
    corpus = load_corpus(args.corpus)
    domains = corpus.domains
    if len(domains) < 2:
        raise DataError(f"need at least 2 domains, have {len(domains)}")
    for domain in domains:  # each names fold_<domain>.json
        if "/" in domain or "\0" in domain:
            raise DataError(f"domain {domain!r} holds '/' or NUL, so it "
                            f"cannot name a fold file")
        try:
            domain.encode("utf-8")  # as report.txt holds it
            fits = len(os.fsencode(f"fold_{domain}.json")) <= NAME_MAX
        except UnicodeEncodeError:
            fits = False
        if not fits:
            raise DataError(f"domain {domain!r} cannot name a fold file of "
                            f"at most {NAME_MAX} UTF-8 bytes")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _check_paths([("--out", os.path.join(args.out, name)) for name in (
        "report.json", "report.txt", "manifest.json",
        *(f"fold_{domain}.json" for domain in sorted(domains)))],
        [("--corpus", args.corpus), ("--config", args.config),
         ("glove_path", config.glove_path)])
    digests = {"corpus": hashlib.sha256(  # what the runs read
        Path(args.corpus).read_bytes()).hexdigest()}

    def progress(domain, run_index, seed):
        _log(f"[fold={domain} run={run_index}] seed={seed}")

    folds = cross_validate(config, corpus, progress=progress)
    for domain, runs in folds.items():
        means = {f"mean_{k}": v for k, v in mean_scores(runs).items()}
        (out / f"fold_{domain}.json").write_text(json.dumps(
            {"held_out_domain": domain, "runs": runs, **means},
            indent=2, sort_keys=True) + "\n", encoding="utf-8")
    doc, table = render_report(folds)
    (out / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    (out / "report.txt").write_text(table + "\n", encoding="utf-8")
    manifest = _manifest(config, digests, folds, held_out_counts(corpus))
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _log(table)
    return 0


def _ready_lines(path):
    """Windows of the complete lines buffered or readable at once, at most
    EXTRACT_WINDOW, newline stripped and decoded as a text-mode open() with
    utf-8-sig does; the read blocks only when none is buffered. A line that
    is not UTF-8 raises DataError, after the windows of the lines before it."""
    decoder = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder("utf-8-sig")("surrogateescape"),
        translate=True)
    text, eof, done = "", False, 0
    with open(path, "rb", buffering=0) as fh, naming(path):
        while not eof or text:
            ready = text.count("\n")
            if not eof and (not ready or ready < EXTRACT_WINDOW
                            and select.select([fh], [], [], 0)[0]):
                chunk = fh.read(1 << 16)
                eof = not chunk
                text += decoder.decode(chunk, final=eof)
            else:  # at end of input a last line may lack its newline
                *lines, text = text.split("\n", EXTRACT_WINDOW) if ready else [text, ""]
                good = next((k for k, line in enumerate(lines)
                             if _NOT_UTF8.search(line)), len(lines))
                if good:
                    yield lines[:good]
                if good < len(lines):
                    raise DataError(f"line {done + good + 1}: not UTF-8")
                done += good


def cmd_extract(args):
    _check_paths([], [("--model", args.model), ("--input", args.input)])
    params, vocab, _config = load_checkpoint(args.model)
    table = InputTable(params)  # each word is projected once per process
    for lines in _ready_lines(args.input):
        tokens = [clean_tokens(line) for line in lines]
        rows = [encode_tokens(t, vocab) for t in tokens if t]
        paths = iter(predict_tags(params, rows, table))
        replies = []
        for text, toks in zip(lines, tokens):
            spans = extract_spans(next(paths)) if toks else []
            replies.append(json.dumps({"text": text, "requirements": [
                {"span": [s, e], "text": " ".join(toks[s:e + 1])}
                for s, e in spans]}) + "\n")
        sys.stdout.write("".join(replies))
        sys.stdout.flush()
    return 0


def cmd_evaluate(args):
    _check_paths([], [("--model", args.model), ("--corpus", args.corpus),
                      ("--baselines", args.baselines)])
    params, vocab, _config = load_checkpoint(args.model)
    corpus = load_corpus(args.corpus)
    domains = corpus.domains
    if args.domain not in domains:
        raise DataError(
            f"unknown domain {args.domain!r}; available: {sorted(domains)}")
    doc = {"domain": args.domain}
    if args.baselines:  # read before the decode, the slow part
        doc["baselines"] = load_baselines(args.baselines, [args.domain])
    doc["metrics"] = evaluate_domain(
        params, vocab, [corpus.sentences[i] for i in domains[args.domain]])
    if not args.overlap:
        del doc["metrics"]["overlap"]
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reqtag",
        description="Extract software requirements from app reviews with a "
                    "BiLSTM/attention/LSTM-decoder/CRF tagger.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="convert a dataset to canonical JSONL")
    p.add_argument("--format", required=True, choices=["rebert-csv", "conllu"])
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--tag-column", type=int, default=9,
                   help="zero-based CoNLL-U column holding the BIO tag")
    p.add_argument("--feature-delim", default=",",
                   help="delimiter inside the annotated-features CSV cell")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train on selected domains, save a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config")
    p.add_argument("--domains", help="comma-separated training domains (default: all)")
    p.add_argument("--output", required=True)
    p.add_argument("--loss-curve")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("crossval", help="leave-one-domain-out cross-validation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("extract", help="extract requirements from raw review lines")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="score a model on one corpus domain")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--baselines")
    p.add_argument("--overlap", action="store_true")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, FloatingPointError, MemoryError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
