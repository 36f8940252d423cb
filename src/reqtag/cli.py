"""Command-line entry point: preprocess, train, crossval, extract, evaluate.

Exit codes: 0 success, 1 runtime/data error, 2 usage error. Logs go to
stderr; machine-readable artifacts to the paths given by the flags.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .data import (Corpus, DataError, ParseError, SchemaError, load_corpus,
                   parse_conllu, parse_rebert_csv, save_corpus, clean_tokens)
from .embeddings import encode_tokens
from .evaluation import (BaselineMismatchError, evaluate_domain, extract_spans,
                         load_baselines, render_report)
from .network import load_checkpoint, predict_tags, save_checkpoint
from .tensor import NumericError
from .training import TrainConfig, cross_validate, train


def _log(msg):
    print(msg, file=sys.stderr)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_config(path) -> TrainConfig:
    if path is None:
        return TrainConfig()
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise DataError(f"unknown config keys: {unknown}")
    return TrainConfig(**doc)


def cmd_preprocess(args):
    if args.format == "rebert-csv":
        corpus, summary = parse_rebert_csv(args.input,
                                           feature_delim=args.feature_delim)
    else:
        corpus, summary = parse_conllu(args.input, tag_column=args.tag_column)
    save_corpus(args.output, corpus)
    domains = corpus.domains
    report = {
        "sentences_kept": summary.kept,
        "sentences_dropped_empty": summary.dropped_empty,
        "alignment_misses": summary.alignment_misses,
        "domains": {d: len(ix) for d, ix in sorted(domains.items())},
    }
    _log(json.dumps(report, indent=2))
    return 0


def cmd_train(args):
    config = _load_config(args.config)
    corpus = load_corpus(args.corpus)
    domains = sorted(corpus.domains)
    train_domains = args.domains.split(",") if args.domains else domains
    _log(f"training on domains: {train_domains}")
    params, vocab, curve = train(config, corpus, train_domains)
    save_checkpoint(args.output, params, vocab,
                    extra_config=dataclasses.asdict(config))
    _log(f"final epoch mean loss: {curve[-1]:.6f}")
    if args.loss_curve:
        Path(args.loss_curve).write_text(json.dumps(curve), encoding="utf-8")
    return 0


def _manifest(config: TrainConfig, inputs: dict, fold_reports):
    return {
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "config": dataclasses.asdict(config),
        "input_digests": {name: _sha256(p) for name, p in inputs.items()},
        "fold_seeds": {fr.held_out_domain: [r["seed"] for r in fr.runs]
                       for fr in fold_reports},
    }


def cmd_crossval(args):
    config = _load_config(args.config)
    if args.runs is not None:
        config = dataclasses.replace(config, runs_per_fold=args.runs)
    corpus = load_corpus(args.corpus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def progress(domain, run_index, seed):
        _log(f"[fold={domain} run={run_index}] seed={seed}")

    reports = cross_validate(config, corpus, progress=progress)
    for fr in reports:
        fold_path = out / f"fold_{fr.held_out_domain}.json"
        fold_path.write_text(
            json.dumps(dataclasses.asdict(fr), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    doc, table = render_report(reports)
    (out / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    (out / "report.txt").write_text(table + "\n", encoding="utf-8")
    manifest = _manifest(config, {"corpus": args.corpus}, reports)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _log(table)
    return 0


def cmd_extract(args):
    params, vocab, _config = load_checkpoint(args.model)
    with open(args.input, encoding="utf-8") as fh:
        for line in fh:
            text = line.rstrip("\n")
            tokens = clean_tokens(text)
            requirements = []
            if tokens:
                tags = predict_tags(params, encode_tokens(tokens, vocab))
                for span in extract_spans(tags, tokens=tokens):
                    requirements.append({"span": [span.start, span.end],
                                         "text": span.text})
            print(json.dumps({"text": text, "requirements": requirements}))
    return 0


def cmd_evaluate(args):
    params, vocab, _config = load_checkpoint(args.model)
    corpus = load_corpus(args.corpus)
    domains = corpus.domains
    if args.domain not in domains:
        raise DataError(
            f"unknown domain {args.domain!r}; available: {sorted(domains)}")
    sentences = [corpus.sentences[i] for i in domains[args.domain]]
    blocks = {"exact": evaluate_domain(params, vocab, sentences,
                                       oracle=args.oracle)}
    if args.overlap:
        blocks["overlap"] = evaluate_domain(params, vocab, sentences,
                                            overlap=True, oracle=args.oracle)
    doc = {"domain": args.domain,
           "metrics": {k: dataclasses.asdict(v) for k, v in blocks.items()}}
    if args.baselines:
        doc["baselines"] = load_baselines(args.baselines, [args.domain])
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
    p.add_argument("--runs", type=int, help="override runs per fold")
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
    p.add_argument("--oracle", action="store_true",
                   help="feed gold tags as predictions (sanity check)")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ParseError, SchemaError, BaselineMismatchError,
            FileNotFoundError, ValueError, NumericError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
