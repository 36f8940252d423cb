"""One benchmark process: a train-default run, or the CLI under the tracer.

    child.py run --corpus C --config F --seconds S [--workdir D]
                 [--iterations N] [--setup-only] [--trace-out P]
    child.py cli [--trace-out P] -- <reqtag arguments>

``run`` imports the program, loads the corpus and prints ``ready``; the
parent times set-up up to that line. It then repeats one train run
(``training.train`` on every app, then ``network.save_checkpoint``) until
``--seconds`` have passed and at least three ran, or exactly
``--iterations`` times. Last comes one ``training.run_fold`` that holds
out the last app, as cross-validation runs it, so its layers
(``run_fold``, ``evaluate_domain``) are measured too. It prints one JSON
line of raw timings and outputs for the parent to check.

``cli`` runs ``reqtag.cli.main`` in this process, so the tracer can be
installed around it first.
"""

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
import traceback

import spans

MIN_ITERATIONS = 3


def _emit(doc):
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _train_unit(training, network, config, corpus, ckpt):
    t0 = time.perf_counter()
    params, vocab, curve = training.train(config, corpus, sorted(corpus.domains))
    t1 = time.perf_counter()
    network.save_checkpoint(ckpt, params, vocab,
                            extra_config=dataclasses.asdict(config))
    t2 = time.perf_counter()
    return {"train_s": t1 - t0, "save_s": t2 - t1, "loss": curve[-1],
            "bytes": os.path.getsize(ckpt)}, (params, vocab)


def _roundtrip_ok(network, ckpt, params, vocab):
    """The saved checkpoint loads back bit-exact (checked untimed)."""
    loaded, lvocab, _cfg = network.load_checkpoint(ckpt)
    a = network.param_blocks(params)
    b = network.param_blocks(loaded)
    return (lvocab.index_to_token == vocab.index_to_token and a.keys() == b.keys()
            and all((a[k] == b[k]).all() and a[k].shape == b[k].shape
                    for k in a))


def _fold_run(training, config, corpus, held_out):
    t0 = time.perf_counter()
    metrics = training.run_fold(config, corpus, held_out, config.seed)
    return {"fold_run_s": time.perf_counter() - t0, "f1": metrics["f1"]}


def cmd_run(args):
    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        tracer.install()
    from reqtag import data, network, training

    corpus = data.load_corpus(args.corpus)
    with open(args.config, encoding="utf-8") as fh:
        config = training.TrainConfig(**json.load(fh))
    _emit("ready")
    if args.setup_only:
        return 0

    ckpt = os.path.join(args.workdir, "model.json")
    held_out = sorted(corpus.domains)[-1]
    units, last, fold = [], None, None
    error, failed_ops = None, 0
    start = time.perf_counter()
    try:
        while True:
            last = None  # free the previous model before the next trains
            unit, last = _train_unit(training, network, config, corpus, ckpt)
            units.append(unit)
            elapsed = time.perf_counter() - start
            if args.iterations:
                if len(units) >= args.iterations:
                    break
            elif elapsed >= args.seconds and len(units) >= MIN_ITERATIONS:
                break
        fold = _fold_run(training, config, corpus, held_out)
    except Exception:
        # the train run or fold-run in progress failed
        error = traceback.format_exc()
        sys.stderr.write(error)
        failed_ops = 1

    lengths = [len(s.tokens) for s in corpus.sentences]
    held_tokens = sum(lengths[i] for i in corpus.domains[held_out])
    result = {"units": units, "fold": fold, "error": error,
              "failed_ops": failed_ops,
              # token positions through the forward model: per train run,
              # and in the fold-run (training on the rest, then evaluation)
              "run_tokens": config.epochs * sum(lengths),
              "fold_tokens": config.epochs * (sum(lengths) - held_tokens)
              + held_tokens,
              # before the untimed check below, which is not the workload
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.save(args.trace_out)
    if last is not None:
        result["roundtrip_ok"] = _roundtrip_ok(network, ckpt, *last)
    _emit(result)
    return 0


def cmd_cli(args):
    tracer = spans.Tracer() if args.trace_out else None
    if tracer is not None:
        tracer.install()
    from reqtag import cli
    try:
        return cli.main(args.rest)
    finally:
        if tracer is not None:
            tracer.save(args.trace_out)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--workdir", default=".")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--iterations", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("cli")
    p.add_argument("--trace-out")
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.rest[:1] == ["--"]:
        args.rest = args.rest[1:]
    try:
        return args.func(args)
    except spans.MissingBoundary as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return spans.MISSING_BOUNDARY_EXIT


if __name__ == "__main__":
    sys.exit(main())
