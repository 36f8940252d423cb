"""Acceptance gate: one test per criterion.

Each criterion folds its checks into one verdict and records the line
`ACCEPTANCE <criterion>: PASS` or `FAIL`. A pytest run that runs any of
them, tier-1 included, ends its summary with the recorded lines under
one `acceptance` section (`tests/conftest.py`).
"""

import json
import time

import numpy as np

from reqtag import crf
from reqtag.cli import main as cli_main
from reqtag.data import Corpus, align_bio, clean_tokens, save_corpus
from reqtag.embeddings import encode_tokens
from reqtag.evaluation import (compute_metrics, evaluate_tag_pairs,
                               extract_spans, mean_scores)
from reqtag.network import (ModelDims, _attend, _decode_inference, _encode,
                            _gold_feed, _pack, batch_loss_and_grads,
                            init_model, param_blocks, predict_tags)
from reqtag.training import TrainConfig, cross_validate, train
from conftest import (ACCEPTANCE, grad_check, make_review_corpus,
                      make_synthetic_corpus)
from crf_oracles import (brute_force_log_partition, brute_force_viterbi,
                         is_valid_bio, log_partition, path_score,
                         random_bio)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE.append(line)
    assert ok, line


def random_crf_instance(rng, n):
    emissions = rng.normal(scale=3.0, size=(n, 3))
    transitions = crf.init_transitions()
    free = ~crf.forbidden_mask()
    transitions[free] = rng.normal(scale=2.0, size=free.sum())
    return emissions, transitions


def test_criterion_1_crf_oracle_suite():
    rng = np.random.default_rng(101)
    # golds from their own stream, so the 200 instances stay as they were
    gold_rng = np.random.default_rng(1101)
    start = time.monotonic()
    off = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        e, t = random_crf_instance(rng, n)
        # log Z from the training loss crf_nll_backward: NLL + score(gold)
        log_z = log_partition(e, t, random_bio(gold_rng, n))
        tags = crf.crf_viterbi(e, t, _pack([n]))[0]
        bpath, bscore = brute_force_viterbi(e, t)
        off += not (abs(log_z - brute_force_log_partition(e, t)) <= 1e-8
                    and abs(path_score(e, t, tags) - bscore) <= 1e-8
                    and tags == bpath)
    elapsed = time.monotonic() - start
    report("1 crf-oracle-suite", off == 0 and elapsed < 10.0,
           f"{off} of 200 instances off the oracles, {elapsed:.1f}s")


def _worst_gradient_error(params, tokens, tags, lengths):
    """(largest relative error, its block) of the batch's analytic
    gradient against central differences over every trainable block
    (clamped transitions unprobed), for the loss averaged over rows."""
    rows = len(lengths)

    def batch_loss(_=None):
        return batch_loss_and_grads(params, tokens, tags, lengths)[0] / rows

    _, grads = batch_loss_and_grads(params, tokens, tags, lengths)
    worst = (0.0, "")
    for name, arr in param_blocks(params).items():
        skip = crf.forbidden_mask() if name == "transitions" else None
        res = grad_check(batch_loss, arr, grads[name] / rows, h=1e-4,
                         tol=1e-4, skip=skip)
        worst = max(worst, (res.max_relative_error, name))
    return worst


def test_criterion_2_gradient_suite():
    start = time.monotonic()
    dims = ModelDims(embedding_dim=4, h_enc=3, d_att=4, h_dec=3, d_tag=2)
    params = init_model(10, dims, np.random.default_rng(6))
    # rows of lengths 5 and 3, laid end to end
    worst = _worst_gradient_error(
        params, np.array([2, 3, 4, 5, 2, 6, 7, 8]),
        np.array([0, 1, 2, 2, 0, 0, 1, 0]), [5, 3])
    # lengths 9, 4 and 4: the two rows of length 4 attend as one stacked
    # run, the long row runs 9 steps alone after step 4, and token 3
    # repeats within and across rows
    tokens = np.array([3, 4, 3, 5, 6, 7, 3, 8, 9,
                       1, 3, 6, 3,
                       2, 9, 3, 4])
    tags = np.array([0, 1, 2, 0, 1, 1, 2, 2, 0,
                     1, 2, 0, 1,
                     0, 0, 1, 2])
    for trainable in (True, False):
        params = init_model(10, dims, np.random.default_rng(16))
        params.embedding_trainable = trainable
        worst = max(worst, _worst_gradient_error(params, tokens, tags,
                                                 [9, 4, 4]))
    elapsed = time.monotonic() - start
    report("2 gradient-suite", worst[0] <= 1e-4 and elapsed < 60.0,
           f"worst rel err {worst[0]:.2e} in {worst[1]}, {elapsed:.1f}s")


def test_criterion_3_constraint_guarantee():
    rng = np.random.default_rng(103)
    dims = ModelDims(embedding_dim=4, h_enc=3, d_att=4, h_dec=3, d_tag=2)
    params = init_model(20, dims, rng)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(1, 10))
        e, t = random_crf_instance(rng, n)
        tags = crf.crf_viterbi(e, t, _pack([n]))[0]
        if not is_valid_bio(tags):
            violations += 1
    for _ in range(500):
        n = int(rng.integers(1, 10))
        idx = list(rng.integers(2, 20, size=n))
        if not is_valid_bio(predict_tags(params, [idx])[0]):
            violations += 1
    report("3 constraint-guarantee", violations == 0,
           f"{violations} violations in 1000 decodes")


def _batch_loss(params, rows):
    """Teacher-forced loss of the batched core on (indices, gold) rows."""
    tokens = np.concatenate([indices for indices, _ in rows])
    tags = np.concatenate([gold for _, gold in rows])
    loss, _ = batch_loss_and_grads(params, tokens, tags,
                                   [len(gold) for _, gold in rows])
    return loss


def test_criterion_4_padding_invariance():
    # a row's loss does not depend on the rows that share its batch, and
    # a batch's total is the sum of its rows run alone
    rng = np.random.default_rng(104)
    dims = ModelDims(embedding_dim=4, h_enc=3, d_att=4, h_dec=3, d_tag=2)
    params = init_model(15, dims, rng)
    # separate streams, so the longer rows and their gold leave the cases
    # above unchanged
    longer_rng = np.random.default_rng(204)
    longer_gold_rng = np.random.default_rng(304)
    off = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        extra = int(rng.integers(1, 5))
        indices = list(rng.integers(2, 15, size=n))
        gold = [crf.O] * n
        runs = rng.integers(0, 2, size=n)
        prev = crf.O
        for i in range(n):  # random but valid BIO gold
            if runs[i] and prev != crf.O:
                gold[i] = crf.I
            elif runs[i]:
                gold[i] = crf.B
            prev = gold[i]
        longer = longer_rng.integers(2, 15, size=n + extra)
        row = (indices, gold)
        other = (longer, random_bio(longer_gold_rng, n + extra))
        alone = _batch_loss(params, [row])
        other_alone = _batch_loss(params, [other])
        first = _batch_loss(params, [row, other])
        second = _batch_loss(params, [other, row])
        decoded = predict_tags(params, [indices])[0]
        off += not (
            # the row's share after a longer row is its loss alone
            abs((second - other_alone) - alone) <= 1e-9
            # a batch's total is the sum of its rows run alone
            and abs(first - (alone + other_alone)) <= 1e-9
            # a row decodes alike alone and beside a longer row
            and predict_tags(params, [indices, longer])[0] == decoded)
    report("4 batch-invariance", off == 0, f"{off} of 100 random cases off")


def test_criterion_5_learnability():
    start = time.monotonic()
    corpus = make_synthetic_corpus(200, 3, seed=0)
    cfg = TrainConfig(learning_rate=0.003, batch_size=8, embedding_dim=32,
                      h_enc=32, d_att=32, h_dec=32, d_tag=8,
                      epochs=10, runs_per_fold=1, seed=0)
    folds = cross_validate(cfg, corpus)
    elapsed = time.monotonic() - start
    f1s = {d: mean_scores(runs)["f1"] for d, runs in folds.items()}
    ok = all(f1 >= 0.90 for f1 in f1s.values()) and elapsed < 300.0
    shown = {d: round(f1, 3) for d, f1 in f1s.items()}
    report("5 learnability", ok, f"fold F1 {shown}, {elapsed:.0f}s")


def test_criterion_6_overfit_oracle():
    corpus = make_synthetic_corpus(8, 1, seed=4)
    target = next(s for s in corpus.sentences if "B" in s.tags)
    single = Corpus(sentences=[target])
    cfg = TrainConfig(learning_rate=0.005, embedding_dim=16, h_enc=8,
                      d_att=8, h_dec=8, d_tag=4, epochs=200,
                      runs_per_fold=1, seed=0)
    params, vocab, _ = train(cfg, single, [target.domain])
    pred = predict_tags(params, [encode_tokens(target.tokens, vocab)])[0]
    gold_spans = extract_spans(target.tag_indices())
    pred_spans = extract_spans(pred)
    tp = len(set(gold_spans) & set(pred_spans))
    m = compute_metrics(tp, len(pred_spans) - tp, len(gold_spans) - tp)
    report("6 overfit-oracle", m["f1"] == 1.0, f"F1 {m['f1']}")


def test_criterion_7_metric_oracles():
    m1 = compute_metrics(1, 1, 0)
    m2 = compute_metrics(2, 1, 2)
    goldens = ((m1["precision"], m1["recall"]) == (0.5, 1.0)
               and m1["f1"] == 2 * 0.5 * 1.0 / (0.5 + 1.0)
               and m2["f1"] == 2 * (2 / 3) * 0.5 / ((2 / 3) + 0.5))
    rng = np.random.default_rng(107)
    off = 0
    for _ in range(10_000):
        tags = list(rng.integers(0, 3, size=rng.integers(1, 12)))
        spans = extract_spans(tags)
        transitions = sum(1 for i, t in enumerate(tags)
                          if t != 0 and (i == 0 or tags[i - 1] == 0))
        off += len(spans) != transitions
    report("7 metric-oracles", goldens and off == 0,
           f"goldens {'met' if goldens else 'missed'}, {off} of 10000 "
           f"random sequences off")


def test_criterion_8_pipeline_fidelity():
    tokens = clean_tokens("Can you add audio format for text to speech?")
    tags, misses = align_bio(tokens, [clean_tokens("audio format"),
                                      clean_tokens("text to speech")])
    ok = (tags == ["O", "O", "O", "B", "I", "O", "B", "I", "I"]
          and misses == 0)
    report("8 pipeline-fidelity", ok, f"tags {tags}")


def test_criterion_9_crossval_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(corpus_path, make_synthetic_corpus(24, 2, seed=1))
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "embedding_dim": 16, "h_enc": 8, "d_att": 8, "h_dec": 8, "d_tag": 4,
        "epochs": 2, "runs_per_fold": 2, "batch_size": 8, "seed": 0,
    }), encoding="utf-8")
    outs = [tmp_path / "run1", tmp_path / "run2"]
    codes = [cli_main(["crossval", "--corpus", str(corpus_path),
                       "--config", str(config_path), "--out", str(out)])
             for out in outs]
    identical = codes == [0, 0] and all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("fold_dom0.json", "fold_dom1.json", "report.json",
                  "report.txt"))
    if identical:
        manifests = [
            json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            for out in outs]
        for manifest in manifests:
            del manifest["timestamp"]
        identical = manifests[0] == manifests[1]
    report("9 crossval-determinism", identical,
           f"exit codes {codes}, fold reports byte-identical, manifests "
           f"equal but for timestamp")


def _gold_fed_path(params, row, gold):
    """Viterbi path of one row's emissions with the decoder fed the gold
    tag of the step before, as in training."""
    packing = _pack([len(row)])
    enc = _encode(params, np.asarray(row), packing, keep=False)[0]
    attended = _attend(params, enc, packing)[0]
    fed = _gold_feed(np.asarray(gold), packing)
    emissions = _decode_inference(params, attended, packing, fed)[0]
    return crf.crf_viterbi(emissions, params.blocks["transitions"], packing)[0]


def test_criterion_10_decoder_feed_gap():
    # the decoder trains on the gold tag of the step before and decodes
    # fed its own greedy tag: F1 on the training sentences both ways
    # shows how much of the model's skill that gap hides
    start = time.monotonic()
    corpus = make_review_corpus(150, seed=0)
    cfg = TrainConfig(learning_rate=0.003, batch_size=16, embedding_dim=32,
                      h_enc=32, d_att=32, h_dec=32, d_tag=8, epochs=15,
                      seed=0)
    params, vocab, _ = train(cfg, corpus, sorted(corpus.domains))
    rows = [encode_tokens(s.tokens, vocab) for s in corpus.sentences]
    golds = [s.tag_indices() for s in corpus.sentences]
    greedy = evaluate_tag_pairs(zip(predict_tags(params, rows), golds))["f1"]
    gold_fed = evaluate_tag_pairs(
        (_gold_fed_path(params, row, gold), gold)
        for row, gold in zip(rows, golds))["f1"]
    elapsed = time.monotonic() - start
    ok = 0.0 <= greedy <= 1.0 and 0.0 <= gold_fed <= 1.0
    report("10 decoder-feed-gap", ok,
           f"training-set F1 greedy feed {greedy:.3f}, gold feed "
           f"{gold_fed:.3f}, {len(rows)} sentences, {elapsed:.1f}s")
