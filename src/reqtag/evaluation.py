"""Requirement-level evaluation: span extraction, matching, P/R/F1.

A predicted requirement is a maximal run of non-O tags; the B/I split
inside a run is ignored. A span is its start and end positions only.
Matching defaults to exact (start, end) equality; token-overlap matching
is available for comparability. Counts are pooled (micro-averaged)
across all sentences of a domain; mean_scores averages runs and folds.
"""

import math
import numbers

from .data import DataError, read_json
from .embeddings import encode_tokens
from .network import predict_batch


def extract_spans(tags):
    """Maximal runs of non-O tag indices, as sorted disjoint (start, end)
    pairs, both ends inclusive. The input need not be valid BIO.
    """
    spans = []
    start = None
    for pos, t in enumerate(tags):
        if t != 0 and start is None:
            start = pos
        elif t == 0 and start is not None:
            spans.append((start, pos - 1))
            start = None
    if start is not None:
        spans.append((start, len(tags) - 1))
    return spans


def match_spans(predicted, gold, overlap: bool = False):
    """(tp, fp, fn) for one sentence's spans.

    Exact mode requires identical (start, end). Overlap mode matches a
    predicted span to at most one unmatched gold span sharing a token,
    greedily in start order.
    """
    if not overlap:
        gold, predicted = set(gold), set(predicted)
        tp = len(gold & predicted)
        return tp, len(predicted) - tp, len(gold) - tp
    gold = sorted(gold, key=lambda g: g[0])
    used = [False] * len(gold)
    tp = 0
    for p in sorted(predicted, key=lambda p: p[0]):
        for j, g in enumerate(gold):
            if not used[j] and p[0] <= g[1] and g[0] <= p[1]:
                used[j] = True
                tp += 1
                break
    return tp, len(predicted) - tp, len(gold) - tp


def compute_metrics(tp: int, fp: int, fn: int) -> dict:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1,
            "tp": tp, "fp": fp, "fn": fn}


def evaluate_tag_pairs(pairs, overlap: bool = False) -> dict:
    """Micro-averaged metrics over (predicted_tags, gold_tags) pairs."""
    tp = fp = fn = 0
    for pred_tags, gold_tags in pairs:
        t, p, n = match_spans(extract_spans(pred_tags), extract_spans(gold_tags),
                              overlap=overlap)
        tp += t
        fp += p
        fn += n
    return compute_metrics(tp, fp, fn)


def evaluate_domain(params, vocab, sentences) -> dict:
    """Decode a domain's sentences once and score them both ways:
    {"exact": metrics, "overlap": metrics}."""
    rows = [encode_tokens(s.tokens, vocab) for s in sentences]
    pairs = list(zip(predict_batch(params, rows),
                     [s.tag_indices() for s in sentences]))
    return {"exact": evaluate_tag_pairs(pairs),
            "overlap": evaluate_tag_pairs(pairs, overlap=True)}


def load_baselines(path, fold_labels):
    """Baseline score file: JSON map domain -> {precision?, recall?, f1}."""
    table = read_json(path)
    if not isinstance(table, dict):
        raise DataError(f"baselines must be a JSON object of domains, "
                        f"got {type(table).__name__}")
    for domain, scores in table.items():
        if not isinstance(scores, dict) or "f1" not in scores:
            raise DataError(
                f"baseline {domain!r} must be an object with an f1, "
                f"got {scores!r}")
        for key in ("precision", "recall", "f1"):
            value = scores.get(key, 0.0)
            # JSON has no NaN or Infinity, though Python's json reads them
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not -math.inf < value < math.inf):
                raise DataError(
                    f"baseline {domain!r}: {key} must be a number, "
                    f"got {value!r}")
    missing = sorted(set(table) - set(fold_labels))
    if missing:
        raise DataError(
            f"baseline domains not present in fold reports: {missing}")
    return table


def mean_scores(rows) -> dict:
    """Mean precision, recall and f1 of score dicts, summed in row order."""
    return {k: sum(r[k] for r in rows) / len(rows)
            for k in ("precision", "recall", "f1")}


def render_report(folds):
    """(json_doc, text_table) for {held-out domain: [run dicts]}."""
    rows = [{"domain": domain, **mean_scores(runs), "runs": runs}
            for domain, runs in folds.items()]
    mean_row = {"domain": "MEAN", **mean_scores(rows)}
    doc = {"folds": rows, "mean": mean_row,
           "note": "zero-denominator metrics reported as 0"}

    metrics = ("precision", "recall", "f1")
    all_rows = rows + [mean_row]
    width = max([len("domain")] + [len(str(r["domain"])) for r in all_rows])
    fmt = "  ".join(["{:<%d}" % width] + ["{:>18}"] * len(metrics))
    lines = [fmt.format("domain", *metrics)]
    for r in all_rows:
        lines.append(fmt.format(str(r["domain"]),
                                *("{:.4f}".format(r[k]) for k in metrics)))
    return doc, "\n".join(lines)
