import json
import re

import numpy as np
import pytest

from reqtag import evaluation
from reqtag.data import DataError, TaggedSentence
from reqtag.embeddings import build_vocabulary, encode_tokens
from reqtag.evaluation import (compute_metrics, evaluate_domain,
                               evaluate_tag_pairs, extract_spans,
                               load_baselines, match_spans, render_report)
from reqtag.network import DECODE_CHUNK, ModelDims, init_model, predict_tags


class TestExtractSpans:
    def test_two_runs(self):
        got = extract_spans([0, 1, 2, 0, 1])
        assert got == [(1, 2), (4, 4)]

    def test_all_o(self):
        assert extract_spans([0, 0, 0]) == []

    def test_consecutive_non_o_unify(self):
        got = extract_spans([1, 1, 2])
        assert got == [(0, 2)]

    def test_accepts_indices(self):
        got = extract_spans([0, 1, 2, 0])
        assert got == [(1, 2)]

    def test_run_count_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            tags = list(rng.integers(0, 3, size=rng.integers(1, 15)))
            got = extract_spans(tags)
            transitions = sum(
                1 for i, t in enumerate(tags)
                if t != 0 and (i == 0 or tags[i - 1] == 0))
            assert len(got) == transitions
            covered = sorted(i for s, e in got for i in range(s, e + 1))
            assert covered == [i for i, t in enumerate(tags) if t != 0]


class TestMatchSpans:
    def test_identical(self):
        g = [(0, 1), (3, 3)]
        assert match_spans(g, g) == (2, 0, 0)

    def test_disjoint(self):
        assert match_spans([(0, 0)], [(2, 3)]) == (0, 1, 1)

    def test_partial_overlap_both_modes(self):
        pred, gold = [(1, 3)], [(2, 3)]
        assert match_spans(pred, gold) == (0, 1, 1)
        assert match_spans(pred, gold, overlap=True) == (1, 0, 0)

    def test_exact_tp_symmetric(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            def rand_spans():
                out, pos = [], 0
                while pos < 10 and rng.random() < 0.6:
                    start = pos + int(rng.integers(0, 3))
                    end = start + int(rng.integers(0, 3))
                    out.append((start, end))
                    pos = end + 2
                return out
            a, b = rand_spans(), rand_spans()
            assert match_spans(a, b)[0] == match_spans(b, a)[0]

    def test_overlap_matches_each_gold_once(self):
        pred = [(0, 1), (1, 2)]
        gold = [(1, 1)]
        tp, fp, fn = match_spans(pred, gold, overlap=True)
        assert (tp, fp, fn) == (1, 1, 0)


class TestComputeMetrics:
    def test_half_precision_full_recall(self):
        m = compute_metrics(1, 1, 0)
        assert (m["precision"], m["recall"]) == (0.5, 1.0)
        assert m["f1"] == pytest.approx(2 / 3)

    def test_zero_denominators(self):
        m = compute_metrics(0, 0, 0)
        assert (m["precision"], m["recall"], m["f1"]) == (0.0, 0.0, 0.0)

    def test_golden_four_sevenths(self):
        m = compute_metrics(2, 1, 2)
        assert m["precision"] == pytest.approx(2 / 3)
        assert m["recall"] == pytest.approx(0.5)
        assert m["f1"] == pytest.approx(4 / 7)

    def test_f1_between_p_and_r(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            tp, fp, fn = (int(x) for x in rng.integers(0, 20, size=3))
            m = compute_metrics(tp, fp, fn)
            assert 0.0 <= m["f1"] <= 1.0
            if m["precision"] > 0 and m["recall"] > 0:
                assert min(m["precision"], m["recall"]) - 1e-12 <= m["f1"]
                assert m["f1"] <= max(m["precision"], m["recall"]) + 1e-12


def test_evaluate_tag_pairs_micro_averages():
    pairs = [
        ([0, 1, 2], [0, 1, 2]),   # tp 1
        ([1, 0, 0], [0, 0, 1]),   # fp 1, fn 1
    ]
    m = evaluate_tag_pairs(pairs)
    assert (m["tp"], m["fp"], m["fn"]) == (1, 1, 1)


def test_evaluate_domain_batches_equal_per_sentence_predictions(monkeypatch):
    # mixed lengths over more than one decode chunk, unsorted
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(20)]
    sentences = []
    for n in rng.integers(1, 30, size=DECODE_CHUNK + 13):
        tokens = [str(w) for w in rng.choice(words, size=n)]
        sentences.append(TaggedSentence(app_id="d", tokens=tokens,
                                        tags=["O"] * len(tokens)))
    vocab = build_vocabulary(s.tokens for s in sentences[::2])  # some OOV
    params = init_model(len(vocab), ModelDims(embedding_dim=8, h_enc=4,
                                              d_att=6, h_dec=5, d_tag=3),
                        np.random.default_rng(12))
    seen = []

    def capture(pairs, overlap=False):
        pairs = list(pairs)
        seen.append(pairs)
        return evaluate_tag_pairs(pairs, overlap=overlap)

    monkeypatch.setattr(evaluation, "evaluate_tag_pairs", capture)
    blocks = evaluate_domain(params, vocab, sentences)
    preds = [predict_tags(params, [encode_tokens(s.tokens, vocab)])[0]
             for s in sentences]
    golds = [s.tag_indices() for s in sentences]
    # one decode, scored exact and by overlap
    assert seen == [list(zip(preds, golds))] * 2
    assert blocks == {"exact": evaluate_tag_pairs(zip(preds, golds)),
                      "overlap": evaluate_tag_pairs(zip(preds, golds),
                                                    overlap=True)}


def _reports():
    return {
        "ebay": [{"seed": 0, "precision": 0.5, "recall": 1.0, "f1": 2 / 3}],
        "spotify": [{"seed": 0, "precision": 1.0, "recall": 0.5, "f1": 2 / 3}],
    }


class TestRenderReport:
    def test_mean_row(self):
        doc, text = render_report(_reports())
        assert doc["mean"]["precision"] == pytest.approx(0.75, abs=1e-12)
        assert doc["mean"]["f1"] == pytest.approx(2 / 3, abs=1e-12)
        assert "MEAN" in text

    def test_without_baselines_single_column_set(self):
        doc, text = render_report(_reports())
        assert text.splitlines()[0].split() == ["domain", "precision",
                                                "recall", "f1"]
        assert "baselines" not in doc["folds"][0]


def test_load_baselines_mismatch(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"ebay": {"f1": 0.4}, "bogus": {"f1": 0.1}}),
                    encoding="utf-8")
    with pytest.raises(DataError, match="bogus"):
        load_baselines(path, ["ebay", "spotify"])
    path2 = tmp_path / "ok.json"
    path2.write_text(json.dumps({"ebay": {"f1": 0.4}}), encoding="utf-8")
    assert load_baselines(path2, ["ebay"]) == {"ebay": {"f1": 0.4}}


@pytest.mark.parametrize("table, problem", [
    (5, "JSON object"),
    (None, "JSON object"),
    (["ebay"], "JSON object"),
    ({"ebay": 3}, "'ebay' must be an object"),
    ({"ebay": {"precision": 0.5}}, "with an f1"),
    ({"ebay": {"f1": "high"}}, "f1 must be a number"),
    ({"ebay": {"f1": True}}, "f1 must be a number"),
    ({"ebay": {"f1": 0.4, "precision": "0.5"}}, "precision must be a number"),
    ({"ebay": {"f1": 0.4, "recall": None}}, "recall must be a number"),
    # json writes and reads these, though JSON has no such numbers
    ({"ebay": {"f1": float("nan")}}, "'ebay': f1 must be a number, got nan"),
    ({"ebay": {"f1": 0.4, "precision": float("inf")}},
     "'ebay': precision must be a number, got inf"),
    ({"ebay": {"f1": 0.4, "recall": -float("inf")}},
     "'ebay': recall must be a number, got -inf"),
    ({"ebay": {"f1": 0.4, "recal": 0.9, "F1": 7}},
     re.escape("'ebay': unknown score keys: ['F1', 'recal']")),
])
def test_load_baselines_shape(tmp_path, table, problem):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    with pytest.raises(DataError, match=problem):
        load_baselines(path, ["ebay"])


def test_load_baselines_byte_order_mark(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"ebay": {"f1": 0.4}}), encoding="utf-8-sig")
    assert load_baselines(path, ["ebay"]) == {"ebay": {"f1": 0.4}}
