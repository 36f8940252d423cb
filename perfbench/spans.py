"""Span tracing around the program's layer boundaries, from outside it.

``Tracer.install`` replaces each boundary function on its module with a
wrapper that records one span per call: id, parent id, boundary, start
and end. It also rebinds every ``reqtag`` module attribute that holds
the same function object, so names imported with ``from .lstm import
lstm_step`` (in ``network``) or ``from .network import predict_tags``
(in ``cli``) are traced as well. Spans live in flat arrays in memory and
are written to one ``.npz`` file when the run ends.

A boundary whose attribute no longer exists is an error, never a zero:
a renamed layer has to be renamed here too.
"""

import importlib
import sys
import time
from array import array

import numpy as np

# (reported name, module, attribute). The reported name drops the leading
# underscore of private layer functions.
BOUNDARIES = [
    ("data.load_corpus", "data", "load_corpus"),
    ("data.clean_tokens", "data", "clean_tokens"),
    ("embeddings.build_vocabulary", "embeddings", "build_vocabulary"),
    ("embeddings.encode_tokens", "embeddings", "encode_tokens"),
    ("lstm.lstm_step", "lstm", "lstm_step"),
    ("lstm.lstm_step_backward", "lstm", "lstm_step_backward"),
    ("network.zero_grad_blocks", "network", "zero_grad_blocks"),
    ("network.encode", "network", "_encode"),
    ("network.encode_backward", "network", "_encode_backward"),
    ("network.attend", "network", "_attend"),
    ("network.attend_backward", "network", "_attend_backward"),
    ("network.decode_training", "network", "_decode_training"),
    ("network.decode_inference", "network", "_decode_inference"),
    ("network.decode_backward", "network", "_decode_backward"),
    ("network.predict_tags", "network", "predict_tags"),
    ("network.save_checkpoint", "network", "save_checkpoint"),
    ("network.load_checkpoint", "network", "load_checkpoint"),
    ("crf.crf_nll_backward", "crf", "crf_nll_backward"),
    ("crf.crf_viterbi", "crf", "crf_viterbi"),
    ("training.train", "training", "train"),
    ("training.pad_batch", "training", "pad_batch"),
    ("training.clip_gradients", "training", "clip_gradients"),
    ("training.adam_step", "training", "adam_step"),
    ("training.run_fold", "training", "run_fold"),
    ("evaluation.evaluate_domain", "evaluation", "evaluate_domain"),
    ("evaluation.extract_spans", "evaluation", "extract_spans"),
]
BOUNDARY_NAMES = [b[0] for b in BOUNDARIES]
MODULES = ["data", "embeddings", "lstm", "network", "crf", "training",
           "evaluation", "cli"]
NO_PARENT = -1
# exit code of a traced child whose boundary list no longer fits the program
MISSING_BOUNDARY_EXIT = 3


class MissingBoundary(RuntimeError):
    pass


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        # padded / total positions over every pad_batch call
        self.pad_positions = [0, 0]
        self._stack = [NO_PARENT]

    def _wrap(self, idx, fn):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name)
            name.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
        return traced

    def _wrap_pad_batch(self, idx, fn):
        inner = self._wrap(idx, fn)
        counts = self.pad_positions

        def traced(*args, **kwargs):
            indices, tags, lengths = out = inner(*args, **kwargs)
            counts[0] += indices.size - sum(lengths)
            counts[1] += indices.size
            return out
        return traced

    def install(self):
        """Wrap every boundary; raise MissingBoundary if one is gone."""
        mods = {m: importlib.import_module(f"reqtag.{m}") for m in MODULES}
        for idx, (name, mod, attr) in enumerate(BOUNDARIES):
            fn = getattr(mods[mod], attr, None)
            if not callable(fn):
                raise MissingBoundary(
                    f"boundary {name}: reqtag.{mod} has no function {attr!r}")
            wrap = self._wrap_pad_batch if name == "training.pad_batch" \
                else self._wrap
            traced = wrap(idx, fn)
            for modname, module in list(sys.modules.items()):
                if modname == "reqtag" or modname.startswith("reqtag."):
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, traced)

    def save(self, path):
        np.savez(path, name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 pad_positions=np.array(self.pad_positions, dtype=np.int64),
                 boundaries=np.array(BOUNDARY_NAMES))


def summarize(path):
    """Per-boundary calls, busy ms and self ms from a saved span file.

    Self time is a span's duration minus the durations of its direct
    child spans. Also returns the sum of self time over the subtree of
    every ``training.train`` span, which must equal their busy time.
    """
    with np.load(path) as z:
        names = z["boundaries"].tolist()
        if names != BOUNDARY_NAMES:
            raise ValueError(f"{path}: span file lists other boundaries")
        name, parent = z["name"].astype(np.int64), z["parent"]
        dur = (z["end"] - z["start"]) * 1e3
        pad = z["pad_positions"].tolist()
    n = len(name)
    has_parent = parent >= 0
    child_ms = np.bincount(parent[has_parent], weights=dur[has_parent],
                           minlength=n)
    self_ms = dur - child_ms
    out = {}
    k = len(BOUNDARY_NAMES)
    calls = np.bincount(name, minlength=k)
    busy = np.bincount(name, weights=dur, minlength=k)
    selfs = np.bincount(name, weights=self_ms, minlength=k)
    for i, b in enumerate(BOUNDARY_NAMES):
        out[f"{b}.calls"] = int(calls[i])
        out[f"{b}.busy_ms"] = float(busy[i])
        out[f"{b}.self_ms"] = float(selfs[i])

    # a span lies in a train tree if it or an ancestor is a train span;
    # parents always precede their children in the arrays
    train = BOUNDARY_NAMES.index("training.train")
    in_train = (name == train).tolist()
    for sid, p in enumerate(parent.tolist()):
        if p >= 0 and in_train[p]:
            in_train[sid] = True
    train_tree_self_ms = float(self_ms[np.array(in_train, dtype=bool)].sum())
    return out, {"spans": n, "pad_positions": pad,
                 "train_busy_ms": float(busy[train]),
                 "train_tree_self_ms": train_tree_self_ms}
