import importlib
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

# When a property test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching, which imports libcst where it is installed.
# Importing libcst raises a DeprecationWarning from its own dependencies,
# and the error::DeprecationWarning filter in pyproject.toml turns that
# into an INTERNALERROR that ends the run before its summary. Import the
# helper once here, ignoring only DeprecationWarning while it loads, so
# that a failing property test is reported like any other failure.
# Without libcst the helper cannot be imported, and nothing is needed.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass

from reqtag.data import Corpus, TaggedSentence
from reqtag.tensor import NumericError, ShapeError

FILLERS = ["i", "really", "love", "this", "app", "but", "it", "crash",
           "often", "please", "very", "nice"]
FEATURES = ["dark", "mode", "offline", "map", "voice", "note", "cloud",
            "sync", "photo", "filter"]


def make_synthetic_corpus(n_sentences=200, n_domains=3, seed=0) -> Corpus:
    """Sentences where the two tokens after 'add' are always a requirement."""
    rng = np.random.default_rng(seed)
    sentences = []
    for k in range(n_sentences):
        domain = f"dom{k % n_domains}"
        tokens = [str(t) for t in rng.choice(FILLERS, size=rng.integers(2, 5))]
        tags = ["O"] * len(tokens)
        if k % 4 != 0:
            a, b = rng.choice(FEATURES, size=2, replace=False)
            tokens += ["add", str(a), str(b)]
            tags += ["O", "B", "I"]
        tail = [str(t) for t in rng.choice(FILLERS, size=rng.integers(1, 3))]
        tokens += tail
        tags += ["O"] * len(tail)
        sentences.append(TaggedSentence(app_id=domain, tokens=tokens, tags=tags))
    return Corpus(sentences=sentences)


@pytest.fixture(scope="session")
def synthetic_corpus():
    return make_synthetic_corpus()


@dataclass
class GradCheckResult:
    max_relative_error: float
    worst_index: tuple
    passed: bool


def grad_check(loss_fn, param: np.ndarray, analytic_grad: np.ndarray,
               h: float = 1e-4, tol: float = 1e-4,
               skip: np.ndarray | None = None) -> GradCheckResult:
    """Central-difference check of an analytic gradient.

    loss_fn takes the parameter array and returns a scalar; param is
    perturbed in place and restored, one coordinate at a time. skip, a
    boolean array of param's shape, marks coordinates left unprobed.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if param.shape != analytic_grad.shape:
        raise ShapeError(
            f"grad shape {analytic_grad.shape} != param shape {param.shape}")
    if skip is not None and skip.shape != param.shape:
        raise ShapeError(f"skip shape {skip.shape} != param shape {param.shape}")
    worst = (0,) * param.ndim
    max_err = 0.0
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        if skip is not None and skip[idx]:
            continue
        orig = param[idx]
        param[idx] = orig + h
        lo_plus = loss_fn(param)
        param[idx] = orig - h
        lo_minus = loss_fn(param)
        param[idx] = orig
        if not (np.isfinite(lo_plus) and np.isfinite(lo_minus)):
            raise NumericError(f"non-finite loss while probing coordinate {idx}")
        fd = (lo_plus - lo_minus) / (2.0 * h)
        an = analytic_grad[idx]
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
        if err > max_err:
            max_err = err
            worst = idx
    return GradCheckResult(max_relative_error=max_err, worst_index=worst,
                           passed=max_err <= tol)
