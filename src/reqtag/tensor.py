"""Numeric helpers on float64 arrays: activations, softmax, logsumexp.

All numeric state in this package is a 2-D (or 1-D for vectors) float64
numpy array; the helpers here add the masked softmax, a stable
logsumexp and the error types the layer code raises.
"""

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class DegenerateMaskError(ValueError):
    """A softmax row has no unmasked position."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


def sigmoid(x):
    # clip keeps exp() finite; sigmoid saturates well before +-500 anyway
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def tanh(x):
    return np.tanh(x)


def softmax_rows(x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max-subtraction; masked entries come out 0.

    mask, when given, is a boolean array of x's shape with True marking
    positions that participate.
    """
    x = np.asarray(x, dtype=np.float64)
    if mask is None:
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise ShapeError(f"mask shape {mask.shape} != input shape {x.shape}")
    if not mask.any(axis=-1).all():
        raise DegenerateMaskError("softmax row with every position masked")
    neg = np.where(mask, x, -np.inf)
    shifted = neg - neg.max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(shifted), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def logsumexp(x: np.ndarray, axis=None):
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    return float(out.reshape(())) if axis is None else np.squeeze(out, axis=axis)
