"""Numeric helpers on float64 arrays: sigmoid, softmax, logsumexp.

All numeric state in this package is a 2-D (or 1-D for vectors) float64
numpy array; the helpers here add a clipped sigmoid, a row-wise
softmax, a stable logsumexp and the error types the layer code raises.
"""

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


def sigmoid(x):
    # the lower clip keeps exp() finite; above 500, 1 + exp(-x) is 1.0 anyway
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -500.0)))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along axis of a finite array."""
    m = np.max(x, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(x - m), axis=axis)) + np.squeeze(m, axis=axis)
