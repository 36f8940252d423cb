"""Numeric helpers on float64 arrays: sigmoid, softmax, logsumexp.

All numeric state in this package is a 2-D (or 1-D for vectors) float64
numpy array; the helpers here add a clipped sigmoid, a row-wise
softmax, a stable logsumexp, the step index of packed sequence batches
and the error types the layer code raises.
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


def previous_rows(sizes):
    """Step links of a packed sequence batch with sizes[t] rows at step t.

    The rows running at step t are the first sizes[t] rows of step t-1,
    so row p of step t >= 1 continues row p - sizes[t-1]. Returns that
    row for every row past step 0, an index array of length N - sizes[0].
    """
    sizes = np.asarray(sizes)
    return (np.arange(sizes[0], sizes.sum())
            - np.repeat(sizes[:-1], sizes[1:]))
