"""Numerical kernels: softmax, logit averaging, argmax prediction, score margin.

Everything here is a pure function over 1-D vectors, computed in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class AveragedLogits:
    """Elementwise mean of one or more logit vectors plus the count that went in."""

    values: np.ndarray
    count: int


def softmax(logits) -> np.ndarray:
    """Map a logit vector to a probability vector.

    The maximum is subtracted before exponentiation, so arbitrarily large
    (finite) inputs do not overflow. Output sums to 1 within 1e-9.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size < 2:
        raise ValueError("softmax expects a 1-D vector with at least 2 entries")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input must be finite")
    e = np.exp(z - z.max())
    return e / e.sum()


def average_logits(vectors: Sequence) -> AveragedLogits:
    """Arithmetic mean of equally sized logit vectors."""
    if len(vectors) == 0:
        raise ValueError("cannot average an empty list of logit vectors")
    rows = [np.asarray(v, dtype=np.float64) for v in vectors]
    width = rows[0].size
    for i, row in enumerate(rows):
        if row.ndim != 1:
            raise ValueError(f"vector {i} is not 1-D")
        if row.size != width:
            raise ValueError(
                f"length mismatch: vector {i} has {row.size} entries, expected {width}"
            )
    # running mean: k copies of the same vector stay exactly that vector,
    # which a sum-then-divide can miss by an ulp
    mean = rows[0].copy()
    for count, row in enumerate(rows[1:], start=2):
        mean += (row - mean) / count
    return AveragedLogits(values=mean, count=len(rows))


def predict(probabilities) -> int:
    """Index of the largest entry; exact ties go to the lowest index."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("predict expects a non-empty 1-D vector")
    return int(np.argmax(p))


def score_margin(probabilities) -> float:
    """Difference between the largest and second-largest entries.

    The second-largest is drawn from the multiset with one occurrence of the
    maximum removed, so a duplicated maximum yields a margin of exactly 0.
    For softmax input the result lies in [0, 1]: a top-two logit gap beyond
    roughly 36 saturates float64 and rounds the margin to exactly 1.0, which
    is why the cascade treats a threshold of 1.0 as "never stop".
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("score margin needs at least 2 classes")
    top = np.partition(p, p.size - 2)
    return float(top[-1] - top[-2])
