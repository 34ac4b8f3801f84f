"""Numeric kernels for hybrid anomaly scoring.

A dense classifier's raw logits double as an unnormalized joint log-density:
the per-pixel log-sum-exp of the logits is an unnormalized data
log-likelihood. The (intractable) normalizer only shifts it by a constant,
so rankings are unaffected and it is never computed. The score definitions
built on it live in ``inference``.

All kernels are pure functions over float64 arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

# Dataset posterior values are clamped away from exact 0/1 so that logs of
# either side stay finite.
POSTERIOR_EPS = 1e-7


def log_sum_exp(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log(sum(exp(values))) along ``axis``.

    Computed as max + log(sum(exp(values - max))), which is exactly shift
    invariant and never overflows for finite input.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 0 or v.shape[axis] == 0:
        raise ContractViolation("log_sum_exp needs at least one element along axis")
    m = np.max(v, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(v - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def unnormalized_log_likelihood(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Per-pixel unnormalized data log-likelihood: log-sum-exp of the logits."""
    return log_sum_exp(logits, axis=axis)
