"""Hybrid per-pixel anomaly scoring and open-set evaluation, desk scale."""

__version__ = "0.1.0"

from .labels import IGNORE_LABEL, PixelRole, outlier_label
from .scoring import log_sum_exp, unnormalized_log_likelihood

__all__ = [
    "IGNORE_LABEL",
    "PixelRole",
    "outlier_label",
    "log_sum_exp",
    "unnormalized_log_likelihood",
]
