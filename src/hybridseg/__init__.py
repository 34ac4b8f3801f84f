"""Hybrid per-pixel anomaly scoring and open-set evaluation, desk scale."""

__version__ = "0.1.0"

from .labels import IGNORE_LABEL, PixelRole
from .scoring import log_sum_exp

__all__ = [
    "IGNORE_LABEL",
    "PixelRole",
    "log_sum_exp",
]
