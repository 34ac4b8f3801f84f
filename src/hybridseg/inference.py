"""Per-image anomaly scoring from a trained model.

Three score variants are exported, all in the convention "higher = more
anomalous":

* ``generative``      -ln p_hat(x), the negative unnormalized log-likelihood
* ``discriminative``  ln(1 - P(d_in | x)) from the dataset-posterior head
* ``hybrid``          their sum, the log-ratio the method thresholds

Keeping one sign convention means the hybrid map equals the other two added
together, which downstream tools can verify offline. This module is the one
place the three scores are defined. The closed-set prediction is the argmax
of the logits: the softmax is monotone, so it is never built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ModelParams, forward
from .scoring import unnormalized_log_likelihood

SCORE_VARIANTS = ("hybrid", "generative", "discriminative")


@dataclass(frozen=True)
class ScoreBundle:
    """All maps derived from one image, spatial dims (H, W)."""

    argmax: np.ndarray  # (H, W) int, closed-set prediction
    hybrid: np.ndarray
    generative: np.ndarray
    discriminative: np.ndarray

    def variant(self, name: str) -> np.ndarray:
        if name not in SCORE_VARIANTS:
            raise KeyError(f"unknown score variant {name!r}")
        return getattr(self, name)


def score_image(params: ModelParams, image: np.ndarray) -> ScoreBundle:
    """Score one (3, H, W) image (or (C, H, W) matching the model config)."""
    maps = forward(params, np.asarray(image)[None], training=False)
    logits = maps.logits.value[0]
    din = maps.dataset_posterior.value[0, 0]  # forward clamps it into (0, 1)
    log_like = unnormalized_log_likelihood(logits, axis=0)
    discriminative = np.log1p(-din)
    return ScoreBundle(
        argmax=logits.argmax(axis=0),
        hybrid=discriminative - log_like,
        generative=-log_like,
        discriminative=discriminative,
    )
