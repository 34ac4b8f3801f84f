"""Per-image anomaly scoring from a trained model.

Three score variants are exported, all in the convention "higher = more
anomalous":

* ``generative``      -ln p_hat(x), the negative unnormalized log-likelihood
* ``discriminative``  ln(1 - P(d_in | x)) = -softplus(z) of the dataset
  head's logit z, where P(d_in | x) = sigmoid(z)
* ``hybrid``          their sum, the log-ratio the method thresholds

Keeping one sign convention means the hybrid map equals the other two added
together, exactly, in the float32 maps and the rasters written from them;
downstream tools can verify that offline. This module is the one
place the three scores are defined. The closed-set prediction is the argmax
of the logits: the softmax is monotone, so it is never built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import log1p_exp
from .network import ModelParams, forward
from .scoring import log_sum_exp

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
    """Score one (3, H, W) image (or (C, H, W) matching the model config), in
    float32, the rasters' dtype; ``hybrid`` is the float32 sum of its parts."""
    maps = forward(params, np.asarray(image, dtype=np.float32)[None], training=False)
    logits = maps.logits[0]
    generative = -log_sum_exp(logits, axis=0)
    discriminative = -log1p_exp(maps.dataset_logit[0, 0])
    return ScoreBundle(
        argmax=logits.argmax(axis=0),
        hybrid=generative + discriminative,
        generative=generative,
        discriminative=discriminative,
    )
