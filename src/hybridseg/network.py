"""Fully convolutional segmentation model with two anomaly heads.

The backbone is a stack of same-padded conv / batch-norm / relu stages that
never changes spatial resolution, so every prediction lives at input
resolution. Pre-logit features feed three outputs: a 1x1 projection to K
class logits, and a norm-relu-1x1-sigmoid head estimating the per-pixel
probability that the pixel is an inlier. Final projections start at zero so
an untrained model predicts uniform class posteriors and a dataset posterior
of 0.5 everywhere.

Checkpoints are a versioned binary format: magic ``DHCK``, a format version,
the optimizer step count, the JSON-encoded network config, then every
parameter array (including batch-norm running statistics) as little-endian
float64 in declaration order. Round-trips are bit exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation, DataFormatError, NumericFailure
from .scoring import POSTERIOR_EPS

CHECKPOINT_MAGIC = b"DHCK"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class NetworkConfig:
    input_channels: int
    widths: tuple[int, ...]
    num_classes: int
    kernel_size: int = 3
    seed: int = 0
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def __post_init__(self):
        if self.input_channels < 1:
            raise ContractViolation("input_channels must be >= 1")
        if self.num_classes < 2:
            raise ContractViolation("num_classes must be >= 2")
        if not self.widths or any(w < 1 for w in self.widths):
            raise ContractViolation("stage widths must all be >= 1")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ContractViolation("kernel_size must be odd")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    def to_json(self) -> str:
        d = {
            "input_channels": self.input_channels,
            "widths": list(self.widths),
            "num_classes": self.num_classes,
            "kernel_size": self.kernel_size,
            "seed": self.seed,
            "bn_momentum": self.bn_momentum,
            "bn_eps": self.bn_eps,
        }
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(s: str) -> "NetworkConfig":
        d = json.loads(s)
        d["widths"] = tuple(d["widths"])
        return NetworkConfig(**d)


@dataclass
class ConvStage:
    w: ad.Tensor
    b: ad.Tensor
    gamma: ad.Tensor
    beta: ad.Tensor
    run_mean: np.ndarray
    run_var: np.ndarray


@dataclass
class ModelParams:
    """All learnable state: backbone stages, classifier head, posterior head."""

    config: NetworkConfig
    stages: list[ConvStage] = field(default_factory=list)
    cls_w: ad.Tensor = None
    cls_b: ad.Tensor = None
    ood_gamma: ad.Tensor = None
    ood_beta: ad.Tensor = None
    ood_run_mean: np.ndarray = None
    ood_run_var: np.ndarray = None
    ood_w: ad.Tensor = None
    ood_b: ad.Tensor = None

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every persistent array in fixed declaration order (checkpoint layout)."""
        out = []
        for i, st in enumerate(self.stages):
            out += [
                (f"stage{i}.w", st.w.value), (f"stage{i}.b", st.b.value),
                (f"stage{i}.gamma", st.gamma.value), (f"stage{i}.beta", st.beta.value),
                (f"stage{i}.run_mean", st.run_mean), (f"stage{i}.run_var", st.run_var),
            ]
        out += [
            ("cls.w", self.cls_w.value), ("cls.b", self.cls_b.value),
            ("ood.gamma", self.ood_gamma.value), ("ood.beta", self.ood_beta.value),
            ("ood.run_mean", self.ood_run_mean), ("ood.run_var", self.ood_run_var),
            ("ood.w", self.ood_w.value), ("ood.b", self.ood_b.value),
        ]
        return out

    def trainable(self) -> list[tuple[str, ad.Tensor]]:
        out = []
        for i, st in enumerate(self.stages):
            out += [(f"stage{i}.w", st.w), (f"stage{i}.b", st.b),
                    (f"stage{i}.gamma", st.gamma), (f"stage{i}.beta", st.beta)]
        out += [("cls.w", self.cls_w), ("cls.b", self.cls_b),
                ("ood.gamma", self.ood_gamma), ("ood.beta", self.ood_beta),
                ("ood.w", self.ood_w), ("ood.b", self.ood_b)]
        return out

    def zero_grad(self) -> None:
        for _, t in self.trainable():
            t.grad = None

    def copy(self) -> "ModelParams":
        other = init_params(self.config)
        for (_, dst), (_, src) in zip(other.named_arrays(), self.named_arrays()):
            dst[...] = src
        return other


def init_params(config: NetworkConfig) -> ModelParams:
    """Fan-in scaled uniform init for the backbone; zero init for both heads."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config=config)
    c_in = config.input_channels
    k = config.kernel_size
    for width in config.widths:
        fan_in = c_in * k * k
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(width, c_in, k, k))
        params.stages.append(ConvStage(
            w=ad.parameter(w),
            b=ad.parameter(np.zeros(width)),
            gamma=ad.parameter(np.ones(width)),
            beta=ad.parameter(np.zeros(width)),
            run_mean=np.zeros(width),
            run_var=np.ones(width),
        ))
        c_in = width
    f = config.widths[-1]
    params.cls_w = ad.parameter(np.zeros((config.num_classes, f, 1, 1)))
    params.cls_b = ad.parameter(np.zeros(config.num_classes))
    params.ood_gamma = ad.parameter(np.ones(f))
    params.ood_beta = ad.parameter(np.zeros(f))
    params.ood_run_mean = np.zeros(f)
    params.ood_run_var = np.ones(f)
    params.ood_w = ad.parameter(np.zeros((1, f, 1, 1)))
    params.ood_b = ad.parameter(np.zeros(1))
    return params


@dataclass
class ForwardMaps:
    """Outputs of one forward pass, all at input spatial resolution."""
    logits: ad.Tensor           # (N, K, H, W)
    dataset_posterior: ad.Tensor  # (N, 1, H, W), clamped into (0, 1)


def forward(params: ModelParams, image: np.ndarray | ad.Tensor,
            training: bool = False) -> ForwardMaps:
    """Run the model; raises NumericFailure if any output is non-finite."""
    cfg = params.config
    x = image if isinstance(image, ad.Tensor) else ad.constant(image)
    if x.value.ndim != 4 or x.value.shape[1] != cfg.input_channels:
        raise ContractViolation(
            f"expected (N,{cfg.input_channels},H,W) input, got {x.value.shape}")
    t = x
    for st in params.stages:
        t = ad.conv2d(t, st.w, st.b)
        t = ad.batch_norm(t, st.gamma, st.beta, st.run_mean, st.run_var,
                          training=training, momentum=cfg.bn_momentum, eps=cfg.bn_eps)
        t = ad.relu(t)
    logits = ad.conv2d(t, params.cls_w, params.cls_b)
    h = ad.batch_norm(t, params.ood_gamma, params.ood_beta, params.ood_run_mean,
                      params.ood_run_var, training=training,
                      momentum=cfg.bn_momentum, eps=cfg.bn_eps)
    h = ad.relu(h)
    din = ad.clip(ad.sigmoid(ad.conv2d(h, params.ood_w, params.ood_b)),
                  POSTERIOR_EPS, 1.0 - POSTERIOR_EPS)
    for name, v in (("pre-logits", t.value), ("logits", logits.value),
                    ("dataset posterior", din.value)):
        if not np.all(np.isfinite(v)):
            raise NumericFailure(f"non-finite {name} in forward pass")
    return ForwardMaps(logits=logits, dataset_posterior=din)


def save_checkpoint(path, params: ModelParams, step: int = 0) -> None:
    cfg_blob = params.config.to_json().encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", step))
        f.write(struct.pack("<I", len(cfg_blob)))
        f.write(cfg_blob)
        for _, arr in params.named_arrays():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(f, size: int, path, what: str) -> bytes:
    raw = f.read(size)
    if len(raw) != size:
        raise DataFormatError(f"{path}: truncated checkpoint at {what}")
    return raw


def load_checkpoint(path) -> tuple[ModelParams, int]:
    with open(path, "rb") as f:
        if f.read(4) != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: bad checkpoint magic")
        version, = struct.unpack("<I", _read_exact(f, 4, path, "version"))
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
        step, = struct.unpack("<Q", _read_exact(f, 8, path, "step"))
        cfg_len, = struct.unpack("<I", _read_exact(f, 4, path, "config length"))
        cfg_blob = _read_exact(f, cfg_len, path, "config")
        try:
            config = NetworkConfig.from_json(cfg_blob.decode("utf-8"))
        except (ValueError, KeyError, TypeError) as exc:
            raise DataFormatError(f"{path}: malformed checkpoint config: {exc!r}") from exc
        params = init_params(config)
        for name, arr in params.named_arrays():
            raw = _read_exact(f, arr.size * 8, path, name)
            arr[...] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape)
        if f.read(1):
            raise DataFormatError(f"{path}: trailing bytes after parameters")
    return params, step
