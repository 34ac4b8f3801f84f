"""Fully convolutional segmentation model with two anomaly heads.

The backbone is a stack of same-padded conv / batch-norm / relu stages that
never changes spatial resolution, so every prediction lives at input
resolution. The backbone convs have no bias: the batch-norm after each one
subtracts the channel mean and would cancel it. Pre-logit features feed two
outputs: a 1x1 projection to K class logits, and a norm-relu-1x1 head whose
logit z gives the per-pixel probability sigmoid(z) that the pixel is an
inlier. Final projections start at zero so an untrained model predicts
uniform class posteriors and a dataset posterior of 0.5 everywhere.

Checkpoints (format v2) are magic ``DHCK``, the version, the optimizer step,
the JSON network config, then the arrays of ``ModelParams.named_arrays`` as
little-endian float64; round-trips are bit exact. Version 1 files also held
the batch-norm momentum and eps and a bias per stage; loading folds each
bias into its stage's running mean, giving the same outputs up to rounding.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation, DataFormatError, NumericFailure
from .labels import IGNORE_LABEL

CHECKPOINT_MAGIC = b"DHCK"
CHECKPOINT_VERSION = 2
# the only values v1 may declare: the batch-norm constants of autodiff
V1_BATCH_NORM = {"bn_momentum": ad.BN_MOMENTUM, "bn_eps": ad.BN_EPS}


@dataclass(frozen=True)
class NetworkConfig:
    input_channels: int
    widths: tuple[int, ...]
    num_classes: int
    kernel_size: int = 3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(self.widths))
        ints = (self.input_channels, self.num_classes, self.kernel_size, self.seed,
                *self.widths)
        if any(isinstance(v, bool) or not isinstance(v, int) for v in ints):
            raise ContractViolation("network config values must be integers")
        if self.input_channels < 1:
            raise ContractViolation("input_channels must be >= 1")
        if not 2 <= self.num_classes < IGNORE_LABEL:
            # the outlier label K must fit a u8 raster below IGNORE_LABEL
            raise ContractViolation(f"num_classes must be in 2..{IGNORE_LABEL - 1}")
        if not self.widths or any(w < 1 for w in self.widths):
            raise ContractViolation("stage widths must all be >= 1")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ContractViolation("kernel_size must be odd")
        if self.seed < 0:
            raise ContractViolation("seed must be >= 0")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


@dataclass
class ConvStage:
    w: ad.Tensor
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

    def _layout(self) -> list[tuple[str, ad.Tensor | np.ndarray]]:
        """Every persistent tensor and buffer in declaration order: the
        stages' fields, then the head fields after ``stages``."""
        out = [(f"stage{i}.{f.name}", getattr(st, f.name))
               for i, st in enumerate(self.stages) for f in fields(st)]
        heads = [f.name for f in fields(self)][2:]
        return out + [(name.replace("_", ".", 1), getattr(self, name)) for name in heads]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every persistent array in checkpoint order."""
        return [(name, a.value if isinstance(a, ad.Tensor) else a)
                for name, a in self._layout()]

    def trainable(self) -> list[tuple[str, ad.Tensor]]:
        return [(name, a) for name, a in self._layout() if isinstance(a, ad.Tensor)]

    def copy(self) -> "ModelParams":
        return _assemble(self.config, dict(self.named_arrays()))


def param_shapes(config: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every persistent array in checkpoint order, the one
    statement of the layout that ``init_params`` fills and that
    ``load_checkpoint`` checks a file's size against."""
    k, c, n = config.kernel_size, config.input_channels, config.num_classes
    shapes = []
    for i, width in enumerate(config.widths):
        shapes += [(f"stage{i}.w", (width, c, k, k))] + [
            (f"stage{i}.{f}", (width,)) for f in ("gamma", "beta", "run_mean", "run_var")]
        c = width
    return shapes + [("cls.w", (n, c, 1, 1)), ("cls.b", (n,))] + [
        (f"ood.{f}", (c,)) for f in ("gamma", "beta", "run_mean", "run_var")] + [
        ("ood.w", (1, c, 1, 1)), ("ood.b", (1,))]


def _assemble(config: NetworkConfig, arrays: dict[str, np.ndarray]) -> ModelParams:
    """A model holding copies of ``arrays`` (keyed as ``param_shapes``); the
    running statistics stay arrays, everything else becomes a parameter."""
    def take(name):
        a = arrays[name]
        return np.array(a, dtype=np.float64) if ".run_" in name else ad.parameter(a)
    stages = [ConvStage(**{f.name: take(f"stage{i}.{f.name}") for f in fields(ConvStage)})
              for i in range(len(config.widths))]
    heads = {f.name: take(f.name.replace("_", ".", 1)) for f in fields(ModelParams)[2:]}
    return ModelParams(config, stages, **heads)


def init_params(config: NetworkConfig) -> ModelParams:
    """Fan-in scaled uniform init for the backbone; zero init for both heads."""
    rng = np.random.default_rng(config.seed)
    arrays = {}
    for name, shape in param_shapes(config):
        if name.startswith("stage") and name.endswith(".w"):
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))
            arrays[name] = rng.uniform(-bound, bound, size=shape)
        else:
            arrays[name] = (np.ones if name.endswith(("gamma", "run_var")) else np.zeros)(shape)
    return _assemble(config, arrays)


@dataclass
class ForwardMaps:
    """Outputs of one forward pass at input resolution; arrays in eval mode."""
    logits: ad.Tensor | np.ndarray         # (N, K, H, W)
    dataset_logit: ad.Tensor | np.ndarray  # (N, 1, H, W), z of P(d_in | x) = sigmoid(z)


def forward(params: ModelParams, image: np.ndarray, training: bool = False) -> ForwardMaps:
    """Run the model; raises NumericFailure if any output is non-finite. Eval
    mode runs ``ad``'s array kernels in the input's float dtype (else float64)
    with no graph, each stage's ``ad.batch_norm_affine`` folded into its conv:
    weights ``w * scale`` and bias ``shift``."""
    x = np.asarray(image)
    c = params.config.input_channels
    if x.ndim != 4 or x.shape[1] != c:
        raise ContractViolation(f"expected (N,{c},H,W) input, got {x.shape}")
    if training:
        t = ad.constant(x)
        for st in params.stages:
            t = ad.relu(ad.batch_norm(ad.conv2d(t, st.w), st.gamma, st.beta, st.run_mean,
                                      st.run_var, training=True))
        logits = ad.conv2d(t, params.cls_w, params.cls_b)
        h = ad.relu(ad.batch_norm(t, params.ood_gamma, params.ood_beta, params.ood_run_mean,
                                  params.ood_run_var, training=True))
        z = ad.conv2d(h, params.ood_w, params.ood_b)
        outputs = t.value, logits.value, z.value
    else:
        t = x.astype(np.result_type(x, 0.0), copy=False)
        for st in params.stages:
            scale, shift = ad.batch_norm_affine(st.gamma.value, st.beta.value,
                                                st.run_mean, st.run_var)
            t = np.maximum(ad.correlate(t, st.w.value * scale[:, None, None, None], shift), 0.0)
        logits = ad.correlate(t, params.cls_w.value, params.cls_b.value)
        scale, shift = ad.batch_norm_affine(params.ood_gamma.value, params.ood_beta.value,
                                            params.ood_run_mean, params.ood_run_var)
        h = np.maximum(t * scale.astype(t.dtype)[:, None, None]
                       + shift.astype(t.dtype)[:, None, None], 0.0)
        z = ad.correlate(h, params.ood_w.value, params.ood_b.value)
        outputs = t, logits, z
    for name, v in zip(("pre-logits", "logits", "dataset logit"), outputs):
        if not np.all(np.isfinite(v)):
            raise NumericFailure(f"non-finite {name} in forward pass")
    return ForwardMaps(logits=logits, dataset_logit=z)


def save_checkpoint(path, params: ModelParams, step: int = 0) -> None:
    cfg_blob = params.config.to_json().encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack("<IQI", CHECKPOINT_VERSION, step, len(cfg_blob))
                + cfg_blob)
        for _, arr in params.named_arrays():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(f, size: int, path, what: str) -> bytes:
    raw = f.read(size)
    if len(raw) != size:
        raise DataFormatError(f"{path}: truncated checkpoint at {what}")
    return raw


def _read_config(blob: bytes, version: int, path) -> NetworkConfig:
    try:
        d = json.loads(blob.decode("utf-8"))
        if not isinstance(d, dict):
            raise TypeError("config is not a JSON object")
        if version == 1:
            declared = {k: d.pop(k, v) for k, v in V1_BATCH_NORM.items()}
            if declared != V1_BATCH_NORM:
                raise ValueError(f"batch-norm settings {declared} != {V1_BATCH_NORM}")
        return NetworkConfig(**d)
    except (ValueError, TypeError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint config: {exc!r}") from exc


def _read_array(f, shape, path, name: str) -> np.ndarray:
    raw = _read_exact(f, int(np.prod(shape)) * 8, path, name)
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def load_checkpoint(path) -> tuple[ModelParams, int]:
    """Read a v2 checkpoint, or a v1 one with its stage biases folded away.
    The file's size is checked against its config before any array is
    allocated, so a config that declares huge widths is a format error."""
    with open(path, "rb") as f:
        if f.read(4) != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: bad checkpoint magic")
        version, = struct.unpack("<I", _read_exact(f, 4, path, "version"))
        if version not in (1, CHECKPOINT_VERSION):
            raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
        step, = struct.unpack("<Q", _read_exact(f, 8, path, "step"))
        cfg_len, = struct.unpack("<I", _read_exact(f, 4, path, "config length"))
        config = _read_config(_read_exact(f, cfg_len, path, "config"), version, path)
        layout = []
        for name, shape in param_shapes(config):
            layout.append((name, shape))
            if version == 1 and name.startswith("stage") and name.endswith(".w"):
                layout.append((name[:-1] + "b", shape[:1]))  # v1's conv bias
        left = os.fstat(f.fileno()).st_size - f.tell()
        for name, shape in layout:
            left -= 8 * math.prod(shape)
            if left < 0:
                raise DataFormatError(f"{path}: truncated checkpoint at {name}")
        if left:
            raise DataFormatError(f"{path}: trailing bytes after parameters")
        arrays = {name: _read_array(f, shape, path, name) for name, shape in layout}
    params = _assemble(config, arrays)
    if version == 1:
        for i, st in enumerate(params.stages):
            st.run_mean -= arrays[f"stage{i}.b"]  # batch-norm subtracts the bias with the mean
    return params, step
