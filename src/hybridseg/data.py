"""Synthetic benchmarks, the mixed-content training pipeline, the dataset directory.

Two data sources live here:

* a 2-D point benchmark with two inlier blobs, training negatives that
  deliberately cover only half of the directions around the data, and test
  anomalies that also appear in the uncovered half — built to expose
  detectors that overfit the training negatives;
* a procedural dense-scene benchmark: textured background plus a few
  textured shapes for K=3 inlier classes, with anomalous shapes (a texture
  family never seen in training) injected into val/test scenes, and a
  separate held-out texture family used as paste-in training negatives.

Every generator derives its randomness from an explicit seed (per-sample
streams come from ``SeedSequence([seed, ...indices])``), so datasets are
reproducible element by element and safe to generate in parallel.

``save_scenes`` writes a dataset directory (a PPM image and label, role and
distance PGMs per scene, listed in ``manifest.csv``); ``split_rows`` and
``load_scene`` are its one reader, and ``load_scene`` owns all its checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation, DataFormatError
from .labels import IGNORE_LABEL, PixelRole
from .rasters import (ManifestRow, read_manifest, read_pgm, read_ppm, write_manifest,
                      write_pgm, write_ppm)

# ---------------------------------------------------------------------------
# 2-D point benchmark


@dataclass(frozen=True)
class ToyPointSet:
    """Labeled 2-D points.

    ``class_labels`` holds the inlier class (0..TOY_CLASSES-1) where
    ``roles == INLIER`` and IGNORE_LABEL elsewhere. ``unseen`` marks test
    anomalies lying in the direction sector that training negatives never
    cover (plus the far cluster); it is all-False for train sets.
    """

    points: np.ndarray        # (N, 2) float64
    class_labels: np.ndarray  # (N,) int
    roles: np.ndarray         # (N,) PixelRole values
    unseen: np.ndarray        # (N,) bool

    def __post_init__(self):
        n = self.points.shape[0]
        if self.points.shape != (n, 2):
            raise ContractViolation("points must be (N, 2)")
        for name in ("class_labels", "roles", "unseen"):
            if getattr(self, name).shape != (n,):
                raise ContractViolation(f"{name} must be (N,)")


TOY_INLIER_MEANS = ((-2.0, 0.0), (2.0, 0.0))
TOY_CLASSES = len(TOY_INLIER_MEANS)  # one inlier class per blob
TOY_INLIER_SIGMA = 0.5
TOY_ANNULUS = (4.0, 5.0)
TOY_CLUSTER_CENTER = (0.0, -6.0)
TOY_CLUSTER_SIGMA = 0.3
TOY_CLUSTER_FRACTION = 0.25


def _annulus_points(rng: np.random.Generator, n: int, theta_lo: float,
                    theta_hi: float) -> np.ndarray:
    """Area-uniform points on an annulus sector."""
    r_lo, r_hi = TOY_ANNULUS
    theta = rng.uniform(theta_lo, theta_hi, size=n)
    r = np.sqrt(rng.uniform(r_lo**2, r_hi**2, size=n))
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def _blob(rng: np.random.Generator, n: int, mean, sigma: float) -> np.ndarray:
    return np.asarray(mean) + sigma * rng.standard_normal((n, 2))


def gen_toy2d(seed: int, n_per_role: int = 200) -> tuple[ToyPointSet, ToyPointSet]:
    """Build (train, test) point sets.

    Train: two Gaussian inlier blobs and negatives drawn only from the upper
    half-annulus (angles in [0, pi)). Test: fresh inlier draws plus anomalies
    from the full annulus and a far cluster below the data, so a detector
    that merely memorized the training negatives is blind to the lower half.
    """
    if n_per_role < 100:
        raise ContractViolation("n_per_role must be >= 100")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    n_in = TOY_CLASSES * n_per_role

    def inliers(r):
        pts = [_blob(r, n_per_role, m, TOY_INLIER_SIGMA) for m in TOY_INLIER_MEANS]
        labels = np.repeat(np.arange(TOY_CLASSES), n_per_role)
        return np.concatenate(pts), labels

    def point_set(points, labels, unseen):
        return ToyPointSet(
            points=points,
            class_labels=np.concatenate([labels, np.full(n_per_role, IGNORE_LABEL)]),
            roles=np.concatenate([np.zeros(n_in, dtype=np.uint8),
                                  np.full(n_per_role, PixelRole.OUTLIER, dtype=np.uint8)]),
            unseen=unseen)

    train_pts, train_labels = inliers(rng)
    negatives = _annulus_points(rng, n_per_role, 0.0, np.pi)
    train = point_set(np.concatenate([train_pts, negatives]), train_labels,
                      np.zeros(n_in + n_per_role, dtype=bool))

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    test_pts, test_labels = inliers(rng)
    n_cluster = int(round(TOY_CLUSTER_FRACTION * n_per_role))
    ring = _annulus_points(rng, n_per_role - n_cluster, 0.0, 2.0 * np.pi)
    cluster = _blob(rng, n_cluster, TOY_CLUSTER_CENTER, TOY_CLUSTER_SIGMA)
    ring_unseen = np.arctan2(ring[:, 1], ring[:, 0]) < 0.0  # lower half-plane
    test = point_set(np.concatenate([test_pts, ring, cluster]), test_labels,
                     np.concatenate([np.zeros(n_in, dtype=bool), ring_unseen,
                                     np.ones(n_cluster, dtype=bool)]))
    return train, test


def as_grid(points: np.ndarray) -> np.ndarray:
    """Pack (N, 2) points into a (1, 2, N, 1) pseudo-image.

    1x1 convolutions over this grid act as a plain MLP per point, which lets
    the point benchmark reuse the dense training stack unchanged.
    """
    points = np.asarray(points, dtype=float)
    return points.T[None, :, :, None]


# ---------------------------------------------------------------------------
# Procedural textures


@dataclass(frozen=True)
class TextureSpec:
    """Low-frequency value noise around a family-specific mean color."""

    mean_rgb: tuple[float, float, float]
    amplitude: float
    cells: int  # noise lattice resolution; higher = finer grain


# Families are kept apart by their noise frequency (`cells`): inlier classes
# use fixed specs with {2, 6, 12}, training negatives draw from the coarse
# NEGATIVE_CELLS band, and test anomalies from the fine ANOMALY_CELLS band —
# so the negatives never show the anomaly texture, mirroring protocols whose
# auxiliary negatives come from a different source than the evaluated
# anomalies. Both held-out families draw a random mean color per instance:
# diversity is what forces the heads to learn "unusual texture" rather than
# one color, and anomalies whose color drifts near an inlier class are
# exactly the hard cases the density term has to catch.
TEXTURES: dict[str, TextureSpec] = {
    "class0": TextureSpec((0.35, 0.45, 0.35), 0.08, 2),
    "class1": TextureSpec((0.70, 0.30, 0.25), 0.10, 6),
    "class2": TextureSpec((0.25, 0.35, 0.70), 0.10, 12),
}
INLIER_TEXTURES = ("class0", "class1", "class2")
NEGATIVE_CELLS = (4, 5)    # inclusive, coarser than any inlier class
ANOMALY_CELLS = (26, 30)   # inclusive, finer than any inlier class
HELD_OUT_COLOR_RANGE = (0.15, 0.85)  # per-channel bounds for random means


def _held_out_spec(rng: np.random.Generator, cells_band: tuple[int, int]) -> TextureSpec:
    color = tuple(rng.uniform(*HELD_OUT_COLOR_RANGE, size=3))
    return TextureSpec(color, 0.12, int(rng.integers(cells_band[0], cells_band[1] + 1)))


def _source_rows(n: int, out: int) -> np.ndarray:
    """Unclipped half-pixel-centered source positions of `out` samples over `n`."""
    return (np.arange(out) + 0.5) * n / out - 0.5


def _sample_bilinear(image: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(C, len(ys), len(xs)) bilinear samples of (C, H, W) at clipped source
    positions: each source row is interpolated along x once, then rows blend."""
    _, h, w = image.shape
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = xs - x0
    # take(), unlike fancy indexing on an inner axis, keeps the result C-ordered
    along_x = image.take(x0, axis=2) * (1 - wx) + image.take(x1, axis=2) * wx
    return along_x.take(y0, axis=1) * (1 - wy) + along_x.take(y1, axis=1) * wy


def _sample_nearest(raster: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(len(ys), len(xs)) nearest-neighbor samples of (H, W) at source positions."""
    h, w = raster.shape
    ys = np.clip(np.round(ys), 0, h - 1).astype(int)
    xs = np.clip(np.round(xs), 0, w - 1).astype(int)
    return raster[ys[:, None], xs]


def render_texture(rng: np.random.Generator, h: int, w: int,
                   spec: TextureSpec) -> np.ndarray:
    """(3, h, w) image in [0, 1]: mean color plus smooth seeded noise."""
    n = spec.cells + 1
    lattice = rng.uniform(-1.0, 1.0, size=(1, n, n))
    noise = _sample_bilinear(lattice, _source_rows(n, h), _source_rows(n, w))[0]
    out = np.asarray(spec.mean_rgb)[:, None, None] + spec.amplitude * noise
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Dense scenes


@dataclass(frozen=True)
class SceneSample:
    """One dense sample: image and per-pixel labels.

    Labels use 0..K-1 for inlier classes, K for anomalous pixels and
    IGNORE_LABEL for pixels excluded from both training and evaluation.
    ``roles`` holds the role mask of generated and loaded scenes; training
    crops carry none. ``distance`` (optional, meters) supports range-binned
    evaluation.
    """

    image: np.ndarray           # (3, H, W) float64 in [0, 1]
    labels: np.ndarray          # (H, W) int
    roles: np.ndarray | None = None     # (H, W) uint8 PixelRole
    distance: np.ndarray | None = None  # (H, W) float64, meters

    def __post_init__(self):
        if self.image.ndim != 3 or self.image.shape[0] != 3:
            raise ContractViolation("image must be (3, H, W)")
        hw = self.image.shape[1:]
        if self.labels.shape != hw or (self.roles is not None and self.roles.shape != hw):
            raise ContractViolation("labels/roles must match image spatial dims")


SCENE_CLASSES = len(INLIER_TEXTURES)
SHAPES_PER_SCENE = (1, 3)          # inclusive range of inlier shapes
ANOMALY_AREA = (0.01, 0.25)        # bounds on the anomaly's share of the scene
NEAR_M, FAR_M = 5.0, 50.0          # distance at the bottom and the top row


@dataclass(frozen=True)
class SceneConfig:
    size: int = 64

    def __post_init__(self):
        if self.size < 16:
            raise ContractViolation("scene size must be >= 16")


def _shape_support(rng: np.random.Generator, size: int,
                   lo_frac: float, hi_frac: float) -> np.ndarray:
    """Boolean (size, size) support of one random rectangle or disc."""
    if rng.integers(2) == 0:
        w = int(rng.integers(int(lo_frac * size), int(hi_frac * size) + 1))
        h = int(rng.integers(int(lo_frac * size), int(hi_frac * size) + 1))
        y0 = int(rng.integers(0, size - h + 1))
        x0 = int(rng.integers(0, size - w + 1))
        sup = np.zeros((size, size), dtype=bool)
        sup[y0:y0 + h, x0:x0 + w] = True
        return sup
    radius = int(rng.integers(int(lo_frac * size / 2), int(hi_frac * size / 2) + 1))
    cy = int(rng.integers(radius, size - radius + 1))
    cx = int(rng.integers(radius, size - radius + 1))
    yy, xx = np.ogrid[:size, :size]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2


def _distance_ramp(size: int) -> np.ndarray:
    """Per-row distance in whole meters, far at the top, near at the bottom."""
    ramp = np.round(np.linspace(FAR_M, NEAR_M, size))
    return np.repeat(ramp[:, None], size, axis=1)


def gen_scene(rng: np.random.Generator, cfg: SceneConfig,
              with_anomaly: bool) -> SceneSample:
    size = cfg.size
    image = render_texture(rng, size, size, TEXTURES["class0"])
    labels = np.zeros((size, size), dtype=np.int64)
    roles = np.full((size, size), PixelRole.INLIER, dtype=np.uint8)

    for _ in range(int(rng.integers(SHAPES_PER_SCENE[0], SHAPES_PER_SCENE[1] + 1))):
        cls = int(rng.integers(1, SCENE_CLASSES))
        sup = _shape_support(rng, size, 0.15, 0.45)
        image[:, sup] = render_texture(rng, size, size, TEXTURES[INLIER_TEXTURES[cls]])[:, sup]
        labels[sup] = cls

    if with_anomaly:
        lo, hi = ANOMALY_AREA
        for _ in range(100):
            sup = _shape_support(rng, size, 0.12, 0.5)
            if lo <= sup.mean() <= hi:
                break
        else:
            raise ContractViolation("could not sample an anomaly within the area bounds")
        spec = _held_out_spec(rng, ANOMALY_CELLS)
        image[:, sup] = render_texture(rng, size, size, spec)[:, sup]
        labels[sup] = SCENE_CLASSES
        roles[sup] = PixelRole.OUTLIER

    distance = _distance_ramp(size) if with_anomaly else None
    return SceneSample(image=image, labels=labels, roles=roles, distance=distance)


SPLITS = ("train", "val", "test")


def gen_scenes(seed: int, cfg: SceneConfig, counts: dict[str, int]) -> dict[str, list[SceneSample]]:
    """Generate all splits; val/test scenes carry one anomalous shape each."""
    out: dict[str, list[SceneSample]] = {}
    for split_idx, split in enumerate(SPLITS):
        samples = []
        for i in range(counts.get(split, 0)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, split_idx, i]))
            samples.append(gen_scene(rng, cfg, with_anomaly=split != "train"))
        out[split] = samples
    return out


# ---------------------------------------------------------------------------
# Negative patches and pasting


@dataclass(frozen=True)
class NegativePatch:
    image: np.ndarray  # (3, h, w) float64
    alpha: np.ndarray  # (h, w) bool

    def __post_init__(self):
        if not self.alpha.any():
            raise ContractViolation("patch alpha mask must be nonempty")
        if self.image.shape[1:] != self.alpha.shape:
            raise ContractViolation("patch image/alpha shape mismatch")


def gen_negative_patches(seed: int, count: int,
                         size_range: tuple[int, int] = (8, 20)) -> list[NegativePatch]:
    """Small held-out-texture shapes to paste into training crops.

    Each patch gets its own mean color and a grain drawn from
    NEGATIVE_CELLS, so the negative family is diverse while staying
    disjoint from both the inlier and the anomaly textures.
    """
    lo, hi = size_range
    if lo < 2 or hi < lo:
        raise ContractViolation("bad patch size range")
    patches = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2, i]))
        h = int(rng.integers(lo, hi + 1))
        w = int(rng.integers(lo, hi + 1))
        if rng.integers(2) == 0:
            alpha = np.ones((h, w), dtype=bool)
        else:
            yy, xx = np.ogrid[:h, :w]
            ry, rx = h / 2.0, w / 2.0
            alpha = ((yy - ry + 0.5) / ry) ** 2 + ((xx - rx + 0.5) / rx) ** 2 <= 1.0
        spec = _held_out_spec(rng, NEGATIVE_CELLS)
        patches.append(NegativePatch(image=render_texture(rng, h, w, spec), alpha=alpha))
    return patches


JITTER_RETRIES = 10  # re-draws of a scale factor too small for the crop


@dataclass(frozen=True)
class AugmentConfig:
    scale_jitter_range: tuple[float, float] = (0.5, 2.0)
    hflip_prob: float = 0.5
    crop_size: int = 64
    paste_count: int = 2
    num_classes: int = 3  # pasted pixels get label == num_classes

    def __post_init__(self):
        lo, hi = self.scale_jitter_range
        if not (0 < lo <= hi):
            raise ContractViolation("scale_jitter_range must be positive and ordered")
        if not 0 <= self.hflip_prob <= 1:
            raise ContractViolation("hflip_prob must be in [0, 1]")
        if self.crop_size < 1 or self.paste_count < 0:
            raise ContractViolation("bad crop_size/paste_count")
        if self.num_classes < 2:
            raise ContractViolation("num_classes must be >= 2")


def paste_negatives(sample: SceneSample, patches: list[NegativePatch],
                    cfg: AugmentConfig, rng: np.random.Generator) -> SceneSample:
    """Alpha-composite `paste_count` random patches fully inside the crop.

    Pasted pixels get the outlier label K; pastes may overlap each other but
    never cross the image border. The result is a copy that carries no roles
    or distance; with no patches nothing is pasted and nothing is drawn.
    """
    height, width = sample.labels.shape
    image = sample.image.copy()
    labels = sample.labels.copy()
    for _ in range(cfg.paste_count if patches else 0):
        patch = patches[int(rng.integers(len(patches)))]
        ph, pw = patch.alpha.shape
        if ph > height or pw > width:
            raise ContractViolation(f"patch {ph}x{pw} larger than crop {height}x{width}")
        y0 = int(rng.integers(0, height - ph + 1))
        x0 = int(rng.integers(0, width - pw + 1))
        view = np.s_[y0:y0 + ph, x0:x0 + pw]
        image[(slice(None),) + view] = np.where(patch.alpha, patch.image,
                                                image[(slice(None),) + view])
        labels[view] = np.where(patch.alpha, cfg.num_classes, labels[view])
    return SceneSample(image=image, labels=labels)


def augment(sample: SceneSample, cfg: AugmentConfig,
            rng: np.random.Generator) -> SceneSample:
    """Scale-jitter, random horizontal flip, random square crop.

    The geometry is decided on the source positions of the crop's rows and
    columns, and the image (bilinear) and labels (nearest neighbor) are each
    sampled once, at the crop alone; the crop carries no roles or distance.
    If the jittered image is smaller than the crop, the factor is re-drawn
    a bounded number of times, and the final fallback reflects the
    positions out to crop size (a side of one pixel repeats).
    """
    h, w = sample.labels.shape
    lo, hi = cfg.scale_jitter_range
    size = cfg.crop_size
    for _ in range(JITTER_RETRIES + 1):
        factor = rng.uniform(lo, hi)
        new_h, new_w = max(1, round(h * factor)), max(1, round(w * factor))
        if new_h >= size and new_w >= size:
            break
    ys, xs = (np.pad(_source_rows(n, new), (0, max(0, size - new)), mode="reflect")
              for n, new in ((h, new_h), (w, new_w)))
    if rng.uniform() < cfg.hflip_prob:
        xs = xs[::-1]
    y0 = int(rng.integers(0, len(ys) - size + 1))
    x0 = int(rng.integers(0, len(xs) - size + 1))
    ys, xs = ys[y0:y0 + size], xs[x0:x0 + size]
    return SceneSample(image=_sample_bilinear(sample.image, ys, xs),
                       labels=_sample_nearest(sample.labels, ys, xs))


def mixed_batch(scenes: list[SceneSample], patches: list[NegativePatch],
                cfg: AugmentConfig, rng: np.random.Generator,
                batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Assemble one (images, labels) training batch of augmented crops with
    pasted negatives; the images are float32, the dtype training runs in."""
    images, labels = [], []
    for _ in range(batch_size):
        scene = scenes[int(rng.integers(len(scenes)))]
        crop = paste_negatives(augment(scene, cfg, rng), patches, cfg, rng)
        images.append(crop.image)
        labels.append(crop.labels)
    return np.stack(images, dtype=np.float32), np.stack(labels)


# ---------------------------------------------------------------------------
# Dataset directory layout


def quantize_image(image: np.ndarray) -> np.ndarray:
    """(3, H, W) floats in [0,1] -> (H, W, 3) uint8."""
    return np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8).transpose(1, 2, 0)


def save_scenes(root, splits: dict[str, list[SceneSample]]) -> Path:
    """Write PPM/PGM rasters plus manifest.csv; returns the manifest path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rows = []
    for split in SPLITS:
        for i, sample in enumerate(splits.get(split, [])):
            stem = f"{split}_{i:04d}"
            write_ppm(root / f"{stem}.ppm", quantize_image(sample.image))
            write_pgm(root / f"{stem}_label.pgm", sample.labels.astype(np.uint8))
            write_pgm(root / f"{stem}_role.pgm", sample.roles.astype(np.uint8))
            if sample.distance is not None:
                write_pgm(root / f"{stem}_dist.pgm", sample.distance.astype(np.uint8))
            rows.append(ManifestRow(split=split, image=f"{stem}.ppm",
                                    label=f"{stem}_label.pgm", mask=f"{stem}_role.pgm"))
    manifest = root / "manifest.csv"
    write_manifest(manifest, rows)
    return manifest


def split_rows(manifest, split: str) -> list[ManifestRow]:
    """The rows of `split` in `manifest`; a split with no rows is rejected."""
    rows = [r for r in read_manifest(manifest) if r.split == split]
    if not rows:
        raise DataFormatError(f"{manifest}: no rows for split {split!r}")
    return rows


def load_scene(root, row: ManifestRow, num_classes: int) -> SceneSample:
    """Read one row's rasters: an image with rows and columns, the rest of
    its size, labels in 0..num_classes or IGNORE_LABEL, roles in 0..2, a
    class below num_classes on every inlier pixel and num_classes on every
    outlier.
    An ignore-role pixel loads as IGNORE_LABEL whatever its label, so the
    labels alone say which pixels training and evaluation use."""
    root = Path(root)
    image = read_ppm(root / row.image).astype(np.float64).transpose(2, 0, 1) / 255.0
    if 0 in image.shape:
        raise DataFormatError(f"{row.image}: image has no rows or no columns")
    labels = read_pgm(root / row.label).astype(np.int64)
    roles = read_pgm(root / row.mask)
    dist_path = root / (Path(row.image).stem + "_dist.pgm")
    distance = read_pgm(dist_path).astype(np.float64) if dist_path.exists() else None
    for raster in (labels, roles, distance):
        if raster is not None and raster.shape != image.shape[1:]:
            raise DataFormatError(f"{row.image}: label, role or distance raster shape "
                                  f"{raster.shape} differs from the image's {image.shape[1:]}")
    invalid = (labels > num_classes) & (labels != IGNORE_LABEL)
    if invalid.any():
        raise DataFormatError(f"{row.label}: label {labels[invalid].max()} outside "
                              f"0..{num_classes} and {IGNORE_LABEL}")
    invalid = roles > max(PixelRole)
    if invalid.any():
        raise DataFormatError(f"{row.mask}: role {roles[invalid].max()} outside "
                              f"0..{max(PixelRole):d}")
    invalid = (roles == PixelRole.INLIER) & (labels >= num_classes)
    if invalid.any():
        raise DataFormatError(f"{row.image}: inlier pixels without class labels "
                              f"(label {labels[invalid].min()})")
    invalid = (roles == PixelRole.OUTLIER) & (labels != num_classes)
    if invalid.any():
        raise DataFormatError(f"{row.image}: outlier pixels labelled {labels[invalid].min()}, "
                              f"not {num_classes}")
    labels[roles == PixelRole.IGNORE] = IGNORE_LABEL
    return SceneSample(image=image, labels=labels, roles=roles, distance=distance)
