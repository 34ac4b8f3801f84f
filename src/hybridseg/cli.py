"""Command-line pipeline: synth -> train -> score -> eval, plus the 2-D toy run.

Every subcommand reads an optional INI config (section named after the
subcommand), applies flag overrides, writes a resolved-config sidecar next
to its outputs, and exits 0 on success, 2 on configuration errors, 3 on
data/format errors, 4 on numeric failures.
"""

from __future__ import annotations

import csv
import functools
import statistics
import sys
from pathlib import Path

import click
import numpy as np

from . import config as cfgmod
from .data import (
    AugmentConfig,
    SceneConfig,
    as_grid,
    gen_negative_patches,
    gen_scenes,
    gen_toy2d,
    load_scene,
    mixed_batch,
    save_scenes,
)
from .errors import (
    ConfigError,
    ContractViolation,
    DataFormatError,
    DegenerateScoreSet,
    NumericFailure,
    TrainingDiverged,
)
from .inference import SCORE_VARIANTS, score_image
from .labels import IGNORE_LABEL, PixelRole
from .losses import LossBreakdown
from .metrics import (
    EvalImage,
    auroc,
    average_precision,
    closed_confusion,
    closed_miou,
    fpr_at_tpr,
    fuse_open_prediction,
    open_confusion,
    open_miou,
    range_binned,
    two_fold_open_eval,
)
from .network import NetworkConfig, init_params, load_checkpoint, save_checkpoint
from .optim import LrSchedule
from .rasters import (
    read_manifest,
    read_pgm,
    read_score_raster,
    write_pgm,
    write_score_raster,
)
from .train import TrainConfig, train

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 2, 3, 4


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except (ConfigError, ContractViolation) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (DataFormatError, DegenerateScoreSet, FileNotFoundError) as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except NumericFailure as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)
    return wrapper


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@click.group()
def main():
    """Dense open-set recognition pipeline on synthetic benchmarks."""


def _config_option(fn):
    return click.option("--config", "config_path", default=None,
                        type=click.Path(dir_okay=False),
                        help="INI file with a section per subcommand.")(fn)


# ---------------------------------------------------------------------------
# synth


def run_synth(cfg: dict) -> None:
    out = Path(cfg["out"])
    if out.exists() and any(out.iterdir()) and not cfg["force"]:
        raise ConfigError(f"{out} is not empty (use --force true to overwrite)")
    out.mkdir(parents=True, exist_ok=True)

    toy_train, toy_test = gen_toy2d(cfg["seed"], cfg["toy_points"])
    toy_dir = out / "toy"
    toy_dir.mkdir(exist_ok=True)
    for name, pts in (("train", toy_train), ("test", toy_test)):
        rows = [(repr(float(x)), repr(float(y)), int(lab), int(role), int(uns))
                for (x, y), lab, role, uns in zip(pts.points, pts.class_labels,
                                                  pts.roles, pts.unseen)]
        _write_csv(toy_dir / f"{name}.csv", ("x", "y", "class_label", "role", "unseen"), rows)

    counts = {"train": cfg["train_count"], "val": cfg["val_count"],
              "test": cfg["test_count"]}
    splits = gen_scenes(cfg["seed"], SceneConfig(size=cfg["scene_size"]), counts)
    save_scenes(out / "scenes", splits)
    cfgmod.write_sidecar(out, "synth", cfg)

    for split, samples in splits.items():
        outlier = float(np.mean([(s.roles == PixelRole.OUTLIER).mean()
                                 for s in samples])) if samples else 0.0
        click.echo(f"{split}: {len(samples)} scenes, mean outlier fraction {outlier:.4f}")
    click.echo(f"toy: {len(toy_train.points)} train / {len(toy_test.points)} test points")


@main.command()
@_config_option
@click.option("--out", default=None)
@click.option("--seed", default=None)
@click.option("--scene-size", "scene_size", default=None)
@click.option("--train-count", "train_count", default=None)
@click.option("--val-count", "val_count", default=None)
@click.option("--test-count", "test_count", default=None)
@click.option("--toy-points", "toy_points", default=None)
@click.option("--force", default=None)
@_guarded
def synth(config_path, **overrides):
    """Generate the toy and scene datasets."""
    run_synth(cfgmod.resolve("synth", config_path, overrides))


# ---------------------------------------------------------------------------
# train


def run_train(cfg: dict) -> None:
    manifest = Path(cfg["data"])
    root = manifest.parent
    rows = [r for r in read_manifest(manifest) if r.split == "train"]
    if not rows:
        raise DataFormatError(f"{manifest}: no train rows")
    scenes = [load_scene(root, r) for r in rows]

    # a zero beta is the plain closed-set baseline: no negatives are pasted,
    # so the outlier loss terms are exactly zero in the log
    paste_count = cfg["paste_count"] if cfg["beta"] > 0 else 0
    patches = gen_negative_patches(cfg["seed"], cfg["patch_count"]) if paste_count else []
    aug = AugmentConfig(crop_size=cfg["crop_size"], paste_count=paste_count,
                        num_classes=cfg["num_classes"])

    start_step = 0
    if cfg["resume"]:
        params, start_step = load_checkpoint(cfg["resume"])
        if params.config.num_classes != cfg["num_classes"]:
            raise ConfigError("checkpoint num_classes differs from configuration")
    else:
        params = init_params(NetworkConfig(
            input_channels=3, widths=cfgmod.parse_int_list(cfg["widths"]),
            num_classes=cfg["num_classes"], kernel_size=cfg["kernel_size"],
            seed=cfg["seed"]))

    total_steps = start_step + cfg["epochs"] * cfg["batches_per_epoch"]
    schedule = LrSchedule(kind=cfg["schedule"], lr_start=cfg["lr"],
                          lr_end=cfg["lr_end"], total_steps=max(total_steps, 1))
    tcfg = TrainConfig(epochs=cfg["epochs"], batches_per_epoch=cfg["batches_per_epoch"],
                       beta=cfg["beta"], seed=cfg["seed"], schedule=schedule,
                       start_step=start_step)

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    def make_batch(rng):
        return mixed_batch(scenes, patches, aug, rng, cfg["batch_size"])

    try:
        params, history = train(params, make_batch, tcfg)
    except TrainingDiverged as exc:
        if exc.last_good_params is not None:
            last_good_step = start_step + len(exc.history) * cfg["batches_per_epoch"]
            save_checkpoint(out / "checkpoint.last_good.dhck", exc.last_good_params,
                            step=last_good_step)
        _write_history(out / "train_log.csv", exc.history)
        raise

    save_checkpoint(out / "checkpoint.dhck", params, step=total_steps)
    _write_history(out / "train_log.csv", history)
    cfgmod.write_sidecar(out, "train", cfg)
    click.echo(f"trained {cfg['epochs']} epochs; final total loss "
               f"{history[-1].total:.5f} -> {out / 'checkpoint.dhck'}")


def _write_history(path, history: list[LossBreakdown]) -> None:
    rows = [(epoch,) + tuple(repr(getattr(b, f)) for f in LossBreakdown.CSV_FIELDS)
            for epoch, b in enumerate(history)]
    _write_csv(path, ("epoch",) + LossBreakdown.CSV_FIELDS, rows)


@main.command(name="train")
@_config_option
@click.option("--data", default=None)
@click.option("--out", default=None)
@click.option("--seed", default=None)
@click.option("--num-classes", "num_classes", default=None)
@click.option("--widths", default=None)
@click.option("--kernel-size", "kernel_size", default=None)
@click.option("--epochs", default=None)
@click.option("--batches-per-epoch", "batches_per_epoch", default=None)
@click.option("--batch-size", "batch_size", default=None)
@click.option("--crop-size", "crop_size", default=None)
@click.option("--paste-count", "paste_count", default=None)
@click.option("--patch-count", "patch_count", default=None)
@click.option("--beta", default=None)
@click.option("--lr", default=None)
@click.option("--lr-end", "lr_end", default=None)
@click.option("--schedule", default=None)
@click.option("--resume", default=None)
@_guarded
def train_cmd(config_path, **overrides):
    """Train on mixed-content crops from a synthesized dataset."""
    run_train(cfgmod.resolve("train", config_path, overrides))


# ---------------------------------------------------------------------------
# score


def run_score(cfg: dict) -> None:
    params, _ = load_checkpoint(cfg["checkpoint"])
    variants = [v.strip() for v in cfg["variants"].split(",") if v.strip()]
    unknown = set(variants) - set(SCORE_VARIANTS)
    if unknown:
        raise ConfigError(f"unknown score variants: {sorted(unknown)}")
    tau = float(cfg["tau"]) if cfg["tau"] != "" else None

    manifest = Path(cfg["data"])
    root = manifest.parent
    rows = [r for r in read_manifest(manifest) if r.split == cfg["split"]]
    if not rows:
        raise DataFormatError(f"{manifest}: no rows for split {cfg['split']!r}")
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    for row in rows:
        stem = Path(row.image).stem
        bundle = score_image(params, load_scene(root, row).image)
        for v in variants:
            write_score_raster(out / f"{stem}_{v}.dhsc", bundle.variant(v))
        write_pgm(out / f"{stem}_argmax.pgm", bundle.argmax.astype(np.uint8))
        if tau is not None:
            fused = fuse_open_prediction(bundle.argmax, bundle.hybrid, tau,
                                         params.config.num_classes)
            write_pgm(out / f"{stem}_open.pgm", fused.astype(np.uint8))
    cfgmod.write_sidecar(out, "score", cfg)
    click.echo(f"scored {len(rows)} {cfg['split']} images -> {out}")


@main.command()
@_config_option
@click.option("--checkpoint", default=None)
@click.option("--data", default=None)
@click.option("--out", default=None)
@click.option("--split", default=None)
@click.option("--variants", default=None)
@click.option("--tau", default=None)
@_guarded
def score(config_path, **overrides):
    """Export per-image anomaly-score rasters (and fused maps when tau given)."""
    run_score(cfgmod.resolve("score", config_path, overrides))


# ---------------------------------------------------------------------------
# eval


def _metric_row(split, metric, bin_name, compute):
    try:
        return (split, metric, bin_name, repr(float(compute())), "ok")
    except (DegenerateScoreSet, ContractViolation) as exc:
        return (split, metric, bin_name, "nan", f"error: {exc}")


def run_eval(cfg: dict) -> None:
    manifest = Path(cfg["data"])
    root = manifest.parent
    rows = [r for r in read_manifest(manifest) if r.split == cfg["split"]]
    if not rows:
        raise DataFormatError(f"{manifest}: no rows for split {cfg['split']!r}")
    variants = [v.strip() for v in cfg["variants"].split(",") if v.strip()]
    scores_dir = Path(cfg["scores"])
    k = cfg["num_classes"]
    split = cfg["split"]

    gts, argmaxes, dists = [], [], []
    score_maps = {v: [] for v in variants}
    for row in rows:
        stem = Path(row.image).stem
        gts.append(read_pgm(root / row.label).astype(np.int64))
        argmaxes.append(read_pgm(scores_dir / f"{stem}_argmax.pgm").astype(np.int64))
        for v in variants:
            score_maps[v].append(read_score_raster(scores_dir / f"{stem}_{v}.dhsc"))
        dist_path = root / f"{stem}_dist.pgm"
        dists.append(read_pgm(dist_path).astype(float) if dist_path.exists() else None)

    keep = [gt != IGNORE_LABEL for gt in gts]
    truth = np.concatenate([(gt == k)[m] for gt, m in zip(gts, keep)])
    out_rows = []

    cm = sum(closed_confusion(am, gt, k) for am, gt in zip(argmaxes, gts))
    out_rows.append(_metric_row(split, "closed_miou", "", lambda: closed_miou(cm)))

    for v in variants:
        pooled = np.concatenate([s[m] for s, m in zip(score_maps[v], keep)])
        out_rows.append(_metric_row(split, f"ap/{v}", "",
                                    lambda: average_precision(pooled, truth)))
        out_rows.append(_metric_row(split, f"auroc/{v}", "", lambda: auroc(pooled, truth)))
        out_rows.append(_metric_row(
            split, f"fpr95/{v}", "",
            lambda: fpr_at_tpr(pooled, truth, cfg["target_tpr"])[0]))

        if cfg["two_fold"]:
            images = [EvalImage(argmax=am, scores=s, gt=gt)
                      for am, s, gt in zip(argmaxes, score_maps[v], gts)]
            half = max(1, len(images) // 2)
            out_rows.append(_metric_row(
                split, f"open_miou/{v}", "",
                lambda: two_fold_open_eval(images[:half], images[half:], k,
                                           cfg["target_tpr"])))

        if cfg["bins"] and all(d is not None for d in dists):
            distance = np.concatenate([d[m] for d, m in zip(dists, keep)])
            edges = cfgmod.parse_float_list(cfg["bins"])
            for res in range_binned(pooled, truth, distance, edges, cfg["target_tpr"]):
                bin_name = f"{res.lo:g}-{res.hi:g}m"
                out_rows.append((split, f"ap/{v}", bin_name, repr(res.ap), res.status))
                out_rows.append((split, f"fpr95/{v}", bin_name, repr(res.fpr95), res.status))

    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ("split", "metric", "bin", "value", "status"), out_rows)
    cfgmod.write_sidecar(out.parent, "eval", cfg)
    for row in out_rows:
        click.echo(",".join(str(c) for c in row))


@main.command(name="eval")
@_config_option
@click.option("--data", default=None)
@click.option("--scores", default=None)
@click.option("--out", default=None)
@click.option("--split", default=None)
@click.option("--num-classes", "num_classes", default=None)
@click.option("--variants", default=None)
@click.option("--target-tpr", "target_tpr", default=None)
@click.option("--two-fold", "two_fold", default=None)
@click.option("--bins", default=None)
@_guarded
def eval_cmd(config_path, **overrides):
    """Compute detection metrics, closed mIoU, and two-fold open-mIoU."""
    run_eval(cfgmod.resolve("eval", config_path, overrides))


# ---------------------------------------------------------------------------
# toy


def toy_grid_batch(points: np.ndarray, class_labels: np.ndarray,
                   roles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack a point set into one (1, 2, N, 1) batch with matching maps."""
    n = points.shape[0]
    return (as_grid(points), class_labels.reshape(1, n, 1).astype(np.int64),
            roles.reshape(1, n, 1))


def run_toy_seed(seed: int, n_per_role: int, widths: tuple[int, ...], steps: int,
                 beta: float, lr: float, lr_end: float):
    """Train on the 2-D benchmark; returns (per-variant metrics, per-point scores).

    Metrics per variant: AUROC and AP on all test anomalies, plus AUROC on
    the anomaly modes the training negatives never covered.
    """
    train_set, test_set = gen_toy2d(seed, n_per_role)
    params = init_params(NetworkConfig(input_channels=2, widths=widths,
                                       num_classes=2, kernel_size=1, seed=seed))
    batch = toy_grid_batch(train_set.points, train_set.class_labels, train_set.roles)
    tcfg = TrainConfig(
        epochs=steps, batches_per_epoch=1, beta=beta, seed=seed,
        schedule=LrSchedule(kind="cosine", lr_start=lr, lr_end=lr_end,
                            total_steps=steps))
    params, _ = train(params, lambda rng: batch, tcfg)

    bundle = score_image(params, as_grid(test_set.points)[0])
    truth = test_set.roles == PixelRole.OUTLIER
    unseen_subset = ~truth | test_set.unseen  # inliers plus uncovered anomalies
    results = {}
    point_scores = {}
    for v in SCORE_VARIANTS:
        s = bundle.variant(v).ravel()
        point_scores[v] = s
        results[v] = {
            "auroc": auroc(s, truth),
            "ap": average_precision(s, truth),
            "auroc_unseen": auroc(s[unseen_subset], truth[unseen_subset]),
        }
    return results, point_scores, test_set


def run_toy(cfg: dict) -> None:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    widths = cfgmod.parse_int_list(cfg["widths"])
    seeds = cfgmod.parse_int_list(cfg["seeds"])

    report_rows = []
    point_rows = []
    per_variant: dict[str, list[float]] = {v: [] for v in SCORE_VARIANTS}
    for seed in seeds:
        results, point_scores, test_set = run_toy_seed(
            seed, cfg["n_per_role"], widths, cfg["steps"], cfg["beta"],
            cfg["lr"], cfg["lr_end"])
        for v in SCORE_VARIANTS:
            r = results[v]
            per_variant[v].append(r["auroc"])
            report_rows.append((seed, v, repr(r["auroc"]), repr(r["ap"]),
                                repr(r["auroc_unseen"])))
            if seed == seeds[0]:
                point_rows += [(repr(float(x)), repr(float(y)), v, repr(float(s)))
                               for (x, y), s in zip(test_set.points, point_scores[v])]

    _write_csv(out / "report.csv", ("seed", "variant", "auroc", "ap", "auroc_unseen"),
               report_rows)
    _write_csv(out / "points.csv", ("x", "y", "score_variant", "value"), point_rows)
    cfgmod.write_sidecar(out, "toy", cfg)
    for v in SCORE_VARIANTS:
        click.echo(f"{v}: median test AUROC {statistics.median(per_variant[v]):.4f}")


@main.command()
@_config_option
@click.option("--out", default=None)
@click.option("--seeds", default=None)
@click.option("--n-per-role", "n_per_role", default=None)
@click.option("--widths", default=None)
@click.option("--steps", default=None)
@click.option("--beta", default=None)
@click.option("--lr", default=None)
@click.option("--lr-end", "lr_end", default=None)
@_guarded
def toy(config_path, **overrides):
    """Run the 2-D benchmark end to end and report per-variant rankings."""
    run_toy(cfgmod.resolve("toy", config_path, overrides))


if __name__ == "__main__":
    main()
