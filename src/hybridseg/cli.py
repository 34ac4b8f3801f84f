"""Command-line pipeline: synth -> train -> score -> eval, plus the 2-D toy run.

Every subcommand reads an optional INI config (section named after the
subcommand), applies flag overrides, writes a resolved-config sidecar next
to its outputs, and exits 0 on success, 2 on configuration errors, 3 on
data/format errors, 4 on numeric failures.

The flags are made from ``config.SCHEMAS``, one ``--kebab-case`` string
flag per key, and ``config.resolve`` parses them with the INI section.
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
    TOY_CLASSES,
    as_grid,
    gen_negative_patches,
    gen_scenes,
    gen_toy2d,
    load_scene,
    mixed_batch,
    save_scenes,
    split_rows,
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
    auroc,
    check_bin_edges,
    closed_confusion,
    closed_miou,
    fuse_open_prediction,
    range_binned,
    rank,
    two_fold_open_eval,
)
from .network import NetworkConfig, init_params, load_checkpoint, save_checkpoint
from .optim import LrSchedule
from .rasters import read_pgm, read_score_raster, write_pgm, write_score_raster
from .train import TrainConfig, train

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 2, 3, 4
SCENE_CHANNELS = 3  # RGB: the only input_channels `train` builds and `score` reads
# the keys that set a subcommand's array sizes, named when it runs out of memory
SIZE_KEYS = {"synth": "scene_size, toy_points or a split count",
             "train": "widths, kernel_size, batch_size, crop_size or patch_count",
             "toy": "widths or n_per_role"}


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except (ConfigError, ContractViolation) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (DataFormatError, DegenerateScoreSet, OSError) as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except NumericFailure as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)
        except MemoryError as exc:
            name = click.get_current_context().info_name
            click.echo(f"config error: {name} needs more memory than there is ({exc}); "
                       f"lower {SIZE_KEYS.get(name, 'the input sizes')}", err=True)
            sys.exit(EXIT_CONFIG)
    return wrapper


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@click.group()
def main():
    """Dense open-set recognition pipeline on synthetic benchmarks."""


def _command(name: str, run, help_text: str) -> None:
    """Register subcommand `name` on `main`: `--config` plus one string flag
    per key of `config.SCHEMAS[name]`, in schema order. Parsing the flags is
    left to `config.resolve`, whose result is handed to `run`."""
    def callback(config_path, **overrides):
        run(cfgmod.resolve(name, config_path, overrides))

    params = [click.Option(["--config", "config_path"], type=click.Path(dir_okay=False),
                           help="INI file with a section per subcommand.")]
    params += [click.Option([f"--{key.name.replace('_', '-')}", key.name])
               for key in cfgmod.SCHEMAS[name]]
    main.add_command(click.Command(name, callback=_guarded(callback), params=params,
                                   help=help_text))


# ---------------------------------------------------------------------------
# synth


def run_synth(cfg: dict) -> None:
    if min(cfg["seed"], cfg["train_count"], cfg["val_count"], cfg["test_count"]) < 0:
        raise ConfigError("seed and split counts must be >= 0")
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


_command("synth", run_synth, "Generate the toy and scene datasets.")


# ---------------------------------------------------------------------------
# train


def run_train(cfg: dict) -> None:
    net = NetworkConfig(input_channels=SCENE_CHANNELS, widths=cfgmod.parse_int_list(cfg["widths"]),
                        num_classes=cfg["num_classes"], kernel_size=cfg["kernel_size"],
                        seed=cfg["seed"])
    if cfg["batch_size"] < 1:
        raise ConfigError("batch_size must be >= 1")
    if cfg["beta"] > 0 and min(cfg["paste_count"], cfg["patch_count"]) < 1:
        raise ConfigError("beta > 0 needs paste_count and patch_count >= 1")
    manifest = Path(cfg["data"])
    scenes = [load_scene(manifest.parent, r, cfg["num_classes"])
              for r in split_rows(manifest, "train")]

    # a zero beta is the plain closed-set baseline: no negatives are pasted,
    # so the outlier loss terms are exactly zero in the log
    paste_count = cfg["paste_count"] if cfg["beta"] > 0 else 0
    patches = gen_negative_patches(cfg["seed"], cfg["patch_count"]) if paste_count else []
    aug = AugmentConfig(crop_size=cfg["crop_size"], paste_count=paste_count,
                        num_classes=cfg["num_classes"])
    start_step = 0
    if cfg["resume"]:
        params, start_step = load_checkpoint(cfg["resume"])
        differs = [f for f in ("input_channels", "widths", "num_classes", "kernel_size")
                   if getattr(params.config, f) != getattr(net, f)]
        if differs:
            raise ConfigError(f"checkpoint {', '.join(differs)} differs from configuration")
    else:
        params = init_params(net)

    total_steps = start_step + cfg["epochs"] * cfg["batches_per_epoch"]
    if total_steps >= 2 ** 64:  # checked before the first step, not when saving
        raise ConfigError(f"step {start_step} + {total_steps - start_step} steps does not fit "
                          "the checkpoint's u64 step field")
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


_command("train", run_train, "Train on mixed-content crops from a synthesized dataset.")


# ---------------------------------------------------------------------------
# score


def _variants(cfg: dict) -> list[str]:
    variants = list(dict.fromkeys(v.strip() for v in cfg["variants"].split(",") if v.strip()))
    unknown = set(variants) - set(SCORE_VARIANTS)
    if unknown:
        raise ConfigError(f"unknown score variants: {sorted(unknown)}")
    return variants


def run_score(cfg: dict) -> None:
    variants = _variants(cfg)
    try:
        tau = float(cfg["tau"]) if cfg["tau"] != "" else None
    except ValueError:
        raise ConfigError(f"key tau: cannot parse {cfg['tau']!r} as float") from None
    if tau is not None and np.isnan(tau):  # no pixel would be an outlier
        raise ConfigError("tau must not be NaN")
    params, _ = load_checkpoint(cfg["checkpoint"])
    if params.config.input_channels != SCENE_CHANNELS:
        raise DataFormatError(f"{cfg['checkpoint']}: input_channels "
                              f"{params.config.input_channels} != {SCENE_CHANNELS}")
    k = params.config.num_classes

    manifest = Path(cfg["data"])
    rows = split_rows(manifest, cfg["split"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    for row in rows:
        stem = Path(row.image).stem
        bundle = score_image(params, load_scene(manifest.parent, row, k).image)
        for v in variants:
            write_score_raster(out / f"{stem}_{v}.dhsc", bundle.variant(v))
        write_pgm(out / f"{stem}_argmax.pgm", bundle.argmax.astype(np.uint8))
        if tau is not None:
            fused = fuse_open_prediction(bundle.argmax, bundle.hybrid, tau, k)
            write_pgm(out / f"{stem}_open.pgm", fused.astype(np.uint8))
    cfgmod.write_sidecar(out, "score", cfg)
    click.echo(f"scored {len(rows)} {cfg['split']} images -> {out}")


_command("score", run_score,
         "Export per-image anomaly-score rasters (and fused maps when tau given).")


# ---------------------------------------------------------------------------
# eval


def _metric_row(split, metric, compute):
    try:
        return (split, metric, "", repr(float(compute())), "ok")
    except (DegenerateScoreSet, ContractViolation) as exc:
        return (split, metric, "", "nan", f"error: {exc}")


def _pooled_rows(split, v, scores, truth, target_tpr):
    """Variant `v`'s ap, auroc and fpr95 rows; each gets its own error if `rank` fails."""
    ranking = functools.cache(lambda: rank(scores, truth))
    return [_metric_row(split, f"ap/{v}", lambda: ranking().average_precision()),
            _metric_row(split, f"auroc/{v}", lambda: ranking().auroc()),
            _metric_row(split, f"fpr95/{v}", lambda: ranking().fpr_at_tpr(target_tpr)[0])]


def _read_shaped(reader, path, shape) -> np.ndarray:
    """``reader(path)``, rejected unless it has its label's ``shape``."""
    raster = reader(path)
    if raster.shape != shape:
        raise DataFormatError(f"{path}: shape {raster.shape} differs from its label's {shape}")
    return raster


def _evaluated_pixels(cfg: dict, variants: list[str]):
    """``(gt, argmax, distance, scores, sizes)`` of the split's non-IGNORE pixels,
    image after image: int64 labels, uint8 argmax, meters (None without
    ``bins``), each variant's scores and each image's pixel count. Each image
    is filtered before one concatenation, so its rasters are freed here."""
    k = cfg["num_classes"]
    manifest = Path(cfg["data"])
    scores_dir = Path(cfg["scores"])
    columns = {name: [] for name in ("gt", "argmax", "distance", *variants)}
    for row in split_rows(manifest, cfg["split"]):
        stem = Path(row.image).stem
        scene = load_scene(manifest.parent, row, k)
        keep = scene.labels != IGNORE_LABEL
        argmax_path = scores_dir / f"{stem}_argmax.pgm"
        am = _read_shaped(read_pgm, argmax_path, keep.shape)
        if np.any(am >= k):
            raise DataFormatError(f"{argmax_path}: class {am.max()} >= num_classes {k}")
        columns["gt"].append(scene.labels[keep])
        columns["argmax"].append(am[keep])
        if cfg["bins"]:
            if scene.distance is None:
                raise DataFormatError(f"{row.image}: --bins needs {stem}_dist.pgm")
            columns["distance"].append(scene.distance[keep])
        for v in variants:
            path = scores_dir / f"{stem}_{v}.dhsc"
            columns[v].append(_read_shaped(read_score_raster, path, keep.shape)[keep])
    sizes = [gt.size for gt in columns["gt"]]
    flat = {name: np.concatenate(c) for name, c in columns.items() if c}
    return flat.pop("gt"), flat.pop("argmax"), flat.pop("distance", None), flat, sizes


def run_eval(cfg: dict) -> None:
    k = cfg["num_classes"]
    if not 2 <= k < IGNORE_LABEL:  # the range `train` accepts
        raise ConfigError(f"num_classes must be in 2..{IGNORE_LABEL - 1}")
    if np.isnan(cfg["target_tpr"]):  # no threshold would reach it
        raise ConfigError("target_tpr must not be NaN")
    variants = _variants(cfg)
    split = cfg["split"]
    edges = cfgmod.parse_float_list(cfg["bins"])
    if cfg["bins"]:
        check_bin_edges(edges)
    gt, argmax, distance, scores, sizes = _evaluated_pixels(cfg, variants)
    truth = gt == k

    cm = closed_confusion(argmax, gt, k)
    out_rows = [_metric_row(split, "closed_miou", lambda: closed_miou(cm))]
    for v in variants:
        out_rows += _pooled_rows(split, v, scores[v], truth, cfg["target_tpr"])

        if cfg["two_fold"]:
            out_rows.append(_metric_row(split, f"open_miou/{v}", lambda: two_fold_open_eval(
                argmax, scores[v], gt, sizes, k, cfg["target_tpr"])))

        if cfg["bins"]:
            for res in range_binned(scores[v], truth, distance, edges, cfg["target_tpr"]):
                bin_name = f"{res.lo:g}-{res.hi:g}m"
                out_rows.append((split, f"ap/{v}", bin_name, repr(res.ap), res.status))
                out_rows.append((split, f"fpr95/{v}", bin_name, repr(res.fpr95), res.status))

    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ("split", "metric", "bin", "value", "status"), out_rows)
    cfgmod.write_sidecar(out.parent, "eval", cfg)
    for row in out_rows:
        click.echo(",".join(str(c) for c in row))


_command("eval", run_eval, "Compute detection metrics, closed mIoU, and two-fold open-mIoU.")


# ---------------------------------------------------------------------------
# toy


def toy_grid_batch(points: np.ndarray, class_labels: np.ndarray,
                   roles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack a point set into one (1, 2, N, 1) batch and its (1, N, 1) label
    map, in which every outlier point is labelled TOY_CLASSES."""
    labels = np.where(roles == PixelRole.OUTLIER, TOY_CLASSES, class_labels)
    return as_grid(points), labels.reshape(1, -1, 1).astype(np.int64)


def run_toy_seed(seed: int, n_per_role: int, widths: tuple[int, ...], steps: int,
                 beta: float, lr: float, lr_end: float):
    """Train on the 2-D benchmark; returns (per-variant metrics, per-point
    scores, the test point set).

    Metrics per variant: AUROC and AP on all test anomalies, plus AUROC on
    the anomaly modes the training negatives never covered.
    """
    train_set, test_set = gen_toy2d(seed, n_per_role)
    params = init_params(NetworkConfig(input_channels=2, widths=widths,
                                       num_classes=TOY_CLASSES, kernel_size=1,
                                       seed=seed))
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
        r = rank(s, truth)
        results[v] = {
            "auroc": r.auroc(),
            "ap": r.average_precision(),
            "auroc_unseen": auroc(s[unseen_subset], truth[unseen_subset]),
        }
    return results, point_scores, test_set


def run_toy(cfg: dict) -> None:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    widths = cfgmod.parse_int_list(cfg["widths"])
    seeds = cfgmod.parse_int_list(cfg["seeds"])
    if not seeds or min(seeds) < 0:
        raise ConfigError("toy needs at least one seed, and no negative one")

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


_command("toy", run_toy, "Run the 2-D benchmark end to end and report per-variant rankings.")


if __name__ == "__main__":
    main()
