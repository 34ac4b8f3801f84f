"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py``. The two trained-benchmark
criteria (scene AP ordering, closed-mIoU impact) share one module-scoped
fixture that trains ten small models; expect roughly ten minutes of CPU in
total, with progress on stderr.
"""

import math
import statistics
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import pairwise_auroc, rel_err, sweep_average_precision, sweep_fpr_at_tpr
from hybridseg.cli import main as cli_main
from hybridseg.cli import run_toy_seed
from hybridseg.data import (
    AugmentConfig,
    SceneConfig,
    gen_negative_patches,
    gen_scene,
    gen_scenes,
    mixed_batch,
)
from hybridseg.inference import SCORE_VARIANTS, score_image
from hybridseg.labels import IGNORE_LABEL
from hybridseg.losses import compound_loss
from hybridseg.metrics import (
    auroc,
    average_precision,
    closed_confusion,
    closed_miou,
    fpr_at_tpr,
    fuse_open_prediction,
    open_confusion,
    open_miou,
    two_fold_open_eval,
)
from hybridseg.network import (
    NetworkConfig,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from hybridseg.optim import LrSchedule
from hybridseg.rasters import (
    read_pgm,
    read_ppm,
    read_score_raster,
    write_pgm,
    write_ppm,
    write_score_raster,
)
from hybridseg.scoring import log_sum_exp
from hybridseg.train import TrainConfig, train


@pytest.fixture
def report(capsys):
    def _report(tag, ok, detail=""):
        with capsys.disabled():
            print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
        assert ok, f"{tag}: {detail}"
    return _report


def _note(message):
    print(message, file=sys.__stderr__, flush=True)


# ---------------------------------------------------------------------------
# AC1: the log-sum-exp bound on the maximum logit


def test_ac01_logsumexp_bounds_the_max(report):
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    low = high = 0
    for k in range(2, 11):
        logits = rng.uniform(-50.0, 50.0, size=(100_000, k))
        lse = log_sum_exp(logits, axis=1)
        top = logits.max(axis=1)
        low += int(np.count_nonzero(lse < top))
        high += int(np.count_nonzero(lse > top + math.log(k)))
    elapsed = time.perf_counter() - start
    ok = low == 0 and high == 0 and elapsed < 5.0
    report("AC01", ok,
           f"- 9x100000 logit vectors, K=2..10: {low} lower / {high} upper "
           f"violations in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# AC2: analytic gradients vs central finite differences


def _mixed_sample(rng):
    scene = gen_scene(rng, SceneConfig(size=16), with_anomaly=False)
    cfg = AugmentConfig(scale_jitter_range=(0.8, 1.2), crop_size=8,
                        paste_count=2, num_classes=3)
    from hybridseg.data import augment, paste_negatives
    patches = gen_negative_patches(0, 4, (2, 4))
    crop = paste_negatives(augment(scene, cfg, rng), patches, cfg, rng)
    labels = crop.labels.copy()
    labels[0, :2] = IGNORE_LABEL
    return crop.image[None], labels[None]


def test_ac02_loss_gradients_match_finite_differences(report):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    images, labels = _mixed_sample(rng)
    params = init_params(NetworkConfig(input_channels=3, widths=(5, 7),
                                       num_classes=3, seed=2))
    buffers = [arr for name, arr in params.named_arrays() if "run_" in name]
    snapshot = [b.copy() for b in buffers]

    def restore():
        for buf, snap in zip(buffers, snapshot):
            buf[...] = snap

    worst = 0.0
    checked = 0
    for beta in (0.0, 0.03, 1.0):
        def loss_value():
            maps = forward(params, images, training=True)
            total, _ = compound_loss(maps.logits, maps.dataset_logit,
                                     labels, beta)
            restore()
            return float(total.value)

        maps = forward(params, images, training=True)
        total, _ = compound_loss(maps.logits, maps.dataset_logit,
                                 labels, beta)
        total.backward()
        restore()
        analytic = {name: (t.grad if t.grad is not None else np.zeros_like(t.value))
                    for name, t in params.trainable()}

        for name, tensor in params.trainable():
            arr = tensor.value
            flat_indices = rng.choice(arr.size, size=min(20, arr.size), replace=False)
            for flat in flat_indices:
                idx = np.unravel_index(flat, arr.shape)
                orig = arr[idx]
                arr[idx] = orig + 1e-5
                hi = loss_value()
                arr[idx] = orig - 1e-5
                lo = loss_value()
                arr[idx] = orig
                fd = (hi - lo) / 2e-5
                worst = max(worst, rel_err(analytic[name][idx], fd, floor=1e-6))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    report("AC02", ok,
           f"- {checked} coordinates, beta in {{0, 0.03, 1}}: worst relative "
           f"error {worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC3: ranking metrics vs brute-force oracles


def test_ac03_metrics_match_bruteforce_oracles(report):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        truth = np.zeros(n, dtype=bool)
        truth[: int(rng.integers(1, n))] = True
        rng.shuffle(truth)
        if trial % 2 == 0:
            scores = rng.integers(0, 12, size=n) / 3.0  # heavy ties
        else:
            scores = rng.normal(size=n)
        worst = max(worst, abs(average_precision(scores, truth)
                               - sweep_average_precision(scores, truth)))
        worst = max(worst, abs(auroc(scores, truth) - pairwise_auroc(scores, truth)))
        fpr, tau = fpr_at_tpr(scores, truth, 0.95)
        fpr_o, tau_o = sweep_fpr_at_tpr(scores, truth, 0.95)
        worst = max(worst, abs(fpr - fpr_o), abs(tau - tau_o))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    report("AC03", ok,
           f"- 1000 random score sets (N<=200, ties): max |difference| "
           f"{worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC4: oracle detector makes open-mIoU equal closed mIoU


def test_ac04_oracle_detector_identity(report):
    rng = np.random.default_rng(4)
    splits = gen_scenes(4, SceneConfig(size=32), {"val": 25, "test": 25})
    scenes = splits["val"] + splits["test"]
    open_cm = np.zeros((4, 4), dtype=np.int64)
    closed_cm = np.zeros((3, 3), dtype=np.int64)
    for scene in scenes:
        pred = rng.integers(0, 3, size=scene.labels.shape)
        oracle_scores = (scene.labels == 3).astype(float)
        fused = fuse_open_prediction(pred, oracle_scores, tau=0.5, num_classes=3)
        open_cm += open_confusion(fused, scene.labels, 3)
        closed_cm += closed_confusion(pred, scene.labels, 3)
    open_pc, open_mean = open_miou(open_cm)
    closed_pc, closed_mean = open_miou(np.pad(closed_cm, ((0, 1), (0, 1))))
    ok = open_mean == closed_mean and np.array_equal(open_pc, closed_pc, equal_nan=True)
    assert closed_mean == closed_miou(closed_cm)
    report("AC04", ok,
           f"- 50 scenes, random classifier + oracle detector: open-mIoU "
           f"{open_mean:.6f} == closed mIoU {closed_mean:.6f}")


# ---------------------------------------------------------------------------
# AC5: toy benchmark ordering over 5 seeds


@pytest.fixture(scope="module")
def toy_runs():
    runs = []
    for seed in range(5):
        start = time.perf_counter()
        results, _, _ = run_toy_seed(seed, n_per_role=200, widths=(32, 32),
                                     steps=300, beta=0.2, lr=0.01, lr_end=1e-4)
        elapsed = time.perf_counter() - start
        _note(f"[toy-benchmark] seed {seed}: "
              + " ".join(f"{v}={results[v]['auroc']:.3f}" for v in SCORE_VARIANTS)
              + f" ({elapsed:.0f}s)")
        runs.append((results, elapsed))
    return runs


def test_ac05_toy_hybrid_beats_its_parts(report, toy_runs):
    med = {v: statistics.median(r[v]["auroc"] for r, _ in toy_runs)
           for v in SCORE_VARIANTS}
    med_unseen = {v: statistics.median(r[v]["auroc_unseen"] for r, _ in toy_runs)
                  for v in SCORE_VARIANTS}
    slowest = max(elapsed for _, elapsed in toy_runs)
    ok = (med["hybrid"] >= med["discriminative"]
          and med["hybrid"] >= med["generative"] - 0.02
          and med_unseen["hybrid"] >= med_unseen["discriminative"] + 0.05
          and slowest < 120.0)
    report("AC05", ok,
           f"- median AUROC hybrid {med['hybrid']:.4f} vs discriminative "
           f"{med['discriminative']:.4f}, generative {med['generative']:.4f}; "
           f"unseen modes {med_unseen['hybrid']:.4f} vs "
           f"{med_unseen['discriminative']:.4f} (+0.05 required); "
           f"slowest seed {slowest:.0f}s")


# ---------------------------------------------------------------------------
# AC6 + AC7: trained scene benchmark (shared fixture)

SCENE_WIDTHS = (16, 32, 32)
SCENE_EPOCHS, SCENE_BATCHES, SCENE_BATCH = 12, 25, 4


def _scene_run(seed, beta):
    splits = gen_scenes(seed, SceneConfig(), {"train": 40, "test": 10})
    paste_count = 2 if beta > 0 else 0
    patches = gen_negative_patches(seed, 64) if paste_count else []
    aug = AugmentConfig(crop_size=64, paste_count=paste_count, num_classes=3)
    params = init_params(NetworkConfig(input_channels=3, widths=SCENE_WIDTHS,
                                       num_classes=3, seed=seed))
    steps = SCENE_EPOCHS * SCENE_BATCHES
    tcfg = TrainConfig(
        epochs=SCENE_EPOCHS, batches_per_epoch=SCENE_BATCHES, beta=beta, seed=seed,
        schedule=LrSchedule(kind="cosine", lr_start=3e-3, lr_end=0.0,
                            total_steps=steps))
    params, history = train(
        params, lambda rng: mixed_batch(splits["train"], patches, aug, rng,
                                        SCENE_BATCH), tcfg)

    truth, maps = [], {v: [] for v in SCORE_VARIANTS}
    cm = np.zeros((3, 3), dtype=np.int64)
    for scene in splits["test"]:
        bundle = score_image(params, scene.image)
        truth.append((scene.labels == 3).ravel())
        for v in SCORE_VARIANTS:
            maps[v].append(bundle.variant(v).ravel())
        cm += closed_confusion(bundle.argmax, scene.labels, 3)
    truth = np.concatenate(truth)
    ap = {v: average_precision(np.concatenate(maps[v]), truth)
          for v in SCORE_VARIANTS}
    return ap, closed_miou(cm), history


@pytest.fixture(scope="module")
def scene_runs():
    runs = {}
    for seed in range(5):
        for beta in (0.03, 0.0):
            start = time.perf_counter()
            ap, miou, history = _scene_run(seed, beta)
            _note(f"[scene-benchmark] seed {seed} beta {beta}: "
                  + " ".join(f"{v}={ap[v]:.3f}" for v in SCORE_VARIANTS)
                  + f" miou={miou:.3f} ({time.perf_counter() - start:.0f}s)")
            runs[(seed, beta)] = (ap, miou, history, time.perf_counter() - start)
    return runs


def test_ac06_scene_hybrid_ap_ordering(report, scene_runs):
    med = {v: statistics.median(scene_runs[(s, 0.03)][0][v] for s in range(5))
           for v in SCORE_VARIANTS}
    slowest = max(scene_runs[(s, 0.03)][3] for s in range(5))
    ok = (med["hybrid"] >= med["generative"] - 0.01
          and med["hybrid"] > med["discriminative"]
          and slowest < 600.0)
    report("AC06", ok,
           f"- median AP over 5 seeds: hybrid {med['hybrid']:.4f} >= "
           f"generative {med['generative']:.4f} - 0.01 and > discriminative "
           f"{med['discriminative']:.4f}; slowest seed {slowest:.0f}s")


def test_ac07_closed_miou_within_three_points_of_baseline(report, scene_runs):
    with_negatives = statistics.median(scene_runs[(s, 0.03)][1] for s in range(5))
    baseline = statistics.median(scene_runs[(s, 0.0)][1] for s in range(5))
    for seed in range(5):
        history = scene_runs[(seed, 0.0)][2]
        assert all(h.posterior_out == 0.0 and h.likelihood_out == 0.0
                   for h in history), "baseline run saw outlier loss terms"
    delta = abs(with_negatives - baseline)
    ok = delta <= 0.03
    report("AC07", ok,
           f"- median closed mIoU {with_negatives:.4f} (beta=0.03) vs "
           f"{baseline:.4f} (beta=0): |delta| {delta:.4f} <= 0.03")


# ---------------------------------------------------------------------------
# AC8: monotone transforms leave ranking metrics unchanged


def test_ac08_monotone_transform_invariance(report):
    rng = np.random.default_rng(8)
    scores = np.round(rng.normal(size=400), 1)  # ties
    truth = rng.uniform(size=400) < 0.25
    truth[:2] = [True, False]
    base = (average_precision(scores, truth), auroc(scores, truth),
            fpr_at_tpr(scores, truth)[0])
    worst = 0.0
    for i in range(10):
        kind = i % 3
        if kind == 0:
            a, b = rng.uniform(0.1, 5.0), rng.uniform(-10, 10)
            warped = a * scores + b
        elif kind == 1:
            warped = np.exp((scores - rng.uniform(-1, 1)) / rng.uniform(1.0, 3.0))
        else:
            warped = scores**3 + rng.uniform(0.1, 2.0) * scores
        now = (average_precision(warped, truth), auroc(warped, truth),
               fpr_at_tpr(warped, truth)[0])
        worst = max(worst, max(abs(x - y) for x, y in zip(base, now)))
    ok = worst <= 1e-9
    report("AC08", ok,
           f"- 10 strictly increasing transforms: max metric shift {worst:.2e}")


# ---------------------------------------------------------------------------
# AC9: two-fold protocol vs a hand trace


def test_ac09_two_fold_protocol_hand_trace(report):
    # fold A: one 4-pixel image; fold B: two 3-pixel images (10 pixels total)
    gt = np.array([0, 1, 2, 2] + [0, 2, 1] + [1, 0, 2])
    scores = np.array([0.1, 0.4, 0.8, 0.6] + [0.2, 0.9, 0.3] + [0.5, 0.05, 0.7])
    preds = np.array([0, 1, 0, 1] + [0, 1, 1] + [1, 0, 0], dtype=np.uint8)
    image_sizes = [4, 3, 3]
    # hand trace: tau_A = 0.6 (both A positives admitted), tau_B = 0.7.
    # A at tau_B: px3 -> outlier, px4 -> argmax 1;
    #   class0 IoU 1/1, class1 IoU 1/2 -> score_A = 0.75
    # B at tau_A: every anomaly flagged, no false flags -> score_B = 1.0
    score_a, score_b = 0.75, 1.0
    expected = (1 * score_a + 2 * score_b) / 3
    got = two_fold_open_eval(preds, scores, gt, image_sizes, num_classes=2)
    ok = got == expected
    report("AC09", ok,
           f"- 10-pixel hand trace: got {got!r}, expected (1*0.75 + 2*1.0)/3 "
           f"= {expected!r}")


# ---------------------------------------------------------------------------
# AC10: bit-exact round trips and config-driven reruns


def test_ac10_bit_exact_io_and_reruns(report, tmp_path):
    rng = np.random.default_rng(10)
    failures = []

    image = rng.integers(0, 256, size=(11, 7, 3), dtype=np.uint8)
    write_ppm(tmp_path / "a.ppm", image)
    write_ppm(tmp_path / "b.ppm", read_ppm(tmp_path / "a.ppm"))
    if (tmp_path / "a.ppm").read_bytes() != (tmp_path / "b.ppm").read_bytes():
        failures.append("ppm")

    raster = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
    write_pgm(tmp_path / "a.pgm", raster)
    write_pgm(tmp_path / "b.pgm", read_pgm(tmp_path / "a.pgm"))
    if (tmp_path / "a.pgm").read_bytes() != (tmp_path / "b.pgm").read_bytes():
        failures.append("pgm")

    scores = rng.normal(size=(6, 8)).astype(np.float32)
    write_score_raster(tmp_path / "a.dhsc", scores)
    write_score_raster(tmp_path / "b.dhsc", read_score_raster(tmp_path / "a.dhsc"))
    if (tmp_path / "a.dhsc").read_bytes() != (tmp_path / "b.dhsc").read_bytes():
        failures.append("score-raster")

    params = init_params(NetworkConfig(input_channels=3, widths=(4, 5),
                                       num_classes=3, seed=1))
    save_checkpoint(tmp_path / "a.dhck", params, step=17)
    loaded, step = load_checkpoint(tmp_path / "a.dhck")
    save_checkpoint(tmp_path / "b.dhck", loaded, step=step)
    if (tmp_path / "a.dhck").read_bytes() != (tmp_path / "b.dhck").read_bytes():
        failures.append("checkpoint")

    runner = CliRunner()
    out = tmp_path / "data"
    args = ["synth", "--out", str(out), "--seed", "5", "--scene-size", "32",
            "--train-count", "2", "--val-count", "1", "--test-count", "1",
            "--toy-points", "100"]
    assert runner.invoke(cli_main, args).exit_code == 0
    snapshot = {p.relative_to(out): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}
    sidecar = tmp_path / "saved.ini"
    sidecar.write_bytes((out / "config.resolved.ini").read_bytes())
    import shutil
    shutil.rmtree(out)
    assert runner.invoke(cli_main, ["synth", "--config", str(sidecar)]).exit_code == 0
    rerun = {p.relative_to(out): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    if snapshot != rerun:
        failures.append("config-rerun")

    ok = not failures
    report("AC10", ok,
           "- ppm/pgm/score-raster/checkpoint round trips and sidecar rerun "
           "all byte-identical" if ok else f"- failed: {', '.join(failures)}")
