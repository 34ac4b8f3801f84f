"""The benchmark's three workloads, each a closed loop with a single caller.

A workload has a set-up, repeated to time it, and passes over one operation
kind, repeated until the run's time is up. Each pass calls the package only
through its public entry points and checks what it produced; a failed check
counts toward the run's error rate. The inputs come from the run's seed.

* ``scene-train``: the AC06 configuration for 40 steps per pass. conv2d and
  batch_norm forward and backward dominate a step.
* ``scene-score-eval``: ``run_score`` then ``run_eval`` over 100 test scenes.
  Forward only, raster writes and reads, ranking metrics; no backward, Adam
  or augmentation.
* ``toy-2d``: one ``run_toy_seed`` per pass on 1x32x600x1 tensors with a 1x1
  kernel, so the fixed cost per autodiff op dominates and a conv-kernel
  change should leave it unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hybridseg import config as cfgmod
from hybridseg.cli import run_eval, run_score, run_synth, run_toy_seed, run_train, toy_grid_batch
from hybridseg.data import (
    AugmentConfig,
    SceneConfig,
    gen_negative_patches,
    gen_scenes,
    gen_toy2d,
    mixed_batch,
)
from hybridseg.inference import SCORE_VARIANTS, score_image
from hybridseg.labels import IGNORE_LABEL
from hybridseg.metrics import average_precision
from hybridseg.network import NetworkConfig, init_params
from hybridseg.optim import LrSchedule
from hybridseg.rasters import read_manifest, read_pgm, read_score_raster
from hybridseg.train import TrainConfig, train


@dataclass
class Checks:
    """Output checks of one run; ``failures`` holds one line per failed check."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class PassResult:
    samples: list[float]          # seconds per operation
    digest: str                   # bytes the pass produced, for rerun checks
    recorded: dict = field(default_factory=dict)
    identity_mismatch_px: int = 0


def identity_mismatch(hybrid, generative, discriminative) -> int:
    """Pixels where hybrid != generative + discriminative exactly, in the
    maps' own dtype."""
    return int(np.count_nonzero(np.asarray(hybrid)
                                != np.asarray(generative) + np.asarray(discriminative)))


def identity_check(checks: Checks, hybrid, generative, discriminative, what: str) -> int:
    """Check float32 rasters read back: hybrid == generative + discriminative
    to 1 ulp. Returns the number of pixels where the identity is not exact.

    In memory the maps are float64 and hybrid is ``disc - ll``, which equals
    ``(-ll) + disc`` bit for bit, so only the rasters are checked.
    """
    h = np.asarray(hybrid)
    s = np.asarray(generative) + np.asarray(discriminative)
    finite = np.isfinite(h).all() and np.isfinite(s).all()
    ulp = np.spacing(np.maximum(np.abs(h), np.abs(s)))
    checks.check(bool(finite and np.all(np.abs(h - s) <= ulp)),
                 f"{what}: hybrid differs from generative + discriminative by more than 1 ulp")
    return identity_mismatch(h, generative, discriminative)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _arrays_digest(arrays) -> str:
    return _digest(*(np.ascontiguousarray(a).tobytes() for a in arrays if a is not None))


def _finite_history(checks: Checks, history, what: str) -> None:
    for epoch, b in enumerate(history):
        values = (b.cls, b.posterior_in, b.posterior_out, b.likelihood_out, b.total)
        checks.check(all(math.isfinite(v) for v in values), f"{what}: non-finite loss in epoch {epoch}")


class Workload:
    """Defaults shared by the workloads below."""

    seed: int
    setup_repeats = 3          # set-ups before the first pass
    setup_between_passes = 0   # set-ups after each pass
    # op_s.tail: p90 where a run has a hundred operations or more; with a few
    # dozen or fewer p90 rests on the two or three slowest, so p75 is used.
    tail_percentile = 75

    def pass_seed(self, index: int, traced_pairs: bool) -> int:
        return self.seed

    def setup_digest(self, state) -> str:
        """Digest of what a set-up produced, taken after it is timed."""
        raise NotImplementedError

    def check_setup(self, state, checks: Checks) -> None:
        pass

    def counts_toward_op(self, span) -> bool:
        return True


class SceneTrain(Workload):
    """AC06 configuration; a pass trains 40 steps from a fresh init, then scores
    the test scenes. The operation is one train step, timed as the interval
    between successive ``make_batch`` calls."""

    name = "scene-train"
    op_name = "train step"
    op_metric = "train_step_s"
    setup_between_passes = 3
    tail_percentile = 90

    def __init__(self, seed: int, workdir: Path, train_count=40, test_count=10,
                 size=64, patch_count=64, crop=64, batch=4, widths=(16, 32, 32),
                 epochs=2, batches_per_epoch=20):
        self.seed = seed
        self.counts = {"train": train_count, "test": test_count}
        self.size, self.patch_count, self.crop, self.batch = size, patch_count, crop, batch
        self.net = NetworkConfig(input_channels=3, widths=widths, num_classes=3, seed=seed)
        steps = epochs * batches_per_epoch
        self.tcfg = TrainConfig(
            epochs=epochs, batches_per_epoch=batches_per_epoch, beta=0.03, seed=seed,
            schedule=LrSchedule(kind="cosine", lr_start=3e-3, lr_end=0.0, total_steps=steps))

    def setup(self, index: int):
        splits = gen_scenes(self.seed, SceneConfig(size=self.size), self.counts)
        patches = gen_negative_patches(self.seed, self.patch_count)
        aug = AugmentConfig(crop_size=self.crop, paste_count=2, num_classes=3)
        return {"train": splits["train"], "test": splits["test"], "patches": patches,
                "aug": aug}

    def setup_digest(self, state) -> str:
        return _arrays_digest([a for sc in state["train"] + state["test"]
                               for a in (sc.image, sc.labels, sc.roles, sc.distance)]
                              + [a for p in state["patches"] for a in (p.image, p.alpha)])

    def counts_toward_op(self, span) -> bool:
        return not span.op.endswith("/score")

    def run_pass(self, state, index: int, seed: int, tracer, checks: Checks) -> PassResult:
        params = init_params(self.net)
        stamps = []

        def make_batch(rng):
            stamps.append(perf_counter())
            if tracer is not None:
                tracer.set_op(f"pass-{index}/step-{len(stamps) - 1}")
            return mixed_batch(state["train"], state["patches"], state["aug"], rng, self.batch)

        params, history = train(params, make_batch, self.tcfg)
        stamps.append(perf_counter())
        _finite_history(checks, history, f"pass {index}")

        if tracer is not None:
            tracer.set_op(f"pass-{index}/score")
        start = perf_counter()
        bundles = [score_image(params, scene.image) for scene in state["test"]]
        score_s = perf_counter() - start
        truth = np.concatenate([(scene.labels == 3).ravel() for scene in state["test"]])
        maps = {v: np.concatenate([b.variant(v).ravel() for b in bundles]) for v in SCORE_VARIANTS}
        checks.check(all(np.isfinite(m).all() for m in maps.values()), f"pass {index}: non-finite scores")
        ap = {v: average_precision(maps[v], truth) for v in SCORE_VARIANTS}
        # quality floor: better than ranking pixels at random
        checks.check(ap["hybrid"] > truth.mean(),
                     f"pass {index}: hybrid AP {ap['hybrid']:.4f} not above prevalence {truth.mean():.4f}")
        mismatch = identity_mismatch(maps["hybrid"], maps["generative"], maps["discriminative"])
        digest = _digest(*(np.ascontiguousarray(a, dtype="<f8").tobytes()
                           for _, a in params.named_arrays()))
        return PassResult(
            samples=list(np.diff(stamps)), digest=digest, identity_mismatch_px=mismatch,
            recorded={"scene_ap_hybrid": ap["hybrid"], "scene_ap_generative": ap["generative"],
                      "scene_ap_discriminative": ap["discriminative"],
                      "test_images_per_s": len(bundles) / score_s,
                      "final_loss": history[-1].total})

    def report(self, passes: list[PassResult]) -> list[tuple[str, float, str, str]]:
        last = passes[-1].recorded
        return [("scene_ap_hybrid", last["scene_ap_hybrid"], "",
                 "deterministic per seed; recorded, not bounded"),
                ("scene_ap_generative", last["scene_ap_generative"], "", "recorded"),
                ("scene_ap_discriminative", last["scene_ap_discriminative"], "", "recorded"),
                ("test_images_per_s", float(np.median([p.recorded["test_images_per_s"] for p in passes])),
                 "1/s", f"score_image after training, median of {len(passes)} passes")]


class SceneScoreEval(Workload):
    """Set-up synthesizes the test split and trains a short checkpoint through
    the CLI entry points; a pass is ``run_score`` then ``run_eval``."""

    name = "scene-score-eval"
    op_name = "score+eval pass"
    op_metric = "score_eval_pass_s"

    def __init__(self, seed: int, workdir: Path, test_count=100, train_count=40,
                 widths="16,32,32", train_batches=24, batch=4, crop=32, size=64):
        self.seed, self.workdir = seed, workdir
        self.test_count = test_count
        self.synth = {"seed": seed, "train_count": train_count, "val_count": 0,
                      "test_count": test_count, "scene_size": size}
        self.train = {"seed": seed, "widths": widths, "epochs": 1,
                      "batches_per_epoch": train_batches, "batch_size": batch,
                      "crop_size": crop}

    def setup(self, index: int):
        root = self.workdir / f"setup-{index}"
        if root.exists():
            shutil.rmtree(root)
        data, run, scores = root / "data", root / "run", root / "scores"
        with contextlib.redirect_stdout(io.StringIO()):
            run_synth(cfgmod.resolve("synth", None, dict(self.synth, out=str(data))))
            run_train(cfgmod.resolve("train", None, dict(
                self.train, data=str(data / "scenes" / "manifest.csv"), out=str(run))))
        manifest = data / "scenes" / "manifest.csv"
        return {
            "root": root, "manifest": manifest, "scores": scores,
            "train_log": run / "train_log.csv", "checkpoint": run / "checkpoint.dhck",
            "score": cfgmod.resolve("score", None, {
                "checkpoint": str(run / "checkpoint.dhck"), "data": str(manifest),
                "out": str(scores)}),
            "eval": cfgmod.resolve("eval", None, {
                "data": str(manifest), "scores": str(scores), "out": str(root / "metrics.csv"),
                "bins": "5,20,50", "two_fold": "true"}),
        }

    def setup_digest(self, state) -> str:
        return _digest(state["checkpoint"].read_bytes())

    def check_setup(self, state, checks: Checks) -> None:
        with open(state["train_log"], newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        checks.check(bool(rows) and all(math.isfinite(float(v)) for r in rows
                                        for k, v in r.items() if k != "epoch"),
                     "set-up training log has a non-finite loss")

    def counts_toward_op(self, span) -> bool:
        return not span.op.endswith("/check")

    def run_pass(self, state, index: int, seed: int, tracer, checks: Checks) -> PassResult:
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            run_score(state["score"])
            mid = perf_counter()
            run_eval(state["eval"])
            end = perf_counter()

        if tracer is not None:
            # the outputs are read back below; those reads are not the pass's
            tracer.set_op(f"pass-{index}/check")
        stems = sorted(p.name[:-len("_hybrid.dhsc")] for p in state["scores"].glob("*_hybrid.dhsc"))
        checks.check(len(stems) == self.test_count,
                     f"pass {index}: {len(stems)} scored images, expected {self.test_count}")
        mismatch = 0
        hybrid = {}
        for stem in stems:
            maps = {v: read_score_raster(state["scores"] / f"{stem}_{v}.dhsc") for v in SCORE_VARIANTS}
            hybrid[stem] = maps["hybrid"]
            mismatch += identity_check(checks, maps["hybrid"], maps["generative"],
                                       maps["discriminative"], f"pass {index} {stem}")
        metrics_csv = Path(state["eval"]["out"])
        with open(metrics_csv, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        # closed mIoU, then per variant AP, AUROC, FPR95, open mIoU and two
        # distance bins of AP and FPR95; every bin of 100 scenes has anomalies
        checks.check(len(rows) == 1 + len(SCORE_VARIANTS) * 8,
                     f"pass {index}: metrics.csv has {len(rows)} rows")
        for r in rows:
            checks.check(r["status"] == "ok",
                         f"pass {index}: {r['metric']} {r['bin']} status {r['status']}")
        files = sorted(p for p in state["scores"].iterdir() if p.suffix in (".dhsc", ".pgm"))
        digest = _digest(*(p.name.encode() + p.read_bytes() for p in files),
                         metrics_csv.read_bytes())
        ap = next(float(r["value"]) for r in rows if r["metric"] == "ap/hybrid" and not r["bin"])
        # quality floor: the pooled hybrid scores of the evaluated pixels do
        # not all tie, and rank anomalies better than random
        truth, pooled = [], []
        for row in read_manifest(state["manifest"]):
            if row.split == state["eval"]["split"]:
                gt = read_pgm(state["manifest"].parent / row.label)
                keep = gt != IGNORE_LABEL
                truth.append((gt == state["eval"]["num_classes"])[keep])
                pooled.append(hybrid[Path(row.image).stem][keep])
        truth, pooled = np.concatenate(truth), np.concatenate(pooled)
        checks.check(bool(np.ptp(pooled) > 0), f"pass {index}: every hybrid score ties")
        checks.check(ap > truth.mean(),
                     f"pass {index}: hybrid AP {ap:.4f} not above prevalence {truth.mean():.4f}")
        return PassResult(
            samples=[end - start], digest=digest, identity_mismatch_px=mismatch,
            recorded={"score_images_per_s": len(stems) / (mid - start), "eval_s": end - mid,
                      "ap_hybrid": ap})

    def report(self, passes: list[PassResult]) -> list[tuple[str, float, str, str]]:
        n = len(passes)
        return [("score_images_per_s", float(np.median([p.recorded["score_images_per_s"] for p in passes])),
                 "1/s", f"run_score over {self.test_count} images, median of {n} passes"),
                ("eval_s", float(np.median([p.recorded["eval_s"] for p in passes])), "s",
                 f"run_eval per split, median of {n} passes"),
                ("ap_hybrid", passes[-1].recorded["ap_hybrid"], "",
                 "from metrics.csv; deterministic per seed; recorded, not bounded")]


class Toy2D(Workload):
    """``run_toy_seed`` at the ``toy`` defaults on successive seeds.

    Set-up builds the first seed's point sets and model, which every pass
    rebuilds inside ``run_toy_seed``; there is nothing else to prepare."""

    name = "toy-2d"
    op_name = "toy seed"
    op_metric = "toy_seed_s"
    setup_repeats = 10
    setup_between_passes = 10

    def __init__(self, seed: int, workdir: Path, n_per_role=200, widths=(32, 32), steps=300):
        self.seed = seed
        self.n_per_role, self.widths, self.steps = n_per_role, widths, steps

    def pass_seed(self, index: int, traced_pairs: bool) -> int:
        # traced runs repeat each seed untraced then traced, to measure overhead
        return self.seed + (index // 2 if traced_pairs else index)

    def setup(self, index: int):
        train_set, test_set = gen_toy2d(self.seed, self.n_per_role)
        init_params(NetworkConfig(input_channels=2, widths=self.widths, num_classes=2,
                                  kernel_size=1, seed=self.seed))
        toy_grid_batch(train_set.points, train_set.class_labels, train_set.roles)
        return {"point_sets": (train_set, test_set)}

    def setup_digest(self, state) -> str:
        return _arrays_digest([a for ps in state["point_sets"]
                               for a in (ps.points, ps.class_labels, ps.roles, ps.unseen)])

    def run_pass(self, state, index: int, seed: int, tracer, checks: Checks) -> PassResult:
        start = perf_counter()
        results, point_scores, test_set = run_toy_seed(
            seed, self.n_per_role, self.widths, self.steps, 0.2, 0.01, 1e-4)
        elapsed = perf_counter() - start
        if seed == self.seed:
            checks.check(np.array_equal(test_set.points, state["point_sets"][1].points),
                         f"seed {seed}: test points differ from the set-up's")
        values = [x for r in results.values() for x in r.values()]
        checks.check(all(0.0 <= x <= 1.0 for x in values), f"seed {seed}: metric outside [0, 1]")
        checks.check(all(np.isfinite(s).all() for s in point_scores.values()),
                     f"seed {seed}: non-finite scores")
        checks.check(results["hybrid"]["auroc"] > 0.5,
                     f"seed {seed}: hybrid AUROC {results['hybrid']['auroc']:.4f} not above chance")
        mismatch = identity_mismatch(point_scores["hybrid"], point_scores["generative"],
                                     point_scores["discriminative"])
        digest = _digest(*(point_scores[v].astype("<f8").tobytes() for v in SCORE_VARIANTS))
        return PassResult(samples=[elapsed], digest=digest, identity_mismatch_px=mismatch,
                          recorded={"toy_auroc_hybrid": results["hybrid"]["auroc"]})

    def report(self, passes: list[PassResult]) -> list[tuple[str, float, str, str]]:
        aurocs = [p.recorded["toy_auroc_hybrid"] for p in passes]
        return [("toy_auroc_hybrid", float(np.median(aurocs)), "",
                 f"median over {len(aurocs)} seeds (AC05's quantity); recorded, not bounded")]


WORKLOADS = {w.name: w for w in (SceneTrain, SceneScoreEval, Toy2D)}
