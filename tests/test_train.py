import gc
import math

import numpy as np
import pytest

from hybridseg.data import (
    AugmentConfig,
    SceneConfig,
    gen_negative_patches,
    gen_scene,
    mixed_batch,
)
from hybridseg.errors import ContractViolation, TrainingDiverged
from hybridseg.inference import SCORE_VARIANTS, score_image
from hybridseg.labels import IGNORE_LABEL
from hybridseg.losses import LossBreakdown, compound_loss
from hybridseg.network import NetworkConfig, forward, init_params
from hybridseg.optim import Adam, LrSchedule
from hybridseg.train import TrainConfig, _epoch_mean, train

NET = NetworkConfig(input_channels=3, widths=(4, 6), num_classes=3, seed=0)


def scene_batcher(seed=0, batch_size=2, paste_count=1):
    scenes = [gen_scene(np.random.default_rng(i + 100), SceneConfig(size=16), False)
              for i in range(3)]
    patches = gen_negative_patches(seed, 6, (3, 5))
    cfg = AugmentConfig(scale_jitter_range=(0.8, 1.2), crop_size=16,
                        paste_count=paste_count)

    def make_batch(rng):
        return mixed_batch(scenes, patches, cfg, rng, batch_size)

    return make_batch


def params_equal(a, b):
    for (name_a, arr_a), (name_b, arr_b) in zip(a.named_arrays(), b.named_arrays()):
        assert name_a == name_b
        if not np.array_equal(arr_a, arr_b):
            return False
    return True


def trainable_equal(a, b):
    return all(np.array_equal(ta.value, tb.value)
               for (_, ta), (_, tb) in zip(a.trainable(), b.trainable()))


class TestTrainLoop:
    def test_loss_decreases_on_small_problem(self):
        params = init_params(NET)
        cfg = TrainConfig(epochs=4, batches_per_epoch=5, beta=0.03, seed=0,
                          schedule=LrSchedule(kind="constant", lr_start=3e-3))
        _, history = train(params, scene_batcher(), cfg)
        assert len(history) == 4
        assert history[-1].total < history[0].total
        assert history[-1].cls < history[0].cls

    def test_bit_identical_reruns(self):
        runs = []
        for _ in range(2):
            params = init_params(NET)
            cfg = TrainConfig(epochs=2, batches_per_epoch=3, seed=5)
            _, history = train(params, scene_batcher(), cfg)
            runs.append((params, [h.total for h in history]))
        assert runs[0][1] == runs[1][1]
        assert params_equal(runs[0][0], runs[1][0])

    def test_different_seed_changes_the_run(self):
        totals = []
        for seed in (0, 1):
            params = init_params(NET)
            cfg = TrainConfig(epochs=1, batches_per_epoch=3, seed=seed)
            _, history = train(params, scene_batcher(), cfg)
            totals.append(history[0].total)
        assert totals[0] != totals[1]

    def test_zero_beta_treats_outliers_like_ignore(self):
        # with beta = 0 the outlier terms carry zero weight, so relabeling
        # outlier pixels as ignore must not change a single bit
        def batch_with_labels(as_ignore):
            base = scene_batcher(paste_count=1)

            def make_batch(rng):
                images, labels = base(rng)
                if as_ignore:
                    labels = np.where(labels == NET.num_classes, IGNORE_LABEL, labels)
                return images, labels

            return make_batch

        results = []
        for as_ignore in (False, True):
            params = init_params(NET)
            cfg = TrainConfig(epochs=2, batches_per_epoch=3, beta=0.0, seed=2)
            _, history = train(params, batch_with_labels(as_ignore), cfg)
            results.append((params, history))
        assert params_equal(results[0][0], results[1][0])
        assert results[0][1][0].outlier_pixels > 0
        assert results[1][1][0].outlier_pixels == 0

    def test_divergence_keeps_last_finite_epoch(self):
        clean = init_params(NET)
        cfg_one = TrainConfig(epochs=1, batches_per_epoch=3, seed=7)
        train(clean, scene_batcher(), cfg_one)

        calls = {"n": 0}
        base = scene_batcher()

        def poisoned(rng):
            calls["n"] += 1
            images, labels = base(rng)
            if calls["n"] > 3:  # first epoch stays clean
                images = images.copy()
                images[0, 0, 0, 0] = np.nan
            return images, labels

        params = init_params(NET)
        cfg = TrainConfig(epochs=3, batches_per_epoch=3, seed=7)
        with pytest.raises(TrainingDiverged) as exc_info:
            train(params, poisoned, cfg)
        diverged = exc_info.value
        assert len(diverged.history) == 1
        assert params_equal(diverged.last_good_params, clean)

    def test_zero_lr_resume_point_freezes_parameters(self):
        schedule = LrSchedule(kind="cosine", lr_start=0.1, lr_end=0.0, total_steps=3)
        params = init_params(NET)
        before = params.copy()
        cfg = TrainConfig(epochs=1, batches_per_epoch=3, schedule=schedule,
                          start_step=3)  # schedule already finished
        train(params, scene_batcher(), cfg)
        # weights see zero learning rate; only BN running stats may move
        assert trainable_equal(params, before)

        fresh = init_params(NET)
        start = fresh.copy()
        train(fresh, scene_batcher(),
              TrainConfig(epochs=1, batches_per_epoch=3, schedule=schedule))
        assert not trainable_equal(fresh, start)

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            TrainConfig(epochs=0, batches_per_epoch=1)
        with pytest.raises(ContractViolation):
            TrainConfig(epochs=1, batches_per_epoch=1, beta=-0.1)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ContractViolation, match="beta must be finite and >= 0"):
            TrainConfig(epochs=1, batches_per_epoch=1, beta=beta)

    def test_epoch_mean_averages_terms_and_sums_pixel_counts(self):
        parts = [LossBreakdown(1.0, 2.0, 3.0, 4.0, 5.0, 10, 20, 30),
                 LossBreakdown(2.0, 4.0, 6.0, 8.0, 10.0, 1, 2, 3)]
        assert _epoch_mean(parts) == LossBreakdown(1.5, 3.0, 4.5, 6.0, 7.5, 11, 22, 33)


class TestStepDtypes:
    """Training runs in the batch's dtype; the model and Adam's state stay float64."""

    @staticmethod
    def step(images, labels):
        params = init_params(NET)
        opt = Adam([t for _, t in params.trainable()], LrSchedule(kind="constant", lr_start=1e-3))
        maps = forward(params, images, training=True)
        total, _ = compound_loss(maps.logits, maps.dataset_logit, labels, 0.03)
        total.backward()
        grads = {name: t.grad for name, t in params.trainable()}
        opt.step()
        return params, opt, maps, grads

    def test_float32_batch_gives_float32_graph_and_float64_state(self):
        images, labels = scene_batcher()(np.random.default_rng(3))
        assert images.dtype == np.float32
        params, opt, maps, grads = self.step(images, labels)
        assert maps.logits.value.dtype == np.float32
        assert maps.dataset_logit.value.dtype == np.float32
        assert {name: g.dtype for name, g in grads.items()} == dict.fromkeys(grads, np.float32)
        arrays = dict(params.named_arrays())
        assert any(".run_" in name for name in arrays)
        assert {name: a.dtype for name, a in arrays.items()} == dict.fromkeys(arrays, np.float64)
        assert all(a.dtype == np.float64 for a in opt.m + opt.v)

    def test_float64_batch_keeps_float64_gradients(self):
        # what keeps the AC02 gradient check exact
        images, labels = scene_batcher()(np.random.default_rng(3))
        _, _, maps, grads = self.step(images.astype(np.float64), labels)
        assert maps.logits.value.dtype == np.float64
        assert all(g.dtype == np.float64 for g in grads.values())


class TestScoreImage:
    IMAGE = np.random.default_rng(0).uniform(size=(3, 8, 9))

    def test_shapes_and_variant_accessor(self):
        bundle = score_image(init_params(NET), self.IMAGE)
        assert bundle.argmax.shape == (8, 9)
        for name in SCORE_VARIANTS:
            assert bundle.variant(name).shape == (8, 9)
        with pytest.raises(KeyError):
            bundle.variant("energy")

    def test_hybrid_is_the_sum_of_the_parts(self):
        bundle = score_image(init_params(NET), self.IMAGE)
        np.testing.assert_array_equal(
            bundle.hybrid, bundle.discriminative + bundle.generative)

    def test_fresh_model_scores_are_flat(self):
        # zero-initialized heads: logits all 0, dataset posterior 1/2; the
        # maps are float32, so each is within 1 float32 ulp of the exact value
        bundle = score_image(init_params(NET), self.IMAGE)
        for got, want in ((bundle.generative, -math.log(3)),
                          (bundle.discriminative, math.log(0.5))):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=0, atol=np.spacing(np.float32(abs(want))))

    def test_argmax_matches_posterior(self):
        params = init_params(NET)
        train(params, scene_batcher(), TrainConfig(epochs=1, batches_per_epoch=3))
        bundle = score_image(params, self.IMAGE)
        logits = forward(params, self.IMAGE[None]).logits[0]
        np.testing.assert_array_equal(bundle.argmax, logits.argmax(axis=0))
        # the softmax is monotone, so the class posterior has the same argmax
        e = np.exp(logits - logits.max(axis=0))
        np.testing.assert_array_equal(bundle.argmax, (e / e.sum(axis=0)).argmax(axis=0))
        assert np.all(bundle.discriminative < 0.0)  # log of a probability

    def test_argmax_tie_takes_lowest_class(self):
        params = init_params(NET)  # zero classifier weights: logits = bias
        params["cls.b"].value[...] = [1.0, 3.0, 3.0]
        bundle = score_image(params, self.IMAGE)
        np.testing.assert_array_equal(bundle.argmax, 1)
        params["cls.b"].value[...] = 2.5
        np.testing.assert_array_equal(score_image(params, self.IMAGE).argmax, 0)

    def test_scoring_leaves_no_reference_cycles(self):
        # score_image builds no autodiff graph: plain refcounting must free
        # everything it allocates, leaving nothing for the collector
        params = init_params(NET)
        gc.collect()
        gc.disable()
        try:
            score_image(params, np.random.default_rng(1).uniform(size=(3, 64, 64)))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_training_step_leaves_no_reference_cycles(self):
        # backward releases every node it walks and no closure captures its
        # own output, so refcounting frees the whole step's graph
        params = init_params(NET)
        images, labels = scene_batcher()(np.random.default_rng(2))
        gc.collect()
        gc.disable()
        try:
            maps = forward(params, images, training=True)
            total, _ = compound_loss(maps.logits, maps.dataset_logit, labels, 0.03)
            total.backward()
            del maps, total
            assert gc.collect() == 0
        finally:
            gc.enable()
