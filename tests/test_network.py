import json
import struct
import tracemalloc

import numpy as np
import pytest

from helpers import write_v1_checkpoint
from hybridseg import autodiff as ad
from hybridseg.autodiff import BN_EPS
from hybridseg.errors import ContractViolation, DataFormatError, NumericFailure
from hybridseg.inference import SCORE_VARIANTS, score_image
from hybridseg.losses import compound_loss
from hybridseg.network import (
    BN_ARRAYS,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ForwardMaps,
    NetworkConfig,
    forward,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
)
from hybridseg.scoring import log_sum_exp

CFG = NetworkConfig(input_channels=3, widths=(8, 12), num_classes=4, seed=11)


def rand_image(shape, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, size=shape)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            NetworkConfig(input_channels=3, widths=(8,), num_classes=1)
        with pytest.raises(ContractViolation):
            NetworkConfig(input_channels=3, widths=(), num_classes=3)
        with pytest.raises(ContractViolation):
            NetworkConfig(input_channels=3, widths=(8,), num_classes=3, kernel_size=2)
        with pytest.raises(ContractViolation):
            NetworkConfig(input_channels=0, widths=(8,), num_classes=3)

    def test_json_round_trip(self):
        assert NetworkConfig(**json.loads(CFG.to_json())) == CFG


class TestForward:
    def test_zero_init_heads_give_uniform_outputs(self):
        params = init_params(CFG)
        maps = forward(params, rand_image((2, 3, 6, 5)))
        np.testing.assert_array_equal(maps.logits, 0.0)
        np.testing.assert_array_equal(maps.dataset_logit, 0.0)

    @pytest.mark.parametrize("hw", [(4, 4), (7, 5), (16, 9), (1, 1)])
    def test_spatial_resolution_preserved(self, hw):
        params = init_params(CFG)
        maps = forward(params, rand_image((1, 3) + hw, seed=3))
        assert maps.logits.shape == (1, CFG.num_classes) + hw
        assert maps.dataset_logit.shape == (1, 1) + hw

    @pytest.mark.parametrize("training", [False, True])
    def test_duplicated_batch_items_give_identical_outputs(self, training):
        params = init_params(CFG)
        img = rand_image((1, 3, 5, 5), seed=4)
        batch = np.concatenate([img, img], axis=0)
        maps = forward(params, batch, training=training)
        for m in (maps.logits, maps.dataset_logit):
            m = m.value if training else m
            np.testing.assert_array_equal(m[0], m[1])

    def test_posterior_head_independent_of_classifier(self):
        params = init_params(CFG)
        img = rand_image((1, 3, 5, 5), seed=5)
        before = forward(params, img).dataset_logit
        params["cls.w"].value += np.random.default_rng(6).normal(size=params["cls.w"].value.shape)
        params["cls.b"].value += 1.7
        after = forward(params, img).dataset_logit
        np.testing.assert_array_equal(before, after)

    def test_bad_input_shape_rejected(self):
        with pytest.raises(ContractViolation):
            forward(init_params(CFG), rand_image((1, 2, 4, 4)))

    def test_non_finite_activation_aborts(self):
        params = init_params(CFG)
        params["stage0.w"].value[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericFailure):
            forward(params, rand_image((1, 3, 4, 4)))

    @pytest.mark.parametrize("name", ["stage0.w", "stage1.gamma", "ood.beta"])
    def test_non_finite_stage_aborts_training(self, name):
        # a NaN spreads through its stage's batch statistics, and the
        # in-place relu keeps it, so the finiteness check still sees it
        params = init_params(CFG)
        params[name].value.flat[0] = np.nan
        with pytest.raises(NumericFailure):
            forward(params, rand_image((2, 3, 6, 6)).astype(np.float32), training=True)

    def test_forward_is_deterministic(self):
        params = init_params(CFG)
        img = rand_image((2, 3, 6, 6), seed=7)
        a = forward(params, img)
        b = forward(params, img)
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_training_mode_updates_running_stats(self):
        params = init_params(CFG)
        img = rand_image((2, 3, 6, 6), seed=8)
        forward(params, img, training=True)
        assert not np.allclose(params["stage0.run_mean"], 0.0)


class TestTrainingMemory:
    def test_graph_holds_only_what_backward_reads(self):
        # float32 bytes a training graph needs for backward: per 3x3 stage
        # its padded input (h + 3 rows of w + 2), xhat, its output (whose
        # positives are the relu mask) and its weights; xhat and the output
        # of the OOD head's norm-relu; the two head outputs; and the loss's
        # log-sum-exp, label index, two softplus maps and two pixel masks
        # (4 + 1 + 4 + 4 + 1 + 1 bytes a pixel). A stage that kept its conv
        # or batch-norm output, 147 KiB for the smallest here, fails.
        cfg = NetworkConfig(input_channels=3, widths=(8, 16, 16), num_classes=3, seed=5)
        params = init_params(cfg)
        n, h, w = 2, 48, 48
        px, c = n * h * w, cfg.input_channels
        rng = np.random.default_rng(0)
        image = rng.uniform(0, 1, size=(n, c, h, w)).astype(np.float32)
        labels = rng.choice(np.array([0, 1, 2, 3, 255], dtype=np.uint8), size=(n, h, w))
        need = 0
        for width in cfg.widths:
            need += 4 * (n * c * (h + 3) * (w + 2) + 2 * width * px + width * c * 9)
            c = width
        need += 4 * (2 * c * px + (cfg.num_classes + 1) * px) + 15 * px
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            maps = forward(params, image, training=True)
            loss, _ = compound_loss(maps.logits, maps.dataset_logit, labels, 0.1)
            del maps
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # 32 KiB for the Python objects and per-channel vectors of the graph
        assert need <= held <= need + 32 * 2 ** 10
        loss.backward()
        assert all(np.isfinite(t.grad).all() for _, t in params.trainable())


class TestInit:
    def test_same_seed_same_params(self):
        a, b = init_params(CFG), init_params(CFG)
        for (_, x), (_, y) in zip(a.named_arrays(), b.named_arrays()):
            np.testing.assert_array_equal(x, y)

    def test_different_seed_differs(self):
        a = init_params(CFG)
        b = init_params(NetworkConfig(input_channels=3, widths=(8, 12), num_classes=4, seed=12))
        assert not np.array_equal(a["stage0.w"].value, b["stage0.w"].value)

    def test_fan_in_bound(self):
        params = init_params(CFG)
        bound = 1.0 / np.sqrt(3 * 3 * 3)
        assert np.abs(params["stage0.w"].value).max() <= bound


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(CFG)
        img = rand_image((2, 3, 5, 5), seed=9)
        forward(params, img, training=True)  # make running stats nontrivial
        p1 = tmp_path / "a.dhck"
        p2 = tmp_path / "b.dhck"
        save_checkpoint(p1, params, step=1234)
        loaded, step = load_checkpoint(p1)
        assert step == 1234
        for (na, a), (nb, b) in zip(params.named_arrays(), loaded.named_arrays()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        save_checkpoint(p2, loaded, step=step)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_reproduces_outputs(self, tmp_path):
        params = init_params(CFG)
        img = rand_image((1, 3, 6, 6), seed=10)
        params["cls.w"].value += 0.05
        expect = forward(params, img).logits
        save_checkpoint(tmp_path / "m.dhck", params, step=0)
        loaded, _ = load_checkpoint(tmp_path / "m.dhck")
        np.testing.assert_array_equal(forward(loaded, img).logits, expect)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.dhck"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataFormatError):
            load_checkpoint(p)

    def test_truncation_rejected(self, tmp_path):
        p = tmp_path / "t.dhck"
        save_checkpoint(p, init_params(CFG), step=0)
        p.write_bytes(p.read_bytes()[:-9])
        with pytest.raises(DataFormatError):
            load_checkpoint(p)

    @pytest.mark.parametrize("size", [6, 10, 18, 30])
    def test_header_truncation_rejected(self, tmp_path, size):
        # inside the version, the step, the config length and the config
        p = tmp_path / "t.dhck"
        save_checkpoint(p, init_params(CFG), step=0)
        p.write_bytes(p.read_bytes()[:size])
        with pytest.raises(DataFormatError):
            load_checkpoint(p)

    @pytest.mark.parametrize("blob", [
        b"{not json",
        b"\xff\xfe{}",
        b'{"input_channels": 3, "widths": [8]}',
        b"[3, 8]",
        CFG.to_json().replace('"num_classes":4', '"num_classes":1').encode(),
        CFG.to_json().replace('"input_channels":3', '"input_channels":0').encode(),
        CFG.to_json().replace('"input_channels":3', '"input_channels":true').encode(),
        CFG.to_json().replace('"num_classes":4', '"num_classes":4.5').encode(),
        CFG.to_json().replace('"num_classes":4', '"num_classes":"4"').encode(),
        CFG.to_json().replace('"num_classes":4', '"num_classes":255').encode(),
        CFG.to_json().replace('"num_classes":4', '"num_classes":300').encode(),
        CFG.to_json().replace('"kernel_size":3', '"kernel_size":3.0').encode(),
        CFG.to_json().replace('"kernel_size":3', '"kernel_size":true').encode(),
        CFG.to_json().replace('"widths":[8,12]', '"widths":[8,12.0]').encode(),
        CFG.to_json().replace('"widths":[8,12]', '"widths":[true,12]').encode(),
        CFG.to_json().replace('"widths":[8,12]', '"widths":8').encode(),
        CFG.to_json().replace('"seed":11', '"seed":-1').encode(),
        CFG.to_json().replace('"seed":11', '"seed":1.5').encode(),
        CFG.to_json().replace('"seed":11', '"seed":false').encode(),
        CFG.to_json().replace("}", ',"bn_eps":1e-05}').encode(),
    ], ids=["not-json", "not-utf8", "missing-keys", "not-an-object", "invalid-config",
            "zero-input-channels", "bool-input-channels", "float-num-classes",
            "string-num-classes", "num-classes-255", "num-classes-300", "float-kernel-size",
            "bool-kernel-size", "float-width", "bool-width", "widths-not-a-list",
            "negative-seed", "float-seed", "bool-seed", "v1-key-in-v2"])
    def test_malformed_config_block_rejected(self, tmp_path, blob):
        p = tmp_path / "c.dhck"
        p.write_bytes(CHECKPOINT_MAGIC
                      + struct.pack("<IQI", CHECKPOINT_VERSION, 0, len(blob)) + blob)
        with pytest.raises(DataFormatError, match="malformed checkpoint config"):
            load_checkpoint(p)

    def test_v2_layout(self, tmp_path):
        params = init_params(CFG)
        names = [name for name, _ in params.named_arrays()]
        assert names == [f"stage{i}.{f}" for i in range(2)
                         for f in ("w", "gamma", "beta", "run_mean", "run_var")] + [
            "cls.w", "cls.b", "ood.gamma", "ood.beta", "ood.run_mean", "ood.run_var",
            "ood.w", "ood.b"]
        assert [name for name, _ in params.trainable()] == [
            name for name in names if ".run_" not in name]
        save_checkpoint(tmp_path / "m.dhck", params, step=7)
        data = (tmp_path / "m.dhck").read_bytes()
        blob = b'{"input_channels":3,"kernel_size":3,"num_classes":4,"seed":11,"widths":[8,12]}'
        assert data[:20 + len(blob)] == (CHECKPOINT_MAGIC
                                         + struct.pack("<IQI", 2, 7, len(blob)) + blob)
        values = (8 * 3 * 9 + 4 * 8) + (12 * 8 * 9 + 4 * 12) + (4 * 12 + 4) + (4 * 12 + 12 + 1)
        assert len(data) == 20 + len(blob) + 8 * values


    def test_param_shapes_is_the_layout_of_init_params(self, tmp_path):
        # every constructor of a model fills the one table: init, copy, v2 and v1 loads
        for cfg in (CFG, NetworkConfig(input_channels=1, widths=(3,), num_classes=2,
                                       kernel_size=1)):
            params = init_params(cfg)
            save_checkpoint(tmp_path / "v2.dhck", params)
            write_v1_checkpoint(tmp_path / "v1.dhck", params, [np.zeros(w) for w in cfg.widths])
            for model in (params, params.copy(), load_checkpoint(tmp_path / "v2.dhck")[0],
                          load_checkpoint(tmp_path / "v1.dhck")[0]):
                assert param_shapes(cfg) == [(name, a.shape)
                                             for name, a in model.named_arrays()]
                for name, _ in param_shapes(cfg):
                    if ".run_" in name:
                        assert type(model[name]) is np.ndarray
                        assert model[name].dtype == np.float64
                    else:
                        assert isinstance(model[name], ad.Tensor) and model[name].requires_grad

    def test_copy_is_equal_and_independent(self):
        params = init_params(CFG)
        params["stage0.run_mean"][...] += 1.0
        other = params.copy()
        for (na, a), (nb, b) in zip(params.named_arrays(), other.named_arrays()):
            assert na == nb and a is not b
            np.testing.assert_array_equal(a, b)
        assert [n for n, _ in other.trainable()] == [n for n, _ in params.trainable()]

    @pytest.mark.parametrize("widths", ["[600,600]", "[1000000000]", "[200000,200000]",
                                        "[4611686018427387904,4611686018427387904]"])
    def test_declared_size_is_checked_before_allocation(self, tmp_path, widths):
        # the file holds CFG's arrays, far fewer bytes than these widths need
        save_checkpoint(tmp_path / "m.dhck", init_params(CFG), step=0)
        data = (tmp_path / "m.dhck").read_bytes()
        cfg_len, = struct.unpack("<I", data[16:20])
        blob = data[20:20 + cfg_len].replace(b"[8,12]", widths.encode())
        (tmp_path / "m.dhck").write_bytes(data[:16] + struct.pack("<I", len(blob)) + blob
                                          + data[20 + cfg_len:])
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="truncated checkpoint at stage0.w"):
                load_checkpoint(tmp_path / "m.dhck")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_trailing_bytes_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "m.dhck", init_params(CFG), step=0)
        (tmp_path / "m.dhck").write_bytes((tmp_path / "m.dhck").read_bytes() + bytes(8))
        with pytest.raises(DataFormatError, match="trailing bytes"):
            load_checkpoint(tmp_path / "m.dhck")


def v1_forward(params, stage_biases, image):
    """Eval-mode forward of a version-1 model, whose backbone convs add a
    bias, unfolded: conv, then batch-norm on the running statistics, then
    relu, in numpy."""
    p = dict(params.named_arrays())

    def conv(x, w, b):
        k = w.shape[-1]
        xp = np.pad(x, ((0, 0), (0, 0), (k // 2, k // 2), (k // 2, k // 2)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        return np.einsum("nchwuv,ocuv->nohw", windows, w) + b[:, None, None]

    def bn_relu(x, prefix):
        scale, shift = ad.batch_norm_affine(*(p[prefix + f] for f in BN_ARRAYS))
        return np.maximum(x * scale[:, None, None] + shift[:, None, None], 0.0)

    t = image
    for i, b in enumerate(stage_biases):
        t = bn_relu(conv(t, p[f"stage{i}.w"], b), f"stage{i}.")
    return ForwardMaps(logits=conv(t, p["cls.w"], p["cls.b"]),
                       dataset_logit=conv(bn_relu(t, "ood."), p["ood.w"], p["ood.b"]))


def v1_model(seed=0):
    """A model with random heads and running statistics, and a non-zero bias
    per stage that its running means have tracked as version 1 trained it."""
    rng = np.random.default_rng(seed)
    params = init_params(CFG)
    forward(params, rand_image((4, 3, 8, 8), seed=seed), training=True)
    for name in ("cls.w", "ood.w"):
        params[name].value[...] = rng.normal(size=params[name].value.shape)
    biases = [rng.normal(size=w) for w in CFG.widths]
    for i, b in enumerate(biases):
        params[f"stage{i}.run_mean"][...] += b
    return params, biases


class TestVersion1Checkpoint:
    def test_loads_and_scores_like_the_v1_model(self, tmp_path):
        v1, biases = v1_model()
        write_v1_checkpoint(tmp_path / "v1.dhck", v1, biases, step=42)
        loaded, step = load_checkpoint(tmp_path / "v1.dhck")
        assert step == 42
        assert loaded.config == CFG
        for i, b in enumerate(biases):
            name = f"stage{i}.run_mean"
            np.testing.assert_array_equal(loaded[name], v1[name] - b)
        image = rand_image((3, 9, 7), seed=1)
        got = forward(loaded, image[None])
        want = v1_forward(v1, biases, image[None])
        for a, b in ((got.logits, want.logits),
                     (got.dataset_logit, want.dataset_logit)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        want_argmax = want.logits[0].argmax(axis=0)
        assert len(np.unique(want_argmax)) > 1
        np.testing.assert_array_equal(score_image(loaded, image).argmax, want_argmax)

    @pytest.mark.parametrize("momentum,eps", [(0.1, 1e-3), (0.2, 1e-5), (0.1, 0.0)])
    def test_other_batch_norm_settings_rejected(self, tmp_path, momentum, eps):
        v1, biases = v1_model()
        write_v1_checkpoint(tmp_path / "v1.dhck", v1, biases, bn_momentum=momentum,
                            bn_eps=eps)
        with pytest.raises(DataFormatError, match="batch-norm"):
            load_checkpoint(tmp_path / "v1.dhck")

    @pytest.mark.parametrize("extra,match", [(8, "trailing bytes"),
                                             (-8, "truncated checkpoint at ood.b")])
    def test_size_counts_one_bias_per_stage(self, tmp_path, extra, match):
        v1, biases = v1_model()
        write_v1_checkpoint(tmp_path / "v1.dhck", v1, biases)
        data = (tmp_path / "v1.dhck").read_bytes()
        (tmp_path / "v1.dhck").write_bytes(data + bytes(extra) if extra > 0 else data[:extra])
        with pytest.raises(DataFormatError, match=match):
            load_checkpoint(tmp_path / "v1.dhck")

    def test_truncated_bias_rejected(self, tmp_path):
        v1, biases = v1_model()
        write_v1_checkpoint(tmp_path / "v1.dhck", v1, biases)
        header = 20 + struct.unpack("<I", (tmp_path / "v1.dhck").read_bytes()[16:20])[0]
        data = (tmp_path / "v1.dhck").read_bytes()
        (tmp_path / "v1.dhck").write_bytes(data[:header + 8 * (8 * 3 * 9 + 3)])
        with pytest.raises(DataFormatError, match="stage0.b"):
            load_checkpoint(tmp_path / "v1.dhck")


def random_model(kernel_size, seed=0):
    """A model with random heads, random batch-norm affines and running
    statistics far from the identity, so that a fold error shows."""
    rng = np.random.default_rng(seed)
    params = init_params(NetworkConfig(input_channels=3, widths=(8, 12), num_classes=4,
                                       kernel_size=kernel_size, seed=seed))
    for i, c in enumerate(params.config.widths):
        s = f"stage{i}."
        params[s + "gamma"].value[...] = rng.uniform(0.5, 2.0, c) * rng.choice([-1.0, 1.0], c)
        params[s + "beta"].value[...] = rng.normal(size=c)
        params[s + "run_mean"][...] = rng.normal(size=c)
        params[s + "run_var"][...] = rng.uniform(0.01, 4.0, c)
    for name in ("cls.w", "cls.b", "ood.w", "ood.gamma", "ood.beta"):
        params[name].value[...] = rng.normal(size=params[name].value.shape)
    params["ood.run_mean"][...] = rng.normal(size=params["ood.run_mean"].shape)
    params["ood.run_var"][...] = rng.uniform(0.01, 4.0, params["ood.run_var"].shape)
    return params


@pytest.mark.parametrize("kernel_size", [3, 1])
class TestEvalFold:
    """Eval mode folds each stage's batch-norm into its conv's weights and bias."""

    def test_matches_the_unfolded_stages(self, kernel_size):
        params = random_model(kernel_size)
        image = rand_image((2, 3, 9, 7), seed=2)
        got = forward(params, image)
        # with zero biases v1_forward is the unfolded conv -> batch-norm -> relu
        want = v1_forward(params, [np.zeros(w) for w in params.config.widths], image)
        assert np.ptp(want.logits) > 1.0 and np.ptp(want.dataset_logit) > 1e-3
        for a, b in ((got.logits, want.logits),
                     (got.dataset_logit, want.dataset_logit)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_leaves_every_array_as_it_was(self, kernel_size):
        params = random_model(kernel_size)
        before = [(name, a.tobytes()) for name, a in params.named_arrays()]
        forward(params, rand_image((1, 3, 5, 5), seed=3))
        assert [(name, a.tobytes()) for name, a in params.named_arrays()] == before

    @pytest.mark.parametrize("stage,run_var", [(0, -BN_EPS), (0, -1.0), (1, -BN_EPS)])
    def test_non_finite_fold_aborts(self, kernel_size, stage, run_var):
        # -eps makes the scale infinite, anything below it makes it NaN
        params = random_model(kernel_size)
        params[f"stage{stage}.run_var"][...] = run_var
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NumericFailure):
            forward(params, rand_image((1, 3, 5, 5), seed=4))


@pytest.mark.parametrize("kernel_size", [3, 1])
class TestEvalForward:
    """Eval mode runs on plain arrays, in the input's float dtype."""

    def test_builds_no_tensor(self, kernel_size, monkeypatch):
        params = random_model(kernel_size)
        built = []
        init = ad.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        forward(params, rand_image((1, 3, 6, 5), seed=5))
        score_image(params, rand_image((3, 6, 5), seed=5))
        assert not built
        forward(params, rand_image((1, 3, 6, 5), seed=5), training=True)
        assert built  # the counter sees the training graph

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_returns_arrays_in_the_input_dtype(self, kernel_size, dtype):
        maps = forward(random_model(kernel_size), rand_image((2, 3, 6, 5)).astype(dtype))
        for m in (maps.logits, maps.dataset_logit):
            assert type(m) is np.ndarray and m.dtype == dtype

    def test_float32_scores_match_float64(self, kernel_size):
        params = random_model(kernel_size)
        image = 8.0 * rand_image((3, 16, 16), seed=6) - 4.0  # wide enough for two classes
        got = score_image(params, image)
        maps = forward(params, image[None])
        logits, z = maps.logits[0], maps.dataset_logit[0, 0]
        assert len(np.unique(logits.argmax(axis=0))) > 1
        np.testing.assert_array_equal(got.argmax, logits.argmax(axis=0))
        generative = -log_sum_exp(logits, axis=0)
        discriminative = -np.logaddexp(0.0, z)
        want = {"generative": generative, "discriminative": discriminative,
                "hybrid": generative + discriminative}
        for v in SCORE_VARIANTS:
            assert got.variant(v).dtype == np.float32
            # within 8 float32 ulps at the map's largest magnitude
            ulp = np.spacing(np.float32(np.abs(want[v]).max()))
            assert np.abs(got.variant(v) - want[v]).max() <= 8 * ulp

    def test_float32_discriminative_is_exact_softplus_of_its_logit(self, kernel_size):
        # a confident inlier head (logits from about 5 to 22): ln(1 - sigmoid(z))
        # = -softplus(z) of the float32 logit keeps float32's relative precision
        # at every pixel; through the float32 posterior it was 1e4+ ulps off
        params = random_model(kernel_size)
        params["ood.w"].value *= 10.0
        params["ood.b"].value[...] = 40.0
        image = 8.0 * rand_image((3, 16, 16), seed=6) - 4.0
        got = score_image(params, image).discriminative
        z = forward(params, image[None].astype(np.float32)).dataset_logit[0, 0]
        assert z.min() > 4.0 and np.ptp(z) > 10.0
        want = -np.logaddexp(0.0, z.astype(np.float64))
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want).astype(np.float32)))
