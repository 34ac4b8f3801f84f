import struct

import numpy as np
import pytest

from hybridseg.errors import ContractViolation, DataFormatError, NumericFailure
from hybridseg.network import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ForwardMaps,
    NetworkConfig,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

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

    def test_json_round_trip(self):
        assert NetworkConfig.from_json(CFG.to_json()) == CFG


class TestForward:
    def test_zero_init_heads_give_uniform_outputs(self):
        params = init_params(CFG)
        maps = forward(params, rand_image((2, 3, 6, 5)))
        np.testing.assert_array_equal(maps.logits.value, 0.0)
        np.testing.assert_array_equal(maps.dataset_posterior.value, 0.5)

    @pytest.mark.parametrize("hw", [(4, 4), (7, 5), (16, 9), (1, 1)])
    def test_spatial_resolution_preserved(self, hw):
        params = init_params(CFG)
        maps = forward(params, rand_image((1, 3) + hw, seed=3))
        assert maps.logits.value.shape == (1, CFG.num_classes) + hw
        assert maps.dataset_posterior.value.shape == (1, 1) + hw

    @pytest.mark.parametrize("training", [False, True])
    def test_duplicated_batch_items_give_identical_outputs(self, training):
        params = init_params(CFG)
        img = rand_image((1, 3, 5, 5), seed=4)
        batch = np.concatenate([img, img], axis=0)
        maps = forward(params, batch, training=training)
        for m in (maps.logits, maps.dataset_posterior):
            np.testing.assert_array_equal(m.value[0], m.value[1])

    def test_posterior_head_independent_of_classifier(self):
        params = init_params(CFG)
        img = rand_image((1, 3, 5, 5), seed=5)
        before = forward(params, img).dataset_posterior.value.copy()
        params.cls_w.value += np.random.default_rng(6).normal(size=params.cls_w.value.shape)
        params.cls_b.value += 1.7
        after = forward(params, img).dataset_posterior.value
        np.testing.assert_array_equal(before, after)

    def test_bad_input_shape_rejected(self):
        with pytest.raises(ContractViolation):
            forward(init_params(CFG), rand_image((1, 2, 4, 4)))

    def test_non_finite_activation_aborts(self):
        params = init_params(CFG)
        params.stages[0].w.value[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericFailure):
            forward(params, rand_image((1, 3, 4, 4)))

    def test_forward_is_deterministic(self):
        params = init_params(CFG)
        img = rand_image((2, 3, 6, 6), seed=7)
        a = forward(params, img)
        b = forward(params, img)
        np.testing.assert_array_equal(a.logits.value, b.logits.value)

    def test_training_mode_updates_running_stats(self):
        params = init_params(CFG)
        img = rand_image((2, 3, 6, 6), seed=8)
        forward(params, img, training=True)
        assert not np.allclose(params.stages[0].run_mean, 0.0)


class TestInit:
    def test_same_seed_same_params(self):
        a, b = init_params(CFG), init_params(CFG)
        for (_, x), (_, y) in zip(a.named_arrays(), b.named_arrays()):
            np.testing.assert_array_equal(x, y)

    def test_different_seed_differs(self):
        a = init_params(CFG)
        b = init_params(NetworkConfig(input_channels=3, widths=(8, 12), num_classes=4, seed=12))
        assert not np.array_equal(a.stages[0].w.value, b.stages[0].w.value)

    def test_fan_in_bound(self):
        params = init_params(CFG)
        bound = 1.0 / np.sqrt(3 * 3 * 3)
        assert np.abs(params.stages[0].w.value).max() <= bound


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
        params.cls_w.value += 0.05
        expect = forward(params, img).logits.value
        save_checkpoint(tmp_path / "m.dhck", params, step=0)
        loaded, _ = load_checkpoint(tmp_path / "m.dhck")
        np.testing.assert_array_equal(forward(loaded, img).logits.value, expect)

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
    ], ids=["not-json", "not-utf8", "missing-keys", "not-an-object", "invalid-config"])
    def test_malformed_config_block_rejected(self, tmp_path, blob):
        p = tmp_path / "c.dhck"
        p.write_bytes(CHECKPOINT_MAGIC
                      + struct.pack("<IQI", CHECKPOINT_VERSION, 0, len(blob)) + blob)
        with pytest.raises(DataFormatError):
            load_checkpoint(p)
