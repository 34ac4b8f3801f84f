import itertools
from dataclasses import replace

import numpy as np
import pytest

from helpers import reference_augment, reference_resize_bilinear
from hybridseg.data import (
    ANOMALY_AREA,
    ANOMALY_CELLS,
    AugmentConfig,
    FAR_M,
    HELD_OUT_COLOR_RANGE,
    INLIER_TEXTURES,
    JITTER_RETRIES,
    NEAR_M,
    NEGATIVE_CELLS,
    SceneConfig,
    SceneSample,
    TEXTURES,
    TOY_ANNULUS,
    TOY_INLIER_MEANS,
    TextureSpec,
    as_grid,
    augment,
    gen_negative_patches,
    gen_scene,
    gen_scenes,
    gen_toy2d,
    load_scene,
    mixed_batch,
    paste_negatives,
    quantize_image,
    render_texture,
    save_scenes,
    split_rows,
)
from hybridseg.errors import ContractViolation, DataFormatError
from hybridseg.labels import IGNORE_LABEL, PixelRole
from hybridseg.rasters import read_manifest


def assert_samples_equal(a, b):
    np.testing.assert_array_equal(a.image, b.image)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.roles, b.roles)


class TestToy2d:
    def test_split_sizes_and_roles(self):
        train, test = gen_toy2d(seed=3, n_per_role=150)
        for split in (train, test):
            assert split.points.shape == (450, 2)
            assert np.count_nonzero(split.roles == PixelRole.OUTLIER) == 150
            inlier = split.roles == PixelRole.INLIER
            assert set(split.class_labels[inlier]) == {0, 1}
            assert np.all(split.class_labels[~inlier] == IGNORE_LABEL)

    def test_determinism(self):
        a_train, a_test = gen_toy2d(seed=9)
        b_train, b_test = gen_toy2d(seed=9)
        np.testing.assert_array_equal(a_train.points, b_train.points)
        np.testing.assert_array_equal(a_test.points, b_test.points)
        c_train, _ = gen_toy2d(seed=10)
        assert not np.array_equal(a_train.points, c_train.points)

    def test_train_negatives_cover_only_upper_half(self):
        train, _ = gen_toy2d(seed=0)
        neg = train.points[train.roles == PixelRole.OUTLIER]
        assert np.all(neg[:, 1] >= 0.0)
        assert not train.unseen.any()

    def test_anomalies_stay_outside_both_blobs(self):
        _, test = gen_toy2d(seed=1)
        anomalies = test.points[test.roles == PixelRole.OUTLIER]
        for mean in TOY_INLIER_MEANS:
            dist = np.linalg.norm(anomalies - np.asarray(mean), axis=1)
            assert dist.min() >= 2.0 - 1e-9

    def test_unseen_marks_a_large_uncovered_fraction(self):
        _, test = gen_toy2d(seed=2)
        outlier = test.roles == PixelRole.OUTLIER
        assert not test.unseen[~outlier].any()
        # roughly half the ring plus the whole far cluster
        frac = test.unseen[outlier].mean()
        assert frac >= 0.4
        unseen_pts = test.points[test.unseen]
        r = np.linalg.norm(unseen_pts, axis=1)
        on_ring = (r >= TOY_ANNULUS[0] - 1e-9) & (r <= TOY_ANNULUS[1] + 1e-9)
        assert np.all(unseen_pts[on_ring, 1] <= 0.0)
        assert np.all(unseen_pts[~on_ring, 1] < -4.0)  # far cluster

    def test_ring_radii_within_annulus(self):
        train, _ = gen_toy2d(seed=4)
        neg = train.points[train.roles == PixelRole.OUTLIER]
        r = np.linalg.norm(neg, axis=1)
        assert r.min() >= TOY_ANNULUS[0] - 1e-9
        assert r.max() <= TOY_ANNULUS[1] + 1e-9

    def test_rejects_tiny_sets(self):
        with pytest.raises(ContractViolation):
            gen_toy2d(seed=0, n_per_role=50)

    def test_as_grid_shape_and_round_trip(self):
        pts = np.arange(10.0).reshape(5, 2)
        grid = as_grid(pts)
        assert grid.shape == (1, 2, 5, 1)
        np.testing.assert_array_equal(grid[0, :, :, 0].T, pts)


class TestTextures:
    def test_family_grains_are_disjoint(self):
        inlier_cells = {TEXTURES[name].cells for name in INLIER_TEXTURES}
        assert len(inlier_cells) == len(INLIER_TEXTURES)
        neg = set(range(NEGATIVE_CELLS[0], NEGATIVE_CELLS[1] + 1))
        ano = set(range(ANOMALY_CELLS[0], ANOMALY_CELLS[1] + 1))
        assert not neg & ano
        assert not neg & inlier_cells
        assert not ano & inlier_cells

    def test_held_out_color_range_is_sane(self):
        lo, hi = HELD_OUT_COLOR_RANGE
        assert 0.0 <= lo < hi <= 1.0

    def test_render_range_shape_determinism(self):
        spec = TEXTURES["class1"]
        a = render_texture(np.random.default_rng(5), 17, 9, spec)
        b = render_texture(np.random.default_rng(5), 17, 9, spec)
        assert a.shape == (3, 17, 9)
        assert a.min() >= 0.0 and a.max() <= 1.0
        np.testing.assert_array_equal(a, b)
        c = render_texture(np.random.default_rng(6), 17, 9, spec)
        assert not np.array_equal(a, c)


class TestScenes:
    CFG = SceneConfig(size=32)

    def test_train_scene_has_no_outliers(self):
        s = gen_scene(np.random.default_rng(0), self.CFG, with_anomaly=False)
        assert not (s.roles == PixelRole.OUTLIER).any()
        assert s.distance is None
        assert set(np.unique(s.labels)) <= {0, 1, 2}

    def test_anomalous_scene_fraction_and_consistency(self):
        for i in range(5):
            s = gen_scene(np.random.default_rng(i), self.CFG, with_anomaly=True)
            frac = (s.roles == PixelRole.OUTLIER).mean()
            assert ANOMALY_AREA[0] <= frac <= ANOMALY_AREA[1]
            np.testing.assert_array_equal(s.roles == PixelRole.OUTLIER, s.labels == 3)

    def test_distance_ramp(self):
        s = gen_scene(np.random.default_rng(0), self.CFG, with_anomaly=True)
        assert s.distance.shape == s.labels.shape
        assert s.distance[0, 0] == FAR_M      # top row is far
        assert s.distance[-1, 0] == NEAR_M    # bottom row is near
        assert np.all(np.diff(s.distance[:, 0]) <= 0)
        np.testing.assert_array_equal(s.distance, np.round(s.distance))

    def test_gen_scenes_splits_and_determinism(self):
        counts = {"train": 3, "val": 2, "test": 2}
        a = gen_scenes(7, self.CFG, counts)
        b = gen_scenes(7, self.CFG, counts)
        assert [len(a[k]) for k in ("train", "val", "test")] == [3, 2, 2]
        for split in a:
            for x, y in zip(a[split], b[split]):
                assert_samples_equal(x, y)
        for split, anomalous in (("train", False), ("val", True), ("test", True)):
            for s in a[split]:
                assert (s.roles == PixelRole.OUTLIER).any() == anomalous

    def test_scene_config_validation(self):
        with pytest.raises(ContractViolation):
            SceneConfig(size=8)


class TestNegativePatches:
    def test_sizes_alpha_and_determinism(self):
        patches = gen_negative_patches(seed=0, count=20, size_range=(4, 9))
        again = gen_negative_patches(seed=0, count=20, size_range=(4, 9))
        shapes = set()
        for p, q in zip(patches, again):
            h, w = p.alpha.shape
            assert 4 <= h <= 9 and 4 <= w <= 9
            assert p.image.shape == (3, h, w)
            assert p.alpha.any()
            np.testing.assert_array_equal(p.image, q.image)
            shapes.add((h, w))
        assert len(shapes) > 1

    def test_patch_validation(self):
        with pytest.raises(ContractViolation):
            gen_negative_patches(seed=0, count=1, size_range=(1, 5))


def _train_scene(size=32, seed=0):
    return gen_scene(np.random.default_rng(seed), SceneConfig(size=size),
                     with_anomaly=False)


class TestPaste:
    def test_zero_pastes_returns_untouched_copy(self):
        scene = _train_scene()
        cfg = AugmentConfig(paste_count=0, crop_size=32)
        out = paste_negatives(scene, gen_negative_patches(0, 3, (4, 6)), cfg,
                              np.random.default_rng(0))
        assert_samples_equal(out, replace(scene, roles=None))  # crops carry no roles
        assert out.image is not scene.image and out.labels is not scene.labels

    def test_pasted_pixels_follow_the_alpha_masks(self):
        scene = _train_scene()
        patches = gen_negative_patches(0, 4, (4, 6))
        cfg = AugmentConfig(paste_count=3, crop_size=32)
        out = paste_negatives(scene, patches, cfg, np.random.default_rng(11))

        # replay the documented draw order to rebuild the expected coverage
        rng = np.random.default_rng(11)
        expected = np.zeros((32, 32), dtype=bool)
        for _ in range(cfg.paste_count):
            patch = patches[int(rng.integers(len(patches)))]
            ph, pw = patch.alpha.shape
            y0 = int(rng.integers(0, 32 - ph + 1))
            x0 = int(rng.integers(0, 32 - pw + 1))
            expected[y0:y0 + ph, x0:x0 + pw] |= patch.alpha
        np.testing.assert_array_equal(out.labels == 3, expected)
        assert out.roles is None
        np.testing.assert_array_equal(out.image[:, ~expected], scene.image[:, ~expected])
        assert expected.any()
        assert not np.array_equal(out.image[:, expected], scene.image[:, expected])

    def test_oversized_patch_rejected(self):
        scene = _train_scene(size=16)
        big = gen_negative_patches(0, 1, (20, 20))
        with pytest.raises(ContractViolation):
            paste_negatives(scene, big, AugmentConfig(paste_count=1, crop_size=16),
                            np.random.default_rng(0))

    def test_determinism(self):
        scene = _train_scene()
        patches = gen_negative_patches(0, 4, (4, 6))
        cfg = AugmentConfig(paste_count=2, crop_size=32)
        a = paste_negatives(scene, patches, cfg, np.random.default_rng(5))
        b = paste_negatives(scene, patches, cfg, np.random.default_rng(5))
        assert_samples_equal(a, b)


class TestAugment:
    def test_identity_settings_reproduce_the_sample(self):
        scene = _train_scene()
        cfg = AugmentConfig(scale_jitter_range=(1.0, 1.0), hflip_prob=0.0,
                            crop_size=32, paste_count=0)
        out = augment(scene, cfg, np.random.default_rng(0))
        assert_samples_equal(out, replace(scene, roles=None))

    def test_forced_flip_mirrors_all_rasters(self):
        scene = _train_scene()
        cfg = AugmentConfig(scale_jitter_range=(1.0, 1.0), hflip_prob=1.0,
                            crop_size=32, paste_count=0)
        out = augment(scene, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(out.image, scene.image[:, :, ::-1])
        np.testing.assert_array_equal(out.labels, scene.labels[:, ::-1])
        assert out.roles is None and out.distance is None

    def test_exact_doubling_replicates_labels(self):
        scene = _train_scene()
        cfg = AugmentConfig(scale_jitter_range=(2.0, 2.0), hflip_prob=0.0,
                            crop_size=64, paste_count=0)
        out = augment(scene, cfg, np.random.default_rng(0))
        assert out.image.shape == (3, 64, 64)
        doubled = np.repeat(np.repeat(scene.labels, 2, axis=0), 2, axis=1)
        np.testing.assert_array_equal(out.labels, doubled)

    def test_undersized_jitter_falls_back_to_reflect_padding(self):
        scene = _train_scene(size=16)
        cfg = AugmentConfig(scale_jitter_range=(0.5, 0.6), hflip_prob=0.0,
                            crop_size=16, paste_count=0)
        out = augment(scene, cfg, np.random.default_rng(0))
        assert out.labels.shape == (16, 16)
        assert set(np.unique(out.labels)) <= {0, 1, 2}

    def test_labels_and_roles_share_geometry(self):
        # the masks the loss derives from cropped labels are the crops of the
        # role masks: augment the roles as labels with the same rng stream
        scene = gen_scene(np.random.default_rng(1), SceneConfig(size=32), True)
        as_labels = replace(scene, labels=scene.roles.astype(np.int64))
        cfg = AugmentConfig(crop_size=24, paste_count=0)
        for seed in range(5):
            out = augment(scene, cfg, np.random.default_rng(seed))
            roles = augment(as_labels, cfg, np.random.default_rng(seed)).labels
            np.testing.assert_array_equal(roles == PixelRole.OUTLIER, out.labels == 3)
            np.testing.assert_array_equal(roles == PixelRole.INLIER, out.labels < 3)

    @pytest.mark.parametrize("shape", [(1, 64), (2, 64)])
    def test_a_one_or_two_pixel_side_reflects_out_to_crop_size(self, shape):
        rng = np.random.default_rng(0)
        scene = SceneSample(image=rng.uniform(size=(3,) + shape),
                            labels=rng.integers(0, 3, size=shape))
        for seed in range(50):
            out = augment(scene, AugmentConfig(), np.random.default_rng(seed))
            assert out.image.shape == (3, 64, 64) and out.labels.shape == (64, 64)

    @pytest.mark.parametrize("shape", [(32, 32), (17, 9), (5, 70), (33, 31), (1, 40), (2, 3)])
    def test_matches_resizing_the_whole_image_first(self, shape):
        rng = np.random.default_rng(sum(shape))
        for cells in (2, 12, 28):
            spec = TextureSpec((0.3, 0.5, 0.7), 0.1, cells)
            lattice = np.random.default_rng(cells).uniform(-1.0, 1.0, (1, cells + 1, cells + 1))
            expected = np.clip(np.asarray(spec.mean_rgb)[:, None, None] + spec.amplitude
                               * reference_resize_bilinear(lattice, *shape)[0], 0.0, 1.0)
            got = render_texture(np.random.default_rng(cells), *shape, spec)
            assert got.tobytes() == expected.tobytes()

        scene = SceneSample(image=rng.uniform(size=(3,) + shape),
                            labels=rng.integers(0, 4, size=shape))
        for crop, jitter, flip, seed in itertools.product(
                (1, 8, 24, 40), ((0.5, 2.0), (0.9, 1.1)), (0.0, 1.0), range(3)):
            cfg = AugmentConfig(scale_jitter_range=jitter, hflip_prob=flip, crop_size=crop)
            out = augment(scene, cfg, np.random.default_rng(seed))
            image, labels = reference_augment(scene.image, scene.labels, cfg,
                                              np.random.default_rng(seed), JITTER_RETRIES)
            assert out.image.tobytes() == image.tobytes()  # tobytes() is C order
            assert out.labels.tobytes() == labels.tobytes()
            assert out.image.dtype == np.float64 and out.labels.dtype == np.int64
            assert out.image.flags.c_contiguous and out.labels.flags.c_contiguous

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            AugmentConfig(scale_jitter_range=(2.0, 0.5))
        with pytest.raises(ContractViolation):
            AugmentConfig(hflip_prob=1.5)
        with pytest.raises(ContractViolation):
            AugmentConfig(paste_count=-1)


class TestMixedBatch:
    def test_shapes_and_content(self):
        scenes = [_train_scene(seed=i) for i in range(3)]
        patches = gen_negative_patches(0, 8, (4, 6))
        cfg = AugmentConfig(crop_size=24, paste_count=2)
        images, labels = mixed_batch(scenes, patches, cfg,
                                     np.random.default_rng(0), batch_size=4)
        assert images.shape == (4, 3, 24, 24)
        assert labels.shape == (4, 24, 24)
        assert (labels == 3).any()  # pasted negatives on outlier-free scenes
        assert set(np.unique(labels)) <= {0, 1, 2, 3}


class TestSceneStorage:
    def test_round_trip(self, tmp_path):
        splits = gen_scenes(3, SceneConfig(size=32), {"train": 2, "val": 1, "test": 1})
        manifest = save_scenes(tmp_path, splits)
        rows = read_manifest(manifest)
        assert [r.split for r in rows] == ["train", "train", "val", "test"]
        for row in rows:
            original = splits[row.split][int(row.image.split("_")[-1].split(".")[0])]
            loaded = load_scene(tmp_path, row, 3)
            np.testing.assert_array_equal(loaded.labels, original.labels)
            np.testing.assert_array_equal(loaded.roles, original.roles)
            assert np.abs(loaded.image - original.image).max() <= 0.5 / 255 + 1e-12
            if original.distance is None:
                assert loaded.distance is None
            else:
                np.testing.assert_array_equal(loaded.distance, original.distance)

    def test_quantize_round_trip_is_stable(self):
        image = _train_scene().image
        q1 = quantize_image(image)
        q2 = quantize_image(q1.astype(np.float64).transpose(2, 0, 1) / 255.0)
        np.testing.assert_array_equal(q1, q2)

    def test_load_rejects_unlabeled_inliers(self, tmp_path):
        splits = gen_scenes(0, SceneConfig(size=32), {"train": 1})
        manifest = save_scenes(tmp_path, splits)
        row = read_manifest(manifest)[0]
        from hybridseg.rasters import read_pgm, write_pgm
        label_path = tmp_path / row.label
        labels = read_pgm(label_path).copy()
        labels[0, 0] = IGNORE_LABEL
        write_pgm(label_path, labels)
        with pytest.raises(DataFormatError):
            load_scene(tmp_path, row, 3)

    @pytest.mark.parametrize("raster", ["label", "mask"])
    def test_load_rejects_a_raster_of_another_size(self, tmp_path, raster):
        splits = gen_scenes(0, SceneConfig(size=32), {"train": 1})
        row = read_manifest(save_scenes(tmp_path, splits))[0]
        from hybridseg.rasters import write_pgm
        write_pgm(tmp_path / getattr(row, raster), np.zeros((16, 16), np.uint8))
        with pytest.raises(DataFormatError):
            load_scene(tmp_path, row, 3)

    @pytest.mark.parametrize("value", [4, 7, 254])
    def test_load_rejects_a_label_outside_the_open_label_set(self, tmp_path, value):
        splits = gen_scenes(0, SceneConfig(size=32), {"test": 1})
        row = read_manifest(save_scenes(tmp_path, splits))[0]
        from hybridseg.rasters import read_pgm, write_pgm
        labels = read_pgm(tmp_path / row.label).copy()
        labels[5, 5] = value
        write_pgm(tmp_path / row.label, labels)
        with pytest.raises(DataFormatError, match=f"label {value} outside 0..3"):
            load_scene(tmp_path, row, 3)

    def test_load_accepts_outlier_and_ignore_labels(self, tmp_path):
        splits = gen_scenes(0, SceneConfig(size=32), {"test": 1})
        row = read_manifest(save_scenes(tmp_path, splits))[0]
        from hybridseg.rasters import read_pgm, write_pgm
        labels, roles = read_pgm(tmp_path / row.label).copy(), read_pgm(tmp_path / row.mask).copy()
        labels[0, 0], roles[0, 0] = IGNORE_LABEL, PixelRole.IGNORE
        write_pgm(tmp_path / row.label, labels)
        write_pgm(tmp_path / row.mask, roles)
        loaded = load_scene(tmp_path, row, 3).labels
        assert loaded[0, 0] == IGNORE_LABEL
        assert (loaded == 3).any()  # every test scene holds one anomaly

    @staticmethod
    def _scene_with_pixel(tmp_path, label, role):
        """A saved test scene whose pixel (5, 5) holds ``label`` and ``role``."""
        splits = gen_scenes(0, SceneConfig(size=32), {"test": 1})
        row = read_manifest(save_scenes(tmp_path, splits))[0]
        from hybridseg.rasters import read_pgm, write_pgm
        for name, value in (("label", label), ("mask", role)):
            raster = read_pgm(tmp_path / getattr(row, name)).copy()
            raster[5, 5] = value
            write_pgm(tmp_path / getattr(row, name), raster)
        return row

    @pytest.mark.parametrize("role", [3, 7, 255])
    def test_load_rejects_a_role_outside_0_to_2(self, tmp_path, role):
        row = self._scene_with_pixel(tmp_path, IGNORE_LABEL, role)
        with pytest.raises(DataFormatError, match=f"role {role} outside 0..2"):
            load_scene(tmp_path, row, 3)

    @pytest.mark.parametrize("label", [0, 2, IGNORE_LABEL])
    def test_load_rejects_an_outlier_role_without_the_outlier_label(self, tmp_path, label):
        row = self._scene_with_pixel(tmp_path, label, PixelRole.OUTLIER)
        with pytest.raises(DataFormatError, match=f"outlier pixels labelled {label}, not 3"):
            load_scene(tmp_path, row, 3)

    @pytest.mark.parametrize("label", [0, 2, 3])  # 0, K-1 and K
    def test_load_relabels_an_ignore_role_as_255(self, tmp_path, label):
        row = self._scene_with_pixel(tmp_path, label, PixelRole.IGNORE)
        loaded = load_scene(tmp_path, row, 3)
        assert loaded.labels[5, 5] == IGNORE_LABEL
        assert loaded.roles[5, 5] == PixelRole.IGNORE
        assert (loaded.labels != IGNORE_LABEL).sum() == loaded.labels.size - 1

    def test_load_rejects_an_inlier_role_with_the_outlier_label(self, tmp_path):
        row = self._scene_with_pixel(tmp_path, 3, PixelRole.INLIER)
        with pytest.raises(DataFormatError, match=r"inlier pixels without class labels \(label 3\)"):
            load_scene(tmp_path, row, 3)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 32), (32, 0)])
    def test_load_rejects_an_image_without_pixels(self, tmp_path, shape):
        splits = gen_scenes(0, SceneConfig(size=32), {"train": 1})
        row = read_manifest(save_scenes(tmp_path, splits))[0]
        from hybridseg.rasters import write_pgm, write_ppm
        write_ppm(tmp_path / row.image, np.zeros(shape + (3,), np.uint8))
        for raster in (row.label, row.mask):
            write_pgm(tmp_path / raster, np.zeros(shape, np.uint8))
        with pytest.raises(DataFormatError, match="has no rows or no columns"):
            load_scene(tmp_path, row, 3)

    def test_split_rows(self, tmp_path):
        splits = gen_scenes(0, SceneConfig(size=32), {"train": 2, "test": 1})
        manifest = save_scenes(tmp_path, splits)
        assert [r.image for r in split_rows(manifest, "train")] == ["train_0000.ppm",
                                                                    "train_0001.ppm"]
        with pytest.raises(DataFormatError, match="no rows for split 'val'"):
            split_rows(manifest, "val")
