import math
import os
import resource
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import write_v1_checkpoint
from hybridseg import cli
from hybridseg import config as cfgmod
from hybridseg.cli import main
from hybridseg.metrics import average_precision
from hybridseg.network import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    NetworkConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from hybridseg.rasters import (
    read_manifest,
    read_pgm,
    read_score_raster,
    write_pgm,
    write_ppm,
    write_score_raster,
)

RUNNER = CliRunner()

SYNTH_ARGS = ["synth", "--scene-size", "32", "--train-count", "3",
              "--val-count", "2", "--test-count", "2", "--toy-points", "100"]
TRAIN_ARGS = ["train", "--widths", "6,8", "--epochs", "2", "--batches-per-epoch", "2",
              "--batch-size", "2", "--crop-size", "32", "--patch-count", "4"]


def run_ok(args):
    result = RUNNER.invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth -> train -> score -> eval pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    run = root / "run"
    run_ok(SYNTH_ARGS + ["--out", data, "--seed", 3])
    manifest = data / "scenes" / "manifest.csv"
    run_ok(TRAIN_ARGS + ["--data", manifest, "--out", run, "--seed", 3])
    run_ok(["score", "--checkpoint", run / "checkpoint.dhck", "--data", manifest,
            "--out", run / "scores"])
    run_ok(["eval", "--data", manifest, "--scores", run / "scores",
            "--out", run / "metrics.csv", "--bins", "5,20,50"])
    return {"data": data, "manifest": manifest, "run": run}


def huge_widths_checkpoint(workspace, tmp_path, widths: str):
    """The pipeline's checkpoint with its config's widths replaced by ``widths``."""
    data = (workspace["run"] / "checkpoint.dhck").read_bytes()
    cfg_len, = struct.unpack("<I", data[16:20])
    blob = data[20:20 + cfg_len].replace(b'"widths":[6,8]', b'"widths":' + widths.encode())
    assert widths.encode() in blob
    bad = tmp_path / "huge.dhck"
    bad.write_bytes(data[:16] + struct.pack("<I", len(blob)) + blob + data[20 + cfg_len:])
    return bad


def read_metric_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "split,metric,bin,value,status"
    return [line.split(",", 4) for line in lines[1:]]


class TestSynth:
    def test_layout(self, workspace):
        data = workspace["data"]
        rows = read_manifest(workspace["manifest"])
        assert [r.split for r in rows] == ["train"] * 3 + ["val"] * 2 + ["test"] * 2
        for r in rows:
            scene_dir = data / "scenes"
            assert (scene_dir / r.image).exists()
            assert (scene_dir / r.label).exists()
            assert (scene_dir / r.mask).exists()
            has_dist = (scene_dir / (r.image[:-4] + "_dist.pgm")).exists()
            assert has_dist == (r.split in ("val", "test"))
        assert (data / "toy" / "train.csv").exists()
        assert (data / "toy" / "test.csv").exists()
        assert (data / "config.resolved.ini").exists()

    def test_refuses_nonempty_out_without_force(self, workspace):
        result = RUNNER.invoke(main, [str(a) for a in
                                      SYNTH_ARGS + ["--out", workspace["data"]]])
        assert result.exit_code == 2
        run_ok(SYNTH_ARGS + ["--out", workspace["data"], "--seed", 3, "--force", "true"])

    def test_rerun_from_sidecar_reproduces_every_byte(self, tmp_path):
        out = tmp_path / "data"
        run_ok(SYNTH_ARGS + ["--out", out, "--seed", 11])
        snapshot = {p.relative_to(out): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}
        sidecar = tmp_path / "saved.ini"
        sidecar.write_bytes((out / "config.resolved.ini").read_bytes())

        import shutil
        shutil.rmtree(out)
        run_ok(["synth", "--config", sidecar])
        rerun = {p.relative_to(out): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        assert snapshot == rerun

    @pytest.mark.parametrize("flag", ["--seed", "--train-count", "--val-count",
                                      "--test-count"])
    def test_negative_value_is_a_config_error(self, tmp_path, flag):
        result = RUNNER.invoke(main, [str(a) for a in
                                      SYNTH_ARGS + ["--out", tmp_path / "d", flag, "-1"]])
        assert result.exit_code == 2, result.output
        assert "seed and split counts must be >= 0" in result.output
        assert not (tmp_path / "d").exists()

    def test_percent_in_a_value_reruns_from_the_sidecar(self, tmp_path):
        out = tmp_path / "d%1"
        run_ok(SYNTH_ARGS + ["--out", out])
        sidecar = tmp_path / "saved.ini"
        sidecar.write_bytes((out / "config.resolved.ini").read_bytes())
        assert f"out = {out}\n" in sidecar.read_text()
        shutil.rmtree(out)
        run_ok(["synth", "--config", sidecar])
        assert (out / "config.resolved.ini").read_bytes() == sidecar.read_bytes()


class TestTrain:
    def test_outputs(self, workspace):
        run = workspace["run"]
        assert (run / "checkpoint.dhck").exists()
        assert (run / "config.resolved.ini").exists()
        log = (run / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,cls,posterior_in,posterior_out,likelihood_out,total"
        assert len(log) == 3  # header + 2 epochs
        _, step = load_checkpoint(run / "checkpoint.dhck")
        assert step == 4  # 2 epochs x 2 batches

    def test_fresh_processes_at_one_blas_thread_write_the_same_bytes(self, workspace,
                                                                      tmp_path):
        # README's "same seed, same bytes" for training holds at a fixed
        # numpy/BLAS build and BLAS thread count: the grad-w GEMM sums in a
        # different order at another thread count. Each process also starts
        # its workspace cold.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        runs = [tmp_path / name for name in ("a", "b")]
        for run in runs:
            args = TRAIN_ARGS + ["--data", workspace["manifest"], "--out", run, "--seed", 3]
            subprocess.run([sys.executable, "-c", "from hybridseg.cli import main; main()",
                            *map(str, args)], env=env, check=True, capture_output=True)
        for name in ("checkpoint.dhck", "train_log.csv"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    def test_checkpoints_are_bit_reproducible(self, workspace, tmp_path):
        # the float32 training graph included: same seed, same bytes
        run_ok(TRAIN_ARGS + ["--data", workspace["manifest"], "--out", tmp_path / "again",
                             "--seed", 3])
        for name in ("checkpoint.dhck", "train_log.csv"):
            assert ((tmp_path / "again" / name).read_bytes()
                    == (workspace["run"] / name).read_bytes())

    def test_resume_continues_the_step_counter(self, workspace, tmp_path):
        run_ok(TRAIN_ARGS + ["--data", workspace["manifest"], "--out", tmp_path,
                             "--resume", workspace["run"] / "checkpoint.dhck"])
        _, step = load_checkpoint(tmp_path / "checkpoint.dhck")
        assert step == 8

    def test_resume_from_a_v1_checkpoint_writes_v2(self, workspace, tmp_path):
        params, step = load_checkpoint(workspace["run"] / "checkpoint.dhck")
        v1 = tmp_path / "v1.dhck"
        write_v1_checkpoint(v1, params, [np.full(w, 0.5) for w in params.config.widths],
                            step=step)
        run_ok(TRAIN_ARGS + ["--data", workspace["manifest"], "--out", tmp_path / "run",
                             "--resume", v1])
        out = tmp_path / "run" / "checkpoint.dhck"
        assert out.read_bytes()[4:8] == struct.pack("<I", CHECKPOINT_VERSION)
        assert load_checkpoint(out)[1] == 8

    def test_resume_from_a_checkpoint_declaring_huge_widths_is_a_data_error(
            self, workspace, tmp_path):
        bad = huge_widths_checkpoint(workspace, tmp_path, "[1000000000]")
        result = RUNNER.invoke(main, [str(a) for a in
                                      TRAIN_ARGS + ["--data", workspace["manifest"],
                                                    "--out", tmp_path / "run", "--resume", bad]])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "truncated checkpoint at stage0.w" in result.output
        assert not (tmp_path / "run" / "checkpoint.dhck").exists()

    def test_resume_class_count_mismatch(self, workspace, tmp_path):
        result = RUNNER.invoke(main, [str(a) for a in
                                      TRAIN_ARGS + ["--data", workspace["manifest"],
                                                    "--out", tmp_path,
                                                    "--resume", workspace["run"] / "checkpoint.dhck",
                                                    "--num-classes", "4"]])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag,value", [("--widths", "99,99"), ("--widths", "6"),
                                            ("--kernel-size", "5")])
    def test_resume_architecture_mismatch(self, workspace, tmp_path, flag, value):
        result = RUNNER.invoke(main, [str(a) for a in
                                      TRAIN_ARGS + ["--data", workspace["manifest"],
                                                    "--out", tmp_path,
                                                    "--resume", workspace["run"] / "checkpoint.dhck",
                                                    flag, value]])
        assert result.exit_code == 2, result.output
        assert "differs from configuration" in result.output
        assert not (tmp_path / "config.resolved.ini").exists()

    def test_resume_input_channels_mismatch(self, workspace, tmp_path):
        # the same data error, exit 3, as `score` gives for this checkpoint
        two = tmp_path / "two.dhck"
        save_checkpoint(two, init_params(NetworkConfig(input_channels=2, widths=(6, 8),
                                                       num_classes=3)))
        result = RUNNER.invoke(main, [str(a) for a in
                                      TRAIN_ARGS + ["--data", workspace["manifest"],
                                                    "--out", tmp_path / "run", "--resume", two]])
        assert result.exit_code == 3, result.output
        assert "input_channels 2 != 3" in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("step", [2 ** 64 - 1, 2 ** 64 - 4])
    def test_resume_past_the_u64_step_field_is_a_config_error(self, workspace, tmp_path, step):
        # 2 epochs x 2 batches would end at step 2**64 or later, which the
        # checkpoint cannot store: rejected before the first step
        data = (workspace["run"] / "checkpoint.dhck").read_bytes()
        late = tmp_path / "late.dhck"
        late.write_bytes(data[:8] + struct.pack("<Q", step) + data[16:])
        assert load_checkpoint(late)[1] == step
        result = RUNNER.invoke(main, [str(a) for a in
                                      TRAIN_ARGS + ["--data", workspace["manifest"],
                                                    "--out", tmp_path / "run", "--resume", late]])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "does not fit the checkpoint's u64 step field" in result.output
        assert not (tmp_path / "run").exists()

    def test_divergence_saves_the_last_good_epoch_step(self, workspace, tmp_path,
                                                       monkeypatch):
        calls = {"n": 0}
        clean = cli.mixed_batch

        def poisoned(*args, **kwargs):
            calls["n"] += 1
            images, labels = clean(*args, **kwargs)
            if calls["n"] > 2:  # the first epoch (2 batches) stays finite
                images = images.copy()
                images[0, 0, 0, 0] = math.nan
            return images, labels

        monkeypatch.setattr(cli, "mixed_batch", poisoned)
        result = RUNNER.invoke(main, [str(a) for a in
                                      TRAIN_ARGS + ["--data", workspace["manifest"],
                                                    "--out", tmp_path, "--epochs", "3"]])
        assert result.exit_code == 4, result.output
        _, step = load_checkpoint(tmp_path / "checkpoint.last_good.dhck")
        assert step == 2  # one finished epoch of 2 batches
        assert len((tmp_path / "train_log.csv").read_text().splitlines()) == 2
        assert not (tmp_path / "checkpoint.dhck").exists()

    def test_zero_beta_logs_zero_outlier_terms(self, workspace, tmp_path):
        run_ok(TRAIN_ARGS + ["--data", workspace["manifest"], "--out", tmp_path,
                             "--beta", "0"])
        for line in (tmp_path / "train_log.csv").read_text().splitlines()[1:]:
            _, _, _, posterior_out, likelihood_out, _ = line.split(",")
            assert float(posterior_out) == 0.0
            assert float(likelihood_out) == 0.0

    def test_zero_beta_needs_no_negative_patches(self, workspace, tmp_path):
        # the closed-set baseline pastes nothing, so it may generate no patches
        run_ok(TRAIN_ARGS + ["--data", workspace["manifest"], "--out", tmp_path,
                             "--beta", "0", "--patch-count", "0"])
        assert (tmp_path / "checkpoint.dhck").exists()

    def test_a_batch_of_ignore_pixels_only_trains_at_zero_loss(self, workspace, tmp_path):
        # every train pixel ignored and beta 0 (nothing pasted): no pixel
        # reaches a loss term, and each step's gradient is exactly zero
        scenes = tmp_path / "scenes"
        shutil.copytree(workspace["manifest"].parent, scenes)
        for row in read_manifest(scenes / "manifest.csv"):
            if row.split == "train":
                write_pgm(scenes / row.mask, np.full_like(read_pgm(scenes / row.mask), 2))
        run_ok(TRAIN_ARGS + ["--data", scenes / "manifest.csv", "--out", tmp_path / "run",
                             "--beta", "0"])
        for line in (tmp_path / "run" / "train_log.csv").read_text().splitlines()[1:]:
            assert [float(v) for v in line.split(",")[1:]] == [0.0] * 5

    @pytest.mark.parametrize("flag,value", [("--batch-size", "0"), ("--batch-size", "-1"),
                                            ("--seed", "-1"), ("--num-classes", "300"),
                                            ("--widths", ""),
                                            # beta > 0 with no negatives to paste
                                            ("--patch-count", "0"), ("--patch-count", "-1"),
                                            ("--paste-count", "0"),
                                            # rates that would train on nan, inf or
                                            # by gradient ascent
                                            ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1"),
                                            ("--lr-end", "nan"), ("--lr-end", "-1e-3"),
                                            ("--beta", "nan"), ("--beta", "inf")])
    def test_bad_value_is_a_config_error(self, workspace, tmp_path, flag, value):
        result = RUNNER.invoke(main, [str(a) for a in
                                      TRAIN_ARGS + ["--data", workspace["manifest"],
                                                    "--out", tmp_path, flag, value]])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert not (tmp_path / "checkpoint.dhck").exists()

    def test_flags_override_config_file(self, workspace, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[train]\ndata = {workspace['manifest']}\n"
                       f"out = {tmp_path / 'run'}\nwidths = 6,8\nepochs = 1\n"
                       "batches_per_epoch = 2\nbatch_size = 2\ncrop_size = 32\n"
                       "patch_count = 4\n")
        run_ok(["train", "--config", ini, "--epochs", "2"])
        log = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
        assert len(log) == 3  # the flag's two epochs, not the file's one


class TestScore:
    def test_outputs_per_image(self, workspace):
        scores = workspace["run"] / "scores"
        test_rows = [r for r in read_manifest(workspace["manifest"]) if r.split == "test"]
        for r in test_rows:
            stem = r.image[:-4]
            for variant in ("hybrid", "generative", "discriminative"):
                assert (scores / f"{stem}_{variant}.dhsc").exists()
            argmax = read_pgm(scores / f"{stem}_argmax.pgm")
            assert argmax.shape == (32, 32)
            assert argmax.max() < 3

    def test_exported_hybrid_is_the_sum_of_the_parts(self, workspace):
        # exact: hybrid is computed as the float32 sum the rasters store
        scores = workspace["run"] / "scores"
        stems = [r.image[:-4] for r in read_manifest(workspace["manifest"])
                 if r.split == "test"]
        assert stems
        for stem in stems:
            h, g, d = (read_score_raster(scores / f"{stem}_{v}.dhsc")
                       for v in ("hybrid", "generative", "discriminative"))
            parts = g + d
            assert parts.dtype == np.float32
            np.testing.assert_array_equal(h, parts)

    def test_tau_exports_fused_open_maps(self, workspace, tmp_path):
        run_ok(["score", "--checkpoint", workspace["run"] / "checkpoint.dhck",
                "--data", workspace["manifest"], "--out", tmp_path, "--tau", "-inf"])
        fused = read_pgm(tmp_path / "test_0000_open.pgm")
        assert np.all(fused == 3)  # everything below an infinitely low bar

    def test_tau_is_compared_with_the_float32_scores_in_float64(self, workspace, tmp_path):
        # the next double above the top score rounds back to it in float32,
        # yet no pixel scores at or above it
        scores = workspace["run"] / "scores"
        top = float(read_score_raster(scores / "test_0000_hybrid.dhsc").max())
        argmax = read_pgm(scores / "test_0000_argmax.pgm")
        above = float(np.nextafter(top, math.inf))
        assert np.float32(above) == top
        for tau, outliers in ((above, 0), (top, 1)):
            run_ok(["score", "--checkpoint", workspace["run"] / "checkpoint.dhck",
                    "--data", workspace["manifest"], "--out", tmp_path, "--tau", repr(tau)])
            fused = read_pgm(tmp_path / "test_0000_open.pgm")
            assert (np.count_nonzero(fused == 3) >= 1) == bool(outliers)
            np.testing.assert_array_equal(fused[fused != 3], argmax[fused != 3])

    def test_unknown_variant_rejected(self, workspace, tmp_path):
        result = RUNNER.invoke(main, ["score", "--checkpoint",
                                      str(workspace["run"] / "checkpoint.dhck"),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path), "--variants", "energy"])
        assert result.exit_code == 2

    def test_nan_tau_is_a_config_error(self, workspace, tmp_path):
        # a NaN tau would fuse no outlier at all; it is rejected before the
        # checkpoint is read, so a missing one still exits 2, not 3
        result = RUNNER.invoke(main, ["score", "--checkpoint", str(tmp_path / "no.dhck"),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path / "out"), "--tau", "nan"])
        assert result.exit_code == 2, result.output
        assert "config error: tau must not be NaN" in result.output
        assert not (tmp_path / "out").exists()

    def test_infinite_tau_exports_the_argmax(self, workspace, tmp_path):
        run_ok(["score", "--checkpoint", workspace["run"] / "checkpoint.dhck",
                "--data", workspace["manifest"], "--out", tmp_path, "--tau", "inf"])
        np.testing.assert_array_equal(read_pgm(tmp_path / "test_0000_open.pgm"),
                                      read_pgm(tmp_path / "test_0000_argmax.pgm"))

    def test_unparsable_tau_is_a_config_error(self, workspace, tmp_path):
        result = RUNNER.invoke(main, ["score", "--checkpoint",
                                      str(workspace["run"] / "checkpoint.dhck"),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path), "--tau", "abc"])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output

    def test_missing_checkpoint_is_a_data_error(self, workspace, tmp_path):
        result = RUNNER.invoke(main, ["score", "--checkpoint", str(tmp_path / "no.dhck"),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 3

    def test_malformed_checkpoint_is_a_data_error(self, workspace, tmp_path):
        bad = tmp_path / "short.dhck"
        bad.write_bytes((workspace["run"] / "checkpoint.dhck").read_bytes()[:6])
        result = RUNNER.invoke(main, ["score", "--checkpoint", str(bad),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "data error" in result.output

    @pytest.mark.parametrize("field,value", [("seed", "-1"), ("kernel_size", "3.0"),
                                             ("num_classes", "300")])
    def test_checkpoint_with_a_bad_config_is_a_data_error(self, workspace, tmp_path,
                                                          field, value):
        cfg = NetworkConfig(input_channels=3, widths=(6, 8), num_classes=3)
        blob = cfg.to_json().replace(f'"{field}":{getattr(cfg, field)}',
                                     f'"{field}":{value}').encode()
        bad = tmp_path / "bad.dhck"
        bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IQI", CHECKPOINT_VERSION, 0, len(blob))
                        + blob)
        result = RUNNER.invoke(main, ["score", "--checkpoint", str(bad),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert "malformed checkpoint config" in result.output

    @pytest.mark.parametrize("widths", ["[1000000000]", "[200000,200000]"])
    def test_checkpoint_declaring_huge_widths_is_a_data_error(self, workspace, tmp_path,
                                                              widths):
        # 201 GiB and 2.6 TiB of parameters that the file does not hold: the
        # size check must reject them before anything is allocated
        bad = huge_widths_checkpoint(workspace, tmp_path, widths)
        result = RUNNER.invoke(main, ["score", "--checkpoint", str(bad),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "truncated checkpoint at stage0.w" in result.output

    def test_checkpoint_with_other_input_channels_is_a_data_error(self, workspace, tmp_path):
        # a valid model, but not one that `train` builds for RGB scenes
        two = tmp_path / "two.dhck"
        save_checkpoint(two, init_params(NetworkConfig(input_channels=2, widths=(6, 8),
                                                       num_classes=3)))
        result = RUNNER.invoke(main, ["score", "--checkpoint", str(two),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert "input_channels 2 != 3" in result.output
        assert not (tmp_path / "out").exists()

    def test_non_finite_checkpoint_is_a_numeric_failure(self, workspace, tmp_path):
        params = init_params(NetworkConfig(input_channels=3, widths=(6, 8), num_classes=3))
        params["stage0.w"].value[0, 0, 0, 0] = math.nan
        bad = tmp_path / "bad.dhck"
        save_checkpoint(bad, params)
        result = RUNNER.invoke(main, ["score", "--checkpoint", str(bad),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 4

    def test_infinite_dataset_logit_is_a_numeric_failure(self, workspace, tmp_path):
        # an infinite ood.b makes every dataset logit infinite; a sigmoid of
        # it would still be finite, so the check must see the logit itself
        params, _ = load_checkpoint(workspace["run"] / "checkpoint.dhck")
        params["ood.b"].value[...] = math.inf
        bad = tmp_path / "bad.dhck"
        save_checkpoint(bad, params)
        result = RUNNER.invoke(main, ["score", "--checkpoint", str(bad),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert "non-finite dataset logit" in result.output
        assert not list((tmp_path / "out").glob("*.dhsc"))


class TestEval:
    def test_report_contents(self, workspace):
        rows = read_metric_rows(workspace["run"] / "metrics.csv")
        metric_names = {(r[1], r[2]) for r in rows}
        assert ("closed_miou", "") in metric_names
        for variant in ("hybrid", "generative", "discriminative"):
            assert (f"ap/{variant}", "") in metric_names
            assert (f"auroc/{variant}", "") in metric_names
            assert (f"fpr95/{variant}", "") in metric_names
            assert (f"open_miou/{variant}", "") in metric_names
            assert (f"ap/{variant}", "5-20m") in metric_names
            assert (f"ap/{variant}", "20-50m") in metric_names
        for row in rows:
            if row[4] == "ok":
                value = float(row[3])
                assert math.isfinite(value)

    def test_image_order_does_not_change_metrics(self, workspace, tmp_path):
        rows = read_manifest(workspace["manifest"])
        reordered = [r for r in rows if r.split != "test"] \
            + list(reversed([r for r in rows if r.split == "test"]))
        from hybridseg.rasters import write_manifest
        alt_manifest = workspace["manifest"].parent / "manifest_reversed.csv"
        write_manifest(alt_manifest, reordered)
        run_ok(["eval", "--data", alt_manifest, "--scores", workspace["run"] / "scores",
                "--out", tmp_path / "metrics.csv", "--bins", "5,20,50"])
        assert ((tmp_path / "metrics.csv").read_text()
                == (workspace["run"] / "metrics.csv").read_text())

    def eval_on(self, workspace, tmp_path, *extra, scores=None):
        return RUNNER.invoke(main, [str(a) for a in [
            "eval", "--data", workspace["manifest"],
            "--scores", scores or workspace["run"] / "scores",
            "--out", tmp_path / "m.csv", *extra]])

    def damaged_scores(self, workspace, tmp_path, name, write, raster):
        scores = tmp_path / "scores"
        shutil.copytree(workspace["run"] / "scores", scores)
        write(scores / name, raster)
        return scores

    @pytest.fixture(scope="class")
    def train_scores(self, workspace, tmp_path_factory):
        """Scores of the train split, whose scenes hold no anomaly."""
        scores = tmp_path_factory.mktemp("train_scores")
        run_ok(["score", "--checkpoint", workspace["run"] / "checkpoint.dhck",
                "--data", workspace["manifest"], "--out", scores, "--split", "train"])
        return scores

    def assert_error_rows(self, result, path, errors):
        """Every variant's pooled `metric` row is (nan, "error: <errors[metric]>")."""
        assert result.exit_code == 0, result.output
        rows = {(r[1], r[2]): r[3:] for r in read_metric_rows(path)}
        for v in ("hybrid", "generative", "discriminative"):
            for metric, error in errors.items():
                assert rows[(f"{metric}/{v}", "")] == ["nan", f"error: {error}"]

    def test_no_outlier_pixel_gives_error_rows(self, workspace, train_scores, tmp_path):
        result = self.eval_on(workspace, tmp_path, "--split", "train", scores=train_scores)
        self.assert_error_rows(result, tmp_path / "m.csv", {
            "ap": "average precision needs at least one positive",
            "auroc": "AUROC needs both positives and negatives",
            "fpr95": "FPR/TPR need both positives and negatives"})

    def all_ignored(self, workspace, tmp_path, split):
        """Manifest of a copy of the scenes in which every `split` pixel is ignored."""
        scenes = tmp_path / "scenes"
        shutil.copytree(workspace["manifest"].parent, scenes)
        for row in read_manifest(scenes / "manifest.csv"):
            if row.split == split:
                write_pgm(scenes / row.label, np.full((32, 32), 255, np.uint8))
                write_pgm(scenes / row.mask, np.full((32, 32), 2, np.uint8))
        return scenes / "manifest.csv"

    def test_no_evaluated_pixel_gives_error_rows(self, workspace, train_scores, tmp_path):
        result = RUNNER.invoke(main, [str(a) for a in [
            "eval", "--data", self.all_ignored(workspace, tmp_path, "train"),
            "--scores", train_scores, "--out", tmp_path / "m.csv", "--split", "train"]])
        error = "scores and truth must be equal-length and nonempty"
        self.assert_error_rows(result, tmp_path / "m.csv",
                               {"ap": error, "auroc": error, "fpr95": error})

    def test_no_evaluated_pixel_gives_degenerate_bins(self, workspace, tmp_path):
        result = RUNNER.invoke(main, [str(a) for a in [
            "eval", "--data", self.all_ignored(workspace, tmp_path, "test"),
            "--scores", workspace["run"] / "scores", "--out", tmp_path / "m.csv",
            "--bins", "5,20,50"]])
        assert result.exit_code == 0, result.output
        rows = {(r[1], r[2]): r[3:] for r in read_metric_rows(tmp_path / "m.csv")}
        for v in ("hybrid", "generative", "discriminative"):
            for metric in ("ap", "fpr95"):
                for bin_name in ("5-20m", "20-50m"):
                    assert rows[(f"{metric}/{v}", bin_name)] == ["nan", "degenerate"]

    def test_bins_without_distance_rasters_is_a_data_error(self, workspace, train_scores,
                                                           tmp_path):
        result = self.eval_on(workspace, tmp_path, "--split", "train", "--bins", "5,20,50",
                              scores=train_scores)
        assert result.exit_code == 3, result.output
        assert "data error: train_0000.ppm: --bins needs train_0000_dist.pgm" in result.output
        assert not (tmp_path / "m.csv").exists()

    def test_bad_bins_beat_missing_distance_rasters(self, workspace, train_scores, tmp_path):
        # the edges are checked before any raster is read: exit 2, not 3
        result = self.eval_on(workspace, tmp_path, "--split", "train", "--bins", "50,20",
                              scores=train_scores)
        assert result.exit_code == 2, result.output
        assert "bin edges must be strictly increasing" in result.output
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("bins", ["5,nan,50", "nan,50", "5,nan"])
    def test_nan_bin_edge_is_a_config_error(self, workspace, tmp_path, bins):
        # a NaN compares false both ways; checked before any raster is read
        result = self.eval_on(workspace, tmp_path, "--bins", bins, scores=tmp_path / "missing")
        assert result.exit_code == 2, result.output
        assert "bin edges must be strictly increasing" in result.output
        assert not (tmp_path / "m.csv").exists()

    def test_nan_target_tpr_is_a_config_error(self, workspace, tmp_path):
        # checked before any raster is read: missing scores still exit 2, not 3
        result = self.eval_on(workspace, tmp_path, "--target-tpr", "nan",
                              scores=tmp_path / "missing")
        assert result.exit_code == 2, result.output
        assert "config error: target_tpr must not be NaN" in result.output
        assert not (tmp_path / "m.csv").exists()

    def test_zero_target_tpr_gives_zero_fpr(self, workspace, tmp_path):
        result = self.eval_on(workspace, tmp_path, "--target-tpr", "0")
        assert result.exit_code == 0, result.output
        rows = {(r[1], r[2]): r[3:] for r in read_metric_rows(tmp_path / "m.csv")}
        for v in ("hybrid", "generative", "discriminative"):
            assert rows[(f"fpr95/{v}", "")] == ["0.0", "ok"]

    @pytest.mark.parametrize("bins", [",", "5"])
    def test_bins_without_two_edges_is_a_config_error(self, workspace, tmp_path, bins):
        result = self.eval_on(workspace, tmp_path, "--bins", bins)
        assert result.exit_code == 2, result.output
        assert "bin edges must be strictly increasing" in result.output

    def test_ignore_pixels_stay_out_of_pooled_ap(self, workspace, tmp_path):
        scenes = tmp_path / "scenes"
        shutil.copytree(workspace["manifest"].parent, scenes)
        labels = read_pgm(scenes / "test_0000_label.pgm").copy()
        roles = read_pgm(scenes / "test_0000_role.pgm").copy()
        assert np.any(labels[0] != 255)
        labels[0], roles[0] = 255, 2
        write_pgm(scenes / "test_0000_label.pgm", labels)
        write_pgm(scenes / "test_0000_role.pgm", roles)
        run_ok(["eval", "--data", scenes / "manifest.csv", "--scores",
                workspace["run"] / "scores", "--out", tmp_path / "m.csv"])
        rows = {(r[1], r[2]): r[3:] for r in read_metric_rows(tmp_path / "m.csv")}

        scores, truth = [], []
        for row in read_manifest(scenes / "manifest.csv"):
            if row.split == "test":
                gt = read_pgm(scenes / row.label)
                stem = row.image[:-len(".ppm")]
                hybrid = read_score_raster(workspace["run"] / "scores" / f"{stem}_hybrid.dhsc")
                scores.append(hybrid[gt != 255])
                truth.append(gt[gt != 255] == 3)
        expected = average_precision(np.concatenate(scores), np.concatenate(truth))
        assert rows[("ap/hybrid", "")] == [repr(expected), "ok"]

    def test_ignore_role_on_a_labelled_pixel_is_left_out(self, workspace, tmp_path):
        """Role 2 on pixels labelled 0..K gives the metrics of label 255 there."""
        metrics = []
        for relabel in (False, True):
            scenes = tmp_path / f"scenes_{relabel}"
            shutil.copytree(workspace["manifest"].parent, scenes)
            labels = read_pgm(scenes / "test_0000_label.pgm").copy()
            roles = read_pgm(scenes / "test_0000_role.pgm").copy()
            dropped = labels == 3
            dropped[:2] = True
            assert np.any(labels[dropped] < 3) and np.any(labels[dropped] == 3)
            roles[dropped] = 2
            if relabel:
                labels[dropped] = 255
            write_pgm(scenes / "test_0000_label.pgm", labels)
            write_pgm(scenes / "test_0000_role.pgm", roles)
            run_ok(["eval", "--data", scenes / "manifest.csv", "--scores",
                    workspace["run"] / "scores", "--out", tmp_path / f"m_{relabel}.csv"])
            metrics.append((tmp_path / f"m_{relabel}.csv").read_text())
        run_ok(["eval", "--data", workspace["manifest"], "--scores", workspace["run"] / "scores",
                "--out", tmp_path / "m.csv"])
        assert metrics[0] == metrics[1] != (tmp_path / "m.csv").read_text()

    def test_repeated_variant_is_evaluated_once(self, workspace, tmp_path):
        run_ok(["eval", "--data", workspace["manifest"], "--scores", workspace["run"] / "scores",
                "--out", tmp_path / "once" / "m.csv", "--variants", "hybrid"])
        run_ok(["eval", "--data", workspace["manifest"], "--scores", workspace["run"] / "scores",
                "--out", tmp_path / "twice" / "m.csv", "--variants", "hybrid,hybrid"])
        assert ((tmp_path / "twice" / "m.csv").read_text()
                == (tmp_path / "once" / "m.csv").read_text())

    def test_unknown_variant_is_a_config_error(self, workspace, tmp_path):
        result = self.eval_on(workspace, tmp_path, "--variants", "foo")
        assert result.exit_code == 2, result.output
        assert "unknown score variants" in result.output

    def test_score_raster_shape_mismatch_is_a_data_error(self, workspace, tmp_path):
        scores = self.damaged_scores(workspace, tmp_path, "test_0000_hybrid.dhsc",
                                     write_score_raster, np.zeros((4, 4)))
        result = self.eval_on(workspace, tmp_path, scores=scores)
        assert result.exit_code == 3, result.output
        assert "data error" in result.output

    def test_nan_score_raster_is_a_data_error(self, workspace, tmp_path):
        raster = read_score_raster(workspace["run"] / "scores" / "test_0000_hybrid.dhsc").copy()
        raster[3, 5] = np.nan
        scores = self.damaged_scores(workspace, tmp_path, "test_0000_hybrid.dhsc",
                                     write_score_raster, raster)
        result = self.eval_on(workspace, tmp_path, scores=scores)
        assert result.exit_code == 3, result.output
        assert "score raster holds NaN" in result.output
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("value", ["-1", "0", "1", "255", "300"])
    def test_num_classes_out_of_range_is_a_config_error(self, workspace, tmp_path, value):
        result = self.eval_on(workspace, tmp_path, "--num-classes", value)
        assert result.exit_code == 2, result.output
        assert "num_classes must be in 2..254" in result.output
        assert not (tmp_path / "m.csv").exists()

    def test_out_of_range_argmax_is_a_data_error(self, workspace, tmp_path):
        scores = self.damaged_scores(workspace, tmp_path, "test_0000_argmax.pgm",
                                     write_pgm, np.full((32, 32), 3, np.uint8))
        result = self.eval_on(workspace, tmp_path, scores=scores)
        assert result.exit_code == 3, result.output
        assert "data error" in result.output

    def test_non_utf8_manifest_is_a_data_error(self, workspace, tmp_path):
        bad = workspace["manifest"].parent / "manifest_not_utf8.csv"
        bad.write_bytes(workspace["manifest"].read_bytes() + b"test,x\xff.ppm,x.pgm,y.pgm\n")
        result = RUNNER.invoke(main, ["eval", "--data", str(bad),
                                      "--scores", str(workspace["run"] / "scores"),
                                      "--out", str(tmp_path / "m.csv")])
        assert result.exit_code == 3, result.output

    def test_non_utf8_config_is_a_config_error(self, workspace, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_bytes(b"[eval]\nsplit = test\xff\n")
        result = self.eval_on(workspace, tmp_path, "--config", ini)
        assert result.exit_code == 2, result.output

    def test_missing_scores_dir_is_a_data_error(self, workspace, tmp_path):
        result = RUNNER.invoke(main, ["eval", "--data", str(workspace["manifest"]),
                                      "--scores", str(tmp_path / "nothing"),
                                      "--out", str(tmp_path / "m.csv")])
        assert result.exit_code == 3

    def test_unknown_split_is_a_data_error(self, workspace, tmp_path):
        result = RUNNER.invoke(main, ["eval", "--data", str(workspace["manifest"]),
                                      "--scores", str(workspace["run"] / "scores"),
                                      "--out", str(tmp_path / "m.csv"),
                                      "--split", "holdout"])
        assert result.exit_code == 3


WRONG_KIND_PATHS = {
    "score --checkpoint <dir>": lambda w, d, f: [
        "score", "--checkpoint", d, "--data", w["manifest"], "--out", d / "s"],
    "eval --data <dir>": lambda w, d, f: [
        "eval", "--data", d, "--scores", w["run"] / "scores", "--out", d / "m.csv"],
    "eval --out <dir>": lambda w, d, f: [
        "eval", "--data", w["manifest"], "--scores", w["run"] / "scores", "--out", d],
    "synth --out <file>": lambda w, d, f: SYNTH_ARGS + ["--out", f],
    "train --out <file>": lambda w, d, f: TRAIN_ARGS + ["--data", w["manifest"], "--out", f],
}


@pytest.mark.parametrize("case", WRONG_KIND_PATHS)
def test_path_of_the_wrong_kind_is_a_data_error(workspace, tmp_path, case):
    directory, file = tmp_path / "dir", tmp_path / "file"
    directory.mkdir()
    file.write_text("x")
    result = RUNNER.invoke(main, [str(a) for a in
                                  WRONG_KIND_PATHS[case](workspace, directory, file)])
    assert result.exit_code == 3, (result.output, result.exception)
    assert "data error" in result.output
    assert "Traceback" not in result.output


class TestToy:
    def test_report_shape(self, tmp_path):
        run_ok(["toy", "--out", tmp_path, "--seeds", "0", "--n-per-role", "100",
                "--widths", "8", "--steps", "20"])
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0] == "seed,variant,auroc,ap,auroc_unseen"
        assert len(report) == 4  # one row per score variant
        points = (tmp_path / "points.csv").read_text().splitlines()
        assert len(points) == 1 + 300 * 3  # test points x variants
        for line in report[1:]:
            _, _, auroc_s, ap_s, unseen_s = line.split(",")
            for value in (auroc_s, ap_s, unseen_s):
                assert 0.0 <= float(value) <= 1.0

    def test_grid_batch_labels_outliers_k(self):
        train_set, _ = cli.gen_toy2d(0, 100)
        grid, labels = cli.toy_grid_batch(train_set.points, train_set.class_labels,
                                          train_set.roles)
        assert grid.shape == (1, 2, 300, 1) and labels.shape == (1, 300, 1)
        np.testing.assert_array_equal(labels.ravel(), np.repeat([0, 1, 2], 100))

    def test_no_seeds_is_a_config_error(self, tmp_path):
        result = RUNNER.invoke(main, ["toy", "--out", str(tmp_path), "--seeds", ""])
        assert result.exit_code == 2, result.output
        assert "at least one seed" in result.output

    def test_negative_seed_is_a_config_error(self, tmp_path):
        result = RUNNER.invoke(main, ["toy", "--out", str(tmp_path), "--seeds", "0,-1"])
        assert result.exit_code == 2, result.output
        assert "no negative one" in result.output

    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1"),
                                            ("--lr-end", "nan"), ("--lr-end", "-1e-3"),
                                            ("--beta", "nan"), ("--beta", "-inf")])
    def test_bad_rate_or_beta_is_a_config_error(self, tmp_path, flag, value):
        result = RUNNER.invoke(main, ["toy", "--out", str(tmp_path), "--seeds", "0",
                                      "--n-per-role", "100", "--widths", "4",
                                      "--steps", "2", flag, value])
        assert result.exit_code == 2, result.output
        assert "must be finite and >= 0" in result.output
        assert not (tmp_path / "report.csv").exists()


# per key kind: INI text, flag text, and the values they parse to
KIND_VALUES = {"int": ("1", "2", 1, 2), "float": ("0.25", "0.5", 0.25, 0.5),
               "bool": ("false", "true", False, True),
               "str": ("from-ini", "from-flag", "from-ini", "from-flag")}


class StopBeforeWork(Exception):
    pass


@pytest.mark.parametrize("command,key", [(c, k) for c, keys in cfgmod.SCHEMAS.items()
                                         for k in keys],
                         ids=lambda v: v if isinstance(v, str) else v.name)
def test_every_flag_overrides_its_config_file_key(command, key, tmp_path, monkeypatch):
    schema = cfgmod.SCHEMAS[command]
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n" + "".join(
        f"{k.name} = {KIND_VALUES[k.kind][0]}\n" for k in schema))
    resolved = {}
    real_resolve = cfgmod.resolve

    def resolve_then_stop(*args):
        resolved.update(real_resolve(*args))
        raise StopBeforeWork

    monkeypatch.setattr(cfgmod, "resolve", resolve_then_stop)
    result = RUNNER.invoke(main, [command, "--config", str(ini),
                                  f"--{key.name.replace('_', '-')}", KIND_VALUES[key.kind][1]])
    assert isinstance(result.exception, StopBeforeWork), result.output
    assert resolved == {k.name: KIND_VALUES[k.kind][3 if k is key else 2] for k in schema}


class TestOutOfRangeLabels:
    """A `_label.pgm` pixel outside 0..K and 255 is a data error in every reader."""

    @pytest.fixture
    def bad_data(self, workspace, tmp_path):
        scenes = tmp_path / "scenes"
        shutil.copytree(workspace["manifest"].parent, scenes)
        for stem in ("train_0000", "test_0000"):
            labels = read_pgm(scenes / f"{stem}_label.pgm").copy()
            labels[0, 0] = 7  # K = 3
            write_pgm(scenes / f"{stem}_label.pgm", labels)
        return scenes / "manifest.csv"

    def assert_data_error(self, args):
        result = RUNNER.invoke(main, [str(a) for a in args])
        assert result.exit_code == 3, result.output
        assert "label 7 outside 0..3" in result.output

    def test_eval(self, workspace, bad_data, tmp_path):
        self.assert_data_error(["eval", "--data", bad_data, "--scores", workspace["run"] / "scores",
                                "--out", tmp_path / "m.csv"])
        assert not (tmp_path / "m.csv").exists()

    def test_train(self, bad_data, tmp_path):
        self.assert_data_error(TRAIN_ARGS + ["--data", bad_data, "--out", tmp_path / "run"])

    def test_score(self, workspace, bad_data, tmp_path):
        self.assert_data_error(["score", "--checkpoint", workspace["run"] / "checkpoint.dhck",
                                "--data", bad_data, "--out", tmp_path / "scores"])


@pytest.fixture
def address_space_cap():
    """Cap this process's address space at 64 GiB for the test, so that an
    allocation larger than that fails at once on any machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 64 << 30
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# each first large allocation asks for 7.28 TiB, 224 GiB or 201 GiB
@pytest.mark.parametrize("command,flag,value,key", [
    ("synth", "--scene-size", "1000000", "scene_size"),
    ("train", "--crop-size", "100000", "crop_size"),
    ("train", "--widths", "1000000000", "widths")])
def test_a_setting_too_large_for_memory_is_a_config_error(workspace, tmp_path, address_space_cap,
                                                          command, flag, value, key):
    args = (SYNTH_ARGS if command == "synth"
            else TRAIN_ARGS + ["--data", workspace["manifest"]])
    result = RUNNER.invoke(main, [str(a) for a in
                                  args + ["--out", tmp_path / "out", flag, value]])
    assert result.exit_code == 2, (result.output, result.exception)
    assert f"config error: {command} needs more memory than there is" in result.output
    assert key in result.output.split("lower")[-1]


class TestEmptyImage:
    """A 0x0 scene is a data error in `train` and `score`, not a traceback."""

    @pytest.fixture
    def empty_data(self, workspace, tmp_path):
        scenes = tmp_path / "scenes"
        shutil.copytree(workspace["manifest"].parent, scenes)
        for stem in ("train_0000", "test_0000"):
            write_ppm(scenes / f"{stem}.ppm", np.zeros((0, 0, 3), np.uint8))
            for suffix in ("label", "role", "dist"):
                if (scenes / f"{stem}_{suffix}.pgm").exists():
                    write_pgm(scenes / f"{stem}_{suffix}.pgm", np.zeros((0, 0), np.uint8))
        return scenes / "manifest.csv"

    def assert_data_error(self, args):
        result = RUNNER.invoke(main, [str(a) for a in args])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "data error" in result.output
        assert "has no rows or no columns" in result.output

    def test_train(self, empty_data, tmp_path):
        self.assert_data_error(TRAIN_ARGS + ["--data", empty_data, "--out", tmp_path / "run"])

    def test_score(self, workspace, empty_data, tmp_path):
        self.assert_data_error(["score", "--checkpoint", workspace["run"] / "checkpoint.dhck",
                                "--data", empty_data, "--out", tmp_path / "scores"])


def test_train_rejects_a_role_outside_0_to_2(workspace, tmp_path):
    """Roles of 7 would leave every pixel out of the classification loss."""
    scenes = tmp_path / "scenes"
    shutil.copytree(workspace["manifest"].parent, scenes)
    for row in read_manifest(scenes / "manifest.csv"):
        if row.split == "train":
            write_pgm(scenes / row.mask, np.full_like(read_pgm(scenes / row.mask), 7))
    result = RUNNER.invoke(main, [str(a) for a in TRAIN_ARGS + [
        "--data", scenes / "manifest.csv", "--out", tmp_path / "run"]])
    assert result.exit_code == 3, result.output
    assert "role 7 outside 0..2" in result.output
    assert not (tmp_path / "run" / "checkpoint.dhck").exists()
