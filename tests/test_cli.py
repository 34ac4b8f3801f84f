import math

import numpy as np
import pytest
from click.testing import CliRunner

from hybridseg import cli
from hybridseg.cli import main
from hybridseg.network import NetworkConfig, init_params, load_checkpoint, save_checkpoint
from hybridseg.rasters import read_manifest, read_pgm, read_score_raster

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

    def test_checkpoints_are_bit_reproducible(self, workspace, tmp_path):
        run_ok(TRAIN_ARGS + ["--data", workspace["manifest"], "--out", tmp_path / "again",
                             "--seed", 3])
        assert ((tmp_path / "again" / "checkpoint.dhck").read_bytes()
                == (workspace["run"] / "checkpoint.dhck").read_bytes())

    def test_resume_continues_the_step_counter(self, workspace, tmp_path):
        run_ok(TRAIN_ARGS + ["--data", workspace["manifest"], "--out", tmp_path,
                             "--resume", workspace["run"] / "checkpoint.dhck"])
        _, step = load_checkpoint(tmp_path / "checkpoint.dhck")
        assert step == 8

    def test_resume_class_count_mismatch(self, workspace, tmp_path):
        result = RUNNER.invoke(main, [str(a) for a in
                                      TRAIN_ARGS + ["--data", workspace["manifest"],
                                                    "--out", tmp_path,
                                                    "--resume", workspace["run"] / "checkpoint.dhck",
                                                    "--num-classes", "4"]])
        assert result.exit_code == 2

    def test_divergence_saves_the_last_good_epoch_step(self, workspace, tmp_path,
                                                       monkeypatch):
        calls = {"n": 0}
        clean = cli.mixed_batch

        def poisoned(*args, **kwargs):
            calls["n"] += 1
            images, labels, roles = clean(*args, **kwargs)
            if calls["n"] > 2:  # the first epoch (2 batches) stays finite
                images = images.copy()
                images[0, 0, 0, 0] = math.nan
            return images, labels, roles

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
        # exact in memory; the float32 rasters hold it to within one ulp
        scores = workspace["run"] / "scores"
        stems = [r.image[:-4] for r in read_manifest(workspace["manifest"])
                 if r.split == "test"]
        assert stems
        for stem in stems:
            h, g, d = (read_score_raster(scores / f"{stem}_{v}.dhsc")
                       for v in ("hybrid", "generative", "discriminative"))
            parts = g + d
            assert parts.dtype == np.float32
            ulp = np.spacing(np.maximum(np.abs(h), np.abs(parts)))
            assert np.all(np.abs(h - parts) <= ulp)

    def test_tau_exports_fused_open_maps(self, workspace, tmp_path):
        run_ok(["score", "--checkpoint", workspace["run"] / "checkpoint.dhck",
                "--data", workspace["manifest"], "--out", tmp_path, "--tau", "-inf"])
        fused = read_pgm(tmp_path / "test_0000_open.pgm")
        assert np.all(fused == 3)  # everything below an infinitely low bar

    def test_unknown_variant_rejected(self, workspace, tmp_path):
        result = RUNNER.invoke(main, ["score", "--checkpoint",
                                      str(workspace["run"] / "checkpoint.dhck"),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path), "--variants", "energy"])
        assert result.exit_code == 2

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

    def test_non_finite_checkpoint_is_a_numeric_failure(self, workspace, tmp_path):
        params = init_params(NetworkConfig(input_channels=3, widths=(6, 8), num_classes=3))
        params.stages[0].w.value[0, 0, 0, 0] = math.nan
        bad = tmp_path / "bad.dhck"
        save_checkpoint(bad, params)
        result = RUNNER.invoke(main, ["score", "--checkpoint", str(bad),
                                      "--data", str(workspace["manifest"]),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 4


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
