"""Command surface: subcommands, exit codes, and end-to-end flag
semantics. Commands run in-process through main()."""

import json
from pathlib import Path

import numpy as np
import pytest

from epiview.cli import main
from epiview.fileio import read_f32, read_ppm


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fix") / "scene"
    assert main(["scene", "gen", "--seed", "0", "--mode", "distinctive",
                 "--out", str(d), "--traj", "free16"]) == 0
    return d


@pytest.fixture(scope="module")
def traj_file(tmp_path_factory, fixture_dir):
    p = tmp_path_factory.mktemp("traj") / "traj.json"
    assert main(["traj", "make", "--mode", "free16", "--seed", "100",
                 "--out", str(p)]) == 0
    return p


def synth(out, traj_file, fixture_dir, *extra):
    args = ["synth",
            "--input", str(fixture_dir / "views" / "000.ppm"),
            "--traj", str(traj_file),
            "--backend", "analytic", "--scene", str(fixture_dir),
            "--input-view", "0", "--steps", "8", "--sigma", "0.05",
            "--out", str(out)] + list(extra)
    return main(args)


class TestSceneAndTraj:
    def test_fixture_layout(self, fixture_dir):
        assert (fixture_dir / "scene.json").exists()
        assert (fixture_dir / "cameras.json").exists()
        assert (fixture_dir / "views" / "000.ppm").exists()
        assert (fixture_dir / "depth" / "000.f32").exists()

    def test_traj_contents(self, traj_file):
        views = json.loads(traj_file.read_text())["views"]
        assert len(views) == 16
        assert all(-10 <= v["elevation_deg"] <= 40 for v in views)

    def test_fixed_traj(self, tmp_path):
        p = tmp_path / "fixed.json"
        assert main(["traj", "make", "--mode", "fixed16", "--seed", "0",
                     "--out", str(p)]) == 0
        views = json.loads(p.read_text())["views"]
        assert all(v["elevation_deg"] == 30.0 for v in views)


class TestSynth:
    def test_outputs_and_manifest(self, tmp_path, traj_file, fixture_dir):
        out = tmp_path / "run"
        assert synth(out, traj_file, fixture_dir, "--mode", "epipolar") == 0
        imgs = sorted(out.glob("*.ppm"))
        assert len(imgs) == 16
        man = json.loads((out / "manifest.json").read_text())
        # defaults mirror the standard configuration
        assert man["config"]["alpha"] == 0.5
        assert man["config"]["context_views"] == 2
        assert man["config"]["inject_after_step"] == 4
        assert "buffer_counters" in man and "timings" in man

    def test_alpha_zero_byte_identical_to_off(self, tmp_path, traj_file, fixture_dir):
        a = tmp_path / "a0"
        b = tmp_path / "off"
        assert synth(a, traj_file, fixture_dir, "--mode", "epipolar", "--alpha", "0") == 0
        assert synth(b, traj_file, fixture_dir, "--mode", "off") == 0
        for i in range(16):
            pa = (a / f"{i:03d}.ppm").read_bytes()
            pb = (b / f"{i:03d}.ppm").read_bytes()
            assert pa == pb

    def test_manifest_rerun_byte_identical(self, tmp_path, traj_file, fixture_dir):
        first = tmp_path / "first"
        assert synth(first, traj_file, fixture_dir, "--mode", "epipolar") == 0
        rerun = tmp_path / "rerun"
        assert main(["synth",
                     "--input", str(fixture_dir / "views" / "000.ppm"),
                     "--traj", str(traj_file),
                     "--scene", str(fixture_dir), "--input-view", "0",
                     "--config", str(first / "manifest.json"),
                     "--out", str(rerun)]) == 0
        for i in range(16):
            assert (first / f"{i:03d}.ppm").read_bytes() == (rerun / f"{i:03d}.ppm").read_bytes()


class TestInvert:
    def test_blob_and_manifest(self, tmp_path, fixture_dir):
        out = tmp_path / "noise.bin"
        assert main(["invert", "--input", str(fixture_dir / "views" / "000.ppm"),
                     "--backend", "oracle", "--scene", str(fixture_dir),
                     "--steps", "8", "--out", str(out)]) == 0
        blob = read_f32(out)
        assert blob.shape == (32, 32, 3)
        man = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert man["backend"] == "oracle" and man["steps"] == 8


class TestSimmap:
    def test_pgm_dumps(self, tmp_path, fixture_dir):
        out = tmp_path / "maps"
        assert main(["simmap", "--query", "12,12", "--pair", "0,1",
                     "--scene", str(fixture_dir), "--out", str(out)]) == 0
        epi = out / "epipolar_q12_12.pgm"
        full = out / "full_q12_12.pgm"
        assert epi.exists() and full.exists()
        assert epi.read_bytes().startswith(b"P5\n16 16\n255\n")


class TestBench:
    def test_csv_row_for_full_l8(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "8,16", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert rows[0] == ["L", "mode", "buffer_elems", "wall_ns_median", "reps"]
        full8 = [r for r in rows[1:] if r[0] == "8" and r[1] == "full"]
        assert full8 and full8[0][2] == "4096"


class TestEval:
    def test_metrics_csv(self, tmp_path, traj_file, fixture_dir):
        run = tmp_path / "run"
        assert synth(run, traj_file, fixture_dir, "--mode", "epipolar") == 0
        out = tmp_path / "metrics.csv"
        assert main(["eval", "--run", str(run), "--fixtures", str(fixture_dir),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "run_id,metric,view_pair,value"
        metrics = {line.split(",")[1] for line in lines[1:]}
        assert {"psnr", "ssim", "reprojection", "reprojection_mean"} <= metrics


class TestTrainToy:
    def test_checkpoint_written(self, tmp_path, fixture_dir):
        out = tmp_path / "ckpt.bin"
        assert main(["train-toy", "--scene", str(fixture_dir), "--steps", "5",
                     "--out", str(out)]) == 0
        from epiview.toyunet import ToyUNet
        ToyUNet.load(out)  # parses and reconstructs


class TestConfigPrecedence:
    def test_flags_beat_config_file(self, tmp_path, traj_file, fixture_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.3, "context": 1, "steps": 8,
                                   "mode": "epipolar", "backend": "analytic",
                                   "sigma": 0.05}))
        out = tmp_path / "run"
        assert main(["synth", "--input", str(fixture_dir / "views" / "000.ppm"),
                     "--traj", str(traj_file), "--scene", str(fixture_dir),
                     "--input-view", "0", "--config", str(cfg),
                     "--alpha", "0.7", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["alpha"] == 0.7        # flag wins
        assert man["config"]["context_views"] == 1  # config file beats default
        assert man["steps"] == 8


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["synth", "--no-such-flag"]) == 2
        assert capsys.readouterr().err.startswith("error: 2")

    def test_missing_file_is_3(self, tmp_path, capsys):
        assert main(["invert", "--input", str(tmp_path / "nope.ppm"),
                     "--backend", "oracle", "--out", str(tmp_path / "o.bin")]) == 3
        assert capsys.readouterr().err.startswith("error: 3")

    def test_config_violation_is_3(self, tmp_path, traj_file, fixture_dir, capsys):
        rc = synth(tmp_path / "x", traj_file, fixture_dir, "--alpha", "1.5")
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: 3")

    @pytest.mark.parametrize("flag,argv", [
        ("--input-view", lambda fx, tj, out: ["synth", "--input", str(fx / "views" / "000.ppm"),
                                               "--traj", str(tj), "--scene", str(fx),
                                               "--input-view", "99", "--out", out]),
        ("--steps", lambda fx, tj, out: ["synth", "--input", str(fx / "views" / "000.ppm"),
                                          "--traj", str(tj), "--steps", "-1", "--out", out]),
        ("--steps", lambda fx, tj, out: ["invert", "--input", str(fx / "views" / "000.ppm"),
                                          "--backend", "oracle", "--scene", str(fx),
                                          "--steps", "-1", "--out", out]),
        ("--feature-scale", lambda fx, tj, out: ["simmap", "--query", "1,1", "--pair", "0,1",
                                                  "--scene", str(fx), "--feature-scale", "0",
                                                  "--out", out]),
        ("--feature-scale", lambda fx, tj, out: ["simmap", "--query", "1,1", "--pair", "0,1",
                                                  "--scene", str(fx), "--feature-scale", "3",
                                                  "--out", out]),
        ("--sizes", lambda fx, tj, out: ["bench", "--sizes", "16,8", "--out", out]),
        ("--sizes", lambda fx, tj, out: ["bench", "--sizes", "8,x", "--out", out]),
        ("--reps", lambda fx, tj, out: ["bench", "--reps", "1", "--out", out]),
    ], ids=["synth-input-view-99", "synth-steps-negative", "invert-steps-negative",
            "simmap-feature-scale-0", "simmap-feature-scale-3", "bench-sizes-descending",
            "bench-sizes-not-int", "bench-reps-1"])
    def test_bad_flag_value_is_2_and_named(self, flag, argv, tmp_path, traj_file,
                                           fixture_dir, capsys):
        assert main(argv(fixture_dir, traj_file, str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: 2 {flag} ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_command_is_2(self):
        assert main(["frobnicate"]) == 2

    def test_version_exits_zero(self):
        assert main(["--version"]) == 0
