"""Command surface: subcommands, exit codes, and end-to-end flag
semantics. Commands run in-process through main()."""

import argparse
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from epiview import cli
from epiview.attention import AttentionParams, self_attention
from epiview.cli import _RUN_SETTINGS, _build_parser, main
from epiview.diffusion import Denoiser
from epiview.fileio import read_ppm
from epiview.geometry import CameraIntrinsics
from epiview.numerics import FeatureMap
from epiview.pipeline import GenerationConfig
from epiview.scenegen import SCENE_MODES, TRAJECTORIES


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

    def test_kind_choices_are_the_scenegen_tables(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = {(cmd, a.dest): list(a.choices) for cmd in ("scene", "traj")
                   for a in sub.choices[cmd]._actions if a.dest in ("kind", "traj")}
        assert choices == {("scene", "kind"): list(SCENE_MODES),
                           ("scene", "traj"): list(TRAJECTORIES),
                           ("traj", "kind"): list(TRAJECTORIES)}


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
        assert "buffer_counters" in man and "timings" not in man

    def test_alpha_zero_byte_identical_to_off(self, tmp_path, traj_file, fixture_dir):
        a = tmp_path / "a0"
        b = tmp_path / "off"
        assert synth(a, traj_file, fixture_dir, "--mode", "epipolar", "--alpha", "0") == 0
        assert synth(b, traj_file, fixture_dir, "--mode", "off") == 0
        for i in range(16):
            pa = (a / f"{i:03d}.ppm").read_bytes()
            pb = (b / f"{i:03d}.ppm").read_bytes()
            assert pa == pb

    @pytest.mark.parametrize("backend", ["analytic", "toyunet"])
    def test_manifest_rerun_byte_identical(self, backend, tmp_path, traj_file, fixture_dir):
        first = tmp_path / "first"
        assert synth(first, traj_file, fixture_dir, "--mode", "epipolar", "--backend", backend) == 0
        rerun = tmp_path / "rerun"
        assert main(["synth",
                     "--input", str(fixture_dir / "views" / "000.ppm"),
                     "--traj", str(traj_file),
                     "--scene", str(fixture_dir), "--input-view", "0",
                     "--config", str(first / "manifest.json"),
                     "--out", str(rerun)]) == 0
        for i in range(16):
            assert (first / f"{i:03d}.ppm").read_bytes() == (rerun / f"{i:03d}.ppm").read_bytes()

    def test_manifest_rerun_writes_the_same_manifest(self, tmp_path, traj_file, fixture_dir):
        inputs = ["--input", str(fixture_dir / "views" / "000.ppm"), "--traj", str(traj_file),
                  "--scene", str(fixture_dir)]
        first = tmp_path / "first"
        assert main(["synth", *inputs, "--steps", "6", "--out", str(first)]) == 0
        manifest = (first / "manifest.json").read_bytes()
        # a manifest of an older version, which recorded per-view timings
        old = json.loads(manifest)
        old["timings"] = [{"view": i, "seconds": 0.5} for i in range(16)]
        (tmp_path / "old.json").write_text(json.dumps(old))
        for config in (first / "manifest.json", tmp_path / "old.json"):
            rerun = tmp_path / f"rerun-{config.stem}"
            assert main(["synth", *inputs, "--config", str(config), "--out", str(rerun)]) == 0
            assert (rerun / "manifest.json").read_bytes() == manifest

    def test_manifest_rerun_reproduces_every_knob(self, tmp_path, traj_file, fixture_dir):
        inputs = ["--input", str(fixture_dir / "views" / "000.ppm"), "--traj", str(traj_file),
                  "--scene", str(fixture_dir)]
        first = tmp_path / "first"
        assert main(["synth", *inputs, "--backend", "analytic", "--steps", "6",
                     "--sigma", "0.05", "--input-view", "3", "--alpha", "0.3",
                     "--context", "1", "--inject-step", "2", "--seed", "5",
                     "--out", str(first)]) == 0
        rerun = tmp_path / "rerun"
        assert main(["synth", *inputs, "--config", str(first / "manifest.json"),
                     "--out", str(rerun)]) == 0
        for i in range(16):
            assert (first / f"{i:03d}.ppm").read_bytes() == (rerun / f"{i:03d}.ppm").read_bytes()
        man_first, man_rerun = (json.loads((d / "manifest.json").read_text())
                                for d in (first, rerun))
        assert man_rerun["config"] == man_first["config"]
        assert man_first["config"]["seed"] == 5 and man_first["config"]["context_views"] == 1

    def test_manifest_with_retired_keys_reruns(self, tmp_path, traj_file, fixture_dir):
        """Manifests written before three GenerationConfig fields were
        removed carry them at the one value every run had; such a manifest
        reruns to the same images and a manifest without them."""
        inputs = ["--input", str(fixture_dir / "views" / "000.ppm"), "--traj", str(traj_file),
                  "--scene", str(fixture_dir)]
        first = tmp_path / "first"
        assert main(["synth", *inputs, "--steps", "6", "--input-view", "0", "--sigma", "0.05",
                     "--out", str(first)]) == 0
        manifest = (first / "manifest.json").read_bytes()
        old = json.loads(manifest)
        old["config"].update(inject_layers=[], sample_axis="dominant",
                             value_source="value_projection")
        (tmp_path / "old.json").write_text(json.dumps(old, indent=1, sort_keys=True))
        rerun = tmp_path / "rerun"
        assert main(["synth", *inputs, "--config", str(tmp_path / "old.json"),
                     "--out", str(rerun)]) == 0
        for i in range(16):
            assert (first / f"{i:03d}.ppm").read_bytes() == (rerun / f"{i:03d}.ppm").read_bytes()
        assert (rerun / "manifest.json").read_bytes() == manifest
        config = json.loads(manifest)["config"]
        assert not {"inject_layers", "sample_axis", "value_source"} & set(config)

    def test_config_settings_are_read_by_the_record_rule(self, tmp_path, traj_file, fixture_dir):
        """A float setting given as a JSON integer is recorded as a float,
        and a rerun of that manifest writes the same manifest bytes."""
        inputs = ["--input", str(fixture_dir / "views" / "000.ppm"), "--traj", str(traj_file),
                  "--scene", str(fixture_dir), "--steps", "2"]
        (tmp_path / "cfg.json").write_text('{"fov": 50, "sigma": 0}')
        first = tmp_path / "first"
        assert main(["synth", *inputs, "--config", str(tmp_path / "cfg.json"),
                     "--out", str(first)]) == 0
        manifest = (first / "manifest.json").read_bytes()
        assert b'"fov": 50.0' in manifest and b'"sigma": 0.0' in manifest
        rerun = tmp_path / "rerun"
        assert main(["synth", *inputs, "--config", str(first / "manifest.json"),
                     "--out", str(rerun)]) == 0
        assert (rerun / "manifest.json").read_bytes() == manifest


class TestInvert:
    def test_blob_and_manifest(self, tmp_path, fixture_dir):
        out = tmp_path / "noise.bin"
        assert main(["invert", "--input", str(fixture_dir / "views" / "000.ppm"),
                     "--backend", "oracle", "--steps", "8", "--out", str(out)]) == 0
        shape = json.loads(Path(f"{out}.json").read_text())["shape"]
        blob = np.fromfile(out, dtype="<f4").reshape(shape)
        assert blob.shape == (32, 32, 3)
        man = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert man["backend"] == "oracle" and man["steps"] == 8

    def test_oracle_and_analytic_write_the_same_blob(self, tmp_path, fixture_dir):
        """Inversion runs only the reference branch, whose target is the
        input image and which the analytic backend never perturbs."""
        blobs = []
        for backend, sigma in (("oracle", 0.0), ("analytic", 0.0), ("analytic", 0.5)):
            cfg, out = tmp_path / f"{backend}{sigma}.json", tmp_path / f"{backend}{sigma}.bin"
            cfg.write_text(json.dumps({"sigma": sigma, "seed": 7}))
            assert main(["invert", "--input", str(fixture_dir / "views" / "000.ppm"),
                         "--backend", backend, "--steps", "10", "--config", str(cfg),
                         "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


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


class TestConfigPrecedence:
    def test_flags_beat_config_file(self, tmp_path, traj_file, fixture_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.3, "context_views": 1, "steps": 8,
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

    def test_every_synth_flag_is_recorded_in_the_manifest(self):
        """A synth flag is a GenerationConfig field, a run setting or an
        input/output path, so no knob can bypass the manifest."""
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["synth"]._actions} - {"help"}
        io = {"input", "traj", "scene", "input_cam", "input_view", "config", "out"}
        allowed = set(GenerationConfig.__dataclass_fields__) | set(_RUN_SETTINGS) | io
        assert dests <= allowed, dests - allowed

    def test_every_invert_flag_is_recorded_in_its_manifest(self, tmp_path, fixture_dir):
        """An invert flag is a setting its manifest records or an
        input/output path, so no knob can bypass the manifest."""
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["invert"]._actions} - {"help"}
        out = tmp_path / "noise.bin"
        assert main(["invert", "--input", str(fixture_dir / "views" / "000.ppm"),
                     "--backend", "toyunet", "--steps", "2", "--out", str(out)]) == 0
        recorded = json.loads(Path(str(out) + ".manifest.json").read_text())
        allowed = (set(recorded) & (set(GenerationConfig.__dataclass_fields__)
                                    | set(_RUN_SETTINGS))) | {"input", "config", "out"}
        assert dests <= allowed, dests - allowed


# The start of a run manifest with the intrinsics of a 32 px fixture.
INTRINSICS32 = b'{"intrinsics": {"f": 34.3, "cx": 15.5, "cy": 15.5, "width": 32, "height": 32}, '


def scene_json(primitive: bytes) -> bytes:
    """A fixture scene.json holding the one primitive."""
    return b'{"seed": 0, "bounding_radius": 1.0, "primitives": [' + primitive + b']}'


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["synth", "--no-such-flag"]) == 2
        assert capsys.readouterr().err.startswith("error: 2")

    def test_missing_file_is_3(self, tmp_path, capsys):
        assert main(["invert", "--input", str(tmp_path / "nope.ppm"),
                     "--backend", "oracle", "--out", str(tmp_path / "o.bin")]) == 3
        assert capsys.readouterr().err.startswith("error: 3")

    def test_config_violation_is_3(self, tmp_path, traj_file, fixture_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.5}))
        rc = synth(tmp_path / "x", traj_file, fixture_dir, "--config", str(cfg))
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: 3 {cfg}: 'alpha' must be")

    @pytest.mark.parametrize("flag,argv", [
        ("--input-view", lambda fx, tj, out: ["synth", "--input", str(fx / "views" / "000.ppm"),
                                               "--traj", str(tj), "--scene", str(fx),
                                               "--input-view", "99", "--out", out]),
        ("--steps", lambda fx, tj, out: ["synth", "--input", str(fx / "views" / "000.ppm"),
                                          "--traj", str(tj), "--steps", "-1", "--out", out]),
        ("--steps", lambda fx, tj, out: ["invert", "--input", str(fx / "views" / "000.ppm"),
                                          "--backend", "oracle", "--steps", "-1", "--out", out]),
        ("--feature-scale", lambda fx, tj, out: ["simmap", "--query", "1,1", "--pair", "0,1",
                                                  "--scene", str(fx), "--feature-scale", "0",
                                                  "--out", out]),
        ("--feature-scale", lambda fx, tj, out: ["simmap", "--query", "1,1", "--pair", "0,1",
                                                  "--scene", str(fx), "--feature-scale", "3",
                                                  "--out", out]),
        ("--sizes", lambda fx, tj, out: ["bench", "--sizes", "16,8", "--out", out]),
        ("--sizes", lambda fx, tj, out: ["bench", "--sizes", "8,x", "--out", out]),
        ("--reps", lambda fx, tj, out: ["bench", "--reps", "1", "--out", out]),
        ("--input-view", lambda fx, tj, out: ["synth", "--input", str(fx / "views" / "000.ppm"),
                                               "--traj", str(tj), "--backend", "toyunet",
                                               "--input-view", "7", "--out", out]),
        *[("--input-cam", lambda fx, tj, out, cam=cam: [
            "synth", "--input", str(fx / "views" / "000.ppm"), "--traj", str(tj),
            "--backend", "toyunet", "--input-cam", cam, "--out", out])
          for cam in ['{', '{"elevation_deg": 100, "azimuth_deg": 0, "radius": 2}',
                      '{"elevation_deg": 10}',
                      '{"R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, 0, 1]}',
                      '{"elevation_deg": 10, "azimuth_deg": NaN, "radius": 2}',
                      "[" * 2000 + "]" * 2000]],
        *[(flag, lambda fx, tj, out, flag=flag, v=v: ["scene", "gen", flag, v, "--out", out])
          for flag, v in (("--size", "0"), ("--size", "-4"), ("--fov", "0"), ("--fov", "190"),
                          ("--radius", "0.1"))],
        *[("--radius", lambda fx, tj, out, v=v: ["traj", "make", "--mode", "free16",
                                                 "--radius", v, "--out", out])
          for v in ("0", "-1", "inf")],
        *[(flag, lambda fx, tj, out, flag=flag, v=v: [
            "synth", "--input", str(fx / "views" / "000.ppm"), "--traj", str(tj),
            "--backend", "analytic", "--scene", str(fx), flag, v, "--out", out])
          for flag, v in (("--fov", "0"), ("--fov", "180"), ("--fov", "nan"),
                          ("--sigma", "nan"), ("--sigma", "inf"), ("--sigma", "-1"),
                          ("--sigma", "1e308"), ("--alpha", "1.5"), ("--context", "-1"),
                          ("--inject-step", "-1"), ("--mode", "x"), ("--backend", "x"),
                          ("--seed", "-1"))],
        ("--seed", lambda fx, tj, out: ["scene", "gen", "--seed", "-1", "--out", out]),
        ("--seed", lambda fx, tj, out: ["traj", "make", "--mode", "free16", "--seed", "-1",
                                         "--out", out]),
        ("--seed", lambda fx, tj, out: ["bench", "--sizes", "8", "--seed", "-1", "--out", out]),
        ("--radius", lambda fx, tj, out: ["scene", "gen", "--radius", "1e200", "--out", out]),
        ("--radius", lambda fx, tj, out: ["traj", "make", "--mode", "free16", "--radius", "1e200",
                                           "--out", out]),
        ("--input-cam", lambda fx, tj, out: [
            "synth", "--input", str(fx / "views" / "000.ppm"), "--traj", str(tj),
            "--backend", "analytic", "--scene", str(fx), "--steps", "2",
            "--input-cam", '{"elevation_deg": 20, "azimuth_deg": 0, "radius": 0.5}', "--out", out]),
        *[("--scene", lambda fx, tj, out, b=b: ["synth", "--input", str(fx / "views" / "000.ppm"),
                                                "--traj", str(tj), "--backend", b, "--out", out])
          for b in ("analytic", "oracle")],
        ("--radius", lambda fx, tj, out: ["scene", "gen", "--radius", "1e154", "--size", "8",
                                           "--out", out]),
        ("--steps", lambda fx, tj, out: ["invert", "--input", str(fx / "views" / "000.ppm"),
                                          "--backend", "oracle", "--steps", "11868", "--out", out]),
    ], ids=["synth-input-view-99", "synth-steps-negative", "invert-steps-negative",
            "simmap-feature-scale-0", "simmap-feature-scale-3", "bench-sizes-descending",
            "bench-sizes-not-int", "bench-reps-1", "synth-input-view-without-scene",
            "input-cam-not-json", "input-cam-elevation-100", "input-cam-missing-keys",
            "input-cam-relative-pose", "input-cam-azimuth-nan", "input-cam-nested-2000-deep",
            "scene-size-0",
            "scene-size-negative", "scene-fov-0",
            "scene-fov-190", "scene-radius-inside-the-scene", "traj-radius-0",
            "traj-radius-negative", "traj-radius-inf", "synth-fov-0", "synth-fov-180",
            "synth-fov-nan", "synth-sigma-nan", "synth-sigma-inf", "synth-sigma-negative",
            "synth-sigma-1e308", "synth-alpha-1.5", "synth-context-negative",
            "synth-inject-step-negative", "synth-mode-x", "synth-backend-x", "synth-seed-negative",
            "scene-seed-negative", "traj-seed-negative", "bench-seed-negative",
            "scene-radius-1e200", "traj-radius-1e200", "input-cam-inside-the-scene",
            "synth-analytic-without-scene", "synth-oracle-without-scene", "scene-radius-1e154",
            "invert-steps-past-the-schedule"])
    def test_bad_flag_value_is_2_and_named(self, flag, argv, tmp_path, traj_file,
                                           fixture_dir, capsys):
        assert main(argv(fixture_dir, traj_file, str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: 2 {flag} ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_input_cam_with_input_view_is_2_naming_both(self, tmp_path, traj_file, fixture_dir,
                                                        capsys):
        """Both flags name the input camera, so neither may silently win."""
        out = tmp_path / "out"
        assert synth(out, traj_file, fixture_dir, "--input-cam",
                     '{"elevation_deg": 20, "azimuth_deg": 0, "radius": 2}') == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 2 ") and err.count("\n") == 1
        assert "--input-cam" in err and "--input-view" in err
        assert not out.exists()

    @pytest.mark.parametrize("case", [
        ("bad.ppm", b"P6\n32 32\n255\n" + bytes(100)),
        ("bad.ppm", b"P3\n1 1\n255\n0 0 0"),
        ("bad.ppm", b"P6\n2 2\n65535\n" + bytes(24)),
        ("bad.ppm", b"P6\n2 x\n255\n" + bytes(12), "bad.ppm PPM header: ValueError"),
        ("traj.json", b'{"views": [{"elevation_deg": 20, "azimuth_deg": 0, "radius": 2.0},'
                      b' {"elevation_deg": 20, "azimuth_deg": 90, "radius": 0.1}]}',
         "trajectory view 1"),
        ("bad.json", b'{"views": ['),
        ("bad.json", b'{"x": 1}'),
        ("bad.json", b'{"views": [{"R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, 0, 1]}]}'),
        ("scene.json", b'{"spheres": ['),
        ("cfg.json", b'{"config": 5}'),
        ("cfg.json", b'{"context": 1}'),
        ("cfg.json", b'{"config": {"alpha": 0.5, "contxt_views": 1}}'),
        ("cfg.json", b'{"alpha": "x"}'),
        ("cfg.json", b'{"steps": 5.5}'),
        ("cfg.json", b'{"inject_layers": "mid"}'),
        ("cfg.json", b'{"inject_layers": ["stage1"]}', "cfg.json: key 'inject_layers' was removed"),
        ("cfg.json", b'{"sample_axis": "width"}', "cfg.json: key 'sample_axis' was removed"),
        ("cfg.json", b'{"config": {"value_source": "raw_feature"}}',
         "cfg.json: key 'value_source' was removed"),
        ("cfg.json", b'{"inject_after_step": -1}', "inject_after_step"),
        ("scene.json", b'{"x": 1}'),
        ("cameras.json", b'{"views": []}'),
        ("manifest.json", b'{"trajectory": []}', "manifest.json: missing key 'intrinsics'"),
        ("manifest.json", b'{"intrinsics": {"f": -1.0, "cx": 0, "cy": 0, "width": 32,'
                          b' "height": 32}, "trajectory": []}',
         "manifest.json intrinsics: ValueError: focal length f"),
        ("manifest.json", INTRINSICS32 + b'"trajectory": [{"R": [1, 0, 0, 0, 1, 0, 0, 0, 1],'
                          b' "t": [0, 0, 1]}]}',
         "manifest.json view 0: missing key 'elevation_deg'"),
        ("manifest.json", INTRINSICS32 + b'"trajectory": [{"elevation_deg": 10}]}',
         "manifest.json view 0: missing key 'azimuth_deg'"),
        ("manifest.json", INTRINSICS32 + b'"trajectory": [{"elevation_deg": 20,'
                          b' "azimuth_deg": 90, "radius": 0.1}]}',
         "manifest.json trajectory view 0: ValueError: camera must stay outside"),
        ("cfg.json", b'{"fov": 190}', "cfg.json: 'fov' must be"),
        ("cfg.json", b'{"config": {"alpha": 0.5}, "fov": 0}', "cfg.json: 'fov' must be"),
        ("cfg.json", b'{"config": {"fov": 180.0}}', "cfg.json: 'fov' must be"),
        ("cfg.json", b'{"sigma": -1}', "cfg.json: 'sigma' must be"),
        ("cfg.json", b'{"sigma": NaN}', "cfg.json: 'sigma' must be"),
        ("traj.json", b'{"views": [{"elevation_deg": 20, "azimuth_deg": NaN, "radius": 2.0}]}',
         "traj.json view 0: ValueError: elevation and azimuth must be finite"),
        ("bad.json", b'{"views": [{"elevation_deg": 20, "azimuth_deg": NaN, "radius": 2.0}]}',
         "bad.json view 0: ValueError: elevation and azimuth must be finite"),
        ("bad.json", b'{"views": [{"elevation_deg": 20, "azimuth_deg": 0, "radius": Infinity}]}',
         "bad.json view 0: ValueError: radius must be"),
        ("scene.json", scene_json(b'{"kind": "painted_ball", "center": [0, 0, 0], "radius": 0.7,'
                                  b' "shading": "phong"}'), "scene.json: ValueError: shading"),
        ("scene.json", scene_json(b'{"kind": "painted_ball", "center": [0, 0, 0], "radius": -0.7,'
                                  b' "shading": "normal"}'), "scene.json: ValueError: radius"),
        ("scene.json", scene_json(b'{"kind": "painted_ball", "center": [0, 0, 0], "radius": 0.7,'
                                  b' "seeds": [[1, 0, 0], [0, 1, 0]], "colors": [[1, 0, 0]]}'),
         "scene.json: ValueError: seeds and colors"),
        ("scene.json", scene_json(b'{"kind": "sphere", "center": [0, 0], "radius": 0.1,'
                                  b' "color": [1, 0, 0]}'), "scene.json: ValueError: center"),
        ("scene.json", scene_json(b'{"kind": "box", "lo": [0, 0, 0], "hi": [1, 1, Infinity],'
                                  b' "color": [1, 0, 0]}'), "scene.json: ValueError: hi"),
        ("scene.json", scene_json(b'{"kind": "box", "lo": [0.5, 0.5, 0.5], "hi": [0.1, 0.1, 0.1],'
                                  b' "color": [1, 0, 0]}'), "scene.json: ValueError: box lo"),
        ("scene.json", scene_json(b'{"kind": "box", "lo": [0, 0, 0.5], "hi": [1, 1, 0.1],'
                                  b' "color": [1, 0, 0]}'), "scene.json: ValueError: box lo"),
        *[("scene.json", b'{"seed": 0, "bounding_radius": ' + r + b', "primitives": []}',
           "scene.json: ValueError: bounding_radius") for r in (b"NaN", b"0", b"-1", b"Infinity")],
        *[("cameras.json", b'{"intrinsics": {' + fields + b'}, "views": []}',
           "cameras.json intrinsics: " + named)
          for fields, named in (
              (b'"f": 34.3, "cx": 15.5, "cy": 15.5, "width": 32.0, "height": 32',
               "TypeError: 'width' must be an integer, got 32.0"),
              (b'"f": 34.3, "cx": 15.5, "cy": 15.5, "width": 1e308, "height": 32',
               "TypeError: 'width' must be an integer, got 1e+308"),
              (b'"f": 34.3, "cx": 15.5, "cy": 15.5, "width": 32, "height": true',
               "TypeError: 'height' must be an integer, got True"),
              (b'"f": NaN, "cx": 15.5, "cy": 15.5, "width": 32, "height": 32',
               "ValueError: focal length f"),
              (b'"f": 34.3, "cx": 15.5, "cy": NaN, "width": 32, "height": 32',
               "ValueError: principal point"))],
        ("scene.json", scene_json(b'{"kind": "sphere", "center": [0, 0, 0], "radius": 0.1,'
                                  b' "color": [1e308, 0, 0]}'), "scene.json: ValueError: color"),
        ("scene.json", scene_json(b'{"kind": "box", "lo": [0, 0, 0], "hi": [0.1, 0.1, 0.1],'
                                  b' "color": [0, 1.5, 0]}'), "scene.json: ValueError: color"),
        ("scene.json", scene_json(b'{"kind": "painted_ball", "center": [0, 0, 0], "radius": 0.7,'
                                  b' "seeds": [[1, 0, 0], [0, 1, 0]],'
                                  b' "colors": [[0, 0, 1], [-0.1, 0, 0]]}'),
         "scene.json: ValueError: colors"),
        ("cfg.json", b'{"sigma": 1e308}', "cfg.json: 'sigma' must be"),
        ("pair/cameras.json", INTRINSICS32 + b'"views": [{"elevation_deg": 20, "azimuth_deg": 0,'
                              b' "radius": 2.0}, {"elevation_deg": 20, "azimuth_deg": 90,'
                              b' "radius": 0.1}]}',
         "pair/cameras.json view 1: ValueError: camera must stay outside"),
        ("input/cameras.json", INTRINSICS32 + b'"views": [{"elevation_deg": 20, "azimuth_deg": 0,'
                               b' "radius": 2.0}, {"elevation_deg": 20, "azimuth_deg": 0,'
                               b' "radius": 0.5}]}',
         "input/cameras.json view 1: ValueError: camera must stay outside"),
        ("scene/cfg.json", b'{"input_view": {"elevation_deg": 20, "azimuth_deg": 0,'
                           b' "radius": 0.5}}',
         "scene/cfg.json input_view: ValueError: camera must stay outside"),
        ("toyunet/traj.json", b'{"views": [{"elevation_deg": 20, "azimuth_deg": 0, "radius": 2.0},'
                              b' {"elevation_deg": 20, "azimuth_deg": 90, "radius": 0.5}]}',
         "toyunet/traj.json trajectory view 1: ValueError: camera must stay outside"),
        *[(name, b"P6\n33 33\n255\n" + bytes(33 * 33 * 3), f"{name} is 33x33")
          for name in ("odd.ppm", "invert/odd.ppm")],
        ("scene.json", scene_json(b'{"kind": "sphere", "center": [1e308, 0, 0], "radius": 0.1,'
                                  b' "color": [1, 0, 0]}'), "scene.json: ValueError: primitive 0"),
        ("scene.json", scene_json(b'{"kind": "painted_ball", "center": [0, 0, 0.4], "radius": 0.7,'
                                  b' "shading": "normal"}'), "scene.json: ValueError: primitive 0"),
        ("scene.json", scene_json(b'{"kind": "box", "lo": [-0.6, -0.6, -0.6], "hi": [0, 0, 0],'
                                  b' "color": [1, 0, 0]}'), "scene.json: ValueError: primitive 0"),
        ("cameras.json", INTRINSICS32 + b'"views": [{"elevation_deg": 20, "azimuth_deg": 0,'
                         b' "radius": 2.0}, {"elevation_deg": 20, "azimuth_deg": 0,'
                         b' "radius": 1e7}]}', "cameras.json view 1: ValueError: radius must be"),
        ("traj.json", b'{"views": [{"elevation_deg": 20, "azimuth_deg": 0, "radius": 1e7}]}',
         "traj.json view 0: ValueError: radius must be"),
        ("cfg.json", b'{"steps": 20000}', "cfg.json: 'steps' must be an integer in [0, 11867]"),
        ("manifest.json", b'{"intrinsics": {"f": 2.1, "cx": 0.5, "cy": 0.0, "width": 2,'
                          b' "height": 1}, "trajectory": []}',
         "manifest.json: 'intrinsics' are 2x1, smaller than the 8x8 window"),
        ("bad.ppm", b"P6\n-32 32\n255\n",
         "bad.ppm: PPM size -32x32 is not a positive width and height"),
        ("bad.ppm", b"P6\n32 0\n255\n", "bad.ppm: PPM size 32x0 is not a positive width and height"),
        ("bad.ppm", b"P6\n2 2\n0\n" + bytes(12), "bad.ppm: unsupported PPM maxval 0 (need 1..255)"),
        ("scene.json", scene_json(b'{"kind": "sphere", "center": [0, 0, 0], "color": [1, 0, 0]}'),
         "scene.json: missing key 'radius'"),
        ("scene.json", scene_json(b'{"kind": "painted_ball", "center": [0, 0, 0], "radius": 0.7,'
                                  b' "seeds": [[1, 0, 0]]}'),
         "scene.json: ValueError: colors is missing"),
        ("scene.json", scene_json(b'{"kind": "cone", "center": [0, 0, 0], "radius": 0.1}'),
         "scene.json: ValueError: unknown primitive kind 'cone'"),
        *[(name, b'{"views": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
           f"{name}: not JSON (maximum recursion depth exceeded")
          for name in ("traj.json", "cfg.json")],
        ("scene.json", scene_json(b'{"kind": "sphere", "center": ' + b"[" * 100 + b"0"
                                  + b"]" * 100 + b', "radius": 0.1, "color": [1, 0, 0]}'),
         "scene.json: TypeError: 'center' must be an array of numbers"),
    ], ids=["truncated-ppm", "ppm-bad-magic", "ppm-maxval-65535", "ppm-height-not-a-number",
            "traj-camera-inside-scene", "traj-not-json", "traj-without-views",
            "traj-view-not-a-camera", "scene-json-corrupt",
            "config-not-an-object", "config-unknown-key", "config-unknown-nested-key",
            "config-alpha-not-a-number", "config-steps-not-an-int",
            "config-inject-layers-not-a-list", "config-inject-layers-retired",
            "config-sample-axis-retired", "config-value-source-retired",
            "config-inject-step-negative",
            "scene-json-without-primitives",
            "cameras-json-without-intrinsics", "manifest-without-intrinsics",
            "manifest-intrinsics-bad", "manifest-view-relative-pose",
            "manifest-view-missing-keys", "manifest-camera-inside-scene",
            "config-fov-190", "config-fov-0", "config-nested-fov-180", "config-sigma-negative",
            "config-sigma-nan", "traj-view-azimuth-nan-analytic",
            "traj-view-azimuth-nan-toyunet", "traj-view-radius-inf-toyunet",
            "scene-shading-unknown", "scene-radius-negative", "scene-colors-short-of-seeds",
            "scene-center-2d", "scene-box-hi-inf", "scene-box-lo-above-hi",
            "scene-box-lo-above-hi-on-z", "scene-bounding-radius-nan",
            "scene-bounding-radius-0", "scene-bounding-radius-negative",
            "scene-bounding-radius-inf", "cameras-width-float", "cameras-width-1e308",
            "cameras-height-bool", "cameras-f-nan", "cameras-cy-nan",
            "scene-sphere-color-1e308", "scene-box-color-above-1",
            "scene-ball-colors-negative", "config-sigma-1e308", "simmap-camera-inside-scene",
            "synth-input-view-inside-scene", "config-input-view-inside-scene",
            "traj-camera-inside-scene-toyunet", "toyunet-synth-odd-size",
            "toyunet-invert-odd-size", "scene-sphere-center-1e308", "scene-ball-past-the-bound",
            "scene-box-corner-past-the-bound", "cameras-radius-1e7", "traj-radius-1e7",
            "config-steps-past-the-schedule", "eval-run-smaller-than-the-ssim-window",
            "ppm-width-negative", "ppm-height-0", "ppm-maxval-0", "scene-sphere-without-radius",
            "scene-voronoi-ball-without-colors", "scene-kind-unknown", "traj-nested-200000-deep",
            "config-nested-200000-deep", "scene-center-nested-100-deep"])
    def test_bad_data_is_3_and_named(self, case, tmp_path, traj_file, fixture_dir, capsys):
        name, payload, *named = case   # the error names the bad file, or what a row gives
        bad = tmp_path / name
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes(payload)
        if bad.name == "cameras.json":   # a fixture whose scene reads, but whose cameras do not
            (bad.parent / "scene.json").write_bytes((fixture_dir / "scene.json").read_bytes())
        out = tmp_path / "out"
        argv = {
            "bad.ppm": ["synth", "--input", str(bad), "--traj", str(traj_file),
                        "--backend", "toyunet", "--out", str(out)],
            "traj.json": ["synth", "--input", str(fixture_dir / "views" / "000.ppm"),
                          "--traj", str(bad), "--scene", str(fixture_dir), "--out", str(out)],
            "bad.json": ["synth", "--input", str(fixture_dir / "views" / "000.ppm"),
                         "--traj", str(bad), "--backend", "toyunet", "--out", str(out)],
            "scene.json": ["synth", "--input", str(fixture_dir / "views" / "000.ppm"),
                           "--traj", str(traj_file), "--scene", str(tmp_path), "--out", str(out)],
            "cameras.json": ["synth", "--input", str(fixture_dir / "views" / "000.ppm"),
                             "--traj", str(traj_file), "--scene", str(tmp_path),
                             "--out", str(out)],
            "cfg.json": ["synth", "--input", str(fixture_dir / "views" / "000.ppm"),
                         "--traj", str(traj_file), "--backend", "toyunet",
                         "--config", str(bad), "--out", str(out)],
            "manifest.json": ["eval", "--run", str(tmp_path), "--fixtures", str(fixture_dir),
                              "--out", str(out)],
            "pair/cameras.json": ["simmap", "--query", "1,1", "--pair", "0,1",
                                  "--scene", str(bad.parent), "--out", str(out)],
            "input/cameras.json": ["synth", "--input", str(fixture_dir / "views" / "000.ppm"),
                                   "--traj", str(traj_file), "--backend", "analytic",
                                   "--scene", str(bad.parent), "--input-view", "1",
                                   "--steps", "2", "--out", str(out)],
            "scene/cfg.json": ["synth", "--input", str(fixture_dir / "views" / "000.ppm"),
                               "--traj", str(traj_file), "--backend", "analytic",
                               "--scene", str(fixture_dir), "--config", str(bad),
                               "--steps", "2", "--out", str(out)],
            "toyunet/traj.json": ["synth", "--input", str(fixture_dir / "views" / "000.ppm"),
                                  "--traj", str(bad), "--backend", "toyunet",
                                  "--scene", str(fixture_dir), "--steps", "2", "--out", str(out)],
            "odd.ppm": ["synth", "--input", str(bad), "--traj", str(traj_file),
                        "--backend", "toyunet", "--steps", "2", "--out", str(out)],
            "invert/odd.ppm": ["invert", "--input", str(bad), "--backend", "toyunet",
                               "--steps", "2", "--out", str(out)],
        }[name]
        named = named[0] if named else str(bad)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: 3 ") and named in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,view,named", [
        ("invert", None, "inversion step 3 of 5"),
        ("synth", 0, "sampling step 2 of 5"),
    ], ids=["invert", "synth"])
    def test_overflowing_walk_is_3_and_named(self, command, view, named, tmp_path, traj_file,
                                             fixture_dir, monkeypatch, capsys):
        """A backend whose float32 attention overflows at t = 3 of view
        ``view``'s walk: one line naming the backend, --steps and the DDIM
        step, and no warning (a RuntimeWarning fails the suite)."""
        class Overflowing(Denoiser):
            def __init__(self, seed):
                self.block = replace(AttentionParams.identity(3), dtype=np.float32)

            def predict(self, x_t, t, cond, sched, stage_cb=None):
                scale = 1e20 if (t, cond.view_key) == (3, view) else 1.0
                self_attention(FeatureMap(np.full((2, 2, 3), scale)), self.block)
                return np.zeros_like(x_t)

        monkeypatch.setattr(cli, "ToyUNet", Overflowing)
        out = tmp_path / "out"
        argv = [command, "--input", str(fixture_dir / "views" / "000.ppm"),
                "--backend", "toyunet", "--steps", "5", "--out", str(out)]
        if command == "synth":
            argv += ["--traj", str(traj_file), "--mode", "off"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (f"error: 3 backend toyunet, --steps 5: features "
                                           f"overflowed at DDIM {named}\n")
        assert not out.exists()

    def test_walk_past_float32_at_its_last_step_is_3_and_named(self, tmp_path, fixture_dir,
                                                                monkeypatch, capsys):
        """A backend whose eps, finite in float64, puts the walk's latent past
        float32's range: the cast to the latent's float32 is the last step's
        divergence, not a non-finite latent (exit 4)."""
        class Huge(Denoiser):
            def __init__(self, seed):
                pass

            def predict(self, x_t, t, cond, sched, stage_cb=None):
                return np.full_like(x_t, 1e40)

        monkeypatch.setattr(cli, "ToyUNet", Huge)
        out = tmp_path / "out"
        assert main(["invert", "--input", str(fixture_dir / "views" / "000.ppm"),
                     "--backend", "toyunet", "--steps", "3", "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("error: 3 backend toyunet, --steps 3: features "
                                           "overflowed at DDIM inversion step 2 of 3\n")
        assert not out.exists()

    def test_synth_at_other_intrinsics_than_the_fixture_is_3_and_named(self, tmp_path, traj_file,
                                                                      capsys):
        """A fixture made at --fov 70 and synthesized at the default --fov 50:
        one line naming cameras.json, both intrinsics and --fov."""
        fixture = tmp_path / "fix70"
        assert main(["scene", "gen", "--fov", "70", "--traj", "free16", "--out", str(fixture)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["synth", "--input", str(fixture / "views" / "000.ppm"), "--traj", str(traj_file),
                "--scene", str(fixture), "--steps", "2", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        fixture_K = CameraIntrinsics.from_fov(32, 32, 70.0)
        run_K = CameraIntrinsics.from_fov(32, 32)
        assert err == (f"error: 3 {fixture / 'cameras.json'}: the fixture's intrinsics {fixture_K} "
                       f"are not the run's {run_K}, made from --fov 50.0 at the 32x32 input\n")
        assert not out.exists()
        assert main([*argv, "--fov", "70"]) == 0

    def test_eval_size_mismatch_is_3_and_named(self, tmp_path, fixture_dir, capsys):
        """A manifest whose intrinsics are not the size of the run's PPMs."""
        (tmp_path / "000.ppm").write_bytes((fixture_dir / "views" / "000.ppm").read_bytes())
        (tmp_path / "manifest.json").write_text(json.dumps({
            "intrinsics": {"f": 17.15, "cx": 7.5, "cy": 7.5, "width": 16, "height": 16},
            "trajectory": [{"elevation_deg": 20, "azimuth_deg": 0, "radius": 2.0}]}))
        out = tmp_path / "metrics.csv"
        assert main(["eval", "--run", str(tmp_path), "--fixtures", str(fixture_dir),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: 3 {tmp_path / 'manifest.json'}: 'intrinsics' are 16x16")
        assert "000.ppm is 32x32" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("named,argv", [
        ("'train-toy'", lambda fx, tj, out: ["train-toy", "--scene", str(fx), "--out", out]),
        ("--ckpt", lambda fx, tj, out: ["synth", "--input", str(fx / "views" / "000.ppm"),
                                        "--traj", str(tj), "--backend", "toyunet",
                                        "--ckpt", "x", "--out", out]),
        ("--ckpt", lambda fx, tj, out: ["invert", "--input", str(fx / "views" / "000.ppm"),
                                        "--backend", "toyunet", "--ckpt", "x", "--out", out]),
    ], ids=["train-toy", "synth-ckpt", "invert-ckpt"])
    def test_removed_trainer_surface_is_2(self, named, argv, tmp_path, traj_file, fixture_dir,
                                          capsys):
        """The toy trainer and its checkpoints are gone: the command and the
        flag are usage errors, so no run falls back to the seeded net."""
        assert main(argv(fixture_dir, traj_file, str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 2 ") and named in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_command_is_2(self):
        assert main(["frobnicate"]) == 2

    def test_version_exits_zero(self):
        assert main(["--version"]) == 0
