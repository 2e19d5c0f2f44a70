"""File formats: PPM/PGM, raw float32 blobs, trajectories, fixtures."""

import json

import numpy as np
import pytest

from epiview.errors import DataError
from epiview.fileio import (
    read_fixture,
    read_intrinsics,
    read_json,
    read_ppm,
    read_trajectory,
    to_u8,
    write_f32,
    write_fixture,
    write_pgm,
    write_ppm,
    write_json,
    write_trajectory,
)
from epiview.geometry import CameraIntrinsics, SphericalCamera, pose_to_json
from epiview.scenegen import make_scene, make_trajectory, render


class TestPpm:
    def test_roundtrip_exact_at_u8(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((6, 9, 3))
        p = tmp_path / "x.ppm"
        write_ppm(p, img)
        back = read_ppm(p)
        np.testing.assert_allclose(to_u8(back), to_u8(img), atol=0)

    def test_header(self, tmp_path):
        p = tmp_path / "x.ppm"
        write_ppm(p, np.zeros((2, 3, 3)))
        raw = p.read_bytes()
        assert raw.startswith(b"P6\n3 2\n255\n")
        assert len(raw) == len(b"P6\n3 2\n255\n") + 18

    def test_clipping(self, tmp_path):
        img = np.array([[[-0.5, 0.5, 1.5]]])
        p = tmp_path / "x.ppm"
        write_ppm(p, img)
        np.testing.assert_allclose(read_ppm(p)[0, 0], [0.0, 128 / 255, 1.0], atol=1e-6)

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P3\n1 1\n255\n0 0 0")
        with pytest.raises(DataError):
            read_ppm(p)

    @pytest.mark.parametrize("payload", [
        b"P6\n2 2\n255\n" + bytes(11),            # truncated pixel block
        b"P6\n2 2\n65535\n" + bytes(24),          # 16-bit samples
        b"P6\n2 2\n0\n" + bytes(12),              # maxval outside 1..255
        b"P6\n2 x\n255\n" + bytes(12),            # non-numeric header field
        b"P6\n2 2",                                # header ends early
        b"P6\n0 2\n255\n",                        # empty image
    ], ids=["truncated", "maxval-65535", "maxval-0", "bad-field", "short-header", "zero-width"])
    def test_bad_data_is_a_data_error_naming_the_path(self, tmp_path, payload):
        p = tmp_path / "bad.ppm"
        p.write_bytes(payload)
        with pytest.raises(DataError, match="bad.ppm"):
            read_ppm(p)

    def test_maxval_below_255_is_rescaled(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\n1 1\n15\n" + bytes([0, 5, 15]))
        np.testing.assert_allclose(read_ppm(p)[0, 0], [0.0, 1 / 3, 1.0], atol=1e-6)


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(p, np.array([[0.0, 1.0], [0.5, 0.25]]))
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[-4:] == bytes([0, 255, 128, 64])


class TestF32:
    def test_roundtrip_with_sidecar(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((4, 5)).astype(np.float32)
        p = tmp_path / "depth.f32"
        write_f32(p, data, sidecar={"background": 0.0})
        meta = json.loads((tmp_path / "depth.f32.json").read_text())
        assert meta["shape"] == [4, 5] and meta["background"] == 0.0
        back = np.fromfile(p, dtype="<f4").reshape(meta["shape"])
        assert np.array_equal(back, data)


class TestTrajectoryFile:
    def test_roundtrip(self, tmp_path):
        cams = make_trajectory("free16", 5)
        p = tmp_path / "traj.json"
        write_trajectory(p, cams)
        assert read_trajectory(p) == cams

    def test_reads_the_list_under_a_named_key(self, tmp_path):
        cams = make_trajectory("free16", 3)
        p = tmp_path / "manifest.json"
        write_trajectory(p, cams)
        write_json(p, {"trajectory": read_json(p)["views"]})
        assert read_trajectory(p, "trajectory") == cams
        with pytest.raises(DataError, match='manifest.json: no "views" list'):
            read_trajectory(p)


class TestIntrinsicsRecord:
    def test_reads_the_record_a_fixture_writes(self, tmp_path):
        K = CameraIntrinsics.from_fov(16, 12)
        write_fixture(tmp_path / "fix", make_scene(4, "plain"), K, [])
        assert read_intrinsics(tmp_path / "fix" / "cameras.json") == K

    @pytest.mark.parametrize("obj, match", [
        ({"views": []}, "missing key 'intrinsics'"),
        ({"intrinsics": {"f": 10.0, "cx": 4.0, "cy": 4.0, "width": 8}}, "bad 'intrinsics'.*TypeError"),
        ({"intrinsics": {"f": -1.0, "cx": 4.0, "cy": 4.0, "width": 8, "height": 8}},
         "bad 'intrinsics'.*ValueError"),
    ], ids=["missing", "missing-field", "bad-focal"])
    def test_bad_record_is_a_data_error_naming_the_path(self, tmp_path, obj, match):
        p = tmp_path / "manifest.json"
        write_json(p, obj)
        with pytest.raises(DataError, match=f"manifest.json: {match}"):
            read_intrinsics(p)


class TestFixture:
    def test_layout_and_roundtrip(self, tmp_path):
        scene = make_scene(4, "plain")
        cams = make_trajectory("fixed16", 0)[:3]
        K = CameraIntrinsics.from_fov(16, 16)
        views = [render(scene, cam, K) for cam in cams]
        write_fixture(tmp_path / "fix", scene, K, views)
        for name in ("scene.json", "cameras.json"):
            assert (tmp_path / "fix" / name).exists()
        for i in range(3):
            assert (tmp_path / "fix" / "views" / f"{i:03d}.ppm").exists()
            assert (tmp_path / "fix" / "depth" / f"{i:03d}.f32").exists()
        scene2, cams2, K2 = read_fixture(tmp_path / "fix")
        assert cams2 == cams and K2 == K
        # the written views are renders of what was read
        for i, (cam, written) in enumerate(zip(cams2, views)):
            view = render(scene2, cam, K2)
            assert np.array_equal(written.rgb.data, view.rgb.data)
            assert np.array_equal(written.prim_id, view.prim_id)
            stored = read_ppm(tmp_path / "fix" / "views" / f"{i:03d}.ppm")
            assert np.array_equal(to_u8(stored), to_u8(view.rgb.data))

    def test_reading_renders_nothing(self, tmp_path):
        # a camera inside the scene's bounding sphere reads; only its render fails
        scene, K = make_scene(4, "plain"), CameraIntrinsics.from_fov(16, 16)
        write_fixture(tmp_path / "fix", scene, K, [])
        inside = SphericalCamera(20.0, 0.0, 0.5)
        write_json(tmp_path / "fix" / "cameras.json",
                   {"intrinsics": read_json(tmp_path / "fix" / "cameras.json")["intrinsics"],
                    "views": [pose_to_json(inside)]})
        assert read_fixture(tmp_path / "fix")[1:] == ([inside], K)
        with pytest.raises(ValueError, match="bounding sphere"):
            render(scene, inside, K)

    def test_depth_files_match_renders(self, tmp_path):
        scene = make_scene(4, "plain")
        cams = make_trajectory("fixed16", 0)[:1]
        K = CameraIntrinsics.from_fov(16, 16)
        views = [render(scene, cam, K) for cam in cams]
        write_fixture(tmp_path / "fix", scene, K, views)
        blob = tmp_path / "fix" / "depth" / "000.f32"
        shape = json.loads(blob.with_name("000.f32.json").read_text())["shape"]
        stored = np.fromfile(blob, dtype="<f4").reshape(shape)
        want = np.where(np.isfinite(views[0].depth), views[0].depth, 0.0).astype(np.float32)
        assert np.array_equal(stored, want)
