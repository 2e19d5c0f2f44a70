"""Geometry: skew matrices, sphere cameras, relative poses, essential
matrices, epipolar lines, and line sampling."""

import numpy as np
import pytest

from epiview.geometry import (
    CAMERA_RADIUS,
    EDGE_EPS,
    CameraIntrinsics,
    RelativePose,
    SphericalCamera,
    camera_on_sphere,
    epipolar_line,
    epipolar_sample_grid,
    _sample_lines,
    essential_matrix,
    pose_from_json,
    pose_to_json,
    relative_pose,
    skew_symmetric,
)
from epiview.scenegen import correspondence_grid, make_scene, render


def random_pose_pair(rng, min_baseline=0.2):
    while True:
        a = SphericalCamera(float(rng.uniform(-60, 60)), float(rng.uniform(0, 360)),
                            float(rng.uniform(1.6, 2.6)))
        b = SphericalCamera(float(rng.uniform(-60, 60)), float(rng.uniform(0, 360)),
                            float(rng.uniform(1.6, 2.6)))
        pose = relative_pose(camera_on_sphere(a), camera_on_sphere(b))
        if pose.baseline() > min_baseline:
            return a, b, pose


class TestSkewSymmetric:
    def test_zero_vector(self):
        assert np.array_equal(skew_symmetric([0, 0, 0]), np.zeros((3, 3)))

    def test_unit_x(self):
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(skew_symmetric([1, 0, 0]), expected)

    def test_matches_cross_product(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = rng.standard_normal(3)
            v = rng.standard_normal(3)
            np.testing.assert_allclose(skew_symmetric(t) @ v, np.cross(t, v), atol=1e-12)

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        m = skew_symmetric(rng.standard_normal(3))
        np.testing.assert_allclose(m, -m.T, atol=0)


class TestSphericalCamera:
    def test_one_radius_rule_bounds_the_camera_and_the_radius_flags(self):
        from epiview.cli import _KNOBS
        assert _KNOBS["radius"] is CAMERA_RADIUS
        assert SphericalCamera(0.0, 0.0, 1e6).radius == 1e6
        for bad in (0.0, -1.0, np.nextafter(1e6, np.inf), 1e154, np.inf, np.nan):
            with pytest.raises(ValueError, match=r"radius must be a number in \(0, 1e6\]"):
                SphericalCamera(0.0, 0.0, bad)


class TestCameraOnSphere:
    def test_axis_aligned_center(self):
        ext = camera_on_sphere(SphericalCamera(0.0, 0.0, 2.0))
        np.testing.assert_allclose(ext.camera_center(), [2, 0, 0], atol=1e-12)

    def test_opposite_azimuth(self):
        ext = camera_on_sphere(SphericalCamera(0.0, 180.0, 2.0))
        np.testing.assert_allclose(ext.camera_center(), [-2, 0, 0], atol=1e-12)

    def test_origin_projects_to_principal_point(self):
        K = CameraIntrinsics.from_fov(32, 32)
        rng = np.random.default_rng(2)
        for _ in range(50):
            cam = SphericalCamera(float(rng.uniform(-89, 89)),
                                  float(rng.uniform(0, 360)),
                                  float(rng.uniform(1.2, 3.0)))
            ext = camera_on_sphere(cam)
            uv = K.project(ext.apply(np.zeros(3)))
            np.testing.assert_allclose(uv, [K.cx, K.cy], atol=1e-9)

    def test_pole_fallback(self):
        for elev in (90.0, -90.0):
            ext = camera_on_sphere(SphericalCamera(elev, 45.0, 2.0))
            assert np.all(np.isfinite(ext.R))
            np.testing.assert_allclose(ext.R @ ext.R.T, np.eye(3), atol=1e-12)

    def test_rotation_is_orthonormal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ext = camera_on_sphere(SphericalCamera(float(rng.uniform(-89, 89)),
                                                   float(rng.uniform(0, 360)), 2.0))
            np.testing.assert_allclose(ext.R.T @ ext.R, np.eye(3), atol=1e-12)
            assert np.linalg.det(ext.R) > 0


class TestRelativePose:
    def test_identity(self):
        ext = camera_on_sphere(SphericalCamera(10.0, 30.0, 2.0))
        pose = relative_pose(ext, ext)
        np.testing.assert_allclose(pose.R, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(pose.t, 0, atol=1e-12)

    def test_matches_direct_world_transform(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, pose = random_pose_pair(rng)
            ea, eb = camera_on_sphere(a), camera_on_sphere(b)
            x_world = rng.uniform(-0.5, 0.5, 3)
            via_pose = pose.R @ ea.apply(x_world) + pose.t
            direct = eb.apply(x_world)
            np.testing.assert_allclose(via_pose, direct, atol=1e-10)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            RelativePose(R=np.eye(3) * 2.0, t=np.zeros(3))


class TestEssentialMatrix:
    def test_identity_rotation(self):
        pose = RelativePose(R=np.eye(3), t=np.array([1.0, 0, 0]))
        np.testing.assert_allclose(essential_matrix(pose), skew_symmetric([1, 0, 0]), atol=0)

    def test_zero_translation_gives_zero_matrix(self):
        pose = RelativePose(R=np.eye(3), t=np.zeros(3))
        assert np.all(essential_matrix(pose) == 0)

    def test_epipolar_constraint_on_gt_correspondences(self, intrinsics32):
        """x_ref^T E x_tgt vanishes for depth-derived correspondences."""
        K = intrinsics32
        scene = make_scene(1, "distinctive")
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(20):
            ref_cam, tgt_cam, pose = random_pose_pair(rng)
            view_ref = render(scene, ref_cam, K)
            view_tgt = render(scene, tgt_cam, K)
            E = essential_matrix(pose)
            ys, xs = np.nonzero(view_tgt.prim_id >= 0)
            uv_t = np.stack([xs, ys], axis=-1)[:60].astype(float)
            uv_r, vis, _, _ = correspondence_grid(scene, view_tgt, view_ref, uv_t)
            for p_t, p_r, ok in zip(uv_t, uv_r, vis):
                if not ok:
                    continue
                x_t = np.append(K.normalize(p_t), 1.0)
                x_r = np.append(K.normalize(p_r), 1.0)
                assert abs(x_r @ E @ x_t) < 1e-6
                checked += 1
            if checked > 200:
                break
        assert checked > 200


class TestEpipolarLine:
    def test_lateral_motion_gives_horizontal_line(self, intrinsics32):
        K = intrinsics32
        pose = RelativePose(R=np.eye(3), t=np.array([1.0, 0, 0]))
        line = epipolar_line([K.cx, K.cy], pose, K)
        a, b, c = line.coeffs
        assert abs(a) < 1e-12 and abs(b) > 0
        # passes through the normalized origin (the principal point)
        assert line.distance(np.zeros(2)) < 1e-12

    def test_gt_correspondence_on_line(self, distinctive_fixture, intrinsics32):
        scene, cams, views = distinctive_fixture
        K = intrinsics32
        pose = relative_pose(camera_on_sphere(cams[1]), camera_on_sphere(cams[0]))
        ys, xs = np.nonzero(views[0].prim_id >= 0)
        uv_t = np.stack([xs, ys], axis=-1)[:200].astype(float)
        uv_r, vis, _, _ = correspondence_grid(scene, views[0], views[1], uv_t)
        checked = 0
        for p_t, p_r, ok in zip(uv_t, uv_r, vis):
            if not ok:
                continue
            line = epipolar_line(p_t, pose, K)
            assert line.distance(K.normalize(p_r)) < 1e-6
            checked += 1
        assert checked > 50

    def test_focal_scaling_invariance(self, intrinsics32):
        """Scaling the focal length by k (with the pixel grid expressed at
        the matching resolution) leaves the normalized line's point set
        unchanged: the computation depends on K and the pixel only through
        the normalized ray."""
        K = intrinsics32
        rng = np.random.default_rng(7)
        for _ in range(50):
            _, _, pose = random_pose_pair(rng)
            p = rng.uniform(2, 29, 2)
            base = epipolar_line(p, pose, K).normalized()
            for k in (0.5, 2.0, 10.0):
                Kk = K.scaled(k)
                pk = (p + 0.5) * k - 0.5
                scaled = epipolar_line(pk, pose, Kk).normalized()
                np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_degenerate_pose_gives_the_zero_line(self, intrinsics32):
        pose = RelativePose(R=np.eye(3), t=np.zeros(3))
        line = epipolar_line([10, 10], pose, intrinsics32)
        assert line.coeffs.tobytes() == np.zeros(3).tobytes()

    def test_out_of_bounds_pixel_rejected(self, intrinsics32):
        pose = RelativePose(R=np.eye(3), t=np.array([1.0, 0, 0]))
        with pytest.raises(ValueError):
            epipolar_line([-3.0, 5.0], pose, intrinsics32)


def sample_line(coeffs, width, height):
    """One pixel-frame line a*u + b*v + c = 0 through the stepping kernel,
    as the single column of a batch. Returns (uv (S, 2), valid (S,))."""
    s = _sample_lines(np.asarray(coeffs, dtype=np.float64)[None], width, height)
    return s.uv[:, 0], s.valid[:, 0]


# An independent scalar stepper, one line at a time: the oracle that a column
# of the batched kernel must match byte for byte.
def _step_line(coeffs: np.ndarray, width: int, height: int, along_x: bool, slots: int):
    """One sample per integer step along the chosen axis; out-of-grid
    positions masked. Returns (uv (slots, 2), valid (slots,))."""
    a, b, c = coeffs
    uv = np.zeros((slots, 2))
    valid = np.zeros(slots, dtype=bool)
    if along_x:
        n = width
        u = np.arange(n, dtype=np.float64)
        v = -(a * u + c) / b
        valid[:n] = (v >= -EDGE_EPS) & (v <= height - 1 + EDGE_EPS)
        uv[:n, 0], uv[:n, 1] = u, np.clip(v, 0.0, height - 1)
    else:
        n = height
        v = np.arange(n, dtype=np.float64)
        u = -(b * v + c) / a
        valid[:n] = (u >= -EDGE_EPS) & (u <= width - 1 + EDGE_EPS)
        uv[:n, 0], uv[:n, 1] = np.clip(u, 0.0, width - 1), v
    return uv, valid


def oracle_sample_line(coeffs, width, height):
    """Scalar dispatch of one pixel-frame line onto ``_step_line``, along
    its dominant axis. Returns (uv, valid)."""
    slots = max(width, height)
    a, b = coeffs[0], coeffs[1]
    if np.hypot(a, b) < 1e-12:
        return np.zeros((slots, 2)), np.zeros(slots, dtype=bool)
    return _step_line(np.asarray(coeffs, dtype=np.float64), width, height, abs(a) <= abs(b), slots)


class TestSampleLines:
    def test_horizontal_line(self):
        uv, valid = sample_line([0.0, 1.0, -3.0], 8, 8)  # v = 3
        assert valid.sum() == 8
        np.testing.assert_allclose(uv[valid][:, 1], 3.0, atol=1e-9)
        np.testing.assert_allclose(uv[valid][:, 0], np.arange(8), atol=1e-9)

    def test_line_outside_image(self):
        _, valid = sample_line([0.0, 1.0, -50.0], 8, 8)  # v = 50
        assert valid.sum() == 0

    def test_diagonal_matches_rasterization(self):
        uv, valid = sample_line([1.0, -1.0, 0.0], 8, 8)  # v = u
        assert valid.sum() == 8
        np.testing.assert_allclose(uv[valid], np.stack([np.arange(8)] * 2, axis=-1), atol=1e-9)

    def test_near_vertical_uses_dominant_axis(self):
        uv, valid = sample_line([1.0, -0.05, -2.0], 8, 8)  # u ~ 2, steep
        assert valid.sum() == 8
        np.testing.assert_allclose(uv[valid][:, 1], np.arange(8), atol=1e-9)

    def test_degenerate_line_all_masked(self):
        _, valid = sample_line(np.zeros(3), 8, 8)
        assert valid.sum() == 0

    def test_valid_samples_inside_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            uv, valid = sample_line(rng.standard_normal(3), 8, 6)
            if valid.any():
                assert np.all((uv[valid][:, 0] >= 0) & (uv[valid][:, 0] <= 7))
                assert np.all((uv[valid][:, 1] >= 0) & (uv[valid][:, 1] <= 5))
            assert uv.shape[0] <= 8  # slots capped at max(W, H)

    def test_grid_batch_matches_single_queries(self, intrinsics32):
        rng = np.random.default_rng(9)
        _, _, pose = random_pose_pair(rng)
        k_feat = intrinsics32.scaled(0.5)
        batch = epipolar_sample_grid(pose, k_feat, 16, 16)
        for q in (0, 37, 135, 255):
            y, x = divmod(q, 16)
            line = epipolar_line([float(x), float(y)], pose, k_feat)
            uv, valid = sample_line(k_feat.inverse().T @ line.coeffs, 16, 16)
            np.testing.assert_array_equal(batch.valid[:, q], valid)
            np.testing.assert_allclose(batch.uv[:, q][batch.valid[:, q]], uv[valid], atol=1e-9)

    @pytest.mark.parametrize("width,height", [(8, 6), (11, 7)])
    def test_single_line_matches_the_stepper_oracle(self, width, height):
        rng = np.random.default_rng(11)
        lines = [rng.standard_normal(3) for _ in range(100)]
        for _ in range(100):   # lines through the grid at random angles
            p, th = rng.uniform(0, [width - 1, height - 1]), rng.uniform(0, np.pi)
            a, b = np.sin(th), -np.cos(th)
            lines.append(np.array([a, b, -(a * p[0] + b * p[1])]))
        lines += [
            np.array([1.0, 0.0, -3.0]),         # vertical: b == 0
            np.array([0.0, 1.0, -2.0]),         # horizontal: a == 0
            np.array([1.0, -1.0, 0.0]),         # diagonal, |a| == |b|
            np.array([1e-13, 1e-13, 1.0]),      # vanishing normal
            np.zeros(3),                        # degenerate
        ]
        for line in lines:
            uv, valid = oracle_sample_line(line, width, height)
            got_uv, got_valid = sample_line(line, width, height)
            assert got_uv.tobytes() == uv.tobytes() and got_valid.tobytes() == valid.tobytes()

    def test_degenerate_baseline_grid_all_masked(self, intrinsics32):
        k_feat = intrinsics32.scaled(0.25)
        for t in (np.zeros(3), np.array([1e-7, 0.0, 0.0])):
            s = epipolar_sample_grid(RelativePose(R=np.eye(3), t=t), k_feat, 8, 8)
            assert s.uv.shape == (8, 64, 2) and not s.valid.any() and not s.uv.any()



class TestPoseJson:
    def test_spherical_roundtrip(self):
        cam = SphericalCamera(12.5, 270.0, 1.8)
        assert pose_from_json(pose_to_json(cam)) == cam
