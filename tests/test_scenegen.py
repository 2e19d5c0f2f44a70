"""Scene rendering, ground-truth correspondences, trajectories, and the
positional feature field."""

import numpy as np
import pytest

from epiview.geometry import CameraIntrinsics, SphericalCamera, camera_on_sphere
from epiview.scenegen import (
    BACKGROUND,
    Box,
    Scene,
    Sphere,
    correspondence_grid,
    make_scene,
    make_trajectory,
    positional_features,
    raycast,
    render,
    scene_from_json,
    scene_to_json,
    surface_table,
)


class TestRender:
    def test_empty_scene(self, intrinsics32):
        scene = Scene(seed=0, primitives=(), bounding_radius=1.0)
        view = render(scene, SphericalCamera(10, 20, 2.0), intrinsics32)
        assert np.all(view.prim_id == -1)
        assert np.all(np.isinf(view.depth))
        assert np.all(view.rgb.data == 0)

    def test_point_at_origin_hits_principal_point(self, intrinsics32):
        scene = Scene(seed=0, primitives=(
            Sphere(center=np.zeros(3), radius=0.01, color=np.array([1, 0, 0.0])),),
            bounding_radius=1.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            cam = SphericalCamera(float(rng.uniform(-80, 80)),
                                  float(rng.uniform(0, 360)),
                                  float(rng.uniform(1.5, 3)))
            ext = camera_on_sphere(cam)
            K = intrinsics32
            depth, surf, _ = raycast(scene, ext, K, np.array([[K.cx, K.cy]]))
            assert surf[0] == 0
            assert abs(depth[0] - (cam.radius - 0.01)) < 1e-9

    def test_deterministic(self, intrinsics32):
        scene = make_scene(5, "distinctive")
        cam = SphericalCamera(15, 70, 2.0)
        a = render(scene, cam, intrinsics32)
        b = render(scene, cam, intrinsics32)
        assert np.array_equal(a.rgb.data, b.rgb.data)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.prim_id, b.prim_id)

    def test_depth_positive_on_foreground(self, distinctive_fixture):
        _, _, views = distinctive_fixture
        for v in views[:4]:
            fg = v.prim_id >= 0
            assert np.all(v.depth[fg] > 0)
            assert np.all(np.isinf(v.depth[~fg]))

    def test_camera_inside_scene_rejected(self, intrinsics32):
        scene = make_scene(0, "distinctive")
        with pytest.raises(ValueError):
            render(scene, SphericalCamera(0, 0, 0.5), intrinsics32)


class TestCorrespondence:
    def test_identity_views(self, distinctive_fixture):
        scene, _, views = distinctive_fixture
        v = views[0]
        ys, xs = np.nonzero(v.prim_id >= 0)
        uv_a = np.stack([xs, ys], axis=-1)[:20].astype(float)
        uv_b, vis, _, _ = correspondence_grid(scene, v, v, uv_a)
        assert vis.all()
        np.testing.assert_allclose(uv_b, uv_a, atol=1e-9)

    def test_background_pixel_rejected(self, distinctive_fixture):
        # a background pixel has no surface to correspond: never visible
        scene, _, views = distinctive_fixture
        v = views[0]
        ys, xs = np.nonzero(v.prim_id < 0)
        uv_a = np.stack([xs, ys], axis=-1)[:20].astype(float)
        _, vis, prim_a, prim_b = correspondence_grid(scene, v, v, uv_a)
        assert np.all(prim_a == BACKGROUND) and not vis.any()
        assert np.all(prim_b == BACKGROUND)

    def test_symmetry(self, distinctive_fixture):
        scene, _, views = distinctive_fixture
        va, vb = views[0], views[2]
        ys, xs = np.nonzero(va.prim_id >= 0)
        uv_a = np.stack([xs, ys], axis=-1)[:150].astype(float)
        uv_b, vis, _, _ = correspondence_grid(scene, va, vb, uv_a)
        back, vis_back, _, _ = correspondence_grid(scene, vb, va, uv_b[vis])
        mutual = vis_back
        err = np.linalg.norm(back[mutual] - uv_a[vis][mutual], axis=1)
        assert err.size > 30
        assert err.max() < 0.5

    def test_occlusion_between_two_slabs(self, intrinsics32):
        # a narrow slab in front of a wide one; seen from the side, front
        # points block the line of sight to back points
        scene = Scene(seed=0, primitives=(
            Box(lo=np.array([0.45, -0.25, -0.25]), hi=np.array([0.55, 0.25, 0.25]),
                color=np.array([1.0, 0, 0])),
            Box(lo=np.array([-0.55, -0.6, -0.6]), hi=np.array([-0.45, 0.6, 0.6]),
                color=np.array([0, 1.0, 0])),
        ), bounding_radius=1.0)
        front = render(scene, SphericalCamera(0.0, 0.0, 2.5), intrinsics32)
        side = render(scene, SphericalCamera(0.0, 20.0, 2.5), intrinsics32)
        bases, _ = surface_table(scene)
        ys, xs = np.nonzero(front.prim_id == bases[1])  # back slab in front view
        uv_a = np.stack([xs, ys], axis=-1).astype(float)
        _, vis, _, prim_b = correspondence_grid(scene, front, side, uv_a)
        assert np.sum(~vis & (prim_b == bases[0])) > 0   # hidden behind the front slab

    def test_correspondence_same_surface_color(self, distinctive_fixture):
        # corresponding points on the smooth ball carry identical colors
        scene, _, views = distinctive_fixture
        va, vb = views[0], views[1]
        ys, xs = np.nonzero(va.prim_id == 0)
        uv_a = np.stack([xs, ys], axis=-1)[:100].astype(float)
        uv_b, vis, prim_a, prim_b = correspondence_grid(scene, va, vb, uv_a)
        same = vis & (prim_b == prim_a)
        assert same.sum() > 20


class TestTrajectories:
    def test_fixed16(self):
        cams = make_trajectory("fixed16", 0)
        assert len(cams) == 16
        assert all(c.elevation_deg == 30.0 for c in cams)
        np.testing.assert_allclose([c.azimuth_deg for c in cams],
                                   np.arange(16) * 22.5, atol=1e-12)

    def test_free16(self):
        cams = make_trajectory("free16", 7)
        assert len(cams) == 16
        np.testing.assert_allclose([c.azimuth_deg for c in cams],
                                   np.arange(16) * 22.5, atol=1e-12)
        assert all(-10.0 <= c.elevation_deg <= 40.0 for c in cams)

    def test_free32(self):
        cams = make_trajectory("free32", 7)
        assert len(cams) == 32
        np.testing.assert_allclose([c.azimuth_deg for c in cams],
                                   np.arange(32) * 11.25, atol=1e-12)

    def test_seed_changes_free_elevations(self):
        a = make_trajectory("free16", 1)
        b = make_trajectory("free16", 2)
        assert any(x.elevation_deg != y.elevation_deg for x, y in zip(a, b))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_trajectory("spiral", 0)


class TestSceneJson:
    def test_distinctive_roundtrip(self, intrinsics32):
        scene = make_scene(2, "distinctive")
        back = scene_from_json(scene_to_json(scene))
        cam = SphericalCamera(20, 40, 2.0)
        a = render(scene, cam, intrinsics32)
        b = render(back, cam, intrinsics32)
        assert np.array_equal(a.rgb.data, b.rgb.data)
        assert np.array_equal(a.prim_id, b.prim_id)

    def test_plain_roundtrip(self, intrinsics32):
        scene = make_scene(2, "plain")
        back = scene_from_json(scene_to_json(scene))
        cam = SphericalCamera(20, 40, 2.0)
        assert np.array_equal(render(scene, cam, intrinsics32).rgb.data,
                              render(back, cam, intrinsics32).rgb.data)


    def test_every_primitive_must_lie_inside_the_bounding_sphere(self):
        # generated scenes meet the contract; a primitive that touches the
        # bounding sphere is kept, and one just past it is named, by kind
        for seed in range(50):
            for mode in ("distinctive", "plain"):
                scene_from_json(scene_to_json(make_scene(seed, mode)))
        base = {"seed": 0, "bounding_radius": 1.0}
        touching = [{"kind": "sphere", "center": [0.6, 0, 0], "radius": 0.4, "color": [1, 0, 0]},
                    {"kind": "box", "lo": [-0.6, 0, 0], "hi": [0, 0.8, 0], "color": [1, 0, 0]}]
        assert len(scene_from_json({**base, "primitives": touching}).primitives) == 2
        for past in ({"kind": "sphere", "center": [0.6, 0, 0], "radius": 0.41, "color": [1, 0, 0]},
                     {"kind": "painted_ball", "center": [0, 0, -0.5], "radius": 0.7,
                      "shading": "normal"},
                     {"kind": "box", "lo": [-0.6, 0, 0], "hi": [0, 0.81, 0], "color": [1, 0, 0]},
                     {"kind": "sphere", "center": [1e308, 0, 0], "radius": 0.1,
                      "color": [1, 0, 0]}):
            with pytest.raises(ValueError, match=rf"primitive 1 \({past['kind']}\) reaches"):
                scene_from_json({**base, "primitives": [touching[0], past]})


class TestPositionalFeatures:
    def test_constant_norm_on_foreground(self, distinctive_fixture):
        scene, _, views = distinctive_fixture
        fm = positional_features(scene, views[0], 24)
        k_feat = views[0].intrinsics.scaled(24 / 32)
        vv, uu = np.meshgrid(np.arange(24), np.arange(24), indexing="ij")
        uv = np.stack([uu.ravel(), vv.ravel()], -1).astype(float)
        _, surf, _ = raycast(scene, views[0].extrinsics, k_feat, uv)
        norms = np.linalg.norm(fm.flat(), axis=1)
        fg = surf >= 0
        np.testing.assert_allclose(norms[fg], np.sqrt(3.0), atol=1e-5)
        assert np.all(norms[~fg] == 0)

    def test_view_consistency(self, distinctive_fixture):
        # the feature of a surface point is the same from any view
        scene, _, views = distinctive_fixture
        va, vb = views[0], views[3]
        size = 32
        fa = positional_features(scene, va, size)
        fb = positional_features(scene, vb, size)
        ys, xs = np.nonzero(va.prim_id >= 0)
        stride = max(1, len(xs) // 150)
        uv_a = np.stack([xs, ys], axis=-1)[::stride].astype(float)
        uv_b, vis, _, _ = correspondence_grid(scene, va, vb, uv_a)
        from epiview.numerics import bilinear_sample
        got, ok = bilinear_sample(fb, uv_b[vis])
        want = fa.data[uv_a[vis][:, 1].astype(int), uv_a[vis][:, 0].astype(int)]
        sel = ok & (np.linalg.norm(got, axis=1) > 1.5)  # skip rim blends
        assert sel.sum() > 20
        # interpolated smooth field: small errors except where the surface
        # grazes the view (assert the distribution, not the worst sample)
        err = np.abs(got[sel] - want[sel]).max(axis=1)
        assert np.median(err) < 0.15
        assert np.percentile(err, 90) < 0.35
