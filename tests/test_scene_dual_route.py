"""Ray casts that return their hit points, and the one correspondence
kernel, against frozen copies of the routes they replaced: ``raycast``
without hit points, ``render`` and ``positional_features`` that cast
again, ``_unproject`` (the hit point as R^T (d z - t)), and the two
hand-written correspondence routes (the per-pixel one classified each
pixel by a status string). Renders and features are byte-equal;
correspondences agree in every mask and id, and in position to 1e-12 px.

The vectorised ray cast, which intersects every primitive at once and
picks each row's first minimum, is held byte for byte to the
per-primitive loop with a running z-buffer that it replaced
(``oracle_raycast_loop``, with ``oracle_ray_sphere``), and the camera
frame built from explicit cross products to its ``np.cross`` form, and
normal shading to its ``np.linalg.norm`` form."""

import numpy as np
import pytest

from epiview.geometry import (
    CameraIntrinsics,
    Extrinsics,
    SphericalCamera,
    camera_on_sphere,
    pixel_grid,
)
from epiview.numerics import FeatureMap
from epiview.scenegen import (
    BACKGROUND,
    OCCLUSION_TOL,
    Box,
    PaintedBall,
    RenderedView,
    Scene,
    Sphere,
    _ray_box,
    correspondence_grid,
    make_scene,
    make_trajectory,
    positional_features,
    raycast,
    render,
    surface_palette,
    surface_table,
)


# --- frozen copies of the old routes, kept verbatim as oracles -------------

def oracle_ray_sphere(origin, dirs, center, radius):
    """Smallest positive ray parameter per ray; inf if missed. ``dirs``
    may be unnormalized (the parameter is in units of |dir|)."""
    oc = origin - center
    a = np.einsum("nd,nd->n", dirs, dirs)
    b = 2.0 * dirs @ oc
    c = oc @ oc - radius ** 2
    disc = b ** 2 - 4.0 * a * c
    hit = disc >= 0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    s0 = (-b - sq) / (2.0 * a)
    s1 = (-b + sq) / (2.0 * a)
    s = np.where(s0 > 1e-9, s0, s1)
    return np.where(hit & (s > 1e-9), s, np.inf)


def oracle_raycast_loop(scene, ext, K, uv):
    """``raycast`` as it was before it intersected every primitive at once:
    one pass per primitive with a running z-buffer, hit points included."""
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    n = uv.shape[0]
    d_cam = np.concatenate([K.normalize(uv), np.ones((n, 1))], axis=1)
    dirs = d_cam @ ext.R                                # R^T per row
    origin = ext.camera_center()

    bases, _ = surface_table(scene)
    depth = np.full(n, np.inf)
    winner = np.full(n, -1, dtype=np.int64)
    for i, p in enumerate(scene.primitives):
        if isinstance(p, (Sphere, PaintedBall)):
            s = oracle_ray_sphere(origin, dirs, np.asarray(p.center, dtype=np.float64), p.radius)
        else:
            s = _ray_box(origin, dirs, np.asarray(p.lo, dtype=np.float64),
                         np.asarray(p.hi, dtype=np.float64))
        closer = s < depth
        depth = np.where(closer, s, depth)
        winner = np.where(closer, i, winner)
    points = origin[None, :] + dirs * np.where(np.isfinite(depth), depth, 0.0)[:, None]

    surf = np.full(n, BACKGROUND, dtype=np.int64)
    for i, p in enumerate(scene.primitives):
        sel = winner == i
        if not sel.any():
            continue
        if isinstance(p, PaintedBall) and p.shading == "voronoi":
            normals = (points[sel] - np.asarray(p.center)) / p.radius
            surf[sel] = bases[i] + np.argmax(normals @ p.seeds.T, axis=1)
        else:
            surf[sel] = bases[i]
    return depth, surf, points


def oracle_shade_normals(normals):
    """``PaintedBall.shade_normals`` as it was with ``np.linalg.norm`` and a clip."""
    d = np.full_like(normals, 1.0 / np.sqrt(3.0)) + 0.5 * normals
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    return np.clip(0.9 * d, 0.0, 1.0)


def oracle_camera_on_sphere(cam):
    """``camera_on_sphere`` as it was with ``np.cross``."""
    center = cam.position()
    fwd = -center / np.linalg.norm(center)
    up = np.array([0.0, 0.0, 1.0])
    if abs(abs(cam.elevation_deg) - 90.0) < 1e-9:
        up = np.array([1.0, 0.0, 0.0])
    right = np.cross(fwd, up)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd])
    return Extrinsics(R=R, t=-R @ center)


def oracle_raycast(scene, ext, K, uv):
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    n = uv.shape[0]
    d_cam = np.concatenate([K.normalize(uv), np.ones((n, 1))], axis=1)
    dirs = d_cam @ ext.R                                # R^T per row
    origin = ext.camera_center()

    bases, _ = surface_table(scene)
    depth = np.full(n, np.inf)
    winner = np.full(n, -1, dtype=np.int64)
    for i, p in enumerate(scene.primitives):
        if isinstance(p, (Sphere, PaintedBall)):
            s = oracle_ray_sphere(origin, dirs, np.asarray(p.center, dtype=np.float64), p.radius)
        else:
            s = _ray_box(origin, dirs, np.asarray(p.lo, dtype=np.float64),
                         np.asarray(p.hi, dtype=np.float64))
        closer = s < depth
        depth = np.where(closer, s, depth)
        winner = np.where(closer, i, winner)

    surf = np.full(n, BACKGROUND, dtype=np.int64)
    for i, p in enumerate(scene.primitives):
        sel = winner == i
        if not sel.any():
            continue
        if isinstance(p, PaintedBall) and p.shading == "voronoi":
            pts = origin[None, :] + dirs[sel] * depth[sel, None]
            normals = (pts - np.asarray(p.center)) / p.radius
            patch = np.argmax(normals @ p.seeds.T, axis=1)
            surf[sel] = bases[i] + patch
        else:
            surf[sel] = bases[i]
    return depth, surf


def oracle_render(scene, cam, K):
    if cam.radius <= scene.bounding_radius:
        raise ValueError("camera must stay outside the scene bounding sphere")
    ext = camera_on_sphere(cam)
    h, w = K.height, K.width
    vv, uu = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    uv = np.stack([uu.ravel(), vv.ravel()], axis=-1).astype(np.float64)
    depth, surf = oracle_raycast(scene, ext, K, uv)
    rgb = np.zeros((h * w, 3), dtype=np.float64)
    fg = surf >= 0
    if fg.any():
        rgb[fg] = surface_palette(scene)[surf[fg]]
    bases, _ = surface_table(scene)
    for p, base in zip(scene.primitives, bases):
        if isinstance(p, PaintedBall) and p.shading == "normal":
            sel = surf == base
            if sel.any():
                d_cam = np.concatenate([K.normalize(uv[sel]), np.ones((int(sel.sum()), 1))], axis=1)
                dirs = d_cam @ ext.R
                pts = ext.camera_center()[None, :] + dirs * depth[sel, None]
                normals = (pts - np.asarray(p.center)) / p.radius
                rgb[sel] = p.shade_normals(normals)
    d_cam = np.concatenate([K.normalize(uv), np.ones((h * w, 1))], axis=1)
    points = ext.camera_center()[None, :] + (d_cam @ ext.R) * np.where(
        np.isfinite(depth), depth, 0.0)[:, None]
    return RenderedView(
        rgb=FeatureMap(rgb.reshape(h, w, 3)),
        depth=depth.reshape(h, w),
        prim_id=surf.reshape(h, w).astype(np.int64),
        camera=cam,
        intrinsics=K,
        points=points.reshape(h, w, 3),
    )


def oracle_unproject(scene, view, uv):
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    ext = view.extrinsics
    K = view.intrinsics
    depth, prim = oracle_raycast(scene, ext, K, uv)
    d_cam = np.concatenate([K.normalize(uv), np.ones((uv.shape[0], 1))], axis=1)
    safe = np.where(np.isfinite(depth), depth, 0.0)  # background rows are junk; prim marks them
    x_cam = d_cam * safe[:, None]
    x_world = (x_cam - ext.t) @ ext.R
    return x_world, depth, prim


def oracle_gt_correspondence(scene, view_a, view_b, p):
    """(status, uv_b or None, prim_b) of one pixel of view A."""
    p = np.asarray(p, dtype=np.float64).reshape(2)
    x_world, depth_a, prim_a = oracle_unproject(scene, view_a, p[None, :])
    if prim_a[0] < 0:
        raise ValueError(f"pixel {p} is background in view A")
    ext_b = view_b.extrinsics
    K_b = view_b.intrinsics
    x_b = ext_b.apply(x_world)[0]
    if x_b[2] <= 0:
        return "behind", None, BACKGROUND
    uv_b = K_b.project(x_b)
    if not (0 <= uv_b[0] <= K_b.width - 1 and 0 <= uv_b[1] <= K_b.height - 1):
        return "out_of_frame", None, BACKGROUND
    hit_depth, hit_prim = oracle_raycast(scene, ext_b, K_b, uv_b[None, :])
    if abs(hit_depth[0] - x_b[2]) > OCCLUSION_TOL:
        return "occluded", uv_b, int(hit_prim[0])
    return "ok", uv_b, int(hit_prim[0])


def oracle_correspondence_grid(scene, view_a, view_b, uv_a):
    uv_a = np.asarray(uv_a, dtype=np.float64).reshape(-1, 2)
    x_world, _, prim_a = oracle_unproject(scene, view_a, uv_a)
    ext_b = view_b.extrinsics
    K_b = view_b.intrinsics
    x_b = ext_b.apply(x_world)
    n = uv_a.shape[0]
    uv_b = np.zeros((n, 2))
    visible = np.zeros(n, dtype=bool)
    prim_b = np.full(n, BACKGROUND, dtype=np.int64)
    front = (prim_a >= 0) & (x_b[:, 2] > 0)
    if front.any():
        proj = K_b.project(x_b[front])
        uv_b[front] = proj
        in_frame = ((proj[:, 0] >= 0) & (proj[:, 0] <= K_b.width - 1)
                    & (proj[:, 1] >= 0) & (proj[:, 1] <= K_b.height - 1))
        check = np.flatnonzero(front)[in_frame]
        if check.size:
            hit_depth, hit_prim = oracle_raycast(scene, ext_b, K_b, uv_b[check])
            vis = np.abs(hit_depth - x_b[check, 2]) <= OCCLUSION_TOL
            visible[check] = vis
            prim_b[check] = hit_prim
    return uv_b, visible, prim_a, prim_b


def oracle_positional_features(scene, view, width, height, freqs=(9.0,)):
    k_feat = view.intrinsics.scaled(width / view.intrinsics.width)
    vv, uu = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    uv = np.stack([uu.ravel(), vv.ravel()], axis=-1).astype(np.float64)
    ext = view.extrinsics
    depth, surf = oracle_raycast(scene, ext, k_feat, uv)
    d_cam = np.concatenate([k_feat.normalize(uv), np.ones((uv.shape[0], 1))], axis=1)
    safe = np.where(np.isfinite(depth), depth, 0.0)
    pts = ext.camera_center()[None, :] + (d_cam @ ext.R) * safe[:, None]
    chans = []
    for f in freqs:
        chans.append(np.sin(f * pts))
        chans.append(np.cos(f * pts))
    feat = np.concatenate(chans, axis=1)
    feat[surf < 0] = 0.0
    return FeatureMap(feat.reshape(height, width, -1))


# --- scenes ------------------------------------------------------------------

def box_scene() -> Scene:
    """A box poking out of a voronoi ball, and a sphere beside them."""
    base = make_scene(3, "plain")
    return Scene(seed=3, mode="plain", bounding_radius=1.0, primitives=base.primitives + (
        Box(lo=np.array([0.35, -0.3, -0.2]), hi=np.array([0.75, 0.1, 0.25]),
            color=np.array([0.8, 0.2, 0.1])),
        Sphere(center=np.array([-0.2, 0.75, 0.3]), radius=0.15, color=np.array([0.1, 0.6, 0.3])),
    ))


SCENES = {"distinctive": lambda: make_scene(0, "distinctive"),
          "plain": lambda: make_scene(0, "plain"),
          "box": box_scene}


def assert_same_view(got: RenderedView, want: RenderedView):
    assert got.rgb.data.tobytes() == want.rgb.data.tobytes()
    assert got.depth.tobytes() == want.depth.tobytes()
    assert got.prim_id.dtype == want.prim_id.dtype
    assert got.prim_id.tobytes() == want.prim_id.tobytes()
    np.testing.assert_allclose(got.points, want.points, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(SCENES))
def test_render_and_features_are_byte_equal(name):
    scene = SCENES[name]()
    K = CameraIntrinsics.from_fov(32, 32)
    K_wide = CameraIntrinsics.from_fov(24, 20, 65.0)
    drawn = set()
    for cam in make_trajectory("free16", 100):
        view = render(scene, cam, K)
        assert_same_view(view, oracle_render(scene, cam, K))
        wide = render(scene, cam, K_wide)
        assert_same_view(wide, oracle_render(scene, cam, K_wide))
        for size in (16, 24):
            got = positional_features(scene, view, size)
            want = oracle_positional_features(scene, view, size, size)
            assert got.data.tobytes() == want.data.tobytes()
        # a non-square view's grid is as tall as its scaled intrinsics
        got = positional_features(scene, wide, 12)
        assert got.data.tobytes() == oracle_positional_features(scene, wide, 12, 10).data.tobytes()
        drawn |= set(np.unique(view.prim_id).tolist())
    assert set(surface_table(scene)[0]) <= drawn   # every primitive is seen somewhere


@pytest.mark.parametrize("name", sorted(SCENES))
def test_raycast_hit_points_match_the_unprojection(name):
    scene = SCENES[name]()
    K = CameraIntrinsics.from_fov(32, 32)
    rng = np.random.default_rng(7)
    for cam in make_trajectory("free16", 100)[:6]:
        view = oracle_render(scene, cam, K)
        ext = view.extrinsics
        uv = rng.uniform(-2.0, 33.0, (300, 2))
        depth, surf, points = raycast(scene, ext, K, uv)
        want_depth, want_surf = oracle_raycast(scene, ext, K, uv)
        assert depth.tobytes() == want_depth.tobytes()
        assert surf.tobytes() == want_surf.tobytes()
        x_world, _, _ = oracle_unproject(scene, view, uv)
        fg = surf >= 0
        assert 0 < fg.sum() < fg.size
        np.testing.assert_allclose(points[fg], x_world[fg], rtol=0, atol=1e-12)
        np.testing.assert_allclose(ext.apply(points[fg])[:, 2], depth[fg], rtol=0, atol=1e-12)
        assert np.all(points[~fg] == ext.camera_center())


@pytest.mark.parametrize("name", sorted(SCENES))
def test_correspondence_grid_matches_the_old_route(name):
    scene = SCENES[name]()
    K = CameraIntrinsics.from_fov(32, 32)
    views = [render(scene, c, K) for c in make_trajectory("free16", 100)[::2]]
    uv_a = np.stack(np.meshgrid(np.arange(32.0), np.arange(32.0), indexing="xy"),
                    axis=-1).reshape(-1, 2)
    uv_frac = np.random.default_rng(11).uniform(-0.5, 31.5, (200, 2))
    seen = invisible_in_frame = 0
    for i, va in enumerate(views):
        for j, vb in enumerate(views):
            if i == j:
                continue
            for uv in (uv_a, uv_frac):
                uv_b, visible, prim_a, prim_b = correspondence_grid(scene, va, vb, uv)
                w_uv_b, w_visible, w_prim_a, w_prim_b = oracle_correspondence_grid(
                    scene, va, vb, uv)
                assert visible.tobytes() == w_visible.tobytes()
                assert prim_a.tobytes() == w_prim_a.tobytes()
                assert prim_b.tobytes() == w_prim_b.tobytes()
                assert np.array_equal(np.round(uv_b), np.round(w_uv_b))
                np.testing.assert_allclose(uv_b, w_uv_b, rtol=0, atol=1e-12)
                seen += int(visible.sum())
                invisible_in_frame += int(np.sum(~visible & (prim_b >= 0)))
    assert seen > 0 and invisible_in_frame > 0   # both visible and occluded rows ran


def assert_row_matches_the_oracle(scene, va, vb, p, row):
    """One row of ``correspondence_grid``, (uv_b, visible, prim_a, prim_b),
    against the per-pixel oracle; returns the oracle's status."""
    uv_b, visible, prim_a, prim_b = row
    try:
        status, want_uv, want_prim_b = oracle_gt_correspondence(scene, va, vb, p)
    except ValueError:   # background in A: nothing to correspond
        assert prim_a == BACKGROUND and not visible and prim_b == BACKGROUND
        return "background"
    assert prim_a >= 0
    assert visible == (status == "ok")
    assert prim_b == want_prim_b
    if want_uv is not None:
        np.testing.assert_allclose(uv_b, want_uv, rtol=0, atol=1e-12)
    return status


@pytest.mark.parametrize("name", sorted(SCENES))
def test_gt_correspondence_matches_the_old_route(name):
    scene = SCENES[name]()
    K = CameraIntrinsics.from_fov(32, 32)
    views = [render(scene, c, K) for c in make_trajectory("free16", 100)[::3]]
    rng = np.random.default_rng(5)
    statuses = set()
    for i, va in enumerate(views):
        ys, xs = np.nonzero(va.prim_id >= 0)
        picks = rng.choice(xs.size, 40, replace=False)
        uv = np.stack([xs[picks], ys[picks]], axis=-1) + rng.uniform(-0.3, 0.3, (40, 2))
        for j, vb in enumerate(views):
            if i == j:
                continue
            rows = correspondence_grid(scene, va, vb, uv)
            for k, p in enumerate(uv):
                statuses.add(assert_row_matches_the_oracle(
                    scene, va, vb, p, [x[k] for x in rows]))
    assert {"ok", "occluded", "out_of_frame"} <= statuses


def test_gt_correspondence_behind_the_other_view():
    # view A at +x looks through the empty middle at a sphere behind view B
    scene = Scene(seed=0, bounding_radius=1.0, primitives=(
        Sphere(center=np.array([-3.0, 0.0, 0.0]), radius=0.5, color=np.array([0.9, 0.1, 0.1])),))
    K = CameraIntrinsics.from_fov(32, 32)
    va, vb = (render(scene, SphericalCamera(0.0, az, 2.0), K) for az in (0.0, 180.0))
    ys, xs = np.nonzero(va.prim_id >= 0)
    assert xs.size > 0
    uv = np.concatenate([np.stack([xs, ys], axis=-1), [[0, 0]]]).astype(float)
    rows = correspondence_grid(scene, va, vb, uv)
    statuses = [assert_row_matches_the_oracle(scene, va, vb, p, [x[k] for x in rows])
                for k, p in enumerate(uv)]
    assert statuses == ["behind"] * xs.size + ["background"]   # (0, 0) is background in A


# --- the vectorised ray cast against the per-primitive loop -----------------

def assert_raycast_matches_the_loop(scene, ext, K, uv):
    """Byte-equal depth, surf and points; returns the surf ids."""
    got = raycast(scene, ext, K, uv)
    want = oracle_raycast_loop(scene, ext, K, uv)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    return got[1]


POLES = [SphericalCamera(el, az, r) for el in (90.0, -90.0) for az, r in ((0.0, 2.0), (137.0, 3.5))]


@pytest.mark.parametrize("name", sorted(SCENES))
def test_vectorised_raycast_is_byte_equal_to_the_loop(name):
    scene = SCENES[name]()
    rng = np.random.default_rng(17)
    seen = set()
    for K in (CameraIntrinsics.from_fov(32, 32), CameraIntrinsics.from_fov(24, 20, 65.0)):
        for cam in make_trajectory("free16", 100) + POLES:
            ext = camera_on_sphere(cam)
            for uv in (pixel_grid(K.width, K.height), rng.uniform(-3.0, 34.0, (257, 2))):
                seen |= set(assert_raycast_matches_the_loop(scene, ext, K, uv).tolist())
    assert BACKGROUND in seen and set(surface_table(scene)[0]) <= seen


def test_empty_scene_is_all_background():
    scene = Scene(seed=0, primitives=(), bounding_radius=1.0)
    K = CameraIntrinsics.from_fov(12, 8)
    cam = SphericalCamera(20.0, 30.0, 2.0)
    surf = assert_raycast_matches_the_loop(scene, camera_on_sphere(cam), K, pixel_grid(12, 8))
    assert np.all(surf == BACKGROUND)
    view = render(scene, cam, K)
    assert np.all(view.depth == np.inf) and not view.rgb.data.any()
    assert np.all(view.points == camera_on_sphere(cam).camera_center())
    assert raycast(scene, camera_on_sphere(cam), K, np.zeros((0, 2)))[2].shape == (0, 3)


def test_coincident_primitives_the_first_wins():
    first = Sphere(center=np.array([0.1, -0.2, 0.0]), radius=0.5, color=np.array([0.9, 0.1, 0.1]))
    second = Sphere(center=first.center.copy(), radius=0.5, color=np.array([0.1, 0.9, 0.1]))
    box = Box(lo=np.array([-0.3, -0.3, -0.3]), hi=np.array([0.3, 0.3, 0.3]),
              color=np.array([0.1, 0.1, 0.9]))
    twin = Box(lo=box.lo.copy(), hi=box.hi.copy(), color=np.array([0.5, 0.5, 0.5]))
    K = CameraIntrinsics.from_fov(16, 12)
    for prims in ((first, second), (first, second, first), (box, twin)):
        scene = Scene(seed=0, primitives=prims, bounding_radius=1.0)
        for cam in make_trajectory("fixed16", 0)[::4] + POLES:
            surf = assert_raycast_matches_the_loop(scene, camera_on_sphere(cam), K,
                                                   pixel_grid(16, 12))
            assert set(surf.tolist()) == {BACKGROUND, 0}   # the later twins never win
            rgb = render(scene, cam, K).rgb.data.reshape(-1, 3)
            assert np.all(rgb[surf == 0] == np.float32(prims[0].color))


def test_rays_that_miss_everything():
    K = CameraIntrinsics.from_fov(32, 32)
    uv = np.concatenate([np.random.default_rng(3).uniform(-400.0, -300.0, (50, 2)),
                         [[1e4, 1e4], [-1e6, 5.0]]])
    for scene in (SCENES["box"](), SCENES["distinctive"]()):
        for cam in make_trajectory("free16", 100)[::5] + POLES:
            ext = camera_on_sphere(cam)
            assert np.all(assert_raycast_matches_the_loop(scene, ext, K, uv) == BACKGROUND)
            depth, _, points = raycast(scene, ext, K, uv)
            assert np.all(depth == np.inf) and np.all(points == ext.camera_center())


def test_rays_from_inside_a_sphere_take_the_far_root():
    # the camera sits inside a shell: every ray's near root lies behind it
    shell = Sphere(center=np.array([0.2, 0.0, 0.1]), radius=3.0, color=np.array([0.3, 0.3, 0.3]))
    scene = Scene(seed=0, bounding_radius=1.0, primitives=make_scene(0, "plain").primitives
                  + (shell,))
    K = CameraIntrinsics.from_fov(20, 14, 70.0)
    shell_id = surface_table(scene)[0][-1]
    for cam in make_trajectory("free16", 100)[::4] + POLES[:2]:
        surf = assert_raycast_matches_the_loop(scene, camera_on_sphere(cam), K, pixel_grid(20, 14))
        assert shell_id in surf and BACKGROUND not in surf


@pytest.mark.parametrize("mode", ["fixed16", "free16", "free32"])
def test_camera_frame_is_bit_equal_to_np_cross(mode):
    cams = make_trajectory(mode, 100) + make_trajectory(mode, 7, radius=3.25) + POLES
    for cam in cams:
        got, want = camera_on_sphere(cam), oracle_camera_on_sphere(cam)
        assert got.R.tobytes() == want.R.tobytes()
        assert got.t.tobytes() == want.t.tobytes()


def test_pixel_grid_is_the_meshgrid():
    for w, h in ((1, 1), (5, 3), (3, 5), (32, 32)):
        vv, uu = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        want = np.stack([uu.ravel(), vv.ravel()], axis=-1).astype(np.float64)
        got = pixel_grid(w, h)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_normal_shading_is_bit_equal_to_the_norm_and_clip():
    rng = np.random.default_rng(23)
    normals = rng.standard_normal((20000, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    ball = make_scene(0, "distinctive").primitives[0]
    assert ball.shading == "normal"
    view = render(make_scene(0, "distinctive"), make_trajectory("free16", 100)[3],
                  CameraIntrinsics.from_fov(32, 32))
    hits = (view.points[view.prim_id == 0] - ball.center) / ball.radius
    for n in (normals, hits, normals[:7].reshape(7, 1, 3)):
        got = ball.shade_normals(n)
        assert got.shape == n.shape and got.tobytes() == oracle_shade_normals(n).tobytes()
