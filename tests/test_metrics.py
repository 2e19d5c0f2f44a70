"""Metrics: PSNR, SSIM, reprojection consistency, and localization."""

import math

import numpy as np
import pytest

from epiview.metrics import (
    PairConsistency,
    localization_accuracy,
    localization_study,
    metrics_csv_rows,
    psnr,
    reprojection_consistency,
    ssim,
)
from epiview.attention import AttentionParams, project_context
from epiview.geometry import (CameraIntrinsics, SphericalCamera, epipolar_sample_grid, pixel_grid,
                              relative_pose)
from epiview.scenegen import (
    BACKGROUND,
    OCCLUSION_TOL,
    Box,
    Scene,
    correspondence_grid,
    make_scene,
    make_trajectory,
    positional_features,
    raycast,
    render,
)


class TestPsnr:
    def test_identical_is_infinite(self):
        a = np.random.default_rng(0).random((8, 8, 3))
        assert psnr(a, a) == math.inf

    def test_unit_error_is_zero_db(self):
        assert abs(psnr(np.zeros((4, 4, 3)), np.ones((4, 4, 3)))) < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((6, 6, 3)), rng.random((6, 6, 3))
        want = 10 * math.log10(1.0 / np.mean((a - b) ** 2))
        assert abs(psnr(a, b) - want) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((5, 5, 3)), rng.random((5, 5, 3))
        assert psnr(a, b) == psnr(b, a)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((4, 4, 3)), rng.random((4, 4, 3))
        perm = rng.permutation(16)
        ap = a.reshape(16, 3)[perm].reshape(4, 4, 3)
        bp = b.reshape(16, 3)[perm].reshape(4, 4, 3)
        assert abs(psnr(a, b) - psnr(ap, bp)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4, 3)), np.zeros((5, 4, 3)))


def naive_ssim(a, b, window=8, c1=0.01 ** 2, c2=0.03 ** 2):
    """Double-loop reference over every window and channel."""
    if a.ndim == 2:
        a, b = a[:, :, None], b[:, :, None]
    h, w, c = a.shape
    scores = []
    for ch in range(c):
        for y in range(h - window + 1):
            for x in range(w - window + 1):
                wa = a[y:y + window, x:x + window, ch].astype(np.float64)
                wb = b[y:y + window, x:x + window, ch].astype(np.float64)
                mua, mub = wa.mean(), wb.mean()
                va = (wa ** 2).mean() - mua ** 2
                vb = (wb ** 2).mean() - mub ** 2
                cov = (wa * wb).mean() - mua * mub
                scores.append(((2 * mua * mub + c1) * (2 * cov + c2))
                              / ((mua ** 2 + mub ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(scores))


class TestSsim:
    def test_identical_is_one(self):
        a = np.random.default_rng(4).random((12, 12, 3))
        assert abs(ssim(a, a) - 1.0) < 1e-12

    def test_anticorrelated_binary_is_negative(self):
        rng = np.random.default_rng(5)
        a = (rng.random((12, 12)) > 0.5).astype(np.float64)
        assert ssim(a, 1.0 - a) < 0

    def test_matches_naive_window_oracle(self):
        rng = np.random.default_rng(6)
        a, b = rng.random((10, 11, 2)), rng.random((10, 11, 2))
        assert abs(ssim(a, b) - naive_ssim(a, b)) < 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        a, b = rng.random((9, 9)), rng.random((9, 9))
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-12

    def test_image_smaller_than_window(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)))


class TestReprojectionConsistency:
    def test_gt_renders_score_zero(self, plain_fixture):
        scene, _, views = plain_fixture
        err, pairs = reprojection_consistency([v.rgb.data for v in views], views, scene)
        assert err < 1e-6
        assert any(p.pixels > 0 for p in pairs)

    def test_noise_view_raises_error(self, plain_fixture):
        scene, _, views = plain_fixture
        images = [v.rgb.data for v in views]
        base, _ = reprojection_consistency(images, views, scene)
        noisy = list(images)
        noisy[1] = np.random.default_rng(8).random(images[1].shape)
        worse, _ = reprojection_consistency(noisy, views, scene)
        assert worse > base + 0.01

    def test_no_overlap_pair_is_nan(self, intrinsics32):
        # one thin slab: front and back cameras see opposite faces only
        scene = Scene(seed=0, primitives=(
            Box(lo=np.array([-0.05, -0.5, -0.5]), hi=np.array([0.05, 0.5, 0.5]),
                color=np.array([1.0, 0.3, 0.3])),), bounding_radius=1.0)
        va = render(scene, SphericalCamera(0.0, 0.0, 2.5), intrinsics32)
        vb = render(scene, SphericalCamera(0.0, 180.0, 2.5), intrinsics32)
        err, pairs = reprojection_consistency([va.rgb.data, vb.rgb.data], [va, vb], scene)
        assert all(math.isnan(p.error) for p in pairs)
        assert math.isnan(err)


def frozen_correspond(scene, view_a, view_b, uv_a):
    """The correspondence kernel as it was when it cast view A itself.
    Kept verbatim as the oracle."""
    uv_a = np.asarray(uv_a, dtype=np.float64).reshape(-1, 2)
    _, prim_a, x_world = raycast(scene, view_a.extrinsics, view_a.intrinsics, uv_a)
    ext_b, K_b = view_b.extrinsics, view_b.intrinsics
    x_b = ext_b.apply(x_world)
    n = uv_a.shape[0]
    status = np.where(prim_a >= 0, "behind", "background").astype("<U12")
    uv_b = np.zeros((n, 2))
    prim_b = np.full(n, BACKGROUND, dtype=np.int64)
    depth_b = np.full(n, np.inf)
    front = np.flatnonzero((prim_a >= 0) & (x_b[:, 2] > 0))
    status[front] = "out_of_frame"
    uv_b[front] = K_b.project(x_b[front])
    u, v = uv_b[front, 0], uv_b[front, 1]
    check = front[(u >= 0) & (u <= K_b.width - 1) & (v >= 0) & (v <= K_b.height - 1)]
    depth_b[check], prim_b[check], _ = raycast(scene, ext_b, K_b, uv_b[check])
    seen = np.abs(depth_b[check] - x_b[check, 2]) <= OCCLUSION_TOL
    status[check] = np.where(seen, "ok", "occluded")
    return status, uv_b, prim_a, prim_b, depth_b


def frozen_reprojection_consistency(images, views, scene):
    """``reprojection_consistency`` as it was when it cast view A once per
    view pair and clipped the nearest pixel. Kept verbatim as the oracle."""
    n = len(views)
    pairs = []
    defined = []
    for i in range(n):
        h, w = views[i].intrinsics.height, views[i].intrinsics.width
        uv_a = pixel_grid(w, h)
        img_a = np.asarray(images[i], dtype=np.float64).reshape(h * w, -1)
        for j in range(n):
            if i == j:
                continue
            status, uv_b, prim_a, _, _ = frozen_correspond(scene, views[i], views[j], uv_a)
            visible = status == "ok"
            near = np.round(uv_b).astype(np.int64)
            ok = visible.copy()
            idx = np.flatnonzero(ok)
            if idx.size:
                nb = near[idx]
                nb[:, 0] = np.clip(nb[:, 0], 0, views[j].intrinsics.width - 1)
                nb[:, 1] = np.clip(nb[:, 1], 0, views[j].intrinsics.height - 1)
                same_prim = views[j].prim_id[nb[:, 1], nb[:, 0]] == prim_a[idx]
                ok[idx] = same_prim
            count = int(ok.sum())
            if count == 0:
                pairs.append(PairConsistency(i, j, float("nan"), 0))
                continue
            sel = np.flatnonzero(ok)
            nb = near[sel]
            img_b = np.asarray(images[j], dtype=np.float64)
            diff = np.abs(img_a[sel] - img_b[nb[:, 1], nb[:, 0]])
            err = float(diff.mean())
            pairs.append(PairConsistency(i, j, err, count))
            defined.append(err)
    mean_error = float(np.mean(defined)) if defined else float("nan")
    return mean_error, pairs


class TestReprojectionDualRoute:
    """One ray cast per view against the frozen route that cast view A
    once per pair, byte for byte."""

    @pytest.mark.parametrize("mode", ["distinctive", "plain"])
    def test_pairs_byte_identical_to_the_frozen_route(self, mode, distinctive_fixture,
                                                      intrinsics32):
        _, cams, _ = distinctive_fixture
        scene = make_scene(0, mode)
        views = [render(scene, cam, intrinsics32) for cam in cams[::2]]
        clean = [v.rgb.data for v in views]
        rng = np.random.default_rng(9)
        noisy = [im + rng.normal(0.0, 0.05, im.shape) for im in clean]
        for images in (clean, noisy):
            got_mean, got = reprojection_consistency(images, views, scene)
            want_mean, want = frozen_reprojection_consistency(images, views, scene)
            assert np.float64(got_mean).tobytes() == np.float64(want_mean).tobytes()
            assert [(p.view_a, p.view_b, p.pixels) for p in got] == \
                [(p.view_a, p.view_b, p.pixels) for p in want]
            assert np.array([p.error for p in got]).tobytes() == \
                np.array([p.error for p in want]).tobytes()
            assert sum(p.pixels for p in got) > 0

    def test_each_view_is_cast_once(self, distinctive_fixture, monkeypatch):
        import epiview.scenegen as scenegen
        scene, _, views = distinctive_fixture
        grid = pixel_grid(32, 32)
        casts = []

        def counting(scene, ext, K, uv):
            casts.append(np.array_equal(np.reshape(uv, (-1, 2)), grid))
            return raycast(scene, ext, K, uv)

        monkeypatch.setattr(scenegen, "raycast", counting)
        reprojection_consistency([v.rgb.data for v in views], views, scene)
        # A's pixel grid was cast once, by its render; B's rays once per ordered pair
        assert sum(casts) == 0
        assert len(casts) == 16 * 15


class TestLocalization:
    def test_accuracy_counts_within_k(self):
        argmax = np.array([[0.0, 0.0], [5.0, 5.0], [2.0, 2.0]])
        gt = np.array([[0.5, 0.0], [0.0, 0.0], [2.0, 3.5]])
        assert abs(localization_accuracy(argmax, gt, k=1.0) - 1 / 3) < 1e-12

    def test_identity_pair_full_sampling_exact_self_match(self, distinctive_fixture):
        scene, _, views = distinctive_fixture
        # k absorbs reprojection roundoff (~1e-12 px); any wrong argmax
        # would be >= 1 px away
        r = localization_study(scene, views[0], views[0], feature_size=16, k=1e-9)
        # zero baseline: epipolar geometry is degenerate, full attention
        # self-matches exactly
        assert r["full"] == 1.0
        assert r["epipolar_usable"] == 0

    @pytest.mark.parametrize("shape", [(32, 24), (24, 32)])
    def test_non_square_views(self, shape):
        """Feature grids take their height from the view's intrinsics, so
        the sample set covers the target grid on either aspect."""
        scene = make_scene(0, "distinctive")
        K = CameraIntrinsics.from_fov(*shape)
        va, vb = (render(scene, cam, K) for cam in make_trajectory("free16", 0)[:2])
        r = localization_study(scene, va, vb)
        assert r["queries"] > 0 and r["epipolar_usable"] > 0
        assert math.isfinite(r["epipolar"]) and math.isfinite(r["full"])
        assert positional_features(scene, va, 24).data.shape[:2] == (shape[1] * 24 // shape[0], 24)

    def test_frozen_thresholds(self, distinctive_fixture, frozen):
        scene, _, views = distinctive_fixture
        cfg = frozen["localization"]
        tot_e = tot_f = tot_q = tot_u = 0
        for i in range(16):
            r = localization_study(scene, views[i], views[(i + 1) % 16],
                                   feature_size=cfg["feature_size"])
            tot_e += r["epipolar"] * r["epipolar_usable"]
            tot_u += r["epipolar_usable"]
            tot_f += r["full"] * r["queries"]
            tot_q += r["queries"]
        epi, full = tot_e / tot_u, tot_f / tot_q
        assert abs(epi - cfg["epipolar"]) <= cfg["drift_tolerance"]
        assert abs(full - cfg["full"]) <= cfg["drift_tolerance"]

    def test_argmaxes_match_the_frozen_oracles(self, distinctive_fixture, monkeypatch):
        # the study's per-query argmax positions, as it scores them
        import epiview.metrics as metrics
        from test_attention import oracle_full_similarity, oracle_query_major_attention
        scene, _, views = distinctive_fixture
        va, vb, size = views[0], views[1], 24
        seen = []

        def scoring(argmax_uv, gt_uv, k):
            seen.append(np.asarray(argmax_uv))
            return localization_accuracy(argmax_uv, gt_uv, k)

        monkeypatch.setattr(metrics, "localization_accuracy", scoring)
        r = localization_study(scene, va, vb, feature_size=size)
        epi_uv, full_uv = seen
        # the study's queries, features and sample set, through the frozen oracles
        f_tgt = positional_features(scene, va, size)
        params = AttentionParams.identity(f_tgt.channels)
        ctx = project_context(positional_features(scene, vb, size), params)
        scale = size / va.intrinsics.width
        uv_img = (pixel_grid(size, size) + 0.5) / scale - 0.5
        _, visible, prim_a, _ = correspondence_grid(scene, va, vb, uv_img)
        queries = np.flatnonzero((prim_a >= 0) & visible)
        samples = epipolar_sample_grid(relative_pose(vb.extrinsics, va.extrinsics),
                                       va.intrinsics.scaled(scale))
        logits_e, _, _, valid_e = oracle_query_major_attention(f_tgt, ctx, samples, params)[:4]
        usable = queries[valid_e[queries].any(axis=1)]
        assert (r["queries"], r["epipolar_usable"]) == (queries.size, usable.size)
        masked_e = np.where(valid_e, logits_e[0], -np.inf)[usable]          # (Q, S)
        want_e = samples.uv[np.argmax(masked_e, axis=1), usable]
        logits_f = oracle_full_similarity(f_tgt, ctx, params)[0][0, queries]   # (Q, M)
        best_f = np.argmax(logits_f, axis=1)
        want_f = np.stack([best_f % size, best_f // size], axis=-1)
        for got, logits, want in ((epi_uv, masked_e, want_e), (full_uv, logits_f, want_f)):
            top2 = np.sort(logits, axis=1)[:, -2:]
            clear = top2[:, 1] - top2[:, 0] >= 1e-9   # one valid slot: an infinite margin
            assert clear.mean() > 0.9, clear.mean()
            assert np.array_equal(got[clear], want[clear])

    def test_full_argmax_equals_the_oracle_on_the_criterion_6_pairs(
            self, distinctive_fixture, frozen, monkeypatch):
        """The study takes its full argmax down the key axis of key-major
        logits; at every query of every criterion-6 pair it is the argmax
        along the rows of the frozen query-major oracle's logits."""
        import epiview.metrics as metrics
        from test_attention import oracle_full_similarity
        scene, _, views = distinctive_fixture
        size = frozen["localization"]["feature_size"]
        seen = []

        def scoring(argmax_uv, gt_uv, k):
            seen.append(np.asarray(argmax_uv))
            return localization_accuracy(argmax_uv, gt_uv, k)

        monkeypatch.setattr(metrics, "localization_accuracy", scoring)
        for i in range(16):
            va, vb = views[i], views[(i + 1) % 16]
            seen.clear()
            r = localization_study(scene, va, vb, feature_size=size, k=1.0)
            full_uv = seen[-1]
            f_tgt = positional_features(scene, va, size)
            params = AttentionParams.identity(f_tgt.channels)
            ctx = project_context(positional_features(scene, vb, size), params)
            scale = size / va.intrinsics.width
            uv_img = (pixel_grid(size, size) + 0.5) / scale - 0.5
            _, visible, prim_a, _ = correspondence_grid(scene, va, vb, uv_img)
            queries = np.flatnonzero((prim_a >= 0) & visible)
            assert r["queries"] == queries.size > 0
            best = np.argmax(oracle_full_similarity(f_tgt, ctx, params)[0][0, queries], axis=1)
            want = np.stack([best % size, best // size], axis=-1)
            assert np.array_equal(full_uv, want), i

    def test_occluded_queries_excluded(self, distinctive_fixture):
        from epiview.scenegen import correspondence_grid
        scene, _, views = distinctive_fixture
        va, vb = views[0], views[8]  # wide baseline: plenty of occlusion
        size = 16
        scale = size / 32
        vv, uu = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        uv_img = (np.stack([uu.ravel(), vv.ravel()], -1) + 0.5) / scale - 0.5
        _, vis, prim_a, _ = correspondence_grid(scene, va, vb, uv_img)
        r = localization_study(scene, va, vb, feature_size=size)
        assert r["queries"] == int(((prim_a >= 0) & vis).sum())
        assert r["queries"] < int((prim_a >= 0).sum())


class TestCsvRows:
    def test_layout(self):
        rows = metrics_csv_rows("run1", [("psnr", "0:gt", 12.5)])
        assert rows[0] == ("run_id", "metric", "view_pair", "value")
        assert rows[1] == ("run1", "psnr", "0:gt", "12.5")
