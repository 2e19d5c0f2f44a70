"""Bilinear tap plans against a frozen copy of the four-neighbor
bilinear sampler they replaced: byte-identical on epipolar sample grids
(two taps), within 1e-12 on arbitrary positions (four taps)."""

import numpy as np
import pytest

from epiview.attention import AttentionParams, epipolar_similarity, project_context
from epiview.geometry import (
    CameraIntrinsics,
    SphericalCamera,
    camera_on_sphere,
    epipolar_sample_grid,
    relative_pose,
)
from epiview.numerics import BilinearPlan, FeatureMap, apply_linear


def bilinear_oracle(fm: FeatureMap, uv: np.ndarray):
    """The sampler as it was before tap plans: floors, clamps and weights
    recomputed per call, four 2-D gathers. Kept verbatim as the oracle."""
    uv = np.asarray(uv, dtype=np.float64)
    u, v = uv[..., 0], uv[..., 1]
    h, w = fm.height, fm.width
    valid = (u >= 0.0) & (u <= w - 1) & (v >= 0.0) & (v <= h - 1)

    u = np.where(valid, u, 0.0)
    v = np.where(valid, v, 0.0)
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    u0 = np.minimum(u0, w - 2) if w > 1 else u0 * 0
    v0 = np.minimum(v0, h - 2) if h > 1 else v0 * 0
    du = u - u0
    dv = v - v0

    grid = fm.data.astype(np.float64)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    p00 = grid[v0, u0]
    p01 = grid[v0, u1]
    p10 = grid[v1, u0]
    p11 = grid[v1, u1]
    du_ = du[..., None]
    dv_ = dv[..., None]
    values = (p00 * (1 - du_) * (1 - dv_) + p01 * du_ * (1 - dv_)
              + p10 * (1 - du_) * dv_ + p11 * du_ * dv_)
    values = np.where(valid[..., None], values, 0.0)
    return values, valid


def random_sample_sets(seed: int, count: int, width: int, height: int, axis: str):
    rng = np.random.default_rng(seed)
    K = CameraIntrinsics.from_fov(width, height)
    for _ in range(count):
        a, b = (SphericalCamera(rng.uniform(-10, 40), rng.uniform(0, 360), rng.uniform(1.8, 2.4))
                for _ in range(2))
        pose = relative_pose(camera_on_sphere(a), camera_on_sphere(b))
        yield epipolar_sample_grid(pose, K, width, height, axis)


@pytest.mark.parametrize("axis", ["dominant", "width"])
@pytest.mark.parametrize("width,height", [(32, 32), (11, 7)])
def test_two_tap_plan_is_byte_identical_on_sample_grids(axis, width, height):
    rng = np.random.default_rng(width * height)
    reached_u = reached_v = False
    for samples in random_sample_sets(width + height, 12, width, height, axis):
        k = FeatureMap(rng.standard_normal((height, width, 5)))
        v = FeatureMap(rng.standard_normal((height, width, 3)))
        plan = BilinearPlan.build(samples.uv, width, height)
        assert plan.index.shape[0] == 2 and plan.index.dtype == np.int32
        kv = plan.gather(np.concatenate([k.flat(), v.flat()], axis=1))
        for got, fm in ((kv[..., :5], k), (kv[..., 5:], v)):
            want, ok = bilinear_oracle(fm, samples.uv)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
            np.testing.assert_array_equal(plan.valid, ok)
        reached_u |= bool(np.any(samples.uv[..., 0] == width - 1))
        reached_v |= bool(np.any(samples.uv[..., 1] == height - 1))
    # the clamp at w-2 / h-2, where the whole weight moves onto tap +1
    assert reached_u and reached_v


@pytest.mark.parametrize("axis", ["dominant", "width"])
def test_similarity_through_the_plan_matches_the_oracle_route(axis):
    rng = np.random.default_rng(3)
    f_tgt = FeatureMap(rng.standard_normal((12, 12, 4)))
    f_ref = FeatureMap(rng.standard_normal((12, 12, 4)))
    params = AttentionParams.seeded(4, 2, rng)
    ctx = project_context(f_ref, params)
    for samples in random_sample_sets(4, 4, 12, 12, axis):
        plan = BilinearPlan.build(samples.uv, 12, 12)
        logits, weights, v_samp, valid = epipolar_similarity(f_tgt, ctx, samples, params,
                                                             plan=plan)
        k_want, k_ok = bilinear_oracle(ctx.k, samples.uv)
        v_want, _ = bilinear_oracle(ctx.value, samples.uv)
        assert np.ascontiguousarray(v_samp).tobytes() == v_want.tobytes()
        np.testing.assert_array_equal(valid, samples.valid & k_ok)
        q = apply_linear(params.q_proj, f_tgt).flat().astype(np.float64).reshape(144, 2, 2)
        want = np.einsum("qhd,qshd->hqs", q, k_want.reshape(144, -1, 2, 2)) / np.sqrt(2)
        assert logits.tobytes() == want.tobytes()
        # the plan built inside gives the same bytes as the one passed in
        again = epipolar_similarity(f_tgt, ctx, samples, params)
        for a, b in zip((logits, weights, v_samp, valid), again):
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def test_four_tap_plan_matches_the_oracle_on_fractional_positions():
    rng = np.random.default_rng(9)
    fm = FeatureMap(rng.standard_normal((5, 7, 3)))
    uv = rng.uniform(-1.0, 8.0, (40, 6, 2))
    uv[0, 0] = (6.0, 4.0)      # both clamps at once
    uv[0, 1] = (6.0, 2.5)
    plan = BilinearPlan.build(uv, 7, 5)
    assert plan.index.shape[0] == 4 and plan.frac.shape[0] == 2
    got = plan.gather(fm.flat())
    want, ok = bilinear_oracle(fm, uv)
    assert got.shape == want.shape == (40, 6, 3)
    np.testing.assert_array_equal(plan.valid, ok)
    assert 0 < ok.sum() < ok.size
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.all(got[~ok] == 0.0)


def test_plan_rejects_a_grid_of_another_size():
    plan = BilinearPlan.build(np.zeros((3, 2)), 4, 4)
    with pytest.raises(ValueError):
        plan.gather(np.zeros((15, 2)))


def test_similarity_rejects_a_plan_of_another_sample_set():
    rng = np.random.default_rng(1)
    fm = FeatureMap(rng.standard_normal((6, 6, 2)))
    params = AttentionParams.identity(2)
    ctx = project_context(fm, params)
    samples = next(random_sample_sets(1, 1, 6, 6, "dominant"))
    with pytest.raises(ValueError):
        epipolar_similarity(fm, ctx, samples, params,
                            plan=BilinearPlan.build(samples.uv[:, :3], 6, 6))
