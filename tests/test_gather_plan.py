"""Bilinear tap plans against a frozen copy of the four-neighbor
bilinear sampler they replaced: byte-identical on epipolar sample grids
(two taps), within 1e-12 on arbitrary positions (four taps). The one-take
gather against a frozen copy of the per-tap gather it replaced:
byte-identical on both, in float64 and float32, with the blend weights a
plan keeps across gathers. The build against a frozen copy of the build
that assembled its taps from temporaries: byte-identical plans. Plans
gather from a channel-major (C, H*W) grid and return (C, *positions); the
oracles keep the row-major layout, so results are compared channel-last."""

import math
from dataclasses import replace

import numpy as np
import pytest

from epiview.attention import (
    AttentionParams,
    epipolar_attention,
    epipolar_logits,
    fuse,
    multi_view_aggregate,
    project_context,
)
from epiview.geometry import (
    CameraIntrinsics,
    EpipolarSampleSet,
    RelativePose,
    SphericalCamera,
    camera_on_sphere,
    epipolar_sample_grid,
    relative_pose,
)
from epiview.numerics import BilinearPlan, FeatureMap, apply_linear, masked_softmax
from test_attention import absorbed_bounds


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


def gather_oracle(plan: BilinearPlan, grid: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``BilinearPlan.gather`` as it was before the one take: a fresh array
    per tap, blended pairwise. Kept verbatim as the oracle, save that it
    computes in ``dtype`` (float64, its only precision then, by default)."""
    grid = np.asarray(grid, dtype=dtype)
    taps = [np.take(grid, i, axis=0) for i in plan.index]
    for f in plan.frac:
        f = f.astype(dtype, copy=False)[:, None]
        g = 1 - f
        for a, b in zip(taps[0::2], taps[1::2]):   # fresh arrays from take
            a *= g
            b *= f
            a += b
        taps = taps[0::2]
    out = taps[0]
    out[~plan.valid.ravel()] = 0.0
    return out.reshape(plan.valid.shape + grid.shape[1:])


def build_oracle(uv, width: int, height: int):
    """``BilinearPlan.build`` as it was before it wrote its taps and
    fractions straight into their final arrays: (index, frac, valid).
    Kept verbatim as the oracle."""
    def axis_taps(x, n):
        x0 = np.floor(x).astype(np.int64)
        x0 = np.minimum(x0, n - 2) if n > 1 else x0 * 0
        return x0, np.minimum(x0 + 1, n - 1), x - x0

    uv = np.asarray(uv, dtype=np.float64)
    u, v = uv[..., 0].ravel(), uv[..., 1].ravel()
    valid = (u >= 0.0) & (u <= width - 1) & (v >= 0.0) & (v <= height - 1)
    u = np.where(valid, u, 0.0)
    v = np.where(valid, v, 0.0)
    u0, u1, du = axis_taps(u, width)
    v0, v1, dv = axis_taps(v, height)
    u_int = (du == 0.0) | (du == 1.0)
    v_int = (dv == 0.0) | (dv == 1.0)
    if np.all(u_int | v_int):
        col = u.astype(np.int64)
        row = v.astype(np.int64)
        index = [np.where(u_int, v0 * width + col, row * width + u0),
                 np.where(u_int, v1 * width + col, row * width + u1)]
        frac = [np.where(u_int, dv, du)]
    else:
        index = [v0 * width + u0, v0 * width + u1, v1 * width + u0, v1 * width + u1]
        frac = [du, dv]
    return np.array(index, dtype=np.intp), np.array(frac), valid.reshape(uv.shape[:-1])


def random_sample_sets(seed: int, count: int, width: int, height: int):
    rng = np.random.default_rng(seed)
    K = CameraIntrinsics.from_fov(width, height)
    for _ in range(count):
        a, b = (SphericalCamera(rng.uniform(-10, 40), rng.uniform(0, 360), rng.uniform(1.8, 2.4))
                for _ in range(2))
        pose = relative_pose(camera_on_sphere(a), camera_on_sphere(b))
        yield epipolar_sample_grid(pose, K)


@pytest.mark.parametrize("width,height", [(32, 32), (11, 7)])
def test_two_tap_plan_is_byte_identical_on_sample_grids(width, height):
    rng = np.random.default_rng(width * height)
    reached_u = reached_v = False
    for samples in random_sample_sets(width + height, 12, width, height):
        k = FeatureMap(rng.standard_normal((height, width, 5)))
        v = FeatureMap(rng.standard_normal((height, width, 3)))
        plan = BilinearPlan.build(samples.uv, width, height)
        assert plan.index.shape[0] == 2 and plan.index.dtype == np.intp
        for field in ("index", "frac", "valid"):   # the set's own plan is this plan
            assert getattr(samples.plan, field).tobytes() == getattr(plan, field).tobytes()
        kv = np.moveaxis(plan.gather(np.concatenate([k.flat(), v.flat()], axis=1).T), 0, -1)
        for got, fm in ((kv[..., :5], k), (kv[..., 5:], v)):
            want, ok = bilinear_oracle(fm, samples.uv)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
            np.testing.assert_array_equal(plan.valid, ok)
        reached_u |= bool(np.any(samples.uv[..., 0] == width - 1))
        reached_v |= bool(np.any(samples.uv[..., 1] == height - 1))
    # the clamp at w-2 / h-2, where the whole weight moves onto tap +1
    assert reached_u and reached_v


def test_a_sample_sets_plan_is_slot_major_with_intp_indices():
    for samples in random_sample_sets(5, 3, 11, 7):
        s, n = samples.valid.shape
        query_major = BilinearPlan.build(samples.uv.swapaxes(0, 1), 11, 7)
        plan = samples.plan
        assert plan.index.dtype == np.intp and plan.index.flags.c_contiguous
        assert plan.index.shape == (2, s * n) and plan.valid.shape == (s, n)
        # position m = slot * N + query: the query-major plan's columns, swapped
        for got, want in ((plan.index, query_major.index), (plan.frac, query_major.frac)):
            assert got.tobytes() == np.ascontiguousarray(
                want.reshape(-1, n, s).swapaxes(1, 2)).tobytes()
        assert plan.valid.tobytes() == np.ascontiguousarray(query_major.valid.T).tobytes()


@pytest.mark.parametrize("block", ["identity", "seeded"])
def test_similarity_through_the_plan_matches_the_oracle_route(block):
    rng = np.random.default_rng(3)
    f_tgt = FeatureMap(rng.standard_normal((12, 12, 4)))
    f_ref = FeatureMap(rng.standard_normal((12, 12, 4)))
    params = AttentionParams.seeded(4, 2, rng)
    if block == "identity":
        params = replace(AttentionParams.identity(4), heads=2)
    ctx = project_context(f_ref, params)
    for samples in random_sample_sets(4, 4, 12, 12):
        # slot-major (h, S, N) logits and weights, (C, S, N) values, (S, N) mask
        logits = epipolar_logits(f_tgt, ctx, samples, params)
        weights = masked_softmax(logits.copy(), samples.valid)
        v_samp = samples.plan.gather(ctx.value.flat().T, dtype=params.dtype)
        valid = samples.valid
        k_want, k_ok = bilinear_oracle(ctx.k, samples.uv)
        v_want, _ = bilinear_oracle(ctx.value, samples.uv)
        assert v_samp.tobytes() == np.ascontiguousarray(v_want.transpose(2, 0, 1)).tobytes()
        np.testing.assert_array_equal(valid, samples.valid & k_ok)
        q = apply_linear(params.q_proj, f_tgt).flat().astype(np.float64).reshape(144, 2, 2)
        k = k_want.swapaxes(0, 1).reshape(144, -1, 2, 2)
        # the products of the route that gathered K, summed in head-channel
        # order, on the oracle's keys
        want = q[:, None, :, 0] * k[..., 0] + q[:, None, :, 1] * k[..., 1]
        want = np.moveaxis(want, (2, 1), (0, 1)) / np.sqrt(2)
        # an independent formula; BLAS may fuse multiply-adds differently
        independent = np.einsum("qhd,qshd->hsq", q, k) / np.sqrt(2)
        if block == "identity":
            # K is F: the absorbed query is the query, whose zero channels
            # of the other head add nothing
            assert logits.tobytes() == np.ascontiguousarray(want).tobytes()
            np.testing.assert_allclose(logits, independent, rtol=0, atol=1e-12)
        else:
            dl = absorbed_bounds(f_tgt, ctx, samples, params)[0]
            assert np.abs(logits - want).max() <= dl
            assert np.abs(logits - independent).max() <= dl + 1e-12
        # the set's own plan has the bytes of a plan built from its positions
        plan = BilinearPlan.build(samples.uv, 12, 12)
        for field in ("index", "frac", "valid"):
            assert getattr(samples.plan, field).tobytes() == getattr(plan, field).tobytes()
        assert (samples.plan.width, samples.plan.height) == (12, 12)
        # a second call reuses that plan and gives the same bytes
        kept = samples.plan
        again = epipolar_logits(f_tgt, ctx, samples, params)
        assert samples.plan is kept
        assert again.tobytes() == logits.tobytes()
        assert masked_softmax(again, valid).tobytes() == weights.tobytes()
        assert samples.plan.gather(ctx.value.flat().T).tobytes() == v_samp.tobytes()


def test_four_tap_plan_matches_the_oracle_on_fractional_positions():
    rng = np.random.default_rng(9)
    fm = FeatureMap(rng.standard_normal((5, 7, 3)))
    uv = rng.uniform(-1.0, 8.0, (40, 6, 2))
    uv[0, 0] = (6.0, 4.0)      # both clamps at once
    uv[0, 1] = (6.0, 2.5)
    plan = BilinearPlan.build(uv, 7, 5)
    assert plan.index.shape[0] == 4 and plan.frac.shape[0] == 2
    got = np.moveaxis(plan.gather(fm.flat().T), 0, -1)
    want, ok = bilinear_oracle(fm, uv)
    assert got.shape == want.shape == (40, 6, 3)
    np.testing.assert_array_equal(plan.valid, ok)
    assert 0 < ok.sum() < ok.size
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.all(got[~ok] == 0.0)


def test_plan_rejects_a_grid_of_another_size():
    plan = BilinearPlan.build(np.zeros((3, 2)), 4, 4)
    with pytest.raises(ValueError):
        plan.gather(np.zeros((2, 15)))


def test_similarity_rejects_a_sample_set_of_another_grid():
    rng = np.random.default_rng(1)
    fm = FeatureMap(rng.standard_normal((6, 6, 2)))
    params = AttentionParams.identity(2)
    ctx = project_context(fm, params)
    on_grid = next(random_sample_sets(1, 1, 6, 6))
    # one column per query of the 6x6 target, but labelled for an 8x8 grid
    samples = EpipolarSampleSet(uv=on_grid.uv, valid=on_grid.valid, width=8, height=8)
    assert samples.uv.shape[1:2] == (36,)
    with pytest.raises(ValueError, match="context grid"):
        epipolar_logits(fm, ctx, samples, params)


@pytest.mark.parametrize("width,height", [(8, 8), (4, 9)])
def test_attention_rejects_a_set_from_intrinsics_of_another_grid(width, height):
    """A 6x6 stage given the set of other intrinsics: 8x8 has other query
    counts, and 4x9 has the 36 queries of 6x6 but another context grid."""
    rng = np.random.default_rng(width)
    fm = FeatureMap(rng.standard_normal((6, 6, 2)))
    params = AttentionParams.identity(2)
    ctx = project_context(fm, params)
    samples = next(random_sample_sets(2, 1, width, height))
    with pytest.raises(ValueError, match="grid"):
        epipolar_attention(fm, ctx, samples, params)


@pytest.mark.parametrize("taps", [2, 4])
def test_one_take_gather_is_byte_identical_to_the_per_tap_gather(taps):
    rng = np.random.default_rng(taps)
    width, height = 9, 6
    uv = rng.uniform(-2.0, 10.0, (50, 7, 2))
    if taps == 2:   # one integral coordinate per position, as on sample grids
        on_u = rng.random((50, 7)) < 0.5
        uv[..., 0] = np.where(on_u, np.round(uv[..., 0]), uv[..., 0])
        uv[..., 1] = np.where(on_u, uv[..., 1], np.round(uv[..., 1]))
    uv[0, :3] = [(width - 1, 2.5), (3.5, height - 1), (width - 1, height - 1)]   # clamps
    plan = BilinearPlan.build(uv, width, height)
    assert plan.index.shape[0] == taps
    assert 0 < plan.valid.sum() < plan.valid.size   # out-of-grid positions included
    grid = rng.standard_normal((width * height, 5))
    kept = grid.copy()
    got = np.moveaxis(plan.gather(grid.T), 0, -1)
    assert grid.tobytes() == kept.tobytes()   # the input grid is not written
    want = gather_oracle(plan, grid)
    assert got.shape == want.shape == (50, 7, 5)
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("width,height", [(32, 32), (11, 7), (1, 6), (6, 1), (1, 1)])
def test_build_is_byte_identical_to_the_old_build(width, height):
    rng = np.random.default_rng(width * 10 + height)
    cases = []
    for samples in random_sample_sets(width + 7 * height, 6, width, height):
        cases += [samples.uv, samples.uv.swapaxes(0, 1)]   # slot-major, query-major
    for _ in range(6):
        uv = rng.uniform(-2.0, max(width, height) + 1.0, (30, 4, 2))
        uv[0] = [(width - 1, height - 1), (np.nan, 0.5), (-0.0, 0.0), (np.inf, 0.0)]
        on_u = rng.random((30, 4)) < 0.5   # one integral coordinate: two taps
        two = uv.copy()
        two[..., 0] = np.where(on_u, np.round(uv[..., 0]), uv[..., 0])
        two[..., 1] = np.where(on_u, uv[..., 1], np.round(uv[..., 1]))
        cases += [uv, two]
    cases += [np.zeros((0, 2)), np.array([-0.0, 0.0])]
    for uv in cases:
        plan = BilinearPlan.build(uv, width, height)
        for got, want in zip((plan.index, plan.frac, plan.valid), build_oracle(uv, width, height)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def cached_plan_cases():
    """(name, plan, in_grid): a plan of an epipolar set, a four-tap plan,
    and a two-tap plan with positions off the grid."""
    rng = np.random.default_rng(21)
    yield "epipolar", next(random_sample_sets(21, 1, 12, 10)).plan, True
    uv = rng.uniform(0.0, 9.0, (60, 5, 2))
    yield "four-tap", BilinearPlan.build(uv, 12, 10), True
    uv[..., 0] = np.round(uv[..., 0])
    uv[:4, 0] = [(-1.0, 2.5), (3.0, 9.5), (12.0, 0.5), (np.nan, 1.0)]
    yield "off-grid", BilinearPlan.build(uv, 12, 10), False


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cached_gather_matches_the_per_tap_gather(dtype):
    """A plan keeps its blend weights and its in-grid flag across gathers;
    every gather keeps the bytes of the per-tap oracle in that dtype."""
    rng = np.random.default_rng(22)
    for name, plan, in_grid in cached_plan_cases():
        assert plan.in_grid is in_grid, name
        assert plan.index.shape[0] == (4 if name == "four-tap" else 2), name
        for _ in range(2):   # the second gather reads the weights the first one made
            grid = rng.standard_normal((120, 3))
            got = np.moveaxis(plan.gather(grid.T, dtype=dtype), 0, -1)
            want = gather_oracle(plan, grid, dtype)
            assert got.dtype == want.dtype == dtype, name
            assert np.ascontiguousarray(got).tobytes() == want.tobytes(), name
        if not in_grid:
            assert np.all(got[~plan.valid] == 0.0)


def test_a_plan_and_a_sets_masks_are_read_only():
    samples = next(random_sample_sets(23, 1, 9, 8))
    plan = samples.plan
    grid = np.ones((2, 72))
    plan.gather(grid)
    plan.gather(grid, dtype=np.float32)
    blends = [w for pairs in plan._blends.values() for pair in pairs for w in pair]
    assert len(blends) == 4   # (1 - f, f) in float64 and in float32
    for a in [plan.index, plan.frac, plan.valid, samples.valid, samples.contributed,
              *blends]:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_a_plan_rejects_an_index_off_its_grid():
    frac, valid = np.zeros((1, 3)), np.ones(3, dtype=bool)
    BilinearPlan(index=np.array([[0, 5, 11], [1, 6, 11]]), frac=frac, valid=valid,
                 width=4, height=3)
    for bad in (-1, 12):
        with pytest.raises(ValueError, match="4x3 grid"):
            BilinearPlan(index=np.array([[0, 5, bad], [1, 6, 11]]), frac=frac, valid=valid,
                         width=4, height=3)


def test_a_sets_masks_are_the_expressions_they_replace():
    for samples in random_sample_sets(24, 4, 11, 7):
        valid = samples.valid & samples.plan.valid
        assert samples.valid.tobytes() == valid.tobytes()
        assert samples.valid.shape == valid.shape == samples.uv.shape[:2]
        assert samples.contributed.tobytes() == valid.any(axis=0).tobytes()
        assert samples.contributed is samples.contributed   # built once, then kept


@pytest.mark.parametrize("width,height", [(16, 16), (2, 2), (11, 7), (5, 13), (39, 20),
                                          (1, 9), (9, 1), (1, 1)])
def test_every_set_of_the_kernel_lies_on_its_grid(width, height):
    """The kernel clamps every valid slot onto the grid, so a set's fold of
    its plan's in-grid mask clears nothing on a program path: at random
    poses, at a zero baseline, and for the full grid."""
    rng = np.random.default_rng(width * 40 + height)
    K = CameraIntrinsics.from_fov(width, height)
    sets = [EpipolarSampleSet.full_grid(width, height, width * height),
            epipolar_sample_grid(RelativePose(np.eye(3), np.zeros(3)), K)]
    for _ in range(25):
        a, b = (SphericalCamera(rng.uniform(-90, 90), rng.uniform(0, 360), rng.uniform(1.1, 20))
                for _ in range(2))
        sets.append(epipolar_sample_grid(relative_pose(camera_on_sphere(a), camera_on_sphere(b)),
                                         K))
    for samples in sets:
        assert samples.plan.in_grid
        assert samples.uv.shape[:2] == samples.valid.shape == samples.plan.valid.shape
    assert any(s.valid.any() for s in sets[2:])   # the poses' sets read some slots


def oracle_two_mask_attention(f_tgt, ctx, uv, valid, params):
    """Epipolar retrieval as it was when a set kept the query-major ``uv``
    (N, S, 2) and ``valid`` (N, S) it was given and retrieval read the
    second mask ``valid.T & plan.valid``: the core's steps, inlined. Kept
    as the oracle. Returns (output map, contributed (H, W))."""
    plan = BilinearPlan.build(uv.swapaxes(0, 1), ctx.k.width, ctx.k.height)
    mask = valid.T & plan.valid
    n = f_tgt.height * f_tgt.width
    q = np.ascontiguousarray(apply_linear(params.q_proj, f_tgt).flat().T, dtype=params.dtype)
    q = q.reshape(params.heads, -1, 1, n)
    k = plan.gather(ctx.k.flat().T, dtype=params.dtype)
    k = k.reshape(params.heads, -1, *k.shape[1:])
    k *= q
    logits = k.sum(axis=1)
    logits /= math.sqrt(q.shape[1])
    weights = masked_softmax(logits, mask)
    v = plan.gather(ctx.value.flat().T, dtype=params.dtype)
    v = v.reshape(params.heads, -1, *v.shape[1:])
    v *= weights[:, None]
    mixed = v.sum(axis=2).swapaxes(1, 2)
    out = np.moveaxis(mixed, 0, -2).reshape(-1, f_tgt.width, params.out_proj.in_dim)
    fm = apply_linear(params.out_proj, FeatureMap(out))
    return fm, mask.any(axis=0).reshape(f_tgt.height, f_tgt.width)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", range(6))
def test_a_set_clears_its_off_grid_slots_and_retrieves_as_the_two_masks_did(seed, dtype):
    """Byte-equal to the two-mask oracle under identity projections, where
    sampling F is sampling K and V; within the one-gather route's bound of
    it under seeded blocks, which it absorbs into the query and the mix."""
    rng = np.random.default_rng(30 + seed)
    w, h, c = 7, 5, 4
    uv = rng.uniform(-1.0, w, (h * w, 6, 2))   # query-major, four taps, some off the grid
    given = rng.random((h * w, 6)) > 0.2
    samples = EpipolarSampleSet(uv=uv.swapaxes(0, 1), valid=given.T, width=w, height=h)
    on_grid = (uv[..., 0] >= 0) & (uv[..., 0] <= w - 1) & (uv[..., 1] >= 0) & (uv[..., 1] <= h - 1)
    assert np.any(given & ~on_grid)   # valid slots off the grid, which the set clears
    assert samples.valid.tobytes() == np.ascontiguousarray((given & on_grid).T).tobytes()
    assert not samples.valid.flags.writeable
    seeded = replace(AttentionParams.seeded(c, 2, rng), dtype=dtype)
    f_tgt = FeatureMap(rng.standard_normal((h, w, c)))
    f_ref = FeatureMap(rng.standard_normal((h, w, c)))
    for params in (replace(AttentionParams.identity(c), heads=2, dtype=dtype), seeded):
        ctx = project_context(f_ref, params)
        fm, contributed = epipolar_attention(f_tgt, ctx, samples, params)
        want_fm, want_contributed = oracle_two_mask_attention(f_tgt, ctx, uv, given, params)
        if params is seeded:
            bound = absorbed_bounds(f_tgt, ctx, samples, params)[3]
            bound += 2 * 2.0 ** -24 * np.abs(want_fm.data).max()
            assert np.abs(fm.data.astype(np.float64) - want_fm.data).max() <= bound
        else:
            assert fm.data.tobytes() == want_fm.data.tobytes()
        assert contributed.tobytes() == want_contributed.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_attention_repeats_on_one_set_and_its_mask_stays_unwritten(dtype):
    rng = np.random.default_rng(25)
    f_tgt = FeatureMap(rng.standard_normal((7, 11, 4)))
    params = replace(AttentionParams.seeded(4, 2, rng), dtype=dtype)
    ctx = project_context(FeatureMap(rng.standard_normal((7, 11, 4))), params)
    samples = next(random_sample_sets(25, 1, 11, 7))
    first, mask = epipolar_attention(f_tgt, ctx, samples, params)
    kept = mask.tobytes()
    again, mask_again = epipolar_attention(f_tgt, ctx, samples, params)
    assert first.data.tobytes() == again.data.tobytes()
    assert mask_again.tobytes() == kept and 0 < mask.sum() < mask.size
    assert not mask.flags.writeable
    agg, contributed = multi_view_aggregate([(first, mask), (again, mask_again)])
    fuse(f_tgt, agg, contributed, 0.5)
    fuse(f_tgt, first, mask, 0.5)
    assert mask.tobytes() == kept and samples.contributed.tobytes() == kept
