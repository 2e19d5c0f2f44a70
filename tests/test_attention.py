"""Attention blocks: self attention, parameter duplication, epipolar and
full cross attention, fusion, and multi-view aggregation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from epiview.attention import (
    AttentionCounters,
    AttentionParams,
    duplicate_params,
    epipolar_attention,
    epipolar_logits,
    full_cross_attention,
    full_logits,
    fuse,
    multi_view_aggregate,
    project_context,
    self_attention,
)
from epiview.geometry import (
    CameraIntrinsics,
    EpipolarSampleSet,
    SphericalCamera,
    camera_on_sphere,
    epipolar_sample_grid,
    relative_pose,
)
from epiview.numerics import BilinearPlan, FeatureMap, LinearMap, apply_linear, masked_softmax


def naive_self_attention(fm, params):
    """O(N^2) double-loop reference in float64."""
    h, w = fm.height, fm.width
    n, heads, hd = h * w, params.heads, params.q_proj.out_dim // params.heads
    flat = fm.flat().astype(np.float64)
    q = flat @ params.q_proj.weight.T.astype(np.float64) + params.q_proj.bias
    k = flat @ params.k_proj.weight.T.astype(np.float64) + params.k_proj.bias
    v = flat @ params.v_proj.weight.T.astype(np.float64) + params.v_proj.bias
    out = np.zeros((n, heads * hd))
    for i in range(n):
        for hh in range(heads):
            qi = q[i, hh * hd:(hh + 1) * hd]
            logits = np.array([qi @ k[j, hh * hd:(hh + 1) * hd] for j in range(n)])
            logits /= np.sqrt(hd)
            e = np.exp(logits - logits.max())
            wgt = e / e.sum()
            out[i, hh * hd:(hh + 1) * hd] = sum(
                wgt[j] * v[j, hh * hd:(hh + 1) * hd] for j in range(n))
    out = out @ params.out_proj.weight.T.astype(np.float64) + params.out_proj.bias
    return out.reshape(h, w, -1)


class TestSelfAttention:
    def test_single_position(self):
        rng = np.random.default_rng(0)
        fm = FeatureMap(rng.standard_normal((1, 1, 6)))
        params = AttentionParams.seeded(6, 2, rng)
        out = self_attention(fm, params)
        want = apply_linear(params.out_proj, apply_linear(params.v_proj, fm))
        np.testing.assert_allclose(out.data, want.data, atol=1e-6)

    def test_constant_map_stays_constant(self):
        rng = np.random.default_rng(1)
        fm = FeatureMap(np.broadcast_to(rng.standard_normal(4), (5, 5, 4)).copy())
        out = self_attention(fm, AttentionParams.seeded(4, 2, rng))
        want = np.broadcast_to(out.data[0, 0], out.data.shape)
        np.testing.assert_allclose(out.data, want, atol=1e-5)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        fm = FeatureMap(rng.standard_normal((4, 4, 8)))
        params = AttentionParams.seeded(8, 2, rng)
        out = self_attention(fm, params)
        np.testing.assert_allclose(out.data, naive_self_attention(fm, params), atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            self_attention(FeatureMap(np.zeros((2, 2, 3))),
                           AttentionParams.identity(4))


class TestDuplicateParams:
    def test_value_identical(self):
        src = AttentionParams.seeded(8, 2, np.random.default_rng(3))
        dup = duplicate_params(src)
        for name in ("q_proj", "k_proj", "v_proj", "out_proj"):
            np.testing.assert_array_equal(getattr(dup, name).weight,
                                          getattr(src, name).weight)
            np.testing.assert_array_equal(getattr(dup, name).bias,
                                          getattr(src, name).bias)
        assert dup.heads == src.heads

    def test_mutation_isolated(self):
        src = AttentionParams.seeded(4, 1, np.random.default_rng(4))
        dup = duplicate_params(src)
        before = src.q_proj.weight.copy()
        dup.q_proj.weight[0, 0] += 100.0
        np.testing.assert_array_equal(src.q_proj.weight, before)


class TestBlockPrecision:
    def test_default_is_float64_and_duplicates_keep_it(self):
        params = AttentionParams.seeded(4, 2, np.random.default_rng(3))
        assert params.dtype == np.float64
        assert duplicate_params(replace(params, dtype=np.float32)).dtype == np.float32

    def test_only_float32_and_float64(self):
        with pytest.raises(ValueError, match="float16"):
            replace(AttentionParams.identity(4), dtype=np.float16)


def reach(lin, f: FeatureMap) -> float:
    """|W|_inf max|f| + max|b|: a bound on every entry of ``lin`` applied
    to a map whose entries are at most those of ``f``, and on the sum of
    its entry-wise errors carried through W when each is at most max|f|."""
    b = 0.0 if lin.bias is None else float(np.abs(lin.bias).max())
    return float(np.abs(lin.weight.astype(np.float64)).sum(axis=1).max()
                 * np.abs(f.data).max()) + b


def logit_reach(f_tgt, ctx, params) -> float:
    """A bound P on sqrt(d) times every logit and on the sum of the
    magnitudes of the products that make it, in either route: max over
    queries and heads of the absorbed query's sum_c |qa_c| max|F| + |q·b_k|
    (the route that samples F) and of |q|_1 max|K| (a route that samples
    the stored keys)."""
    d = params.q_proj.out_dim // params.heads
    q = apply_linear(params.q_proj, f_tgt).flat().astype(np.float64)
    q = q.reshape(-1, params.heads, d)                                       # (N, h, d)
    w_k = params.k_proj.weight.astype(np.float64).reshape(params.heads, d, -1)
    bias = (np.zeros(params.k_proj.out_dim) if params.k_proj.bias is None
            else params.k_proj.bias.astype(np.float64))
    absorbed = (np.abs(np.einsum("nhd,hdc->nhc", q, w_k)).sum(axis=-1) * np.abs(ctx.f.data).max()
                + np.abs(np.einsum("nhd,hd->nh", q, bias.reshape(params.heads, d))))
    keyed = np.abs(q).sum(axis=-1) * np.abs(ctx.k.data).max()
    return float(max(absorbed.max(), keyed.max()))


class TestFloat32RouteDualRoute:
    """The float32 route of the core against its float64 reference route,
    on the same float32 features and projections. Both routes round the
    mixed values to a float32 map before the float64 output projection.

    Epipolar retrieval samples the raw map F once, absorbs the key
    projection into the query, ``qa = W_kᵀ q``, and applies the value
    projection to the mix, ``W_v (Σ w F) + b_v Σ w``; full attention reads
    the stored keys and values. With u = 2**-24 the float32 unit
    roundoff, C the channels, d the head width, S the keys per query
    (samples, or every context position), P = :func:`logit_reach`, V the
    largest value entry, R_v = :func:`reach` of the value projection over
    F, and W the largest absolute row sum of the output projection:
    - a logit differs by at most dl = (C + 15) u P / sqrt(d): C roundings
      in the float32 dot product over the C channels of the absorbed
      query (full attention sums d <= C products of its keys), one in
      rounding qa to float32, at most 8 u per entry in the float32
      bilinear blend of F (4 u a lerp, two lerps for four taps), one in
      adding q·b_k, one in the scaling, 2 when the row peak is subtracted,
      and one for the float32 keys that full attention reads;
    - so the weights of a query, which sum to 1, differ by at most
      expm1(2 dl) + (S + 4) u in l1 (exp, sum and divide in float32),
      which moves the mix by V times that;
    - the float32 mix of F (or of the values) and of the weights for b_v
      adds S u R_v, the blend of F 8 u R_v, each route's float32 map of the
      mix u V, and full attention's float32 values u V;
    - the output projection multiplies by W, and the two float32 outputs
      each round once more (u of the largest output).
    Together: |out32 - out64| <= W (V (expm1(2 dl) + (S + 7) u)
    + R_v (S + 8) u) + 2 u max|out64|.
    """

    @staticmethod
    def bound(f_tgt, ctx, params, keys, out64):
        u = np.finfo(np.float32).eps / 2
        c, d = ctx.f.channels, params.q_proj.out_dim // params.heads
        dl = (c + 15) * u * logit_reach(f_tgt, ctx, params) / math.sqrt(d)
        v_max = np.abs(ctx.value.data).max()
        w_row = np.abs(params.out_proj.weight.astype(np.float64)).sum(axis=1).max()
        return (w_row * (v_max * (math.expm1(2 * dl) + (keys + 7) * u)
                         + reach(params.v_proj, ctx.f) * (keys + 8) * u)
                + 2 * u * np.abs(out64).max())

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("mode", ["epipolar", "epipolar-4tap", "full"])
    def test_float32_within_the_derived_bound(self, mode, heads):
        rng = np.random.default_rng(70 + heads)
        h = w = 12
        c = 8
        f_tgt = FeatureMap(rng.standard_normal((h, w, c)))
        params64 = AttentionParams.seeded(c, heads, rng)
        params32 = replace(params64, dtype=np.float32)
        ctx = project_context(FeatureMap(rng.standard_normal((h, w, c))), params64)
        if mode == "full":
            def run(params):
                return full_cross_attention(f_tgt, [ctx], params)[0][0].data
            keys = h * w
        else:
            if mode == "epipolar":   # a real camera pair: two taps per sample
                K = CameraIntrinsics.from_fov(w, h)
                pose = relative_pose(camera_on_sphere(SphericalCamera(20.0, 0.0, 2.0)),
                                     camera_on_sphere(SphericalCamera(35.0, 40.0, 2.0)))
                samples = epipolar_sample_grid(pose, K)
            else:                    # fractional in both axes: four taps per sample
                samples = EpipolarSampleSet(
                    uv=rng.uniform(-0.5, w - 0.5, (h * w, 9, 2)).swapaxes(0, 1),
                    valid=(rng.random((h * w, 9)) > 0.2).T, width=w, height=h)
            assert samples.plan.index.shape[0] == (2 if mode == "epipolar" else 4)

            def run(params):
                return epipolar_attention(f_tgt, ctx, samples, params)[0].data
            keys = samples.uv.shape[0]
        out64, out32 = run(params64), run(params32)
        bound = self.bound(f_tgt, ctx, params64, keys, out64)
        err = np.abs(out32.astype(np.float64) - out64).max()
        assert 0 < err <= bound
        assert bound < 1e-3 * np.abs(out64).max()   # and the bound is far below the outputs


def query_major_softmax(logits, mask):
    """The softmax over the last axis that the query-major oracles take:
    the key-axis softmax of the swapped view of a copy of ``logits``."""
    weights = masked_softmax(np.array(logits).swapaxes(-1, -2),
                             None if mask is None else np.swapaxes(mask, -1, -2))
    return weights.swapaxes(-1, -2)


def oracle_row_major_gather(plan, grid, dtype):
    """``BilinearPlan.gather`` as it was before plans were slot-major: a
    row-major (H*W, C) grid in, (*positions, C) out. Kept verbatim as the
    oracle."""
    grid = np.asarray(grid, dtype=dtype)
    taps = np.take(grid, plan.index, axis=0)
    for f in plan.frac:
        f = f.astype(dtype, copy=False)[:, None]
        a, b = taps[0::2], taps[1::2]
        a *= 1 - f
        b *= f
        a += b
        taps = a
    out = taps[0]
    out[~plan.valid.ravel()] = 0.0
    return out.reshape(plan.valid.shape + grid.shape[1:])


def oracle_query_major_attention(f_tgt, ctx, samples, params):
    """Epipolar retrieval, its similarities and its attention output, as
    it was before it was slot-major, with the core's helpers inlined: a
    query-major plan, one (1, d) @ (d, S) product per (head, query) for
    the logits and for the value mix, and the softmax over the last axis.
    Kept as the oracle. Returns (logits (h, N, S), weights, sampled values
    (N, S, C), valid (N, S), mixed values (h, N, d), output map, contributed)."""
    def heads_major(x):
        x = np.asarray(x, dtype=params.dtype)
        return np.moveaxis(x.reshape(x.shape[:-1] + (params.heads, -1)), -2, 0)

    plan = BilinearPlan.build(samples.uv.swapaxes(0, 1), samples.width, samples.height)
    q = heads_major(apply_linear(params.q_proj, f_tgt).flat())
    c = ctx.k.channels
    kv_samp = oracle_row_major_gather(
        plan, np.concatenate([ctx.k.flat(), ctx.value.flat()], axis=1), params.dtype)
    valid = samples.valid.T & plan.valid
    logits = q[:, :, None] @ np.swapaxes(heads_major(kv_samp[..., :c]), -1, -2)
    logits /= math.sqrt(q.shape[-1])
    weights = query_major_softmax(logits, valid[None, :, None])
    v_samp = kv_samp[..., c:]
    mixed = (weights @ heads_major(v_samp))[:, :, 0]
    out = np.moveaxis(mixed, 0, -2).reshape(f_tgt.height, f_tgt.width, -1)
    fm = apply_linear(params.out_proj, FeatureMap(out))
    return (logits[:, :, 0], weights[:, :, 0], v_samp, valid, mixed, fm,
            valid.any(axis=1).reshape(f_tgt.height, f_tgt.width))


def oracle_gather_heads(plan, fm, params):
    """A map sampled through a slot-major plan, heads-major: (h, d, S, N)."""
    x = plan.gather(fm.flat().T, dtype=params.dtype)
    return x.reshape(params.heads, -1, *x.shape[1:])


def oracle_two_gather_logits(f_tgt, ctx, samples, params):
    """``epipolar_logits`` as it was when retrieval gathered the key map K
    and the value map V each through the set's plan: the sampled keys
    (h, d, S, N) multiplied in place by the channel-major query and summed
    in head-channel order, then scaled. Kept verbatim as the oracle."""
    n = f_tgt.height * f_tgt.width
    q = np.ascontiguousarray(apply_linear(params.q_proj, f_tgt).flat().T, dtype=params.dtype)
    q = q.reshape(params.heads, -1, 1, n)                                        # (h, d, 1, N)
    k = oracle_gather_heads(samples.plan, ctx.k, params)
    k *= q
    logits = k.sum(axis=1)
    del k
    logits /= math.sqrt(q.shape[1])
    return logits


def oracle_two_gather_attention(f_tgt, ctx, samples, params):
    """``epipolar_attention`` as it was with a gather of K and one of V.
    Kept verbatim as the oracle. Returns (output map, contributed (H, W),
    logits (h, S, N), weights, mixed values (h, N, d))."""
    logits = oracle_two_gather_logits(f_tgt, ctx, samples, params)
    weights = masked_softmax(logits.copy(), samples.valid)
    v = oracle_gather_heads(samples.plan, ctx.value, params)
    v *= weights[:, None]
    mixed = v.sum(axis=2).swapaxes(1, 2)
    out = np.moveaxis(mixed, 0, -2).reshape(-1, f_tgt.width, params.out_proj.in_dim)
    fm = apply_linear(params.out_proj, FeatureMap(out))
    return fm, samples.contributed.reshape(f_tgt.height, f_tgt.width), logits, weights, mixed


def absorbed_bounds(f_tgt, ctx, samples, params):
    """How far the one-gather route may lie from a route that samples the
    stored K and V maps (the two-gather or the query-major oracle), on the
    same block and sample set, each in the block's dtype (unit roundoff u).

    Bilinear weights sum to 1, so sampling commutes with the affine
    projections and both routes compute the same exact logits and mix; the
    oracle samples K = W_k F + b_k and V = W_v F + b_v, stored as float32
    maps, where the route samples F and applies W_k to the query and W_v
    to the mix. With C the channels, d the head width, S the slots per
    query, L the lerps of the plan (1 for two taps, 2 for four), e and u32
    the float64 and float32 unit roundoffs, s = u32 + (C + 1) e the
    rounding of a float32 map projected in float64, P =
    :func:`logit_reach`, V the largest value entry, R_v = :func:`reach` of
    the value projection over F, and W the largest absolute row sum of the
    output projection:
    - at an in-grid slot, a logit differs by at most dl = ((C + 3 d + 8 L
      + 8) u + s) P / sqrt(d): the route rounds qa = W_kᵀ q (d + 1), blends
      F (4 L), sums C channel products (C), adds q·b_k (d + 1) and scales
      (1); the oracle reads K's rounding (s), blends K (4 L), sums d
      products (d) and scales (1); each subtracts its row peak (2);
    - so the weights of a query, which sum to 1, differ by at most dw =
      expm1(2 dl) + 2 (S + 4) u in l1, which moves the mix by V dw;
    - the route blends F (4 L u R_v), sums S products for the mix and for
      Σw (S u R_v), applies W_v and b_v in float64 (C + 2) e R_v; the
      oracle reads V's rounding (s V), blends V (4 L u V) and sums S
      products (S u V); each stores its mix as a float32 map (u32 V): the
      mix differs by at most dm = V (dw + (S + 4 L) u + s + 2 u32) + R_v
      ((S + 4 L) u + (C + 2) e);
    - the float64 output projection multiplies by W and adds 2 (C + 1) e W V
      of its own rounding; each float32 output rounds once more.
    An off-grid slot is masked in both routes, where the oracle's logit is
    0 and the route's is q·b_k. Returns (dl, dw, dm, the output bound less
    2 u32 max|out|).
    """
    u, e, u32 = (np.finfo(params.dtype).eps / 2, np.finfo(np.float64).eps / 2,
                 np.finfo(np.float32).eps / 2)
    c, d = ctx.f.channels, params.q_proj.out_dim // params.heads
    slots, lerps = samples.uv.shape[0], samples.plan.frac.shape[0]
    store = u32 + (c + 1) * e
    dl = ((c + 3 * d + 8 * lerps + 8) * u + store) * logit_reach(f_tgt, ctx, params) / math.sqrt(d)
    dw = math.expm1(2 * dl) + 2 * (slots + 4) * u
    v_max, r_v = np.abs(ctx.value.data).max(), reach(params.v_proj, ctx.f)
    dm = (v_max * (dw + (slots + 4 * lerps) * u + store + 2 * u32)
          + r_v * ((slots + 4 * lerps) * u + (c + 2) * e))
    w_row = np.abs(params.out_proj.weight.astype(np.float64)).sum(axis=1).max()
    return dl, dw, dm, w_row * (dm + 2 * (c + 1) * e * v_max)


def sample_set(case, rng, w, h):
    """A sample set on a w x h grid: a real camera pair's (two taps, every
    slot on the grid), random positions with an integral u (two taps) or
    none (four taps), some of them off the grid."""
    if case == "camera-pair":
        K = CameraIntrinsics.from_fov(w, h)
        a, b = (SphericalCamera(rng.uniform(-10, 40), rng.uniform(0, 360), 2.0)
                for _ in range(2))
        return epipolar_sample_grid(relative_pose(camera_on_sphere(a), camera_on_sphere(b)), K)
    uv = rng.uniform(-1.0, w, (h * w, 9, 2))
    if case == "two-tap":
        uv[..., 0] = rng.integers(-1, w + 1, uv.shape[:2])
    return EpipolarSampleSet(uv=uv.swapaxes(0, 1), valid=(rng.random((h * w, 9)) > 0.2).T,
                             width=w, height=h)


@pytest.fixture
def gathers(monkeypatch):
    """A copy of every map a ``BilinearPlan`` gathers from, and of what it
    returns, in call order."""
    seen = []
    gather = BilinearPlan.gather

    def recording(plan, grid, *args, **kwargs):
        out = gather(plan, grid, *args, **kwargs)
        seen.append((np.array(grid), out.copy()))
        return out

    monkeypatch.setattr(BilinearPlan, "gather", recording)
    return seen


class TestOneGatherDualRoute:
    """Epipolar retrieval, which samples the raw map F once and absorbs the
    block's key and value projections into the query and the mix, against
    a frozen copy of the route that gathered K and V: byte-equal under
    identity projections, where the samples of F, K and V have the same
    bytes, and within :func:`absorbed_bounds` under seeded blocks, whose
    key and value projections have biases."""

    CASES = ["camera-pair", "two-tap", "four-tap"]

    @staticmethod
    def inputs(case, heads, dtype, seeded, seed):
        rng = np.random.default_rng(seed)
        w, h, c = 12, 10, 8
        samples = sample_set(case, rng, w, h)
        assert samples.plan.index.shape[0] == (4 if case == "four-tap" else 2)
        assert samples.plan.in_grid == (case == "camera-pair")
        params = (AttentionParams.seeded(c, heads, rng) if seeded
                  else replace(AttentionParams.identity(c), heads=heads))
        params = replace(params, dtype=dtype)
        f_tgt = FeatureMap(rng.standard_normal((h, w, c)))
        ctx = project_context(FeatureMap(rng.standard_normal((h, w, c))), params)
        return f_tgt, ctx, samples, params

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("case", CASES)
    def test_identity_projections_are_byte_equal(self, case, heads, dtype, gathers):
        f_tgt, ctx, samples, params = self.inputs(case, heads, dtype, False, 100 + heads)
        want_fm, want_contributed, want_logits, _, _ = oracle_two_gather_attention(
            f_tgt, ctx, samples, params)
        gathers.clear()
        fm, contributed = epipolar_attention(f_tgt, ctx, samples, params)
        assert len(gathers) == 1 and gathers[0][0].tobytes() == ctx.f.flat().T.tobytes()
        assert fm.data.tobytes() == want_fm.data.tobytes()
        assert contributed.tobytes() == want_contributed.tobytes()
        in_grid = samples.plan.valid
        logits = epipolar_logits(f_tgt, ctx, samples, params)
        assert logits[:, in_grid].tobytes() == want_logits[:, in_grid].tobytes()
        assert 0 < samples.valid.sum() < samples.valid.size

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("case", CASES)
    def test_seeded_blocks_within_the_derived_bound(self, case, heads, dtype, monkeypatch):
        import epiview.attention as attention
        merged = []
        merge = attention._merge

        def recording(mixed, *args):
            merged.append(np.array(mixed))
            return merge(mixed, *args)

        monkeypatch.setattr(attention, "_merge", recording)
        f_tgt, ctx, samples, params = self.inputs(case, heads, dtype, True, 110 + heads)
        assert params.k_proj.bias is not None and params.v_proj.bias is not None
        want_fm, want_contributed, want_logits, want_weights, want_mixed = \
            oracle_two_gather_attention(f_tgt, ctx, samples, params)
        fm, contributed = epipolar_attention(f_tgt, ctx, samples, params)
        logits = epipolar_logits(f_tgt, ctx, samples, params)
        weights = masked_softmax(logits.copy(), samples.valid)
        dl, dw, dm, out_bound = absorbed_bounds(f_tgt, ctx, samples, params)
        in_grid = samples.plan.valid
        assert np.abs(logits - want_logits)[:, in_grid].max() <= dl
        assert np.abs(weights - want_weights).sum(axis=1).max() <= dw
        assert np.abs(merged[-1] - want_mixed).max() <= dm
        err = np.abs(fm.data.astype(np.float64) - want_fm.data).max()
        assert 0 < err <= out_bound + 2 * 2.0 ** -24 * np.abs(want_fm.data).max()
        assert contributed.tobytes() == want_contributed.tobytes()

    def test_key_bias_moves_the_logits_not_only_the_weights(self):
        # the softmax cancels q·b_k, which is constant over a query's slots;
        # epipolar_logits, which readers show, must still carry it
        f_tgt, ctx, samples, params = self.inputs("camera-pair", 2, np.float64, True, 120)
        want = oracle_two_gather_logits(f_tgt, ctx, samples, params)
        dl = absorbed_bounds(f_tgt, ctx, samples, params)[0]
        assert np.abs(epipolar_logits(f_tgt, ctx, samples, params) - want).max() <= dl
        unbiased = replace(params, k_proj=LinearMap(params.k_proj.weight))
        assert np.abs(epipolar_logits(f_tgt, ctx, samples, unbiased) - want).max() > 100 * dl

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_query_with_no_valid_slot_returns_the_projection_of_zero(self, dtype):
        f_tgt, ctx, samples, params = self.inputs("four-tap", 2, dtype, True, 130)
        valid = np.array(samples.valid)
        valid[:, :5] = False   # the first five queries of the top row
        samples = EpipolarSampleSet(uv=samples.uv, valid=valid, width=12, height=10)
        fm, contributed = epipolar_attention(f_tgt, ctx, samples, params)
        zero = apply_linear(params.out_proj, FeatureMap(np.zeros((1, 5, 8)))).data
        assert fm.data[:1, :5].tobytes() == zero.tobytes()
        assert not contributed[0, :5].any() and contributed.sum() > 100
        want_fm = oracle_two_gather_attention(f_tgt, ctx, samples, params)[0]
        assert want_fm.data[:1, :5].tobytes() == zero.tobytes()


def oracle_heads_affine(lin, params):
    """A projection's float64 weight (h, d, C) and bias (h, d, 1), heads-major."""
    bias = None if lin.bias is None else lin.bias.astype(np.float64).reshape(params.heads, -1, 1)
    return lin.weight.astype(np.float64).reshape(params.heads, -1, lin.in_dim), bias


def oracle_channel_loop_logits(f_tgt, ctx, samples, params):
    """``epipolar_logits`` as it was when it summed ``qa · F`` in a Python
    loop over the C channels, one (h, S, N) product per channel, starting
    from the first. Kept verbatim as the oracle. Returns the logits and
    the one gather of F (C, S, N)."""
    n = f_tgt.height * f_tgt.width
    q = apply_linear(params.q_proj, f_tgt).flat().T.reshape(params.heads, -1, n)   # (h, d, N)
    w_k, b_k = oracle_heads_affine(params.k_proj, params)
    qa = (w_k.swapaxes(1, 2) @ q).astype(params.dtype)
    f = samples.plan.gather(ctx.f.flat().T, dtype=params.dtype)
    logits = f[0] * qa[:, 0, None]
    for c in range(1, len(f)):
        logits += f[c] * qa[:, c, None]
    if b_k is not None:
        logits += (b_k * q).sum(axis=1)[:, None]
    logits /= math.sqrt(q.shape[1])
    return logits, f


def oracle_channel_loop_mix(weights, f, params):
    """The value mix ``W_v m + b_v Σ_s w`` (h, d, N) of ``epipolar_attention``
    as it was when it mixed F one channel at a time, ``m`` stacked from C
    slot sums. Kept verbatim as the oracle."""
    w_v, b_v = oracle_heads_affine(params.v_proj, params)
    v = w_v @ np.stack([(weights * fc).sum(axis=1) for fc in f], axis=1)
    if b_v is not None:
        v += b_v * weights.sum(axis=1)[:, None]
    return v


class TestChannelContractionDualRoute:
    """Epipolar retrieval, which contracts the channel axis of the logits
    and the slot axis of the value mix in one einsum each, against frozen
    copies of the per-channel loops it replaced. Both sum in the same
    order, so the logits at valid slots, the mixed values of contributed
    queries and the output keep their bytes. Elsewhere they are
    ``np.array_equal``: the loop starts each sum at its first product, the
    einsum at +0.0, so a masked slot's logit or an empty query's mix may
    differ in the sign of a zero, which the softmax and ``fuse`` discard.
    numpy does not promise einsum's summation order; this is the test
    that would see a release change it."""

    CASES = [(case, heads, c, seeded)
             for case in ("camera-pair", "two-tap", "four-tap")
             for heads in (1, 2) for c in (3, 4, 16) for seeded in (False, True)
             if seeded or c % heads == 0]   # an identity block's heads divide its channels

    @staticmethod
    def block(c, heads, seeded, rng):
        """The identity block on C channels, or a seeded one of inner width
        8 with biases, whose key and value projections the route absorbs."""
        if not seeded:
            return replace(AttentionParams.identity(c), heads=heads)

        def lin(out_dim, in_dim):
            return LinearMap(rng.standard_normal((out_dim, in_dim)) * 0.3,
                             rng.standard_normal(out_dim) * 0.01)
        return AttentionParams(lin(8, c), lin(8, c), lin(8, c), lin(c, 8), heads=heads)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case,heads,c,seeded", CASES)
    def test_matches_the_channel_loops(self, case, heads, c, seeded, dtype, monkeypatch):
        import epiview.attention as attention
        merged = []
        merge = attention._merge

        def recording(mixed, *args):
            merged.append(np.array(mixed))
            return merge(mixed, *args)

        monkeypatch.setattr(attention, "_merge", recording)
        rng = np.random.default_rng(140 + 10 * c + heads)
        w, h = 12, 10
        samples = sample_set(case, rng, w, h)
        valid = np.array(samples.valid)
        valid[:, :5] = False   # five queries with no valid slot
        samples = EpipolarSampleSet(uv=samples.uv, valid=valid, width=w, height=h)
        assert samples.plan.in_grid == (case == "camera-pair")
        params = replace(self.block(c, heads, seeded, rng), dtype=dtype)
        f_tgt = FeatureMap(rng.standard_normal((h, w, c)))
        ctx = project_context(FeatureMap(rng.standard_normal((h, w, c))), params)

        want_logits, f = oracle_channel_loop_logits(f_tgt, ctx, samples, params)
        weights = masked_softmax(want_logits.copy(), valid)
        want_v = oracle_channel_loop_mix(weights, f, params)
        out = np.moveaxis(want_v.swapaxes(1, 2), 0, -2).reshape(h, w, -1)
        want_fm = apply_linear(params.out_proj, FeatureMap(out))

        logits = epipolar_logits(f_tgt, ctx, samples, params)
        fm, contributed = epipolar_attention(f_tgt, ctx, samples, params)
        v = merged[-1].swapaxes(1, 2)   # (h, d, N)
        full = samples.contributed
        assert logits.dtype == want_logits.dtype and v.dtype == want_v.dtype
        assert logits[:, valid].tobytes() == want_logits[:, valid].tobytes()
        assert np.array_equal(logits, want_logits)
        assert v[..., full].tobytes() == want_v[..., full].tobytes()
        assert np.array_equal(v, want_v)
        assert fm.data.tobytes() == want_fm.data.tobytes()
        assert contributed.tobytes() == full.reshape(h, w).tobytes()
        assert 0 < full.sum() < full.size


class TestSlotMajorDualRoute:
    """Slot-major epipolar retrieval against a frozen copy of the
    query-major route it replaced, each slot-major array against the
    oracle's transposed. The sampled map, the masks, and under identity
    projections the sampled values keep their bytes. Under identity
    projections, in float64, the logits, weights and mixed values agree to
    1e-12 of each array's largest magnitude: the logits sum the channels
    in order where the oracle's matrix product may fuse them, and the
    softmax and the mix sum the S slots in order where the oracle's sums
    are pairwise. Under seeded blocks, which the route absorbs into the
    query and the mix, they stay within :func:`absorbed_bounds`. The
    float32 route stays inside the bound that
    :class:`TestFloat32RouteDualRoute` derives against the oracle's
    float64 outputs."""

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("case", ["camera-pair", "four-tap"])
    def test_matches_the_query_major_route(self, case, heads, monkeypatch, gathers):
        import epiview.attention as attention
        softmaxed, merged = [], []

        def keeping(logits, *args, **kwargs):
            softmaxed.append(np.array(logits))
            out = masked_softmax(logits, *args, **kwargs)
            softmaxed.append(out.copy())
            return out

        def recording(mixed, *args):
            merged.append(np.array(mixed))
            return merge(mixed, *args)

        merge = attention._merge
        monkeypatch.setattr(attention, "masked_softmax", keeping)
        monkeypatch.setattr(attention, "_merge", recording)
        rng = np.random.default_rng(80 + heads)
        w, h, c = 12, 10, 8
        for _ in range(3):
            samples = sample_set(case, rng, w, h)
            assert samples.plan.index.shape[0] == (2 if case == "camera-pair" else 4)
            f_tgt = FeatureMap(rng.standard_normal((h, w, c)))
            blocks = (replace(AttentionParams.identity(c), heads=heads),
                      AttentionParams.seeded(c, heads, rng))
            f_ref = FeatureMap(rng.standard_normal((h, w, c)))
            for seeded, params in enumerate(blocks):
                self.check(f_tgt, project_context(f_ref, params), samples, params, seeded,
                           gathers, softmaxed, merged)

    @staticmethod
    def check(f_tgt, ctx, samples, params, seeded, gathers, softmaxed, merged):
        """One call of the route against the query-major oracle."""
        gathers.clear()
        fm, contributed = epipolar_attention(f_tgt, ctx, samples, params)
        logits_seen, weights = softmaxed[-2:]
        (grid, f_samp), = gathers   # one gather, of F: (C, S, N)
        valid = samples.valid
        # the public logits are the ones the core softmaxes
        logits = epipolar_logits(f_tgt, ctx, samples, params)
        assert logits.tobytes() == logits_seen.tobytes()
        (want_logits, want_weights, want_v, want_valid, want_mixed, want_fm,
         want_contributed) = oracle_query_major_attention(f_tgt, ctx, samples, params)
        plan = BilinearPlan.build(samples.uv.swapaxes(0, 1), samples.width, samples.height)
        want_f = oracle_row_major_gather(plan, ctx.f.flat(), params.dtype)
        assert grid.tobytes() == ctx.f.flat().T.tobytes()
        assert f_samp.tobytes() == np.ascontiguousarray(want_f.transpose(2, 1, 0)).tobytes()
        if not seeded:
            assert f_samp.tobytes() == np.ascontiguousarray(want_v.transpose(2, 1, 0)).tobytes()
        assert valid.tobytes() == np.ascontiguousarray(want_valid.T).tobytes()
        assert contributed.tobytes() == want_contributed.tobytes()
        assert 0 < valid.sum() < valid.size
        in_grid = samples.plan.valid
        dl, dw, dm, out_bound = absorbed_bounds(f_tgt, ctx, samples, params)
        want_logits, want_weights = want_logits.swapaxes(-1, -2), want_weights.swapaxes(-1, -2)
        assert logits.shape == want_logits.shape
        for got, want, bound in ((logits[:, in_grid], want_logits[:, in_grid], dl),
                                 (weights, want_weights, dw),
                                 (merged.pop(), want_mixed, dm)):
            assert got.shape == want.shape
            if not seeded:
                bound = 1e-12 * np.abs(want).max()
            assert np.abs(got - want).max() <= bound
        assert np.all(weights[:, ~valid] == 0.0)
        # both maps round the mixed values to float32 (one rounding of
        # u each, perhaps apart), project them, and round once more
        u = np.finfo(np.float32).eps / 2
        w_row = np.abs(params.out_proj.weight.astype(np.float64)).sum(axis=1).max()
        tol = (out_bound if seeded else 2 * u * w_row * np.abs(want_mixed).max()) \
            + 2 * u * np.abs(want_fm.data).max()
        assert np.abs(fm.data.astype(np.float64) - want_fm.data).max() <= tol

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("case", ["camera-pair", "four-tap"])
    def test_float32_within_the_bound_of_the_query_major_route(self, case, heads):
        rng = np.random.default_rng(90 + heads)
        w, h, c = 12, 10, 8
        samples = sample_set(case, rng, w, h)
        f_tgt = FeatureMap(rng.standard_normal((h, w, c)))
        params64 = AttentionParams.seeded(c, heads, rng)
        ctx = project_context(FeatureMap(rng.standard_normal((h, w, c))), params64)
        out64 = oracle_query_major_attention(f_tgt, ctx, samples, params64)[5].data
        out32 = epipolar_attention(f_tgt, ctx, samples, replace(params64, dtype=np.float32))[0]
        bound = TestFloat32RouteDualRoute.bound(f_tgt, ctx, params64, samples.uv.shape[0], out64)
        err = np.abs(out32.data.astype(np.float64) - out64).max()
        assert 0 < err <= bound


class TestEpipolarFullEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_full_grid_sampling_equals_cross_attention(self, seed):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(4, 17))
        w = int(rng.integers(4, 17))
        c, heads = 8, 2
        f_tgt = FeatureMap(rng.standard_normal((h, w, c)))
        f_ref = FeatureMap(rng.standard_normal((h, w, c)))
        params = AttentionParams.seeded(c, heads, rng)
        ctx = project_context(f_ref, params)
        samples = EpipolarSampleSet.full_grid(w, h, h * w)
        out_e, mask = epipolar_attention(f_tgt, ctx, samples, duplicate_params(params))
        out_f, _ = full_cross_attention(f_tgt, [ctx], params)[0]
        assert mask.all()
        np.testing.assert_allclose(out_e.data, out_f.data, atol=1e-6)

    def test_degenerate_cross_equals_self(self):
        rng = np.random.default_rng(40)
        fm = FeatureMap(rng.standard_normal((5, 5, 6)))
        params = AttentionParams.seeded(6, 2, rng)
        out_c, _ = full_cross_attention(fm, [project_context(fm, params)], params)[0]
        out_s = self_attention(fm, params)
        np.testing.assert_allclose(out_c.data, out_s.data, atol=1e-6)


def oracle_full_cross_attention(f_tgt, ctx, params, counters=None):
    """One context's full cross attention as it was before the contexts
    were batched, with the core's helpers inlined. Kept as the oracle."""
    def heads_major(x):
        x = np.asarray(x, dtype=np.float64)
        return np.moveaxis(x.reshape(x.shape[:-1] + (params.heads, -1)), -2, 0)

    q = heads_major(apply_linear(params.q_proj, f_tgt).flat())
    k = heads_major(ctx.k.flat())
    if counters is not None:
        counters.record(params.heads * q.shape[1] * k.shape[1])
    logits = q @ np.swapaxes(k, -1, -2)
    logits /= np.sqrt(q.shape[-1])
    weights = query_major_softmax(logits, None)
    out = np.moveaxis(weights @ heads_major(ctx.value.flat()), 0, -2)
    fm = apply_linear(params.out_proj, FeatureMap(out.reshape(f_tgt.height, f_tgt.width, -1)))
    return (fm, np.ones((f_tgt.height, f_tgt.width), dtype=bool)), weights


def query_major_bounds(f_tgt, ctx, params):
    """How far the key-major core may lie from the query-major oracles.

    The two routes differ only in summation order and in where the scale
    falls: the core computes ``k @ (q / sqrt(d)).T`` in the block's dtype
    (unit roundoff u), reduces the softmax across rows, and projects the
    outputs of every context at once; the oracle computes ``(q @ k.T) /
    sqrt(d)`` in float64 (unit roundoff e) and reduces along rows. With d
    the head width, M the keys per query, Q the largest l1 norm of a query
    head, K and V the largest key and value entries, C the channels and W
    the largest absolute row sum of the output projection:
    - a logit differs by at most dl = (d + 2)(u + e) Q K / sqrt(d): d
      roundings in each dot product, one in each scaling;
    - subtracting the column peak adds 2 (u + e) Q K / sqrt(d), so the
      weights of a query, which sum to 1, differ by at most
      dw = expm1(2 (dl + 2 (u + e) Q K / sqrt(d)) + 2 (M + 4)(u + e)) in l1
      (exp, an M-term sum and a divide in each route);
    - the value mix adds M (u + e) V to what the weights move, V dw, and
      each route stores its mix as a float32 map (u32 V each);
    - the float64 output projection multiplies that by W, adds 2 (C + 1) e
      W V of its own rounding, and each float32 output rounds once more.
    Returns (dl, dw, the output bound less its last term): the outputs may
    differ by that plus 2 u32 max|out|.
    """
    u, e, u32 = (np.finfo(params.dtype).eps / 2, np.finfo(np.float64).eps / 2,
                 np.finfo(np.float32).eps / 2)
    d = params.q_proj.out_dim // params.heads
    m = ctx.k.height * ctx.k.width
    q = apply_linear(params.q_proj, f_tgt).flat().astype(np.float64)
    qk = (np.abs(q.reshape(-1, params.heads, d)).sum(axis=-1).max()
          * np.abs(ctx.k.data).max() / math.sqrt(d))
    v_max = np.abs(ctx.value.data).max()
    w_row = np.abs(params.out_proj.weight.astype(np.float64)).sum(axis=1).max()
    dl = (d + 2) * (u + e) * qk
    dw = math.expm1(2 * (dl + 2 * (u + e) * qk) + 2 * (m + 4) * (u + e))
    mix = v_max * (dw + m * (u + e) + 2 * u32)
    return dl, dw, w_row * (mix + 2 * (params.out_proj.in_dim + 1) * e * v_max)


@pytest.fixture
def softmaxed(monkeypatch):
    """A copy of every weight array the attention core's softmax returns,
    in call order."""
    import epiview.attention as attention
    seen = []

    def keeping(*args, **kwargs):
        out = masked_softmax(*args, **kwargs)
        seen.append(out.copy())
        return out

    monkeypatch.setattr(attention, "masked_softmax", keeping)
    return seen


class TestBatchedFullAttentionDualRoute:
    @pytest.mark.parametrize("views", [1, 2, 3])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_byte_identical_to_per_context_calls(self, views, heads, softmaxed):
        rng = np.random.default_rng(views * 10 + heads)
        h, w, c = 5, 7, 8
        f_tgt = FeatureMap(rng.standard_normal((h, w, c)))
        params = AttentionParams.seeded(c, heads, rng)
        contexts = [project_context(FeatureMap(rng.standard_normal((h, w, c))), params)
                    for _ in range(views)]
        got_counters, want_counters = AttentionCounters(), AttentionCounters()
        got = full_cross_attention(f_tgt, contexts, params, got_counters)
        want = [full_cross_attention(f_tgt, [ctx], params, want_counters)[0] for ctx in contexts]
        # the float64 weights too: a last-bit change rarely survives the
        # float32 outputs
        weights, *want_weights = softmaxed
        assert weights.shape == (heads, views, h * w, h * w)
        for i, ww in enumerate(want_weights):
            assert ww.shape == (heads, 1, h * w, h * w)
            assert weights[:, i].tobytes() == ww.tobytes()
        assert len(got) == views
        for (fm, mask), (fm_want, mask_want) in zip(got, want):
            assert fm.data.tobytes() == fm_want.data.tobytes()
            assert mask.tobytes() == mask_want.tobytes()
        agg, contributed = multi_view_aggregate(got)
        agg_want, contributed_want = multi_view_aggregate(want)
        assert agg.data.tobytes() == agg_want.data.tobytes()
        assert contributed.tobytes() == contributed_want.tobytes()
        assert vars(got_counters) == vars(want_counters)
        assert got_counters.calls == views and got_counters.peak_elems == heads * (h * w) ** 2

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("views", [1, 3])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_near_the_oracle(self, heads, views, dtype, softmaxed):
        rng = np.random.default_rng(300 + views * 10 + heads)
        h, w, c = 6, 7, 8
        f_tgt = FeatureMap(rng.standard_normal((h, w, c)))
        params = replace(AttentionParams.seeded(c, heads, rng), dtype=dtype)
        contexts = [project_context(FeatureMap(rng.standard_normal((h, w, c))), params)
                    for _ in range(views)]
        got_counters, want_counters = AttentionCounters(), AttentionCounters()
        got = full_cross_attention(f_tgt, contexts, params, got_counters)
        (weights,) = softmaxed
        assert weights.dtype == dtype
        for i, ctx in enumerate(contexts):
            (fm_want, mask_want), w_want = oracle_full_cross_attention(f_tgt, ctx, params,
                                                                       want_counters)
            _, dw, out_bound = query_major_bounds(f_tgt, ctx, params)
            dweights = np.abs(weights[:, i].swapaxes(-1, -2) - w_want).sum(axis=-1).max()
            assert dweights <= dw
            out = got[i][0].data.astype(np.float64)
            want = fm_want.data.astype(np.float64)
            assert np.abs(out - want).max() <= out_bound + 2 * 2.0 ** -24 * np.abs(want).max()
            assert out_bound < 1e-3 * np.abs(want).max()   # and the bound is far below them
            assert got[i][1].tobytes() == mask_want.tobytes()
        assert vars(got_counters) == vars(want_counters)

    @pytest.mark.parametrize("views", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(16, 16, 16, 2), (32, 32, 3, 1)],
                             ids=["unet", "rgb"])
    def test_one_out_projection(self, shape, views):
        """``_merge`` projects every context's mix at once, stacked along the
        rows; each context's rows have the bytes of the merge of that
        context alone, as it was before."""
        from epiview.attention import _merge

        def oracle_merge(mixed, f_tgt, params):
            out = np.moveaxis(mixed, 0, -2)
            return apply_linear(params.out_proj,
                                FeatureMap(out.reshape(f_tgt.height, f_tgt.width, -1)))

        h, w, c, heads = shape
        rng = np.random.default_rng(views + c)
        f_tgt = FeatureMap(np.zeros((h, w, c)))
        for dtype in (np.float64, np.float32):
            params = replace(AttentionParams.seeded(c, heads, rng), dtype=dtype)
            mixed = rng.standard_normal((heads, views, h * w, c // heads)).astype(dtype)
            got = _merge(mixed, f_tgt, params).data
            assert got.shape == (views * h, w, c)
            for i, rows in enumerate(np.split(got, views)):
                assert rows.tobytes() == oracle_merge(mixed[:, i], f_tgt, params).data.tobytes()

    def test_no_context_rejected(self):
        fm = FeatureMap(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            full_cross_attention(fm, [], AttentionParams.identity(3))

    def test_resolution_mismatch(self):
        params = AttentionParams.identity(3)
        fm = FeatureMap(np.zeros((4, 4, 3)))
        small = project_context(FeatureMap(np.zeros((2, 2, 3))), params)
        with pytest.raises(ValueError):
            full_cross_attention(fm, [project_context(fm, params), small], params)


def oracle_full_similarity(f_tgt, ctx, params, counters=None):
    """One context's full-attention logits and weights as they were
    computed before they shared full attention's batched logits, with the
    core's helpers inlined: query-major (heads, N, M), in float64. Kept as
    the oracle."""
    def heads_major(x):
        x = np.asarray(x, dtype=np.float64)
        return np.moveaxis(x.reshape(x.shape[:-1] + (params.heads, -1)), -2, 0)

    q = heads_major(apply_linear(params.q_proj, f_tgt).flat())
    k = heads_major(ctx.k.flat())
    if counters is not None:
        counters.record(params.heads * q.shape[1] * k.shape[1])
    logits = q @ np.swapaxes(k, -1, -2)
    logits /= np.sqrt(q.shape[-1])
    weights = query_major_softmax(logits, None)
    return logits, weights


class TestFullSimilarityDualRoute:
    """What a reader of one context's similarities takes, the key-major
    ``full_logits`` softmaxed over its keys with ``masked_softmax``,
    against the frozen query-major oracle."""

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("shape", [(5, 7), (6, 6)])
    def test_within_a_bound_of_the_old_body(self, heads, shape):
        rng = np.random.default_rng(heads * 100 + shape[1])
        f_tgt = FeatureMap(rng.standard_normal(shape + (8,)))
        params64 = AttentionParams.seeded(8, heads, rng)
        ctx = project_context(FeatureMap(rng.standard_normal(shape + (8,))), params64)
        want_counters = AttentionCounters()
        want_logits, want_weights = oracle_full_similarity(f_tgt, ctx, params64, want_counters)
        n = shape[0] * shape[1]
        for dtype in (np.float64, np.float32):
            params = replace(params64, dtype=dtype)
            got_counters = AttentionCounters()
            logits = full_logits(f_tgt, [ctx], params, got_counters)[:, 0]
            weights = logits.copy()
            assert masked_softmax(weights, None) is weights   # over the keys, in place
            assert logits.shape == weights.shape == (heads, n, n)
            assert logits.dtype == weights.dtype == dtype
            dl, dw, _ = query_major_bounds(f_tgt, ctx, params)
            assert np.abs(logits.swapaxes(-1, -2) - want_logits).max() <= dl
            assert np.abs(weights.swapaxes(-1, -2) - want_weights).sum(axis=-1).max() <= dw
            assert dw < 1e-3
            assert vars(got_counters) == vars(want_counters)


class TestEpipolarAttention:
    def test_singleton_sample(self):
        rng = np.random.default_rng(5)
        f_tgt = FeatureMap(rng.standard_normal((2, 2, 4)))
        f_ref = FeatureMap(rng.standard_normal((2, 2, 4)))
        params = AttentionParams.seeded(4, 1, rng)
        ctx = project_context(f_ref, params)
        uv = np.tile(np.array([[[1.0, 1.0]], [[0, 0]]]), (1, 4, 1))
        valid = np.tile(np.array([[True], [False]]), (1, 4))
        samples = EpipolarSampleSet(uv=uv, valid=valid, width=2, height=2)
        out, mask = epipolar_attention(f_tgt, ctx, samples, params)
        assert mask.all()
        want = apply_linear(params.out_proj,
                            FeatureMap(np.broadcast_to(ctx.value.data[1, 1], (2, 2, 4)).copy()))
        np.testing.assert_allclose(out.data, want.data, atol=1e-6)

    def test_empty_sample_set_marks_no_contribution(self):
        rng = np.random.default_rng(6)
        f = FeatureMap(rng.standard_normal((3, 3, 4)))
        params = AttentionParams.identity(4)
        samples = EpipolarSampleSet(uv=np.zeros((3, 9, 2)),
                                    valid=np.zeros((3, 9), dtype=bool),
                                    width=3, height=3)
        out, mask = epipolar_attention(f, project_context(f, params), samples, params)
        assert not mask.any()
        fused = fuse(f, out, mask, 0.7)
        np.testing.assert_array_equal(fused.data, f.data)

    def test_resolution_mismatch(self):
        params = AttentionParams.identity(3)
        with pytest.raises(ValueError):
            epipolar_attention(
                FeatureMap(np.zeros((4, 4, 3))),
                project_context(FeatureMap(np.zeros((2, 2, 3))), params),
                EpipolarSampleSet.full_grid(2, 2, 16),
                params)

    def test_single_query_sample_set_rejected(self):
        # a (S, 2) set is one query's samples; the caller must batch it
        f = FeatureMap(np.zeros((2, 2, 3)))
        params = AttentionParams.identity(3)
        single = EpipolarSampleSet(uv=np.zeros((3, 2)), valid=np.ones(3, dtype=bool),
                                   width=2, height=2)
        with pytest.raises(ValueError):
            epipolar_logits(f, project_context(f, params), single, params)

    def test_weights_sum_to_one_over_valid(self):
        rng = np.random.default_rng(7)
        f_tgt = FeatureMap(rng.standard_normal((4, 4, 4)))
        f_ref = FeatureMap(rng.standard_normal((4, 4, 4)))
        params = AttentionParams.seeded(4, 2, rng)
        ctx = project_context(f_ref, params)
        uv = rng.uniform(-1, 4.5, (16, 4, 2)).swapaxes(0, 1)
        valid = (rng.random((16, 4)) > 0.4).T
        samples = EpipolarSampleSet(uv=uv, valid=valid, width=4, height=4)
        eff_valid = samples.valid   # (S, N)
        weights = masked_softmax(epipolar_logits(f_tgt, ctx, samples, params), eff_valid)
        sums = weights.sum(axis=-2)
        for q in range(16):
            expect = 1.0 if eff_valid[:, q].any() else 0.0
            np.testing.assert_allclose(sums[:, q], expect, atol=1e-12)
        assert np.all(weights[:, ~eff_valid] == 0.0)

    def test_logit_translation_invariance_carries_through(self):
        # appending a constant-key channel shifts every logit by the same
        # amount, which must not change the output
        rng = np.random.default_rng(8)
        f_tgt = rng.standard_normal((3, 3, 4))
        f_ref = rng.standard_normal((3, 3, 4))
        uv = rng.uniform(0, 2.9, (9, 5, 2)).swapaxes(0, 1)
        valid = np.ones((5, 9), dtype=bool)

        def run(extra_key):
            ft = FeatureMap(np.concatenate([f_tgt, np.ones((3, 3, 1))], axis=2))
            fr = FeatureMap(np.concatenate([f_ref, np.full((3, 3, 1), extra_key)], axis=2))
            params = AttentionParams.identity(5)
            ctx = project_context(fr, params)
            samples = EpipolarSampleSet(uv=uv, valid=valid, width=3, height=3)
            out, _ = epipolar_attention(ft, ctx, samples, params)
            return out.data[:, :, :4]

        np.testing.assert_allclose(run(0.0), run(57.0), atol=1e-9)


class TestProjectContext:
    def test_keys_and_values_are_the_block_projections(self):
        rng = np.random.default_rng(30)
        f_ref = FeatureMap(rng.standard_normal((3, 3, 4)))
        params = AttentionParams.seeded(4, 1, rng)
        ctx = project_context(f_ref, params)
        assert ctx.f is f_ref
        assert ctx.k.data.tobytes() == apply_linear(params.k_proj, f_ref).data.tobytes()
        assert ctx.value.data.tobytes() == apply_linear(params.v_proj, f_ref).data.tobytes()
        assert not np.array_equal(ctx.value.data, f_ref.data)


class TestFuse:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.a = FeatureMap(rng.standard_normal((3, 3, 2)))
        self.b = FeatureMap(rng.standard_normal((3, 3, 2)))
        self.mask = np.ones((3, 3), dtype=bool)

    def test_alpha_zero_is_identity(self):
        out = fuse(self.a, self.b, self.mask, 0.0)
        np.testing.assert_array_equal(out.data, self.a.data)

    def test_alpha_one_replaces_contributing(self):
        mask = self.mask.copy()
        mask[0, 0] = False
        out = fuse(self.a, self.b, mask, 1.0)
        np.testing.assert_allclose(out.data[1:], self.b.data[1:], atol=1e-7)
        np.testing.assert_array_equal(out.data[0, 0], self.a.data[0, 0])

    def test_alpha_half_is_mean(self):
        out = fuse(self.a, self.b, self.mask, 0.5)
        want = (self.a.data.astype(np.float64) + self.b.data.astype(np.float64)) / 2
        np.testing.assert_allclose(out.data, want, atol=1e-7)


class TestMultiViewAggregate:
    def test_single_view_identity(self):
        rng = np.random.default_rng(10)
        fm = FeatureMap(rng.standard_normal((2, 2, 3)))
        mask = np.array([[True, False], [True, True]])
        out, m = multi_view_aggregate([(fm, mask)])
        np.testing.assert_allclose(out.data[mask], fm.data[mask], atol=1e-7)
        np.testing.assert_array_equal(m, mask)

    def test_mean_of_identical_views(self):
        rng = np.random.default_rng(11)
        fm = FeatureMap(rng.standard_normal((2, 2, 3)))
        mask = np.ones((2, 2), dtype=bool)
        out, _ = multi_view_aggregate([(fm, mask), (fm, mask)])
        np.testing.assert_allclose(out.data, fm.data, atol=1e-7)

    def test_masked_view_excluded_from_mean(self):
        a = FeatureMap(np.full((1, 2, 1), 2.0))
        b = FeatureMap(np.full((1, 2, 1), 4.0))
        c = FeatureMap(np.full((1, 2, 1), 99.0))
        ones = np.ones((1, 2), dtype=bool)
        out, m = multi_view_aggregate([(a, ones), (b, ones), (c, ~ones)])
        np.testing.assert_allclose(out.data, 3.0, atol=1e-7)
        assert m.all()

    def test_pixelwise_partial_contributions(self):
        a = FeatureMap(np.array([[[1.0], [1.0]]]))
        b = FeatureMap(np.array([[[3.0], [3.0]]]))
        ma = np.array([[True, False]])
        mb = np.array([[True, True]])
        out, m = multi_view_aggregate([(a, ma), (b, mb)])
        np.testing.assert_allclose(out.data[0, 0, 0], 2.0, atol=1e-7)
        np.testing.assert_allclose(out.data[0, 1, 0], 3.0, atol=1e-7)
        assert m.all()


class TestCounters:
    def test_full_attention_buffer_is_n_squared(self):
        rng = np.random.default_rng(12)
        fm = FeatureMap(rng.standard_normal((4, 4, 4)))
        params = AttentionParams.identity(4)
        counters = AttentionCounters()
        full_cross_attention(fm, [project_context(fm, params)], params, counters)
        assert counters.peak_elems == (4 * 4) ** 2

    def test_epipolar_buffer_bounded(self):
        rng = np.random.default_rng(13)
        fm = FeatureMap(rng.standard_normal((4, 6, 4)))
        params = AttentionParams.identity(4)
        counters = AttentionCounters()
        uv = rng.uniform(0, 3, (24, 6, 2)).swapaxes(0, 1)
        valid = np.ones((6, 24), dtype=bool)
        samples = EpipolarSampleSet(uv=uv, valid=valid, width=6, height=4)
        epipolar_attention(fm, project_context(fm, params), samples, params, counters)
        assert counters.peak_elems == 24 * 6
        assert counters.peak_elems <= 4 * 6 * max(4, 6)


class TestSoftmaxHook:
    """Every attention call reaches its softmax through the ``attention``
    module's ``masked_softmax`` name, once: the name a tracer wraps to time
    the layer, whose metrics would otherwise read 0."""

    @pytest.mark.parametrize("call", ["self", "full", "full-3", "epipolar"])
    def test_one_softmax_per_attention_call(self, call, monkeypatch):
        import epiview.attention as attention
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return masked_softmax(*args, **kwargs)

        monkeypatch.setattr(attention, "masked_softmax", counting)
        rng = np.random.default_rng(14)
        fm = FeatureMap(rng.standard_normal((4, 5, 4)))
        params = AttentionParams.seeded(4, 2, rng)
        ctx = project_context(fm, params)
        if call == "self":
            self_attention(fm, params)
        elif call == "full":
            full_cross_attention(fm, [ctx], params)
        elif call == "full-3":
            full_cross_attention(fm, [ctx] * 3, params)
        else:
            samples = EpipolarSampleSet(uv=rng.uniform(0, 3, (20, 6, 2)).swapaxes(0, 1),
                                        valid=np.ones((6, 20), dtype=bool), width=5, height=4)
            epipolar_attention(fm, ctx, samples, params)
        assert len(calls) == 1
