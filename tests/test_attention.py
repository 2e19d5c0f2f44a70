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
from epiview.numerics import BilinearPlan, FeatureMap, apply_linear, masked_softmax


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


class TestFloat32RouteDualRoute:
    """The float32 route of the core against its float64 reference route,
    on the same float32 features and projections. Both routes round the
    mixed values to a float32 map before the float64 output projection.

    The bound, with u = 2**-24 the float32 unit roundoff, d the head
    width, S the keys per query (samples, or every context position), Q
    the largest l1 norm of a query head, K and V the largest key and value
    entries, and W the largest absolute row sum of the output projection:
    - a logit differs by at most dl = (d + 7) u Q K / sqrt(d): d roundings
      in the float32 dot product, one in the scaling, at most 4 u K per
      entry in the float32 bilinear blend of the keys, and 2 u Q K / sqrt(d)
      when the row peak is subtracted;
    - so the weights of a query, which sum to 1, differ by at most
      expm1(2 dl) + (S + 4) u in l1 (exp, sum and divide in float32);
    - the mix of the values adds S u V (float32 accumulation), the blend
      of the values 4 u V, and the float32 map each route stores u V;
    - the output projection multiplies by W, and the two float32 outputs
      each round once more (u of the largest output).
    Together: |out32 - out64| <= W V (expm1(2 dl) + (2 S + 9) u) + 2 u max|out64|.
    """

    @staticmethod
    def bound(f_tgt, ctx, params, keys, out64):
        u = np.finfo(np.float32).eps / 2
        d = params.q_proj.out_dim // params.heads
        q = apply_linear(params.q_proj, f_tgt).flat().astype(np.float64)
        q_l1 = np.abs(q.reshape(-1, params.heads, d)).sum(axis=-1).max()
        k_max = np.abs(ctx.k.data).max()
        v_max = np.abs(ctx.value.data).max()
        w_row = np.abs(params.out_proj.weight.astype(np.float64)).sum(axis=1).max()
        dl = (d + 7) * u * q_l1 * k_max / math.sqrt(d)
        return (w_row * v_max * (math.expm1(2 * dl) + (2 * keys + 9) * u)
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
                samples = epipolar_sample_grid(pose, K, w, h)
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
    weights = masked_softmax(logits, valid[None, :, None])
    v_samp = kv_samp[..., c:]
    mixed = (weights @ heads_major(v_samp))[:, :, 0]
    out = np.moveaxis(mixed, 0, -2).reshape(f_tgt.height, f_tgt.width, -1)
    fm = apply_linear(params.out_proj, FeatureMap(out))
    return (logits[:, :, 0], weights[:, :, 0], v_samp, valid, mixed, fm,
            valid.any(axis=1).reshape(f_tgt.height, f_tgt.width))


class TestSlotMajorDualRoute:
    """Slot-major epipolar retrieval against a frozen copy of the
    query-major route it replaced, each slot-major array against the
    oracle's transposed. The sampled values and masks keep their
    bytes. In float64 the logits, weights and mixed values agree to 1e-12
    of each array's largest magnitude: the logits now sum the head
    channels in order where the oracle's matrix product may fuse them, and
    the softmax and the mix sum the S slots in order where the oracle's
    sums are pairwise. The float32 route stays inside the bound that
    :class:`TestFloat32RouteDualRoute` derives against the oracle's float64
    outputs."""

    @staticmethod
    def sample_set(case, rng, w, h):
        if case == "camera-pair":   # two taps per sample
            K = CameraIntrinsics.from_fov(w, h)
            a, b = (SphericalCamera(rng.uniform(-10, 40), rng.uniform(0, 360), 2.0)
                    for _ in range(2))
            return epipolar_sample_grid(relative_pose(camera_on_sphere(a), camera_on_sphere(b)),
                                        K, w, h)
        return EpipolarSampleSet(uv=rng.uniform(-1.0, w, (h * w, 9, 2)).swapaxes(0, 1),
                                 valid=(rng.random((h * w, 9)) > 0.2).T,   # four taps
                                 width=w, height=h)

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("case", ["camera-pair", "four-tap"])
    def test_matches_the_query_major_route(self, case, heads, monkeypatch):
        import epiview.attention as attention
        gathered, softmaxed, merged = [], [], []

        def gathering(*args):
            out = gather_heads(*args)
            gathered.append(out.copy())
            return out

        def keeping(logits, *args, **kwargs):
            softmaxed.append(np.array(logits))
            out = masked_softmax(logits, *args, **kwargs)
            softmaxed.append(out.copy())
            return out

        def recording(mixed, *args):
            merged.append(np.array(mixed))
            return merge(mixed, *args)

        gather_heads, merge = attention._gather_heads, attention._merge
        monkeypatch.setattr(attention, "_gather_heads", gathering)
        monkeypatch.setattr(attention, "masked_softmax", keeping)
        monkeypatch.setattr(attention, "_merge", recording)
        rng = np.random.default_rng(80 + heads)
        w, h, c = 12, 10, 8
        for _ in range(3):
            samples = self.sample_set(case, rng, w, h)
            assert samples.plan.index.shape[0] == (2 if case == "camera-pair" else 4)
            f_tgt = FeatureMap(rng.standard_normal((h, w, c)))
            params = AttentionParams.seeded(c, heads, rng)
            ctx = project_context(FeatureMap(rng.standard_normal((h, w, c))), params)
            fm, contributed = epipolar_attention(f_tgt, ctx, samples, params)
            logits_seen, weights = softmaxed[-2:]
            v_samp = gathered[-1].reshape(c, *samples.valid.shape)   # (C, S, N)
            valid = samples.valid
            # the public logits are the ones the core softmaxes
            logits = epipolar_logits(f_tgt, ctx, samples, params)
            assert logits.tobytes() == logits_seen.tobytes()
            (want_logits, want_weights, want_v, want_valid, want_mixed, want_fm,
             want_contributed) = oracle_query_major_attention(f_tgt, ctx, samples, params)
            assert v_samp.tobytes() == np.ascontiguousarray(want_v.transpose(2, 1, 0)).tobytes()
            assert valid.tobytes() == np.ascontiguousarray(want_valid.T).tobytes()
            assert contributed.tobytes() == want_contributed.tobytes()
            assert 0 < valid.sum() < valid.size
            for got, want in ((logits, want_logits.swapaxes(-1, -2)),
                              (weights, want_weights.swapaxes(-1, -2)),
                              (merged.pop(), want_mixed)):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.all(weights[:, ~valid] == 0.0)
            # both maps round the mixed values to float32 (one rounding of
            # u each, perhaps apart), project them, and round once more
            u = np.finfo(np.float32).eps / 2
            w_row = np.abs(params.out_proj.weight.astype(np.float64)).sum(axis=1).max()
            tol = 2 * u * (w_row * np.abs(want_mixed).max() + np.abs(want_fm.data).max())
            assert np.abs(fm.data.astype(np.float64) - want_fm.data).max() <= tol

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("case", ["camera-pair", "four-tap"])
    def test_float32_within_the_bound_of_the_query_major_route(self, case, heads):
        rng = np.random.default_rng(90 + heads)
        w, h, c = 12, 10, 8
        samples = self.sample_set(case, rng, w, h)
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
    weights = masked_softmax(logits, None)
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
    weights = masked_softmax(logits, None)
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
            weights = masked_softmax(logits, None, axis=-2)
            assert logits.shape == weights.shape == (heads, n, n)
            assert logits.dtype == weights.dtype == dtype
            dl, dw, _ = query_major_bounds(f_tgt, ctx, params)
            assert np.abs(logits.swapaxes(-1, -2) - want_logits).max() <= dl
            assert np.abs(weights.swapaxes(-1, -2) - want_weights).sum(axis=-1).max() <= dw
            assert dw < 1e-3
            assert vars(got_counters) == vars(want_counters)
            assert not np.shares_memory(logits, weights)


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
        weights = masked_softmax(epipolar_logits(f_tgt, ctx, samples, params), eff_valid,
                                 axis=-2)
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
