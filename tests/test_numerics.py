"""Tensor kernels: bilinear sampling, masked softmax, linear maps."""

import numpy as np
import pytest

from epiview.attention import AttentionParams, full_logits, project_context
from epiview.numerics import (
    FeatureMap,
    LinearMap,
    apply_linear,
    bilinear_sample,
    downsample_mean,
    masked_softmax,
)


class TestFeatureMap:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureMap(np.array([[[np.nan]]]))

    def test_rejects_what_overflows_float32(self):
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMap(np.full((2, 2, 3), 1e308))
        fits = np.array([[[3.0e38, -1e-30, 0.1]]])   # float64 values within float32 range
        assert FeatureMap(fits).data.tobytes() == fits.astype(np.float32).tobytes()

    def test_promotes_2d(self):
        fm = FeatureMap(np.zeros((4, 5)))
        assert fm.channels == 1 and fm.height == 4 and fm.width == 5

    def test_immutable(self):
        fm = FeatureMap(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            fm.data[0, 0, 0] = 1.0

    def test_callers_array_stays_writable_and_apart(self):
        a = np.zeros((2, 2, 3), np.float32)
        fm = FeatureMap(a)
        a[0] = 1
        assert not fm.data.any() and not np.shares_memory(a, fm.data)
        b = np.zeros((2, 2), np.float32)    # promoted through a view of b
        fm2 = FeatureMap(b)
        b[0] = 1
        assert not fm2.data.any()

    def test_frozen_data_is_shared(self):
        fm = FeatureMap(np.ones((2, 2, 3)))
        assert FeatureMap(fm.data).data is fm.data


class TestBilinearSample:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.fm = FeatureMap(rng.standard_normal((5, 7, 3)))

    def test_exact_at_lattice_points(self):
        vals, ok = bilinear_sample(self.fm, [[2.0, 3.0]])
        assert ok[0]
        np.testing.assert_allclose(vals[0], self.fm.data[3, 2], atol=1e-7)

    def test_midpoint_blend(self):
        fm = FeatureMap(np.array([[[0.0], [1.0]]]))
        vals, ok = bilinear_sample(fm, [[0.5, 0.0]])
        assert ok[0] and abs(vals[0, 0] - 0.5) < 1e-12

    def test_out_of_grid_masked_not_clamped(self):
        vals, ok = bilinear_sample(self.fm, [[-0.5, 0.0], [0.0, -0.01], [6.01, 0.0]])
        assert not ok.any()
        assert np.all(vals == 0.0)

    def test_boundary_inclusive(self):
        vals, ok = bilinear_sample(self.fm, [[6.0, 4.0]])
        assert ok[0]
        np.testing.assert_allclose(vals[0], self.fm.data[4, 6], atol=1e-7)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        uv = rng.uniform(0, [6, 4], (50, 2))
        vals, ok = bilinear_sample(self.fm, uv)
        assert ok.all()
        grid = self.fm.data.astype(np.float64)
        for (u, v), got in zip(uv, vals):
            u0, v0 = int(np.floor(u)), int(np.floor(v))
            u0, v0 = min(u0, 5), min(v0, 3)
            du, dv = u - u0, v - v0
            want = (grid[v0, u0] * (1 - du) * (1 - dv)
                    + grid[v0, u0 + 1] * du * (1 - dv)
                    + grid[v0 + 1, u0] * (1 - du) * dv
                    + grid[v0 + 1, u0 + 1] * du * dv)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_linear_along_axis(self):
        ramp = FeatureMap(np.arange(8, dtype=float).reshape(1, 8, 1) * 0 +
                          np.arange(8, dtype=float).reshape(1, 8, 1))
        us = np.linspace(0, 7, 29)
        vals, _ = bilinear_sample(ramp, np.stack([us, np.zeros_like(us)], axis=-1))
        np.testing.assert_allclose(vals[:, 0], us, atol=1e-6)


class TestMaskedSoftmax:
    """The softmax over axis -2, the keys: single columns of S keys here."""

    def test_singleton(self):
        w = masked_softmax(np.array([[3.0], [5.0], [-1.0]]), np.array([[False], [True], [False]]))
        np.testing.assert_allclose(w[:, 0], [0, 1, 0], atol=0)

    def test_uniform_over_equal_logits(self):
        w = masked_softmax(np.full((5, 1), 2.0), np.array([1, 1, 0, 1, 1], dtype=bool)[:, None])
        np.testing.assert_allclose(w[:, 0], [0.25, 0.25, 0, 0.25, 0.25], atol=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((20, 9))
        mask = rng.random((20, 9)) > 0.3
        mask[:, 0] = True
        w = masked_softmax(logits.T * 0.7, mask.T)   # key-major (9, 20)
        for i in range(20):
            e = np.exp(logits[i][mask[i]] * 0.7)
            want = e / e.sum()
            np.testing.assert_allclose(w[:, i][mask[i]], want, atol=1e-12)
            assert abs(w[:, i].sum() - 1.0) < 1e-12

    def test_all_masked_no_nans(self):
        w = masked_softmax(np.array([[1.0], [2.0]]), np.zeros((2, 1), dtype=bool))
        assert np.all(w == 0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((11, 1))
        mask = rng.random((11, 1)) > 0.4
        w1 = masked_softmax(logits.copy(), mask)
        w2 = masked_softmax(logits + 123.456, mask)
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_extreme_logits_stable(self):
        w = masked_softmax(np.array([[1e4], [-1e4], [0.0]]), np.ones((3, 1), dtype=bool))
        assert np.all(np.isfinite(w)) and abs(w.sum() - 1) < 1e-12

    @pytest.mark.parametrize("shape", [(7, 1), (2, 5, 9, 1)])
    def test_no_mask_is_byte_identical_to_an_all_true_mask(self, shape):
        logits = np.random.default_rng(5).standard_normal(shape) * 30.0
        w_none = masked_softmax(logits * 0.3, None)
        w_ones = masked_softmax(logits * 0.3, np.ones(shape, dtype=bool))
        assert w_none.tobytes() == w_ones.tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float16])
    def test_other_logits_become_a_float64_copy(self, dtype):
        logits = np.arange(12).reshape(4, 3).astype(dtype)
        kept = logits.copy()
        w = masked_softmax(logits, None)
        assert w.dtype == np.float64 and not np.shares_memory(w, logits)
        assert logits.tobytes() == kept.tobytes()
        assert w.tobytes() == masked_softmax(kept.astype(np.float64), None).tobytes()


def softmax_oracle(logits, mask, scale=1.0, axis=-1):
    """``masked_softmax`` as it was before it worked in place: a fresh
    full-size array per step. Kept verbatim as the oracle."""
    logits = np.asarray(logits, dtype=np.float64) * scale
    if mask is None:
        has_valid = np.ones(np.delete(logits.shape, axis), dtype=bool)
        neg = logits
    else:
        mask = np.asarray(mask, dtype=bool)
        has_valid = mask.any(axis=axis)
        neg = np.where(mask, logits, -np.inf)
    peak = np.max(neg, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    ex = np.exp(neg - peak)
    if mask is not None:
        ex = np.where(mask, ex, 0.0)
    denom = ex.sum(axis=axis, keepdims=True)
    weights = np.divide(ex, denom, out=np.zeros_like(ex), where=denom > 0)
    return weights, has_valid


def _special_rows(logits, mask):
    """Rows 0-6 of (rows, S) copies made all-masked, +inf, all -inf, NaN
    (seen and masked), +inf twice and -inf."""
    logits, mask = logits.copy(), mask.copy()
    mask[0] = False
    logits[1, 0] = np.inf
    logits[2, :] = -np.inf
    logits[3, 1] = np.nan
    logits[4, 2] = np.nan
    mask[4, 2] = False
    logits[5, 1:3] = np.inf
    logits[6, 0] = -np.inf
    return logits, mask


def _softmax_cases():
    rng = np.random.default_rng(11)
    for shape, mask_shape in (((9,), (9,)), ((2, 256, 256), (2, 256, 256)),
                              ((1, 40, 1, 17), (1, 40, 1, 17)),
                              ((3, 40, 1, 17), (1, 40, 1, 17))):
        logits = rng.standard_normal(shape) * 8.0
        mask = rng.random(mask_shape) > 0.3
        yield f"finite {shape}", logits, None
        yield f"finite-masked {shape}", logits, mask
        if len(shape) == 1:       # one special row per call
            rows, row_masks = _special_rows(np.tile(logits, (7, 1)), np.tile(mask, (7, 1)))
            for i in range(7):
                yield f"special row {i}", rows[i], None
                yield f"special-masked row {i}", rows[i], row_masks[i]
            continue
        flat = (-1, shape[-1])
        special, special_mask = _special_rows(
            logits.reshape(flat), np.broadcast_to(mask, shape).reshape(flat))
        yield f"special {shape}", special.reshape(shape), None
        yield f"special-masked {shape}", special.reshape(shape), special_mask.reshape(shape)


def where_divide_softmax(logits, mask, out=None, axis=-1):
    """``masked_softmax`` as it was while it divided only the live rows
    (``where=live``) and then zeroed the dead ones. Kept verbatim as the
    oracle."""
    x = np.asarray(logits)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    if mask is not None:
        if x is not out:
            out = x = np.positive(x, out=out)   # a copy to mask in
        np.copyto(x, -np.inf, where=~np.asarray(mask, dtype=bool))
    peak = np.max(x, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    ex = np.subtract(x, peak, out=out)
    np.exp(ex, out=ex)         # masked entries: exp(-inf) = 0
    denom = ex.sum(axis=axis, keepdims=True)
    live = denom > 0
    if live.all():
        ex /= denom
    else:
        np.divide(ex, denom, out=ex, where=live)
        np.copyto(ex, 0.0, where=~live)   # all-masked and NaN rows
    return ex


def out_axis_softmax(logits, mask, out=None, axis=-1):
    """``masked_softmax`` as it was while it took an ``out`` buffer and an
    ``axis``, and copied the caller's logits unless ``out`` was them. Kept
    verbatim as the oracle."""
    x = np.asarray(logits)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    if mask is not None:
        if x is not out:
            out = x = np.positive(x, out=out)   # a copy to mask in
        np.copyto(x, -np.inf, where=~np.asarray(mask, dtype=bool))
    peak = np.max(x, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    ex = np.subtract(x, peak, out=out)
    np.exp(ex, out=ex)         # masked entries: exp(-inf) = 0
    denom = ex.sum(axis=axis, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        ex /= denom
    live = denom > 0
    if not live.all():
        np.copyto(ex, 0.0, where=~live)   # all-masked and NaN rows
    return ex


def _key_major_cases():
    """The cases of ``_softmax_cases()`` laid out for a softmax over axis
    -2: each with two or more axes as given and with its last two axes
    swapped, and each one-axis row as a column, so that the special rows
    are special key columns too."""
    def swapped(a):
        return None if a is None else np.ascontiguousarray(np.swapaxes(a, -1, -2))

    for name, logits, mask in _softmax_cases():
        if logits.ndim == 1:
            yield f"{name} column", logits[:, None], None if mask is None else mask[:, None]
            continue
        yield name, logits, mask
        yield f"{name} swapped", swapped(logits), swapped(mask)


class TestSoftmaxDualRoute:
    """The in-place key-axis softmax against its frozen predecessors, byte
    for byte."""

    @pytest.mark.parametrize("scale", [1.0, 0.37])
    def test_weights_are_byte_identical(self, scale):
        for name, logits, mask in _key_major_cases():
            scaled = logits * scale
            with np.errstate(invalid="ignore"):   # inf - inf, inf / inf
                w_want, _ = softmax_oracle(logits, mask, scale=scale, axis=-2)
                w = masked_softmax(scaled, mask)
            assert w is scaled, f"{name}: the caller's logits were not softmaxed in place"
            assert w.shape == w_want.shape and w.dtype == w_want.dtype, name
            assert w.tobytes() == w_want.tobytes(), name

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_is_byte_identical_to_the_out_axis_form(self, dtype, masked):
        """Over every case with two or more axes, with and without its mask:
        the weights of the removed copy form (``axis=-2``), of its ``out=``
        form into the logits themselves and into a fresh buffer, and of
        the in-place call are the same bytes, and the in-place call
        returns the caller's array."""
        for name, logits, mask in _softmax_cases():
            if logits.ndim < 2:
                continue
            m = mask if masked else None
            x = np.ascontiguousarray(logits, dtype=dtype)
            own, buf = x.copy(), np.full_like(x, 7.0)
            with np.errstate(invalid="ignore"):
                want = out_axis_softmax(x, m, axis=-2)
                want_own = out_axis_softmax(own, m, out=own, axis=-2)
                want_buf = out_axis_softmax(x, m, out=buf, axis=-2)
                w = masked_softmax(x, m)
            assert w is x and w.dtype == dtype, name
            for other in (want, want_own, want_buf):
                assert w.tobytes() == other.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_key_axis_is_the_last_axis_softmax_of_the_transposed_view(self, dtype):
        """A softmax over axis -2 has the bytes of the old softmax over the
        last axis of the swapped view: the same operations in the same
        memory order."""
        for name, logits, mask in _key_major_cases():
            x = np.ascontiguousarray(logits, dtype=dtype)
            m = None if mask is None else mask.swapaxes(-1, -2)
            with np.errstate(invalid="ignore"):
                want = out_axis_softmax(x.swapaxes(-1, -2), m)
                w = masked_softmax(x, mask)
            assert w.dtype == want.dtype == dtype, name
            assert w.swapaxes(-1, -2).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_divide_all_rows_is_byte_identical_to_the_live_row_divide(self, dtype):
        """Every column divided, then the dead ones zeroed: all-live, partly
        masked, all-masked and NaN columns keep the bytes of the divide
        restricted to the live columns."""
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((1, 32, 1024)) * 4.0   # slot-major (h, S, N)
        mask = rng.random((32, 1024)) > 0.3
        mask[:, :4] = False                                # 4 dead queries
        logits[0, 5, 6], mask[5, 6] = np.nan, True         # and a NaN one
        cases = [("epipolar", logits, mask), ("epipolar-live", logits, None)]
        cases += list(_key_major_cases())
        for name, x, m in cases:
            x = np.ascontiguousarray(x, dtype=dtype)
            old, new = x.copy(), x.copy()
            with np.errstate(invalid="ignore"):
                want = where_divide_softmax(old, m, axis=-2, out=old)
                got = masked_softmax(new, m)
            assert got.dtype == want.dtype == dtype, name
            assert got.tobytes() == want.tobytes(), name
        dead = masked_softmax(np.ascontiguousarray(logits, dtype=dtype), mask)
        assert np.all(dead[..., :4] == 0.0) and np.all(dead[..., 6] == 0.0)
        assert np.isfinite(dead).all()

    def test_full_similarity_logits_are_softmaxed_in_place(self):
        rng = np.random.default_rng(12)
        fm = FeatureMap(rng.standard_normal((6, 5, 4)))
        params = AttentionParams.seeded(4, 2, rng)
        # a reader's full-attention weights: the core's fresh logits, softmaxed
        logits = full_logits(fm, [project_context(fm, params)], params)[:, 0]
        kept = logits.copy()
        weights = masked_softmax(logits, None)   # key-major: over the keys
        assert weights is logits
        assert weights.tobytes() == out_axis_softmax(kept, None, axis=-2).tobytes()


def matmul_linear(lin: LinearMap, fm: FeatureMap) -> FeatureMap:
    """apply_linear's general route, frozen as the oracle of its identity
    shortcut: a float64 product."""
    out = fm.flat().astype(np.float64) @ lin.weight.T.astype(np.float64)
    return FeatureMap(out.reshape(fm.height, fm.width, lin.out_dim))


class TestApplyLinear:
    def test_identity(self):
        """An identity map hands back its input, with the oracle's bytes (up
        to the sign of a zero); a map that only looks like one, or that was
        the identity before its weight was written, takes the product."""
        rng = np.random.default_rng(4)
        for c in (1, 3, 5, 16):
            data = rng.standard_normal((3, 4, c)).astype(np.float32)
            data.flat[::5] = 0.0
            data.flat[2::7] = -0.0
            fm = FeatureMap(data)
            eye = LinearMap.identity(c)
            out = apply_linear(eye, fm)
            assert out is fm
            assert np.array_equal(out.data, matmul_linear(eye, fm).data)
        nudged = np.eye(3)
        nudged[0, 2] = 1e-7
        fm3 = FeatureMap(data[..., :3])
        written = LinearMap.identity(3)
        assert apply_linear(written, fm3) is fm3
        written.weight[1, 0] = 0.5
        for lin in (LinearMap(nudged), written):
            out = apply_linear(lin, fm3)
            assert out is not fm3
            assert np.array_equal(out.data, matmul_linear(lin, fm3).data)
        assert not np.array_equal(out.data, fm3.data)   # the write shows
        np.testing.assert_allclose(out.data[..., 1], fm3.data[..., 1] + 0.5 * fm3.data[..., 0],
                                   rtol=1e-6, atol=1e-6)

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(6)
        fm = FeatureMap(rng.standard_normal((4, 6, 3)))
        lin = LinearMap(weight=rng.standard_normal((5, 3)))
        out = apply_linear(lin, fm)
        w = lin.weight.astype(np.float64)
        for y in range(4):
            for x in range(6):
                want = w @ fm.data[y, x].astype(np.float64)
                np.testing.assert_allclose(out.data[y, x], want, atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_linear(LinearMap.identity(4), FeatureMap(np.zeros((2, 2, 3))))

    def test_linear_in_input(self):
        # dyadic-rational inputs so float32 storage is exact and the test
        # isolates the linear property itself
        rng = np.random.default_rng(7)
        a = rng.integers(-64, 64, (3, 3, 4)) / 64.0
        b = rng.integers(-64, 64, (3, 3, 4)) / 64.0
        lin = LinearMap(weight=rng.integers(-8, 8, (4, 4)) / 8.0)
        fa = apply_linear(lin, FeatureMap(a)).data.astype(np.float64)
        fb = apply_linear(lin, FeatureMap(b)).data.astype(np.float64)
        fab = apply_linear(lin, FeatureMap(a - 2 * b)).data.astype(np.float64)
        np.testing.assert_allclose(fab, fa - 2 * fb, atol=1e-9)


class TestDownsample:
    def test_block_mean(self):
        data = np.arange(16, dtype=float).reshape(4, 4, 1)
        out = downsample_mean(FeatureMap(data), 2)
        want = np.array([[2.5, 4.5], [10.5, 12.5]]).reshape(2, 2, 1)
        np.testing.assert_allclose(out.data, want, atol=1e-6)

    def test_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            downsample_mean(FeatureMap(np.zeros((5, 4, 1))), 2)
