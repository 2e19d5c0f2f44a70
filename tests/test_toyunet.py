"""Toy UNet: the forward against a frozen copy of the hand-written
inference forward, the strided im2col against its loop, the seeded
weights' bytes, and the once-built attention block."""

import hashlib

import numpy as np
import pytest

from epiview.attention import self_attention
from epiview.diffusion import AttentionStage, Condition, NoiseSchedule
from epiview.numerics import FeatureMap
from epiview.toyunet import DTYPE, ToyUNet, _im2col, _upsample2


# --- oracle: the inference forward as it was written out in full before it
# was split into an encoder and a decoder, with the conv biases it added,
# which were all zero


def oracle_conv(x, w, b, stride):
    """3x3 convolution with a bias, as it was. Kept verbatim as the oracle."""
    cols, (ho, wo) = _im2col(x, stride)
    return (cols @ w.T + b).reshape(ho, wo, -1)


def oracle_predict(self, x_t, t, cond, sched, stage_cb=None):
    p = self.params
    b = {name: np.zeros(w.shape[0], dtype=DTYPE) for name, w in p.items()}
    x = np.asarray(x_t, dtype=DTYPE)
    h1 = oracle_conv(x, p["enc1"], b["enc1"], 1)
    h1 = np.maximum(h1, 0)
    h2 = oracle_conv(h1, p["enc2"], b["enc2"], 2)
    h2 = np.maximum(h2, 0)
    h2 = h2 + self._embedding(t, cond, sched)

    fm = FeatureMap(h2)
    attn_params = self.attention
    attn_out = self_attention(fm, attn_params)
    if stage_cb is not None:
        replacement = stage_cb(AttentionStage(layer="bottleneck", feature=fm,
                                              params=attn_params, baseline=attn_out))
        if replacement is not None:
            attn_out = replacement
    h3 = h2 + attn_out.data.astype(DTYPE)

    u1 = oracle_conv(_upsample2(h3), p["dec1"], b["dec1"], 1)
    u1 = np.maximum(u1, 0)
    out = oracle_conv(u1, p["dec2"], b["dec2"], 1)
    return out.astype(np.float64)


def oracle_im2col(x, stride):
    """``_im2col`` as it was before it used a strided window view: a
    padded copy and nine slice copies. Kept verbatim as the oracle."""
    h, w, c = x.shape
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    ho = (h + 2 - 3) // stride + 1
    wo = (w + 2 - 3) // stride + 1
    cols = np.empty((ho, wo, 3, 3, c), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            cols[:, :, di, dj, :] = xp[di:di + ho * stride:stride, dj:dj + wo * stride:stride, :]
    return cols.reshape(ho * wo, 9 * c), (ho, wo)


def oracle_window_view_im2col(x, stride):
    """``_im2col`` as it was before it built its window with one
    ``as_strided`` view: a ``sliding_window_view`` of the padded buffer,
    transposed. Kept verbatim as the oracle."""
    from numpy.lib.stride_tricks import sliding_window_view
    h, w, c = x.shape
    xp = np.zeros((h + 2, w + 2, c), dtype=x.dtype)
    xp[1:-1, 1:-1] = x
    win = sliding_window_view(xp, (3, 3), axis=(0, 1))[::stride, ::stride]   # (ho, wo, C, 3, 3)
    ho, wo = win.shape[:2]
    return win.transpose(0, 1, 3, 4, 2).reshape(ho * wo, 9 * c), (ho, wo)


class TestIm2colDualRoute:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("c", [1, 3, 8])
    @pytest.mark.parametrize("hw", [(7, 5), (9, 9), (8, 6)])
    def test_byte_identical_to_the_loop(self, stride, c, hw):
        rng = np.random.default_rng(stride * 100 + c)
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal(hw + (c,)).astype(dtype)
            before = x.tobytes()
            cols, size = _im2col(x, stride)
            want, want_size = oracle_im2col(x, stride)
            assert size == want_size
            assert cols.shape == want.shape and cols.dtype == want.dtype
            assert cols.tobytes() == want.tobytes()
            assert x.tobytes() == before

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("shape", [(32, 32, 3), (32, 32, 8), (32, 32, 16), (16, 16, 16),
                                       (7, 5, 8), (9, 13, 3), (1, 1, 2)],
                             ids=["enc1", "enc2-dec2", "dec1", "bottleneck", "odd-7x5",
                                  "odd-9x13", "one-pixel"])
    def test_byte_identical_to_the_window_view_body(self, shape, stride):
        """The four conv inputs of a predict (enc1, enc2 at stride 2, dec1
        after the upsample, dec2), a bottleneck-sized map and odd sizes."""
        rng = np.random.default_rng(sum(shape) + stride)
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal(shape).astype(dtype)
            cols, size = _im2col(x, stride)
            want, want_size = oracle_window_view_im2col(x, stride)
            assert size == want_size
            assert cols.shape == want.shape and cols.dtype == want.dtype
            assert cols.tobytes() == want.tobytes()


class TestSharedForwardDualRoute:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("replace", [False, True])
    def test_predict_is_byte_identical_to_the_oracle(self, seed, replace):
        net = ToyUNet(seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((32, 32, 3))
        sched = NoiseSchedule.linear_beta(10)
        cond = Condition.reference()

        def cb(stage):   # a replacement that is not the baseline, so it must reach the decoder
            return FeatureMap(stage.baseline.data * 0.5 + stage.feature.data) if replace else None

        for t in (1, 7):
            want = oracle_predict(net, x, t, cond, sched, stage_cb=cb)
            got = net.predict(x, t, cond, sched, stage_cb=cb)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSeededWeights:
    def test_a_seed_keeps_its_bytes(self):
        """The weights of seeds 0 and 3, which the benchmark and the frozen
        round-trip use, hashed in draw order: the bytes they had when the
        net also held (all-zero) biases."""
        for seed, want in ((0, "c6ed8d3d3f85e379"), (3, "4a16f0cebe11fe82")):
            h = hashlib.sha256()
            for value in ToyUNet(seed=seed).params.values():
                h.update(value.tobytes())
            assert h.hexdigest()[:16] == want, seed


class TestAttentionBlock:
    """The bottleneck block is built once, with the net."""

    def test_repeated_predicts_reuse_one_block(self):
        net = ToyUNet(seed=4)
        x = np.random.default_rng(4).standard_normal((8, 8, 3))
        sched = NoiseSchedule.linear_beta(8)
        blocks = []
        for t in (2, 5, 8):
            net.predict(x, t, Condition.reference(), sched, stage_cb=blocks.append)
        assert len(blocks) == 3
        assert all(stage.params is net.attention for stage in blocks)
