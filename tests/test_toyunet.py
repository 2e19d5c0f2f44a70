"""Toy UNet: analytic gradients against finite differences, the shared
forward stages against frozen copies of the two hand-written forwards,
trainer smoke, and checkpoint persistence."""

import numpy as np
import pytest

from epiview.attention import self_attention
from epiview.diffusion import AttentionStage, Condition, NoiseSchedule
from epiview.numerics import FeatureMap
from epiview.scenegen import make_scene, make_trajectory, render
from epiview.toyunet import ToyUNet, _col2im, _conv, _im2col, _upsample2, train_overfit


def tiny_net(seed=0):
    return ToyUNet(seed=seed, c1=4, c2=6, heads=2, dtype=np.float64)


# --- oracles: the inference and training forwards as each was written out
# in full before they shared one encoder, decoder and attention core


def _softmax_rows(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_predict(self, x_t, t, cond, sched, stage_cb=None):
    p = self.params
    x = np.asarray(x_t, dtype=self.dtype)
    h1, _ = _conv(x, p["enc1.w"], p["enc1.b"], 1)
    h1 = np.maximum(h1, 0)
    h2, _ = _conv(h1, p["enc2.w"], p["enc2.b"], 2)
    h2 = np.maximum(h2, 0)
    h2 = h2 + self._embedding(t, cond, sched)

    fm = FeatureMap(h2)
    attn_params = self.attention_params()
    attn_out = self_attention(fm, attn_params)
    if stage_cb is not None:
        replacement = stage_cb(AttentionStage(layer="bottleneck", feature=fm,
                                              params=attn_params, baseline=attn_out))
        if replacement is not None:
            attn_out = replacement
    h3 = h2 + attn_out.data.astype(self.dtype)

    u1, _ = _conv(_upsample2(h3), p["dec1.w"], p["dec1.b"], 1)
    u1 = np.maximum(u1, 0)
    out, _ = _conv(u1, p["dec2.w"], p["dec2.b"], 1)
    return out.astype(np.float64)


def oracle_forward_train(self, x, t, cond, sched):
    p = self.params
    cache: dict = {"x": x}
    a1, cols1 = _conv(x, p["enc1.w"], p["enc1.b"], 1)
    h1 = np.maximum(a1, 0)
    a2, cols2 = _conv(h1, p["enc2.w"], p["enc2.b"], 2)
    h2 = np.maximum(a2, 0)
    emb = self._embedding(t, cond, sched)
    hb = h2 + emb

    hh, ww, c = hb.shape
    n, hd = hh * ww, c // self.heads
    flat = hb.reshape(n, c)
    q = flat @ p["attn.q.w"].T + p["attn.q.b"]
    k = flat @ p["attn.k.w"].T + p["attn.k.b"]
    v = flat @ p["attn.v.w"].T + p["attn.v.b"]
    qh = q.reshape(n, self.heads, hd).transpose(1, 0, 2)
    kh = k.reshape(n, self.heads, hd).transpose(1, 0, 2)
    vh = v.reshape(n, self.heads, hd).transpose(1, 0, 2)
    logits = qh @ kh.transpose(0, 2, 1) / np.sqrt(hd)
    attn = _softmax_rows(logits)
    mixed = (attn @ vh).transpose(1, 0, 2).reshape(n, c)
    attn_out = mixed @ p["attn.o.w"].T + p["attn.o.b"]
    h3 = hb + attn_out.reshape(hh, ww, c)

    up = _upsample2(h3)
    a3, cols3 = _conv(up, p["dec1.w"], p["dec1.b"], 1)
    u1 = np.maximum(a3, 0)
    out, cols4 = _conv(u1, p["dec2.w"], p["dec2.b"], 1)

    cache.update(a1=a1, cols1=cols1, h1=h1, a2=a2, cols2=cols2, hb=hb,
                 q=qh, k=kh, v=vh, attn=attn, mixed=mixed, flat=flat,
                 up=up, a3=a3, cols3=cols3, u1=u1, cols4=cols4)
    return out, cache


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
    @pytest.mark.parametrize("c", [1, 3, 8])
    def test_col2im_is_the_adjoint(self, stride, c):
        # <im2col(x), y> == <x, col2im(y)> for every x and y
        rng = np.random.default_rng(40 + stride * 10 + c)
        x = rng.standard_normal((7, 5, c))
        cols, _ = _im2col(x, stride)
        y = rng.standard_normal(cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * _col2im(y, x.shape, stride)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


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

    @pytest.mark.parametrize("net,atol", [(tiny_net(3), 1e-12),
                                          (ToyUNet(seed=3, c1=4, c2=6, heads=2), 1e-5)],
                             ids=["float64", "float32"])
    def test_forward_train_and_cache_match_the_oracle(self, net, atol):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 8, 3)).astype(net.dtype)
        sched = NoiseSchedule.linear_beta(8)
        cond = Condition(rel_pose=Condition.reference().rel_pose, d_spherical=(10.0, -30.0, 0.1))
        want, want_cache = oracle_forward_train(net, x, 5, cond, sched)
        got, cache = net.forward_train(x, 5, cond, sched)
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
        assert set(cache) == set(want_cache) - {"hb"}
        for key, value in cache.items():
            np.testing.assert_allclose(value, want_cache[key], rtol=0, atol=atol, err_msg=key)


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        net = tiny_net()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 8, 3))
        z = rng.standard_normal((8, 8, 3))
        sched = NoiseSchedule.linear_beta(8)
        cond = Condition.reference()
        t = 3

        def loss_of():
            out, _ = net.forward_train(x, t, cond, sched)
            return float(np.mean((out - z) ** 2))

        out, cache = net.forward_train(x, t, cond, sched)
        grads = net.backward(cache, (2.0 / out.size) * (out - z))

        rng2 = np.random.default_rng(1)
        h = 1e-6
        for name in ("enc1.w", "enc2.b", "attn.q.w", "attn.k.w", "attn.v.b",
                     "attn.o.w", "dec1.w", "dec2.b"):
            p = net.params[name]
            flat = p.reshape(-1)
            for idx in rng2.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_of()
                flat[idx] = orig - h
                dn = loss_of()
                flat[idx] = orig
                numeric = (up - dn) / (2 * h)
                analytic = grads[name].reshape(-1)[idx]
                assert abs(numeric - analytic) < 1e-5 * max(1.0, abs(numeric)), name

    def test_train_path_matches_inference_path(self):
        net = tiny_net(seed=2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 8, 3))
        sched = NoiseSchedule.linear_beta(8)
        cond = Condition.reference()
        out_train, _ = net.forward_train(x, 4, cond, sched)
        out_pred = net.predict(x, 4, cond, sched)
        # the inference path stores the bottleneck in float32 feature maps,
        # so agreement is at feature-storage precision
        np.testing.assert_allclose(out_train, out_pred, atol=1e-5)


class TestTrainer:
    def test_loss_decreases(self, intrinsics32):
        scene = make_scene(1, "distinctive")
        cams = make_trajectory("fixed16", 0)[:2]
        views = [render(scene, c, intrinsics32).rgb.data for c in cams]
        net = ToyUNet(seed=0)
        sched = NoiseSchedule.linear_beta(10)
        losses = train_overfit(net, views, [Condition.reference()] * 2, sched,
                               steps=80, lr=3e-3, seed=0)
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_deterministic(self, intrinsics32):
        scene = make_scene(1, "distinctive")
        view = render(scene, make_trajectory("fixed16", 0)[0], intrinsics32).rgb.data
        sched = NoiseSchedule.linear_beta(10)
        runs = []
        for _ in range(2):
            net = ToyUNet(seed=0)
            losses = train_overfit(net, [view], [Condition.reference()], sched,
                                   steps=10, seed=7)
            runs.append((losses, net.params["enc1.w"].copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])


class TestAttentionBlock:
    """The bottleneck block is built once per parameter dict."""

    def test_repeated_predicts_reuse_one_block(self):
        net = ToyUNet(seed=4, c1=4, c2=6, heads=2)
        x = np.random.default_rng(4).standard_normal((8, 8, 3))
        sched = NoiseSchedule.linear_beta(8)
        blocks = []
        for t in (2, 5, 8):
            net.predict(x, t, Condition.reference(), sched, stage_cb=blocks.append)
        assert len(blocks) == 3
        assert all(stage.params is net.attention_params() for stage in blocks)

    def test_a_new_params_dict_rebuilds_the_block(self):
        net = ToyUNet(seed=4, c1=4, c2=6, heads=2)
        before = net.attention_params()
        net.params = dict(net.params, **{"attn.q.w": net.params["attn.q.w"] * 2})
        after = net.attention_params()
        assert after is not before
        assert np.array_equal(after.q_proj.weight, before.q_proj.weight * 2)

    def test_predict_after_training_matches_a_fresh_net(self):
        net = ToyUNet(seed=5, c1=4, c2=6, heads=2)
        rng = np.random.default_rng(5)
        views = [rng.random((8, 8, 3)) for _ in range(2)]
        sched = NoiseSchedule.linear_beta(8)
        cond = Condition.reference()
        x = rng.standard_normal((8, 8, 3))
        untrained = net.predict(x, 4, cond, sched)
        train_overfit(net, views, [cond] * 2, sched, steps=3, lr=1e-2, seed=5)
        got = net.predict(x, 4, cond, sched)
        fresh = ToyUNet(params=net.params, c1=4, c2=6, heads=2).predict(x, 4, cond, sched)
        assert got.tobytes() == fresh.tobytes()
        assert not np.array_equal(got, untrained)


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        net = ToyUNet(seed=9)
        path = tmp_path / "net.bin"
        net.save(path)
        loaded = ToyUNet.load(path)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((32, 32, 3))
        sched = NoiseSchedule.linear_beta(10)
        a = net.predict(x, 5, Condition.reference(), sched)
        b = loaded.predict(x, 5, Condition.reference(), sched)
        assert np.array_equal(a, b)

    def test_header_fields(self, tmp_path):
        from epiview.fileio import read_checkpoint
        net = ToyUNet(seed=9)
        path = tmp_path / "net.bin"
        net.save(path)
        arrays, header = read_checkpoint(path)
        assert header["seed"] == 9
        assert set(arrays) == set(net.params)
