"""A small encoder/decoder denoiser with one genuine multi-head
self-attention block at the bottleneck and additive time/pose embeddings.

Weights are seeded-random by default; an optional overfit trainer uses
explicitly coded analytic gradients (verified against finite differences
in the tests) so no autodiff framework is needed.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attention import AttentionParams, _heads, _logits, self_attention
from .diffusion import AttentionStage, Condition, Denoiser, NoiseSchedule
from .errors import DataError
from .fileio import read_checkpoint, write_checkpoint
from .numerics import FeatureMap, LinearMap, masked_softmax

__all__ = ["ToyUNet", "train_overfit"]


def _param_shapes(c1: int, c2: int) -> dict:
    """Every parameter's shape, in initialisation order; conv weights are (Cout, 9*Cin)."""
    weights = {"enc1": (c1, 27), "enc2": (c2, 9 * c1), "attn.q": (c2, c2), "attn.k": (c2, c2),
               "attn.v": (c2, c2), "attn.o": (c2, c2), "dec1": (c1, 9 * c2), "dec2": (3, 9 * c1)}
    return {f"{n}.{p}": (s if p == "w" else s[:1]) for n, s in weights.items() for p in "wb"}


def _sinusoidal(values: np.ndarray, dim: int) -> np.ndarray:
    """Sum of sinusoidal embeddings of a few scalars, length ``dim``."""
    half = dim // 2
    freqs = np.exp(-np.log(1000.0) * np.arange(half) / max(half - 1, 1))
    emb = np.zeros(dim)
    for v in np.atleast_1d(values):
        ang = v * freqs
        emb[:half] += np.sin(ang)
        emb[half:half * 2] += np.cos(ang)
    return emb


def _im2col(x: np.ndarray, stride: int):
    """(H, W, C) -> (Hout*Wout, C*9) patches of a padded 3x3 window: one
    zero-padded buffer, and one copy of its strided window view."""
    h, w, c = x.shape
    xp = np.zeros((h + 2, w + 2, c), dtype=x.dtype)
    xp[1:-1, 1:-1] = x
    win = sliding_window_view(xp, (3, 3), axis=(0, 1))[::stride, ::stride]   # (ho, wo, C, 3, 3)
    ho, wo = win.shape[:2]
    return win.transpose(0, 1, 3, 4, 2).reshape(ho * wo, 9 * c), (ho, wo)


def _col2im(dcols: np.ndarray, shape, stride: int):
    """Adjoint of :func:`_im2col`."""
    h, w, c = shape
    ho = (h + 2 - 3) // stride + 1
    wo = (w + 2 - 3) // stride + 1
    d = dcols.reshape(ho, wo, 3, 3, c)
    dxp = np.zeros((h + 2, w + 2, c), dtype=dcols.dtype)
    for di in range(3):
        for dj in range(3):
            dxp[di:di + ho * stride:stride, dj:dj + wo * stride:stride, :] += d[:, :, di, dj, :]
    return dxp[1:-1, 1:-1, :]


def _conv(x, w, b, stride):
    """3x3 convolution; w is (Cout, 9*Cin)."""
    cols, (ho, wo) = _im2col(x, stride)
    y = cols @ w.T + b
    return y.reshape(ho, wo, -1), cols


def _conv_back(dy, cols, w, x_shape, stride):
    dyf = dy.reshape(-1, dy.shape[-1])
    dw = dyf.T @ cols
    db = dyf.sum(axis=0)
    dx = _col2im(dyf @ w, x_shape, stride)
    return dx, dw, db


def _upsample2(x):
    return np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)


def _upsample2_back(dy):
    h, w, c = dy.shape
    return dy.reshape(h // 2, 2, w // 2, 2, c).sum(axis=(1, 3))


class ToyUNet(Denoiser):
    """Two conv stages down, attention at the bottleneck, two stages up.

    The bottleneck's attention block is built from ``params`` once, and
    again whenever a new parameter dict is assigned to ``params``, as
    :func:`train_overfit` does after every step. Arrays changed in place
    are not seen by the block until then.
    """

    def __init__(self, params: dict | None = None, seed: int = 0,
                 c1: int = 8, c2: int = 16, heads: int = 2, dtype=np.float32):
        self.c1, self.c2, self.heads = c1, c2, heads
        self.seed = seed
        self.dtype = dtype
        self.params = params if params is not None else self._init_params(seed)

    @property
    def params(self) -> dict:
        return self._params

    @params.setter
    def params(self, params: dict):
        self._params = params
        self._attention = None   # rebuilt from the new arrays on first use

    def _init_params(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in _param_shapes(self.c1, self.c2).items():
            if name.endswith(".b"):
                params[name] = np.zeros(shape, dtype=self.dtype)
            else:
                gain = 1.0 if name.startswith("attn.") else 2.0
                params[name] = (rng.standard_normal(shape) * np.sqrt(gain / shape[1])).astype(self.dtype)
        return params

    def attention_params(self) -> AttentionParams:
        """The bottleneck's attention block, built once per parameter dict."""
        if self._attention is None:
            p = self.params
            self._attention = AttentionParams(
                q_proj=LinearMap(p["attn.q.w"], p["attn.q.b"]),
                k_proj=LinearMap(p["attn.k.w"], p["attn.k.b"]),
                v_proj=LinearMap(p["attn.v.w"], p["attn.v.b"]),
                out_proj=LinearMap(p["attn.o.w"], p["attn.o.b"]),
                heads=self.heads,
                dtype=self.dtype,
            )
        return self._attention

    def _embedding(self, t: int, cond: Condition, sched: NoiseSchedule) -> np.ndarray:
        de, da, dr = cond.d_spherical
        scalars = np.array([t / max(sched.steps, 1),
                            de / 90.0, da / 180.0, dr], dtype=np.float64)
        return _sinusoidal(scalars, self.c2).astype(self.dtype)

    # forward stages, shared by inference and training -------------------

    def _encode(self, x, t, cond, sched):
        """Two conv stages down plus the embedding: the bottleneck map and
        the activations :meth:`backward` reads."""
        p = self.params
        a1, cols1 = _conv(x, p["enc1.w"], p["enc1.b"], 1)
        h1 = np.maximum(a1, 0)
        a2, cols2 = _conv(h1, p["enc2.w"], p["enc2.b"], 2)
        hb = np.maximum(a2, 0) + self._embedding(t, cond, sched)
        return hb, dict(x=x, a1=a1, cols1=cols1, h1=h1, a2=a2, cols2=cols2)

    def _decode(self, h3):
        """Upsample and two conv stages: the output and the activations
        :meth:`backward` reads."""
        p = self.params
        up = _upsample2(h3)
        a3, cols3 = _conv(up, p["dec1.w"], p["dec1.b"], 1)
        u1 = np.maximum(a3, 0)
        out, cols4 = _conv(u1, p["dec2.w"], p["dec2.b"], 1)
        return out, dict(up=up, a3=a3, cols3=cols3, u1=u1, cols4=cols4)

    def predict(self, x_t, t, cond, sched, stage_cb=None):
        hb = self._encode(np.asarray(x_t, dtype=self.dtype), t, cond, sched)[0]
        hb.setflags(write=False)   # never written again, so the map shares it uncopied
        fm = FeatureMap(hb)
        attn_params = self.attention_params()
        attn_out = self_attention(fm, attn_params)
        if stage_cb is not None:
            replacement = stage_cb(AttentionStage(layer="bottleneck", feature=fm,
                                                  params=attn_params, baseline=attn_out))
            if replacement is not None:
                attn_out = replacement
        return self._decode(hb + attn_out.data.astype(self.dtype))[0].astype(np.float64)

    # training path (explicit gradients) ---------------------------------

    def forward_train(self, x, t, cond, sched):
        """Forward pass that keeps every activation needed for backward.
        The attention runs on the library's core, in float64."""
        p = self.params
        hb, cache = self._encode(x, t, cond, sched)
        n = hb.shape[0] * hb.shape[1]
        flat = hb.reshape(n, -1)
        q, k, v = (_heads(flat @ p[f"attn.{s}.w"].T + p[f"attn.{s}.b"], self.heads) for s in "qkv")
        attn = masked_softmax(_logits(q, k), None)
        mixed = np.moveaxis(attn @ v, 0, -2).reshape(n, -1)
        out, dec = self._decode(hb + (mixed @ p["attn.o.w"].T + p["attn.o.b"]).reshape(hb.shape))
        cache.update(dec, flat=flat, q=q, k=k, v=v, attn=attn, mixed=mixed)
        return out, cache

    def backward(self, cache: dict, dout: np.ndarray) -> dict:
        """Gradients of a scalar loss w.r.t. every parameter, given the
        gradient at the network output."""
        p = self.params
        g: dict = {}
        du1, g["dec2.w"], g["dec2.b"] = _conv_back(dout, cache["cols4"], p["dec2.w"],
                                                   cache["u1"].shape, 1)
        du1 = du1 * (cache["a3"] > 0)
        dup, g["dec1.w"], g["dec1.b"] = _conv_back(du1, cache["cols3"], p["dec1.w"],
                                                   cache["up"].shape, 1)
        dh3 = _upsample2_back(dup)

        hh, ww, c = dh3.shape
        n = hh * ww
        dattn_out = dh3.reshape(n, c)
        g["attn.o.w"] = dattn_out.T @ cache["mixed"]
        g["attn.o.b"] = dattn_out.sum(axis=0)
        dmixed = _heads(dattn_out @ p["attn.o.w"], self.heads)
        attn, qh, kh, vh = cache["attn"], cache["q"], cache["k"], cache["v"]
        dattn = dmixed @ vh.transpose(0, 2, 1)
        dvh = attn.transpose(0, 2, 1) @ dmixed
        dlogits = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dqh = dlogits @ kh / np.sqrt(qh.shape[-1])
        dkh = dlogits.transpose(0, 2, 1) @ qh / np.sqrt(qh.shape[-1])

        dflat = 0.0
        for s, dh in zip("qkv", (dqh, dkh, dvh)):
            d = np.moveaxis(dh, 0, -2).reshape(n, c)
            g[f"attn.{s}.w"] = d.T @ cache["flat"]
            g[f"attn.{s}.b"] = d.sum(axis=0)
            dflat = dflat + d @ p[f"attn.{s}.w"]
        dhb = dh3 + dflat.reshape(hh, ww, c)

        dh2 = dhb * (cache["a2"] > 0)
        dh1, g["enc2.w"], g["enc2.b"] = _conv_back(dh2, cache["cols2"], p["enc2.w"],
                                                   cache["h1"].shape, 2)
        dh1 = dh1 * (cache["a1"] > 0)
        _, g["enc1.w"], g["enc1.b"] = _conv_back(dh1, cache["cols1"], p["enc1.w"],
                                                 cache["x"].shape, 1)
        return g

    # persistence ---------------------------------------------------------

    def save(self, path) -> None:
        write_checkpoint(path, self.params,
                         header_extra={"seed": self.seed, "c1": self.c1,
                                       "c2": self.c2, "heads": self.heads})

    @classmethod
    def load(cls, path) -> "ToyUNet":
        """The net of a :meth:`save` checkpoint; a bad header or layer is a DataError."""
        arrays, header = read_checkpoint(path)
        try:
            net = cls(params={k: v.astype(np.float32) for k, v in arrays.items()},
                      seed=int(header.get("seed", 0)), c1=int(header["c1"]),
                      c2=int(header["c2"]), heads=int(header["heads"]))
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"{path}: bad ToyUNet header ({type(e).__name__}: {e})") from None
        for name, shape in _param_shapes(net.c1, net.c2).items():
            if name not in arrays or arrays[name].shape != shape:
                raise DataError(f"{path}: layer {name!r} missing or not {list(shape)}")
        return net


def train_overfit(net: ToyUNet, views: list, conds: list, sched: NoiseSchedule,
                  steps: int, lr: float = 2e-3, seed: int = 0):
    """Overfit the net to predict the forward-process noise of a handful
    of rendered views. Adam on the explicit gradients; returns the per
    step loss curve.
    """
    rng = np.random.default_rng(seed)
    m = {k: np.zeros_like(v, dtype=np.float64) for k, v in net.params.items()}
    v2 = {k: np.zeros_like(v, dtype=np.float64) for k, v in net.params.items()}
    b1, b2, eps_ = 0.9, 0.999, 1e-8
    losses = []
    for it in range(1, steps + 1):
        i = int(rng.integers(len(views)))
        x0 = np.asarray(views[i], dtype=np.float64)
        t = int(rng.integers(1, sched.steps + 1))
        z = rng.standard_normal(x0.shape)
        a = sched.alphas[t]
        x_t = (np.sqrt(a) * x0 + np.sqrt(1 - a) * z).astype(net.dtype)
        out, cache = net.forward_train(x_t, t, conds[i], sched)
        diff = out - z
        losses.append(float(np.mean(diff ** 2)))
        grads = net.backward(cache, (2.0 / diff.size) * diff)
        params = dict(net.params)
        for k, gk in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * gk
            v2[k] = b2 * v2[k] + (1 - b2) * gk ** 2
            mh = m[k] / (1 - b1 ** it)
            vh = v2[k] / (1 - b2 ** it)
            params[k] = (params[k] - lr * mh / (np.sqrt(vh) + eps_)).astype(net.dtype)
        net.params = params   # a new dict: the attention block is rebuilt from it
    return losses
