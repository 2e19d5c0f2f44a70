"""A small encoder/decoder denoiser with one genuine multi-head
self-attention block at the bottleneck, additive time/pose embeddings,
and linear convolutions and projections (``y = W x``), as in latent
diffusion's attention blocks.

Its weights are seeded-random and never change: the method retrieves
features from a fixed denoiser and learns nothing, so the net has no
trainer, and the seed is its one knob.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .attention import AttentionParams, self_attention
from .diffusion import AttentionStage, Condition, Denoiser, NoiseSchedule
from .numerics import FeatureMap, LinearMap

__all__ = ["ToyUNet"]

# Channels after the first and second conv stages, the heads of the
# bottleneck's attention, and the dtype of every weight and activation.
C1, C2, HEADS, DTYPE = 8, 16, 2, np.float32

# Every weight's shape, in initialisation order; conv weights are (Cout, 9*Cin).
_WEIGHTS = {"enc1": (C1, 27), "enc2": (C2, 9 * C1), "attn.q": (C2, C2), "attn.k": (C2, C2),
            "attn.v": (C2, C2), "attn.o": (C2, C2), "dec1": (C1, 9 * C2), "dec2": (3, 9 * C1)}


def _init_params(seed: int) -> dict:
    """Normal weights scaled by sqrt(gain / fan-in), drawn in ``_WEIGHTS``
    order so that a seed keeps its bytes."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _WEIGHTS.items():
        gain = 1.0 if name.startswith("attn.") else 2.0
        params[name] = (rng.standard_normal(shape) * np.sqrt(gain / shape[1])).astype(DTYPE)
    return params


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
    """(H, W, C) -> (Hout*Wout, 9*C) patches of a padded 3x3 window: one
    zero-padded buffer, and one copy of its (ho, wo, 3, 3, C) strided view."""
    h, w, c = x.shape
    xp = np.zeros((h + 2, w + 2, c), dtype=x.dtype)
    xp[1:-1, 1:-1] = x
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    sh, sw, sc = xp.strides
    win = as_strided(xp, (ho, wo, 3, 3, c), (stride * sh, stride * sw, sh, sw, sc), writeable=False)
    return win.reshape(ho * wo, 9 * c), (ho, wo)


def _conv(x, w, stride):
    """3x3 convolution; w is (Cout, 9*Cin)."""
    cols, (ho, wo) = _im2col(x, stride)
    return (cols @ w.T).reshape(ho, wo, -1)


def _upsample2(x):
    return np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)


class ToyUNet(Denoiser):
    """Two conv stages down, attention at the bottleneck, two stages up,
    with the weights of ``seed``. The bottleneck's attention block is
    built once, with the net."""

    def __init__(self, seed: int):
        self.params = p = _init_params(seed)
        self.attention = AttentionParams(*(LinearMap(p[f"attn.{n}"]) for n in "qkvo"),
                                         heads=HEADS, dtype=DTYPE)

    def _embedding(self, t: int, cond: Condition, sched: NoiseSchedule) -> np.ndarray:
        de, da, dr = cond.d_spherical
        scalars = np.array([t / max(sched.steps, 1),
                            de / 90.0, da / 180.0, dr], dtype=np.float64)
        return _sinusoidal(scalars, C2).astype(DTYPE)

    def _encode(self, x, t, cond, sched):
        """Two conv stages down plus the embedding: the bottleneck map."""
        p = self.params
        h1 = np.maximum(_conv(x, p["enc1"], 1), 0)
        h2 = np.maximum(_conv(h1, p["enc2"], 2), 0)
        return h2 + self._embedding(t, cond, sched)

    def _decode(self, h3):
        """Upsample and two conv stages: the predicted noise."""
        p = self.params
        u1 = np.maximum(_conv(_upsample2(h3), p["dec1"], 1), 0)
        return _conv(u1, p["dec2"], 1)

    def predict(self, x_t, t, cond, sched, stage_cb=None):
        hb = self._encode(np.asarray(x_t, dtype=DTYPE), t, cond, sched)
        hb.setflags(write=False)   # never written again, so the map shares it uncopied
        fm = FeatureMap(hb)
        # self_attention is looked up at call time, so that a profiler can wrap it
        attn_out = self_attention(fm, self.attention)
        if stage_cb is not None:
            replacement = stage_cb(AttentionStage(layer="bottleneck", feature=fm,
                                                  params=self.attention, baseline=attn_out))
            if replacement is not None:
                attn_out = replacement
        return self._decode(hb + attn_out.data.astype(DTYPE)).astype(np.float64)
