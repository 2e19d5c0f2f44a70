"""Self attention, full cross attention, and epipolar attention with
duplicated parameters.

Every attention variant records how many similarity-buffer elements it
allocates into an optional :class:`AttentionCounters`, which is what the
complexity bench and the memory-bound invariants read. Counts are exact
integer accounting (heads x queries x keys), independent of the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import EpipolarSampleSet
from .numerics import BilinearPlan, FeatureMap, LinearMap, apply_linear, bilinear_sample, masked_softmax

__all__ = [
    "AttentionParams",
    "EpipolarAttentionBlock",
    "ContextFeatures",
    "AttentionCounters",
    "self_attention",
    "duplicate_params",
    "project_context",
    "epipolar_attention",
    "full_cross_attention",
    "fuse",
    "multi_view_aggregate",
    "epipolar_similarity",
    "full_similarity",
    "bilinear_sample",
]


@dataclass(frozen=True)
class AttentionParams:
    """Q/K/V/output projections plus the head layout of one attention block."""

    q_proj: LinearMap
    k_proj: LinearMap
    v_proj: LinearMap
    out_proj: LinearMap
    heads: int = 1

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.q_proj.out_dim % self.heads:
            raise ValueError("projection out-dim must divide evenly into heads")

    @property
    def head_dim(self) -> int:
        return self.q_proj.out_dim // self.heads

    @classmethod
    def identity(cls, channels: int) -> "AttentionParams":
        eye = LinearMap.identity(channels)
        return cls(q_proj=eye, k_proj=eye.copy(), v_proj=eye.copy(),
                   out_proj=eye.copy(), heads=1)

    @classmethod
    def seeded(cls, channels: int, heads: int, rng: np.random.Generator,
               scale: float = 0.3) -> "AttentionParams":
        def lin():
            w = rng.standard_normal((channels, channels)) * scale
            b = rng.standard_normal(channels) * 0.01
            return LinearMap(weight=w, bias=b)
        return cls(q_proj=lin(), k_proj=lin(), v_proj=lin(), out_proj=lin(), heads=heads)


@dataclass(frozen=True)
class EpipolarAttentionBlock:
    """A retrieval block instantiated from the value-identical parameters
    of an existing self-attention block, plus the fusion weight."""

    params: AttentionParams
    fusion_alpha: float = 0.5
    apply_out_proj: bool = True

    def __post_init__(self):
        if not 0.0 <= self.fusion_alpha <= 1.0:
            raise ValueError("fusion_alpha must lie in [0, 1]")


@dataclass(frozen=True)
class ContextFeatures:
    """Features of one context view at one (step, layer): the raw map F,
    its key projection, and the retrieval-value map (either the value
    projection of F or F itself, per configuration)."""

    f: FeatureMap
    k: FeatureMap
    value: FeatureMap


@dataclass
class AttentionCounters:
    """Exact similarity-buffer accounting per attention call."""

    peak_elems: int = 0
    total_elems: int = 0
    calls: int = 0
    per_call: list = field(default_factory=list)

    def record(self, elems: int):
        self.calls += 1
        self.total_elems += elems
        self.peak_elems = max(self.peak_elems, elems)
        self.per_call.append(elems)


def duplicate_params(src: AttentionParams) -> AttentionParams:
    """Deep value copy of a block's parameters; mutating either side
    afterwards leaves the other untouched."""
    return AttentionParams(
        q_proj=src.q_proj.copy(),
        k_proj=src.k_proj.copy(),
        v_proj=src.v_proj.copy(),
        out_proj=src.out_proj.copy(),
        heads=src.heads,
    )


def project_context(f_ref: FeatureMap, params: AttentionParams,
                    value_source: str = "value_projection") -> ContextFeatures:
    """Precompute the reference-branch features retrieval needs."""
    if value_source not in ("value_projection", "raw_feature"):
        raise ValueError(f"unknown value_source {value_source!r}")
    k = apply_linear(params.k_proj, f_ref)
    value = apply_linear(params.v_proj, f_ref) if value_source == "value_projection" else f_ref
    return ContextFeatures(f=f_ref, k=k, value=value)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., C) -> (..., heads, C // heads)."""
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))


def self_attention(fm: FeatureMap, params: AttentionParams,
                   counters: AttentionCounters | None = None) -> FeatureMap:
    """Scaled dot-product attention of a map over its own H*W positions."""
    if params.q_proj.in_dim != fm.channels:
        raise ValueError("channel count does not match attention parameters")
    n = fm.height * fm.width
    q = _split_heads(apply_linear(params.q_proj, fm).flat().astype(np.float64), params.heads)
    k = _split_heads(apply_linear(params.k_proj, fm).flat().astype(np.float64), params.heads)
    v = _split_heads(apply_linear(params.v_proj, fm).flat().astype(np.float64), params.heads)
    if counters is not None:
        counters.record(params.heads * n * n)
    logits = np.einsum("qhd,khd->hqk", q, k) / np.sqrt(params.head_dim)
    weights, _ = masked_softmax(logits, np.ones_like(logits, dtype=bool), axis=-1)
    out = np.einsum("hqk,khd->qhd", weights, v).reshape(n, -1)
    return apply_linear(params.out_proj, FeatureMap(out.reshape(fm.height, fm.width, -1)))


def full_similarity(f_tgt: FeatureMap, ctx: ContextFeatures, params: AttentionParams,
                    counters: AttentionCounters | None = None):
    """Per-head similarity logits of every target query against every
    reference position. Returns (logits (h, N, N_ref), weights)."""
    n = f_tgt.height * f_tgt.width
    n_ref = ctx.k.height * ctx.k.width
    q = _split_heads(apply_linear(params.q_proj, f_tgt).flat().astype(np.float64), params.heads)
    k = _split_heads(ctx.k.flat().astype(np.float64), params.heads)
    if counters is not None:
        counters.record(params.heads * n * n_ref)
    logits = np.einsum("qhd,khd->hqk", q, k) / np.sqrt(params.head_dim)
    weights, _ = masked_softmax(logits, np.ones_like(logits, dtype=bool), axis=-1)
    return logits, weights


def full_cross_attention(f_tgt: FeatureMap, ctx: ContextFeatures, params: AttentionParams,
                         counters: AttentionCounters | None = None,
                         apply_out_proj: bool = True):
    """Retrieval over every position of the reference map.

    Returns (FeatureMap, contributed mask); the mask is all-True since
    every query sees the whole reference grid.
    """
    if ctx.f.height != f_tgt.height or ctx.f.width != f_tgt.width:
        raise ValueError("context resolution does not match the target map")
    _, weights = full_similarity(f_tgt, ctx, params, counters)
    v = _split_heads(ctx.value.flat().astype(np.float64), params.heads)
    out = np.einsum("hqk,khd->qhd", weights, v)
    out = out.reshape(f_tgt.height * f_tgt.width, -1)
    fm = FeatureMap(out.reshape(f_tgt.height, f_tgt.width, -1))
    if apply_out_proj:
        fm = apply_linear(params.out_proj, fm)
    contributed = np.ones((f_tgt.height, f_tgt.width), dtype=bool)
    return fm, contributed


def epipolar_similarity(f_tgt: FeatureMap, ctx: ContextFeatures, samples: EpipolarSampleSet,
                        params: AttentionParams,
                        counters: AttentionCounters | None = None,
                        plan: BilinearPlan | None = None):
    """Similarity of each target query against its epipolar samples.

    ``plan`` is the bilinear plan of the batched sample positions on the
    context grid; it depends only on the sample set, so callers that
    retrieve along the same set repeatedly build it once and pass it in.
    Without one it is built here. K and V are gathered together, one pass
    over the concatenated (H*W, 2C) grid per tap.

    Returns (logits (h, N, S), weights (h, N, S), sampled values
    (N, S, C), valid (N, S)). Queries are raster-ordered; invalid sample
    slots carry zero weight.
    """
    n = f_tgt.height * f_tgt.width
    uv = samples.uv if samples.uv.ndim == 3 else np.broadcast_to(samples.uv, (n,) + samples.uv.shape)
    valid = samples.valid if samples.valid.ndim == 2 else np.broadcast_to(samples.valid, (n,) + samples.valid.shape)
    if uv.shape[0] != n:
        raise ValueError("sample set is not sized for the target grid")
    if plan is None:
        plan = BilinearPlan.build(uv, ctx.k.width, ctx.k.height)
    elif plan.valid.shape != uv.shape[:-1] or (plan.width, plan.height) != (ctx.k.width, ctx.k.height):
        raise ValueError("plan does not match the sample set and context grid")
    if counters is not None:
        counters.record(params.heads * n * uv.shape[1])
    q = _split_heads(apply_linear(params.q_proj, f_tgt).flat().astype(np.float64), params.heads)
    c = ctx.k.channels
    kv_samp = plan.gather(np.concatenate([ctx.k.flat(), ctx.value.flat()], axis=1))
    valid = valid & plan.valid
    k_h = _split_heads(kv_samp[..., :c], params.heads)     # (N, S, h, d)
    logits = np.einsum("qhd,qshd->hqs", q, k_h) / np.sqrt(params.head_dim)
    weights, _ = masked_softmax(logits, valid[None, :, :], axis=-1)
    return logits, weights, kv_samp[..., c:], valid


def epipolar_attention(f_tgt: FeatureMap, ctx: ContextFeatures, samples: EpipolarSampleSet,
                       block: EpipolarAttentionBlock,
                       counters: AttentionCounters | None = None,
                       plan: BilinearPlan | None = None):
    """Retrieve reference information along epipolar lines.

    For each query: similarity of its query feature against the key
    features bilinearly sampled at the valid epipolar positions, a masked
    softmax, and the weighted sum of the sampled value features. Queries
    whose sample set is empty contribute nothing and are marked False in
    the returned mask. ``plan`` is passed on to
    :func:`epipolar_similarity`.

    Returns (FeatureMap, contributed (H, W) bool).
    """
    if ctx.f.height != f_tgt.height or ctx.f.width != f_tgt.width:
        raise ValueError("context resolution does not match the target map")
    params = block.params
    _, weights, v_samp, valid = epipolar_similarity(f_tgt, ctx, samples, params, counters, plan)
    v_h = _split_heads(v_samp, params.heads)               # (N, S, h, d)
    out = np.einsum("hqs,qshd->qhd", weights, v_h)
    out = out.reshape(f_tgt.height * f_tgt.width, -1)
    fm = FeatureMap(out.reshape(f_tgt.height, f_tgt.width, -1))
    if block.apply_out_proj:
        fm = apply_linear(params.out_proj, fm)
    contributed = valid.any(axis=1).reshape(f_tgt.height, f_tgt.width)
    return fm, contributed


def fuse(f_hat: FeatureMap, f_src_hat: FeatureMap, contributed: np.ndarray,
         alpha: float) -> FeatureMap:
    """Convex blend ``alpha * retrieved + (1 - alpha) * original``.

    Pixels marked as no-contribution pass the original feature through
    unchanged. ``alpha`` outside [0, 1] is an error.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if f_hat.data.shape != f_src_hat.data.shape:
        raise ValueError("fused maps must share a shape")
    if alpha == 0.0:
        return FeatureMap(f_hat.data.copy())
    a = f_hat.data.astype(np.float64)
    b = f_src_hat.data.astype(np.float64)
    mask = np.asarray(contributed, dtype=bool)[:, :, None]
    return FeatureMap(np.where(mask, alpha * b + (1.0 - alpha) * a, a))


def multi_view_aggregate(per_view: list):
    """Average the epipolar outputs of several context views.

    ``per_view`` is a list of (FeatureMap, contributed) pairs. Each pixel
    averages only the views that contributed there; a pixel with no
    contributing view stays marked False.
    """
    if not per_view:
        raise ValueError("need at least one context view")
    h, w, c = per_view[0][0].data.shape
    acc = np.zeros((h, w, c), dtype=np.float64)
    count = np.zeros((h, w), dtype=np.float64)
    for fm, contributed in per_view:
        if fm.data.shape != (h, w, c):
            raise ValueError("aggregated maps must share a shape")
        m = np.asarray(contributed, dtype=bool)
        acc += np.where(m[:, :, None], fm.data.astype(np.float64), 0.0)
        count += m
    any_mask = count > 0
    mean = np.divide(acc, count[:, :, None], out=np.zeros_like(acc), where=count[:, :, None] > 0)
    return FeatureMap(mean), any_mask
