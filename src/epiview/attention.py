"""Self attention, full cross attention, and epipolar attention with
duplicated parameters.

All three are one computation: heads-major queries, keys and values,
scaled dot-product logits softmaxed in place over their keys
(``masked_softmax``), and the weighted value sum merged back onto the
target grid (``_merge``). Both retrieval modes are key-major: the
softmax over the keys and the value mix run along contiguous vectors of
the N target queries. Full cross attention takes a stage's V context
views in one batched product, logits (heads, V, M, N)
(:func:`full_logits`) scaled through the N*d queries; self attention is
full cross attention with the map as its only context. Epipolar
attention restricts each query's keys to its own S bilinearly sampled
epipolar positions, masked where invalid, one context at a time, laid
out (..., S, N), and scales its S*N logits: moving that scale would
re-base every analytic output for about 1% of a call. Both reuse the
block's Q/K/V/out projections with no new parameters: full attention
reads K and V, and epipolar attention gathers F once, putting the affine
K and V projections into the query and onto the mix (sampling commutes
with them, as bilinear weights sum to 1). Readers of similarities
(``simmap``, the localization study) softmax the core's own
:func:`full_logits` and :func:`epipolar_logits`.

The core computes in the block's own precision,
:attr:`AttentionParams.dtype`, and only that field chooses it. It is
float64 by default: the reference route of every oracle and the
localization study. The backends give the blocks they expose float32,
the precision their features are stored in, so that the gather and the
softmax move half the bytes.

Every retrieval call records how many similarity-buffer elements it
allocates into an optional :class:`AttentionCounters`, which is what the
complexity bench and the memory-bound invariants read. Counts are exact
integer accounting (heads x queries x keys), independent of the machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EpipolarSampleSet
from .numerics import FeatureMap, LinearMap, apply_linear, bilinear_sample, masked_softmax

__all__ = [
    "AttentionParams",
    "ContextFeatures",
    "AttentionCounters",
    "self_attention",
    "duplicate_params",
    "project_context",
    "epipolar_attention",
    "full_cross_attention",
    "fuse",
    "multi_view_aggregate",
    "epipolar_logits",
    "full_logits",
    "bilinear_sample",
]


@dataclass(frozen=True)
class AttentionParams:
    """Q/K/V/output projections plus the head layout of one attention
    block, and the float dtype its attention core computes in."""

    q_proj: LinearMap
    k_proj: LinearMap
    v_proj: LinearMap
    out_proj: LinearMap
    heads: int = 1
    dtype: np.dtype = np.dtype(np.float64)

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.q_proj.out_dim % self.heads:
            raise ValueError("projection out-dim must divide evenly into heads")
        dtype = np.dtype(self.dtype)
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"attention computes in float32 or float64, not {dtype}")
        object.__setattr__(self, "dtype", dtype)

    @classmethod
    def identity(cls, channels: int) -> "AttentionParams":
        eye = LinearMap.identity(channels)
        return cls(q_proj=eye, k_proj=eye.copy(), v_proj=eye.copy(),
                   out_proj=eye.copy(), heads=1)

    @classmethod
    def seeded(cls, channels: int, heads: int, rng: np.random.Generator) -> "AttentionParams":
        def lin():
            w = rng.standard_normal((channels, channels)) * 0.3
            b = rng.standard_normal(channels) * 0.01
            return LinearMap(weight=w, bias=b)
        return cls(q_proj=lin(), k_proj=lin(), v_proj=lin(), out_proj=lin(), heads=heads)


@dataclass(frozen=True)
class ContextFeatures:
    """Features of one context view at one (step, layer): the raw map F,
    which epipolar retrieval samples, and its key and value projections,
    made with the block's own parameters, which full attention reads."""

    f: FeatureMap
    k: FeatureMap
    value: FeatureMap


@dataclass
class AttentionCounters:
    """Exact similarity-buffer accounting over attention calls: running
    count, total and peak, in constant memory.

    There is one record per (target, context) buffer, heads x queries x
    keys. A batched full-attention call over V contexts makes V records,
    although it holds all V buffers at once."""

    peak_elems: int = 0
    total_elems: int = 0
    calls: int = 0

    def record(self, elems: int):
        self.calls += 1
        self.total_elems += elems
        self.peak_elems = max(self.peak_elems, elems)


def duplicate_params(src: AttentionParams) -> AttentionParams:
    """Deep value copy of a block's parameters; mutating either side
    afterwards leaves the other untouched."""
    return AttentionParams(
        q_proj=src.q_proj.copy(),
        k_proj=src.k_proj.copy(),
        v_proj=src.v_proj.copy(),
        out_proj=src.out_proj.copy(),
        heads=src.heads,
        dtype=src.dtype,
    )


def project_context(f_ref: FeatureMap, params: AttentionParams) -> ContextFeatures:
    """Precompute the reference-branch features retrieval needs: the K and
    V projections of ``f_ref``."""
    return ContextFeatures(f=f_ref, k=apply_linear(params.k_proj, f_ref),
                           value=apply_linear(params.v_proj, f_ref))


def _heads(x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """(..., C) -> heads-major (heads, ..., C // heads) in the block's dtype."""
    x = np.asarray(x, dtype=params.dtype)
    return np.moveaxis(x.reshape(x.shape[:-1] + (params.heads, -1)), -2, 0)


def _merge(mixed: np.ndarray, f_tgt: FeatureMap, params: AttentionParams) -> FeatureMap:
    """Heads-major weighted values (h, ..., N, d) merged back onto the
    target grid, with the output projection applied once: a leading axis
    of V stacks V grids along the rows, (V*H, W, C), and each keeps the
    bytes of its own projection (float64 rows do not depend on the count)."""
    out = np.moveaxis(mixed, 0, -2).reshape(-1, f_tgt.width, params.out_proj.in_dim)
    return apply_linear(params.out_proj, FeatureMap(out))


def self_attention(fm: FeatureMap, params: AttentionParams) -> FeatureMap:
    """Scaled dot-product attention of a map over its own H*W positions:
    full cross attention with the map as its only context."""
    return full_cross_attention(fm, [project_context(fm, params)], params)[0][0]


def full_logits(f_tgt: FeatureMap, contexts: list, params: AttentionParams,
                counters: AttentionCounters | None = None) -> np.ndarray:
    """Key-major logits (heads, V, M, N) of the target queries, each column
    against every key of the V context maps, in one batched product
    ``k @ (q / sqrt(d)).T``: the scale touches the N*d queries, not the N*M
    logits (epipolar logits keep theirs, which would re-base every analytic
    output to move). One counter record per context. Context i's weights
    are ``masked_softmax(logits[:, i], None)``."""
    q = _heads(apply_linear(params.q_proj, f_tgt).flat(), params)
    q = q / math.sqrt(q.shape[-1])   # a Python float keeps float32 queries in float32
    k = _heads(np.stack([c.k.flat() for c in contexts]), params)
    if counters is not None:
        for _ in contexts:
            counters.record(params.heads * q.shape[1] * k.shape[2])
    return k @ np.swapaxes(q, -1, -2)[:, None]


def full_cross_attention(f_tgt: FeatureMap, contexts: list, params: AttentionParams,
                         counters: AttentionCounters | None = None) -> list:
    """Retrieval over every position of each context map, in one call.

    The target queries are projected once. The logits of all V contexts
    are one batched key-major product (heads, V, M, N), softmaxed in place
    over the keys in one call, and mixed with their values through the
    transposed weights in one more batched product; one output projection
    then serves all V contexts. Each context's result has the bytes of a
    call with that context alone.

    Returns one (FeatureMap, contributed mask) per context, in order; the
    masks are all-True since every query sees the whole context grid.
    """
    if not contexts:
        raise ValueError("need at least one context view")
    if any(c.k.height != f_tgt.height or c.k.width != f_tgt.width for c in contexts):
        raise ValueError("context resolution does not match the target map")
    logits = full_logits(f_tgt, contexts, params, counters)
    weights = masked_softmax(logits, None)
    mixed = np.swapaxes(weights, -1, -2) @ _heads(np.stack([c.value.flat() for c in contexts]),
                                                  params)
    del logits, weights   # the heap reuses their bytes for the merge
    return [(FeatureMap(x), np.ones((f_tgt.height, f_tgt.width), dtype=bool))
            for x in np.split(_merge(mixed, f_tgt, params).data, len(contexts))]


def _heads_affine(lin: LinearMap, params: AttentionParams):
    """A projection's float64 weight (h, d, C) and bias (h, d, 1), heads-major."""
    bias = None if lin.bias is None else lin.bias.astype(np.float64).reshape(params.heads, -1, 1)
    return lin.weight.astype(np.float64).reshape(params.heads, -1, lin.in_dim), bias


def _epipolar_scores(f_tgt: FeatureMap, ctx: ContextFeatures, samples: EpipolarSampleSet,
                     params: AttentionParams, counters: AttentionCounters | None):
    """The logits of :func:`epipolar_logits` and the one gather of a
    retrieval, the raw map F sampled through the set's plan (C, S, N). Each
    head's query absorbs the key projection, ``qa = W_kᵀ q`` (h, C, N), and
    the logits contract ``qa · F`` in channel order, plus ``q · b_k``."""
    n = f_tgt.height * f_tgt.width
    if samples.uv.ndim != 3 or samples.uv.shape[1] != n:
        raise ValueError("sample set is not (S, N, 2) for the target grid")
    if (samples.width, samples.height) != (ctx.f.width, ctx.f.height):
        raise ValueError("sample set is not on the context grid")
    if counters is not None:
        counters.record(params.heads * n * samples.uv.shape[0])
    q = apply_linear(params.q_proj, f_tgt).flat().T.reshape(params.heads, -1, n)   # (h, d, N)
    w_k, b_k = _heads_affine(params.k_proj, params)
    qa = (w_k.swapaxes(1, 2) @ q).astype(params.dtype)
    f = samples.plan.gather(ctx.f.flat().T, dtype=params.dtype)
    logits = np.einsum("hcn,csn->hsn", qa, f)
    if b_k is not None:
        logits += (b_k * q).sum(axis=1)[:, None]
    logits /= math.sqrt(q.shape[1])   # a Python float keeps float32 logits in float32
    return logits, f


def epipolar_logits(f_tgt: FeatureMap, ctx: ContextFeatures, samples: EpipolarSampleSet,
                    params: AttentionParams,
                    counters: AttentionCounters | None = None) -> np.ndarray:
    """Slot-major similarity logits (h, S, N) of each target query against
    its epipolar key samples, each a contiguous vector of queries.
    ``samples`` must be an (S, N, 2) set on the context's grid. The weights
    are ``masked_softmax(logits, samples.valid)``."""
    return _epipolar_scores(f_tgt, ctx, samples, params, counters)[0]


def epipolar_attention(f_tgt: FeatureMap, ctx: ContextFeatures, samples: EpipolarSampleSet,
                       params: AttentionParams,
                       counters: AttentionCounters | None = None):
    """Retrieve reference information along epipolar lines.

    For each query: similarity of its query feature against the key
    features bilinearly sampled at the valid epipolar positions, a masked
    softmax (in place), and the weighted sum of the sampled value
    features. Queries whose sample set is empty contribute nothing and are
    marked False in the returned mask, a view of the set's read-only one.
    The weights mix the one gather of F in one contraction summed in slot
    order, ``m = Σ_s w F``, and the values are ``W_v m + b_v Σ_s w``.

    Returns (FeatureMap, contributed (H, W) bool).
    """
    if ctx.f.height != f_tgt.height or ctx.f.width != f_tgt.width:
        raise ValueError("context resolution does not match the target map")
    logits, f = _epipolar_scores(f_tgt, ctx, samples, params, counters)
    weights = masked_softmax(logits, samples.valid)
    w_v, b_v = _heads_affine(params.v_proj, params)
    v = w_v @ np.einsum("hsn,csn->hcn", weights, f)   # (h, d, N)
    if b_v is not None:
        v += b_v * weights.sum(axis=1)[:, None]
    fm = _merge(v.swapaxes(1, 2), f_tgt, params)
    return fm, samples.contributed.reshape(f_tgt.height, f_tgt.width)


def fuse(f_hat: FeatureMap, f_src_hat: FeatureMap, contributed: np.ndarray,
         alpha: float) -> FeatureMap:
    """Convex blend ``alpha * retrieved + (1 - alpha) * original``.

    Pixels marked as no-contribution pass the original feature through
    unchanged. ``alpha`` lies in [0, 1], as ``GenerationConfig`` checks.
    """
    if f_hat.data.shape != f_src_hat.data.shape:
        raise ValueError("fused maps must share a shape")
    if alpha == 0.0:
        return f_hat
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
