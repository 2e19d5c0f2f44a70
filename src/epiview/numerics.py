"""Minimal tensor kernels: feature maps, linear projections, an in-place
masked softmax over the key axis, and bilinear tap plans, which gather from
channel-major (C, H*W) grids along contiguous vectors of positions.

Feature data is stored as float32. Sampling blends and softmaxes compute
in the precision their caller picks: float64 by default, the reference
route that the dual-route checks and analytic oracles hold to, or float32,
which halves the bytes the attention core moves (see
:attr:`epiview.attention.AttentionParams.dtype`). Linear projections
accumulate in float64 and store float32; an identity one returns its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureMap",
    "LinearMap",
    "BilinearPlan",
    "bilinear_sample",
    "masked_softmax",
    "apply_linear",
    "downsample_mean",
]


@dataclass(frozen=True)
class FeatureMap:
    """An H x W x C grid of scalars, the unit of all attention and
    sampling operations. Immutable once built."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim == 2:
            data = data[:, :, None]
        if data.ndim != 3:
            raise ValueError(f"feature map must be HxWxC, got shape {data.shape}")
        with np.errstate(over="ignore"):   # a float64 too large for float32 becomes inf
            src, data = data, np.ascontiguousarray(data, dtype=np.float32)
        if not np.all(np.isfinite(data)):
            raise ValueError("feature map contains non-finite entries")
        if data.flags.writeable and np.may_share_memory(data, src):
            data = data.copy()   # freeze our own copy, never the caller's array
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def flat(self) -> np.ndarray:
        """(H*W, C) view in raster order."""
        return self.data.reshape(-1, self.data.shape[2])


@dataclass(frozen=True)
class LinearMap:
    """Per-pixel linear map: ``y = W @ x``."""

    weight: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float32)
        if w.ndim != 2:
            raise ValueError("weight must be 2-D (out x in)")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight contains non-finite entries")
        object.__setattr__(self, "weight", w)

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @classmethod
    def identity(cls, dim: int) -> "LinearMap":
        return cls(weight=np.eye(dim, dtype=np.float32))

    def copy(self) -> "LinearMap":
        return LinearMap(weight=self.weight.copy())


@dataclass(frozen=True)
class BilinearPlan:
    """Bilinear sampling at fixed sub-pixel positions of an H x W grid,
    reduced to flat tap indices and fractions. Built once, it samples any
    number of maps on that grid without recomputing floors and weights.

    ``index`` is (T, M) ``intp``, which ``np.take`` uses unconverted: T
    raster-order grid positions for each of the M positions, in the order
    of ``uv``'s leading axes. ``frac`` is (log2 T, M) float64: one
    interpolation fraction per position and interpolated axis, the
    innermost tap pair first. A position with an integral coordinate needs
    only the two taps along its other axis; T is 2 when every position has
    one (as on every epipolar sample grid), else 4. ``valid`` is the
    in-grid mask, shaped like the positions.

    A plan freezes its arrays and keeps, while it lives, all its gathers
    share: the index, checked once to lie on the grid, whether every
    position does (``in_grid``), and each dtype's blend weights.
    """

    index: np.ndarray
    frac: np.ndarray
    valid: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        index = self.index
        if index.size and not (index.min() >= 0 and index.max() < self.width * self.height):
            raise ValueError(f"plan taps must index a {self.width}x{self.height} grid")
        for a in (index, self.frac, self.valid):
            a.setflags(write=False)
        object.__setattr__(self, "in_grid", bool(self.valid.all()))
        object.__setattr__(self, "_blends", {})

    @classmethod
    def build(cls, uv, width: int, height: int) -> "BilinearPlan":
        """Plan for positions ``uv`` (..., 2), in pixel-center (u, v)
        coordinates, on a ``width`` x ``height`` grid."""
        uv = np.asarray(uv, dtype=np.float64)
        xy = np.array(np.moveaxis(uv, -1, 0), order="C").reshape(2, -1)   # our own u and v
        u, v = xy
        valid = (u >= 0.0) & (u <= width - 1) & (v >= 0.0) & (v <= height - 1)
        np.copyto(xy, 0.0, where=~valid)
        # the lower tap, clamped to n - 2 so that x = n - 1 lands on the
        # upper tap with fraction 1; truncation floors x >= 0
        lo = xy.astype(np.intp)
        np.minimum(lo, [[max(width - 2, 0)], [max(height - 2, 0)]], out=lo)
        du, dv = d = np.subtract(xy, lo, out=xy)
        step_u, step_v = int(width > 1), width * int(height > 1)   # to the upper tap
        u_int = (du == 0.0) | (du == 1.0)
        two = bool(np.all(u_int | (dv == 0.0) | (dv == 1.0)))
        if two:
            # along v where u is integral, else along u; the integral
            # coordinate is its own tap (clamped or not)
            d = np.where(u_int, dv, du)[None]
            np.add(lo[0], du == 1.0, out=lo[0], where=u_int)
            np.add(lo[1], dv == 1.0, out=lo[1], where=~u_int)
        index = np.empty((2 if two else 4, xy.shape[1]), dtype=np.intp)
        np.multiply(lo[1], width, out=index[0])
        index[0] += lo[0]
        np.add(index[0], step_u, out=index[1])
        if two:
            np.add(index[0], step_v, out=index[1], where=u_int)
        else:
            np.add(index[:2], step_v, out=index[2:])
        return cls(index=index, frac=d, valid=valid.reshape(uv.shape[:-1]),
                   width=width, height=height)

    def _blend(self, dtype: np.dtype) -> list:
        """(1 - f, f) per fraction row, in ``dtype`` (``1 - f`` too)."""
        if dtype not in self._blends:
            f = self.frac.astype(dtype, copy=False)
            g = 1 - f
            for a in (f, g):
                a.setflags(write=False)
            self._blends[dtype] = list(zip(g, f))
        return self._blends[dtype]

    def gather(self, grid: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Sample a channel-major (C, H*W) raster-order grid at the planned
        positions: (C, *valid.shape) blends in ``dtype``, zero outside the
        grid. One take of every tap fills a (C, T, M) array, whose tap pairs
        are blended in place as ``a * (1 - f) + b * f``, each weight a
        contiguous vector over the M positions: the operations (and so, in
        float64, the bits) of the four-neighbor formula wherever only two of
        its weights are nonzero. Grid and fractions are cast to ``dtype``.
        """
        grid = np.ascontiguousarray(grid, dtype=dtype)
        if grid.ndim != 2 or grid.shape[1] != self.width * self.height:
            raise ValueError(f"plan expects a (C, {self.width * self.height}) grid, "
                             f"got shape {grid.shape}")
        # the index lies on the grid (checked when built), so wrapping
        # never moves a tap; it only skips the per-tap bounds check
        taps = np.take(grid, self.index, axis=1, mode="wrap")
        for g, f in self._blend(grid.dtype):
            a, b = taps[:, 0::2], taps[:, 1::2]
            a *= g
            b *= f
            a += b
            taps = a
        out = taps[:, 0]
        if not self.in_grid:
            np.copyto(out, 0.0, where=~self.valid.ravel())
        return out.reshape(grid.shape[:1] + self.valid.shape)


def bilinear_sample(fm: FeatureMap, uv: np.ndarray):
    """Sample a feature map at sub-pixel positions.

    Parameters
    ----------
    fm : FeatureMap
    uv : ndarray, shape (..., 2)
        Sub-pixel (u, v) positions in pixel-center coordinates.

    Returns
    -------
    values : ndarray, shape (..., C), float64
        Bilinear blends of the neighbors carrying weight; zero where invalid.
    valid : ndarray, shape (...), bool
        True where every neighbor carrying weight lies on the grid,
        i.e. 0 <= u <= W-1 and 0 <= v <= H-1. Out-of-grid samples are
        masked, never clamped.
    """
    plan = BilinearPlan.build(uv, fm.width, fm.height)
    return np.moveaxis(plan.gather(fm.flat().T), 0, -1), plan.valid


def masked_softmax(logits: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Numerically stable softmax, in place, over the valid entries of axis
    -2 of ``logits``: the keys of the attention core's key-major logits,
    full (heads, V, M, N) and epipolar (h, S, N), which the caller has
    already scaled (full attention through its queries, epipolar attention
    on its S*N logits, as moving that scale would re-base every analytic
    output for about 1% of a call).

    Valid logits must be finite (a valid ``+inf`` gives NaN weights);
    masked entries may hold anything. Masked entries get weight 0; columns
    with no valid entry come back all-zero (no NaNs). Weights over valid
    entries sum to 1 and are invariant to adding a constant to all valid
    logits. ``mask`` broadcasts against ``logits``; ``mask=None`` is the
    plain softmax over every entry, with the same bytes as an all-True
    mask.

    Float32 and float64 logits are fresh logits the caller no longer
    needs: they are overwritten with their weights and returned. Any
    other logits become a float64 copy, which is softmaxed and returned.
    Every column is divided by its sum, and columns whose sum is not
    positive (all masked, or NaN) are zeroed afterwards.
    """
    x = np.asarray(logits)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    if mask is not None:
        np.copyto(x, -np.inf, where=~np.asarray(mask, dtype=bool))
    peak = np.max(x, axis=-2, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    x -= peak
    np.exp(x, out=x)           # masked entries: exp(-inf) = 0
    denom = x.sum(axis=-2, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        x /= denom
    live = denom > 0
    if not live.all():
        np.copyto(x, 0.0, where=~live)   # all-masked and NaN columns
    return x


def apply_linear(lin: LinearMap, fm: FeatureMap) -> FeatureMap:
    """Apply a linear map to every pixel of a feature map.

    A map whose weight is the identity matrix when called hands back ``fm``
    itself: a feature map is immutable, and ``x @ I`` in float64 is ``x``
    up to the sign of a zero. So an identity block's K and V *are* its F,
    and its q and out projections cost nothing. The test runs on every
    call, as a map's weight stays writable.
    """
    if lin.in_dim != fm.channels:
        raise ValueError(f"linear map expects {lin.in_dim} channels, map has {fm.channels}")
    w = lin.weight
    if w.shape[0] == w.shape[1] and np.count_nonzero(w) == w.shape[0] and np.all(w.diagonal() == 1):
        return fm   # n nonzeros, n of them ones on the diagonal: the identity
    out = fm.flat().astype(np.float64) @ w.T.astype(np.float64)
    return FeatureMap(out.reshape(fm.height, fm.width, lin.out_dim))


def downsample_mean(fm: FeatureMap, factor: int) -> FeatureMap:
    """Area-mean downsample by an integer factor (feature-grid extraction
    for image-resolution inputs)."""
    if fm.height % factor or fm.width % factor:
        raise ValueError("dimensions must be divisible by the downsample factor")
    h, w, c = fm.height // factor, fm.width // factor, fm.channels
    data = fm.data.reshape(h, factor, w, factor, c).mean(axis=(1, 3))
    return FeatureMap(data)
