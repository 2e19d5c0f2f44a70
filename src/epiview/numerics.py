"""Minimal tensor kernels: feature maps, linear projections, masked
softmax, and bilinear tap plans and sampling.

Feature data is stored as float32; similarity and blending computations
accumulate in float64 so that dual-route checks meet their tolerances.
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
        if not np.all(np.isfinite(data)):
            raise ValueError("feature map contains non-finite entries")
        data = np.ascontiguousarray(data, dtype=np.float32)
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
    """Per-pixel affine map: ``y = W @ x + b``. ``bias`` may be None."""

    weight: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float32)
        if w.ndim != 2:
            raise ValueError("weight must be 2-D (out x in)")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight contains non-finite entries")
        object.__setattr__(self, "weight", w)
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=np.float32).reshape(-1)
            if b.shape[0] != w.shape[0]:
                raise ValueError("bias length must match out-dim")
            if not np.all(np.isfinite(b)):
                raise ValueError("bias contains non-finite entries")
            object.__setattr__(self, "bias", b)

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
        return LinearMap(weight=self.weight.copy(),
                         bias=None if self.bias is None else self.bias.copy())


def _axis_taps(x: np.ndarray, n: int):
    """Lower and upper lattice index and the fraction between them along
    one axis of length ``n``. The lower index is clamped to ``n - 2`` so
    that ``x = n - 1`` lands on the upper tap with fraction 1."""
    x0 = np.floor(x).astype(np.int64)
    x0 = np.minimum(x0, n - 2) if n > 1 else x0 * 0
    return x0, np.minimum(x0 + 1, n - 1), x - x0


@dataclass(frozen=True)
class BilinearPlan:
    """Bilinear sampling at fixed sub-pixel positions of an H x W grid,
    reduced to flat tap indices and fractions. Built once, it samples any
    number of maps on that grid without recomputing floors and weights.

    ``index`` is (T, M) int32: for each of the M positions, T rows of the
    raster-order (H*W, C) grid. ``frac`` is (log2 T, M) float64: one
    interpolation fraction per position and interpolated axis, the
    innermost tap pair first. A position with an integral coordinate
    needs only the two taps along its other axis; when every position has
    one (as every epipolar sample grid does) T is 2, otherwise 4.
    ``valid`` is the in-grid mask, shaped like the positions.
    """

    index: np.ndarray
    frac: np.ndarray
    valid: np.ndarray
    width: int
    height: int

    @classmethod
    def build(cls, uv, width: int, height: int) -> "BilinearPlan":
        """Plan for positions ``uv`` (..., 2), in pixel-center (u, v)
        coordinates, on a ``width`` x ``height`` grid."""
        uv = np.asarray(uv, dtype=np.float64)
        u, v = uv[..., 0].ravel(), uv[..., 1].ravel()
        valid = (u >= 0.0) & (u <= width - 1) & (v >= 0.0) & (v <= height - 1)
        u = np.where(valid, u, 0.0)
        v = np.where(valid, v, 0.0)
        u0, u1, du = _axis_taps(u, width)
        v0, v1, dv = _axis_taps(v, height)
        u_int = (du == 0.0) | (du == 1.0)
        v_int = (dv == 0.0) | (dv == 1.0)
        if np.all(u_int | v_int):
            # along v where u is integral, else along u; the integral
            # coordinate is its own tap (clamped or not)
            col = u.astype(np.int64)
            row = v.astype(np.int64)
            index = [np.where(u_int, v0 * width + col, row * width + u0),
                     np.where(u_int, v1 * width + col, row * width + u1)]
            frac = [np.where(u_int, dv, du)]
        else:
            index = [v0 * width + u0, v0 * width + u1, v1 * width + u0, v1 * width + u1]
            frac = [du, dv]
        return cls(index=np.array(index, dtype=np.int32), frac=np.array(frac),
                   valid=valid.reshape(uv.shape[:-1]), width=width, height=height)

    def gather(self, grid: np.ndarray) -> np.ndarray:
        """Sample an (H*W, C) raster-order grid at the planned positions.

        Returns (*valid.shape, C) float64 blends, zero outside the grid:
        each tap pair becomes ``a * (1 - f) + b * f``, the operations (and
        so the bits) of the four-neighbor formula wherever only two of its
        weights are nonzero.
        """
        grid = np.asarray(grid, dtype=np.float64)
        if grid.ndim != 2 or grid.shape[0] != self.width * self.height:
            raise ValueError(f"plan expects a ({self.width * self.height}, C) grid, "
                             f"got shape {grid.shape}")
        taps = [np.take(grid, i, axis=0) for i in self.index]
        for f in self.frac:
            f = f[:, None]
            g = 1 - f
            for a, b in zip(taps[0::2], taps[1::2]):   # fresh arrays from take
                a *= g
                b *= f
                a += b
            taps = taps[0::2]
        out = taps[0]
        out[~self.valid.ravel()] = 0.0
        return out.reshape(self.valid.shape + grid.shape[1:])


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
    return plan.gather(fm.flat()), plan.valid


def masked_softmax(logits: np.ndarray, mask: np.ndarray, scale: float = 1.0, axis: int = -1):
    """Numerically stable softmax over the valid entries of ``logits``.

    Masked entries get weight 0; rows with no valid entry come back
    all-zero with ``has_valid`` False (no NaNs). Weights over valid
    entries sum to 1 and are invariant to adding a constant to all valid
    logits.
    """
    logits = np.asarray(logits, dtype=np.float64) * scale
    mask = np.asarray(mask, dtype=bool)
    has_valid = mask.any(axis=axis)
    neg = np.where(mask, logits, -np.inf)
    peak = np.max(neg, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    ex = np.exp(neg - peak)
    ex = np.where(mask, ex, 0.0)
    denom = ex.sum(axis=axis, keepdims=True)
    weights = np.divide(ex, denom, out=np.zeros_like(ex), where=denom > 0)
    return weights, has_valid


def apply_linear(lin: LinearMap, fm: FeatureMap) -> FeatureMap:
    """Apply an affine map to every pixel of a feature map."""
    if lin.in_dim != fm.channels:
        raise ValueError(f"linear map expects {lin.in_dim} channels, map has {fm.channels}")
    out = fm.flat().astype(np.float64) @ lin.weight.T.astype(np.float64)
    if lin.bias is not None:
        out = out + lin.bias.astype(np.float64)
    return FeatureMap(out.reshape(fm.height, fm.width, lin.out_dim))


def downsample_mean(fm: FeatureMap, factor: int) -> FeatureMap:
    """Area-mean downsample by an integer factor (feature-grid extraction
    for image-resolution inputs)."""
    if fm.height % factor or fm.width % factor:
        raise ValueError("dimensions must be divisible by the downsample factor")
    h, w, c = fm.height // factor, fm.width // factor, fm.channels
    data = fm.data.reshape(h, factor, w, factor, c).mean(axis=(1, 3))
    return FeatureMap(data)
