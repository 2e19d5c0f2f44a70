"""Camera models, relative poses, and epipolar geometry.

Conventions used throughout the package:

* Camera frames are right-handed with x right, y down, z forward (optical
  axis). World up is +z.
* Pixel centers sit at integer coordinates; a W x H image covers
  [0, W-1] x [0, H-1] in pixel-center coordinates.
* Normalized image coordinates are ``K^-1 @ (u, v, 1)``.
* A relative pose (R, t) maps reference-camera coordinates to
  target-camera coordinates: ``X_tgt = R @ X_ref + t``.
* Epipolar lines are expressed in the *reference* view's normalized
  coordinates as (a, b, c) with a*x + b*y + c = 0.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np

from .numerics import BilinearPlan

__all__ = [
    "CAMERA_RADIUS",
    "CameraIntrinsics",
    "SphericalCamera",
    "Extrinsics",
    "RelativePose",
    "EpipolarLine",
    "EpipolarSampleSet",
    "pixel_grid",
    "skew_symmetric",
    "camera_on_sphere",
    "relative_pose",
    "essential_matrix",
    "epipolar_line",
    "epipolar_sample_grid",
    "to_record",
    "from_record",
    "pose_to_json",
    "pose_from_json",
]

# The one camera-radius rule (scene units), as a (test, description) pair:
# at 1e6 the scene is far below one pixel, and a ray cast's squares stay finite.
CAMERA_RADIUS = (lambda r: 0 < r <= 1e6, "a number in (0, 1e6]")

# Translations shorter than this (scene units) give an undefined epipole;
# the pair is treated as degenerate and all samples are masked.
DEGENERATE_BASELINE = 1e-6


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with a single focal length for both axes."""

    f: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("width", "height"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {size!r}")
        if not 0 < self.f < math.inf:
            raise ValueError(f"focal length f must be a finite number > 0, got {self.f}")
        # a NaN or infinite principal point fails these comparisons too
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError(f"principal point (cx, cy) = ({self.cx}, {self.cy}) "
                             f"outside image bounds")

    @classmethod
    def from_fov(cls, width: int, height: int, fov_deg: float = 50.0) -> "CameraIntrinsics":
        """Intrinsics with the principal point at the grid center and a
        focal length derived from the horizontal field of view."""
        f = (width / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
        return cls(f=f, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                   width=width, height=height)

    def inverse(self) -> np.ndarray:
        return np.array([[1.0 / self.f, 0.0, -self.cx / self.f],
                         [0.0, 1.0 / self.f, -self.cy / self.f],
                         [0.0, 0.0, 1.0]])

    def scaled(self, scale: float) -> "CameraIntrinsics":
        """Intrinsics for a grid resampled by ``scale`` (e.g. 0.5 for a
        half-resolution feature grid), keeping pixel-area alignment."""
        return CameraIntrinsics(
            f=self.f * scale,
            cx=(self.cx + 0.5) * scale - 0.5,
            cy=(self.cy + 0.5) * scale - 0.5,
            width=int(round(self.width * scale)),
            height=int(round(self.height * scale)),
        )

    def normalize(self, uv: np.ndarray) -> np.ndarray:
        """Pixel points (..., 2) -> normalized points (..., 2)."""
        uv = np.asarray(uv, dtype=np.float64)
        return (uv - np.array([self.cx, self.cy])) / self.f

    def project(self, xyz: np.ndarray) -> np.ndarray:
        """Camera-frame points (..., 3) -> pixel points (..., 2)."""
        xyz = np.asarray(xyz, dtype=np.float64)
        z = xyz[..., 2:3]
        return xyz[..., :2] / z * self.f + np.array([self.cx, self.cy])


@dataclass(frozen=True)
class SphericalCamera:
    """A camera on a sphere around the origin, looking at the origin.

    Azimuth is measured in the xy plane from +x, elevation from the
    equator toward +z.
    """

    elevation_deg: float
    azimuth_deg: float
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.elevation_deg) and math.isfinite(self.azimuth_deg)):
            raise ValueError("elevation and azimuth must be finite")
        if not CAMERA_RADIUS[0](self.radius):
            raise ValueError(f"radius must be {CAMERA_RADIUS[1]}, got {self.radius}")
        if not -90.0 <= self.elevation_deg <= 90.0:
            raise ValueError("elevation must lie in [-90, 90] degrees")

    def position(self) -> np.ndarray:
        el = math.radians(self.elevation_deg)
        az = math.radians(self.azimuth_deg)
        return self.radius * np.array(
            [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
        )


@dataclass(frozen=True)
class Extrinsics:
    """World-to-camera transform: ``X_cam = R @ X_world + t``."""

    R: np.ndarray
    t: np.ndarray

    def apply(self, xyz_world: np.ndarray) -> np.ndarray:
        return np.asarray(xyz_world, dtype=np.float64) @ self.R.T + self.t

    def camera_center(self) -> np.ndarray:
        return -self.R.T @ self.t


@dataclass(frozen=True)
class RelativePose:
    """Rigid transform from reference-camera to target-camera coordinates."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=np.float64)
        t = np.asarray(self.t, dtype=np.float64).reshape(3)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)
        if R.shape != (3, 3):
            raise ValueError("R must be 3x3")
        if np.abs(R.T @ R - np.eye(3)).max() > 1e-9:
            raise ValueError("R is not orthonormal within 1e-9")
        if abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("R must have determinant +1")

    def baseline(self) -> float:
        return float(np.linalg.norm(self.t))


@dataclass(frozen=True)
class EpipolarLine:
    """Line (a, b, c) in reference normalized coordinates; undefined
    epipolar geometry gives the all-zero line."""

    coeffs: np.ndarray

    def normalized(self) -> np.ndarray:
        """Scale so that ||(a, b)|| = 1 with a deterministic sign, making
        two representations of the same point set comparable."""
        c = np.asarray(self.coeffs, dtype=np.float64)
        n = np.hypot(c[0], c[1])
        if n == 0.0:
            return np.zeros(3)
        c = c / n
        lead = c[0] if abs(c[0]) > 1e-12 else c[1]
        return c * np.sign(lead)

    def distance(self, xy: np.ndarray) -> np.ndarray:
        """Euclidean distance of normalized-coordinate points (..., 2)."""
        a, b, c = np.asarray(self.coeffs, dtype=np.float64)
        xy = np.asarray(xy, dtype=np.float64)
        num = np.abs(a * xy[..., 0] + b * xy[..., 1] + c)
        return num / max(np.hypot(a, b), 1e-300)


@dataclass(frozen=True)
class EpipolarSampleSet:
    """Sub-pixel sample coordinates along epipolar lines on a feature grid.

    Slot-major, the layout of the logits and weights read from it: ``uv``
    is (S, N, 2), slot s of each of the N target queries, and ``valid``
    (S, N) masks the slots retrieval reads. Building a set builds its
    bilinear tap plan of ``uv`` on the grid, :attr:`plan` (whose gathers
    are (C, S, N)), and folds the plan's in-grid mask into ``valid``,
    once; ``contributed`` (N,) marks the queries with a slot to read. Both
    masks are read-only, and the slots they clear are placeholders.

    A set depends only on the relative pose and the grid. The synthesizer
    builds one set per (context, target) pair per target view, reuses it
    with them at every step and layer, and frees all when that view ends.
    """

    uv: np.ndarray
    valid: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        plan = BilinearPlan.build(self.uv, self.width, self.height)
        valid = np.asarray(self.valid, dtype=bool) & plan.valid
        object.__setattr__(self, "plan", plan)
        for name, mask in (("valid", valid), ("contributed", valid.any(axis=0))):
            mask.setflags(write=False)
            object.__setattr__(self, name, mask)

    @classmethod
    def full_grid(cls, width: int, height: int, queries: int) -> "EpipolarSampleSet":
        """Sample set covering every pixel of the reference grid, for every
        query; turns epipolar attention into full cross attention."""
        uv = np.broadcast_to(pixel_grid(width, height)[:, None], (width * height, queries, 2))
        return cls(uv=uv, valid=np.ones(uv.shape[:2], dtype=bool), width=width, height=height)


def pixel_grid(width: int, height: int) -> np.ndarray:
    """Every pixel center of a ``width`` x ``height`` grid as (u, v), an
    (H*W, 2) float64 array in raster order (row-major)."""
    uv = np.empty((height, width, 2))
    uv[..., 0], uv[..., 1] = np.arange(width), np.arange(height)[:, None]
    return uv.reshape(-1, 2)


def skew_symmetric(t: np.ndarray) -> np.ndarray:
    """Matrix [t]x such that [t]x @ v == cross(t, v)."""
    t = np.asarray(t, dtype=np.float64).reshape(3)
    return np.array([[0.0, -t[2], t[1]],
                     [t[2], 0.0, -t[0]],
                     [-t[1], t[0], 0.0]])


def camera_on_sphere(cam: SphericalCamera) -> Extrinsics:
    """World-to-camera extrinsics for a sphere camera looking at the origin.

    At elevation +-90 degrees the world up (+z) is parallel to the optical
    axis, so the frame falls back to +x as the up hint.
    """
    center = cam.position()
    fwd = -center / np.linalg.norm(center)
    # right = fwd x up, down = fwd x right: np.cross's roundings, on Python floats
    f0, f1, f2 = fwd.tolist()
    u0, u1, u2 = (1.0, 0.0, 0.0) if abs(abs(cam.elevation_deg) - 90.0) < 1e-9 else (0.0, 0.0, 1.0)
    right = np.array([f1 * u2 - f2 * u1, f2 * u0 - f0 * u2, f0 * u1 - f1 * u0])
    right /= np.linalg.norm(right)
    r0, r1, r2 = right.tolist()
    R = np.array([right, [f1 * r2 - f2 * r1, f2 * r0 - f0 * r2, f0 * r1 - f1 * r0], fwd])
    return Extrinsics(R=R, t=-R @ center)


def relative_pose(ext_ref: Extrinsics, ext_tgt: Extrinsics) -> RelativePose:
    """Pose mapping reference-camera coordinates to target-camera ones."""
    R = ext_tgt.R @ ext_ref.R.T
    t = ext_tgt.t - R @ ext_ref.t
    return RelativePose(R=R, t=t)


def essential_matrix(pose: RelativePose) -> np.ndarray:
    """Essential matrix E with x_ref^T @ E @ x_tgt == 0 for corresponding
    normalized points, and E @ x_tgt the epipolar line in the reference view.

    For the (R, t) convention used here (X_tgt = R X_ref + t) the
    constraint-satisfying composition of the rotation and the skew matrix
    is R^T @ [t]x. E is all-zero exactly when the baseline vanishes.
    """
    return pose.R.T @ skew_symmetric(pose.t)


def _lines(pixels: np.ndarray, pose: RelativePose, K: CameraIntrinsics) -> np.ndarray:
    """Epipolar lines (n, 3) in reference normalized coordinates of target
    pixels (n, 2): ``E @ x`` of each pixel normalized with ``K``, in one
    product. A degenerate baseline gives all-zero lines."""
    if pose.baseline() < DEGENERATE_BASELINE:
        return np.zeros((len(pixels), 3))
    xn = np.concatenate([K.normalize(pixels), np.ones((len(pixels), 1))], axis=1)
    return xn @ essential_matrix(pose).T


def epipolar_line(p: np.ndarray, pose: RelativePose, K: CameraIntrinsics) -> EpipolarLine:
    """Epipolar line in the reference view for target pixel ``p``.

    The line of :func:`epipolar_sample_grid`'s row for that pixel, before
    it moves to the pixel frame: the pixel normalized with ``K`` and
    multiplied by the essential matrix, in reference normalized
    coordinates. A near-zero baseline yields the all-zero line.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)[:2]
    if not (0 <= p[0] <= K.width - 1 and 0 <= p[1] <= K.height - 1):
        raise ValueError(f"pixel {p} outside image bounds")
    return EpipolarLine(coeffs=_lines(p[None], pose, K)[0])


# Grid-boundary slack for the in-bounds test; valid samples are then
# clamped so the [0, W-1] x [0, H-1] invariant holds exactly.
EDGE_EPS = 1e-9


def _sample_lines(lines: np.ndarray, width: int, height: int) -> EpipolarSampleSet:
    """The line-stepping kernel: sample each of ``n`` pixel-frame lines
    (an (n, 3) array of a*u + b*v + c = 0) on a ``width`` x ``height`` grid.

    Each line steps one pixel along the axis it is most aligned with, so
    near-vertical lines are sampled as densely as horizontal ones. The set
    is slot-major, S = max(W, H) slots of each line; unused, out-of-grid and
    degenerate (a = b = 0) slots are masked, and valid samples are clamped
    onto the grid.
    """
    slots, n = max(width, height), lines.shape[0]
    uv = np.zeros((slots, n, 2))
    valid = np.zeros((slots, n), dtype=bool)
    a, b, c = lines[:, 0], lines[:, 1], lines[:, 2]
    finite = np.hypot(a, b) >= 1e-12
    along_x = np.abs(a) <= np.abs(b)
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)

    # step along x solving for v, or along y solving for u; along x, b != 0
    # (|a| <= |b| = 0 fails finite), and along y, |a| > |b| >= 0
    for sel, p, q, axis, steps, span in ((finite & along_x, a, b, 0, xs, height),
                                         (finite & ~along_x, b, a, 1, ys, width)):
        if np.any(sel):
            solved = -(steps[:, None] * p[sel] + c[sel]) / q[sel]   # (steps, lines)
            uv[:steps.size, sel, axis] = steps[:, None]
            uv[:steps.size, sel, 1 - axis] = np.clip(solved, 0.0, span - 1)
            valid[:steps.size, sel] = (solved >= -EDGE_EPS) & (solved <= span - 1 + EDGE_EPS)
    return EpipolarSampleSet(uv=uv, valid=valid, width=width, height=height)


def epipolar_sample_grid(pose: RelativePose, K_feat: CameraIntrinsics) -> EpipolarSampleSet:
    """Batched sample set: one epipolar line per target feature pixel,
    built in one product and sampled by the stepping kernel.

    Queries are the pixels of ``K_feat``'s grid in raster order (row-major),
    and the lines are sampled on that same grid. A degenerate baseline
    gives all-zero lines, so every slot comes back masked.
    """
    width, height = K_feat.width, K_feat.height
    lines = _lines(pixel_grid(width, height), pose, K_feat)
    return _sample_lines(lines @ K_feat.inverse(), width, height)   # == (K^-T @ l)^T, pixel frame


# The one rule of every JSON record that holds a dataclass (a pose, a scene
# primitive): a key per field, whose value the field's type (less any
# "| None") writes and reads.
_FIELD_RULES = {"float": (float, float), "str": (lambda v: v, lambda v: v),
                "np.ndarray": (lambda a: np.asarray(a, dtype=np.float64).tolist(), np.array)}


def to_record(obj) -> dict:
    """A dataclass as a JSON record; a field holding None is left out."""
    return {f.name: _FIELD_RULES[f.type.split()[0]][0](v) for f in fields(obj)
            if (v := getattr(obj, f.name)) is not None}


def from_record(cls, record: dict):
    """A ``cls`` from its JSON record: other keys are ignored, and an absent
    field takes its default, else raises KeyError naming it."""
    return cls(**{f.name: _FIELD_RULES[f.type.split()[0]][1](record[f.name])
                  for f in fields(cls) if f.name in record or f.default is MISSING})


# A camera as the pose record of trajectories, fixtures and manifests, and back.
pose_to_json = to_record
pose_from_json = partial(from_record, SphericalCamera)
