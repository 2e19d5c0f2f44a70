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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CameraIntrinsics",
    "SphericalCamera",
    "Extrinsics",
    "RelativePose",
    "EpipolarLine",
    "EpipolarSampleSet",
    "skew_symmetric",
    "camera_on_sphere",
    "relative_pose",
    "essential_matrix",
    "epipolar_line",
    "line_to_pixel_frame",
    "sample_epipolar_points",
    "epipolar_sample_grid",
    "pose_to_json",
    "pose_from_json",
]

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
        if self.f <= 0:
            raise ValueError(f"focal length must be positive, got {self.f}")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError("principal point outside image bounds")

    @classmethod
    def from_fov(cls, width: int, height: int, fov_deg: float = 50.0) -> "CameraIntrinsics":
        """Intrinsics with the principal point at the grid center and a
        focal length derived from the horizontal field of view."""
        f = (width / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
        return cls(f=f, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                   width=width, height=height)

    def matrix(self) -> np.ndarray:
        return np.array([[self.f, 0.0, self.cx],
                         [0.0, self.f, self.cy],
                         [0.0, 0.0, 1.0]])

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
        if self.radius <= 0:
            raise ValueError("radius must be positive")
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

    def apply(self, xyz_ref: np.ndarray) -> np.ndarray:
        return np.asarray(xyz_ref, dtype=np.float64) @ self.R.T + self.t

    def inverse(self) -> "RelativePose":
        return RelativePose(R=self.R.T, t=-self.R.T @ self.t)

    def compose(self, other: "RelativePose") -> "RelativePose":
        """self . other : apply ``other`` first, then ``self``."""
        return RelativePose(R=self.R @ other.R, t=self.R @ other.t + self.t)

    def baseline(self) -> float:
        return float(np.linalg.norm(self.t))

    @classmethod
    def identity(cls) -> "RelativePose":
        return cls(R=np.eye(3), t=np.zeros(3))


@dataclass(frozen=True)
class EpipolarLine:
    """Line (a, b, c) in reference normalized coordinates; degenerate lines
    (undefined epipolar geometry) carry an explicit flag."""

    coeffs: np.ndarray
    degenerate: bool = False

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

    ``uv`` has shape (S, 2) for a single query or (N, S, 2) for a batch of
    queries; ``valid`` mirrors the leading shape. Invalid slots are
    placeholders and must be masked by every consumer.

    A set depends only on the relative pose and the grid, so the
    synthesizer builds one per (context, target) pair, together with the
    bilinear tap plan of its positions, once per target view, reuses both
    at every step and layer, and frees them when that view ends.
    """

    uv: np.ndarray
    valid: np.ndarray
    width: int
    height: int

    @classmethod
    def full_grid(cls, width: int, height: int, queries: int) -> "EpipolarSampleSet":
        """Sample set covering every pixel of the reference grid, for every
        query; turns epipolar attention into full cross attention."""
        vv, uu = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
        uv = np.stack([uu.ravel(), vv.ravel()], axis=-1).astype(np.float64)
        uv = np.broadcast_to(uv, (queries,) + uv.shape)
        valid = np.ones(uv.shape[:2], dtype=bool)
        return cls(uv=uv, valid=valid, width=width, height=height)


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
    up = np.array([0.0, 0.0, 1.0])
    if abs(abs(cam.elevation_deg) - 90.0) < 1e-9:
        up = np.array([1.0, 0.0, 0.0])
    right = np.cross(fwd, up)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd])
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


def epipolar_line(p: np.ndarray, pose: RelativePose, K: CameraIntrinsics) -> EpipolarLine:
    """Epipolar line in the reference view for target pixel ``p``.

    The pixel is normalized with ``K`` and multiplied by the essential
    matrix; the resulting line lives in reference normalized coordinates
    (convert with :func:`line_to_pixel_frame` before sampling a grid).
    A near-zero baseline yields a degenerate, flagged line.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)[:2]
    if not (0 <= p[0] <= K.width - 1 and 0 <= p[1] <= K.height - 1):
        raise ValueError(f"pixel {p} outside image bounds")
    if pose.baseline() < DEGENERATE_BASELINE:
        return EpipolarLine(coeffs=np.zeros(3), degenerate=True)
    x = np.append(K.normalize(p), 1.0)
    return EpipolarLine(coeffs=essential_matrix(pose) @ x)


def line_to_pixel_frame(line: EpipolarLine, K: CameraIntrinsics) -> np.ndarray:
    """Convert a normalized-coordinate line to the pixel frame of ``K``."""
    return K.inverse().T @ np.asarray(line.coeffs, dtype=np.float64)


# Grid-boundary slack for the in-bounds test; valid samples are then
# clamped so the [0, W-1] x [0, H-1] invariant holds exactly.
EDGE_EPS = 1e-9


def _step_line(coeffs: np.ndarray, width: int, height: int, along_x: bool, slots: int):
    """One sample per integer step along the chosen axis; out-of-grid
    positions masked. Returns (uv (slots, 2), valid (slots,))."""
    a, b, c = coeffs
    uv = np.zeros((slots, 2))
    valid = np.zeros(slots, dtype=bool)
    if along_x:
        n = width
        u = np.arange(n, dtype=np.float64)
        v = -(a * u + c) / b
        valid[:n] = (v >= -EDGE_EPS) & (v <= height - 1 + EDGE_EPS)
        uv[:n, 0], uv[:n, 1] = u, np.clip(v, 0.0, height - 1)
    else:
        n = height
        v = np.arange(n, dtype=np.float64)
        u = -(b * v + c) / a
        valid[:n] = (u >= -EDGE_EPS) & (u <= width - 1 + EDGE_EPS)
        uv[:n, 0], uv[:n, 1] = np.clip(u, 0.0, width - 1), v
    return uv, valid


def sample_epipolar_points(
    line: EpipolarLine,
    width: int,
    height: int,
    K_feat: CameraIntrinsics,
    sample_axis: str = "dominant",
) -> EpipolarSampleSet:
    """Sample the epipolar line on a ``width`` x ``height`` feature grid.

    ``K_feat`` must be the intrinsics of that grid (see
    :meth:`CameraIntrinsics.scaled`). In the default ``dominant`` mode the
    samples step one feature pixel along the axis the line is most aligned
    with, so near-vertical lines are sampled as densely as horizontal
    ones; ``width`` mode always steps along the image width. max(W, H)
    slots are allocated per query; unused or out-of-grid slots are masked.
    """
    if sample_axis not in ("dominant", "width"):
        raise ValueError(f"unknown sample_axis {sample_axis!r}")
    slots = max(width, height)
    if line.degenerate:
        return EpipolarSampleSet(uv=np.zeros((slots, 2)), valid=np.zeros(slots, dtype=bool),
                                 width=width, height=height)
    coeffs = line_to_pixel_frame(line, K_feat)
    a, b = coeffs[0], coeffs[1]
    if np.hypot(a, b) < 1e-12:
        return EpipolarSampleSet(uv=np.zeros((slots, 2)), valid=np.zeros(slots, dtype=bool),
                                 width=width, height=height)
    along_x = True if sample_axis == "width" else abs(a) <= abs(b)
    if along_x and b == 0.0:
        # width stepping cannot represent a perfectly vertical line
        uv, valid = np.zeros((slots, 2)), np.zeros(slots, dtype=bool)
    else:
        uv, valid = _step_line(coeffs, width, height, along_x, slots)
    return EpipolarSampleSet(uv=uv, valid=valid, width=width, height=height)


def epipolar_sample_grid(
    pose: RelativePose,
    K_feat: CameraIntrinsics,
    width: int,
    height: int,
    sample_axis: str = "dominant",
) -> EpipolarSampleSet:
    """Batched sample set: one epipolar line per target feature pixel.

    Queries are in raster order (row-major over the target grid). The
    reference and target grids share ``K_feat``.
    """
    slots = max(width, height)
    n = width * height
    uv = np.zeros((n, slots, 2))
    valid = np.zeros((n, slots), dtype=bool)
    if pose.baseline() < DEGENERATE_BASELINE:
        return EpipolarSampleSet(uv=uv, valid=valid, width=width, height=height)

    E = essential_matrix(pose)
    vv, uu = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    pts = np.stack([uu.ravel(), vv.ravel()], axis=-1).astype(np.float64)
    xn = np.concatenate([K_feat.normalize(pts), np.ones((n, 1))], axis=1)
    lines = xn @ E.T                       # (n, 3) lines, normalized frame
    lines = lines @ K_feat.inverse()       # == (K^-T @ l)^T, pixel frame
    a, b, c = lines[:, 0], lines[:, 1], lines[:, 2]
    finite = np.hypot(a, b) >= 1e-12
    if sample_axis == "width":
        along_x = np.ones(n, dtype=bool)
    else:
        along_x = np.abs(a) <= np.abs(b)

    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)

    ix = finite & along_x & (b != 0.0)
    if np.any(ix):
        v = -(a[ix, None] * xs[None, :] + c[ix, None]) / b[ix, None]
        rows = np.flatnonzero(ix)[:, None]
        cols = np.arange(width)[None, :]
        uv[rows, cols, 0] = xs[None, :]
        uv[rows, cols, 1] = np.clip(v, 0.0, height - 1)
        valid[rows, cols] = (v >= -EDGE_EPS) & (v <= height - 1 + EDGE_EPS)
    iy = finite & ~along_x
    if np.any(iy):
        u = -(b[iy, None] * ys[None, :] + c[iy, None]) / a[iy, None]
        rows = np.flatnonzero(iy)[:, None]
        cols = np.arange(height)[None, :]
        uv[rows, cols, 0] = np.clip(u, 0.0, width - 1)
        uv[rows, cols, 1] = ys[None, :]
        valid[rows, cols] = (u >= -EDGE_EPS) & (u <= width - 1 + EDGE_EPS)
    return EpipolarSampleSet(uv=uv, valid=valid, width=width, height=height)


def pose_to_json(pose) -> dict:
    """Serialize a SphericalCamera or RelativePose to a plain dict."""
    if isinstance(pose, SphericalCamera):
        return {"elevation_deg": pose.elevation_deg,
                "azimuth_deg": pose.azimuth_deg,
                "radius": pose.radius}
    if isinstance(pose, RelativePose):
        return {"R": [float(x) for x in pose.R.ravel()],
                "t": [float(x) for x in pose.t]}
    raise TypeError(f"cannot serialize {type(pose).__name__}")


def pose_from_json(obj: dict):
    """Inverse of :func:`pose_to_json`."""
    if "elevation_deg" in obj:
        return SphericalCamera(elevation_deg=float(obj["elevation_deg"]),
                               azimuth_deg=float(obj["azimuth_deg"]),
                               radius=float(obj["radius"]))
    if "R" in obj:
        return RelativePose(R=np.array(obj["R"], dtype=np.float64).reshape(3, 3),
                            t=np.array(obj["t"], dtype=np.float64))
    raise ValueError("unrecognized pose JSON")
