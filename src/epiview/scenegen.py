"""Synthetic scenes: ray-cast rendering, ground-truth correspondences,
and view trajectories.

Scenes are a large painted ball with a few small flat-colored satellite
spheres (fixtures may also hold axis-aligned boxes) inside a unit-ish
bounding sphere, rendered with a pinhole model whose one ray cast meets
every primitive at once (the first in scene order wins a tie). Because every
surface is analytic, depth and cross-view correspondences are exact,
which is what the geometric and consistency tests lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .geometry import (
    CameraIntrinsics,
    Extrinsics,
    SphericalCamera,
    camera_on_sphere,
    from_record,
    pixel_grid,
    to_record,
)
from .numerics import FeatureMap

__all__ = [
    "Sphere",
    "Box",
    "PaintedBall",
    "Scene",
    "RenderedView",
    "make_scene",
    "render",
    "raycast",
    "surface_table",
    "surface_palette",
    "correspondence_grid",
    "positional_features",
    "make_trajectory",
    "SCENE_MODES",
    "TRAJECTORIES",
    "PRIMITIVE_KINDS",
    "scene_to_json",
    "scene_from_json",
]

# Depth agreement (scene units) below which a reprojected point counts as
# the visible surface rather than occluded.
OCCLUSION_TOL = 1e-4

BACKGROUND = -1

_SHADINGS = ("voronoi", "normal")

# make_scene's scene kinds, and make_trajectory's trajectories: name -> (view
# count, elevation in degrees shared by every view, or None to draw one per view).
SCENE_MODES = ("distinctive", "plain")
TRAJECTORIES = {"fixed16": (16, 30.0), "free16": (16, None), "free32": (32, None)}


def _check_array(name: str, value, rows: bool = False, unit: bool = False) -> None:
    """Reject a primitive's point or color that is not a finite (3,) array,
    or, with ``rows``, a finite (m, 3) array of m >= 1 rows; with ``unit``
    (a color), also one with an entry outside [0, 1]."""
    if value is None:
        raise ValueError(f"{name} is missing")
    a = np.asarray(value, dtype=np.float64)
    want = "(m, 3)" if rows else "(3,)"
    if not ((a.ndim == 2 and len(a) >= 1 and a.shape[1] == 3) if rows else a.shape == (3,)):
        raise ValueError(f"{name} must have shape {want}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    if unit and not ((a >= 0.0) & (a <= 1.0)).all():
        raise ValueError(f"{name} has entries outside [0, 1]")


def _check_radius(radius, name: str = "radius") -> None:
    if not (radius > 0 and math.isfinite(radius * radius)):   # ray casts square it
        raise ValueError(f"{name} must be a number > 0 with a finite square, got {radius}")


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float
    color: np.ndarray

    def __post_init__(self):
        _check_array("center", self.center)
        _check_radius(self.radius)
        _check_array("color", self.color, unit=True)

    @property
    def id_count(self) -> int:
        return 1


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray
    color: np.ndarray

    def __post_init__(self):
        for name in ("lo", "hi", "color"):
            _check_array(name, getattr(self, name), unit=name == "color")
        lo, hi = np.asarray(self.lo, dtype=np.float64), np.asarray(self.hi, dtype=np.float64)
        if np.any(lo > hi):
            raise ValueError(f"box lo {lo.tolist()} lies above hi {hi.tolist()} on an axis")

    @property
    def id_count(self) -> int:
        return 1


@dataclass(frozen=True)
class PaintedBall:
    """A sphere with a painted surface.

    ``voronoi`` shading flat-fills the spherical Voronoi cells of
    ``seeds`` with ``colors``; each cell gets its own surface id so
    same-surface checks work at patch granularity. ``normal`` shading
    colors every point by an injective, equal-norm map of its surface
    normal, giving each point a unique color (unambiguous matching
    ground truth)."""

    center: np.ndarray
    radius: float
    seeds: np.ndarray | None = None     # (m, 3) unit directions, voronoi only
    colors: np.ndarray | None = None    # (m, 3), voronoi only
    shading: str = "voronoi"

    def __post_init__(self):
        if self.shading not in _SHADINGS:
            raise ValueError(f"shading must be one of {_SHADINGS}, got {self.shading!r}")
        _check_array("center", self.center)
        _check_radius(self.radius)
        if self.shading == "voronoi":
            _check_array("seeds", self.seeds, rows=True)
            _check_array("colors", self.colors, rows=True, unit=True)
            if len(self.seeds) != len(self.colors):
                raise ValueError(f"seeds and colors must have as many rows, got "
                                 f"{len(self.seeds)} and {len(self.colors)}")

    @property
    def id_count(self) -> int:
        if self.shading == "voronoi":
            return self.seeds.shape[0]
        return 1

    def shade_normals(self, normals: np.ndarray) -> np.ndarray:
        """Unique equal-norm color per unit normal: the normal pulls the
        gray diagonal by less than its own length, so distinct normals map
        to distinct directions inside the RGB cube, each channel in (0, 0.9]."""
        d = 0.5 * normals + 1.0 / math.sqrt(3.0)
        sq = d * d   # summed in channel order, as np.linalg.norm sums them
        return 0.9 * (d / np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])[..., None])


# scene.json's primitive kinds: name -> class.
PRIMITIVE_KINDS = {"sphere": Sphere, "box": Box, "painted_ball": PaintedBall}


@dataclass(frozen=True)
class Scene:
    seed: int
    primitives: tuple
    bounding_radius: float
    mode: str = "distinctive"

    def __post_init__(self):
        _check_radius(self.bounding_radius, "bounding_radius")

    def check_camera(self, cam: SphericalCamera) -> None:
        """Reject a camera that does not stay outside the bounding sphere."""
        if cam.radius <= self.bounding_radius:
            raise ValueError("camera must stay outside the scene bounding sphere")


@dataclass(frozen=True)
class RenderedView:
    rgb: FeatureMap
    depth: np.ndarray          # (H, W) camera-frame z, inf for background
    prim_id: np.ndarray        # (H, W) int, BACKGROUND for background
    camera: SphericalCamera
    intrinsics: CameraIntrinsics
    points: np.ndarray         # (H, W, 3) world hit points, the camera center for background

    @property
    def extrinsics(self) -> Extrinsics:
        return camera_on_sphere(self.camera)


def _equal_norm_colors(rng: np.random.Generator, n: int) -> np.ndarray:
    """Colors of norm 0.9 with greedily maximized pairwise angles, so
    dot-product matching has a strict, unambiguous winner.

    Greedy farthest-point selection over a candidate pool of octant
    directions; deterministic for a given generator.
    """
    pool = rng.uniform(0.0, 1.0, (4096, 3))
    pool = pool[np.linalg.norm(pool, axis=1) > 1e-3]
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    picked = [pool[0]]
    for _ in range(n - 1):
        worst = np.max(np.stack([pool @ p for p in picked]), axis=0)
        picked.append(pool[np.argmin(worst)])
    return np.clip(np.array(picked) * 0.9, 0.0, 1.0)


def _fibonacci_sphere(n: int) -> np.ndarray:
    """n roughly evenly spread unit directions."""
    i = np.arange(n) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z ** 2)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _satellite_center(rng: np.random.Generator) -> np.ndarray:
    """Center of a satellite sphere at radius 0.82, drawn as azimuth then elevation."""
    az = rng.uniform(0, 2 * math.pi)
    el = rng.uniform(-0.4, 0.7)
    return 0.82 * np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])


def make_scene(seed: int, mode: str = "distinctive") -> Scene:
    """Build a random scene around one large ball of radius 0.7.

    ``distinctive``: the ball is normal-shaded, so every surface point
    carries its own equal-norm color (match-unambiguous), plus 3 small
    satellite spheres of distinct equal-norm colors that create
    occlusions. ``plain``: the ball is painted with 24 Voronoi cells of
    near-gray colors, plus 2 satellites from the same narrow palette,
    stressing soft matching under ambiguity.
    """
    if mode not in SCENE_MODES:
        raise ValueError(f"unknown scene mode {mode!r}")
    rng = np.random.default_rng(seed)
    prims: list = []
    if mode == "distinctive":
        colors = _equal_norm_colors(rng, 3)
        prims.append(PaintedBall(center=np.zeros(3), radius=0.7, shading="normal"))
        for k in range(3):
            prims.append(Sphere(center=_satellite_center(rng),
                                radius=float(rng.uniform(0.08, 0.11)), color=colors[k]))
    else:
        # plain: flat fills and a deliberately narrow palette: exact-zero
        # self-consistency, ambiguous matching
        base = rng.uniform(0.45, 0.6, 3)
        jitter = rng.uniform(-0.06, 0.06, (24, 3))
        prims.append(PaintedBall(center=np.zeros(3), radius=0.7,
                                 seeds=_fibonacci_sphere(24),
                                 colors=np.clip(base + jitter, 0.0, 1.0),
                                 shading="voronoi"))
        for k in range(2):
            prims.append(Sphere(center=_satellite_center(rng),
                                radius=float(rng.uniform(0.09, 0.12)),
                                color=np.clip(base + rng.uniform(-0.06, 0.06, 3), 0, 1)))
    return Scene(seed=seed, primitives=tuple(prims), bounding_radius=1.0, mode=mode)


def _ray_spheres(origin, dirs, spheres):
    """(P, N) smallest positive ray parameter of each ray at each sphere, inf
    for a miss; ``dirs`` may be unnormalized (the parameter is in units of |dir|)."""
    d2 = 2.0 * dirs
    b = np.empty((len(spheres), len(dirs)))
    c = np.empty((len(spheres), 1))
    for j, p in enumerate(spheres):
        oc = origin - p.center
        np.matmul(d2, oc, out=b[j])   # one product per sphere: a batched one may round otherwise
        c[j] = oc @ oc - p.radius ** 2
    a = np.einsum("nd,nd->n", dirs, dirs)
    disc = b ** 2 - 4.0 * a * c
    hit = disc >= 0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    a *= 2.0
    s = (-b - sq) / a   # the near root, or else the far one
    np.copyto(s, (sq - b) / a, where=~(s > 1e-9))
    s[~(hit & (s > 1e-9))] = np.inf
    return s


def _ray_box(origin, dirs, lo, hi):
    """Slab-method ray/AABB intersection; same conventions as spheres."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t0 = (lo[None, :] - origin[None, :]) * inv
        t1 = (hi[None, :] - origin[None, :]) * inv
    tmin = np.minimum(t0, t1).max(axis=1)
    tmax = np.maximum(t0, t1).min(axis=1)
    s = np.where(tmin > 1e-9, tmin, tmax)
    ok = (tmax >= tmin) & (s > 1e-9)
    return np.where(ok, s, np.inf)


def surface_table(scene: Scene):
    """Global surface-id layout: flat primitives own one id, painted
    balls one per patch. Returns (id base per primitive, total ids)."""
    *bases, total = accumulate((p.id_count for p in scene.primitives), initial=0)
    return bases, total


def surface_palette(scene: Scene) -> np.ndarray:
    """(total_ids, 3) color per surface id; normal-shaded balls hold a
    placeholder (their color is computed per point at render time)."""
    bases, total = surface_table(scene)
    pal = np.zeros((total, 3))
    for p, base in zip(scene.primitives, bases):
        if not isinstance(p, PaintedBall):
            pal[base] = p.color
        elif p.shading == "voronoi":
            pal[base:base + p.id_count] = p.colors
    return pal


def raycast(scene: Scene, ext: Extrinsics, K: CameraIntrinsics, uv: np.ndarray):
    """Cast rays through sub-pixel positions ``uv`` (N, 2).

    Returns (depth (N,), surf_id (N,), points (N, 3)): camera-frame z of
    the first hit (inf for a miss), the global surface id hit
    (patch-resolved for painted balls, BACKGROUND for misses), and the
    world hit point, camera center plus depth times the ray direction (the
    camera center itself for a miss).

    Row 1 + i of one (1 + P, N) table holds primitive i's ray parameters,
    under a row 0 that never hits. Each ray takes its first minimum, so the
    first primitive in scene order wins a tie, and a ray that hits nothing
    takes row 0, the background.
    """
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    n = uv.shape[0]
    dirs = np.concatenate([K.normalize(uv), np.ones((n, 1))], axis=1) @ ext.R   # R^T per row
    origin = ext.camera_center()

    prims = scene.primitives
    table = np.full((1 + len(prims), n), np.inf)
    balls = [i for i, p in enumerate(prims) if not isinstance(p, Box)]
    table[[1 + i for i in balls]] = _ray_spheres(origin, dirs, [prims[i] for i in balls])
    for i, p in enumerate(prims):
        if isinstance(p, Box):
            table[1 + i] = _ray_box(origin, dirs, np.asarray(p.lo, dtype=np.float64),
                                    np.asarray(p.hi, dtype=np.float64))
    pick = table.argmin(axis=0)
    depth = table.min(axis=0)
    points = dirs * np.where(pick > 0, depth, 0.0)[:, None] + origin

    surf = np.array([BACKGROUND, *surface_table(scene)[0]], dtype=np.int64)[pick]
    for i, p in enumerate(prims):
        if isinstance(p, PaintedBall) and p.shading == "voronoi":
            sel = pick == 1 + i
            surf[sel] += np.argmax((points[sel] - p.center) / p.radius @ p.seeds.T, axis=1)
    return depth, surf, points


def render(scene: Scene, cam: SphericalCamera, K: CameraIntrinsics) -> RenderedView:
    """Pinhole render of every pixel center. Deterministic for a fixed scene."""
    scene.check_camera(cam)
    h, w = K.height, K.width
    depth, surf, points = raycast(scene, camera_on_sphere(cam), K, pixel_grid(w, h))
    rgb = np.concatenate([surface_palette(scene), np.zeros((1, 3))])[surf]   # -1: the black row
    for p, base in zip(scene.primitives, surface_table(scene)[0]):
        if isinstance(p, PaintedBall) and p.shading == "normal":
            sel = surf == base
            rgb[sel] = p.shade_normals((points[sel] - p.center) / p.radius)
    return RenderedView(
        rgb=FeatureMap(rgb.reshape(h, w, 3)),
        depth=depth.reshape(h, w),
        prim_id=surf.reshape(h, w),
        camera=cam,
        intrinsics=K,
        points=points.reshape(h, w, 3),
    )


def _correspond(scene: Scene, prim_a: np.ndarray, x_world: np.ndarray, view_b: RenderedView):
    """The one correspondence kernel: given the surface ids ``prim_a`` (N,)
    and world hit points ``x_world`` (N, 3) of view A's rays, as
    :func:`raycast` returns them, project the hit points into view B and
    cast B's rays at those in B's frame. Returns (visible, uv_b, prim_b),
    one row per ray: a point is visible when it is foreground in A, in
    front of B, inside B's frame, and B's cast depth agrees with its own
    within ``OCCLUSION_TOL``; uv_b is zero where A is background or the
    point is behind B; prim_b is B's hit, BACKGROUND where not cast."""
    ext_b, K_b = view_b.extrinsics, view_b.intrinsics
    x_b = ext_b.apply(x_world)
    n = prim_a.shape[0]
    visible = np.zeros(n, dtype=bool)
    uv_b = np.zeros((n, 2))
    prim_b = np.full(n, BACKGROUND, dtype=np.int64)
    front = np.flatnonzero((prim_a >= 0) & (x_b[:, 2] > 0))
    uv_b[front] = K_b.project(x_b[front])
    u, v = uv_b[front, 0], uv_b[front, 1]
    check = front[(u >= 0) & (u <= K_b.width - 1) & (v >= 0) & (v <= K_b.height - 1)]
    depth_b, prim_b[check], _ = raycast(scene, ext_b, K_b, uv_b[check])
    visible[check] = np.abs(depth_b - x_b[check, 2]) <= OCCLUSION_TOL
    return visible, uv_b, prim_b


def correspondence_grid(scene: Scene, view_a: RenderedView, view_b: RenderedView,
                        uv_a: np.ndarray):
    """Exact correspondences of (sub-)pixels ``uv_a`` (N, 2) of view A in
    view B. Returns (uv_b (N, 2), visible (N,), prim_a (N,), prim_b (N,));
    rows that are background in A come back with prim_a == BACKGROUND and
    visible False."""
    _, prim_a, x_world = raycast(scene, view_a.extrinsics, view_a.intrinsics, uv_a)
    visible, uv_b, prim_b = _correspond(scene, prim_a, x_world, view_b)
    return uv_b, visible, prim_a, prim_b


def positional_features(scene: Scene, view: RenderedView, width: int) -> FeatureMap:
    """Sinusoidal position-encoded feature map of the visible surface.

    Its 6 channels are sin and cos of 9 times the hit point's coordinates,
    evaluated at feature-pixel centers through the analytic scene. Every
    surface point maps to the same feature in every view and to a
    constant-norm vector (sin^2 + cos^2), which makes the field an
    idealized distinctive texture with an unambiguous matching ground
    truth; background pixels are zero. The grid is ``width`` pixels wide
    and as tall as the view's intrinsics scaled to that width make it.
    """
    k_feat = view.intrinsics.scaled(width / view.intrinsics.width)
    _, surf, pts = raycast(scene, view.extrinsics, k_feat, pixel_grid(k_feat.width, k_feat.height))
    feat = np.concatenate([np.sin(9.0 * pts), np.cos(9.0 * pts)], axis=1)
    feat[surf < 0] = 0.0
    return FeatureMap(feat.reshape(k_feat.height, k_feat.width, -1))


def make_trajectory(mode: str, seed: int, radius: float = 2.0) -> list[SphericalCamera]:
    """View trajectories used throughout the experiments.

    ``fixed16``: constant 30 degree elevation, azimuths every 22.5
    degrees. ``free16``/``free32``: azimuths evenly spaced over
    [0, 360), per-view elevations drawn uniformly from [-10, 40] degrees.
    """
    if mode not in TRAJECTORIES:
        raise ValueError(f"unknown trajectory mode {mode!r}")
    n, elevation = TRAJECTORIES[mode]
    step = 360.0 / n
    rng = np.random.default_rng(seed)
    elevs = rng.uniform(-10.0, 40.0, n) if elevation is None else np.full(n, elevation)
    return [SphericalCamera(float(elevs[k]), k * step, radius) for k in range(n)]


def scene_to_json(scene: Scene) -> dict:
    """A scene as its scene.json record: a primitive is its ``kind`` and its fields."""
    kinds = {cls: kind for kind, cls in PRIMITIVE_KINDS.items()}
    return to_record(scene, primitives=[{"kind": kinds[type(p)], **to_record(p)}
                                        for p in scene.primitives])


def scene_from_json(obj: dict) -> Scene:
    """Inverse of :func:`scene_to_json`, by the record rule of :func:`from_record`."""
    prims: list = []
    for p in obj["primitives"]:
        if p["kind"] not in PRIMITIVE_KINDS:
            raise ValueError(f"unknown primitive kind {p['kind']!r}")
        prims.append(from_record(PRIMITIVE_KINDS[p["kind"]], p))
    scene = from_record(Scene, obj, primitives=tuple(prims))
    # every primitive inside the bounding sphere: in front of every camera check_camera admits
    for i, (p, record) in enumerate(zip(prims, obj["primitives"])):
        if isinstance(p, Box):   # the corner farthest from the origin
            reach = math.hypot(*np.maximum(np.abs(p.lo), np.abs(p.hi)))
        else:
            reach = math.hypot(*p.center) + p.radius
        if reach > scene.bounding_radius:
            raise ValueError(f"primitive {i} ({record['kind']}) reaches {reach:.6g} from the "
                             f"origin, outside the bounding radius {scene.bounding_radius:g}")
    return scene
