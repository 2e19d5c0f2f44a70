"""File formats: PPM/PGM images, raw float32 blobs, pose and scene JSON,
fixture directories, trajectories and run manifests.

All binary formats are little-endian and dependency-free so golden files
stay stable across machines.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import DataError
from .geometry import CameraIntrinsics, SphericalCamera, pose_from_json, pose_to_json
from .scenegen import RenderedView, Scene, scene_from_json, scene_to_json

__all__ = [
    "write_ppm", "read_ppm", "write_pgm",
    "write_f32",
    "write_fixture", "read_fixture",
    "write_trajectory", "read_trajectory", "camera_from_json", "read_intrinsics",
    "write_json", "read_json",
]


def to_u8(data: np.ndarray) -> np.ndarray:
    return np.round(np.clip(np.asarray(data, dtype=np.float64), 0.0, 1.0) * 255.0).astype(np.uint8)


def _write_pnm(path, img: np.ndarray, magic: str) -> None:
    """A binary PNM file (maxval 255) of a u8 image: header, then raster."""
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        fh.write(img.tobytes())


def write_ppm(path, image: np.ndarray) -> None:
    """Binary PPM (P6, maxval 255) from an (H, W, 3) array in [0, 1]."""
    img = to_u8(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("PPM wants an HxWx3 image")
    _write_pnm(path, img, "P6")


def read_ppm(path) -> np.ndarray:
    """Read a binary 8-bit PPM (P6, maxval 1..255) into an (H, W, 3)
    float32 array in [0, 1]. Anything else, or a short pixel block, is a
    DataError naming the path."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P6"):
        raise DataError(f"{path}: not a binary PPM")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError:
        raise DataError(f"{path}: bad PPM header {b' '.join(fields)!r}") from None
    if w < 1 or h < 1:
        raise DataError(f"{path}: PPM size {w}x{h} is not a positive width and height")
    if not 1 <= maxval <= 255:
        raise DataError(f"{path}: unsupported PPM maxval {maxval} (need 1..255)")
    if len(raw) - pos < h * w * 3:
        raise DataError(f"{path}: truncated PPM, {len(raw) - pos} of {h * w * 3} pixel bytes")
    data = np.frombuffer(raw, dtype=np.uint8, count=h * w * 3, offset=pos)
    return (data.reshape(h, w, 3).astype(np.float32) / float(maxval))


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255) from an (H, W) array in [0, 1]."""
    img = to_u8(image)
    if img.ndim != 2:
        raise ValueError("PGM wants an HxW image")
    _write_pnm(path, img, "P5")


def write_f32(path, data: np.ndarray, sidecar: dict) -> None:
    """Raw little-endian float32 blob, row-major, with a JSON sidecar
    describing the shape and holding the ``sidecar`` fields."""
    arr = np.ascontiguousarray(data, dtype="<f4")
    Path(path).write_bytes(arr.tobytes())
    meta = {"shape": list(arr.shape), "dtype": "float32-le", "order": "row-major", **sidecar}
    Path(str(path) + ".json").write_text(json.dumps(meta, indent=1))


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True))


def read_json(path) -> dict:
    """A JSON object from a file; anything else is a DataError naming the path."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as e:   # incl. JSON and UTF-8 decode errors
        raise DataError(f"{path}: not JSON ({e})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: not a JSON object")
    return obj


def camera_from_json(obj, where: str) -> SphericalCamera:
    """The SphericalCamera of a pose record; anything else is a DataError naming ``where``."""
    try:
        return pose_from_json(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{where} is not a camera ({type(e).__name__}: {e})") from None


def write_trajectory(path, cams: list[SphericalCamera]) -> None:
    write_json(path, {"views": [pose_to_json(c) for c in cams]})


def read_trajectory(path, key: str = "views") -> list[SphericalCamera]:
    """The camera list under ``key`` of a trajectory, fixture cameras or run manifest file."""
    views = read_json(path).get(key)
    if not isinstance(views, list):
        raise DataError(f'{path}: no "{key}" list')
    return [camera_from_json(v, f"{path} view {i}") for i, v in enumerate(views)]


def read_intrinsics(path) -> CameraIntrinsics:
    """The ``"intrinsics"`` record of a fixture's cameras.json or a run's manifest.json."""
    obj = read_json(path)
    if "intrinsics" not in obj:
        raise DataError(f"{path}: missing key 'intrinsics'")
    try:
        return CameraIntrinsics(**obj["intrinsics"])
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: bad 'intrinsics' ({type(e).__name__}: {e})") from None


def write_fixture(out_dir, scene: Scene, K: CameraIntrinsics, views: list[RenderedView]) -> None:
    """Persist a fixture directory of ``views``, rendered from ``scene`` at ``K``:

    scene.json, cameras.json, views/NNN.ppm, depth/NNN.f32 (+ sidecars).
    """
    out = Path(out_dir)
    (out / "views").mkdir(parents=True, exist_ok=True)
    (out / "depth").mkdir(parents=True, exist_ok=True)
    write_json(out / "scene.json", scene_to_json(scene))
    write_json(out / "cameras.json",
               {"intrinsics": asdict(K), "views": [pose_to_json(v.camera) for v in views]})
    for i, view in enumerate(views):
        write_ppm(out / "views" / f"{i:03d}.ppm", view.rgb.data)
        write_f32(out / "depth" / f"{i:03d}.f32", np.where(np.isfinite(view.depth), view.depth, 0.0),
                  sidecar={"background": 0.0})


def _parse(parse, path):
    """``parse`` applied to the JSON object in ``path``; a missing key or a
    malformed value is a DataError naming the file."""
    obj = read_json(path)
    try:
        return parse(obj)
    except KeyError as e:
        raise DataError(f"{path}: missing key {e.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as e:   # OverflowError: int() of an infinity
        raise DataError(f"{path}: {type(e).__name__}: {e}") from None


def read_fixture(fixture_dir):
    """Load a fixture directory's scene and cameras, rendering nothing: a
    caller renders the views it needs from the scene, so depth and prim
    buffers are exact. Returns (scene, cams, K)."""
    fix = Path(fixture_dir)
    scene = _parse(scene_from_json, fix / "scene.json")
    K = read_intrinsics(fix / "cameras.json")
    return scene, read_trajectory(fix / "cameras.json"), K
