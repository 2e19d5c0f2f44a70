"""Scene primitives as records of their dataclass fields, against a frozen
copy of the per-kind scene.json codec they replaced.

Every kind (a sphere, a box, a Voronoi ball and a normal ball) writes a
byte-identical scene.json through ``write_fixture`` and reads back equal
primitives through ``read_fixture``; keys outside a class's fields are
ignored by both. The one intended difference is held too: a normal-shaded
ball keeps the ``seeds`` and ``colors`` that the old decoder dropped, and
renders as before."""

import json
import math

import numpy as np
import pytest

from epiview.fileio import read_fixture, write_fixture, write_json
from epiview.geometry import CameraIntrinsics, SphericalCamera
from epiview.scenegen import (
    Box,
    PaintedBall,
    Scene,
    Sphere,
    make_scene,
    render,
    scene_from_json,
    scene_to_json,
)


# --- frozen copy of the old codec, kept verbatim as the oracle -------------

def oracle_scene_to_json(scene: Scene) -> dict:
    prims = []
    for p in scene.primitives:
        if isinstance(p, PaintedBall):
            entry = {"kind": "painted_ball", "center": [float(x) for x in p.center],
                     "radius": float(p.radius), "shading": p.shading}
            if p.shading == "voronoi":
                entry["seeds"] = [[float(x) for x in s] for s in p.seeds]
                entry["colors"] = [[float(x) for x in c] for c in p.colors]
            prims.append(entry)
        elif isinstance(p, Sphere):
            prims.append({"kind": "sphere", "center": [float(x) for x in p.center],
                          "radius": float(p.radius), "color": [float(x) for x in p.color]})
        else:
            prims.append({"kind": "box", "lo": [float(x) for x in p.lo],
                          "hi": [float(x) for x in p.hi], "color": [float(x) for x in p.color]})
    return {"seed": scene.seed, "mode": scene.mode,
            "bounding_radius": scene.bounding_radius, "primitives": prims}


def oracle_scene_from_json(obj: dict) -> Scene:
    prims: list = []
    for p in obj["primitives"]:
        if p["kind"] == "painted_ball":
            shading = p.get("shading", "voronoi")
            prims.append(PaintedBall(
                center=np.array(p["center"]), radius=float(p["radius"]),
                seeds=np.array(p["seeds"]) if shading == "voronoi" else None,
                colors=np.array(p["colors"]) if shading == "voronoi" else None,
                shading=shading))
        elif p["kind"] == "sphere":
            prims.append(Sphere(center=np.array(p["center"]), radius=float(p["radius"]),
                                color=np.array(p["color"])))
        elif p["kind"] == "box":
            prims.append(Box(lo=np.array(p["lo"]), hi=np.array(p["hi"]),
                             color=np.array(p["color"])))
        else:
            raise ValueError(f"unknown primitive kind {p['kind']!r}")
    scene = Scene(seed=int(obj["seed"]), primitives=tuple(prims),
                  bounding_radius=float(obj["bounding_radius"]), mode=obj.get("mode", "distinctive"))
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


# --- helpers ----------------------------------------------------------------

def same_primitive(a, b) -> bool:
    """Same class, and every field equal: arrays in shape, dtype and value."""
    if type(a) is not type(b):
        return False
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                    and x.dtype == y.dtype and np.array_equal(x, y)):
                return False
        elif x != y or type(x) is not type(y):
            return False
    return True


def box_fixture_scene() -> Scene:
    """The one scene of scripts/output_digests.py that holds a box: a
    Voronoi ball, spheres and a box."""
    scene = make_scene(3, "plain")
    return Scene(seed=3, mode="plain", bounding_radius=1.0, primitives=scene.primitives + (
        Box(lo=np.array([0.35, -0.3, -0.2]), hi=np.array([0.75, 0.1, 0.25]),
            color=np.array([0.8, 0.2, 0.1])),
        Sphere(center=np.array([-0.2, 0.75, 0.3]), radius=0.15, color=np.array([0.1, 0.6, 0.3])),
    ))


SCENES = {**{f"{mode}-{seed}": lambda seed=seed, mode=mode: make_scene(seed, mode)
             for seed in range(3) for mode in ("distinctive", "plain")},
          "box-fixture": box_fixture_scene}


# --- the record rule against the oracle ------------------------------------

@pytest.mark.parametrize("make", SCENES.values(), ids=SCENES.keys())
def test_fixture_scene_json_is_byte_identical_and_reads_back_equal(make, tmp_path):
    """Generated scenes hold a normal ball (distinctive) or a Voronoi ball
    (plain) and spheres; the box fixture adds a box."""
    scene = make()
    write_fixture(tmp_path / "fix", scene, CameraIntrinsics.from_fov(16, 16), [])
    write_json(tmp_path / "oracle.json", oracle_scene_to_json(scene))
    written = (tmp_path / "fix" / "scene.json").read_bytes()
    assert written == (tmp_path / "oracle.json").read_bytes()
    back = read_fixture(tmp_path / "fix")[0]
    oracle = oracle_scene_from_json(json.loads(written))
    assert (back.seed, back.mode, back.bounding_radius) == (oracle.seed, oracle.mode,
                                                            oracle.bounding_radius)
    assert len(back.primitives) == len(oracle.primitives) == len(scene.primitives)
    assert all(map(same_primitive, back.primitives, oracle.primitives))
    assert all(map(same_primitive, back.primitives, scene.primitives))


def test_a_normal_ball_keeps_the_seeds_the_oracle_dropped(intrinsics32):
    record = {"kind": "painted_ball", "center": [0, 0, 0], "radius": 0.7, "shading": "normal",
              "seeds": [[1, 0, 0], [0, 1, 0]], "colors": [[1, 0, 0], [0, 0, 1]]}
    obj = {"seed": 0, "bounding_radius": 1.0, "primitives": [record]}
    new, old = scene_from_json(obj), oracle_scene_from_json(obj)
    assert old.primitives[0].seeds is None and old.primitives[0].colors is None
    assert scene_to_json(new)["primitives"] == [
        {**record, "center": [0.0, 0.0, 0.0], "seeds": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
         "colors": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}]
    cam = SphericalCamera(20.0, 40.0, 2.0)
    a, b = render(new, cam, intrinsics32), render(old, cam, intrinsics32)
    assert np.array_equal(a.rgb.data, b.rgb.data) and np.array_equal(a.prim_id, b.prim_id)


@pytest.mark.parametrize("record", [
    {"kind": "sphere", "center": [0.1, 0, 0], "radius": 0.2, "color": [1, 0, 0],
     "shine": 3, "shading": "normal"},
    {"kind": "box", "lo": [0, 0, 0], "hi": [0.1, 0.2, 0.3], "color": [0, 1, 0], "radius": -1},
    {"kind": "painted_ball", "center": [0, 0, 0], "radius": 0.5,
     "seeds": [[1, 0, 0]], "colors": [[0, 0, 1]], "color": "x"},
], ids=["sphere", "box", "painted-ball-without-shading"])
def test_extra_keys_are_ignored_and_absent_options_default(record):
    obj = {"seed": 0, "bounding_radius": 1.0, "primitives": [record]}
    new, = scene_from_json(obj).primitives
    old, = oracle_scene_from_json(obj).primitives
    assert same_primitive(new, old)
