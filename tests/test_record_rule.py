"""The one JSON type rule of every record (a pose, intrinsics, a scene and
its primitives, a config): a number is never a bool or a string, an
integer takes no float, keys outside a class's fields are ignored and a
missing field is named. Every reader of a record ends a value of the
wrong type in a DataError that names the file and the field."""

import contextlib
import io
import json
import re

import numpy as np
import pytest

from epiview import cli
from epiview.errors import DataError
from epiview.fileio import read_fixture, read_json, read_trajectory, write_fixture, write_json
from epiview.geometry import CameraIntrinsics, from_record, read_value, to_record
from epiview.pipeline import GenerationConfig
from epiview.scenegen import make_scene, make_trajectory, render

# Values of the wrong JSON type, by field type: a bool and a numeric
# string for a number, and a float too for an integer.
WRONG = {"float": [True, "45"], "int": [False, "2", 2.0], "str": [True, 1]}
WANT = {"float": "a number", "int": "an integer", "str": "a string"}


def quiet_main(argv):
    """``cli.main(argv)``'s exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def fix(tmp_path_factory):
    """An 8 px fixture of two views, and a trajectory of the same cameras."""
    root = tmp_path_factory.mktemp("records")
    scene, K = make_scene(0, "distinctive"), CameraIntrinsics.from_fov(8, 8)
    cams = make_trajectory("free16", 100)[:2]
    write_fixture(root / "fix", scene, K, [render(scene, cam, K) for cam in cams])
    write_json(root / "traj.json", {"views": read_json(root / "fix" / "cameras.json")["views"]})
    return root


def synth_argv(root, scene, traj, out, *extra):
    return ["synth", "--input", str(root / "fix" / "views" / "000.ppm"), "--traj", str(traj),
            "--scene", str(scene), "--input-view", "0", "--steps", "1", "--out", str(out), *extra]


def read_config(path):
    """What ``synth --config path`` reads of a config file."""
    return cli._merged(cli._build_parser().parse_args(
        ["synth", "--input", "in.ppm", "--traj", "traj.json", "--out", "out", "--config", str(path)]))


# Each reader: the file it reads, the key path of a field in it, the
# field's type, and how the reader is run on the file (inside its fixture).
READERS = {
    "trajectory-pose": ("traj.json", ("views", 0, "elevation_deg"), "float", read_trajectory),
    "cameras-pose": ("fix/cameras.json", ("views", 1, "radius"), "float",
                     lambda p: read_fixture(p.parent)),
    "intrinsics-f": ("fix/cameras.json", ("intrinsics", "f"), "float",
                     lambda p: read_fixture(p.parent)),
    "intrinsics-width": ("fix/cameras.json", ("intrinsics", "width"), "int",
                         lambda p: read_fixture(p.parent)),
    "primitive-radius": ("fix/scene.json", ("primitives", 1, "radius"), "float",
                         lambda p: read_fixture(p.parent)),
    "primitive-shading": ("fix/scene.json", ("primitives", 0, "shading"), "str",
                          lambda p: read_fixture(p.parent)),
    "scene-seed": ("fix/scene.json", ("seed",), "int", lambda p: read_fixture(p.parent)),
    "scene-bounding-radius": ("fix/scene.json", ("bounding_radius",), "float",
                              lambda p: read_fixture(p.parent)),
    "scene-mode": ("fix/scene.json", ("mode",), "str", lambda p: read_fixture(p.parent)),
    "config-alpha": ("cfg.json", ("alpha",), "float", read_config),
    "config-context-views": ("cfg.json", ("context_views",), "int", read_config),
    "config-nested-seed": ("cfg.json", ("config", "seed"), "int", read_config),
    "config-sigma": ("cfg.json", ("sigma",), "float", read_config),
    "config-backend": ("cfg.json", ("backend",), "str", read_config),
}
CASES = [(name, value) for name, (_, _, kind, _) in READERS.items() for value in WRONG[kind]]


@pytest.mark.parametrize("name, value", CASES, ids=[f"{n}-{v!r}" for n, v in CASES])
def test_a_value_of_the_wrong_type_is_a_data_error_naming_the_file_and_field(
        fix, tmp_path, name, value):
    rel, path, kind, read = READERS[name]
    (tmp_path / "fix").mkdir()
    for kept in ("scene.json", "cameras.json"):   # a fixture whose other file is intact
        (tmp_path / "fix" / kept).write_bytes((fix / "fix" / kept).read_bytes())
    case = tmp_path / rel
    obj = read_json(fix / rel) if (fix / rel).exists() else {"config": {}}
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    write_json(case, obj)
    with pytest.raises(DataError) as caught:
        read(case)
    assert str(case) in str(caught.value)
    assert f"{path[-1]!r} must be {WANT[kind]}, got {value!r}" in str(caught.value)


@pytest.mark.parametrize("field, value", [("center", [True, 0.0, 0.0]), ("color", ["1", 0, 0]),
                                          ("center", "0, 0, 0")])
def test_an_array_of_other_than_numbers_is_named(fix, tmp_path, field, value):
    obj = read_json(fix / "fix" / "scene.json")
    obj["primitives"][1][field] = value
    (tmp_path / "cameras.json").write_bytes((fix / "fix" / "cameras.json").read_bytes())
    write_json(tmp_path / "scene.json", obj)
    with pytest.raises(DataError, match=f"scene.json: TypeError: '{field}' must be an array of "
                                        "numbers"):
        read_fixture(tmp_path)


@pytest.mark.parametrize("depth", [33, 900])
def test_an_array_nested_deeper_than_numpy_iterates_is_named(fix, tmp_path, depth):
    """numpy iterates at most 32 dimensions, while the JSON decoder reads
    about 1000 levels: a deeper array is no array of numbers, in the rule
    and in ``simmap``'s one short line."""
    nested = "[" * depth + "0" + "]" * depth
    with pytest.raises(TypeError, match=r"^'center' must be an array of numbers, got \[\[\["):
        read_value("center", "np.ndarray", json.loads(nested))
    scene = tmp_path / "fix"
    scene.mkdir()
    (scene / "cameras.json").write_bytes((fix / "fix" / "cameras.json").read_bytes())
    obj = read_json(fix / "fix" / "scene.json")
    obj["primitives"][1]["center"] = "nested"
    (scene / "scene.json").write_text(json.dumps(obj).replace('"nested"', nested))
    rc, err = quiet_main(["simmap", "--query", "1,1", "--pair", "0,1", "--scene", str(scene),
                          "--out", str(tmp_path / "maps")])
    assert rc == 3 and err.count("\n") == 1 and len(err) < 200
    assert f"{scene / 'scene.json'}: TypeError: 'center' must be an array of numbers" in err


def test_a_pose_of_the_wrong_types_makes_synth_exit_3_naming_the_trajectory(fix, tmp_path):
    """Such a pose once ran, at elevation float(True) = 1.0."""
    traj = tmp_path / "traj.json"
    write_json(traj, {"views": [{"elevation_deg": True, "azimuth_deg": "45", "radius": "2"}]})
    out = tmp_path / "out"
    rc, err = quiet_main(synth_argv(fix, fix / "fix", traj, out))
    assert rc == 3 and err.count("\n") == 1
    assert f"{traj} view 0: TypeError: 'elevation_deg' must be a number" in err
    assert not out.exists()


def test_an_integer_too_large_for_a_float_is_a_data_error(fix, tmp_path):
    traj = tmp_path / "traj.json"
    traj.write_text('{"views": [{"elevation_deg": 20, "azimuth_deg": 0, "radius": 1' + "0" * 400
                    + "}]}")
    with pytest.raises(DataError, match=f"{traj} view 0: OverflowError"):
        read_trajectory(traj)


def test_keys_outside_the_intrinsics_fields_are_ignored(fix, tmp_path):
    """As in every other record: simmap, synth and eval all read them."""
    scene = tmp_path / "fix"
    for name in ("scene.json", "cameras.json", "views/000.ppm"):
        (scene / name).parent.mkdir(parents=True, exist_ok=True)
        (scene / name).write_bytes((fix / "fix" / name).read_bytes())
    cameras = read_json(scene / "cameras.json")
    cameras["intrinsics"]["note"] = "made by hand"
    write_json(scene / "cameras.json", cameras)
    assert quiet_main(["simmap", "--query", "1,1", "--pair", "0,1", "--scene", str(scene),
                       "--out", str(tmp_path / "maps")]) == (0, "")
    run = tmp_path / "run"
    assert quiet_main(synth_argv(fix, scene, fix / "traj.json", run)) == (0, "")
    manifest = read_json(run / "manifest.json")
    manifest["intrinsics"]["note"] = "made by hand"
    write_json(run / "manifest.json", manifest)
    assert quiet_main(["eval", "--run", str(run), "--fixtures", str(scene),
                       "--out", str(tmp_path / "metrics.csv")]) == (0, "")


def test_a_config_of_the_wrong_type_is_a_type_error_naming_the_field():
    with pytest.raises(TypeError, match="'alpha' must be a number, got True"):
        GenerationConfig.from_json({"alpha": True})
    with pytest.raises(TypeError, match="'context_views' must be an integer, got 2.0"):
        GenerationConfig.from_json({"context_views": 2.0})


def test_a_config_reads_a_whole_number_as_a_float_field():
    assert json.dumps(GenerationConfig.from_json({"alpha": 1}).to_json()["alpha"]) == "1.0"
    assert json.dumps(GenerationConfig().to_json(), sort_keys=True) == (
        '{"alpha": 0.5, "context_views": 2, "inject_after_step": 4, "mode": "epipolar", "seed": 0}')


def test_intrinsics_round_trip_and_a_missing_field_is_named():
    K = CameraIntrinsics.from_fov(16, 12)
    assert to_record(K) == {"f": K.f, "cx": 7.5, "cy": 5.5, "width": 16, "height": 12}
    assert from_record(CameraIntrinsics, json.loads(json.dumps(to_record(K)))) == K
    with pytest.raises(KeyError, match="height"):
        from_record(CameraIntrinsics, {"f": 10.0, "cx": 4.0, "cy": 4.0, "width": 8})


@pytest.mark.parametrize("kind, value, read", [
    ("float", 2, 2.0), ("float", -0.5, -0.5), ("int", 3, 3), ("str", "epipolar", "epipolar"),
    ("np.ndarray", [[1, 0, 0], [0.5, 0.5, 0]], np.array([[1, 0, 0], [0.5, 0.5, 0]])),
])
def test_the_rule_reads_what_it_accepts(kind, value, read):
    got = read_value("x", kind, value)
    assert type(got) is type(read) and np.array_equal(got, read)


@pytest.mark.parametrize("kind, value", [
    ("float", True), ("float", "1.5"), ("float", None), ("float", [1.0]),
    ("int", True), ("int", 1.0), ("int", "1"), ("str", 1), ("str", None),
    ("np.ndarray", [1, False]), ("np.ndarray", [[1, "0"]]), ("np.ndarray", 1.0),
    ("np.ndarray", None),
])
def test_the_rule_rejects_other_json_values(kind, value):
    with pytest.raises(TypeError, match=f"^'x' must be an? .*, got {re.escape(repr(value))}$"):
        read_value("x", kind, value)
