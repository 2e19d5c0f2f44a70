"""Bounded sweeps of bad inputs and bad flags: bad input is the caller's error.

Every leaf of the README fixture's ``scene.json`` and ``cameras.json``,
of a 2-view trajectory and of a run manifest is set to each of twelve bad
values, or deleted. Each mutated file is then read by its readers and
given to a 1-step, 2-view analytic ``synth`` (the manifest as its
``--config``), in process. A reader either returns or raises a
``DataError`` naming the file; ``synth`` exits 0, 2 or 3, a 3 names the
file, and a run that fails writes nothing. An internal error (exit 4) is
a check missing where the value is built.

Every flag that takes a value other than a file path, of every command
but ``eval`` (whose flags are all paths), is set to each of six bad
values on a small run of its command. The run exits 0 or 2, a 2 names
the flag, and a run that fails writes nothing.
"""

import argparse
import contextlib
import copy
import io
import json
import math
import shutil

import pytest

from epiview.cli import _build_parser, main
from epiview.errors import DataError
from epiview.fileio import read_fixture, read_intrinsics, read_trajectory, write_trajectory
from epiview.scenegen import make_trajectory

# What every leaf is set to, besides being deleted.
VALUES = [math.nan, math.inf, -math.inf, -1, 0, 1e308, "x", None, [], {}, True, [1, 2]]
DELETE = "<deleted>"


def quiet_main(argv):
    """``main(argv)``'s exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def leaves(obj, path=()):
    """The key path of every scalar in a JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaves(value, path + (i,))
    else:
        yield path


def mutated(obj, path, value):
    """A copy of ``obj`` with the leaf at ``path`` set to ``value``, or deleted."""
    obj = copy.deepcopy(obj)
    node = obj
    for key in path[:-1]:
        node = node[key]
    if value == DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return obj


# The 1-step, 2-view analytic run of the sweep, where the manifest does not set it;
# its sigma makes the backend draw from its seeded generator.
RUN = ["--backend", "analytic", "--steps", "1", "--sigma", "0.05", "--input-view", "0"]


def synth_argv(fix, scene, traj, out, *extra):
    """``synth`` of the README fixture's first view."""
    return ["synth", "--input", str(fix / "views" / "000.ppm"), "--traj", str(traj),
            "--scene", str(scene), "--out", str(out), *extra]


def read_manifest(path):
    """What ``eval`` reads of a run manifest."""
    read_intrinsics(path)
    read_trajectory(path, "trajectory")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The README fixture, a 2-view trajectory, and the manifest of the
    sweep's run on them."""
    root = tmp_path_factory.mktemp("sweep")
    fix, traj, run = root / "fix", root / "traj.json", root / "run"
    assert quiet_main(["scene", "gen", "--seed", "0", "--mode", "distinctive",
                       "--out", str(fix)])[0] == 0
    write_trajectory(traj, make_trajectory("free16", 100)[:2])
    rc, err = quiet_main(synth_argv(fix, fix, traj, run, *RUN))
    assert rc == 0, err
    return root, fix, traj, run / "manifest.json"


@pytest.mark.parametrize("name", ["scene.json", "cameras.json", "traj.json", "manifest.json"])
def test_every_bad_leaf_exits_0_2_or_3_and_a_3_names_the_file(name, inputs):
    root, fix, traj, manifest = inputs
    case = root / f"case-{name}"
    case.mkdir()
    for kept in ("scene.json", "cameras.json"):   # a fixture whose other file is intact
        shutil.copy(fix / kept, case / kept)
    bad, out = case / name, case / "out"
    source, argv, read = {
        "scene.json": (fix / name, synth_argv(fix, case, traj, out, *RUN),
                       lambda path: read_fixture(path.parent)),
        "cameras.json": (fix / name, synth_argv(fix, case, traj, out, *RUN),
                         lambda path: read_fixture(path.parent)),
        "traj.json": (traj, synth_argv(fix, fix, bad, out, *RUN), read_trajectory),
        "manifest.json": (manifest, synth_argv(fix, fix, traj, out, "--config", str(bad)),
                          read_manifest),
    }[name]
    base = json.loads(source.read_text())
    paths = list(leaves(base))
    faults, codes = [], {0: 0, 2: 0, 3: 0}
    for path in paths:
        for value in VALUES + [DELETE]:
            bad.write_text(json.dumps(mutated(base, path, value)))
            what = f"{'/'.join(map(str, path))} = {value!r}"
            try:
                read(bad)
            except DataError as e:
                if str(bad) not in str(e):
                    faults.append(f"{what}: the reader does not name the file: {e}")
            except Exception as e:
                faults.append(f"{what}: the reader raised {type(e).__name__}: {e}")
            rc, err = quiet_main(argv)
            if rc not in codes:
                faults.append(f"{what}: synth exited {rc}: {err.strip()}")
                continue
            codes[rc] += 1
            if rc == 3 and str(bad) not in err:
                faults.append(f"{what}: exit 3 does not name the file: {err.strip()}")
            if rc and out.exists():
                faults.append(f"{what}: exit {rc} left outputs")
            shutil.rmtree(out, ignore_errors=True)
    assert not faults, "\n".join(faults)
    # the whole table ran, and the sweep both caught bad leaves and let some through
    assert len(paths) >= {"scene.json": 30, "cameras.json": 50, "traj.json": 6,
                          "manifest.json": 30}[name]
    assert sum(codes.values()) == len(paths) * (len(VALUES) + 1)
    assert codes[0] > 0 and codes[3] > 0


# What every value-taking flag is set to.
FLAG_VALUES = ["-1", "0", "1e308", "nan", "inf", "x"]


def remove(out):
    """Delete a run's output file or directory, if any."""
    if out.is_dir():
        shutil.rmtree(out)
    else:
        out.unlink(missing_ok=True)


def test_every_bad_flag_exits_0_or_2_and_a_2_names_the_flag(inputs):
    root, fix, traj, _ = inputs
    image = str(fix / "views" / "000.ppm")
    # each command's small run that succeeds, and its flags that name a file
    # (what a file holds is the JSON sweep's)
    commands = {
        ("scene", "gen"): (["--size", "8"], {"--out"}),
        ("traj", "make"): (["--mode", "free16"], {"--out"}),
        ("invert",): (["--input", image, "--backend", "toyunet", "--steps", "1"],
                      {"--input", "--config", "--out"}),
        ("synth",): (["--input", image, "--traj", str(traj), "--scene", str(fix), *RUN],
                     {"--input", "--traj", "--scene", "--config", "--out"}),
        ("simmap",): (["--query", "1,1", "--pair", "0,1", "--scene", str(fix)],
                      {"--scene", "--out"}),
        ("bench",): (["--sizes", "8"], {"--out"}),
    }
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    out = root / "flag-out"
    faults, codes, flags = [], {0: 0, 2: 0}, 0
    for command, (base, paths) in commands.items():
        rc, err = quiet_main([*command, *base, "--out", str(out)])
        assert rc == 0, f"{command}: {err}"
        remove(out)
        swept = [a.option_strings[0] for a in sub.choices[command[0]]._actions
                 if a.option_strings and a.nargs != 0 and a.option_strings[0] not in paths]
        flags += len(swept)
        for flag in swept:
            for value in FLAG_VALUES:
                what = f"{' '.join(command)} {flag} {value}"
                rc, err = quiet_main([*command, *base, flag, value, "--out", str(out)])
                if rc not in codes:
                    faults.append(f"{what}: exited {rc}: {err.strip()}")
                    continue
                codes[rc] += 1
                if rc == 2 and flag not in err:
                    faults.append(f"{what}: exit 2 does not name the flag: {err.strip()}")
                if rc and out.exists():
                    faults.append(f"{what}: exit {rc} left outputs")
                remove(out)
    assert not faults, "\n".join(faults)
    # every command's value flags ran, and the sweep both caught bad values and let some through
    assert flags >= 29
    assert codes[0] > 0 and codes[2] > 0
