"""Operator surface: fixture generation, trajectories, inversion,
synthesis, similarity-map dumps, benchmarking and evaluation.

Exit codes: 0 success, 2 usage, 3 data error, 4 internal. Errors print a
single machine-parsable line ``error: <code> <message>`` to stderr. Each
setting has one flag and one rule, which it must pass as a flag (else exit
2, naming the flag) or in a config file (else exit 3, naming the file and key).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .attention import AttentionCounters, AttentionParams, epipolar_logits, full_logits, project_context
from .bench import bench_csv_rows, run_scaling_bench
from .diffusion import (
    AnalyticAttentionDenoiser,
    Condition,
    LatentImage,
    NoiseSchedule,
    OracleDenoiser,
    ddim_invert,
)
from .errors import DataError, EpiViewError, UsageError
from .fileio import (
    camera_from_json,
    read_fixture,
    read_intrinsics,
    read_json,
    read_ppm,
    read_trajectory,
    write_f32,
    write_fixture,
    write_json,
    write_pgm,
    write_ppm,
    write_trajectory,
)
from .geometry import (CAMERA_RADIUS, CameraIntrinsics, SphericalCamera, epipolar_sample_grid,
                       relative_pose)
from .metrics import SSIM_WINDOW, metrics_csv_rows, psnr, reprojection_consistency, ssim
from .numerics import downsample_mean, masked_softmax
from .pipeline import CONFIG_RULES, GenerationConfig, TrajectorySynthesizer
from .scenegen import SCENE_MODES, TRAJECTORIES, make_scene, make_trajectory, render
from .toyunet import ToyUNet

__all__ = ["main", "entry"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# Every invert/synth setting: its flag and its type.
_SETTINGS = {"alpha": ("--alpha", float), "context_views": ("--context", int),
             "inject_after_step": ("--inject-step", int), "mode": ("--mode", str),
             "seed": ("--seed", int), "backend": ("--backend", str), "steps": ("--steps", int),
             "sigma": ("--sigma", float), "fov": ("--fov", float)}
# The defaults of the settings that GenerationConfig does not hold, and of its seed.
_RUN_SETTINGS = {"backend": "analytic", "steps": 50, "seed": 0, "sigma": 0.0, "fov": 50.0}
# What a manifest records besides the settings (older manifests also carry
# "timings"); a config file may carry them.
_MANIFEST_RECORDS = ("version", "schedule", "input_view", "intrinsics", "trajectory",
                     "timings", "buffer_counters", "input", "scene")
# Removed GenerationConfig fields, at the one value that older manifests may hold.
_RETIRED = {"inject_layers": [], "sample_axis": "dominant", "value_source": "value_projection"}
# The JSON values a setting's type accepts, and their name; a bool is never a number.
_JSON_TYPES = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number")}
# The rule of every knob, by setting name or flag dest: GenerationConfig's
# own, and the seed, geometry, noise, schedule, backend and bench knobs.
_KNOBS = {
    **CONFIG_RULES,
    "seed": (lambda x: x >= 0, "an integer >= 0"),
    "fov": (lambda x: 0 < x < 180, "a field of view in (0, 180) degrees"),
    "size": (lambda x: x > 0, "a positive integer"),
    "radius": CAMERA_RADIUS,
    "sigma": (lambda x: 0 <= x <= 1e6, "a number in [0, 1e6]"),
    "steps": (lambda x: 0 <= x <= NoiseSchedule.MAX_STEPS,
              f"an integer in [0, {NoiseSchedule.MAX_STEPS}]"),
    "backend": (lambda x: x in ("oracle", "analytic", "toyunet"), "oracle, analytic or toyunet"),
    "reps": (lambda x: x >= 3, "an integer >= 3"),
}


def _check_knobs(values: dict, path=None) -> None:
    """Reject a knob that breaks its rule: a flag (a usage error naming it
    as spelled) or, given the ``path`` it was read from, a config file's
    setting (a data error naming the file and the key)."""
    for key, value in values.items():
        if key in _KNOBS and value is not None and not _KNOBS[key][0](value):
            want = _KNOBS[key][1]
            if path is None:
                flag = _SETTINGS[key][0] if key in _SETTINGS else f"--{key}"
                raise UsageError(f"{flag} must be {want}, got {value}")
            raise DataError(f"{path}: {key!r} must be {want}, got {value!r}")


def _check_config(path, obj: dict) -> None:
    """Reject a config file's unknown keys, wrong-typed or bad settings and changed retired keys."""
    for key, value in obj.items():
        if key in ("config", *_MANIFEST_RECORDS):
            continue
        if key in _RETIRED:
            if value != _RETIRED[key]:
                raise DataError(f"{path}: key {key!r} was removed; it may only hold "
                                f"{_RETIRED[key]!r}, got {value!r}")
            continue
        if key not in _SETTINGS:
            raise DataError(f"{path}: unknown key {key!r}")
        accepted, name = _JSON_TYPES[_SETTINGS[key][1]]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise DataError(f"{path}: {key!r} must be {name}, got {value!r}")
    _check_knobs(obj, path)


def _merged(args) -> tuple[dict, dict]:
    """Run settings and GenerationConfig fields (flag > config file > default), and the
    config file, which holds the fields at its top level or, as a manifest, under "config"."""
    recorded = read_json(args.config) if args.config else {}
    nested = recorded.get("config", {})
    if not isinstance(nested, dict):
        raise DataError(f'{args.config}: "config" is not a JSON object')
    _check_config(args.config, recorded)
    _check_config(args.config, nested)
    flags = {k: v for k, v in vars(args).items() if v is not None}
    merged = {**_RUN_SETTINGS, **nested, **recorded, **flags}
    return {k: merged[k] for k in _SETTINGS if k in merged}, recorded


def _render_view(scene, cam, K, where: str):
    """The scene rendered at ``cam``; a camera inside the scene's bounding
    sphere is a data error naming ``where``."""
    try:
        return render(scene, cam, K)
    except ValueError as e:
        raise DataError(f"{where}: {e}") from None


def _build_denoiser(merged: dict, path, input_image, traj, scene):
    """The run's backend for the input image read from ``path``. An oracle-style
    backend's targets are that image for the reference and, rendered from the
    fixture ``scene`` (None when ``traj`` is empty), each trajectory view."""
    h, w = input_image.shape[:2]
    backend = merged["backend"]   # checked with the knobs
    if backend == "toyunet":
        if h % 2 or w % 2:   # the net halves the grid, then doubles it
            raise DataError(f"{path} is {w}x{h}, but toyunet wants an even width and height")
        return ToyUNet(seed=merged["seed"])
    K = CameraIntrinsics.from_fov(w, h, merged["fov"])
    targets = {None: input_image}
    targets.update((i, render(scene, cam, K).rgb.data) for i, cam in enumerate(traj))
    if backend == "oracle":
        return OracleDenoiser(targets)
    return AnalyticAttentionDenoiser(targets, sigma=merged["sigma"], seed=merged["seed"])


# --- subcommands ----------------------------------------------------------


def _cmd_scene(args) -> int:
    scene = make_scene(args.seed, mode=args.kind)
    if args.radius <= scene.bounding_radius:
        raise UsageError(f"--radius must exceed the scene's bounding radius "
                         f"{scene.bounding_radius:.4g}, got {args.radius}")
    cams = make_trajectory(args.traj, args.seed, radius=args.radius)
    K = CameraIntrinsics.from_fov(args.size, args.size, args.fov)
    write_fixture(args.out, scene, K, [render(scene, cam, K) for cam in cams])
    print(f"fixture written to {args.out} ({len(cams)} views, {args.size}x{args.size})")
    return 0


def _cmd_traj(args) -> int:
    cams = make_trajectory(args.kind, args.seed, radius=args.radius)
    write_trajectory(args.out, cams)
    print(f"trajectory ({args.kind}) written to {args.out}")
    return 0


def _cmd_invert(args) -> int:
    merged, _ = _merged(args)
    sched = NoiseSchedule.linear_beta(merged["steps"])
    image = read_ppm(args.input)
    denoiser = _build_denoiser(merged, args.input, image, [], None)
    x_ref = ddim_invert(LatentImage(image, t=0), denoiser, Condition.reference(), sched)
    write_f32(args.out, x_ref.data, sidecar={"timestep": sched.steps})
    write_json(str(args.out) + ".manifest.json", {
        "version": __version__, "backend": merged["backend"],
        "steps": merged["steps"], "seed": merged["seed"], "input": str(args.input),
    })
    print(f"inverted noise written to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    if args.input_view is not None and args.scene is None:
        raise UsageError("--input-view needs --scene, whose fixture cameras it indexes")
    merged, recorded = _merged(args)
    if merged["backend"] != "toyunet" and args.scene is None:
        raise UsageError(f"--scene (fixture directory) is needed by backend {merged['backend']!r}")
    config = GenerationConfig.from_json(merged)
    sched = NoiseSchedule.linear_beta(merged["steps"])
    image = read_ppm(args.input)
    traj = read_trajectory(args.traj)
    # the input camera, and the error class and name that a bad one is reported with
    if args.input_cam is not None:
        bad, where = UsageError, f"--input-cam {args.input_cam!r}"
        try:
            input_cam = camera_from_json(json.loads(args.input_cam), "the pose")
        except (ValueError, DataError) as e:   # ValueError: not JSON
            raise bad(f"{where}: {e}") from None
    elif args.input_view is not None:
        cameras = Path(args.scene) / "cameras.json"
        bad, where = DataError, f"{cameras} view {args.input_view}"
        cams = read_trajectory(cameras)
        if not 0 <= args.input_view < len(cams):
            raise UsageError(f"--input-view {args.input_view} outside the fixture's "
                             f"{len(cams)} cameras")
        input_cam = cams[args.input_view]
    elif "input_view" in recorded:
        bad, where = DataError, f"{args.config} input_view"
        input_cam = camera_from_json(recorded["input_view"], where)
    else:
        bad, where = DataError, "the default input camera"
        input_cam = SphericalCamera(30.0, 0.0, 2.0)
    scene = None if args.scene is None else read_fixture(args.scene)[0]
    if scene is not None:   # every camera, before any backend is built
        named = [(input_cam, bad, where)] + [
            (cam, DataError, f"{args.traj} trajectory view {i}") for i, cam in enumerate(traj)]
        for cam, error, name in named:
            try:
                scene.check_camera(cam)
            except ValueError as e:
                raise error(f"{name}: {e}") from None
    h, w = image.shape[:2]
    K = CameraIntrinsics.from_fov(w, h, merged["fov"])
    denoiser = _build_denoiser(merged, args.input, image, traj, scene)
    counters = AttentionCounters()
    synth = TrajectorySynthesizer(image, input_cam, K, denoiser, sched, config, counters)
    images, manifest = synth.synthesize_trajectory(traj)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(images):
        write_ppm(out / f"{i:03d}.ppm", img)
    manifest.update(backend=merged["backend"], sigma=merged["sigma"], fov=merged["fov"],
                    steps=merged["steps"], input=str(args.input))
    if args.scene is not None:
        manifest["scene"] = str(args.scene)
    write_json(out / "manifest.json", manifest)
    print(f"{len(images)} views written to {out}")
    return 0


def _cmd_simmap(args) -> int:
    scene, cams, K = read_fixture(args.scene)
    try:
        a, b = (int(x) for x in args.pair.split(","))
        qx, qy = (int(x) for x in args.query.split(","))
    except ValueError:
        raise UsageError("--pair wants A,B and --query wants x,y integers")
    if not (0 <= a < len(cams) and 0 <= b < len(cams)):
        raise DataError(f"pair {a},{b} outside the fixture's {len(cams)} views")
    scale = args.feature_scale
    if scale < 1 or K.height % scale or K.width % scale:
        raise UsageError(f"--feature-scale {scale} must be a positive divisor of the "
                         f"fixture's {K.width}x{K.height} size")
    where = Path(args.scene) / "cameras.json"
    view_a, view_b = (_render_view(scene, cams[i], K, f"{where} view {i}") for i in (a, b))
    f_tgt = downsample_mean(view_a.rgb, scale)
    f_ref = downsample_mean(view_b.rgb, scale)
    wf, hf = f_tgt.width, f_tgt.height
    if not (0 <= qx < wf and 0 <= qy < hf):
        raise DataError(f"query {qx},{qy} outside the {wf}x{hf} feature grid")
    params = AttentionParams.identity(f_tgt.channels)
    ctx = project_context(f_ref, params)
    pose = relative_pose(view_b.extrinsics, view_a.extrinsics)
    samples = epipolar_sample_grid(pose, K.scaled(1.0 / scale))
    q = qy * wf + qx

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    weights = masked_softmax(epipolar_logits(f_tgt, ctx, samples, params), samples.valid)[0]
    epi = np.zeros((hf, wf))
    read = samples.valid[:, q]   # slots on the grid, so rounding stays on it
    u, v = np.round(samples.uv[read, q]).astype(int).T
    np.maximum.at(epi, (v, u), weights[read, q])
    peak = epi.max()
    write_pgm(out / f"epipolar_q{qx}_{qy}.pgm", epi / peak if peak > 0 else epi)

    wfull = masked_softmax(full_logits(f_tgt, [ctx], params)[:, 0], None)   # key-major
    dense = wfull[0, :, q].reshape(hf, wf)
    write_pgm(out / f"full_q{qx}_{qy}.pgm", dense / dense.max())
    print(f"similarity maps written to {out}")
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise UsageError(f"--sizes wants comma-separated integers, got {args.sizes!r}")
    if min(sizes) < 1 or list(sizes) != sorted(sizes):
        raise UsageError(f"--sizes must be positive and ascending, got {args.sizes}")
    rows = run_scaling_bench(sizes=sizes, reps=args.reps, seed=args.seed)
    _write_csv(args.out, bench_csv_rows(rows))
    print(f"bench CSV written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    run_dir = Path(args.run)
    manifest = run_dir / "manifest.json"
    scene, _, _ = read_fixture(args.fixtures)
    K = read_intrinsics(manifest)
    if min(K.width, K.height) < SSIM_WINDOW:
        raise DataError(f"{manifest}: 'intrinsics' are {K.width}x{K.height}, smaller than "
                        f"the {SSIM_WINDOW}x{SSIM_WINDOW} window that ssim scores")
    traj = read_trajectory(manifest, "trajectory")
    gt_views = [_render_view(scene, cam, K, f"{manifest} trajectory view {i}")
                for i, cam in enumerate(traj)]
    images = []
    for i in range(len(traj)):
        path = run_dir / f"{i:03d}.ppm"
        images.append(read_ppm(path))
        h, w = images[-1].shape[:2]
        if (w, h) != (K.width, K.height):
            raise DataError(f"{manifest}: 'intrinsics' are {K.width}x{K.height}, "
                            f"but {path} is {w}x{h}")

    values = []
    for i, (img, gt) in enumerate(zip(images, gt_views)):
        values.append(("psnr", f"{i}:gt", psnr(np.clip(img, 0, 1), gt.rgb.data)))
        values.append(("ssim", f"{i}:gt", ssim(np.clip(img, 0, 1), gt.rgb.data)))
    mean_err, pairs = reprojection_consistency(images, gt_views, scene)
    for p in pairs:
        values.append(("reprojection", f"{p.view_a}:{p.view_b}", p.error))
    values.append(("reprojection_mean", "all", mean_err))
    _write_csv(args.out, metrics_csv_rows(run_dir.name, values))
    print(f"metrics CSV written to {args.out}")
    return 0


# --- wiring ----------------------------------------------------------------


def _add_settings(parser, *names) -> None:
    """Add the named settings' flags and --config, which a flag not given defers to."""
    for name in names:
        flag, kind = _SETTINGS[name]
        parser.add_argument(flag, dest=name, type=kind)
    parser.add_argument("--config", help="JSON config file (flags win)")


@cache   # built once per process; parsing leaves it unchanged
def _build_parser() -> _Parser:
    p = _Parser(prog="epiview", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scene", help="fixture generation")
    sc.add_argument("action", choices=["gen"])
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--mode", dest="kind", choices=SCENE_MODES, default="distinctive")
    sc.add_argument("--out", required=True)
    sc.add_argument("--size", type=int, default=32)
    sc.add_argument("--fov", type=float, default=50.0)
    sc.add_argument("--traj", choices=TRAJECTORIES, default="fixed16")
    sc.add_argument("--radius", type=float, default=2.0)
    sc.set_defaults(fn=_cmd_scene)

    tj = sub.add_parser("traj", help="trajectory files")
    tj.add_argument("action", choices=["make"])
    tj.add_argument("--mode", dest="kind", choices=TRAJECTORIES, required=True)
    tj.add_argument("--seed", type=int, default=0)
    tj.add_argument("--radius", type=float, default=2.0)
    tj.add_argument("--out", required=True)
    tj.set_defaults(fn=_cmd_traj)

    iv = sub.add_parser("invert", help="DDIM inversion of an input image")
    iv.add_argument("--input", required=True)
    iv.add_argument("--out", required=True)
    _add_settings(iv, "backend", "steps", "seed")   # the settings that change its output
    iv.set_defaults(fn=_cmd_invert)

    sy = sub.add_parser("synth", help="multi-view synthesis")
    sy.add_argument("--input", required=True)
    sy.add_argument("--traj", required=True)
    _add_settings(sy, *_SETTINGS)
    sy.add_argument("--scene")
    sy.add_argument("--input-cam", dest="input_cam",
                    help="input view camera as pose JSON")
    sy.add_argument("--input-view", dest="input_view", type=int,
                    help="index of the input view in --scene's cameras")
    sy.add_argument("--out", required=True)
    sy.set_defaults(fn=_cmd_synth)

    sm = sub.add_parser("simmap", help="similarity-map dumps")
    sm.add_argument("--query", required=True, help="x,y feature pixel in the target view")
    sm.add_argument("--pair", required=True, help="target,reference fixture view indices")
    sm.add_argument("--scene", required=True)
    sm.add_argument("--feature-scale", dest="feature_scale", type=int, default=2)
    sm.add_argument("--out", required=True)
    sm.set_defaults(fn=_cmd_simmap)

    be = sub.add_parser("bench", help="attention scaling bench")
    be.add_argument("--sizes", default="8,16,32,64")
    be.add_argument("--reps", type=int, default=3)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--out", required=True)
    be.set_defaults(fn=_cmd_bench)

    ev = sub.add_parser("eval", help="metrics for a synthesis run")
    ev.add_argument("--run", required=True)
    ev.add_argument("--fixtures", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(fn=_cmd_eval)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:  # --help / --version
            return int(e.code or 0)
        _check_knobs(vars(args))
        return args.fn(args)
    except UsageError as e:
        print(f"error: 2 {e}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as e:
        print(f"error: 3 {e}", file=sys.stderr)
        return 3
    except EpiViewError as e:
        print(f"error: 4 {e}", file=sys.stderr)
        return 4
    except Exception as e:  # internal fault, keep the line machine-parsable
        print(f"error: 4 {type(e).__name__}: {e}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
