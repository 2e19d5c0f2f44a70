"""Operator surface: fixture generation, trajectories, inversion,
synthesis, similarity-map dumps, benchmarking, evaluation, and the toy
trainer.

Exit codes: 0 success, 2 usage, 3 data error, 4 internal. Errors print a
single machine-parsable line ``error: <code> <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .attention import AttentionCounters, AttentionParams, epipolar_similarity, full_similarity, project_context
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
    read_fixture,
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
from .geometry import CameraIntrinsics, SphericalCamera, epipolar_sample_grid, pose_from_json, relative_pose
from .metrics import psnr, reprojection_consistency, ssim
from .numerics import downsample_mean
from .pipeline import GenerationConfig, TrajectorySynthesizer
from .scenegen import make_scene, make_trajectory, render
from .toyunet import ToyUNet, train_overfit

__all__ = ["main", "entry"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _load_config_file(path) -> dict:
    try:
        return read_json(path)
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise DataError(f"bad config JSON: {e}")


def _merged(args, keys: dict) -> dict:
    """Flag > config file > default, per key."""
    cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    out = {}
    for key, default in keys.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in cfg:
            out[key] = cfg[key]
        else:
            out[key] = default
    return out


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise DataError(f"{what} not found: {p}")
    return p


def _schedule(steps: int) -> NoiseSchedule:
    if steps < 0:
        raise UsageError(f"--steps must be >= 0, got {steps}")
    return NoiseSchedule.linear_beta(steps)


def _build_denoiser(backend: str, merged: dict, input_image, traj, scene_dir, ckpt):
    """Targets for oracle-style backends come from rendering the fixture
    scene at every trajectory camera; the reference target is the input
    image itself."""
    if backend in ("oracle", "analytic"):
        if scene_dir is None:
            raise DataError(f"backend {backend!r} needs --scene (fixture directory)")
        scene, _, _, _ = read_fixture(_require_file(scene_dir, "scene fixture"))
        h, w = input_image.shape[:2]
        K = CameraIntrinsics.from_fov(w, h, merged["fov"])
        targets = {None: input_image}
        for i, cam in enumerate(traj):
            targets[i] = render(scene, cam, K).rgb.data
        if backend == "oracle":
            return OracleDenoiser(targets)
        return AnalyticAttentionDenoiser(targets, sigma=merged["sigma"],
                                         seed=merged["seed"])
    if backend == "toyunet":
        if ckpt is not None:
            return ToyUNet.load(_require_file(ckpt, "checkpoint"))
        return ToyUNet(seed=merged["seed"])
    raise DataError(f"unknown backend {backend!r}")


# --- subcommands ----------------------------------------------------------


def _cmd_scene(args) -> int:
    if args.action != "gen":
        raise UsageError(f"unknown scene action {args.action!r}")
    scene = make_scene(args.seed, mode=args.mode)
    cams = make_trajectory(args.traj, args.seed, radius=args.radius)
    K = CameraIntrinsics.from_fov(args.size, args.size, args.fov)
    write_fixture(args.out, scene, cams, K)
    print(f"fixture written to {args.out} ({len(cams)} views, {args.size}x{args.size})")
    return 0


def _cmd_traj(args) -> int:
    if args.action != "make":
        raise UsageError(f"unknown traj action {args.action!r}")
    cams = make_trajectory(args.mode, args.seed, radius=args.radius)
    write_trajectory(args.out, cams)
    print(f"trajectory ({args.mode}) written to {args.out}")
    return 0


def _cmd_invert(args) -> int:
    merged = _merged(args, {"steps": 50, "seed": 0, "sigma": 0.0, "fov": 50.0})
    sched = _schedule(merged["steps"])
    image = read_ppm(_require_file(args.input, "input image"))
    denoiser = _build_denoiser(args.backend, merged, image, [], args.scene, args.ckpt)
    x_ref = ddim_invert(LatentImage(image, t=0), denoiser, Condition.reference(), sched)
    write_f32(args.out, x_ref.data, sidecar={"timestep": sched.steps})
    write_json(str(args.out) + ".manifest.json", {
        "version": __version__, "backend": args.backend,
        "steps": merged["steps"], "seed": merged["seed"], "input": str(args.input),
    })
    print(f"inverted noise written to {args.out}")
    return 0


def _synth_config(args) -> tuple:
    merged = _merged(args, {
        "alpha": 0.5, "context": 2, "inject_step": 4, "mode": "epipolar",
        "sample_axis": "dominant", "value_source": "value_projection",
        "steps": 50, "seed": 0, "sigma": 0.0, "fov": 50.0, "backend": "analytic",
    })
    config = GenerationConfig(
        alpha=merged["alpha"], context_views=merged["context"],
        inject_after_step=merged["inject_step"], mode=merged["mode"],
        sample_axis=merged["sample_axis"], value_source=merged["value_source"],
        seed=merged["seed"],
    )
    return merged, config


def _cmd_synth(args) -> int:
    merged, config = _synth_config(args)
    sched = _schedule(merged["steps"])
    image = read_ppm(_require_file(args.input, "input image"))
    traj = read_trajectory(_require_file(args.traj, "trajectory"))
    if args.input_cam is not None:
        input_cam = pose_from_json(json.loads(args.input_cam))
    elif args.scene is not None and args.input_view is not None:
        _, cams, _, _ = read_fixture(args.scene)
        if not 0 <= args.input_view < len(cams):
            raise UsageError(f"--input-view {args.input_view} outside the fixture's "
                             f"{len(cams)} cameras")
        input_cam = cams[args.input_view]
    else:
        input_cam = SphericalCamera(30.0, 0.0, 2.0)
    h, w = image.shape[:2]
    K = CameraIntrinsics.from_fov(w, h, merged["fov"])
    denoiser = _build_denoiser(merged["backend"], merged, image, traj, args.scene, args.ckpt)
    counters = AttentionCounters()
    synth = TrajectorySynthesizer(image, input_cam, K, denoiser, sched, config, counters)
    images, manifest = synth.synthesize_trajectory(traj)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(images):
        write_ppm(out / f"{i:03d}.ppm", img)
    manifest["backend"] = merged["backend"]
    manifest["sigma"] = merged["sigma"]
    manifest["fov"] = merged["fov"]
    manifest["steps"] = merged["steps"]
    manifest["input"] = str(args.input)
    if args.scene is not None:
        manifest["scene"] = str(args.scene)
    write_json(out / "manifest.json", manifest)
    print(f"{len(images)} views written to {out}")
    return 0


def _cmd_simmap(args) -> int:
    scene, cams, K, views = read_fixture(_require_file(args.scene, "scene fixture"))
    try:
        a, b = (int(x) for x in args.pair.split(","))
        qx, qy = (int(x) for x in args.query.split(","))
    except ValueError:
        raise UsageError("--pair wants A,B and --query wants x,y integers")
    if not (0 <= a < len(views) and 0 <= b < len(views)):
        raise DataError(f"pair {a},{b} outside the fixture's {len(views)} views")
    scale, rgb = args.feature_scale, views[a].rgb
    if scale < 1 or rgb.height % scale or rgb.width % scale:
        raise UsageError(f"--feature-scale {scale} must be a positive divisor of the "
                         f"fixture's {rgb.width}x{rgb.height} size")
    f_tgt = downsample_mean(views[a].rgb, args.feature_scale)
    f_ref = downsample_mean(views[b].rgb, args.feature_scale)
    wf, hf = f_tgt.width, f_tgt.height
    if not (0 <= qx < wf and 0 <= qy < hf):
        raise DataError(f"query {qx},{qy} outside the {wf}x{hf} feature grid")
    params = AttentionParams.identity(f_tgt.channels)
    ctx = project_context(f_ref, params)
    k_feat = K.scaled(1.0 / args.feature_scale)
    pose = relative_pose(views[b].extrinsics, views[a].extrinsics)
    samples = epipolar_sample_grid(pose, k_feat, wf, hf)
    q = qy * wf + qx

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _, weights, _, valid = epipolar_similarity(f_tgt, ctx, samples, params)
    epi = np.zeros((hf, wf))
    uv = np.round(samples.uv[q]).astype(int)
    for s in range(uv.shape[0]):
        if valid[q, s]:
            u = min(max(uv[s, 0], 0), wf - 1)
            v = min(max(uv[s, 1], 0), hf - 1)
            epi[v, u] = max(epi[v, u], weights[0, q, s])
    peak = epi.max()
    write_pgm(out / f"epipolar_q{qx}_{qy}.pgm", epi / peak if peak > 0 else epi)

    _, wfull = full_similarity(f_tgt, ctx, params)
    dense = wfull[0, q].reshape(hf, wf)
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
    if args.reps < 3:
        raise UsageError(f"--reps must be >= 3, got {args.reps}")
    rows = run_scaling_bench(sizes=sizes, reps=args.reps, seed=args.seed)
    _write_csv(args.out, bench_csv_rows(rows))
    print(f"bench CSV written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    run_dir = _require_file(args.run, "run directory")
    manifest = read_json(run_dir / "manifest.json")
    scene, _, _, _ = read_fixture(_require_file(args.fixtures, "fixture directory"))
    ki = manifest["intrinsics"]
    K = CameraIntrinsics(f=ki["f"], cx=ki["cx"], cy=ki["cy"],
                         width=int(ki["width"]), height=int(ki["height"]))
    traj = [pose_from_json(v) for v in manifest["trajectory"]]
    images = [read_ppm(run_dir / f"{i:03d}.ppm") for i in range(len(traj))]
    gt_views = [render(scene, cam, K) for cam in traj]

    run_id = run_dir.name
    values = []
    for i, (img, gt) in enumerate(zip(images, gt_views)):
        values.append(("psnr", f"{i}:gt", psnr(np.clip(img, 0, 1), gt.rgb.data)))
        values.append(("ssim", f"{i}:gt", ssim(np.clip(img, 0, 1), gt.rgb.data)))
    mean_err, pairs = reprojection_consistency(images, gt_views, scene)
    for p in pairs:
        values.append(("reprojection", f"{p.view_a}:{p.view_b}", p.error))
    values.append(("reprojection_mean", "all", mean_err))
    rows = [("run_id", "metric", "view_pair", "value")]
    rows += [(run_id, m, pair, f"{v:.9g}") for m, pair, v in values]
    _write_csv(args.out, rows)
    print(f"metrics CSV written to {args.out}")
    return 0


def _cmd_train_toy(args) -> int:
    scene, cams, K, views = read_fixture(_require_file(args.scene, "scene fixture"))
    net = ToyUNet(seed=args.seed)
    sched = NoiseSchedule.linear_beta(args.diffusion_steps)
    conds = [Condition.reference() for _ in views]  # zero-pose overfit on renders
    losses = train_overfit(net, [v.rgb.data for v in views], conds, sched,
                           steps=args.steps, lr=args.lr, seed=args.seed)
    net.save(args.out)
    print(f"checkpoint written to {args.out} (final loss {losses[-1]:.5f})")
    return 0


# --- wiring ----------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="epiview", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scene", help="fixture generation")
    sc.add_argument("action", choices=["gen"])
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--mode", choices=["distinctive", "plain"], default="distinctive")
    sc.add_argument("--out", required=True)
    sc.add_argument("--size", type=int, default=32)
    sc.add_argument("--fov", type=float, default=50.0)
    sc.add_argument("--traj", choices=["fixed16", "free16", "free32"], default="fixed16")
    sc.add_argument("--radius", type=float, default=2.0)
    sc.set_defaults(fn=_cmd_scene)

    tj = sub.add_parser("traj", help="trajectory files")
    tj.add_argument("action", choices=["make"])
    tj.add_argument("--mode", choices=["free16", "fixed16", "free32"], required=True)
    tj.add_argument("--seed", type=int, default=0)
    tj.add_argument("--radius", type=float, default=2.0)
    tj.add_argument("--out", required=True)
    tj.set_defaults(fn=_cmd_traj)

    iv = sub.add_parser("invert", help="DDIM inversion of an input image")
    iv.add_argument("--input", required=True)
    iv.add_argument("--backend", choices=["oracle", "analytic", "toyunet"], required=True)
    iv.add_argument("--out", required=True)
    iv.add_argument("--scene")
    iv.add_argument("--ckpt")
    iv.add_argument("--steps", type=int)
    iv.add_argument("--seed", type=int)
    iv.add_argument("--sigma", type=float)
    iv.add_argument("--config")
    iv.set_defaults(fn=_cmd_invert)

    sy = sub.add_parser("synth", help="multi-view synthesis")
    sy.add_argument("--input", required=True)
    sy.add_argument("--traj", required=True)
    sy.add_argument("--mode", choices=["epipolar", "full", "off"])
    sy.add_argument("--alpha", type=float)
    sy.add_argument("--context", type=int)
    sy.add_argument("--inject-step", dest="inject_step", type=int)
    sy.add_argument("--sample-axis", dest="sample_axis", choices=["dominant", "width"])
    sy.add_argument("--value-source", dest="value_source",
                    choices=["value_projection", "raw_feature"])
    sy.add_argument("--backend", choices=["oracle", "analytic", "toyunet"])
    sy.add_argument("--steps", type=int)
    sy.add_argument("--seed", type=int)
    sy.add_argument("--sigma", type=float)
    sy.add_argument("--fov", type=float)
    sy.add_argument("--scene")
    sy.add_argument("--ckpt")
    sy.add_argument("--input-cam", dest="input_cam",
                    help="input view camera as pose JSON")
    sy.add_argument("--input-view", dest="input_view", type=int,
                    help="index of the input view in --scene's cameras")
    sy.add_argument("--config", help="JSON config file (flags win)")
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

    tt = sub.add_parser("train-toy", help="overfit the toy denoiser on a fixture")
    tt.add_argument("--scene", required=True)
    tt.add_argument("--steps", type=int, default=200)
    tt.add_argument("--diffusion-steps", dest="diffusion_steps", type=int, default=50)
    tt.add_argument("--lr", type=float, default=2e-3)
    tt.add_argument("--seed", type=int, default=0)
    tt.add_argument("--out", required=True)
    tt.set_defaults(fn=_cmd_train_toy)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:  # --help / --version
            return int(e.code or 0)
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
