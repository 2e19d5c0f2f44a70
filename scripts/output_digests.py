"""Print the u8 SHA-256 prefix of one whole perfbench unit per workload,
one of the analytic scene renders, one of their reprojection consistency,
one of the attention core's readers, one of a whole trajectory, one of
the oracle-style backends, one of a trajectory's similarity-buffer
counts, one of the ray cast and its correspondences and one of the JSON
records that fixtures and manifests hold; with ``--check``, also compare
each with its expected prefix.

    python3 scripts/output_digests.py [--check]

Runs ``run_unit`` of ``perfbench/workloads.py`` once, untraced, at seed
0, for each of analytic-epipolar, toyunet-full and consistency-loop, and
for two specs built here: toyunet-epipolar, toyunet-full's spec with
``"mode": "epipolar"``, which byte-checks the per-context epipolar path on
a 2-head map, and analytic-full, analytic-epipolar's spec with ``"mode":
"full"``, which byte-checks full attention on an identity block. It
hashes the u8 images of every run of the unit in order (reference view
first). Two checkouts print the same lines exactly when
their outputs are byte for byte the same. BLAS is pinned to one thread
before numpy loads, as in ``perfbench/run.py``, and the library is
imported from ``src/`` of this checkout. A unit marked failed by
perfbench, whether it raised or one of its runs failed ``check_outputs``,
prints FAILED and makes the script exit 1.

The ``scene-renders`` line hashes the rgb, depth and prim_id of
``render`` and the 16x16 ``positional_features`` of ``make_scene(0, m)``,
for m in distinctive and plain, at every free16 camera (seed 100) at
32 px, in that order.

The ``reprojection`` line hashes, as float64, the mean error and every
pair's (view_a, view_b, pixels, error) of ``reprojection_consistency``
over those renders, per scene mode: first on the clean renders, then on
a noisy copy (Gaussian, sigma 0.05, one generator seeded 0 for both
modes).

The ``readers`` line hashes what reads the attention core's logits
outside the pipeline: the two PGMs ``simmap`` writes (epipolar, then
full) for each of three (pair, query) cases, on a ``scene gen --traj
free16`` fixture written to a temporary directory; then the result dict
of ``localization_study`` for ``make_scene(0, m)``, m in distinctive and
plain, over three free16 (seed 100) view pairs at 32 px, as sorted-key
JSON.

The ``trajectory`` line hashes the u8 images, in order, of one whole
``synthesize_trajectory`` run: toyunet (net seed 0) in epipolar mode
with 2 context views, alpha 0.5, injection from step 4 of 50, from view
0 to views 1-15 of free16 (seed 100) rendered from ``make_scene(0,
"distinctive")`` at 16 px. It and the ``backends`` line run whole
trajectories, so they are the ones that see caches freed after their
last reader.

The ``counters`` line hashes ``asdict(synth.counters)``, as sorted-key
JSON, after the trajectory line's run, then after the same run in
``full`` mode: the similarity-buffer records of both retrieval modes over
a whole trajectory on a 2-head half-resolution bottleneck.

The ``backends`` line hashes the u8 images, in order, of the same run
(the trajectory line's scene, cameras and config) made first with
``OracleDenoiser``, then with ``AnalyticAttentionDenoiser`` at sigma 0,
each given the input image for the reference and the 16 px render of
every later view as its targets. No other line runs either backend at
sigma 0.

The ``raycast`` line hashes, per scene, the depth, surf and points of
``raycast`` over every pixel center of a 24x20 grid (65 degree field of
view) at every free16 camera (seed 100), then ``correspondence_grid``'s
uv_b, visible, prim_a and prim_b from each such view to the next one on
the trajectory; the scenes are ``make_scene(0, m)``, m in distinctive
and plain, then the box fixture (``make_scene(3, "plain")`` with a box
and a sphere added), the one scene here that holds a box.

The ``records`` line hashes the bytes of the JSON records: the
``scene.json`` and ``cameras.json`` that ``write_fixture`` writes for
``make_scene(0, m)``, m in distinctive and plain, then for the box
fixture, each with the first four free16 cameras (seed 100) at 16 px;
then the ``manifest.json`` of a short analytic ``synthesize_trajectory``
run (sigma 0.08, seed 0, 10 steps, injection from step 2, from view 0 of
those cameras on the distinctive scene to views 1-3), written as the CLI
writes it.

``EXPECTED`` is the record of every line's prefix. ``--check`` marks each
line whose prefix differs from it as MOVED, names the moved lines last,
and exits 1 if any moved.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analytic-epipolar", "toyunet-full", "consistency-loop", "toyunet-epipolar",
             "analytic-full")
# The prefix of every line. The toyunet prefixes were re-based when the
# attention blocks began to compute in their own precision (they were
# 233859cc782c07c0 and 84e26901e7c0531c before), and again when full
# attention became key-major, with its scale on the queries and one
# summation order changed (f49df66441dbeb13 and ab6a38ea5d0fa068 before:
# 5 and 2 of the 27,648 u8 values moved, each by 1); scene-renders was
# first taken before ray casts returned their hit points, reprojection
# before each view was ray-cast once per call, analytic-full before
# identity projections handed back their input, trajectory before a
# generated view's cache was freed after its last reader, and backends
# before the oracle backends held one float32 map per view, and counters
# before the synthesizer, not the attention kernels, recorded each buffer,
# and raycast before the ray cast became one vectorised pass; records
# was first taken before every JSON record read and wrote through its
# dataclass fields.
EXPECTED = {
    "analytic-epipolar": "5084e54caba36190",
    "toyunet-full": "215266917a99aa4c",
    "consistency-loop": "298cd9caf5f8538a",
    "toyunet-epipolar": "786e7e99b7c6bce4",
    "analytic-full": "4bc240e20df10be5",
    "scene-renders": "c138a3add59b2d1c",
    "reprojection": "9efc96be45eadda3",
    "readers": "6ae5c449acdd22f4",
    "trajectory": "d3981e9b463158c0",
    "backends": "8e709745c7717831",
    "counters": "3b2cd82b12344cc4",
    "raycast": "517043de5ea610ce",
    "records": "e1d8700a17b250df",
}


def main() -> int:
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        print(f"usage: {sys.argv[0]} [--check]", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads as wl

    specs = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    specs["toyunet-epipolar"] = dict(specs["toyunet-full"], mode="epipolar")
    specs["analytic-full"] = dict(specs["analytic-epipolar"], mode="full")
    failed, moved = False, []

    def report(name: str, prefix: str, bad: bool = False):
        marks = "  FAILED" if bad else ""
        if check and prefix != EXPECTED[name]:
            moved.append(name)
            marks += f"  MOVED (expected {EXPECTED[name]})"
        print(f"{name:20s} {prefix}{marks}", flush=True)

    for name in WORKLOADS:
        spec = specs[name]
        unit = wl.run_unit(spec, wl.make_inputs(spec, 0), traced=False)
        digest = hashlib.sha256()
        for run in unit.runs:
            for im in run.images:
                digest.update(im.tobytes())
        bad = unit.failed or any(run.failed for run in unit.runs)
        failed |= bad
        report(name, digest.hexdigest()[:16], bad)
    renders, reprojection = scene_digests()
    report("scene-renders", renders)
    report("reprojection", reprojection)
    report("readers", readers_digest())
    trajectory, counters = trajectory_digests()
    report("trajectory", trajectory)
    report("backends", backends_digest())
    report("counters", counters)
    report("raycast", raycast_digest())
    report("records", records_digest())
    if check:
        print(f"moved: {', '.join(moved)}" if moved else "check: every prefix as expected")
    return 1 if failed or moved else 0


def scene_digests() -> tuple[str, str]:
    """The ``scene-renders`` and ``reprojection`` prefixes."""
    import numpy as np
    from epiview.geometry import CameraIntrinsics
    from epiview.metrics import reprojection_consistency
    from epiview.scenegen import make_scene, make_trajectory, positional_features, render

    K = CameraIntrinsics.from_fov(32, 32)
    renders, reprojection = hashlib.sha256(), hashlib.sha256()
    rng = np.random.default_rng(0)
    for mode in ("distinctive", "plain"):
        scene = make_scene(0, mode)
        views = [render(scene, cam, K) for cam in make_trajectory("free16", 100)]
        for view in views:
            for a in (view.rgb.data, view.depth, view.prim_id,
                      positional_features(scene, view, 16).data):
                renders.update(a.tobytes())
        clean = [view.rgb.data for view in views]
        noisy = [im + rng.normal(0.0, 0.05, im.shape) for im in clean]
        for images in (clean, noisy):
            mean, pairs = reprojection_consistency(images, views, scene)
            rows = [(p.view_a, p.view_b, p.pixels, p.error) for p in pairs]
            reprojection.update(np.array([mean, *np.ravel(rows)], dtype=np.float64).tobytes())
    return renders.hexdigest()[:16], reprojection.hexdigest()[:16]


def _box_scene():
    """The box fixture: ``make_scene(3, "plain")`` with a box and a sphere added."""
    import numpy as np
    from epiview.scenegen import Box, Scene, Sphere, make_scene

    prims = make_scene(3, "plain").primitives
    return Scene(seed=3, mode="plain", bounding_radius=1.0, primitives=prims + (
        Box(lo=np.array([0.35, -0.3, -0.2]), hi=np.array([0.75, 0.1, 0.25]),
            color=np.array([0.8, 0.2, 0.1])),
        Sphere(center=np.array([-0.2, 0.75, 0.3]), radius=0.15, color=np.array([0.1, 0.6, 0.3])),
    ))


def raycast_digest() -> str:
    """The ``raycast`` prefix."""
    from epiview.geometry import CameraIntrinsics, pixel_grid
    from epiview.scenegen import correspondence_grid, make_scene, make_trajectory, raycast, render

    K = CameraIntrinsics.from_fov(24, 20, 65.0)
    uv = pixel_grid(K.width, K.height)
    digest = hashlib.sha256()
    for scene in (make_scene(0, "distinctive"), make_scene(0, "plain"), _box_scene()):
        views = [render(scene, cam, K) for cam in make_trajectory("free16", 100)]
        for view in views:
            for a in raycast(scene, view.extrinsics, K, uv):
                digest.update(a.tobytes())
        for view_a, view_b in zip(views, views[1:]):
            for a in correspondence_grid(scene, view_a, view_b, uv):
                digest.update(a.tobytes())
    return digest.hexdigest()[:16]


def records_digest() -> str:
    """The ``records`` prefix."""
    import tempfile
    from epiview.attention import AttentionCounters
    from epiview.diffusion import AnalyticAttentionDenoiser, NoiseSchedule
    from epiview.fileio import write_fixture, write_json
    from epiview.geometry import CameraIntrinsics
    from epiview.pipeline import GenerationConfig, TrajectorySynthesizer
    from epiview.scenegen import make_scene, make_trajectory, render

    K = CameraIntrinsics.from_fov(16, 16)
    cams = make_trajectory("free16", 100)[:4]
    scenes = (make_scene(0, "distinctive"), make_scene(0, "plain"), _box_scene())
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for scene in scenes:
            write_fixture(tmp, scene, K, [render(scene, cam, K) for cam in cams])
            for name in ("scene.json", "cameras.json"):
                digest.update((Path(tmp) / name).read_bytes())
        views = [render(scenes[0], cam, K).rgb.data for cam in cams]
        denoiser = AnalyticAttentionDenoiser({None: views[0], **dict(enumerate(views[1:]))},
                                             sigma=0.08, seed=0)
        synth = TrajectorySynthesizer(views[0], cams[0], K, denoiser, NoiseSchedule.linear_beta(10),
                                      GenerationConfig(inject_after_step=2), AttentionCounters())
        write_json(Path(tmp) / "manifest.json", synth.synthesize_trajectory(cams[1:])[1])
        digest.update((Path(tmp) / "manifest.json").read_bytes())
    return digest.hexdigest()[:16]


def readers_digest() -> str:
    """The ``readers`` prefix."""
    import contextlib
    import io
    import tempfile
    from epiview.cli import main as cli
    from epiview.geometry import CameraIntrinsics
    from epiview.metrics import localization_study
    from epiview.scenegen import make_scene, make_trajectory, render

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        fixture, maps = Path(tmp) / "fix", Path(tmp) / "maps"
        if cli(["scene", "gen", "--traj", "free16", "--out", str(fixture)]):
            raise RuntimeError("scene gen failed")
        for pair, query in (("0,1", "8,8"), ("3,7", "5,10"), ("12,4", "11,6")):
            if cli(["simmap", "--query", query, "--pair", pair, "--scene", str(fixture),
                    "--out", str(maps)]):
                raise RuntimeError(f"simmap --pair {pair} --query {query} failed")
            x, y = query.split(",")
            for kind in ("epipolar", "full"):
                digest.update((maps / f"{kind}_q{x}_{y}.pgm").read_bytes())
    K = CameraIntrinsics.from_fov(32, 32)
    cams = make_trajectory("free16", 100)
    for mode in ("distinctive", "plain"):
        scene = make_scene(0, mode)
        for a, b in ((0, 1), (3, 7), (12, 13)):
            result = localization_study(scene, render(scene, cams[a], K), render(scene, cams[b], K))
            digest.update(json.dumps(result, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def trajectory_digests() -> tuple[str, str]:
    """The ``trajectory`` and ``counters`` prefixes."""
    from dataclasses import asdict
    from epiview.toyunet import ToyUNet

    def toyunet(targets):
        return [ToyUNet(seed=0)]

    trajectory, counters = _trajectories_digest(toyunet)
    counters += _trajectories_digest(toyunet, "full")[1]
    digest = hashlib.sha256()
    for c in counters:
        digest.update(json.dumps(asdict(c), sort_keys=True).encode())
    return trajectory, digest.hexdigest()[:16]


def backends_digest() -> str:
    """The ``backends`` prefix."""
    from epiview.diffusion import AnalyticAttentionDenoiser, OracleDenoiser

    return _trajectories_digest(
        lambda targets: [OracleDenoiser(targets), AnalyticAttentionDenoiser(targets)])[0]


def _trajectories_digest(denoisers, mode: str = "epipolar") -> tuple[str, list]:
    """The prefix of the u8 images, in order, of one whole
    ``synthesize_trajectory`` run in ``mode`` per denoiser in
    ``denoisers(targets)``, and each run's similarity-buffer counters:
    from view 0 of free16 (seed 100), rendered from ``make_scene(0,
    "distinctive")`` at 16 px, to views 1-15, with 2 context views, alpha
    0.5 and injection from step 4 of 50. ``targets`` maps None to the
    input image and i to the render of view i + 1."""
    from epiview.attention import AttentionCounters
    from epiview.diffusion import NoiseSchedule
    from epiview.fileio import to_u8
    from epiview.geometry import CameraIntrinsics
    from epiview.pipeline import GenerationConfig, TrajectorySynthesizer
    from epiview.scenegen import make_scene, make_trajectory, render

    K = CameraIntrinsics.from_fov(16, 16)
    cams = make_trajectory("free16", 100)
    scene = make_scene(0, "distinctive")
    image = render(scene, cams[0], K).rgb.data
    targets = {None: image, **{i: render(scene, cam, K).rgb.data for i, cam in enumerate(cams[1:])}}
    config = GenerationConfig(alpha=0.5, context_views=2, inject_after_step=4, mode=mode)
    digest, counters = hashlib.sha256(), []
    for den in denoisers(targets):
        counters.append(AttentionCounters())
        synth = TrajectorySynthesizer(image, cams[0], K, den, NoiseSchedule.linear_beta(50),
                                      config, counters[-1])
        for im in synth.synthesize_trajectory(cams[1:])[0]:
            digest.update(to_u8(im).tobytes())
    return digest.hexdigest()[:16], counters


if __name__ == "__main__":
    sys.exit(main())
