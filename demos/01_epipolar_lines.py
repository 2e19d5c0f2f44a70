"""Epipolar lines on a synthetic scene.

Renders two views of a textured ball, picks a few pixels in the target
view, computes each pixel's epipolar line in the reference view, and
checks that the ground-truth correspondence (known exactly from the
analytic geometry) sits on that line. Writes a visualization where the
sampled line positions are painted over the reference view.

Run:  python demos/01_epipolar_lines.py
"""

from pathlib import Path

import numpy as np

from epiview.fileio import write_ppm
from epiview.geometry import (
    CameraIntrinsics,
    camera_on_sphere,
    epipolar_line,
    epipolar_sample_grid,
    relative_pose,
)
from epiview.scenegen import correspondence_grid, make_scene, make_trajectory, render

out = Path("demo_out/epipolar_lines")
out.mkdir(parents=True, exist_ok=True)

# A ball whose surface color encodes position, seen from two nearby views.
K = CameraIntrinsics.from_fov(64, 64)
scene = make_scene(0, "distinctive")
cams = make_trajectory("free16", 100)
target = render(scene, cams[0], K)
reference = render(scene, cams[1], K)

# The relative pose maps reference-camera coordinates to target-camera
# coordinates; epipolar lines live in the reference view.
pose = relative_pose(camera_on_sphere(reference.camera),
                     camera_on_sphere(target.camera))
print(f"baseline between the two cameras: {pose.baseline():.3f} scene units")

# one sampled epipolar line per target pixel, in raster order
samples = epipolar_sample_grid(pose, K, K.width, K.height)
canvas = reference.rgb.data.copy()
ys, xs = np.nonzero(target.prim_id >= 0)
picks = np.linspace(0, len(xs) - 1, 5).astype(int)
uv_t = np.stack([xs[picks], ys[picks]], axis=-1).astype(float)
uv_r, visible, _, _ = correspondence_grid(scene, target, reference, uv_t)

for n, i in enumerate(picks):
    p = (float(xs[i]), float(ys[i]))
    line = epipolar_line(p, pose, K)

    # every valid sample along the line, one per pixel column/row
    q = int(ys[i]) * K.width + int(xs[i])
    for u, v in samples.uv[samples.valid[:, q], q]:
        canvas[int(round(v)), int(round(u))] = [1.0, 1.0, 1.0]

    if visible[n]:
        d = line.distance(K.normalize(uv_r[n]))
        u, v = uv_r[n]
        canvas[int(round(v)), int(round(u))] = [1.0, 0.0, 0.0]
        print(f"pixel {p}: correspondence at ({u:.2f}, {v:.2f}), "
              f"distance to line {d:.2e} (normalized units)")
    else:
        print(f"pixel {p}: correspondence hidden in the reference view (occluded or out of frame)")

write_ppm(out / "target.ppm", target.rgb.data)
write_ppm(out / "reference_with_lines.ppm", canvas)
print(f"\nwrote {out}/target.ppm and {out}/reference_with_lines.ppm")
print("white: sampled epipolar positions; red: ground-truth correspondence")
