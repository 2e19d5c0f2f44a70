"""Scaling benchmark for the similarity-buffer footprint and wall time of
epipolar versus full retrieval attention.

Buffer elements are exact integer counts recorded from each call's
shapes, not from instrumentation inside the kernels, so the fitted
log-log slopes are machine-independent: full attention allocates (L*L)^2
entries on an L x L grid, epipolar attention L*L times max(W, H) slots.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass

import numpy as np

from .attention import (
    AttentionCounters,
    AttentionParams,
    epipolar_attention,
    full_cross_attention,
    project_context,
)
from .geometry import CameraIntrinsics, SphericalCamera, camera_on_sphere, epipolar_sample_grid, relative_pose
from .numerics import FeatureMap

__all__ = ["BENCH_RULES", "BenchRow", "run_scaling_bench", "fit_loglog_slope", "bench_csv_rows"]

# Each bench knob's rule: the test its value must pass, and what it must be.
BENCH_RULES = {
    "sizes": (lambda s: all(L >= 1 for L in s) and list(s) == sorted(s), "positive and ascending"),
    "reps": (lambda x: x >= 3, "an integer >= 3"),
}


@dataclass(frozen=True)
class BenchRow:
    size: int
    mode: str
    buffer_elems: int
    wall_ns_median: int
    reps: int


def _bench_pose(rng: np.random.Generator):
    """A random on-sphere view pair with a safely non-degenerate baseline."""
    while True:
        a = SphericalCamera(float(rng.uniform(-30, 50)), float(rng.uniform(0, 360)), 2.0)
        b = SphericalCamera(float(rng.uniform(-30, 50)), float(rng.uniform(0, 360)), 2.0)
        pose = relative_pose(camera_on_sphere(a), camera_on_sphere(b))
        if pose.baseline() > 0.3:
            return pose


def run_scaling_bench(sizes=(8, 16, 32, 64), reps: int = 3, seed: int = 0) -> list:
    """Measure buffer elements and median wall time per size, for epipolar
    then full attention, on 4-channel maps.

    Sizes and reps must pass their BENCH_RULES rule, else a ValueError names
    the knob. Single-threaded; one head, so the full-attention count is exactly L^4.
    """
    for name, value in (("sizes", sizes), ("reps", reps)):
        ok, want = BENCH_RULES[name]
        if not ok(value):
            raise ValueError(f"{name} must be {want}, got {value}")
    rng = np.random.default_rng(seed)
    pose = _bench_pose(rng)
    rows: list[BenchRow] = []
    for L in sizes:
        k_feat = CameraIntrinsics.from_fov(L, L)
        f_tgt = FeatureMap(rng.standard_normal((L, L, 4)))
        f_ref = FeatureMap(rng.standard_normal((L, L, 4)))
        params = AttentionParams.seeded(4, 1, rng)
        ctx = project_context(f_ref, params)
        samples = epipolar_sample_grid(pose, k_feat)
        for mode, keys in (("epipolar", samples.uv.shape[0]), ("full", L * L)):
            counters = AttentionCounters()
            counters.record(params.heads, L * L, keys)
            times = []
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                if mode == "epipolar":
                    epipolar_attention(f_tgt, ctx, samples, params)
                else:
                    full_cross_attention(f_tgt, [ctx], params)
                times.append(time.perf_counter_ns() - t0)
            rows.append(BenchRow(size=L, mode=mode,
                                 buffer_elems=counters.peak_elems,
                                 wall_ns_median=int(np.median(times)), reps=reps))
    return rows


def fit_loglog_slope(sizes, values) -> float:
    """Least-squares slope of log(value) against log(size)."""
    x = np.log(np.asarray(sizes, dtype=np.float64))
    y = np.log(np.asarray(values, dtype=np.float64))
    return float(np.polyfit(x, y, 1)[0])


def bench_csv_rows(rows: list) -> list:
    return [("L", "mode", "buffer_elems", "wall_ns_median", "reps")] + [astuple(r) for r in rows]
