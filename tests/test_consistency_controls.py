"""Controls for the consistency loop of acceptance criterion 7: the
method must beat retrieval that ignores its similarities and retrieval
along the wrong epipolar lines, so the consistency score can fail.

The loop is scene 0, free16 (seed 100) with view 0 as the input and
targets 1, 2, 3, 14 and 15, the analytic backend at sigma 0.08, 10 DDIM
steps, alpha 0.5 and two generated context views. The controls exist only
here: one weights every valid epipolar slot evenly, the other builds each
(context, target) sample set from the context camera turned 40 degrees
in azimuth."""

from dataclasses import replace

import numpy as np
import pytest

from epiview import attention
from epiview.diffusion import AnalyticAttentionDenoiser, NoiseSchedule
from epiview.geometry import camera_on_sphere, epipolar_sample_grid, relative_pose
from epiview.metrics import reprojection_consistency
from epiview.pipeline import GenerationConfig, TrajectorySynthesizer
from epiview.scenegen import make_scene, make_trajectory, render

SEEDS = 10


@pytest.fixture(scope="module")
def loop(intrinsics32):
    scene = make_scene(0, "distinctive")
    cams = make_trajectory("free16", 100)
    input_cam, traj = cams[0], [cams[i] for i in (1, 2, 3, 14, 15)]
    gt_views = [render(scene, c, intrinsics32) for c in [input_cam] + traj]
    targets = {None: gt_views[0].rgb.data}
    targets.update((i, v.rgb.data) for i, v in enumerate(gt_views[1:]))
    sched = NoiseSchedule.linear_beta(10)

    def error_of(seed: int) -> float:
        den = AnalyticAttentionDenoiser(targets, sigma=0.08, seed=seed)
        config = GenerationConfig(alpha=0.5, context_views=2, inject_after_step=4,
                                  mode="epipolar", seed=seed)
        synth = TrajectorySynthesizer(gt_views[0].rgb.data, input_cam, intrinsics32,
                                      den, sched, config)
        images, _ = synth.synthesize_trajectory(traj)
        ref, _ = synth.reference_branch()
        err, _ = reprojection_consistency([ref] + [np.clip(im, 0, 1) for im in images],
                                          gt_views, scene)
        return err

    return error_of


def uniform_weights(monkeypatch):
    """Every valid slot weighted evenly: the real softmax of all-zero logits,
    in the caller's array, as the core's softmax works."""
    softmax = attention.masked_softmax

    def even(logits, mask):
        logits[...] = 0.0
        return softmax(logits, mask)

    monkeypatch.setattr(attention, "masked_softmax", even)


def wrong_camera(monkeypatch):
    """Sample sets built from the context camera turned 40 degrees in
    azimuth, here rather than through the pipeline's own pair geometry, so
    that a pipeline which itself samples the wrong lines cannot move the
    control along with it."""

    def turned(self, ctx_cam, tgt_cam, width):
        ctx_cam = replace(ctx_cam, azimuth_deg=ctx_cam.azimuth_deg + 40.0)
        pose = relative_pose(camera_on_sphere(ctx_cam), camera_on_sphere(tgt_cam))
        k_feat = self.intrinsics.scaled(width / self.intrinsics.width)
        return epipolar_sample_grid(pose, k_feat)

    monkeypatch.setattr(TrajectorySynthesizer, "_pair_geometry", turned)


@pytest.fixture(scope="module")
def method(loop):
    return [loop(seed) for seed in range(SEEDS)]


@pytest.mark.parametrize("control", [uniform_weights, wrong_camera],
                         ids=["uniform-weights", "wrong-camera"])
def test_method_beats_the_control(control, loop, method, monkeypatch):
    control(monkeypatch)
    controlled = [loop(seed) for seed in range(SEEDS)]
    wins = sum(m < c for m, c in zip(method, controlled))
    assert wins >= 0.9 * SEEDS, f"{wins}/{SEEDS} wins: {method} against {controlled}"
