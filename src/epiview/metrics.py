"""Image-quality and consistency metrics.

PSNR and SSIM compare generated views against ground-truth renders.
Reprojection consistency measures photometric agreement at exact
cross-view correspondences (the desk-scale stand-in for training a
radiance field and comparing re-renders). Localization accuracy scores
how well similarity argmaxes hit ground-truth correspondences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionParams, epipolar_logits, full_logits, project_context
from .geometry import epipolar_sample_grid, pixel_grid, relative_pose
from .scenegen import (
    RenderedView,
    Scene,
    _correspond,
    correspondence_grid,
    positional_features,
)

__all__ = [
    "psnr",
    "ssim",
    "SSIM_WINDOW",
    "reprojection_consistency",
    "PairConsistency",
    "localization_accuracy",
    "localization_study",
    "metrics_csv_rows",
]

SSIM_WINDOW = 8   # the side of ssim's square patches


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10 * log10(1 / MSE) for images in [0, 1]; identical images give an
    infinity sentinel."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("psnr needs images of identical shape")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM over uniformly weighted 8 x 8 patches (stride 1),
    standard stabilizers, unit data range."""
    window, c1, c2 = SSIM_WINDOW, 0.01 ** 2, 0.03 ** 2
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("ssim needs images of identical shape")
    if a.ndim == 2:
        a = a[:, :, None]
        b = b[:, :, None]
    h, w = a.shape[:2]
    if h < window or w < window:
        raise ValueError(f"image smaller than the {window}x{window} window")
    win_a = np.lib.stride_tricks.sliding_window_view(a, (window, window), axis=(0, 1))
    win_b = np.lib.stride_tricks.sliding_window_view(b, (window, window), axis=(0, 1))
    mu_a = win_a.mean(axis=(-2, -1))
    mu_b = win_b.mean(axis=(-2, -1))
    var_a = (win_a ** 2).mean(axis=(-2, -1)) - mu_a ** 2
    var_b = (win_b ** 2).mean(axis=(-2, -1)) - mu_b ** 2
    cov = (win_a * win_b).mean(axis=(-2, -1)) - mu_a * mu_b
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)
             / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return float(score.mean())


@dataclass(frozen=True)
class PairConsistency:
    view_a: int
    view_b: int
    error: float       # NaN when the pair shares no mutually visible pixels
    pixels: int


def reprojection_consistency(images: list, views: list, scene: Scene):
    """Mean photometric error at exact cross-view correspondences.

    For every ordered view pair and every foreground pixel of the first
    view whose ground-truth correspondence is visible in the second view
    (and whose nearest sampling pixel shows the same primitive), the
    absolute RGB difference between the two *supplied* images is
    averaged. GT renders score exactly zero only where every surface is
    flat-coloured (a ``plain`` scene); a normal-shaded ball changes colour
    within a pixel, so renders of a ``distinctive`` scene score above zero
    (0.0098 over free16 at 32 px). Pairs with no mutually visible pixels
    come back as NaN.

    Parameters
    ----------
    images : list of (H, W, 3) arrays
        The images whose consistency is being measured, one per view.
    views : list of RenderedView
        Ground-truth geometry for the same camera list.
    scene : Scene

    Returns
    -------
    mean_error : float
        Mean over all defined pairs.
    pairs : list of PairConsistency
    """
    if len(images) != len(views):
        raise ValueError("need one image per rendered view")
    pairs: list[PairConsistency] = []
    defined = []
    for i, view_a in enumerate(views):
        # the surface ids and world hit points of A's pixel grid, as its render cast them
        prim_a, x_world = view_a.prim_id.ravel(), view_a.points.reshape(-1, 3)
        img_a = np.asarray(images[i], dtype=np.float64).reshape(prim_a.size, -1)
        for j, view_b in enumerate(views):
            if i == j:
                continue
            visible, uv_b, _ = _correspond(scene, prim_a, x_world, view_b)
            idx = np.flatnonzero(visible)
            near = np.round(uv_b[idx]).astype(np.int64)   # a visible point lies on B's grid
            same = view_b.prim_id[near[:, 1], near[:, 0]] == prim_a[idx]
            sel, nb = idx[same], near[same]
            if sel.size == 0:
                pairs.append(PairConsistency(i, j, float("nan"), 0))
                continue
            img_b = np.asarray(images[j], dtype=np.float64)
            err = float(np.abs(img_a[sel] - img_b[nb[:, 1], nb[:, 0]]).mean())
            pairs.append(PairConsistency(i, j, err, int(sel.size)))
            defined.append(err)
    mean_error = float(np.mean(defined)) if defined else float("nan")
    return mean_error, pairs


def localization_accuracy(argmax_uv: np.ndarray, gt_uv: np.ndarray,
                          k: float = 1.0) -> float:
    """Fraction of queries whose argmax position lies within ``k`` feature
    pixels (Euclidean) of the ground-truth correspondence."""
    argmax_uv = np.asarray(argmax_uv, dtype=np.float64).reshape(-1, 2)
    gt_uv = np.asarray(gt_uv, dtype=np.float64).reshape(-1, 2)
    if argmax_uv.shape != gt_uv.shape:
        raise ValueError("argmax/gt position counts differ")
    if argmax_uv.shape[0] == 0:
        return float("nan")
    d = np.linalg.norm(argmax_uv - gt_uv, axis=1)
    return float(np.mean(d <= k))


def localization_study(scene: Scene, view_tgt: RenderedView, view_ref: RenderedView,
                       feature_size: int = 24, k: float = 1.0):
    """Compare epipolar against full-attention localization on a fixture.

    Feature maps use identity projections over position-encoded surface
    features (the idealized distinctive texture). Queries are the target's
    foreground feature pixels whose ground-truth correspondence is
    visible in the reference view; occluded queries are excluded from
    the denominator. ``feature_size`` is the feature grids' width; their
    height follows the view's aspect.

    Returns a dict with per-mode accuracies and the query count.
    """
    f_tgt = positional_features(scene, view_tgt, feature_size)
    f_ref = positional_features(scene, view_ref, feature_size)
    wf, hf = f_tgt.width, f_tgt.height
    scale = wf / view_tgt.intrinsics.width
    k_feat = view_tgt.intrinsics.scaled(scale)
    params = AttentionParams.identity(f_tgt.channels)
    ctx = project_context(f_ref, params)

    # ground truth at feature-pixel centers, through the analytic scene
    uv_img = (pixel_grid(wf, hf) + 0.5) / scale - 0.5
    uv_b_img, visible, prim_a, _ = correspondence_grid(scene, view_tgt, view_ref, uv_img)
    gt_feat = (uv_b_img + 0.5) * scale - 0.5
    queries = np.flatnonzero((prim_a >= 0) & visible)
    if queries.size == 0:
        return {"epipolar": float("nan"), "full": float("nan"), "queries": 0}

    pose = relative_pose(view_ref.extrinsics, view_tgt.extrinsics)
    samples = epipolar_sample_grid(pose, k_feat)
    # slot-major (S, N); invalid slots excluded, exact ties go to the lowest slot
    logits_e = epipolar_logits(f_tgt, ctx, samples, params)[0]
    best = np.argmax(np.where(samples.valid, logits_e, -np.inf), axis=0)
    epi_uv = samples.uv[best, np.arange(wf * hf)]
    usable = samples.contributed[queries]
    epi_acc = localization_accuracy(epi_uv[queries][usable], gt_feat[queries][usable], k)

    best_f = np.argmax(full_logits(f_tgt, [ctx], params)[0, 0], axis=0)   # key-major (M, N)
    full_uv = np.stack([best_f % wf, best_f // wf], axis=-1).astype(np.float64)
    full_acc = localization_accuracy(full_uv[queries], gt_feat[queries], k)

    return {"epipolar": epi_acc, "full": full_acc, "queries": int(queries.size),
            "epipolar_usable": int(usable.sum())}


def metrics_csv_rows(run_id: str, values: list) -> list:
    """Rows of the metrics CSV: run_id, metric, view_pair, value."""
    rows = [("run_id", "metric", "view_pair", "value")]
    for metric, pair, value in values:
        rows.append((run_id, metric, pair, f"{value:.9g}"))
    return rows
