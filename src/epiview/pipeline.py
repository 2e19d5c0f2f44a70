"""End-to-end multi-view synthesis: invert the input image once, share
the resulting noise across branches, reconstruct the reference view, and
generate target views auto-regressively with epipolar feature injection
from selected context views.

The reference branch is never injected into (it has no context); target
branches cache their own features at every injected (step, layer) so that
later views can retrieve from them.

A (context, target) pair's epipolar sample set and bilinear tap plan
depend only on the two cameras and the feature grid, so each is built once
per pair on first use within the target's view and reused at every step
and layer; both are freed when the view ends, since no later view shares
its target camera.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .attention import (
    AttentionCounters,
    EpipolarAttentionBlock,
    duplicate_params,
    epipolar_attention,
    full_cross_attention,
    fuse,
    multi_view_aggregate,
    project_context,
)
from .diffusion import (
    Condition,
    Denoiser,
    LatentImage,
    NoiseSchedule,
    ddim_invert,
    ddim_sample,
)
from .errors import CacheMissError, DataError
from .geometry import (
    CameraIntrinsics,
    SphericalCamera,
    camera_on_sphere,
    epipolar_sample_grid,
    relative_pose,
)
from .numerics import BilinearPlan

__all__ = [
    "GenerationConfig",
    "ViewCache",
    "TrajectorySynthesizer",
    "select_context_views",
    "angular_distance",
]

INPUT_VIEW = "input"


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs of the synthesis run. ``context_views`` is the number of
    previously generated views retrieved from alongside the input view;
    ``inject_after_step`` counts denoising iterations from the noise end."""

    alpha: float = 0.5
    context_views: int = 2
    inject_after_step: int = 4
    inject_layers: tuple = ()
    mode: str = "epipolar"
    sample_axis: str = "dominant"
    value_source: str = "value_projection"
    apply_out_proj: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DataError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.context_views < 0:
            raise DataError("context_views must be >= 0")
        if self.mode not in ("epipolar", "full", "off"):
            raise DataError(f"unknown mode {self.mode!r}")
        if self.sample_axis not in ("dominant", "width"):
            raise DataError(f"unknown sample_axis {self.sample_axis!r}")
        if self.value_source not in ("value_projection", "raw_feature"):
            raise DataError(f"unknown value_source {self.value_source!r}")

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha, "context_views": self.context_views,
            "inject_after_step": self.inject_after_step,
            "inject_layers": list(self.inject_layers), "mode": self.mode,
            "sample_axis": self.sample_axis, "value_source": self.value_source,
            "apply_out_proj": self.apply_out_proj, "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GenerationConfig":
        known = {f: obj[f] for f in cls.__dataclass_fields__ if f in obj}
        if "inject_layers" in known:
            known["inject_layers"] = tuple(known["inject_layers"])
        return cls(**known)


@dataclass
class ViewCache:
    """Per-view feature cache: one ContextFeatures per injected
    (step, layer) pair. Frozen once the view's branch finishes."""

    key: object
    camera: SphericalCamera
    entries: dict = field(default_factory=dict)
    frozen: bool = False

    def put(self, step: int, layer: str, features) -> None:
        if self.frozen:
            raise DataError(f"cache of view {self.key!r} is frozen")
        self.entries[(step, layer)] = features

    def get(self, step: int, layer: str):
        try:
            return self.entries[(step, layer)]
        except KeyError:
            raise CacheMissError(step, layer, self.key) from None


def angular_distance(a: SphericalCamera, b: SphericalCamera) -> float:
    """Great-circle angle (radians) between camera unit positions; radius
    differences are ignored."""
    pa = a.position()
    pb = b.position()
    cosv = float(pa @ pb) / (np.linalg.norm(pa) * np.linalg.norm(pb))
    return float(np.arccos(np.clip(cosv, -1.0, 1.0)))


def select_context_views(target_cam: SphericalCamera, generated: list,
                         input_cache: ViewCache, m: int) -> list:
    """Context views for a new target: always the input view, plus the
    ``m`` previously generated views closest by great-circle angle (ties
    broken by earlier generation order).

    ``generated`` is the list of finished ViewCaches in generation order.
    """
    ranked = sorted(
        (vc for vc in generated),
        key=lambda vc: (angular_distance(target_cam, vc.camera), vc.key),
    )
    return [input_cache] + ranked[:m]


def _spherical_delta(ref: SphericalCamera, tgt: SphericalCamera) -> tuple:
    dazim = (tgt.azimuth_deg - ref.azimuth_deg + 180.0) % 360.0 - 180.0
    return (tgt.elevation_deg - ref.elevation_deg, dazim, tgt.radius - ref.radius)


class TrajectorySynthesizer:
    """Drives one synthesis run: inversion, the reference branch, and
    auto-regressive target views."""

    def __init__(self, input_image: np.ndarray, input_cam: SphericalCamera,
                 intrinsics: CameraIntrinsics, denoiser: Denoiser,
                 sched: NoiseSchedule, config: GenerationConfig,
                 counters: AttentionCounters | None = None):
        self.input_image = np.ascontiguousarray(input_image, dtype=np.float32)
        self.input_cam = input_cam
        self.intrinsics = intrinsics
        self.denoiser = denoiser
        self.sched = sched
        self.config = config
        self.counters = counters
        self.generated: list[ViewCache] = []
        self.timings: list[dict] = []
        self._x_ref: LatentImage | None = None
        self._ref_image: np.ndarray | None = None
        self._input_cache: ViewCache | None = None
        self._dup_params: dict = {}
        layers = tuple(config.inject_layers) or tuple(denoiser.layers)
        self.inject_layers = tuple(l for l in layers if l in denoiser.layers)

    # --- stage plumbing -------------------------------------------------

    def _duplicated(self, layer: str, params):
        if layer not in self._dup_params:
            self._dup_params[layer] = duplicate_params(params)
        return self._dup_params[layer]

    def _pair_geometry(self, ctx_cam: SphericalCamera, tgt_cam: SphericalCamera,
                       width: int, height: int):
        """Epipolar sample set of a (context, target) pair on a feature
        grid, and the bilinear plan of its positions."""
        pose = relative_pose(camera_on_sphere(ctx_cam), camera_on_sphere(tgt_cam))
        k_feat = self.intrinsics.scaled(width / self.intrinsics.width)
        samples = epipolar_sample_grid(pose, k_feat, width, height, self.config.sample_axis)
        return samples, BilinearPlan.build(samples.uv, width, height)

    def _stage_callback(self, cam: SphericalCamera, own_cache: ViewCache | None,
                        context: list):
        """Build the per-branch callback that caches features and, when
        context views are present, injects retrieved ones."""
        cfg = self.config
        pairs: dict = {}   # (context camera, w, h) -> (samples, plan), dies with the view

        def cb(step_idx: int, stage):
            if stage.layer not in self.inject_layers:
                return None
            if step_idx < cfg.inject_after_step:
                return None
            dup = self._duplicated(stage.layer, stage.params)
            if own_cache is not None:
                own_cache.put(step_idx, stage.layer,
                              project_context(stage.feature, dup, cfg.value_source))
            if not context:
                return None
            outs = []
            for vc in context:
                entry = vc.get(step_idx, stage.layer)
                if cfg.mode == "epipolar":
                    key = (vc.camera, stage.feature.width, stage.feature.height)
                    if key not in pairs:
                        pairs[key] = self._pair_geometry(vc.camera, cam, *key[1:])
                    samples, plan = pairs[key]
                    block = EpipolarAttentionBlock(params=dup, fusion_alpha=cfg.alpha,
                                                   apply_out_proj=cfg.apply_out_proj)
                    outs.append(epipolar_attention(stage.feature, entry, samples,
                                                   block, self.counters, plan=plan))
                else:
                    outs.append(full_cross_attention(stage.feature, entry, dup,
                                                     self.counters, cfg.apply_out_proj))
            agg, contributed = multi_view_aggregate(outs)
            return fuse(stage.baseline, agg, contributed, cfg.alpha)

        return cb

    # --- the run ---------------------------------------------------------

    def invert_input(self) -> LatentImage:
        """Shared initial noise from DDIM inversion of the input image."""
        if self._x_ref is None:
            self._x_ref = ddim_invert(LatentImage(self.input_image, t=0),
                                      self.denoiser,
                                      Condition.reference(self.input_image), self.sched)
        return self._x_ref

    def reference_branch(self):
        """Reconstruct the input view from the shared noise, caching its
        features for retrieval. Never injected into."""
        if self._input_cache is None:
            x_ref = self.invert_input()
            cache = ViewCache(key=INPUT_VIEW, camera=self.input_cam)
            cb = None
            if self.config.mode != "off" and self.inject_layers:
                cb = self._stage_callback(self.input_cam, cache, [])
            out = ddim_sample(x_ref, self.denoiser,
                              Condition.reference(self.input_image),
                              self.sched, stage_cb=cb)
            cache.frozen = True
            self._ref_image = out.data
            self._input_cache = cache
        return self._ref_image, self._input_cache

    def synthesize_view(self, target_cam: SphericalCamera, view_index: int):
        """Generate one target view using the current context set; caches
        its own features for the views that follow."""
        t0 = time.perf_counter()
        _, input_cache = self.reference_branch()
        cond = Condition(
            rel_pose=relative_pose(camera_on_sphere(self.input_cam),
                                   camera_on_sphere(target_cam)),
            ref_image=self.input_image,
            d_spherical=_spherical_delta(self.input_cam, target_cam),
            view_key=view_index,
        )
        cache = ViewCache(key=view_index, camera=target_cam)
        cb = None
        if self.config.mode != "off" and self.inject_layers:
            context = select_context_views(target_cam, self.generated,
                                           input_cache, self.config.context_views)
            cb = self._stage_callback(target_cam, cache, context)
        out = ddim_sample(self.invert_input(), self.denoiser, cond,
                          self.sched, stage_cb=cb)
        cache.frozen = True
        self.generated.append(cache)
        self.timings.append({"view": view_index, "seconds": time.perf_counter() - t0})
        return out.data, cache

    def synthesize_trajectory(self, cams: list):
        """Generate every view of a trajectory in order; returns the image
        list and a manifest sufficient to reproduce the run."""
        images = [self.synthesize_view(cam, i)[0] for i, cam in enumerate(cams)]
        return images, self.manifest(cams)

    def manifest(self, cams: list) -> dict:
        man = {
            "version": __version__,
            "config": self.config.to_json(),
            "schedule": {"steps": self.sched.steps,
                         "alphas": [float(a) for a in self.sched.alphas]},
            "input_view": {"elevation_deg": self.input_cam.elevation_deg,
                           "azimuth_deg": self.input_cam.azimuth_deg,
                           "radius": self.input_cam.radius},
            "intrinsics": {"f": self.intrinsics.f, "cx": self.intrinsics.cx,
                           "cy": self.intrinsics.cy, "width": self.intrinsics.width,
                           "height": self.intrinsics.height},
            "trajectory": [{"elevation_deg": c.elevation_deg,
                            "azimuth_deg": c.azimuth_deg, "radius": c.radius}
                           for c in cams],
            "timings": self.timings,
        }
        if self.counters is not None:
            man["buffer_counters"] = {"peak_elems": self.counters.peak_elems,
                                      "total_elems": self.counters.total_elems,
                                      "calls": self.counters.calls}
        return man
