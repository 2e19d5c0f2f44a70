"""End-to-end multi-view synthesis: invert the input image once, share
the resulting noise across branches, reconstruct the reference view, and
generate target views auto-regressively with epipolar feature injection
from selected context views.

The reference branch is never injected into (it has no context); target
branches cache their own features at every injected (step, layer) so that
later views can retrieve from them. A whole trajectory frees each target's
cache after the last view that reads it.

A (context, target) pair's epipolar sample set depends only on the two
cameras and the feature grid, so it is built once per pair on first use
within the target's view and reused at every step and layer, with its tap
plan, blend weights and slot masks, each read-only and made on first use;
all are freed when the view ends, since no later view shares its camera.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .attention import (
    AttentionCounters,
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
    from_record,
    relative_pose,
    to_record,
)

__all__ = [
    "CONFIG_RULES",
    "GenerationConfig",
    "ViewCache",
    "TrajectorySynthesizer",
    "select_context_views",
    "angular_distance",
]

INPUT_VIEW = "input"


# Each checked field's rule: the test its value must pass, and what it must be.
CONFIG_RULES = {
    "alpha": (lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]"),
    "context_views": (lambda x: x >= 0, "an integer >= 0"),
    "inject_after_step": (lambda x: x >= 0, "an integer >= 0"),
    "mode": (lambda x: x in ("epipolar", "full", "off"), "epipolar, full or off"),
}


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs of the synthesis run. ``context_views`` is the number of
    previously generated views retrieved from alongside the input view;
    ``inject_after_step`` counts denoising iterations from the noise end.
    Unless ``mode`` is ``"off"``, every attention stage the denoiser
    exposes is injected into. A field breaking its CONFIG_RULES rule is a DataError."""

    alpha: float = 0.5
    context_views: int = 2
    inject_after_step: int = 4
    mode: str = "epipolar"
    seed: int = 0

    def __post_init__(self):
        for name, (ok, want) in CONFIG_RULES.items():
            value = getattr(self, name)
            if not ok(value):
                raise DataError(f"{name} must be {want}, got {value!r}")

    to_json, from_json = to_record, classmethod(from_record)


@dataclass
class ViewCache:
    """Per-view feature cache: one ContextFeatures per injected
    (step, layer) pair. Frozen once the view's branch finishes; released
    (its entries dropped, its camera kept for ranking) once no later view
    reads it, after which a get is a CacheMissError, never freed data."""

    key: object
    camera: SphericalCamera
    entries: dict = field(default_factory=dict)
    frozen: bool = False

    def put(self, step: int, layer: str, features) -> None:
        if self.frozen:
            raise DataError(f"cache of view {self.key!r} is frozen")
        self.entries[(step, layer)] = features

    def release(self) -> None:
        self.entries = {}

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
    ranked = sorted(generated, key=lambda vc: (angular_distance(target_cam, vc.camera), vc.key))
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
        self._x_ref: LatentImage | None = None
        self._ref_image: np.ndarray | None = None
        self._input_cache: ViewCache | None = None
        self._dup_params: dict = {}

    # --- stage plumbing -------------------------------------------------

    def _duplicated(self, layer: str, params):
        if layer not in self._dup_params:
            self._dup_params[layer] = duplicate_params(params)
        return self._dup_params[layer]

    def _pair_geometry(self, ctx_cam: SphericalCamera, tgt_cam: SphericalCamera, width: int):
        """Epipolar sample set of a (context, target) pair on the feature
        grid ``width`` pixels wide: the image intrinsics scaled to it."""
        pose = relative_pose(camera_on_sphere(ctx_cam), camera_on_sphere(tgt_cam))
        return epipolar_sample_grid(pose, self.intrinsics.scaled(width / self.intrinsics.width))

    # --- the run ---------------------------------------------------------

    def invert_input(self) -> LatentImage:
        """Shared initial noise from DDIM inversion of the input image."""
        if self._x_ref is None:
            self._x_ref = ddim_invert(LatentImage(self.input_image, t=0),
                                      self.denoiser, Condition.reference(), self.sched)
        return self._x_ref

    def _branch(self, cam: SphericalCamera, key, cond: Condition, context: list):
        """One DDIM run from the shared noise. At every injected (step,
        layer) its stage callback caches the branch's own features and,
        given context views, fuses in the features retrieved from them.
        Returns the image and the frozen cache."""
        cfg = self.config
        cache = ViewCache(key=key, camera=cam)
        pairs: dict = {}   # (context camera, w, h) -> sample set, dies with the view

        def cb(step_idx: int, stage):
            if step_idx < cfg.inject_after_step:
                return None
            dup = self._duplicated(stage.layer, stage.params)
            cache.put(step_idx, stage.layer, project_context(stage.feature, dup))
            if not context:
                return None
            entries = [vc.get(step_idx, stage.layer) for vc in context]
            n = stage.feature.height * stage.feature.width
            if cfg.mode == "full":
                outs, keys = full_cross_attention(stage.feature, entries, dup), [n] * len(entries)
            else:
                outs, keys = [], []
                for vc, entry in zip(context, entries):
                    pair = (vc.camera, stage.feature.width, stage.feature.height)
                    if pair not in pairs:
                        pairs[pair] = self._pair_geometry(vc.camera, cam, pair[1])
                    outs.append(epipolar_attention(stage.feature, entry, pairs[pair], dup))
                    keys.append(pairs[pair].uv.shape[0])
            if self.counters is not None:   # one similarity buffer per context
                for k in keys:
                    self.counters.record(dup.heads, n, k)
            agg, contributed = multi_view_aggregate(outs)
            return fuse(stage.baseline, agg, contributed, cfg.alpha)

        out = ddim_sample(self.invert_input(), self.denoiser, cond, self.sched,
                          stage_cb=cb if cfg.mode != "off" else None)
        cache.frozen = True
        return out.data, cache

    def reference_branch(self):
        """Reconstruct the input view from the shared noise, caching its
        features for retrieval. Never injected into."""
        if self._input_cache is None:
            self._ref_image, self._input_cache = self._branch(
                self.input_cam, INPUT_VIEW, Condition.reference(), [])
        return self._ref_image, self._input_cache

    def synthesize_view(self, target_cam: SphericalCamera, view_index: int):
        """Generate one target view using the current context set; caches
        its own features for the views that follow."""
        _, input_cache = self.reference_branch()
        cond = Condition(d_spherical=_spherical_delta(self.input_cam, target_cam),
                         view_key=view_index)
        context = select_context_views(target_cam, self.generated, input_cache,
                                       self.config.context_views)
        image, cache = self._branch(target_cam, view_index, cond, context)
        self.generated.append(cache)
        return image, cache

    def synthesize_trajectory(self, cams: list):
        """Generate every view of a trajectory in order; returns the image
        list and a manifest sufficient to reproduce the run, with each
        view's context keys under ``context_schedule``.

        Context selection reads only cameras and generation order, so a
        replay over camera-only caches gives the whole schedule up front,
        and each generated cache (those made before the call included) is
        released right after its last reader: Belady's offline rule, which
        keeps memory bounded however long the trajectory. A view made later
        that selects a released cache gets a CacheMissError; one made with
        ``synthesize_view`` alone keeps every cache."""
        stubs = [ViewCache(vc.key, vc.camera) for vc in self.generated]
        input_stub = ViewCache(INPUT_VIEW, self.input_cam)
        schedule, last_read = [], {}   # id of a stub -> the last view reading it
        for i, cam in enumerate(cams):
            context = select_context_views(cam, stubs, input_stub, self.config.context_views)
            schedule.append([vc.key for vc in context])
            last_read.update((id(vc), i) for vc in context)
            stubs.append(ViewCache(i, cam))
        images = []
        for i, cam in enumerate(cams):
            images.append(self.synthesize_view(cam, i)[0])
            for vc, stub in zip(self.generated, stubs):
                if last_read.get(id(stub), -1) <= i:
                    vc.release()
        return images, {**self.manifest(cams), "context_schedule": schedule}

    def manifest(self, cams: list) -> dict:
        man = {
            "version": __version__,
            "config": self.config.to_json(),
            "schedule": {"steps": self.sched.steps,
                         "alphas": [float(a) for a in self.sched.alphas]},
            "input_view": to_record(self.input_cam),
            "intrinsics": to_record(self.intrinsics),
            "trajectory": [to_record(c) for c in cams],
        }
        if self.counters is not None:
            man["buffer_counters"] = asdict(self.counters)
        return man
