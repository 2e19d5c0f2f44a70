"""Noise schedule, one deterministic DDIM walk that samples (T down to 0)
and inverts (0 up to T), and the pose-conditioned denoiser interface with
attention-stage callbacks.

Denoisers expose zero or more *attention stages*: the oracle none, the
analytic backend one (``stage0``), the toy UNet one (``bottleneck``).
During a prediction a stage callback observes every stage (feature map
plus the block's parameters and unmodified output) and may return a
replacement output, which is how the pipeline injects retrieved features
into each stage without the backends knowing about epipolar geometry at
all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import AttentionParams
from .numerics import FeatureMap

__all__ = [
    "NoiseSchedule",
    "LatentImage",
    "Condition",
    "AttentionStage",
    "Denoiser",
    "OracleDenoiser",
    "AnalyticAttentionDenoiser",
    "ddim_step",
    "ddim_sample",
    "ddim_invert",
    "x0_from_eps",
    "eps_from_x0",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal levels alpha_t for t = 0..T; alpha_0 = 1 is the
    clean end and alpha_T the noisiest."""

    alphas: np.ndarray
    MAX_STEPS = 11_867   # linear_beta's longest; past it cumprod(1 - beta) stops decreasing

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=np.float64)
        object.__setattr__(self, "alphas", a)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("alphas must be a non-empty vector")
        if np.any(a <= 0) or np.any(a > 1):
            raise ValueError("alphas must lie in (0, 1]")
        if a.size > 1 and not np.all(np.diff(a) < 0):
            raise ValueError("alphas must be strictly decreasing")

    @property
    def steps(self) -> int:
        return self.alphas.size - 1

    @classmethod
    def linear_beta(cls, steps: int) -> "NoiseSchedule":
        """Schedule with beta linear from 1e-4 to 0.12 over ``steps``; the
        desk-scale default is 50 steps."""
        betas = np.linspace(1e-4, 0.12, steps)
        return cls(alphas=np.concatenate([[1.0], np.cumprod(1.0 - betas)]))


@dataclass(frozen=True)
class LatentImage:
    """An H x W x 3 grid together with its timestep index."""

    data: np.ndarray
    t: int = 0

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise ValueError("latent must be HxWxC")
        if not np.all(np.isfinite(data)):
            raise ValueError("latent contains non-finite entries")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class Condition:
    """What a prediction is conditioned on: the pose of the view being
    generated relative to the input view, as spherical deltas (which the
    toy UNet embeds), and a view key that oracle-style backends use to
    look up their target. The reference branch has zero deltas and no key."""

    d_spherical: tuple = (0.0, 0.0, 0.0)
    view_key: int | None = None

    @classmethod
    def reference(cls) -> "Condition":
        return cls()


@dataclass
class AttentionStage:
    """One attention block as seen by a stage callback."""

    layer: str
    feature: FeatureMap          # pre-attention feature map F
    params: AttentionParams
    baseline: FeatureMap         # the block's unmodified output F-hat


class Denoiser:
    """Interface: predict noise for a latent, optionally exposing
    attention stages to a callback."""

    def predict(self, x_t: np.ndarray, t: int, cond: Condition,
                sched: NoiseSchedule, stage_cb=None) -> np.ndarray:
        raise NotImplementedError


def x0_from_eps(x_t: np.ndarray, eps: np.ndarray, t: int, sched: NoiseSchedule) -> np.ndarray:
    """Clean-image estimate implied by a noise prediction."""
    a = sched.alphas[t]
    return (np.asarray(x_t, dtype=np.float64) - np.sqrt(1.0 - a) * np.asarray(eps, dtype=np.float64)) / np.sqrt(a)


def eps_from_x0(x_t: np.ndarray, x0: np.ndarray, t: int, sched: NoiseSchedule) -> np.ndarray:
    """Noise implied by a clean-image target; zero at the clean endpoint
    where the decomposition is degenerate."""
    a = sched.alphas[t]
    if 1.0 - a <= 0.0:
        return np.zeros_like(np.asarray(x_t, dtype=np.float64))
    return (np.asarray(x_t, dtype=np.float64) - np.sqrt(a) * np.asarray(x0, dtype=np.float64)) / np.sqrt(1.0 - a)


def ddim_step(x_t: np.ndarray, eps: np.ndarray, t: int, t_to: int,
              sched: NoiseSchedule) -> np.ndarray:
    """Deterministic update (eta = 0) from step t to the adjacent step
    ``t_to``, using the prediction at t: t_to = t - 1 denoises, t_to =
    t + 1 is the first-order inverted update."""
    if abs(t - t_to) != 1 or not (0 <= t <= sched.steps and 0 <= t_to <= sched.steps):
        raise ValueError(f"no DDIM step from t={t} to t={t_to} in a {sched.steps}-step schedule")
    a_to = sched.alphas[t_to]
    x0_hat = x0_from_eps(x_t, eps, t, sched)
    return np.sqrt(a_to) * x0_hat + np.sqrt(1.0 - a_to) * np.asarray(eps, dtype=np.float64)


def _ddim_walk(x: LatentImage, timesteps: range, denoiser: Denoiser, cond: Condition,
               sched: NoiseSchedule, stage_cb) -> LatentImage:
    """A prediction at each timestep of ``timesteps`` and a step to the
    next; ``stage_cb(i, stage)`` sees step i counted from the first."""
    data = x.data.astype(np.float64)
    for i, (t, t_to) in enumerate(zip(timesteps, timesteps[1:])):
        cb = None
        if stage_cb is not None:
            def cb(stage, _i=i):
                return stage_cb(_i, stage)
        eps = denoiser.predict(data, t, cond, sched, stage_cb=cb)
        data = ddim_step(data, eps, t, t_to, sched)
    return LatentImage(data=data, t=timesteps[-1])


def ddim_sample(x_start: LatentImage, denoiser: Denoiser, cond: Condition,
                sched: NoiseSchedule, stage_cb=None) -> LatentImage:
    """Run the full deterministic denoising loop from t = T to 0.

    ``stage_cb(step_index, stage)`` is forwarded to the denoiser with the
    iteration index counted from the noise end (0 = first denoising step).
    """
    return _ddim_walk(x_start, range(sched.steps, -1, -1), denoiser, cond, sched, stage_cb)


def ddim_invert(x0: LatentImage, denoiser: Denoiser, cond: Condition,
                sched: NoiseSchedule) -> LatentImage:
    """Map a clean image to the initial noise that regenerates it: the
    sampling walk run from t = 0 up to T."""
    return _ddim_walk(x0, range(sched.steps + 1), denoiser, cond, sched, None)


class OracleDenoiser(Denoiser):
    """Closed-form predictions toward a known target image per condition.

    The implied clean-image estimate equals the target at every step,
    which makes DDIM round trips exact; used to test the diffusion math
    in isolation. Exposes no attention stages.
    """

    def __init__(self, targets: dict):
        # targets are held at float32 precision so the feature-map view of
        # the estimate is lossless
        self._targets = {k: np.asarray(v, dtype=np.float32).astype(np.float64)
                         for k, v in targets.items()}

    def target_for(self, cond: Condition) -> np.ndarray:
        key = cond.view_key
        if key not in self._targets:
            raise KeyError(f"no target image for view key {key!r}")
        return self._targets[key]

    def predict(self, x_t, t, cond, sched, stage_cb=None):
        return eps_from_x0(x_t, self.target_for(cond), t, sched)


class AnalyticAttentionDenoiser(OracleDenoiser):
    """Oracle-style backend with per-view perturbed targets and a single
    pass-through attention stage.

    Each view's target is the ground-truth image plus seeded Gaussian
    noise of scale ``sigma``; the reference branch (view key None) stays
    clean. The exposed stage's feature map is the current clean-image
    estimate with identity projections, so injecting retrieved features
    directly mixes corresponding pixel estimates across views and the
    consistency effect becomes measurable. Targets are RGB, so one 3-channel
    identity block serves every view; it computes in float32, the precision
    of its features.
    """

    def __init__(self, targets: dict, sigma: float = 0.0, seed: int = 0):
        super().__init__(targets)
        self.sigma = float(sigma)
        self.seed = int(seed)
        self._perturbed: dict = {}
        self._block = replace(AttentionParams.identity(3), dtype=np.float32)

    def target_for(self, cond: Condition) -> np.ndarray:
        clean = super().target_for(cond)
        key = cond.view_key
        if self.sigma == 0.0 or key is None:
            return clean
        if key not in self._perturbed:
            # noise keyed by (seed, view) so permuting future views cannot
            # change earlier ones
            rng = np.random.default_rng([self.seed, 7001 + int(key)])
            y = clean + self.sigma * rng.standard_normal(clean.shape)
            self._perturbed[key] = y.astype(np.float32).astype(np.float64)
        return self._perturbed[key]

    def predict(self, x_t, t, cond, sched, stage_cb=None):
        y = self.target_for(cond)
        eps = eps_from_x0(x_t, y, t, sched)
        if stage_cb is not None:
            fm = FeatureMap(y)
            replacement = stage_cb(AttentionStage(layer="stage0", feature=fm,
                                                  params=self._block, baseline=fm))
            if replacement is not None:
                eps = eps_from_x0(x_t, replacement.data.astype(np.float64), t, sched)
        return eps
