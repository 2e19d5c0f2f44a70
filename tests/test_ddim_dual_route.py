"""The one DDIM update and walk against frozen copies of the routes they
replaced: the old ``ddim_step`` (t -> t-1 only), its hand-copied inverted
twin (t -> t+1 only), and the two hand-written loops of ``ddim_sample``
and ``ddim_invert``. Every update and every walk is byte-equal, and a
recording stage callback sees the same step indices on both routes.

``x0_from_eps``, ``eps_from_x0`` and ``ddim_step``, which compute in one
float64 buffer with their square roots taken once as Python floats, are
held byte for byte to frozen copies of their array-expression forms."""

import numpy as np
import pytest

from epiview.diffusion import (
    AnalyticAttentionDenoiser,
    Condition,
    LatentImage,
    NoiseSchedule,
    OracleDenoiser,
    ddim_invert,
    ddim_sample,
    ddim_step,
    eps_from_x0,
    x0_from_eps,
)
from epiview.geometry import CameraIntrinsics
from epiview.numerics import FeatureMap
from epiview.scenegen import make_scene, make_trajectory, render
from epiview.toyunet import ToyUNet


# --- frozen copies of the old routes, kept verbatim as oracles -------------

def oracle_step_down(x_t, eps, t, sched):
    if not 1 <= t <= sched.steps:
        raise ValueError(f"t={t} has no previous step")
    a_prev = sched.alphas[t - 1]
    x0_hat = x0_from_eps(x_t, eps, t, sched)
    return np.sqrt(a_prev) * x0_hat + np.sqrt(1.0 - a_prev) * np.asarray(eps, dtype=np.float64)


def oracle_step_up(x_t, eps, t, sched):
    if not 0 <= t < sched.steps:
        raise ValueError(f"t={t} has no next step")
    a_next = sched.alphas[t + 1]
    x0_hat = x0_from_eps(x_t, eps, t, sched)
    return np.sqrt(a_next) * x0_hat + np.sqrt(1.0 - a_next) * np.asarray(eps, dtype=np.float64)


def oracle_x0_from_eps(x_t, eps, t, sched):
    a = sched.alphas[t]
    return (np.asarray(x_t, dtype=np.float64) - np.sqrt(1.0 - a) * np.asarray(eps, dtype=np.float64)) / np.sqrt(a)


def oracle_eps_from_x0(x_t, x0, t, sched):
    a = sched.alphas[t]
    if 1.0 - a <= 0.0:
        return np.zeros_like(np.asarray(x_t, dtype=np.float64))
    return (np.asarray(x_t, dtype=np.float64) - np.sqrt(a) * np.asarray(x0, dtype=np.float64)) / np.sqrt(1.0 - a)


def oracle_ddim_step(x_t, eps, t, t_to, sched):
    a_to = sched.alphas[t_to]
    x0_hat = oracle_x0_from_eps(x_t, eps, t, sched)
    return np.sqrt(a_to) * x0_hat + np.sqrt(1.0 - a_to) * np.asarray(eps, dtype=np.float64)


def oracle_ddim_sample(x_start, denoiser, cond, sched, stage_cb=None):
    x = x_start.data.astype(np.float64)
    for i, t in enumerate(range(sched.steps, 0, -1)):
        cb = None
        if stage_cb is not None:
            def cb(stage, _i=i):
                return stage_cb(_i, stage)
        eps = denoiser.predict(x, t, cond, sched, stage_cb=cb)
        x = oracle_step_down(x, eps, t, sched)
    return LatentImage(data=x, t=0)


def oracle_ddim_invert(x0, denoiser, cond, sched):
    x = x0.data.astype(np.float64)
    for t in range(0, sched.steps):
        eps = denoiser.predict(x, t, cond, sched)
        x = oracle_step_up(x, eps, t, sched)
    return LatentImage(data=x, t=sched.steps)


# --- the update -------------------------------------------------------------

@pytest.mark.parametrize("steps", [1, 10, 50])
def test_step_matches_both_frozen_updates_at_every_t(steps):
    sched = NoiseSchedule.linear_beta(steps)
    rng = np.random.default_rng(steps)
    for t in range(steps + 1):
        x = rng.standard_normal((5, 4, 3))
        eps = rng.standard_normal((5, 4, 3))
        if t > 0:
            got = ddim_step(x, eps, t, t - 1, sched)
            assert got.dtype == np.float64
            assert got.tobytes() == oracle_step_down(x, eps, t, sched).tobytes()
        if t < steps:
            got = ddim_step(x, eps, t, t + 1, sched)
            assert got.dtype == np.float64
            assert got.tobytes() == oracle_step_up(x, eps, t, sched).tobytes()


@pytest.mark.parametrize("steps", [1, 10, 50])
@pytest.mark.parametrize("dtypes", [(np.float64, np.float64), (np.float64, np.float32),
                                    (np.float32, np.float32)])
def test_one_buffer_arithmetic_matches_the_array_expressions(steps, dtypes):
    """float64 latents with float64 or float32 predictions and targets (the
    backends' mix), and float32 latents, over every step of the schedule."""
    sched = NoiseSchedule.linear_beta(steps)
    rng = np.random.default_rng(100 + steps)
    for t in range(steps + 1):
        x = (rng.standard_normal((6, 5, 3)) * 3.0).astype(dtypes[0])
        y = (rng.standard_normal((6, 5, 3)) * 3.0).astype(dtypes[1])
        for got, want in ((x0_from_eps(x, y, t, sched), oracle_x0_from_eps(x, y, t, sched)),
                          (eps_from_x0(x, y, t, sched), oracle_eps_from_x0(x, y, t, sched))):
            assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for t_to in (t - 1, t + 1):
            if 0 <= t_to <= steps:
                got = ddim_step(x, y, t, t_to, sched)
                assert got.dtype == np.float64
                assert got.tobytes() == oracle_ddim_step(x, y, t, t_to, sched).tobytes()
                assert not np.shares_memory(got, x) and not np.shares_memory(got, y)


@pytest.mark.parametrize("t, t_to", [(5, 3), (3, 5), (5, 5), (10, 0), (0, 10)])
def test_a_non_adjacent_move_is_rejected(t, t_to):
    x = np.zeros((2, 2, 3))
    with pytest.raises(ValueError, match="no DDIM step"):
        ddim_step(x, x, t, t_to, NoiseSchedule.linear_beta(10))


@pytest.mark.parametrize("t, t_to", [(0, -1), (-1, 0), (10, 11), (11, 10)])
def test_a_move_off_the_schedule_is_rejected(t, t_to):
    x = np.zeros((2, 2, 3))
    with pytest.raises(ValueError, match="no DDIM step"):
        ddim_step(x, x, t, t_to, NoiseSchedule.linear_beta(10))


# --- the walk ---------------------------------------------------------------

@pytest.fixture(scope="module")
def views():
    K = CameraIntrinsics.from_fov(16, 16)
    scene = make_scene(0, "distinctive")
    cams = make_trajectory("free16", 100)
    return {None: render(scene, cams[0], K).rgb.data, 0: render(scene, cams[1], K).rgb.data}


def _denoiser(name, views):
    if name == "oracle":
        return OracleDenoiser(views)
    if name == "analytic":
        return AnalyticAttentionDenoiser(views, sigma=0.08, seed=2)
    return ToyUNet(seed=3)


def _recording(seen, replace_from=None):
    """A stage callback that records (step index, layer) and, from step
    ``replace_from`` on, halves the block's output."""
    def cb(i, stage):
        seen.append((i, stage.layer))
        if replace_from is not None and i >= replace_from:
            return FeatureMap(stage.baseline.data * 0.5)
        return None
    return cb


@pytest.mark.parametrize("steps", [0, 1, 10])
@pytest.mark.parametrize("name", ["oracle", "analytic", "toyunet"])
def test_walks_match_the_frozen_loops(views, name, steps):
    sched = NoiseSchedule.linear_beta(steps)
    den = _denoiser(name, views)
    x0 = LatentImage(views[None])
    noise = ddim_invert(x0, den, Condition.reference(), sched)
    want_noise = oracle_ddim_invert(x0, den, Condition.reference(), sched)
    assert noise.t == want_noise.t == steps
    assert noise.data.tobytes() == want_noise.data.tobytes()

    cond = Condition(d_spherical=(5.0, 22.5, 0.0), view_key=0)
    for replace_from in (None, 2):
        seen, want_seen = [], []
        out = ddim_sample(noise, den, cond, sched, stage_cb=_recording(seen, replace_from))
        want = oracle_ddim_sample(noise, den, cond, sched,
                                  stage_cb=_recording(want_seen, replace_from))
        assert out.t == want.t == 0
        assert out.data.tobytes() == want.data.tobytes()
        assert seen == want_seen
        if name != "oracle":   # the oracle exposes no attention stage
            assert [i for i, _ in seen] == list(range(steps))
        else:
            assert seen == []
