"""Diffusion core: schedules, DDIM stepping and inversion,
attention-stage callbacks, and the analytic backends."""

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
from epiview.numerics import apply_linear
from epiview.scenegen import make_scene, make_trajectory, render
from epiview.toyunet import C2, ToyUNet


@pytest.fixture(scope="module")
def oracle_setup(intrinsics32):
    scene = make_scene(0, "distinctive")
    cams = make_trajectory("free16", 100)
    input_image = render(scene, cams[0], intrinsics32).rgb.data
    targets = {None: input_image,
               0: render(scene, cams[1], intrinsics32).rgb.data}
    return input_image, targets


class TestNoiseSchedule:
    def test_linear_beta_shape(self):
        s = NoiseSchedule.linear_beta(50)
        assert s.steps == 50
        assert s.alphas[0] == 1.0
        assert np.all(np.diff(s.alphas) < 0)
        assert s.alphas[-1] < 0.1

    def test_zero_steps(self):
        s = NoiseSchedule.linear_beta(0)
        assert s.steps == 0 and s.alphas[0] == 1.0

    def test_max_steps_is_the_longest_linear_beta_schedule(self):
        assert NoiseSchedule.linear_beta(NoiseSchedule.MAX_STEPS).steps == NoiseSchedule.MAX_STEPS
        with pytest.raises(ValueError, match="strictly decreasing"):
            NoiseSchedule.linear_beta(NoiseSchedule.MAX_STEPS + 1)

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            NoiseSchedule(alphas=np.array([1.0, 0.5, 0.6]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseSchedule(alphas=np.array([1.0, 0.0]))


class TestDdimStep:
    def test_near_noop_with_equal_alphas(self):
        # adjacent alphas separated only by float epsilon: the update is
        # the identity up to that epsilon
        sched = NoiseSchedule(alphas=np.array([1.0, 0.5, 0.5 * (1 - 1e-14)]))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 3, 3))
        out = ddim_step(x, np.zeros_like(x), 2, 1, sched)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_oracle_estimate_is_target(self, oracle_setup):
        input_image, targets = oracle_setup
        sched = NoiseSchedule.linear_beta(10)
        den = OracleDenoiser(targets)
        rng = np.random.default_rng(5)
        x_t = rng.standard_normal(input_image.shape)
        for t in (1, 5, 10):
            eps = den.predict(x_t, t, Condition.reference(), sched)
            x0_hat = x0_from_eps(x_t, eps, t, sched)
            np.testing.assert_allclose(
                x0_hat, input_image.astype(np.float32).astype(np.float64), atol=1e-9)

    def test_single_step_roundtrip(self, oracle_setup):
        input_image, targets = oracle_setup
        sched = NoiseSchedule.linear_beta(1)
        den = OracleDenoiser(targets)
        rng = np.random.default_rng(6)
        z = rng.standard_normal(input_image.shape)
        a = sched.alphas[1]   # the forward process: sqrt(a) x0 + sqrt(1 - a) z, at float32
        x1 = np.float32(np.sqrt(a) * input_image.astype(np.float64) + np.sqrt(1 - a) * z)
        eps = den.predict(x1.astype(np.float64), 1, Condition.reference(), sched)
        x0 = ddim_step(x1.astype(np.float64), eps, 1, 0, sched)
        np.testing.assert_allclose(x0, input_image.astype(np.float64), atol=1e-6)

    def test_deterministic(self):
        sched = NoiseSchedule.linear_beta(10)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 4, 3))
        e = rng.standard_normal((4, 4, 3))
        a = ddim_step(x, e, 5, 4, sched)
        b = ddim_step(x, e, 5, 4, sched)
        assert np.array_equal(a, b)

    def test_invalid_timestep(self):
        with pytest.raises(ValueError):
            ddim_step(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), 0, -1,
                      NoiseSchedule.linear_beta(5))


class TestDdimInversion:
    @pytest.mark.parametrize("steps", [1, 10, 50])
    def test_oracle_roundtrip_exact(self, oracle_setup, steps):
        input_image, targets = oracle_setup
        sched = NoiseSchedule.linear_beta(steps)
        den = OracleDenoiser(targets)
        x_r = ddim_invert(LatentImage(input_image), den, Condition.reference(), sched)
        out = ddim_sample(x_r, den, Condition.reference(), sched)
        assert np.abs(out.data - input_image.astype(np.float64)).max() < 1e-6

    def test_zero_step_schedule_is_identity(self, oracle_setup):
        input_image, targets = oracle_setup
        sched = NoiseSchedule.linear_beta(0)
        den = OracleDenoiser(targets)
        x_r = ddim_invert(LatentImage(input_image), den, Condition.reference(), sched)
        np.testing.assert_allclose(x_r.data, input_image, atol=1e-7)

    def test_deterministic(self, oracle_setup):
        input_image, targets = oracle_setup
        sched = NoiseSchedule.linear_beta(10)
        den = OracleDenoiser(targets)
        a = ddim_invert(LatentImage(input_image), den, Condition.reference(), sched)
        b = ddim_invert(LatentImage(input_image), den, Condition.reference(), sched)
        assert np.array_equal(a.data, b.data)

    def test_toyunet_roundtrip_psnr(self, oracle_setup, frozen):
        from epiview.metrics import psnr
        input_image, _ = oracle_setup
        sched = NoiseSchedule.linear_beta(20)
        net = ToyUNet(seed=3)
        x_r = ddim_invert(LatentImage(input_image), net, Condition.reference(), sched)
        out = ddim_sample(x_r, net, Condition.reference(), sched)
        got = psnr(np.clip(out.data, 0, 1), input_image.astype(np.float64))
        assert got >= frozen["toyunet_roundtrip_psnr_db"] - 0.5

    def test_invert_step_inverts_sample_step(self):
        # with a frozen noise prediction the two updates are exact inverses
        sched = NoiseSchedule.linear_beta(10)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 3, 3))
        eps = rng.standard_normal((3, 3, 3))
        up = ddim_step(x, eps, 4, 5, sched)
        back = ddim_step(up, eps, 5, 4, sched)
        np.testing.assert_allclose(back, x, atol=1e-10)


def recorder(layers=None):
    """A stage callback that records each stage it sees (of ``layers``,
    or all) by layer name and leaves the prediction alone."""
    seen = {}

    def cb(stage):
        if layers is None or stage.layer in layers:
            seen[stage.layer] = stage
        return None
    return seen, cb


class TestDenoiseAndHooks:
    def test_oracle_closed_form(self, oracle_setup):
        input_image, targets = oracle_setup
        sched = NoiseSchedule.linear_beta(10)
        den = OracleDenoiser(targets)
        rng = np.random.default_rng(9)
        x_t = LatentImage(rng.standard_normal(input_image.shape), t=4)
        captures, cb = recorder()
        eps = den.predict(x_t.data.astype(np.float64), x_t.t, Condition.reference(), sched,
                          stage_cb=cb)
        a = sched.alphas[4]
        want = (x_t.data.astype(np.float64)
                - np.sqrt(a) * input_image.astype(np.float32).astype(np.float64)) / np.sqrt(1 - a)
        np.testing.assert_allclose(eps, want, atol=1e-9)
        assert captures == {}

    def test_analytic_zero_sigma_equals_oracle(self, oracle_setup):
        input_image, targets = oracle_setup
        sched = NoiseSchedule.linear_beta(10)
        rng = np.random.default_rng(10)
        x_t = rng.standard_normal(input_image.shape)
        cond = Condition.reference()
        a = OracleDenoiser(targets).predict(x_t, 3, cond, sched)
        b = AnalyticAttentionDenoiser(targets, sigma=0.0).predict(x_t, 3, cond, sched)
        np.testing.assert_allclose(a, b, atol=0)

    def test_hooks_capture_requested_layers_and_are_side_effect_free(self, oracle_setup):
        input_image, targets = oracle_setup
        sched = NoiseSchedule.linear_beta(10)
        den = AnalyticAttentionDenoiser(targets, sigma=0.05, seed=1)
        rng = np.random.default_rng(11)
        x_t = LatentImage(rng.standard_normal(input_image.shape), t=6)
        cond = Condition(view_key=0)
        captures, cb = recorder({"stage0"})
        x = x_t.data.astype(np.float64)
        eps_hooked = den.predict(x, x_t.t, cond, sched, stage_cb=cb)
        eps_plain = den.predict(x, x_t.t, cond, sched)
        assert set(captures) == {"stage0"}
        assert np.array_equal(eps_hooked, eps_plain)
        cap = captures["stage0"]
        q = apply_linear(cap.params.q_proj, cap.feature)
        np.testing.assert_array_equal(q.data, cap.feature.data)  # identity projections

    def test_toyunet_hooks_and_determinism(self, oracle_setup):
        input_image, _ = oracle_setup
        sched = NoiseSchedule.linear_beta(10)
        net = ToyUNet(seed=5)
        x_t = LatentImage(np.random.default_rng(12).standard_normal(input_image.shape), t=3)
        caps, cb = recorder({"bottleneck"})
        x = x_t.data.astype(np.float64)
        e1 = net.predict(x, x_t.t, Condition.reference(), sched, stage_cb=cb)
        e2 = net.predict(x, x_t.t, Condition.reference(), sched)
        assert set(caps) == {"bottleneck"}
        assert np.array_equal(e1, e2)
        assert caps["bottleneck"].feature.channels == C2

    def test_per_view_perturbations_are_stable_and_distinct(self, oracle_setup):
        _, targets = oracle_setup
        targets = dict(targets)
        targets[1] = targets[0]
        den = AnalyticAttentionDenoiser(targets, sigma=0.1, seed=4)
        y0a = den.target_for(Condition(view_key=0))
        y0b = den.target_for(Condition(view_key=0))
        y1 = den.target_for(Condition(view_key=1))
        assert np.array_equal(y0a, y0b)
        assert not np.array_equal(y0a, y1)

    def test_stage_feature_made_once_per_view(self, oracle_setup):
        """A view's target is fixed, so every step of its walk, the
        reference's (key None) included, sees one immutable feature map;
        each other view, even one with the same target, gets its own."""
        input_image, targets = oracle_setup
        targets = {**targets, 1: targets[0]}
        sched = NoiseSchedule.linear_beta(6)
        den = AnalyticAttentionDenoiser(targets, sigma=0.1, seed=4)
        x_T = LatentImage(np.random.default_rng(13).standard_normal(input_image.shape), t=6)
        seen = {}
        for key in (None, 0, 1, 0):
            maps = []
            ddim_sample(x_T, den, Condition(view_key=key), sched,
                        stage_cb=lambda i, stage: maps.extend([stage.feature, stage.baseline]))
            assert len(maps) == 2 * sched.steps
            assert all(fm is maps[0] for fm in maps)
            assert not maps[0].data.flags.writeable
            assert seen.setdefault(key, maps[0]) is maps[0]
            np.testing.assert_array_equal(maps[0].data,
                                          den.target_for(Condition(view_key=key)))
        assert len({id(fm) for fm in seen.values()}) == 3

    def test_eps_guard_at_clean_endpoint(self):
        sched = NoiseSchedule.linear_beta(5)
        x = np.ones((2, 2, 3))
        assert np.all(eps_from_x0(x, x * 2, 0, sched) == 0)
