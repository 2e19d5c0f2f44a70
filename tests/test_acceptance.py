"""Acceptance criteria.

One test per criterion, each asserting its stated tolerance and runtime
budget and printing a PASS line (run with ``pytest tests/test_acceptance.py -s``
to see them).
"""

import time

import numpy as np
import pytest

from epiview.attention import (
    AttentionParams,
    duplicate_params,
    epipolar_attention,
    full_cross_attention,
    project_context,
    self_attention,
)
from epiview.bench import fit_loglog_slope, run_scaling_bench
from epiview.cli import main as cli_main
from epiview.diffusion import (
    AnalyticAttentionDenoiser,
    Condition,
    LatentImage,
    NoiseSchedule,
    OracleDenoiser,
    ddim_invert,
    ddim_sample,
)
from epiview.fileio import to_u8
from epiview.geometry import (
    CameraIntrinsics,
    EpipolarSampleSet,
    SphericalCamera,
    camera_on_sphere,
    epipolar_line,
    relative_pose,
)
from epiview.metrics import localization_study, reprojection_consistency
from epiview.numerics import FeatureMap
from epiview.pipeline import GenerationConfig, TrajectorySynthesizer
from epiview.scenegen import correspondence_grid, make_scene, make_trajectory, render

from test_attention import naive_self_attention


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} ({name}): PASS — {detail}")


def _random_pose_pair(rng, min_baseline=0.2):
    while True:
        a = SphericalCamera(float(rng.uniform(-60, 60)), float(rng.uniform(0, 360)),
                            float(rng.uniform(1.6, 2.6)))
        b = SphericalCamera(float(rng.uniform(-60, 60)), float(rng.uniform(0, 360)),
                            float(rng.uniform(1.6, 2.6)))
        pose = relative_pose(camera_on_sphere(a), camera_on_sphere(b))
        if pose.baseline() > min_baseline:
            return a, b, pose


class TestCriterion1EpipolarCorrectness:
    def test_visible_correspondences_on_line(self, intrinsics32):
        t0 = time.perf_counter()
        K = intrinsics32
        scene = make_scene(0, "distinctive")
        rng = np.random.default_rng(11)
        checked = 0
        worst = 0.0
        while checked < 1000:
            cam_ref, cam_tgt, pose = _random_pose_pair(rng)
            view_ref = render(scene, cam_ref, K)
            view_tgt = render(scene, cam_tgt, K)
            ys, xs = np.nonzero(view_tgt.prim_id >= 0)
            if xs.size == 0:
                continue
            pick = rng.choice(xs.size, size=min(40, xs.size), replace=False)
            uv_t = np.stack([xs[pick], ys[pick]], axis=-1).astype(float)
            uv_r, vis, _, _ = correspondence_grid(scene, view_tgt, view_ref, uv_t)
            for p_t, p_r, ok in zip(uv_t, uv_r, vis):
                if not ok:
                    continue
                d = epipolar_line(p_t, pose, K).distance(K.normalize(p_r))
                worst = max(worst, float(d))
                assert d < 1e-6
                checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        _report(1, "epipolar correctness",
                f"{checked} correspondences, worst distance {worst:.2e}, {elapsed:.2f}s")


class TestCriterion2FocalIndependence:
    def test_line_point_sets_invariant_to_focal_scaling(self, intrinsics32):
        K = intrinsics32
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(200):
            _, _, pose = _random_pose_pair(rng)
            p = rng.uniform(2, 29, 2)
            base = epipolar_line(p, pose, K).normalized()
            for k in (0.5, 2.0, 10.0):
                Kk = K.scaled(k)
                pk = (p + 0.5) * k - 0.5
                scaled = epipolar_line(pk, pose, Kk).normalized()
                diff = float(np.abs(scaled - base).max())
                worst = max(worst, diff)
                assert diff < 1e-9
        _report(2, "focal-length independence",
                f"600 scaled evaluations, worst line difference {worst:.2e}")


class TestCriterion3AttentionEquivalence:
    def test_epipolar_full_sampling_and_naive_oracle_agree(self):
        worst_pair = worst_oracle = 0.0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            h = int(rng.integers(4, 17))
            w = int(rng.integers(4, 17))
            f_tgt = FeatureMap(rng.standard_normal((h, w, 8)))
            f_ref = FeatureMap(rng.standard_normal((h, w, 8)))
            params = AttentionParams.seeded(8, 2, rng)
            ctx = project_context(f_ref, params)
            samples = EpipolarSampleSet.full_grid(w, h, h * w)
            out_e, _ = epipolar_attention(f_tgt, ctx, samples, duplicate_params(params))
            out_f, _ = full_cross_attention(f_tgt, [ctx], params)[0]
            worst_pair = max(worst_pair, float(np.abs(out_e.data - out_f.data).max()))
            assert worst_pair < 1e-6
            if h <= 6 and w <= 6:
                self_out = self_attention(f_tgt, params)
                oracle = naive_self_attention(f_tgt, params)
                worst_oracle = max(worst_oracle,
                                   float(np.abs(self_out.data - oracle).max()))
                assert worst_oracle < 1e-6
        _report(3, "attention equivalence",
                f"20 seeds, epi-vs-full {worst_pair:.2e}, naive oracle {worst_oracle:.2e}")


class TestCriterion4DuplicationAndDisabling:
    def test_cli_alpha_zero_byte_identical_to_off(self, tmp_path):
        fix = tmp_path / "fix"
        traj = tmp_path / "traj.json"
        assert cli_main(["scene", "gen", "--seed", "0", "--out", str(fix),
                         "--traj", "free16"]) == 0
        assert cli_main(["traj", "make", "--mode", "free16", "--seed", "100",
                         "--out", str(traj)]) == 0

        def run(out, *extra):
            return cli_main(["synth", "--input", str(fix / "views" / "000.ppm"),
                             "--traj", str(traj), "--backend", "analytic",
                             "--scene", str(fix), "--input-view", "0",
                             "--steps", "8", "--sigma", "0.05",
                             "--out", str(out)] + list(extra))

        assert run(tmp_path / "a0", "--mode", "epipolar", "--alpha", "0") == 0
        assert run(tmp_path / "off", "--mode", "off") == 0
        for i in range(16):
            a = (tmp_path / "a0" / f"{i:03d}.ppm").read_bytes()
            b = (tmp_path / "off" / f"{i:03d}.ppm").read_bytes()
            assert a == b

        src = AttentionParams.seeded(8, 2, np.random.default_rng(0))
        dup = duplicate_params(src)
        for name in ("q_proj", "k_proj", "v_proj", "out_proj"):
            assert np.array_equal(getattr(dup, name).weight, getattr(src, name).weight)
        before = src.k_proj.weight.copy()
        dup.k_proj.weight[0, 0] += 5
        assert np.array_equal(src.k_proj.weight, before)
        _report(4, "duplication & disabling",
                "16 views byte-identical; duplicated params value-identical and isolated")


class TestCriterion5OracleRoundTrip:
    @pytest.mark.parametrize("steps", [1, 10, 50])
    def test_invert_then_sample_reconstructs(self, intrinsics32, steps):
        scene = make_scene(0, "distinctive")
        cams = make_trajectory("free16", 100)
        image = render(scene, cams[0], intrinsics32).rgb.data
        sched = NoiseSchedule.linear_beta(steps)
        den = OracleDenoiser({None: image})
        x_r = ddim_invert(LatentImage(image), den, Condition.reference(), sched)
        out = ddim_sample(x_r, den, Condition.reference(), sched)
        err = float(np.abs(out.data - image.astype(np.float64)).max())
        assert err < 1e-6
        _report(5, f"DDIM oracle round-trip T={steps}", f"max abs error {err:.2e}")


class TestCriterion6Localization:
    def test_epipolar_argmax_hits_gt(self, distinctive_fixture, frozen):
        t0 = time.perf_counter()
        scene, _, views = distinctive_fixture
        cfg = frozen["localization"]
        tot_e = tot_u = tot_f = tot_q = 0
        for i in range(16):
            r = localization_study(scene, views[i], views[(i + 1) % 16],
                                   feature_size=cfg["feature_size"], k=1.0)
            tot_e += r["epipolar"] * r["epipolar_usable"]
            tot_u += r["epipolar_usable"]
            tot_f += r["full"] * r["queries"]
            tot_q += r["queries"]
        epi = tot_e / tot_u
        full = tot_f / tot_q
        elapsed = time.perf_counter() - t0
        assert epi >= 0.90
        assert epi >= full
        assert abs(epi - cfg["epipolar"]) <= cfg["drift_tolerance"]
        assert abs(full - cfg["full"]) <= cfg["drift_tolerance"]
        assert elapsed < 30.0
        _report(6, "localization",
                f"epipolar {epi:.3f} >= 0.90 and >= full {full:.3f}; "
                f"{tot_q} queries, {elapsed:.1f}s")


class TestCriterion7ConsistencyImprovement:
    def test_injection_improves_consistency_across_seeds(self, intrinsics32, frozen):
        t0 = time.perf_counter()
        cfg = frozen["consistency"]
        scene = make_scene(0, "distinctive")
        all_cams = make_trajectory("free16", 100)
        input_cam = all_cams[0]
        traj = [all_cams[i] for i in (1, 2, 3, 14, 15)]
        input_image = render(scene, input_cam, intrinsics32).rgb.data
        targets = {None: input_image}
        for i, c in enumerate(traj):
            targets[i] = render(scene, c, intrinsics32).rgb.data
        gt_views = [render(scene, c, intrinsics32) for c in [input_cam] + traj]
        sched = NoiseSchedule.linear_beta(cfg["steps"])

        def error_of(alpha, m, seed):
            den = AnalyticAttentionDenoiser(targets, sigma=cfg["sigma"], seed=seed)
            gen = GenerationConfig(alpha=alpha, context_views=m,
                                   inject_after_step=4, mode="epipolar", seed=seed)
            synth = TrajectorySynthesizer(input_image, input_cam, intrinsics32,
                                          den, sched, gen)
            images, _ = synth.synthesize_trajectory(traj)
            ref, _ = synth.reference_branch()
            err, _ = reprojection_consistency(
                [ref] + [np.clip(im, 0, 1) for im in images], gt_views, scene)
            return err

        alpha_wins = multi_wins = 0
        n = cfg["seeds"]
        for seed in range(n):
            e_off = error_of(0.0, 2, seed)
            e_multi = error_of(0.5, 2, seed)
            e_single = error_of(0.5, 0, seed)
            alpha_wins += e_multi < e_off
            multi_wins += e_multi <= e_single
        elapsed = time.perf_counter() - t0
        assert alpha_wins / n >= 0.70
        assert multi_wins / n >= 0.60
        assert alpha_wins / n >= cfg["alpha_win_fraction"] - 0.1
        assert multi_wins / n >= cfg["multi_vs_single_win_fraction"] - 0.1
        assert elapsed < 120.0
        _report(7, "consistency improvement",
                f"alpha=0.5 beat alpha=0 on {alpha_wins}/{n} seeds, "
                f"multi <= single on {multi_wins}/{n}; {elapsed:.0f}s")


class TestCriterion8Complexity:
    def test_buffer_slopes(self):
        t0 = time.perf_counter()
        rows = run_scaling_bench(sizes=(8, 16, 32, 64), reps=3, seed=0)
        full = [(r.size, r.buffer_elems) for r in rows if r.mode == "full"]
        epi = [(r.size, r.buffer_elems) for r in rows if r.mode == "epipolar"]
        slope_full = fit_loglog_slope(*zip(*full))
        slope_epi = fit_loglog_slope(*zip(*epi))
        elapsed = time.perf_counter() - t0
        assert abs(slope_full - 4.0) <= 0.05
        assert slope_epi <= 3.05
        times = {m: [r.wall_ns_median for r in rows if r.mode == m]
                 for m in ("full", "epipolar")}
        slope_t_full = fit_loglog_slope([8, 16, 32, 64], times["full"])
        slope_t_epi = fit_loglog_slope([8, 16, 32, 64], times["epipolar"])
        assert slope_t_epi < slope_t_full  # weak assertion, constants dominate
        assert elapsed < 60.0
        _report(8, "complexity",
                f"buffer slopes full {slope_full:.3f}, epipolar {slope_epi:.3f}; "
                f"time slopes {slope_t_full:.2f} vs {slope_t_epi:.2f}; {elapsed:.1f}s")


class TestCriterion9CausalityReproducibility:
    def test_future_pose_permutation_and_manifest_rerun(self, intrinsics32):
        scene = make_scene(0, "distinctive")
        all_cams = make_trajectory("free16", 100)
        input_cam = all_cams[0]
        traj = [all_cams[1], all_cams[2], all_cams[15]]
        input_image = render(scene, input_cam, intrinsics32).rgb.data
        targets = {None: input_image}
        for i, c in enumerate(traj):
            targets[i] = render(scene, c, intrinsics32).rgb.data
        sched = NoiseSchedule.linear_beta(8)

        def run(order, seed=0):
            den = AnalyticAttentionDenoiser(targets, sigma=0.05, seed=seed)
            gen = GenerationConfig(alpha=0.5, context_views=2, mode="epipolar",
                                   seed=seed)
            synth = TrajectorySynthesizer(input_image, input_cam, intrinsics32,
                                          den, sched, gen)
            imgs = [synth.synthesize_view(c, i)[0] for i, c in enumerate(order)]
            man = synth.manifest(order)
            return [to_u8(im).tobytes() for im in imgs], man

        base, man1 = run(traj)
        permuted, _ = run([traj[0], traj[2], traj[1]])
        assert base[0] == permuted[0]

        rerun_cfg = GenerationConfig.from_json(man1["config"])
        den = AnalyticAttentionDenoiser(targets, sigma=0.05, seed=rerun_cfg.seed)
        synth = TrajectorySynthesizer(input_image, input_cam, intrinsics32, den,
                                      NoiseSchedule(alphas=np.array(man1["schedule"]["alphas"])),
                                      rerun_cfg)
        rerun = [to_u8(synth.synthesize_view(c, i)[0]).tobytes()
                 for i, c in enumerate(traj)]
        assert rerun == base
        _report(9, "causality & reproducibility",
                "earlier views byte-identical under future-pose permutation; "
                "manifest rerun byte-identical")
