"""Pipeline: context selection, injection plumbing, disabling semantics,
causality, caches, and the controlled consistency experiment."""

import weakref

import numpy as np
import pytest

from epiview import pipeline
from epiview.attention import AttentionCounters
from epiview.diffusion import AnalyticAttentionDenoiser, NoiseSchedule, OracleDenoiser
from epiview.errors import CacheMissError, DataError
from epiview.fileio import to_u8
from epiview.geometry import CameraIntrinsics, SphericalCamera
from epiview.metrics import reprojection_consistency
from epiview.numerics import BilinearPlan, masked_softmax
from epiview.pipeline import (
    GenerationConfig,
    TrajectorySynthesizer,
    ViewCache,
    angular_distance,
    select_context_views,
)
from epiview.scenegen import make_scene, make_trajectory, render
from epiview.toyunet import ToyUNet


@pytest.fixture(scope="module")
def setup(intrinsics32):
    scene = make_scene(0, "distinctive")
    cams = make_trajectory("free16", 100)
    input_cam = cams[0]
    traj = [cams[1], cams[2], cams[15]]
    input_image = render(scene, input_cam, intrinsics32).rgb.data
    targets = {None: input_image}
    for i, c in enumerate(traj):
        targets[i] = render(scene, c, intrinsics32).rgb.data
    gt_views = [render(scene, c, intrinsics32) for c in [input_cam] + traj]
    return scene, input_cam, traj, input_image, targets, gt_views


def make_synth(setup, intrinsics32, mode="epipolar", alpha=0.5, m=2, seed=0,
               sigma=0.08, steps=10, counters=None, backend=None):
    scene, input_cam, traj, input_image, targets, _ = setup
    den = backend or AnalyticAttentionDenoiser(targets, sigma=sigma, seed=seed)
    cfg = GenerationConfig(alpha=alpha, context_views=m, inject_after_step=4,
                           mode=mode, seed=seed)
    sched = NoiseSchedule.linear_beta(steps)
    return TrajectorySynthesizer(input_image, input_cam, intrinsics32, den,
                                 sched, cfg, counters)


class TestContextSelection:
    def cam(self, az):
        return SphericalCamera(0.0, az, 2.0)

    def test_no_previous_views(self):
        inp = ViewCache(key="input", camera=self.cam(0))
        ctx = select_context_views(self.cam(50), [], inp, 2)
        assert ctx == [inp]

    def test_nearest_by_angle(self):
        inp = ViewCache(key="input", camera=self.cam(0))
        prev = [ViewCache(key=0, camera=self.cam(170)),   # 40 deg away
                ViewCache(key=1, camera=self.cam(140)),   # 10 deg away
                ViewCache(key=2, camera=self.cam(105))]   # 25 deg away
        ctx = select_context_views(self.cam(130), prev, inp, 2)
        assert [c.key for c in ctx] == ["input", 1, 2]

    def test_tie_broken_by_generation_order(self):
        inp = ViewCache(key="input", camera=self.cam(0))
        prev = [ViewCache(key=0, camera=self.cam(120)),
                ViewCache(key=1, camera=self.cam(80))]   # both 20 deg away
        ctx = select_context_views(self.cam(100), prev, inp, 1)
        assert [c.key for c in ctx] == ["input", 0]

    def test_m_zero_single_view_setting(self):
        inp = ViewCache(key="input", camera=self.cam(0))
        prev = [ViewCache(key=0, camera=self.cam(10))]
        assert select_context_views(self.cam(20), prev, inp, 0) == [inp]

    def test_angular_distance(self):
        assert abs(angular_distance(self.cam(0), self.cam(90)) - np.pi / 2) < 1e-12
        assert angular_distance(self.cam(33), self.cam(33)) < 1e-12


class TestDisablingSemantics:
    def test_mode_off_equals_alpha_zero_bytes(self, setup, intrinsics32):
        _, _, traj, _, _, _ = setup
        imgs_off, _ = make_synth(setup, intrinsics32, mode="off").synthesize_trajectory(traj)
        imgs_a0, _ = make_synth(setup, intrinsics32, alpha=0.0).synthesize_trajectory(traj)
        for a, b in zip(imgs_off, imgs_a0):
            assert to_u8(a).tobytes() == to_u8(b).tobytes()
            assert np.abs(a - b).max() < 1e-6

    def test_alpha_zero_still_runs_injection_machinery(self, setup, intrinsics32):
        counters = AttentionCounters()
        _, _, traj, _, _, _ = setup
        make_synth(setup, intrinsics32, alpha=0.0, counters=counters).synthesize_trajectory(traj)
        assert counters.calls > 0

    def test_mode_off_runs_no_attention(self, setup, intrinsics32):
        counters = AttentionCounters()
        _, _, traj, _, _, _ = setup
        make_synth(setup, intrinsics32, mode="off", counters=counters).synthesize_trajectory(traj)
        assert counters.calls == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(DataError):
            GenerationConfig(alpha=1.5)
        with pytest.raises(DataError):
            GenerationConfig(mode="sideways")
        with pytest.raises(DataError):
            GenerationConfig(context_views=-1)


class TestBlockPrecision:
    """Each backend's block computes in float32: a synth step's every
    softmax, the toy UNet's own self attention and the retrieval alike,
    gets float32 logits."""

    @pytest.mark.parametrize("mode", ["epipolar", "full"])
    @pytest.mark.parametrize("backend", ["analytic", "toyunet"])
    def test_synth_step_softmaxes_float32_logits(self, backend, mode, setup, intrinsics32,
                                                 monkeypatch):
        import epiview.attention as attention
        steps = 6
        den = ToyUNet(seed=0) if backend == "toyunet" else None
        synth = make_synth(setup, intrinsics32, mode=mode, steps=steps, backend=den)
        synth.reference_branch()
        dtypes = []

        def recording(logits, *args, **kwargs):
            dtypes.append(logits.dtype)
            return masked_softmax(logits, *args, **kwargs)

        monkeypatch.setattr(attention, "masked_softmax", recording)
        synth.synthesize_view(setup[2][0], 0)   # one context view: the input
        self_attention = steps if backend == "toyunet" else 0
        retrieval = steps - synth.config.inject_after_step
        assert len(dtypes) == self_attention + retrieval
        assert set(dtypes) == {np.dtype(np.float32)}


class TestCausality:
    def test_permuting_later_poses_keeps_earlier_views(self, setup, intrinsics32):
        _, _, traj, _, _, _ = setup

        def first_two(order):
            synth = make_synth(setup, intrinsics32)
            imgs = [synth.synthesize_view(c, i)[0] for i, c in enumerate(order)]
            return [to_u8(imgs[0]).tobytes(), to_u8(imgs[1]).tobytes()]

        a = first_two([traj[0], traj[1], traj[2]])
        b = first_two([traj[0], traj[1], traj[2]][:2] + [traj[2]])
        c = first_two([traj[0], traj[1]] + [traj[2]])
        assert a == b == c
        d = first_two([traj[0], traj[2], traj[1]])
        assert a[0] == d[0]

    def test_rerun_is_bit_identical(self, setup, intrinsics32):
        _, _, traj, _, _, _ = setup
        i1, m1 = make_synth(setup, intrinsics32).synthesize_trajectory(traj)
        i2, m2 = make_synth(setup, intrinsics32).synthesize_trajectory(traj)
        for a, b in zip(i1, i2):
            assert np.array_equal(a, b)
        assert m1["config"] == m2["config"]

    def test_manifest_reconstructs_config(self, setup, intrinsics32):
        _, _, traj, _, _, _ = setup
        _, man = make_synth(setup, intrinsics32).synthesize_trajectory(traj)
        cfg = GenerationConfig.from_json(man["config"])
        assert cfg == make_synth(setup, intrinsics32).config

    def test_config_of_an_older_manifest_drops_retired_keys(self):
        old = {**GenerationConfig(alpha=0.25).to_json(), "inject_layers": [],
               "sample_axis": "dominant", "value_source": "value_projection"}
        assert GenerationConfig.from_json(old) == GenerationConfig(alpha=0.25)


class TestCaches:
    def test_entries_exist_exactly_for_injected_steps(self, setup, intrinsics32):
        _, _, traj, _, _, _ = setup
        synth = make_synth(setup, intrinsics32, steps=10)
        _, cache = synth.synthesize_view(traj[0], 0)
        steps = sorted({s for (s, _) in cache.entries})
        assert steps == list(range(4, 10))
        assert all(layer == "stage0" for (_, layer) in cache.entries)

    def test_frozen_cache_rejects_updates(self, setup, intrinsics32):
        _, _, traj, _, _, _ = setup
        synth = make_synth(setup, intrinsics32)
        _, cache = synth.synthesize_view(traj[0], 0)
        assert cache.frozen
        with pytest.raises(DataError):
            cache.put(4, "stage0", None)

    def test_cache_miss_names_step_and_layer(self):
        vc = ViewCache(key=3, camera=SphericalCamera(0, 0, 2.0))
        with pytest.raises(CacheMissError) as exc:
            vc.get(7, "stage0")
        assert "step 7" in str(exc.value) and "stage0" in str(exc.value)

    @pytest.mark.parametrize("backend,arrays", [("analytic", 1), ("toyunet", 3)])
    def test_cache_holds_each_distinct_array_once(self, backend, arrays, setup, intrinsics32):
        """The analytic identity block's K and V are its F, and a view's F is
        one map at every step, so the whole cache holds one H*W*C float32
        array; the toyunet's seeded block holds three per entry."""
        _, _, traj, _, _, _ = setup
        den = ToyUNet(seed=0) if backend == "toyunet" else None
        synth = make_synth(setup, intrinsics32, steps=6, backend=den)
        _, cache = synth.synthesize_view(traj[0], 0)
        entries = list(cache.entries.values())
        assert entries
        for e in entries:
            assert (e.k is e.f and e.value is e.f) == (arrays == 1)
            assert len({id(fm.data) for fm in (e.f, e.k, e.value)}) == arrays
        held = {id(fm.data): fm.data.nbytes for e in entries for fm in (e.f, e.k, e.value)}
        f = entries[0].f
        assert all((e.f is f) == (arrays == 1) for e in entries[1:])
        distinct = 1 if arrays == 1 else len(entries) * arrays
        assert sum(held.values()) == distinct * f.height * f.width * f.channels * 4

    def test_cached_entry_recomputable_bit_exactly(self, setup, intrinsics32):
        from epiview.attention import project_context
        _, _, traj, _, _, _ = setup
        synth = make_synth(setup, intrinsics32)
        _, cache = synth.synthesize_view(traj[0], 0)
        entry = cache.entries[(5, "stage0")]
        dup = synth._dup_params["stage0"]
        redo = project_context(entry.f, dup)
        assert np.array_equal(redo.k.data, entry.k.data)
        assert np.array_equal(redo.value.data, entry.value.data)


class TestPairMemoLifetime:
    def test_no_sample_set_or_plan_outlives_its_view(self, monkeypatch):
        # free16 targets 1-8 from input view 0, as in the benchmark, at 16 px
        K = CameraIntrinsics.from_fov(16, 16)
        scene = make_scene(0, "distinctive")
        cams = make_trajectory("free16", 100)
        input_cam, traj = cams[0], cams[1:9]
        targets = {None: render(scene, input_cam, K).rgb.data}
        for i, c in enumerate(traj):
            targets[i] = render(scene, c, K).rgb.data
        synth = TrajectorySynthesizer(
            targets[None], input_cam, K, AnalyticAttentionDenoiser(targets, sigma=0.08),
            NoiseSchedule.linear_beta(6),
            GenerationConfig(context_views=2, inject_after_step=4, mode="epipolar"))

        views = []   # per branch (ddim_sample call): weakrefs to its sample sets and plans
        grids = []   # per branch: epipolar_sample_grid calls

        def next_branch():
            for refs in views:
                assert all(r() is None for r in refs)
            views.append([])
            grids.append(0)

        grid, attend, sample = (pipeline.epipolar_sample_grid, pipeline.epipolar_attention,
                                pipeline.ddim_sample)

        def recording_grid(*args, **kwargs):
            out = grid(*args, **kwargs)
            grids[-1] += 1
            views[-1].append(weakref.ref(out))
            return out

        def recording_attention(*args, **kwargs):
            views[-1].append(weakref.ref(args[2].plan))
            return attend(*args, **kwargs)

        def branch(*args, **kwargs):
            next_branch()
            return sample(*args, **kwargs)

        monkeypatch.setattr(pipeline, "epipolar_sample_grid", recording_grid)
        monkeypatch.setattr(pipeline, "epipolar_attention", recording_attention)
        monkeypatch.setattr(pipeline, "ddim_sample", branch)
        synth.synthesize_trajectory(traj)
        next_branch()
        # reference branch, then per view the input view plus up to 2 earlier ones
        assert grids[:-1] == [0] + [1 + min(i, 2) for i in range(8)]
        assert sum(grids) == 21
        assert all(len(refs) > n for refs, n in zip(views[1:-1], grids[1:]))


@pytest.fixture(scope="module")
def free32_16px():
    """free32 (seed 100) at 16 px: input view 0 and its 31 targets."""
    K = CameraIntrinsics.from_fov(16, 16)
    cams = make_trajectory("free32", 100)
    return K, cams[0], cams[1:], render(make_scene(0, "distinctive"), cams[0], K).rgb.data


def free32_synth(free32_16px, **config):
    K, input_cam, _, image = free32_16px
    return TrajectorySynthesizer(image, input_cam, K, ToyUNet(seed=0), NoiseSchedule.linear_beta(6),
                                 GenerationConfig(inject_after_step=4, **config))


class TestCacheRelease:
    """A whole trajectory frees each generated view's cache after the last
    view that reads it; what it makes is what a loop of synthesize_view,
    which keeps every cache, makes."""

    @pytest.mark.parametrize("config", [
        {}, {"mode": "full"}, {"mode": "off"}, {"context_views": 0}, {"alpha": 0.0}],
        ids=["epipolar", "full", "off", "context-0", "alpha-0"])
    def test_images_equal_a_keep_all_loop(self, config, free32_16px):
        traj = free32_16px[2]
        released, _ = free32_synth(free32_16px, **config).synthesize_trajectory(traj)
        keep_all = free32_synth(free32_16px, **config)
        kept = [keep_all.synthesize_view(cam, i)[0] for i, cam in enumerate(traj)]
        assert [to_u8(a).tobytes() for a in released] == [to_u8(b).tobytes() for b in kept]
        if config.get("mode") != "off":
            assert all(vc.entries for vc in keep_all.generated)

    def test_no_cache_outlives_its_last_reader(self, free32_16px, monkeypatch):
        synth = free32_synth(free32_16px)
        refs = []   # per generated view: weakrefs to its entries' key maps
        live = []   # per target view: generated views whose entries are alive at its start
        branch = TrajectorySynthesizer._branch

        def recording(self, cam, key, cond, context):
            if key != pipeline.INPUT_VIEW:
                live.append([j for j, r in enumerate(refs) if any(w() for w in r)])
                assert live[-1] == [j for j, vc in enumerate(synth.generated) if vc.entries]
            image, cache = branch(self, cam, key, cond, context)
            if key != pipeline.INPUT_VIEW:
                refs.append([weakref.ref(e.k) for e in cache.entries.values()])
            return image, cache

        monkeypatch.setattr(TrajectorySynthesizer, "_branch", recording)
        _, man = synth.synthesize_trajectory(free32_16px[2])
        schedule = man["context_schedule"]
        for i, alive in enumerate(live):
            # still to be read by view i or a later one
            assert alive == sorted({k for keys in schedule[i:] for k in keys[1:] if k < i})
        # with the view being made and the input view, 5 caches at most hold entries
        assert max(len(alive) for alive in live) + 2 == 5
        assert all(w() is None for r in refs for w in r)    # the last view is never read
        assert all(vc.camera == cam for vc, cam in zip(synth.generated, free32_16px[2]))

    def test_get_on_a_released_cache_names_view_step_and_layer(self):
        vc = ViewCache(key=3, camera=SphericalCamera(0, 0, 2.0))
        vc.put(7, "stage0", "features")
        vc.release()
        with pytest.raises(CacheMissError) as exc:
            vc.get(7, "stage0")
        assert (exc.value.view, exc.value.step, exc.value.layer) == (3, 7, "stage0")
        assert "view 3" in str(exc.value) and "step 7" in str(exc.value)
        assert "stage0" in str(exc.value)

    def test_manifest_records_the_contexts_each_view_read(self, free32_16px, monkeypatch):
        synth = free32_synth(free32_16px)
        read = []   # per target view: the keys of the caches it read, in order
        get, branch = ViewCache.get, TrajectorySynthesizer._branch

        def recording_get(self, step, layer):
            if self.key not in read[-1]:
                read[-1].append(self.key)
            return get(self, step, layer)

        def recording_branch(self, cam, key, cond, context):
            if key != pipeline.INPUT_VIEW:
                read.append([])
            return branch(self, cam, key, cond, context)

        monkeypatch.setattr(ViewCache, "get", recording_get)
        monkeypatch.setattr(TrajectorySynthesizer, "_branch", recording_branch)
        _, man = synth.synthesize_trajectory(free32_16px[2])
        assert man["context_schedule"] == read
        assert read[:3] == [["input"], ["input", 0], ["input", 1, 0]]


class TestOneGatherPerRetrieval:
    def test_each_epipolar_retrieval_gathers_once(self, monkeypatch):
        # free16 targets 1-3 from input view 0 at 16 px: every epipolar
        # retrieval samples the context's raw map through its pair's plan
        # once, for its keys and its values alike
        K = CameraIntrinsics.from_fov(16, 16)
        scene = make_scene(0, "distinctive")
        cams = make_trajectory("free16", 100)
        input_cam, traj = cams[0], cams[1:4]
        targets = {None: render(scene, input_cam, K).rgb.data}
        for i, c in enumerate(traj):
            targets[i] = render(scene, c, K).rgb.data
        synth = TrajectorySynthesizer(
            targets[None], input_cam, K, AnalyticAttentionDenoiser(targets, sigma=0.08),
            NoiseSchedule.linear_beta(6),
            GenerationConfig(context_views=2, inject_after_step=3, mode="epipolar"))
        calls = {"gather": 0, "attention": 0}
        gather, attend = BilinearPlan.gather, pipeline.epipolar_attention

        def counting_gather(*args, **kwargs):
            calls["gather"] += 1
            return gather(*args, **kwargs)

        def counting_attention(*args, **kwargs):
            calls["attention"] += 1
            return attend(*args, **kwargs)

        monkeypatch.setattr(BilinearPlan, "gather", counting_gather)
        monkeypatch.setattr(pipeline, "epipolar_attention", counting_attention)
        synth.synthesize_trajectory(traj)
        # the input view plus up to 2 earlier ones: 1, 2 and 3 contexts for
        # the three targets, at each of 3 injected steps
        assert calls["attention"] == (1 + 2 + 3) * 3
        assert calls["gather"] == calls["attention"]


class TestInversion:
    def test_invert_deterministic(self, setup, intrinsics32):
        s1 = make_synth(setup, intrinsics32)
        s2 = make_synth(setup, intrinsics32)
        assert np.array_equal(s1.invert_input().data, s2.invert_input().data)

    def test_invert_sensitive_to_schedule(self, setup, intrinsics32):
        # smoke check only: different schedules give different noise
        s1 = make_synth(setup, intrinsics32, steps=8)
        s2 = make_synth(setup, intrinsics32, steps=10)
        assert not np.array_equal(s1.invert_input().data, s2.invert_input().data)

    def test_oracle_reference_reconstruction(self, setup, intrinsics32):
        scene, input_cam, traj, input_image, targets, _ = setup
        synth = make_synth(setup, intrinsics32,
                           backend=OracleDenoiser(targets), sigma=0.0)
        ref, _ = synth.reference_branch()
        assert np.abs(ref - input_image.astype(np.float64)).max() < 1e-6


class TestBufferFootprint:
    def test_epipolar_peak_below_full(self, setup, intrinsics32):
        _, _, traj, _, _, _ = setup
        ce = AttentionCounters()
        make_synth(setup, intrinsics32, mode="epipolar", counters=ce).synthesize_trajectory(traj)
        cf = AttentionCounters()
        make_synth(setup, intrinsics32, mode="full", counters=cf).synthesize_trajectory(traj)
        assert ce.peak_elems < cf.peak_elems
        n = 32 * 32
        assert cf.peak_elems == n * n
        assert ce.peak_elems <= n * 32

    @pytest.mark.parametrize("mode", ["epipolar", "full"])
    @pytest.mark.parametrize("backend,heads,side", [("analytic", 1, 32), ("toyunet", 2, 16)])
    def test_counts_are_the_sum_over_the_schedule(self, setup, intrinsics32, backend, heads,
                                                  side, mode):
        """One record per (view, injected step, context view) of heads x N x
        keys, keys = N in full mode and a sample set's max(w, h) slots in
        epipolar mode: the analytic backend's one head on the 32 px image,
        ToyUNet's two on its 16 px bottleneck."""
        _, _, traj, _, _, _ = setup
        counters = AttentionCounters()
        synth = make_synth(setup, intrinsics32, mode=mode, counters=counters,
                           backend=ToyUNet(seed=0) if backend == "toyunet" else None)
        _, man = synth.synthesize_trajectory(traj)
        injected = man["schedule"]["steps"] - man["config"]["inject_after_step"]
        contexts = [len(keys) for keys in man["context_schedule"]]
        assert injected > 0 and max(contexts) > 1
        n = side * side
        buffer = heads * n * (n if mode == "full" else side)
        calls = sum(contexts) * injected
        assert vars(counters) == {"peak_elems": buffer, "total_elems": calls * buffer,
                                  "calls": calls}
        assert man["buffer_counters"] == vars(counters)


class TestConsistencyEffect:
    def test_injection_reduces_reprojection_error(self, setup, intrinsics32):
        scene, input_cam, traj, input_image, targets, gt_views = setup

        def error_of(alpha, m, seed):
            synth = make_synth(setup, intrinsics32, alpha=alpha, m=m, seed=seed)
            images, _ = synth.synthesize_trajectory(traj)
            ref, _ = synth.reference_branch()
            all_imgs = [ref] + [np.clip(i, 0, 1) for i in images]
            err, _ = reprojection_consistency(all_imgs, gt_views, scene)
            return err

        wins = 0
        for seed in range(5):
            if error_of(0.5, 2, seed) < error_of(0.0, 2, seed):
                wins += 1
        assert wins >= 4
