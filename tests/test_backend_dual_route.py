"""The oracle-style backends against frozen copies of the stores they
replaced, which held every view three times: a float64 target, a float64
perturbed target and a float32 stage map. Targets and every eps are equal
byte for byte, with and without a stage callback; and a view now costs
one float32 map, shared by its target and its stage feature."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from epiview.attention import AttentionParams
from epiview.diffusion import (
    AnalyticAttentionDenoiser,
    AttentionStage,
    Condition,
    Denoiser,
    NoiseSchedule,
    OracleDenoiser,
    eps_from_x0,
)
from epiview.numerics import FeatureMap


# --- frozen copies of the three-store backends, kept verbatim as oracles ----

class ThreeStoreOracle(Denoiser):
    def __init__(self, targets: dict):
        self._targets = {k: np.asarray(v, dtype=np.float32).astype(np.float64)
                         for k, v in targets.items()}

    def target_for(self, cond):
        key = cond.view_key
        if key not in self._targets:
            raise KeyError(f"no target image for view key {key!r}")
        return self._targets[key]

    def predict(self, x_t, t, cond, sched, stage_cb=None):
        return eps_from_x0(x_t, self.target_for(cond), t, sched)


class ThreeStoreAnalytic(ThreeStoreOracle):
    def __init__(self, targets: dict, sigma: float = 0.0, seed: int = 0):
        super().__init__(targets)
        self.sigma = float(sigma)
        self.seed = int(seed)
        self._perturbed: dict = {}
        self._features: dict = {}
        self._block = replace(AttentionParams.identity(3), dtype=np.float32)

    def target_for(self, cond):
        clean = super().target_for(cond)
        key = cond.view_key
        if self.sigma == 0.0 or key is None:
            return clean
        if key not in self._perturbed:
            rng = np.random.default_rng([self.seed, 7001 + int(key)])
            y = clean + self.sigma * rng.standard_normal(clean.shape)
            self._perturbed[key] = y.astype(np.float32).astype(np.float64)
        return self._perturbed[key]

    def predict(self, x_t, t, cond, sched, stage_cb=None):
        y = self.target_for(cond)
        eps = eps_from_x0(x_t, y, t, sched)
        if stage_cb is not None:
            if cond.view_key not in self._features:
                self._features[cond.view_key] = FeatureMap(y)
            fm = self._features[cond.view_key]
            replacement = stage_cb(AttentionStage(layer="stage0", feature=fm,
                                                  params=self._block, baseline=fm))
            if replacement is not None:
                eps = eps_from_x0(x_t, replacement.data.astype(np.float64), t, sched)
        return eps


# --- helpers ----------------------------------------------------------------

H, W = 12, 10
KEYS = (None, 0, 1)


def make_targets(seed: int) -> dict:
    """Targets for keys None, 0 and 1, with 1 sharing 0's array."""
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(0.0, 1.0, (H, W, 3))
    return {None: rng.uniform(0.0, 1.0, (H, W, 3)), 0: t0, 1: t0}


def backends(targets: dict, sigma: float, seed: int):
    """(new, frozen) pairs: the oracle, then the analytic backend."""
    return [(OracleDenoiser(targets), ThreeStoreOracle(targets)),
            (AnalyticAttentionDenoiser(targets, sigma, seed),
             ThreeStoreAnalytic(targets, sigma, seed))]


def recording(replace_with):
    """A stage callback that records each stage's feature data and returns
    ``replace_with(stage)``."""
    seen = []

    def cb(stage):
        seen.append(stage.feature.data.copy())
        return replace_with(stage)
    return cb, seen


CALLBACKS = {
    "returns-none": lambda stage: None,
    "replaces": lambda stage: FeatureMap(0.5 * stage.feature.data + np.float32(0.25)),
}


# --- dual route ---------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
class TestThreeStoreOracle:
    def test_targets_are_equal(self, sigma, seed):
        targets = make_targets(seed)
        for new, old in backends(targets, sigma, seed):
            for key in (1, 0, None, 1):
                cond = Condition(view_key=key)
                assert np.array_equal(new.target_for(cond), old.target_for(cond))

    @pytest.mark.parametrize("callback", [None, *CALLBACKS])
    def test_eps_is_byte_equal(self, sigma, seed, callback):
        targets = make_targets(seed)
        sched = NoiseSchedule.linear_beta(8)
        rng = np.random.default_rng(seed + 100)
        for new, old in backends(targets, sigma, seed):
            for key in KEYS:
                cond = Condition(view_key=key)
                for t in (8, 3, 0):
                    x = rng.standard_normal((H, W, 3))
                    if callback is None:
                        got = new.predict(x, t, cond, sched)
                        want = old.predict(x, t, cond, sched)
                        seen_new = seen_old = []
                    else:
                        cb_new, seen_new = recording(CALLBACKS[callback])
                        cb_old, seen_old = recording(CALLBACKS[callback])
                        got = new.predict(x, t, cond, sched, stage_cb=cb_new)
                        want = old.predict(x, t, cond, sched, stage_cb=cb_old)
                    assert got.dtype == want.dtype == np.float64
                    assert got.tobytes() == want.tobytes()
                    assert [a.tobytes() for a in seen_new] == [a.tobytes() for a in seen_old]

    def test_missing_key_raises_on_both(self, sigma, seed):
        for new, old in backends(make_targets(seed), sigma, seed):
            for den in (new, old):
                with pytest.raises(KeyError, match="view key 7"):
                    den.target_for(Condition(view_key=7))


@pytest.mark.parametrize("build", [OracleDenoiser, AnalyticAttentionDenoiser])
def test_non_finite_target_is_rejected_when_built(build):
    """The frozen stores took it and failed only once a walk ran."""
    targets = make_targets(3)
    targets[0] = targets[0].copy()
    targets[0][2, 3, 1] = np.nan
    ThreeStoreAnalytic(targets)
    with pytest.raises(ValueError, match="non-finite"):
        build(targets)


# --- one array per view -------------------------------------------------------

def touch(den, key, sched, x):
    """Predict once for ``key`` with a stage callback; the stage's feature
    map, or None for a backend without stages."""
    seen = []
    den.predict(x, 3, Condition(view_key=key), sched,
                stage_cb=lambda stage: seen.append(stage.feature))
    return seen[0] if seen else None


BUILDERS = {
    "oracle": OracleDenoiser,
    "analytic-sigma0": lambda targets: AnalyticAttentionDenoiser(targets, 0.0, 4),
    "analytic-sigma0.1": lambda targets: AnalyticAttentionDenoiser(targets, 0.1, 4),
}


class TestOneArrayPerView:
    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_target_is_the_stage_feature(self, sigma):
        den = AnalyticAttentionDenoiser(make_targets(5), sigma, 4)
        sched = NoiseSchedule.linear_beta(8)
        x = np.zeros((H, W, 3))
        for key in KEYS:
            fm = touch(den, key, sched, x)
            y = den.target_for(Condition(view_key=key))
            assert y.dtype == np.float32 and not y.flags.writeable
            assert np.shares_memory(y, fm.data)
            assert touch(den, key, sched, x) is fm

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_views_grow_memory_by_one_float32_map_each(self, builder):
        """Building the backend over N 32x32 views and touching each grows
        tracemalloc's current bytes by at most N float32 maps plus a fixed
        allowance of 2 KB a view and 16 KB in all (dicts, map objects and
        array headers; about 0.4 KB a view is used). A float64 copy of each
        target alone would add two float32 maps' worth a view."""
        n, size = 24, 32
        rng = np.random.default_rng(9)
        targets = {None: rng.uniform(0.0, 1.0, (size, size, 3)).astype(np.float32)}
        targets.update((k, rng.uniform(0.0, 1.0, (size, size, 3)).astype(np.float32))
                       for k in range(n - 1))
        sched = NoiseSchedule.linear_beta(8)
        x = np.zeros((size, size, 3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            den = BUILDERS[builder](targets)
            for key in targets:
                touch(den, key, sched, x)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= n * size * size * 3 * 4 + n * 2048 + 16384, grown
