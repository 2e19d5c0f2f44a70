"""Tests of the benchmark itself: span arithmetic, side-effect-free
wrappers, and metric and workload names.

    python -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

from epiview import attention, numerics, pipeline, toyunet

import workloads as wl
from spans import Tracer, self_times, summarize

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPECS = json.loads((HERE / "workloads.json").read_text())

# names as the benchmark's specification lists them; fail_frac is carried
# by the result's "failed" / "attempted" fields, because a metric that is
# 0 on correct code cannot be bounded as a share of its median
NAMED_WORKLOADS = {"analytic-epipolar", "toyunet-full", "consistency-loop"}
HAND_RUN = {"consistency-loop"}    # kept out of BENCHMARK.json, see README.md
NAMED_END_TO_END = {"setup_s", "view_s_p50", "step_ms_p50", "step_ms_tail",
                    "views_per_s", "peak_rss_mb", "reproj_err"}
NAMED_PER_LAYER = {
    "geometry.sample_grid.calls", "geometry.sample_grid.s", "geometry.sample_grid.bytes",
    "geometry.valid_slot_frac",
    "numerics.bilinear.calls", "numerics.bilinear.s", "numerics.bilinear.bytes_computed",
    "numerics.softmax.calls", "numerics.softmax.s", "numerics.linear.calls", "numerics.linear.s",
    "attention.self.calls", "attention.self.s", "attention.full.calls", "attention.full.s",
    "attention.epipolar.calls", "attention.epipolar.s",
    "attention.sim_elems.total", "attention.sim_elems.peak",
    "attention.project_context.calls", "attention.project_context.s",
    "attention.aggregate_fuse.s", "attention.contributed_frac", "attention.discarded_frac",
    "diffusion.invert.s", "diffusion.predict.calls", "diffusion.predict_self.s",
    "diffusion.stage_cb.calls", "diffusion.stage_cb.s", "toyunet.predict_self.s",
    "pipeline.reference.s", "pipeline.contexts_per_step", "pipeline.memo_hit_frac",
    "pipeline.cache.bytes", "scenegen.render.calls", "scenegen.render.s", "metrics.reproj.s",
    "trace.overhead_s", "trace.accounted_frac",
}


def tiny(name: str) -> dict:
    """A workload cut down to a few steps on a 16x16 grid."""
    spec = dict(SPECS[name], size=16, steps=4, inject_step=1)
    spec["targets"] = spec["targets"][:2]
    spec["reproj_err_max"] = 10.0
    return spec


def test_self_times_of_a_hand_built_tree():
    spans = [["view", 0, 100, -1],
             ["cb", 10, 50, 0],
             ["bilinear", 20, 30, 1],
             ["bilinear", 32, 37, 1],
             ["predict", 60, 90, 0],
             ["reproj", 200, 210, -1]]
    assert self_times(spans) == [30, 25, 10, 5, 30, 10]
    s = summarize(spans)
    assert s["bilinear"] == {"calls": 2, "self_ns": 15, "total_ns": 15}
    assert s["cb"] == {"calls": 1, "self_ns": 25, "total_ns": 40}
    assert sum(row["self_ns"] for name, row in s.items() if name != "reproj") == 100


def test_tracer_records_parents_and_disabled_tracer_records_nothing():
    t = Tracer()
    with t.span("a"):
        with t.span("b"):
            pass
        t.wrap("c", lambda: None)()
    assert [(s[0], s[3]) for s in t.spans] == [("a", -1), ("b", 0), ("c", 0)]
    assert all(s[2] >= s[1] for s in t.spans)
    off = Tracer(enabled=False)
    fn = abs
    assert off.wrap("x", fn) is fn
    with off.span("y"):
        pass
    assert off.spans == []


@pytest.mark.parametrize("name", ["analytic-epipolar", "toyunet-full", "consistency-loop"])
def test_wrappers_leave_outputs_unchanged(name):
    spec = tiny(name)
    inp = wl.make_inputs(spec, 3)
    plain = wl.run_unit(spec, inp, traced=False)
    traced = wl.run_unit(spec, inp, traced=True)
    again = wl.run_unit(spec, inp, traced=True)
    assert not (plain.failed or traced.failed or again.failed)
    for a, b in zip(plain.runs, traced.runs):
        assert [im.tobytes() for im in a.images] == [im.tobytes() for im in b.images]
    assert wl.unit_counts(traced) == wl.unit_counts(again)
    assert attention.bilinear_sample is numerics.bilinear_sample
    assert pipeline.ddim_sample.__module__ == "epiview.diffusion"
    assert toyunet.self_attention.__module__ == "epiview.attention"


def test_repeat_checks_fail_a_run_whose_bytes_differ():
    spec = tiny("analytic-epipolar")
    inp = wl.make_inputs(spec, 0)
    units = [wl.run_unit(spec, inp, traced=False) for _ in range(2)]
    units[1].runs[0].images[1] = units[1].runs[0].images[1] ^ 1
    wl.check_repeats(units)
    assert not units[0].runs[0].failed and units[1].runs[0].failed
    assert wl.failed_views(inp, units) == len(inp.targets)


def test_a_unit_past_its_deadline_stops_after_one_view_of_each_run():
    spec = tiny("consistency-loop")
    inp = wl.make_inputs(spec, 0)
    whole = wl.run_unit(spec, inp, traced=False)
    cut = wl.run_unit(spec, inp, traced=False, deadline=0.0)
    assert not (whole.failed or cut.failed)
    assert [len(r.view_s) for r in cut.runs] == [1]
    assert [key for key, _ in cut.steps] == [(0, 0)] * spec["steps"]
    wl.check_repeats([whole, cut])
    assert not cut.runs[0].failed
    assert wl.attempted_views(inp, [whole, cut]) == len(inp.unit) * len(inp.targets) + 1
    cut.runs[0].images[1] = cut.runs[0].images[1] ^ 1
    wl.check_repeats([whole, cut])
    assert wl.failed_views(inp, [cut]) == 1
    # a cut method run is left to the byte comparison, not failed for
    # lacking a reprojection error to compare with its alpha-0 run
    method = whole.runs[1]
    assert (method.run.alpha, method.run.context) == tuple(spec["method"])
    method.view_s, method.images = method.view_s[:1], method.images[:2]
    method.reproj_err = float("nan")
    for r in whole.runs[:2]:
        r.failed = False    # the tiny grid may miss the criterion-7 direction
    wl.check_outputs(spec, inp, whole.runs[:2])
    assert not method.failed


def test_names_match_the_specification_and_the_metrics_produced():
    assert set(SPECS) == NAMED_WORKLOADS
    assert {w["name"] for w in BENCHMARK["workloads"]} == NAMED_WORKLOADS - HAND_RUN
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == NAMED_END_TO_END - set(wl.REPORTED_ONLY)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == NAMED_PER_LAYER

    spec = tiny("consistency-loop")
    inp = wl.make_inputs(spec, 0)
    units = [wl.run_unit(spec, inp, traced=t) for t in (False, True, True)]
    e2e, _ = wl.end_to_end(spec, inp, units[:1], [])
    layers, _ = wl.per_layer(spec, units[0], units[1:])
    units_of = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    units_of.update(view_s_p50="s", step_ms_p50="ms", views_per_s="1/s")
    assert {k: u for k, (_, u) in e2e.items()} == {k: units_of[k] for k in NAMED_END_TO_END}
    assert {k: u for k, (_, u) in layers.items()} == {k: units_of[k] for k in NAMED_PER_LAYER}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    def pct(n, guaranteed):
        return wl.tail(list(range(n)), [1] * n, guaranteed)[1]
    assert pct(100, 100) == 90.0
    assert pct(1000, 1000) == 99.0
    assert pct(199, 199) == 90.0
    assert pct(200, 200) == 95.0
    # the guaranteed count, not the count reached, picks the percentile
    assert pct(5000, 200) == 95.0
    assert wl.tail([1.0, 2.0, 3.0], [1, 1, 1], 3) == (3.0, 100.0)


def test_quantile_weights_samples():
    assert wl.quantile([3.0, 1.0, 2.0], [1, 1, 1], 0.5) == 2.0
    assert wl.quantile([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], 0.5) == 2.0
    assert wl.quantile([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], 1.0) == 4.0
    # two samples of half weight count as one
    assert wl.quantile([1.0, 1.0, 5.0, 6.0], [0.5, 0.5, 1, 1], 0.5) == 5.0
