"""In-memory span recorder and the layer wrappers of the traced run.

A span is a row ``[name, start_ns, end_ns, parent]`` where ``parent`` is
the index of the enclosing span, or -1 for a root. Rows are kept in
memory and written out by the caller when the run ends.

The wrappers are installed from the benchmark's own code, around calls
into each module's public functions, by replacing the name in the module
that imported it (``attention.bilinear_sample``, ``pipeline.ddim_sample``,
...). Nothing inside ``src/`` knows it is being traced.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from epiview import attention, pipeline, toyunet

# Spans that only group the benchmark's own steps; their self time is
# glue code (step arithmetic, context selection), not a layer.
STRUCTURAL = ("pipeline.setup", "pipeline.view")


class Tracer:
    """Span rows plus exact counts ("computed", not timed) gathered at the
    same layer boundaries. A disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # fusion weight of the synthesizer run in progress; retrievals
        # made while it is 0 are thrown away by ``fuse``
        self.alpha = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span; ``observe(args, kwargs, result)`` adds
        counts after the span closes. A disabled tracer returns ``fn``."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, kwargs, out)
            return out
        return traced


def self_times(spans: list) -> list:
    """Per span: its duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans: list) -> dict:
    """name -> {"calls", "self_ns", "total_ns"} summed over its spans."""
    own = self_times(spans)
    out: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0})
        row["calls"] += 1
        row["self_ns"] += own[i]
        row["total_ns"] += end - start
    return out


@contextmanager
def layer_wrappers(tracer: Tracer):
    """Install the traced versions of the layer entry points for the
    duration of the block, and restore the originals afterwards."""
    c = tracer.counts

    def bilinear(args, kwargs, out):
        fm, uv = args
        c["numerics.bilinear.bytes_computed"] += 4 * (uv.size // 2) * fm.channels * 8

    def sample_grid(args, kwargs, out):
        c["geometry.sample_grid.bytes"] += out.uv.nbytes + out.valid.nbytes

    def retrieval(args, kwargs, out):
        c["retrievals"] += 1
        if tracer.alpha == 0.0:
            c["retrievals_discarded"] += 1

    def epipolar(args, kwargs, out):
        valid = args[2].valid
        c["slots_valid"] += int(valid.sum())
        c["slots_total"] += valid.size
        retrieval(args, kwargs, out)

    def aggregate(args, kwargs, out):
        contributed = out[1]
        c["aggregates"] += 1
        c["pixels_contributed"] += int(contributed.sum())
        c["pixels_total"] += contributed.size

    plan = [
        (attention, "bilinear_sample", "numerics.bilinear", bilinear),
        (attention, "masked_softmax", "numerics.softmax", None),
        (attention, "apply_linear", "numerics.linear", None),
        (toyunet, "self_attention", "attention.self", None),
        (pipeline, "epipolar_sample_grid", "geometry.sample_grid", sample_grid),
        (pipeline, "epipolar_attention", "attention.epipolar", epipolar),
        (pipeline, "full_cross_attention", "attention.full", retrieval),
        (pipeline, "project_context", "attention.project_context", None),
        (pipeline, "multi_view_aggregate", "attention.aggregate_fuse", aggregate),
        (pipeline, "fuse", "attention.aggregate_fuse", None),
        (pipeline, "ddim_invert", "diffusion.invert", None),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in plan]
    ddim_sample = pipeline.ddim_sample

    def traced_ddim_sample(*args, stage_cb=None, **kwargs):
        if stage_cb is not None:
            stage_cb = tracer.wrap("diffusion.stage_cb", stage_cb)
        return ddim_sample(*args, stage_cb=stage_cb, **kwargs)

    try:
        for mod, attr, name, observe in plan:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), observe))
        pipeline.ddim_sample = traced_ddim_sample
        yield
    finally:
        pipeline.ddim_sample = ddim_sample
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
